"""Reference spectral sums and lattice coefficients for the `kfree.eth` tests.

Each spectral oracle enumerates index assignments or materializes the full
amplitude/frequency tensor, so it is exact but only usable at small D.
None of them goes through `kfree.eth`'s einsum builder: they take the
matrices of a chain and write their own loops and contractions.

`distinct_index_bell` is the distinct-index sum over all Bell(2k) merge
patterns with the letters' diagonals kept, where `kfree.eth` zeroes the
diagonals and contracts only the patterns whose blocks hold no two
cyclically adjacent slots.

The lattice oracles do the inclusion-exclusion over the set-partition
lattice pair by pair, with the general Moebius function mu(sigma, pi), where
`kfree.eth` uses the block-product rule: `coincidence_pattern_sum` for any
exact coincidence pattern, and `strict_average_coeffs` with its O(Bell(m)^2)
double loop over pairs of slot partitions.

`restricted_coeffs_bell` is the Bell route of the strict average: every set
partition of the slots (`iter_set_partitions`), each weighted with the
product over its blocks of the classical cumulant of the 0/1 "the block's
phase cancels" indicator (`classical_cumulant`), the zeros dropped.
`kfree.eth` generates only the partitions into balanced blocks and weighs a
block of p slots of each sign with c_p directly.

`chain_amplitudes_einsum` is the amplitude tensor of a chain written as one
einsum that sums no index, the formula `kfree.eth._slot_amplitudes` builds
with broadcast multiplies.

`thermal_word_moment` is the plain weighted trace of one word, the moment
that `kfree.eth.thermal_free_cumulant` inverts.

`otoc_long_time_factorization`, `appendix_b_crossing_term` and
`phase_average_delta_structure` check the paper's long-time claims: the
strict-averaged 2k-OTOC against its free-cumulant factorization, the
Appendix B crossing term that `kfree.eth.factorization_gap` must equal, and
the delta structure of strict phase averages, by exhaustive comparison.

`ising_kronecker` assembles the mixed-field Ising chain from dense
Kronecker products of single-site Paulis, where `kfree.eth.ising_model`
fills the same entries by index arithmetic.
"""

import itertools
import string
from dataclasses import dataclass
from functools import lru_cache
from math import factorial
from typing import Callable, Hashable, Iterator, Sequence

import numpy as np

from kfree.eth import (
    RESONANCE_EPS_FACTOR,
    SlotChains,
    SpectralModel,
    ThermalState,
    TimeWindow,
    _thermal_letters,
    chains_from_word,
    heisenberg,
    merged_chain_sum,
    time_average,
)
from kfree.moments import Expectation, Value, Word, _word_trace, free_cumulant, mixed_moment_free, parts_product
from kfree.partitions import Partition, leq

BRUTE_FORCE_DIM_CAP = 60


@dataclass
class SpectralSum:
    """Explicit amplitude/frequency representation of a time-dependent sum."""

    amplitudes: np.ndarray
    frequencies: np.ndarray

    def value(self, t: float) -> complex:
        return complex(np.sum(self.amplitudes * np.exp(1j * t * self.frequencies)))

    def averaged(self, window: TimeWindow, eps_res: float = 0.0) -> "SpectralSum":
        if window.mode == "infinite":
            keep = np.abs(self.frequencies) <= eps_res
            return SpectralSum(np.where(keep, self.amplitudes, 0.0), np.where(keep, self.frequencies, 0.0))
        phase = 1j * window.t_max * self.frequencies
        kernel = np.where(np.abs(phase) < 1e-14, 1.0, (np.exp(phase) - 1.0) / np.where(phase == 0, 1.0, phase))
        return SpectralSum(self.amplitudes * kernel, self.frequencies)

    def total(self) -> complex:
        return complex(np.sum(self.amplitudes))


def window_average_total(ss: SpectralSum, t_max: float) -> complex:
    """(1/T) int_0^T of a materialized sum, with the window kernel
    (e^{ix} - 1)/(ix), x = T d, written as sin(x)/x + i 2 sin^2(x/2)/x so
    that no digits cancel at small x.  Frequencies |d| < 1e-14 keep weight 1,
    the rule `kfree.eth` applies."""
    d = ss.frequencies
    small = np.abs(d) < 1e-14
    x = t_max * np.where(small, 1.0, d)
    kernel = np.where(small, 1.0, np.sin(x) / x + 2j * np.sin(x / 2) ** 2 / x)
    return complex(np.sum(ss.amplitudes * kernel))


def word_spectral_sum(model: SpectralModel, state: ThermalState, word: Sequence[tuple]) -> SpectralSum:
    """Materialized spectral decomposition of a timed word moment (small D).

    Oracle-grade: enumerates every index assignment of the cyclic chain.
    """
    chains = chains_from_word(model, state, word)
    m = chains.n_slots
    D = model.dim
    if D**m > 20_000_000:
        raise ValueError("word too large to materialize")
    idx = Partition.singletons(m).block_index()
    letters = string.ascii_lowercase
    subs = [letters[idx[1]]]
    operands = [chains.weights[0]]
    for i, mat in enumerate(chains.cycles[0]):
        subs.append(letters[idx[i + 1]] + letters[idx[(i + 1) % m + 1]])
        operands.append(mat)
    amp = np.einsum(",".join(subs) + "->" + "".join(letters[:m]), *operands, optimize=True)
    freq = np.zeros(amp.shape)
    for axis in range(m):
        shape = [1] * m
        shape[axis] = D
        freq = freq + chains.slot_coeffs[axis] * model.energies.reshape(shape)
    return SpectralSum(amp.reshape(-1), freq.reshape(-1))


def joint_spectral_sum(model: SpectralModel, state: ThermalState, A, B) -> SpectralSum:
    """Materialized <A(t)B><A(t)B> = sum w_i w_k A_ij B_ji A_kl B_lk with
    frequency (E_i - E_j) + (E_k - E_l): the two-cycle sum behind the joint
    term of `factorization_gap`, written out as a D^4 tensor (small D)."""
    a, b = model.observable(A), model.observable(B)
    w, e = state.weights, model.energies
    cycle = w[:, None] * a * b.T  # [i, j] -> w_i A_ij B_ji
    amp = cycle[:, :, None, None] * cycle[None, None, :, :]
    omega = e[:, None] - e[None, :]
    freq = omega[:, :, None, None] + omega[None, None, :, :]
    return SpectralSum(amp.reshape(-1), freq.reshape(-1))


def chain_amplitudes_einsum(chains: SlotChains) -> np.ndarray:
    """Amplitude of every slot assignment, one axis per slot: each cycle's
    weight vector on its first slot times one matrix per pair of cyclically
    adjacent slots of the cycle (a one-slot cycle takes the diagonal)."""
    letters = string.ascii_lowercase
    subs, operands = [], []
    start = 0
    for cycle, w in zip(chains.cycles, chains.weights):
        p = len(cycle)
        subs.append(letters[start])
        operands.append(w)
        for i, mat in enumerate(cycle):
            subs.append(letters[start + i] + letters[start + (i + 1) % p])
            operands.append(mat)
        start += p
    return np.einsum(",".join(subs) + "->" + letters[:start], *operands, optimize=True)


def merged_chain_sum_loops(chains: SlotChains, merge: Partition, D: int) -> complex:
    """The chain sum with slots equal within each block of `merge`, as a
    plain loop over every assignment of an index to each block."""
    block = merge.block_index()
    total = 0.0 + 0.0j
    for values in itertools.product(range(D), repeat=len(merge.blocks)):
        x = [values[block[s]] for s in range(1, chains.n_slots + 1)]
        term = 1.0 + 0.0j
        start = 0
        for cycle, w in zip(chains.cycles, chains.weights):
            p = len(cycle)
            term *= w[x[start]]
            for i, mat in enumerate(cycle):
                term *= mat[x[start + i], x[start + (i + 1) % p]]
            start += p
        total += term
    return total


def distinct_index_brute(model: SpectralModel, state: ThermalState, A, B, k: int = 2, t: float = 0.0) -> complex:
    """The distinct-index sum of `kfree.eth.distinct_index_cumulant` by
    direct enumeration: O(D^4) with masks at k = 2, every injective index
    assignment otherwise."""
    mats = []
    for _ in range(k):
        mats.append(heisenberg(model, A, t))
        mats.append(model.observable(B))
    chains = SlotChains(cycles=[mats], weights=[state.weights], slot_coeffs=(0,) * (2 * k))
    if k == 2:
        return _distinct_brute_k2(chains, model.dim)
    return _distinct_brute_generic(chains, model.dim)


def distinct_index_bell(model: SpectralModel, state: ThermalState, A, B, k: int = 2, t: float = 0.0) -> complex:
    """The distinct-index sum of `kfree.eth.distinct_index_cumulant` over every
    set partition Q of the 2k slots, diagonals kept: sum_Q mu(0, Q) S_Q with
    the lattice Moebius function, Bell(2k) merged sums in all."""
    chains = SlotChains(cycles=[[heisenberg(model, A, t), model.observable(B)] * k], weights=[state.weights],
                        slot_coeffs=(0,) * (2 * k))
    zero = Partition.singletons(2 * k)
    total = 0.0 + 0.0j
    for q in iter_set_partitions(2 * k):
        total += partition_lattice_moebius(zero, q) * merged_chain_sum(chains, q)
    return complex(total)


def _distinct_brute_k2(chains: SlotChains, D: int) -> complex:
    if D > BRUTE_FORCE_DIM_CAP:
        raise ValueError(f"brute force capped at D <= {BRUTE_FORCE_DIM_CAP}")
    m1, m2, m3, m4 = chains.cycles[0]
    w = chains.weights[0]
    b = np.arange(D)
    base = (
        (b[:, None, None] != b[None, :, None])
        & (b[:, None, None] != b[None, None, :])
        & (b[None, :, None] != b[None, None, :])
    )
    total = 0.0 + 0.0j
    for x0 in range(D):
        amp = np.einsum("b,bc,cd,d->bcd", m1[x0, :], m2, m3, m4[:, x0], optimize=True)
        mask = base & (b[:, None, None] != x0) & (b[None, :, None] != x0) & (b[None, None, :] != x0)
        total += w[x0] * np.sum(amp[mask])
    return complex(total)


def _distinct_brute_generic(chains: SlotChains, D: int) -> complex:
    m = chains.n_slots
    if D**m > 10_000_000:
        raise ValueError("generic brute force too large")
    mats = chains.cycles[0]
    w = chains.weights[0]
    total = 0.0 + 0.0j
    for combo in itertools.permutations(range(D), m):
        term = w[combo[0]]
        for i, mat in enumerate(mats):
            term = term * mat[combo[i], combo[(i + 1) % m]]
        total += term
    return complex(total)


def partition_lattice_moebius(sigma: Partition, pi: Partition) -> int:
    """Moebius function of the full partition lattice (crossing allowed).

    The interval [sigma, pi] factorizes over the blocks of pi; each factor
    contributes (-1)^(r-1) (r-1)! where r counts the sigma-blocks merged into
    that block of pi.
    """
    if not leq(sigma, pi):
        raise ValueError(f"{sigma} is not below {pi}")
    idx = pi.block_index()
    counts = [0] * len(pi.blocks)
    for b in sigma.blocks:
        counts[idx[b[0]]] += 1
    out = 1
    for r in counts:
        out *= (-1) ** (r - 1) * factorial(r - 1)
    return out


def coincidence_pattern_sum(chains: SlotChains, pattern: Partition) -> complex:
    """Sum over slot assignments whose coincidence pattern is exactly `pattern`
    (equal within blocks, distinct across blocks), by inclusion-exclusion
    over the merged sums S_Q of the patterns Q above it:
    sum_{Q >= pattern} mu(pattern, Q) S_Q."""
    total = 0.0 + 0.0j
    for q in iter_set_partitions(chains.n_slots):
        if leq(pattern, q):
            total += partition_lattice_moebius(pattern, q) * merged_chain_sum(chains, q)
    return total


def strict_average_coeffs(m: int, slot_coeffs: tuple[int, ...]) -> tuple[tuple[Partition, int], ...]:
    """Coefficients c_Q with E_inf[sum] = sum_Q c_Q S_Q, non-zero ones only.

    A slot assignment with exact coincidence pattern P survives the infinite
    time average iff every block of P has zero total phase coefficient.
    Expanding the survivors over merged sums gives
    c_Q = sum_{P <= Q} zeta(P) mu(P, Q), summed here pair by pair.
    """
    parts = tuple(iter_set_partitions(m))

    def zeta(p: Partition) -> bool:
        return all(sum(slot_coeffs[i - 1] for i in b) == 0 for b in p.blocks)

    zeta_flags = {p: zeta(p) for p in parts}
    out = []
    for q in parts:
        c = 0
        for p in parts:
            if zeta_flags[p] and leq(p, q):
                c += partition_lattice_moebius(p, q)
        if c != 0:
            out.append((q, c))
    return tuple(out)


def iter_set_partitions(n: int) -> Iterator[Partition]:
    """All set partitions of {1..n} (restricted-growth enumeration)."""
    if n == 0:
        yield Partition(0, ())
        return
    blocks: list[list[int]] = []

    def rec(i: int):
        if i > n:
            yield Partition(n, tuple(tuple(b) for b in blocks))
            return
        for b in blocks:
            b.append(i)
            yield from rec(i + 1)
            b.pop()
        blocks.append([i])
        yield from rec(i + 1)
        blocks.pop()

    yield from rec(1)


def classical_cumulant(phi: Callable[[Word], Value], word: Sequence[Hashable]) -> Value:
    """Ordinary cumulant: Moebius inversion over all set partitions, with
    mu(sigma, 1_n) = (-1)^(r-1) (r-1)! for sigma of r blocks."""
    word = tuple(word)
    total: Value = 0
    for sigma in iter_set_partitions(len(word)):
        r = len(sigma.blocks)
        total += parts_product(phi, word, sigma.blocks) * ((-1) ** (r - 1) * factorial(r - 1))
    return total


@lru_cache(maxsize=None)
def _slot_partitions(m: int) -> tuple[Partition, ...]:
    return tuple(iter_set_partitions(m))


def restricted_coeffs_bell(slot_coeffs: tuple[int, ...]) -> tuple[tuple[Partition, int], ...]:
    """The non-zero (Q, c_Q), in `iter_set_partitions` order, of a strict
    infinite-time average sum_Q c_Q S_Q, each c_Q a product of blockwise
    classical cumulants over all Bell(m) slot partitions."""
    coeffs = ((q, parts_product(_kept_cumulant, slot_coeffs, q.blocks)) for q in _slot_partitions(len(slot_coeffs)))
    return tuple((q, c) for q, c in coeffs if c != 0)


def _kept_cumulant(coeffs: tuple[int, ...]) -> int:
    """Classical cumulant of the indicator "this block's phase cancels" over
    the slot coefficients of one block.  The indicator of a sub-block reads
    only the multiset of its coefficients, so the cumulant is symmetric in
    its entries and is computed once per multiset."""
    return _indicator_cumulant(tuple(sorted(coeffs)))


@lru_cache(maxsize=None)
def _indicator_cumulant(coeffs: tuple[int, ...]) -> int:
    return classical_cumulant(lambda block: int(sum(block) == 0), coeffs)


def positional_thermal_free_cumulant(model: SpectralModel, state: ThermalState, word: Sequence[tuple]) -> complex:
    """`kfree.eth.thermal_free_cumulant` with each letter labelled by its
    position: equal letters are separate labels, so every sub-word is traced
    on its own and A(t) is rotated once per slot."""
    letters = {i: heisenberg(model, obs, t) for i, (obs, t) in enumerate(word)}
    phi = Expectation(_word_trace(letters, state.weights))
    return complex(free_cumulant(phi, tuple(letters)))


def positional_averaged_free_cumulant(
    model: SpectralModel, state: ThermalState, word: Sequence[tuple], window: TimeWindow
) -> complex:
    """`kfree.eth.averaged_free_cumulant` with each letter labelled by its
    position, so every positional sub-word is time-averaged on its own."""
    phi = Expectation(lambda positions: time_average(model, state, [word[p] for p in positions], window))
    return complex(free_cumulant(phi, tuple(range(len(word)))))


def thermal_word_moment(model: SpectralModel, state: ThermalState, word: Sequence[tuple]) -> complex:
    """<A_1(t_1) ... A_n(t_n)> under the canonical weight of `state`.

    `word` is a sequence of (observable, time) pairs.
    """
    if not word:
        return 1.0
    letters, labels = _thermal_letters(model, word)
    return _word_trace(letters, state.weights)(labels)


def otoc_long_time_factorization(model: SpectralModel, state: ThermalState, A, B, k: int) -> tuple[complex, complex, float]:
    """Strict-infinite averaged 2k-OTOC against its cumulant factorization.

    lhs = E_inf <A(t) B ... A(t) B>;  rhs = sum over NC(k) of the thermal
    cumulant products of A times the B moments grouped by the dual
    partition.  Returns (lhs, rhs, |lhs - rhs|).
    """
    word = tuple(x for _ in range(k) for x in ((A, True), (B, False)))
    lhs = time_average(model, state, word, TimeWindow("infinite"))
    letters = {"a": model.observable(A), "b": model.observable(B)}
    phi = Expectation(_word_trace(letters, state.weights))
    rhs = mixed_moment_free(phi, phi, ("a",) * k, ("b",) * k)
    return complex(lhs), complex(rhs), abs(complex(lhs) - complex(rhs))


def appendix_b_crossing_term(model: SpectralModel, state: ThermalState, A, B) -> complex:
    """The off-diagonal pairing that separates the joint average from the
    product of averages: sum_{i != j} w_i w_j A_{ji} B_{ij} A_{ij} B_{ji}."""
    a, b = model.observable(A), model.observable(B)
    w = state.weights
    full = np.einsum("i,j,ji,ij,ij,ji->", w, w, a, b, a, b, optimize=True)
    diag = np.sum(w**2 * np.diagonal(a) ** 2 * np.diagonal(b) ** 2)
    return complex(full - diag)


def phase_average_delta_structure(model: SpectralModel) -> float:
    """Exhaustively compare the strict phase average of
    e^{-it[(E_i - E_ibar) + (E_j - E_jbar)]} with the resonance pattern
    d_{i,ibar} d_{j,jbar} + (d_{i,jbar} d_{j,ibar} - triple coincidence).
    Returns the largest mismatch over all index quadruples (small D only)."""
    D = model.dim
    if D > 24:
        raise ValueError("exhaustive delta-structure check is for small D")
    eps = RESONANCE_EPS_FACTOR * model.spectral_width()
    gap = np.subtract.outer(model.energies, model.energies)  # E_i - E_ibar
    strict = np.abs(np.add.outer(gap, gap)) < eps  # axes i, ibar, j, jbar
    d = np.eye(D)
    formula = np.einsum("ab,cd->abcd", d, d) + np.einsum("ad,cb->abcd", d, d) - np.einsum("ab,ac,ad->abcd", d, d, d)
    return float(np.max(np.abs(strict - formula)))


def _pauli_site(op: np.ndarray, site: int, L: int) -> np.ndarray:
    out = np.array([[1.0]])
    for i in range(L):
        out = np.kron(out, op if i == site else np.eye(2))
    return out


def ising_kronecker(L: int, J: float = 1.0, hx: float = -1.05, hz: float = 0.5) -> tuple[np.ndarray, dict]:
    """(H, {"sz_mid", "sx_mid"}) of `kfree.eth.ising_model`, before diagonalization."""
    sx = np.array([[0.0, 1.0], [1.0, 0.0]])
    sz = np.array([[1.0, 0.0], [0.0, -1.0]])
    D = 2**L
    h = np.zeros((D, D))
    for i in range(L - 1):
        h += J * _pauli_site(sz, i, L) @ _pauli_site(sz, i + 1, L)
    for i in range(L):
        h += hx * _pauli_site(sx, i, L) + hz * _pauli_site(sz, i, L)
    mid = L // 2
    return h, {"sz_mid": _pauli_site(sz, mid, L), "sx_mid": _pauli_site(sx, mid, L)}
