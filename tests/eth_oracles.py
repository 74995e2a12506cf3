"""Reference spectral sums for the `kfree.eth` tests.

Each oracle enumerates index assignments or materializes the full
amplitude/frequency tensor, so it is exact but only usable at small D.
None of them goes through `kfree.eth`'s einsum builder: they take the
matrices of a chain and write their own loops and contractions.
"""

import itertools
import string
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from kfree.eth import SlotChains, SpectralModel, ThermalState, TimeWindow, chains_from_word, heisenberg
from kfree.partitions import Partition

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


def merged_chain_sum_loops(chains: SlotChains, merge: Partition, D: int) -> complex:
    """The chain sum with slots equal within each block of `merge`, as a
    plain loop over every assignment of an index to each block."""
    block = merge.block_index()
    total = 0.0 + 0.0j
    for values in itertools.product(range(D), repeat=merge.num_blocks()):
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
