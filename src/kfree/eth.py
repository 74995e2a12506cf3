"""Exact diagonalization, thermal free cumulants, distinct-index spectral
sums, long-time averages, and perturbed-basis (macroscopically
indistinguishable Hamiltonian) ensembles.

Spectral sums are organized around "slot chains": a product of operator
matrix elements around one or more trace cycles, with a diagonal weight
vector per cycle and an energy-phase coefficient per slot.

`build_model` diagonalises with `eigh` and keeps the eigenvectors, which
every spectral sum needs; `hamiltonian_energies` runs the same checks and
returns only the `eigvalsh` energies, which is all the spectral statistics
(`spectral_width`, `level_spacing_ratio`, `resonance_report`, functions of
the sorted energies) read.  Both test finiteness and Hermiticity one row
panel at a time, on the real part when every imaginary part is exactly 0, so
the checks add no full-size array beside H.

One builder, `_chain_einsum`, lays out every chain sum as numpy's
interleaved einsum operands: each matrix or weight vector followed by its
axis numbers, axis n being the n-th block of the merge pattern Q.
`merged_chain_sum` contracts them to a number S_Q.  The finite-window
average keeps every slot axis open (the singleton pattern) and builds the
amplitude tensor by broadcast multiplies into one reused buffer
(`_slot_amplitudes`).  Amplitudes far from resonance, divided by their
phase d, are contracted against per-slot phase vectors e^{iT c_s E}, with
the window kernel's e^{iTd} - 1 telescoped over the slots into a first-slot
term and a weight over the later slots formed once; the few near resonance
take `window_kernel`.
`_chain_time_average` is the one place that chooses between the infinite
window and a finite one.

A strict infinite-time average keeps the slot assignments whose every
coincidence block B (maximal set of slots sharing an eigenstate) has phase
coefficients summing to 0, the only ones whose phase cancels on a generic
spectrum.  It is sum_Q c_Q S_Q with c_Q a product over the blocks of Q,
because [0, Q] in the set-partition lattice is the product of the lattices
of Q's blocks (Nica-Speicher, Lecture 10; Stanley, EC1 3.10).  Slot
coefficients are -1, 0 or +1, and a block weighs 0 unless it is one zero
slot (weight 1) or balanced, p slots of +1 and p of -1 (weight c_p,
`_balanced_weight`), so `_restricted_coeffs` generates just the partitions
into such blocks.  A distinct-index sum (every block one slot,
c_Q = mu(0, Q)) reads no diagonal entry, so `distinct_index_cumulant`
zeroes the diagonals and sums only over the patterns Q with no block holding
two adjacent slots.  One pruned restricted-growth walk,
`partitions.weighted_set_partitions`, lists both kinds of pattern.
Reference sums that the tests compare against live in the tests, not here.

Dtype rule: a matrix stays real unless it is complex-valued.  `build_model`
diagonalises a Hamiltonian whose imaginary parts are all exactly 0 (a real
array, or a complex-typed one) with the real `eigh`, and `to_eigenbasis`
drops such an observable's zero imaginary part before rotating it, so a real
model's basis, observables, merged sums and strict averages are float64.
Only a time phase (`heisenberg` at t != 0, the finite window's phase
vectors) or an input with a non-zero imaginary part makes them complex.  The
file boundary follows the same rule: `matio.load_operator` loads a file
whose imaginary parts are all 0 as float64, so no complex copy of a real
operator file is ever staged.

Thread rule: below ONE_THREAD_DIM levels every public entry point that
does BLAS work runs on one OpenBLAS thread (`_one_blas_thread`, entered by
`_one_thread_below`).  There a second thread buys little time and spins
between the many small products; a larger model keeps the caller's count
(DECISIONS.md entry 8).
"""

from __future__ import annotations

import ctypes
from contextlib import contextmanager
from dataclasses import dataclass
from functools import cache, lru_cache, reduce, wraps
from math import comb
from typing import Sequence

import numpy as np

from .moments import Expectation, _times, _word_trace, cumulant_words, free_cumulant
from .partitions import Partition, weighted_set_partitions

DEFAULT_DIM_CAP = 4096
RESONANCE_EPS_FACTOR = 1e-10
RESONANCE_SAMPLES = 20_000  # index quadruples resonance_report draws
WINDOW_BYTES_CAP = 2**31  # bytes a windowed average may hold, as `window_bytes` counts them
_WINDOW_CHUNK_ELEMS = 2**18  # amplitude-tensor entries per chunk of a windowed average
_SCAN_CHUNK_ELEMS = 4096  # (time, eigenstate) entries per chunk of `thermal_cumulant_scan`
GOE_OBSERVABLES = ("A", "B")  # the observables goe_model draws
ISING_OBSERVABLES = ("sz_mid", "sx_mid")  # the observables of ising_model
ISING_J, ISING_HX, ISING_HZ = 1.0, -1.05, 0.5  # zz coupling, transverse and longitudinal fields of ising_model
_PANEL_ELEMS = 65_536  # entries per row panel of the Hermiticity check
ONE_THREAD_DIM = 288  # below this D an entry point runs on one OpenBLAS thread


# ---------------------------------------------------------------------------
# the OpenBLAS thread count
# ---------------------------------------------------------------------------


@cache
def _openblas_thread_control():
    """(get, set) for the thread count of the OpenBLAS numpy loaded, found
    through its C API in the libraries mapped into this process, or None
    where there is no such library (MKL, Accelerate, a non-Linux system)."""
    try:
        with open("/proc/self/maps") as fh:
            libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower() and "/" in line})
    except OSError:
        return None
    for path in libs:
        lib = ctypes.CDLL(path)
        for prefix in ("scipy_openblas", "openblas"):
            for suffix in ("64_", ""):
                get = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
                set_ = getattr(lib, f"{prefix}_set_num_threads{suffix}", None)
                if get is None or set_ is None:
                    continue
                get.restype, get.argtypes = ctypes.c_int, []
                set_.restype, set_.argtypes = None, [ctypes.c_int]
                return get, set_
    return None


@contextmanager
def _one_blas_thread():
    """Pin OpenBLAS to one thread for the block and restore the previous
    count on exit, also when the block raises; yields whether the count
    could be pinned.  Re-entrant: inside another pin, or where the count is
    already 1, it changes nothing, so overlapping pins end on the count the
    outermost one found."""
    control = _openblas_thread_control()
    if control is None:
        yield False
        return
    get, set_ = control
    before = get()
    if before == 1:
        yield True
        return
    set_(1)
    try:
        yield True
    finally:
        set_(before)


def _one_thread_below(fn):
    """`fn` on one OpenBLAS thread when its first argument, a model or a
    D x D matrix, has D < ONE_THREAD_DIM."""

    @wraps(fn)
    def call(first, *args, **kwargs):
        shape = (first.dim,) if isinstance(first, SpectralModel) else np.shape(first)
        if shape and shape[0] >= ONE_THREAD_DIM:
            return fn(first, *args, **kwargs)
        with _one_blas_thread():
            return fn(first, *args, **kwargs)

    return call


# ---------------------------------------------------------------------------
# models and thermal states
# ---------------------------------------------------------------------------


def goe_matrix(D: int, rng) -> np.ndarray:
    a = rng.standard_normal((D, D))
    return (a + a.T) / 2.0


def normalize_observable(m: np.ndarray) -> np.ndarray:
    """Make an operator traceless and unit-normalized in the second moment."""
    m = np.asarray(m)
    D = m.shape[0]
    w = np.full(D, 1.0 / D)
    scale = np.max(np.abs(m))
    m = m - np.dot(w, np.diagonal(m)) * np.eye(D)
    norm = np.sqrt(abs(_word_trace({"m": m}, w)(("m", "m"))))
    if norm <= 1e-12 * scale:  # a multiple of the identity, every 1 x 1 operator among them
        raise ValueError(f"a {D}x{D} observable with no traceless part cannot be normalized")
    return m / norm


class SpectralModel:
    """Eigen-decomposed Hamiltonian with observables stored in its eigenbasis."""

    def __init__(self, energies: np.ndarray, basis: np.ndarray, observables: dict[str, np.ndarray], provenance: str = "user"):
        self.energies = np.asarray(energies, dtype=float)
        self.basis = np.asarray(basis)
        self.observables = {k: np.asarray(v) for k, v in observables.items()}
        self.provenance = provenance
        if not np.all(np.diff(self.energies) >= 0):
            raise ValueError("energies must be sorted ascending")
        unit_dev = np.max(np.abs(self.basis.conj().T @ self.basis - np.eye(self.dim)))
        if unit_dev > 1e-10:
            raise ValueError(f"eigenvector matrix not unitary: deviation {unit_dev:.3e}")

    @property
    def dim(self) -> int:
        return len(self.energies)

    def spectral_width(self) -> float:
        return spectral_width(self.energies)

    def observable(self, obs) -> np.ndarray:
        """Resolve a named observable; raw arrays are taken as eigenbasis matrices."""
        if isinstance(obs, str):
            return self.observables[obs]
        return np.asarray(obs)


# ---------------------------------------------------------------------------
# spectral statistics of sorted energies
# ---------------------------------------------------------------------------


def spectral_width(energies: np.ndarray) -> float:
    return float(energies[-1] - energies[0])


def level_spacing_ratio(energies: np.ndarray) -> float | None:
    """Mean adjacent-gap ratio over the central half of the spectrum, leaving
    out pairs of zero gaps (a degenerate triple has no ratio); None where no
    pair remains, as below 3 levels."""
    gaps = np.diff(energies)
    lo, hi = len(gaps) // 4, 3 * len(gaps) // 4
    s1, s2 = gaps[lo:hi], gaps[lo + 1 : hi + 1]
    larger = np.maximum(s1, s2)
    kept = larger > 0
    return float(np.mean(np.minimum(s1, s2)[kept] / larger[kept])) if kept.any() else None


def resonance_report(energies: np.ndarray, seed: int = 0) -> dict:
    """Count near-resonances |E_i + E_j - E_k - E_l| < eps = RESONANCE_EPS_FACTOR x width among
    RESONANCE_SAMPLES sampled quadruples, excluding the trivial ones where {i,j} == {k,l}."""
    eps = RESONANCE_EPS_FACTOR * spectral_width(energies)
    rng = np.random.default_rng(seed)
    i, j, k, l = rng.integers(0, len(energies), size=(RESONANCE_SAMPLES, 4)).T
    delta = np.abs(energies[i] + energies[j] - energies[k] - energies[l])
    trivial = ((i == k) & (j == l)) | ((i == l) & (j == k))
    hits = int(np.sum((delta < eps) & ~trivial))
    return {"eps": eps, "n_samples": RESONANCE_SAMPLES, "near_resonances": hits}


# ---------------------------------------------------------------------------
# diagonalization
# ---------------------------------------------------------------------------


@_one_thread_below
def build_model(
    hamiltonian: np.ndarray,
    observables: dict[str, np.ndarray] | None = None,
    provenance: str = "user",
) -> SpectralModel:
    """Dense diagonalization; observables are rotated into the eigenbasis."""
    energies, basis = np.linalg.eigh(_checked_hamiltonian(hamiltonian))
    obs = {name: to_eigenbasis(basis, m) for name, m in (observables or {}).items()}
    return SpectralModel(energies, basis, obs, provenance=provenance)


@_one_thread_below
def hamiltonian_energies(hamiltonian: np.ndarray) -> np.ndarray:
    """Sorted eigenvalues of a Hamiltonian (`eigvalsh`, no eigenvectors),
    after the same checks as `build_model`."""
    return np.linalg.eigvalsh(_checked_hamiltonian(hamiltonian))


def _checked_hamiltonian(hamiltonian) -> np.ndarray:
    """H after the dimension cap, finiteness and Hermiticity checks, real
    when every imaginary part is exactly 0."""
    h = np.asarray(hamiltonian)
    if h.shape[0] > DEFAULT_DIM_CAP:
        raise ValueError(f"dimension {h.shape[0]} exceeds cap {DEFAULT_DIM_CAP}")
    h = _real_if_zero_imag(h)
    if _hermitian_deviation(h) > 1e-10:
        raise ValueError("hamiltonian must be Hermitian")
    return h


def _hermitian_deviation(h: np.ndarray) -> float:
    """max |H - H^dagger|, one row panel at a time, so no temporary is
    larger than a panel; a non-finite entry of H is an error, raised before
    the maximum could hide a NaN."""
    rows = max(1, _PANEL_ELEMS // max(1, h.shape[1]))
    dev = 0.0
    for lo in range(0, h.shape[0], rows):
        if not np.isfinite(h[lo : lo + rows]).all():
            raise ValueError("hamiltonian has non-finite entries")
        panel = h[lo : lo + rows] - h[:, lo : lo + rows].conj().T
        dev = max(dev, float(np.max(np.abs(panel))))
    return dev


@_one_thread_below
def to_eigenbasis(basis: np.ndarray, m: np.ndarray) -> np.ndarray:
    """basis^dagger m basis, in real arithmetic when neither has an imaginary part."""
    return basis.conj().T @ _real_if_zero_imag(m) @ basis


def _real_if_zero_imag(m) -> np.ndarray:
    """`m` as a real array when every imaginary part is exactly 0."""
    m = np.asarray(m)
    return m.real if np.iscomplexobj(m) and not np.any(m.imag) else m


def goe_model(D: int, seed: int = 0) -> SpectralModel:
    """GOE Hamiltonian with independent normalized GOE observables named GOE_OBSERVABLES."""
    rng = np.random.default_rng(seed)
    model = build_model(goe_matrix(D, rng), provenance=_goe_provenance(D, seed))
    for name in GOE_OBSERVABLES:
        model.observables[name] = normalize_observable(goe_matrix(D, rng))
    return model


def _goe_provenance(D: int, seed: int) -> str:
    return f"goe(D={D}, seed={seed})"


def ising_hamiltonian(L: int) -> np.ndarray:
    """Mixed-field Ising chain (open boundary) at a standard chaotic point,
    J = ISING_J, hx = ISING_HX, hz = ISING_HZ.

    Site i is bit L-1-i of a basis index (site 0 is the leftmost Kronecker
    factor): sigma-z is diagonal with entries 1 - 2 bit, and sigma-x flips
    the bit.  The diagonal sums its zz terms, then its z terms, in site order.
    """
    D = 2**L
    idx = np.arange(D)
    bits = [1 << (L - 1 - i) for i in range(L)]
    z = [1.0 - 2.0 * ((idx & b) != 0) for b in bits]
    diag = np.zeros(D)
    for i in range(L - 1):
        diag += ISING_J * (z[i] * z[i + 1])
    h = np.zeros((D, D))
    for i in range(L):
        diag += ISING_HZ * z[i]
        h[idx, idx ^ bits[i]] += ISING_HX
    h[idx, idx] = diag
    return h


def ising_model(L: int) -> SpectralModel:
    """`ising_hamiltonian` with mid-chain sigma-z / sigma-x observables."""
    D = 2**L
    idx = np.arange(D)
    bit = 1 << (L - 1 - L // 2)
    sx_mid = np.zeros((D, D))
    sx_mid[idx, idx ^ bit] = 1.0
    obs = dict(zip(ISING_OBSERVABLES, (np.diag(1.0 - 2.0 * ((idx & bit) != 0)), sx_mid)))
    return build_model(ising_hamiltonian(L), obs, provenance=_ising_provenance(L))


def _ising_provenance(L: int) -> str:
    return f"ising(L={L}, J={ISING_J}, hx={ISING_HX}, hz={ISING_HZ})"


@dataclass
class ThermalState:
    beta: float
    weights: np.ndarray

    def effective_dim(self) -> float:
        return float(1.0 / np.sum(self.weights**2))


def thermal_state(model: SpectralModel, beta: float) -> ThermalState:
    # energies shifted by the ground state before exponentiating, so Z
    # here is the shifted partition function; a beta (E - E_0) past the
    # float range is inf, weight 0, which leaves the ground states
    with np.errstate(over="ignore"):
        w = np.exp(-beta * (model.energies - model.energies[0]))
        Z = float(np.sum(w))
        if np.isinf(Z):  # beta < 0 past the range: shifted by the top level instead
            w = np.exp(-beta * (model.energies - model.energies[-1]))
            Z = float(np.sum(w))
    return ThermalState(beta=beta, weights=w / Z)


def heisenberg(model: SpectralModel, obs, t: float) -> np.ndarray:
    """Time-evolved operator in the eigenbasis: A(t)_ij = e^{i(E_i-E_j)t} A_ij."""
    m = model.observable(obs)
    if t == 0.0:
        return m
    phases = np.exp(1j * model.energies * t)
    return (phases[:, None] * m) * phases.conj()[None, :]


@_one_thread_below
def thermal_free_cumulant(model: SpectralModel, state: ThermalState, word: Sequence[tuple]) -> complex:
    """kappa^beta_n of a word of (observable, time) letters, by Moebius
    inversion of thermal word moments over NC(n).  Equal letters share a
    label (`_value_labels`), so equal sub-words are evaluated once."""
    if not word:
        raise ValueError("thermal_free_cumulant needs a nonempty word (got the empty word)")
    letters, labels = _thermal_letters(model, word)
    phi = Expectation(_word_trace(letters, state.weights))
    return complex(free_cumulant(phi, labels))


@_one_thread_below
def thermal_cumulant_scan(model: SpectralModel, state: ThermalState, A, B, k: int, times: Sequence[float]) -> np.ndarray:
    """`thermal_free_cumulant` of `alternating_word(A, B, k, t)` at each t of
    `times`.  rho commutes with H, so an NC(2k) block sub-word of A(t) letters
    only, or of B only, is traced once; one whose A(t) letters form one
    cyclic run is sum_ij u_i P_ij conj(u_j), u = e^{iEt}, with P formed once
    (`_run_kernel`), one (times x D)(D x D) product per chunk of the grid;
    the rest are traced at each t.  Where the letters collapse (A is B at
    t = 0) the value is `thermal_free_cumulant`'s own."""
    a, b, w = model.observable(A), model.observable(B), state.weights
    word = (0, 1) * k  # label 0 is A(t), 1 is B
    # the cyclic runs of A(t) letters in each sub-word, in the order free_cumulant reads them
    runs = {s: sum(x < y for x, y in zip(s, s[1:] + s[:1])) for s in cumulant_words(word)}
    static = Expectation(_word_trace({0: a, 1: b}, w))
    kernels = {s: _run_kernel(s, a, b, w) for s, n in runs.items() if n == 1}
    timed = [s for s, n in runs.items() if n > 1]
    collapsed = _value_labels(((A, 0.0), (B, 0.0))) == (0, 0)
    out = np.empty(len(times), dtype=complex)
    step = max(1, _SCAN_CHUNK_ELEMS // model.dim)
    for lo in range(0, len(times), step):
        chunk = np.asarray(times[lo : lo + step], dtype=float)
        u = np.exp(1j * np.multiply.outer(chunk, model.energies))
        values = {s: np.einsum("ti,ti->t", _times(u, p), u.conj()) for s, p in kernels.items()}
        traces = (_word_trace({0: np.outer(uj, uj.conj()) * a, 1: b}, w) for uj in u)
        values.update(zip(timed, np.array([[trace(s) for s in timed] for trace in traces]).T))
        out[lo : lo + step] = free_cumulant(Expectation(lambda s: values[s] if s in values else static(s)), word)
        if collapsed:
            out[lo : lo + step][chunk == 0.0] = thermal_free_cumulant(model, state, alternating_word(A, B, k, 0.0))
    return out


def _run_kernel(sub: tuple[int, ...], a: np.ndarray, b: np.ndarray, w: np.ndarray) -> np.ndarray:
    """P with sum_i w_i (sub-word at t)_ii = sum_ij u_i P_ij conj(u_j) for a
    sub-word whose A(t) letters (label 0) form one cyclic run: rho, diagonal
    like the phases, joins the first letter, and the word turned to start at
    the run is cut into run and rest, P = run * rest^T."""
    mats = [(a, b)[x] for x in sub]
    mats[0] = w[:, None] * mats[0]
    start = next(i for i, x in enumerate(sub) if x < sub[i - 1])
    mats = mats[start:] + mats[:start]
    return reduce(np.matmul, mats[: sub.count(0)]) * reduce(np.matmul, mats[sub.count(0) :]).T


def _thermal_letters(model: SpectralModel, word: Sequence[tuple]) -> tuple[dict[int, np.ndarray], tuple[int, ...]]:
    """The word's value labels and one Heisenberg matrix per distinct label."""
    labels = _value_labels(word)
    return {i: heisenberg(model, *word[i]) for i in dict.fromkeys(labels)}, labels


def _value_labels(word: Sequence[tuple]) -> tuple[int, ...]:
    """Label of each (observable, time) letter: the position of the first
    letter equal to it, i.e. with the same observable name or object (an
    array matches only itself) and an equal time or timed flag."""
    first: dict[tuple, int] = {}
    return tuple(first.setdefault((obs if isinstance(obs, str) else id(obs), t), i) for i, (obs, t) in enumerate(word))


def alternating_word(A, B, k: int, t: float) -> tuple:
    """The 2k-letter word A(t) B A(t) B ... used by freeness probes."""
    return tuple(x for _ in range(k) for x in ((A, t), (B, 0.0)))


# ---------------------------------------------------------------------------
# slot chains: merged sums, distinct-index sums, strict time averages
# ---------------------------------------------------------------------------


@dataclass
class SlotChains:
    """One or more trace cycles of operators with per-slot phase coefficients.

    cycles[c] is the matrix sequence of cycle c (eigenbasis); weights[c] is
    the diagonal weight vector contracted with that cycle's first slot;
    slot_coeffs holds the integer coefficient of E_slot * t in the total
    phase (built from which letters are time-dependent).
    """

    cycles: list[list[np.ndarray]]
    weights: list[np.ndarray]
    slot_coeffs: tuple[int, ...]

    @property
    def n_slots(self) -> int:
        return len(self.slot_coeffs)


def chains_from_word(model: SpectralModel, state: ThermalState, word: Sequence[tuple]) -> SlotChains:
    """Single-cycle chains for a word of (observable, timed: bool) letters."""
    mats = [model.observable(obs) for obs, _ in word]
    return SlotChains(cycles=[mats], weights=[state.weights], slot_coeffs=_slot_coeffs([t for _, t in word]))


def _slot_coeffs(timed: Sequence[bool]) -> tuple[int, ...]:
    """Phase coefficient per slot: a timed letter i adds +1 to its left slot
    i and -1 to its right slot i + 1 (cyclically)."""
    return tuple(bool(timed[i]) - bool(timed[i - 1]) for i in range(len(timed)))


def _chain_einsum(chains: SlotChains, merge: Partition) -> list:
    """Interleaved einsum operands of the chain sum with slots identified
    per `merge`: slot s lies on the axis numbered by its block, each cycle
    contributes its weight vector on its first slot and then one matrix per
    slot pair."""
    idx = merge.block_index()
    operands = []
    slot = 1
    for cyc, w in zip(chains.cycles, chains.weights):
        p = len(cyc)
        operands += [w, [idx[slot]]]
        for i, m in enumerate(cyc):
            operands += [m, [idx[slot + i], idx[slot + (i + 1) % p]]]
        slot += p
    return operands


def merged_chain_sum(chains: SlotChains, merge: Partition) -> complex:
    """Unrestricted chain sum with slots identified per `merge` (one einsum)."""
    if merge.n != chains.n_slots:
        raise ValueError("merge partition must cover every slot")
    return complex(np.einsum(*_chain_einsum(chains, merge), [], optimize=True))


@lru_cache(maxsize=None)
def _restricted_coeffs(slot_coeffs: tuple[int, ...]) -> tuple[tuple[Partition, int], ...]:
    """The non-zero (Q, c_Q), in restricted-growth order, of a strict
    infinite-time average sum_Q c_Q S_Q (module docstring).  The walk keeps a
    slot of coefficient 0 alone and goes on only while the later slots can
    still cancel every block's running sum, so each partition it reaches is
    balanced; where the coefficients sum to 0, as a chain's do, no branch of
    the walk is a dead end."""
    c = (0,) + slot_coeffs  # c[s] is slot s's coefficient

    def fits(g, s):  # no zero slot shares a block; the later slots can cancel every block's sum
        shared = (x for b in g if len(b) > 1 for x in b)
        return all(c[x] for x in shared) and sum(abs(sum(c[x] for x in b)) for b in g) <= sum(map(abs, slot_coeffs[s:]))

    return weighted_set_partitions(len(slot_coeffs), fits, lambda n: _balanced_weight(n // 2))


@lru_cache(maxsize=None)
def _balanced_weight(p: int) -> int:
    """c_p, the weight of a block of p slots of +1 and p of -1: the weights of
    its partitions into balanced blocks sum to 1, its phase being cancelled.
    The block holding the first +1 slot takes q - 1 more +1 slots and q -1
    slots, C(p-1, q-1) C(p, q) ways, and the rest sums to 1 again, so
    c_p = 1 - sum_{q<p} C(p-1, q-1) C(p, q) c_q: 1, -1, 4, -33, 456, -9460
    for p = 1..6, and c_0 = 1 for a zero slot alone."""
    return 1 - sum(comb(p - 1, q - 1) * comb(p, q) * _balanced_weight(q) for q in range(1, p))


def window_bytes(D: int, m: int) -> int:
    """Bytes `_windowed_chain_sum` allocates for m slots over D levels, at
    most.  Over the n = D^(m-1) later-slot entries it holds, for the whole
    sum, V and the product of the operands off the first slot, both complex
    at most.  Over a chunk of the amplitude tensor it holds, per entry, the
    amplitude (complex at most), its phase d (a float) and two masks
    (bools)."""
    n = D ** (m - 1)
    c16, f8, b1 = (np.dtype(t).itemsize for t in (complex, float, bool))
    return 2 * c16 * n + (c16 + f8 + 2 * b1) * min(D, max(1, _WINDOW_CHUNK_ELEMS // n)) * n


def _windowed_chain_sum(chains: SlotChains, energies: np.ndarray, t_max: float) -> complex:
    """Finite-window average (1/T) int_0^T dt of the chain sum: the amplitude
    of each slot assignment is weighted with (e^{iTd} - 1)/(iTd), where
    d = sum_s c_s E_{i_s} is its phase.

    Far from resonance, |d| >= 1e-3 M with M = sum_s |c_s| max|E - mean E|
    the bound on |d|, the amplitudes give (-i/T) sum g (prod_s u_s - 1) with
    g = amp/d and u_s = e^{iT c_s E} one D-vector per slot.  Telescoping
    prod_s u_s - 1 = (u_0 - 1) + u_0 V, V = sum_{s>=1} (u_s - 1) prod_{1<=r<s} u_r,
    splits off the first slot: V, over the later slot axes, is built once
    from the last slot inwards, V <- (u_s - 1) + u_s V, and a first-slot
    index i adds (u_0i - 1) sum g_i + u_0i sum g_i V.
    u_s - 1 = 2i sin(theta/2) e^{i theta/2} stays accurate at small T, and no
    D^m-sized array meets a transcendental.  The coefficients of a chain sum
    to 0, so E is centred first: d is unchanged and the phases are smaller.

    The telescoped weight of one amplitude is off by about eps M/|d|, since
    d and the product of phase vectors carry eps M of rounding, so it is kept
    to |d| >= 1e-3 M (error <= ~1e3 eps).  The few amplitudes nearer
    resonance (structural resonances with a rounding residual, near-degenerate
    levels) take `window_kernel` itself.

    Amplitudes are materialized chunked over the first slot, each chunk in
    one reused buffer (`_slot_amplitudes`).  What no chunk changes is formed
    once: V and the product of the operands off the first slot
    (`_fold_later_slots`), so a chunk multiplies its first-slot operands
    into that product in one pass and makes two passes over its amplitudes
    (a real chunk against V by real products).  A chunk's phases are summed
    from the first slot outwards; only the last sum is of the chunk's size,
    so forming the later slots' sum once would save little and hold 8 bytes
    more per later-slot entry.
    """
    m, D = chains.n_slots, len(energies)
    if window_bytes(D, m) > WINDOW_BYTES_CAP:
        raise ValueError(
            f"a finite window over {m} slots at D = {D} holds about {window_bytes(D, m) / 2**30:.1f} GiB,"
            f" past the {WINDOW_BYTES_CAP / 2**30:g} GiB budget"
        )
    coeffs = chains.slot_coeffs
    e = energies - np.mean(energies)
    weight, spread = sum(abs(c) for c in coeffs), float(np.max(np.abs(e)))
    if t_max * weight * spread < np.finfo(float).tiny:
        # every T d underflows or is 0 (an untimed chain, a zero-width spectrum): weight 1, the t = 0 sum
        return merged_chain_sum(chains, Partition.singletons(m))
    operands = _fold_later_slots(_chain_einsum(chains, Partition.singletons(m)))
    near = max(1e-14, 1e-3 * weight * spread)
    with np.errstate(over="ignore", invalid="ignore"):
        thetas = [t_max * c * e for c in coeffs]
    # rows[s] = [u_s - 1; u_s] over the eigenstates of slot s; None where some
    # T c_s E overflows, so T d does for every far amplitude: weight 0
    rows = None
    if all(np.isfinite(theta).all() for theta in thetas):
        rows = [np.stack([2j * np.sin(theta / 2) * np.exp(0.5j * theta), np.exp(1j * theta)]) for theta in thetas]

    v = np.zeros((), dtype=complex)  # V over the later slot axes (docstring)
    for row in reversed(rows[1:] if rows is not None else []):
        v = np.multiply.outer(row[1], v)
        v += row[0].reshape((D,) + (1,) * (v.ndim - 1))
    v = v.reshape(-1)
    pairs = v.view(float).reshape(-1, 2)  # [Re V, Im V] columns, for a real chunk
    chunk = min(D, max(1, _WINDOW_CHUNK_ELEMS // D ** (m - 1)))
    amplitudes = np.empty((chunk,) + (D,) * (m - 1), dtype=np.result_type(*operands[::2]))
    direct = telescoped = 0.0 + 0.0j
    for lo in range(0, D, chunk):
        sel = slice(lo, lo + chunk)
        g = amplitudes[: min(chunk, D - lo)]
        _slot_amplitudes(g, operands, sel)
        delta = coeffs[0] * e[sel]
        for c in coeffs[1:]:
            delta = np.add.outer(delta, c * e)
        close = delta < near
        close &= delta > -near
        direct += complex(np.sum(g[close] * window_kernel(delta[close], t_max)))
        if rows is None:
            continue
        delta[close] = np.inf
        g /= delta
        del delta, close  # freed before the next chunk's
        g = g.reshape(len(g), -1)
        if np.iscomplexobj(g):
            gv = g @ v
        else:
            gv = g @ pairs
            gv = gv[:, 0] + 1j * gv[:, 1]
        telescoped += rows[0][0, sel] @ g.sum(axis=1) + rows[0][1, sel] @ gv
    if rows is None:
        return direct
    return complex(direct - 1j * telescoped / t_max)


def _fold_later_slots(operands: list) -> list:
    """Interleaved einsum `operands` with those off axis 0 replaced by their
    product, one operand on the axes they name: what no first-slot chunk of
    a window changes, formed once."""
    first, later = [], []
    for op, axes in zip(operands[::2], operands[1::2]):
        (first if 0 in axes else later).extend([op, axes])
    if not later:
        return first
    axes = sorted(set().union(*later[1::2]))
    return first + [np.einsum(*later, axes), axes]


def _slot_amplitudes(out: np.ndarray, operands: list, sel: slice) -> None:
    """Fill `out` with the chain's amplitude tensor over the slot axes (axis
    0 restricted to `sel`): the einsum of the interleaved `operands` onto
    every axis, which sums no index, done as broadcast multiplies, each
    operand viewed on the axes it names.  A repeated axis (the one slot of a
    one-slot cycle) is a diagonal."""
    product = None
    for op, axes in zip(operands[::2], operands[1::2]):
        if len(axes) == 2 and axes[0] == axes[1]:
            axes, op = axes[:1], np.diagonal(op)
        if len(axes) == 2 and axes[0] > axes[1]:
            axes, op = axes[::-1], op.T
        if axes[0] == 0:
            op = op[sel]
        shape = [1] * out.ndim
        for axis, n in zip(axes, op.shape):
            shape[axis] = n
        view = op.reshape(shape)
        if product is None:
            product = view
            continue
        # small partial products stay temporaries; the first full-size one
        # is written into `out` and every later factor multiplies it in place
        full = np.broadcast_shapes(product.shape, view.shape) == out.shape
        product = np.multiply(product, view, out=out if full else None)


def window_kernel(d: np.ndarray, t_max: float) -> np.ndarray:
    """The window kernel K_T(d) = (1/T) int_0^T e^{idt} dt = (e^{ix} - 1)/(ix)
    at x = T d, written sin(x)/x + 2i sin^2(x/2)/x so that no digits cancel
    at small x.  |d| < 1e-14 has weight 1, and T = inf keeps only those: the
    resonance indicator of the infinite window."""
    small = np.abs(d) < 1e-14
    if t_max == np.inf:
        return small.astype(complex)
    with np.errstate(over="ignore"):
        x = t_max * np.where(small, 1.0, d)
    one = small | (np.abs(x) < np.finfo(float).tiny)  # T d underflows: K = 1 to the last bit
    far = np.isinf(x)  # T d overflows: K -> 0
    x = np.where(one | far, 1.0, x)
    return np.where(one, 1.0, np.where(far, 0.0, np.sin(x) / x + 2j * np.sin(x / 2) ** 2 / x))


# ---------------------------------------------------------------------------
# public time-average interface
# ---------------------------------------------------------------------------


@dataclass
class TimeWindow:
    mode: str = "infinite"  # "finite" | "infinite"
    t_max: float | None = None

    def __post_init__(self):
        if self.mode not in ("finite", "infinite"):
            raise ValueError(f"unknown window mode {self.mode!r}")
        if self.mode == "finite" and (self.t_max is None or self.t_max <= 0):
            raise ValueError("finite windows need t_max > 0")


def _chain_time_average(chains: SlotChains, energies: np.ndarray, window: TimeWindow) -> complex:
    """Time average of a chain sum.  A finite window averages each phase
    over [0, T] (`_windowed_chain_sum`); the infinite window keeps the
    assignments whose every coincidence block has zero total phase."""
    if window.mode == "finite":
        return _windowed_chain_sum(chains, energies, window.t_max)
    return sum((c * merged_chain_sum(chains, q) for q, c in _restricted_coeffs(chains.slot_coeffs)), 0j)


@_one_thread_below
def time_average(model: SpectralModel, state: ThermalState, word: Sequence[tuple], window: TimeWindow) -> complex:
    """Time-averaged moment of a word of (observable, timed: bool) letters;
    the empty word averages to 1."""
    if not word:
        return 1.0
    return _chain_time_average(chains_from_word(model, state, word), model.energies, window)


@_one_thread_below
def averaged_free_cumulant(
    model: SpectralModel, state: ThermalState, word: Sequence[tuple], window: TimeWindow
) -> complex:
    """Free cumulant of individually time-averaged word moments.

    The average sits inside each moment (ensemble-inclusive expectation);
    Moebius inversion happens after averaging.  The functional's words are
    tuples of positions into `word`, each letter labelled with the position
    of the first equal letter (`_value_labels`), so equal sub-words share one
    cache entry.
    """
    if not word:
        raise ValueError("averaged_free_cumulant needs a nonempty word (got the empty word)")
    phi = Expectation(lambda positions: time_average(model, state, [word[p] for p in positions], window))
    return complex(free_cumulant(phi, _value_labels(word)))


# ---------------------------------------------------------------------------
# distinct-index cumulants
# ---------------------------------------------------------------------------


@_one_thread_below
def distinct_index_cumulant(model: SpectralModel, state: ThermalState, A, B, k: int = 2, t: float = 0.0) -> complex:
    """Restricted spectral sum representation of kappa^beta_{2k}.

    Sum over pairwise distinct eigenstate indices of
    w_{i0} A(t)_{i0 i1} B_{i1 i2} A(t)_{i2 i3} B_{i3 i0} ... around the
    2k-cycle, as sum_Q mu(0, Q) S_Q.  It reads no diagonal entry, since
    adjacent slots differ, so every letter's diagonal is set to 0 and only the
    Q whose S_Q can then be non-zero are contracted (`_distinct_patterns`).
    """
    if k < 1:
        raise ValueError(f"distinct_index_cumulant needs k >= 1 (got k={k})")
    letters = [heisenberg(model, A, t).copy(), model.observable(B).copy()]
    for m in letters:
        np.fill_diagonal(m, 0)
    chains = SlotChains(cycles=[letters * k], weights=[state.weights], slot_coeffs=(0,) * (2 * k))
    return sum((mu * merged_chain_sum(chains, q) for q, mu in _distinct_patterns(2 * k)), 0j)


@lru_cache(maxsize=None)
def _distinct_patterns(m: int) -> tuple[tuple[Partition, int], ...]:
    """(Q, mu(0, Q)) for each set partition Q of the m-cycle in which no block
    holds a slot and its cyclic successor, in restricted-growth order, with
    mu(0, Q) = prod_B (-1)^(|B|-1) (|B|-1)!: 1, 4, 41 and 715 patterns at
    m = 2, 4, 6 and 8, against Bell(m) = 2, 15, 203 and 4,140."""

    def apart(g, s):  # s - 1 and s, and m and 1, in different blocks
        return not any(b[-2:] == (s - 1, s) or (b[0], b[-1]) == (1, m) for b in g)

    return weighted_set_partitions(m, apart)


# ---------------------------------------------------------------------------
# free-k times, window factorization
# ---------------------------------------------------------------------------


@dataclass
class FreeTimeResult:
    reached: bool
    time: float | None
    magnitudes: np.ndarray


@_one_thread_below
def free_k_time(
    model: SpectralModel,
    state: ThermalState,
    A,
    B,
    k: int,
    t_grid: Sequence[float],
    threshold: float = 0.05,
) -> FreeTimeResult:
    """Smallest time of `t_grid` after which |kappa^beta_{2k}(A(t),B,...)|
    stays below threshold times its initial magnitude for the rest of the grid."""
    times = np.asarray(list(t_grid), dtype=float)
    mags = np.abs(thermal_cumulant_scan(model, state, A, B, k, times))
    above = np.flatnonzero(~(mags <= threshold * mags[0]))
    i = above[-1] + 1 if len(above) else 0  # every magnitude from times[i] on is below
    reached = bool(i < len(times))
    return FreeTimeResult(reached, float(times[i]) if reached else None, mags)


@_one_thread_below
def factorization_gap(model: SpectralModel, state: ThermalState, A, B, window: TimeWindow) -> tuple[complex, complex, complex]:
    """(joint, product, gap) for E_t[<A(t)B><A(t)B>] vs (E_t[<A(t)B>])^2."""
    a, b = model.observable(A), model.observable(B)
    joint_chains = SlotChains(
        cycles=[[a, b], [a, b]],
        weights=[state.weights, state.weights],
        slot_coeffs=(1, -1, 1, -1),
    )
    single = ((a, True), (b, False))
    joint = _chain_time_average(joint_chains, model.energies, window)
    mean = time_average(model, state, single, window)
    product = mean * mean
    return complex(joint), complex(product), complex(joint - product)


# ---------------------------------------------------------------------------
# perturbed-basis ensembles
# ---------------------------------------------------------------------------


@dataclass
class DeutschReport:
    overlaps: dict[float, np.ndarray]
    rotated: dict[float, np.ndarray]
    mixed_kappa4: dict[tuple[float, float], complex]


@_one_thread_below
def deutsch_ensemble(
    model: SpectralModel,
    perturbation: np.ndarray,
    strength: float,
    lambdas: Sequence[float],
    beta: float = 0.0,
    observable="A",
) -> DeutschReport:
    """Diagonalize each weak perturbation H + strength*lambda*H' of the base
    Hamiltonian (`perturbation` H' given in the base eigenbasis), rotate the
    observable into each perturbed eigenbasis, and probe mutual freeness
    with the base thermal weight at `beta`."""
    h0 = np.diag(model.energies)
    a = model.observable(observable)
    state = thermal_state(model, beta)
    overlaps: dict[float, np.ndarray] = {}
    rotated: dict[float, np.ndarray] = {}
    for lam in lambdas:
        vecs = np.linalg.eigh(h0 + strength * lam * perturbation)[1]
        overlaps[lam] = np.abs(vecs) ** 2
        rotated[lam] = vecs.conj().T @ a @ vecs

    mixed: dict[tuple[float, float], complex] = {}
    for l1 in lambdas:
        for l2 in lambdas:
            if l2 < l1:
                continue
            word = ((rotated[l1], 0.0), (rotated[l2], 0.0), (rotated[l1], 0.0), (rotated[l2], 0.0))
            mixed[(l1, l2)] = thermal_free_cumulant(model, state, word)
    return DeutschReport(overlaps=overlaps, rotated=rotated, mixed_kappa4=mixed)
