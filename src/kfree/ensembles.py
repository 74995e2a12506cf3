"""Unitary ensembles and their channel diagnostics: Haar sampling, discrete
sets, Hamiltonian time windows, Monte Carlo channel estimation, freeness
probes, design checks, and channel distance."""

from __future__ import annotations

import ctypes
import functools
import math
import os
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Hashable, Sequence

import numpy as np

from .channel import permutation_operator
from .errors import RegimeError
from .eth import SpectralModel
from .moments import Expectation, _cyclic_key, _word_trace, free_cumulant, sub_words
from .partitions import enumerate_nc
from .permutations import all_permutations

PROB_TOL = 1e-12
UNITARY_TOL = 1e-10  # max |U^dagger U - I| accepted for a supplied unitary
DENSE_CHANNEL_CAP = 4096  # D^k for Monte Carlo channel matrices
DENSE_SUPEROP_CAP = 4096  # D^(2k), the side of a dense superoperator, and k!
_PAIR_BLOCK_ROWS = 256  # sample-Gram rows held at once by _pair_moment
_PAIR_SUB_ROWS = 32  # Gram rows computed per complex matmul inside a block


@dataclass(frozen=True)
class HaarEnsemble:
    dim: int

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError("dimension must be positive")


@dataclass
class DiscreteEnsemble:
    unitaries: list[np.ndarray]
    probabilities: np.ndarray | None = None

    def __post_init__(self):
        if len(self.unitaries) == 0:
            raise ValueError("a discrete ensemble needs at least one unitary")
        self.unitaries = [np.asarray(u, dtype=complex) for u in self.unitaries]
        for i, u in enumerate(self.unitaries):
            if u.shape != self.unitaries[0].shape:
                raise ValueError(f"unitary {i} has shape {u.shape}, unitary 0 has {self.unitaries[0].shape}")
            if not np.all(np.isfinite(u)):
                raise ValueError(f"unitary {i} has non-finite entries")
            dev = float(np.max(np.abs(u.conj().T @ u - np.eye(len(u)))))
            if dev > UNITARY_TOL:
                raise ValueError(f"unitary {i} is not unitary: max|U^dagger U - I| = {dev:.3e} > {UNITARY_TOL}")
        if self.probabilities is None:
            self.probabilities = np.full(len(self.unitaries), 1.0 / len(self.unitaries))
        self.probabilities = np.asarray(self.probabilities, dtype=float)
        if len(self.probabilities) != len(self.unitaries):
            raise ValueError(f"{len(self.probabilities)} probabilities for {len(self.unitaries)} unitaries")
        if not np.all(np.isfinite(self.probabilities)):
            raise ValueError("probabilities must be finite")
        if np.any(self.probabilities < 0):
            raise ValueError("probabilities must be nonnegative")
        if abs(self.probabilities.sum() - 1.0) > PROB_TOL:
            raise ValueError("probabilities must sum to 1")

    @property
    def dim(self) -> int:
        return self.unitaries[0].shape[0]


@dataclass
class HamiltonianEnsemble:
    """Evolution unitaries e^{-iHt} with t uniform on [0, t_max]."""

    model: SpectralModel
    t_max: float
    n_samples: int = 1000

    def __post_init__(self):
        if not math.isfinite(self.t_max) or self.t_max <= 0:
            raise ValueError(f"t_max must be positive and finite (got {self.t_max})")
        if self.n_samples < 1:
            raise ValueError("n_samples must be positive")

    @property
    def dim(self) -> int:
        return self.model.dim


EnsembleSpec = HaarEnsemble | DiscreteEnsemble | HamiltonianEnsemble


def sample_haar(D: int, rng) -> np.ndarray:
    """Haar-distributed unitary: Ginibre draw, QR, phase-normalized diagonal."""
    if D < 1:
        raise ValueError("dimension must be positive")
    z = (rng.standard_normal((D, D)) + 1j * rng.standard_normal((D, D))) / math.sqrt(2.0)
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def spawn_rngs(seed: int, n: int) -> list[np.random.Generator]:
    """One independent substream per sample index (deterministic)."""
    return [np.random.default_rng(s) for s in np.random.SeedSequence(seed).spawn(n)]


def _members(spec: EnsembleSpec, n_samples: int, seed: int):
    """(weights, total, member) of an ensemble: its average of f is
    sum_i weights[i] f(member(i)) / total.

    A discrete ensemble lists its unitaries with their probabilities, total
    1.  Haar draws `n_samples` unitaries, unitary i from substream i of
    `spawn_rngs(seed, n_samples)`, and a Hamiltonian ensemble evolves for
    its own `spec.n_samples` times, taken in one uniform draw from
    `default_rng(seed)`; sampled members weigh 1 each and total their
    count.  A Haar member consumes its substream, so call this again for a
    second pass over the same draws.
    """
    if isinstance(spec, DiscreteEnsemble):
        return spec.probabilities, 1.0, spec.unitaries.__getitem__
    if isinstance(spec, HamiltonianEnsemble):
        basis, energies = spec.model.basis, spec.model.energies
        times = _window_times(spec, seed)
        return np.ones(len(times)), len(times), lambda i: (basis * np.exp(-1j * energies * times[i])) @ basis.conj().T
    if n_samples < 1:
        raise ValueError("n_samples must be positive")
    rngs = spawn_rngs(seed, n_samples)
    # through the module global, so a rebinding of sample_haar sees every draw
    return np.ones(n_samples), n_samples, lambda i: sample_haar(spec.dim, rngs[i])


def member_count(spec: EnsembleSpec, n_samples: int | None) -> int | None:
    """How many members `_members` lists, without drawing them: a discrete
    size, a Hamiltonian ensemble's own `spec.n_samples`, else `n_samples`."""
    if isinstance(spec, DiscreteEnsemble):
        return len(spec.unitaries)
    return spec.n_samples if isinstance(spec, HamiltonianEnsemble) else n_samples


def _window_times(spec: HamiltonianEnsemble, seed: int) -> np.ndarray:
    """The `spec.n_samples` evolution times of a Hamiltonian ensemble."""
    return np.random.default_rng(seed).uniform(0.0, spec.t_max, spec.n_samples)


@functools.cache
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
    count on exit; yields whether the count could be pinned."""
    control = _openblas_thread_control()
    if control is None:
        yield False
        return
    get, set_ = control
    before = get()
    set_(1)
    try:
        yield True
    finally:
        set_(before)


def _worker_count() -> int:
    """Cores this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity API on this platform
        return os.cpu_count() or 1


def _kron_power(u: np.ndarray, k: int) -> np.ndarray:
    out = np.array([[1.0 + 0.0j]])
    for _ in range(k):
        out = np.kron(out, u)
    return out


def channel_monte_carlo(spec: EnsembleSpec, k: int, O: np.ndarray, n_samples: int = 1000, seed: int = 0) -> np.ndarray:
    """Empirical mean of U^{dagger x k} O U^{x k} (dense; small D^k only).

    Haar takes `n_samples` draws, a Hamiltonian ensemble its own
    `spec.n_samples`, and a discrete ensemble is summed exactly (`_members`).
    """
    O = np.asarray(O, dtype=complex)
    D = round(O.shape[0] ** (1.0 / k))
    if D**k != O.shape[0]:
        raise ValueError("operator dimension is not a k-th power")
    if D**k > DENSE_CHANNEL_CAP:
        raise ValueError(f"dense channel capped at D^k <= {DENSE_CHANNEL_CAP}")
    weights, total, member = _members(spec, n_samples, seed)
    acc = np.zeros_like(O)
    for i, w in enumerate(weights):
        uk = _kron_power(member(i), k)
        acc += w * (uk.conj().T @ O @ uk)
    return acc / total


@dataclass
class Estimate:
    value: complex
    std_error: float | None  # None with one sample: there is no spread
    n_samples: int
    seed: int | None = None


class EnsembleExpectation:
    """The ensemble-inclusive expectation: each word moment is the ensemble
    average of the normalized trace of the dressed word.

    Labels marked rotated are conjugated by the sampled unitary; others are
    left fixed.  Per-batch means are retained so nonlinear functions of the
    moments (cumulants) get batch-means error bars.

    Each sample costs its draw (Ginibre plus QR), two matmuls per rotated
    label for the dressing, and one `moments._word_trace` over the dressed
    letters, which closes every word with an O(D^2) contraction of two
    cached half-products.  Words are traced longest first, so shorter words
    find their halves built: at k = 2 one word matmul (A B) serves every
    word of a sample.  The QR is the largest part (about 12 ms of 25 ms at
    D = 256 on a 2-core x86-64 machine with OpenBLAS 0.3.31) and gains
    nothing from a second BLAS thread, so samples run concurrently, one per
    core, each on one OpenBLAS thread.
    """

    def __init__(
        self,
        spec: EnsembleSpec,
        operators: dict[Hashable, np.ndarray],
        rotated: set[Hashable],
        n_samples: int = 1000,
        seed: int = 0,
        n_batches: int = 20,
    ):
        self.operators = {k: np.asarray(v, dtype=complex) for k, v in operators.items()}
        self.rotated = set(rotated)
        self.exact = isinstance(spec, DiscreteEnsemble)
        self._members = functools.partial(_members, spec, n_samples, seed)  # drawn afresh for each pass
        self.n_samples = member_count(spec, n_samples)
        if self.n_samples < 1:
            raise ValueError("n_samples must be positive")
        self.n_batches = min(n_batches, self.n_samples)  # no batch is empty
        self._means: dict[tuple, complex] = {}
        self._batches: dict[tuple, np.ndarray] = {}
        dims = {m.shape[0] for m in self.operators.values()}
        if len(dims) != 1:
            raise ValueError("operators must share one dimension")
        (self.dim,) = dims

    def evaluate_words(self, words: Sequence[tuple]) -> None:
        """Accumulate the ensemble averages of every requested word at once."""
        needed = {_cyclic_key(tuple(w)) for w in words if tuple(w)}
        needed -= set(self._means)
        if not needed:
            return
        # imported here, not at the top: its ~10 ms import would add to every kfree start-up
        from concurrent.futures import ThreadPoolExecutor

        weights, total, member = self._members()
        per_sample = {w: np.empty(self.n_samples, dtype=complex) for w in needed}

        def run(i: int) -> None:
            traces = self._sample_traces(member(i), needed)
            for w in needed:
                per_sample[w][i] = traces[w]

        # members are independent (a sample has its own substream) and each
        # runs on one BLAS thread, so its bits depend on neither the BLAS
        # thread count nor the number of workers; without OpenBLAS control,
        # one worker
        with _one_blas_thread() as pinned:
            workers = min(_worker_count(), self.n_samples) if pinned else 1
            with ThreadPoolExecutor(max_workers=workers) as pool:
                for _ in pool.map(run, range(self.n_samples)):
                    pass
        for w in needed:
            vals = per_sample[w]
            self._means[w] = complex(np.sum(weights * vals) / total)
            if not self.exact:  # sampled members weigh 1: batch means are plain means
                self._batches[w] = np.array([np.mean(chunk) for chunk in np.array_split(vals, self.n_batches)])

    def _sample_traces(self, u: np.ndarray, words: set[tuple]) -> dict[tuple, complex]:
        dressed = {}
        for label, m in self.operators.items():
            dressed[label] = u.conj().T @ m @ u if label in self.rotated else m
        trace = _word_trace(dressed)
        return {w: trace(w) for w in sorted(words, key=lambda w: (-len(w), repr(w)))}

    def functional(self, batch: int | None = None) -> Expectation:
        """Expectation over cached word averages (or one batch's averages)."""

        def fn(key: tuple) -> complex:
            # the cyclic Expectation hands over each word at its _cyclic_key
            if key not in self._means:
                self.evaluate_words([key])
            if batch is None:
                return self._means[key]
            if key not in self._batches:
                return self._means[key]  # a discrete ensemble has no batches
            return complex(self._batches[key][batch])

        return Expectation(fn, cyclic=True)


def _alternating_labels(k: int) -> tuple:
    return tuple(x for _ in range(k) for x in ("A", "B"))


def _needed_block_words(word: tuple) -> list[tuple]:
    return sorted({w for pi in enumerate_nc(len(word)) for w in sub_words(word, pi.blocks)}, key=repr)


def k_freeness_test(
    spec: EnsembleSpec,
    A: np.ndarray,
    B: np.ndarray,
    k: int,
    n_samples: int = 2000,
    seed: int = 0,
    n_batches: int = 20,
) -> Estimate:
    """Estimate kappa_{2k}(A^U, B, A^U, B, ...) under the ensemble.

    Word moments are ensemble-averaged first and Moebius inversion is applied
    to the averaged moments; the standard error comes from recomputing the
    cumulant on batch means, at most one per sample (None for one sample).
    """
    word = _alternating_labels(k)
    expectation = EnsembleExpectation(
        spec, {"A": A, "B": B}, rotated={"A"}, n_samples=n_samples, seed=seed, n_batches=n_batches
    )
    expectation.evaluate_words(_needed_block_words(word))
    value = complex(free_cumulant(expectation.functional(), word))
    if expectation.exact:
        return Estimate(value=value, std_error=0.0, n_samples=expectation.n_samples, seed=seed)
    batches = expectation.n_batches
    if batches < 2:
        return Estimate(value=value, std_error=None, n_samples=expectation.n_samples, seed=seed)
    batch_vals = np.array(
        [complex(free_cumulant(expectation.functional(batch=b), word)) for b in range(batches)]
    )
    spread = np.std(batch_vals.real, ddof=1) + 1j * np.std(batch_vals.imag, ddof=1)
    std_error = abs(spread) / math.sqrt(batches)
    return Estimate(value=value, std_error=std_error, n_samples=expectation.n_samples, seed=seed)


# ---------------------------------------------------------------------------
# superoperators, design checking, channel distance
# ---------------------------------------------------------------------------


def _add_superoperator_term(out: np.ndarray, u: np.ndarray, k: int, p: float) -> None:
    """Add p times the row-major-vec superoperator of O -> U^{dagger x k} O
    U^{x k}, kron(a, b) with a = (U^{x k})^dagger and b = (U^{x k})^T, to
    `out` in place: out[i, j, r, s] += p (a_ir b_js) with out viewed as
    (d, d, d, d), one row slab i at a time, so no D^(2k) x D^(2k) term exists."""
    uk = _kron_power(u, k)
    a, b = uk.conj().T, uk.T
    out4 = out.reshape((len(a),) * 4)
    slab = np.empty(out4.shape[1:], dtype=complex)
    for i in range(len(a)):
        np.multiply(a[i][None, :, None], b[:, None, :], out=slab)
        slab *= p
        out4[i] += slab


def _check_superop_size(k: int, D: int) -> None:
    """Refuse before allocating: the superoperators are D^(2k) x D^(2k), and
    the Haar one is built from the k! permutation operators (what binds at
    D = 1).  The loop stops at the first factor past the cap, so a huge k
    costs nothing."""
    size, perms = 1, 1
    for j in range(1, k + 1):
        size, perms = size * D * D, perms * j
        if size > DENSE_SUPEROP_CAP or perms > DENSE_SUPEROP_CAP:
            raise ValueError(
                f"dense superoperator capped at D^(2k) <= {DENSE_SUPEROP_CAP} and k! <= {DENSE_SUPEROP_CAP}"
                f" (got D={D}, k={k})"
            )


def haar_channel_superoperator(k: int, D: int) -> np.ndarray:
    """Dense Haar k-fold channel superoperator, as the Hilbert-Schmidt
    orthogonal projector onto span{W_alpha}.

    The twirl is a self-adjoint idempotent whose range is the commutant of
    U^{x k}, which the permutation operators span, and that characterizes
    the projector for every D.  For D < k the W_alpha are dependent; the SVD
    keeps an orthonormal basis of their span either way.
    """
    _check_superop_size(k, D)
    span = np.stack([permutation_operator(a, D).reshape(-1) for a in all_permutations(k)], axis=1)
    u, s, _ = np.linalg.svd(span, full_matrices=False)
    basis = u[:, s > 1e-9 * s[0]]
    return basis @ basis.conj().T


def ensemble_superoperator(spec: EnsembleSpec, k: int, seed: int = 0) -> np.ndarray:
    """Dense k-fold channel superoperator of an ensemble: the Haar projector,
    or the weighted mean over the members of a discrete or Hamiltonian
    ensemble (`_members`)."""
    _check_superop_size(k, spec.dim)
    if isinstance(spec, HaarEnsemble):
        return haar_channel_superoperator(k, spec.dim)
    weights, total, member = _members(spec, 0, seed)  # no Haar draws: handled above
    dim = spec.dim**k
    out = np.zeros((dim * dim, dim * dim), dtype=complex)
    for i, w in enumerate(weights):
        _add_superoperator_term(out, member(i), k, w)
    out /= total
    return out


@dataclass
class DesignReport:
    passed: bool
    max_deviation: float
    k: int
    tolerance: float


def design_check(spec: EnsembleSpec, k: int, tolerance: float = 1e-10, seed: int = 0) -> DesignReport:
    """Compare the ensemble k-fold channel with the Haar one on a spanning
    set of inputs (dense superoperators); reports the max entry deviation."""
    if isinstance(spec, HaarEnsemble):
        return DesignReport(True, 0.0, k, tolerance)
    gap = ensemble_superoperator(spec, k, seed=seed)
    gap -= haar_channel_superoperator(k, spec.dim)  # in place: no second D^(2k) x D^(2k) array
    dev = float(np.max(np.abs(gap)))
    return DesignReport(dev <= tolerance, dev, k, tolerance)


def _pair_moment(spec: DiscreteEnsemble | HamiltonianEnsemble, k: int, seed: int) -> float:
    """E |Tr(U V^dagger)|^{2k} over independent pairs of members.

    Tr(U_i U_j^dagger) is the inner product of two rows: vec(U) for a
    discrete ensemble, and for a Hamiltonian one the phases e^{-itE} of the
    members' times, since every member shares the model's eigenbasis.
    """
    weights, total, member = _members(spec, 0, seed)
    # |Tr(U V^dagger)| <= D with equality at i = j, so the sum below reaches D^(2k) total^2
    if 2 * k * math.log(spec.dim) + 2 * math.log(total) > math.log(np.finfo(float).max):
        raise RegimeError(f"channel distance at k={k}, D={spec.dim} overflows a float: its pair sum reaches D^(2k)")
    if isinstance(spec, DiscreteEnsemble):
        rows = np.stack([member(i).reshape(-1) for i in range(len(weights))])
    else:
        rows = np.exp(-1j * np.outer(_window_times(spec, seed), spec.model.energies))
    conj = rows.conj().T
    n = len(rows)
    acc = 0.0
    # sum_ij w_i w_j |Gram[i, j]|^{2k}, one row block at a time in one reused
    # float buffer, filled a few rows per matmul so no block-sized complex
    # temporary exists
    buf = np.empty((min(_PAIR_BLOCK_ROWS, n), n))
    for start in range(0, n, _PAIR_BLOCK_ROWS):
        block = buf[: min(_PAIR_BLOCK_ROWS, n - start)]
        for s in range(0, len(block), _PAIR_SUB_ROWS):
            sub = rows[start + s : start + s + _PAIR_SUB_ROWS]
            np.abs(sub @ conj, out=block[s : s + _PAIR_SUB_ROWS])
        block **= 2 * k
        acc += float(weights[start : start + len(block)] @ (block @ weights))
    return acc / total**2


def channel_distance(spec: EnsembleSpec, k: int, seed: int = 0) -> float:
    """Frobenius distance between the ensemble and Haar k-fold channels,
    sqrt(F_E - k!) with F_E = E|Tr(U V^dagger)|^{2k} the frame potential
    (`_pair_moment`): both cross terms with Haar equal k! whenever D >= k.
    At an exact design F_E - k! is rounding noise; `design_check` tests one."""
    if isinstance(spec, HaarEnsemble):
        return 0.0
    D = spec.dim
    if D < k:
        raise RegimeError(f"channel distance needs D >= k (got D={D}, k={k})")
    f_e = _pair_moment(spec, k, seed)
    return math.sqrt(max(f_e - math.factorial(k), 0.0))


def infinite_time_distance(model: SpectralModel, k: int) -> float:
    """Strict t_max -> infinity limit of the time-window channel distance,
    by resonance counting on the actual spectrum (k <= 2)."""
    if k not in (1, 2):
        raise ValueError("analytic limit implemented for k <= 2")
    # one entry per ordered k-tuple of levels: its energy sum
    sums = functools.reduce(np.add.outer, [model.energies] * k).reshape(-1)
    _, counts = np.unique(np.round(sums, 9), return_counts=True)
    f = float(np.sum(counts.astype(float) ** 2))
    return math.sqrt(max(f - math.factorial(k), 0.0))


# ---------------------------------------------------------------------------
# reference discrete ensembles
# ---------------------------------------------------------------------------


def pauli_group() -> DiscreteEnsemble:
    """The single-qubit Pauli ensemble {I, X, Y, Z} with equal weights."""
    i2 = np.eye(2, dtype=complex)
    x = np.array([[0, 1], [1, 0]], dtype=complex)
    y = np.array([[0, -1j], [1j, 0]], dtype=complex)
    z = np.array([[1, 0], [0, -1]], dtype=complex)
    return DiscreteEnsemble([i2, x, y, z])


def _phase_canonical(u: np.ndarray) -> np.ndarray:
    flat = u.reshape(-1)
    idx = int(np.argmax(np.abs(flat) > 1e-8))
    return u / (flat[idx] / abs(flat[idx]))


def clifford_group_1q() -> DiscreteEnsemble:
    """All 24 single-qubit Cliffords (up to phase), closed from H and S."""
    h = np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2.0)
    s = np.array([[1, 0], [0, 1j]], dtype=complex)
    group: dict[bytes, np.ndarray] = {}

    def key(u: np.ndarray) -> bytes:
        # adding complex zero maps -0.0 to +0.0 in both components
        return (np.round(_phase_canonical(u), 9) + (0.0 + 0.0j)).tobytes()

    frontier = [np.eye(2, dtype=complex)]
    group[key(frontier[0])] = frontier[0]
    while frontier:
        nxt = []
        for u in frontier:
            for g in (h, s):
                v = _phase_canonical(g @ u)
                kk = key(v)
                if kk not in group:
                    group[kk] = v
                    nxt.append(v)
        frontier = nxt
    elements = list(group.values())
    assert len(elements) == 24, f"Clifford closure found {len(elements)} elements"
    return DiscreteEnsemble(elements)
