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
from typing import Hashable, Iterable, Sequence

import numpy as np

from .channel import permutation_operator
from .errors import RegimeError
from .eth import SpectralModel
from .moments import Expectation, _cyclic_key, _word_trace, free_cumulant
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
        if self.t_max <= 0:
            raise ValueError("t_max must be positive")
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


def _draw(spec: HaarEnsemble | HamiltonianEnsemble, rng) -> np.ndarray:
    """One sampled unitary of a stochastic ensemble, from its own substream."""
    if isinstance(spec, HaarEnsemble):
        return sample_haar(spec.dim, rng)
    basis = spec.model.basis
    t = rng.uniform(0.0, spec.t_max)
    return (basis * np.exp(-1j * spec.model.energies * t)) @ basis.conj().T


def ensemble_unitaries(spec: EnsembleSpec, n_samples: int, seed: int) -> Iterable[np.ndarray]:
    """Sampled unitaries for stochastic ensembles (Haar / time windows)."""
    if not isinstance(spec, (HaarEnsemble, HamiltonianEnsemble)):
        raise TypeError("discrete ensembles are enumerated exactly, not sampled")
    for rng in spawn_rngs(seed, n_samples):
        yield _draw(spec, rng)


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
    `spec.n_samples`, and a discrete ensemble is summed exactly.
    """
    O = np.asarray(O, dtype=complex)
    D = round(O.shape[0] ** (1.0 / k))
    if D**k != O.shape[0]:
        raise ValueError("operator dimension is not a k-th power")
    if D**k > DENSE_CHANNEL_CAP:
        raise ValueError(f"dense channel capped at D^k <= {DENSE_CHANNEL_CAP}")
    if isinstance(spec, DiscreteEnsemble):
        acc = np.zeros_like(O)
        for p, u in zip(spec.probabilities, spec.unitaries):
            uk = _kron_power(u, k)
            acc += p * (uk.conj().T @ O @ uk)
        return acc
    if isinstance(spec, HamiltonianEnsemble):
        n_samples = spec.n_samples
    elif n_samples < 1:
        raise ValueError("n_samples must be positive")
    acc = np.zeros_like(O)
    for u in ensemble_unitaries(spec, n_samples, seed):
        uk = _kron_power(u, k)
        acc += uk.conj().T @ O @ uk
    return acc / n_samples


@dataclass
class Estimate:
    value: complex
    std_error: float
    n_samples: int
    seed: int | None = None
    batch_values: np.ndarray | None = None


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
        self.spec = spec
        self.operators = {k: np.asarray(v, dtype=complex) for k, v in operators.items()}
        self.rotated = set(rotated)
        self.n_samples = n_samples
        self.seed = seed
        self.n_batches = n_batches
        self.exact = isinstance(spec, DiscreteEnsemble)
        if not self.exact and n_samples < 1:
            raise ValueError("n_samples must be positive")
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
        if self.exact:
            sums = {w: 0.0 + 0.0j for w in needed}
            for p, u in zip(self.spec.probabilities, self.spec.unitaries):
                traces = self._sample_traces(u, needed)
                for w in needed:
                    sums[w] += p * traces[w]
            for w in needed:
                self._means[w] = sums[w]
            return
        # imported here, not at the top: its ~10 ms import would add to every kfree start-up
        from concurrent.futures import ThreadPoolExecutor

        per_sample = {w: np.empty(self.n_samples, dtype=complex) for w in needed}
        rngs = spawn_rngs(self.seed, self.n_samples)

        def run(i: int) -> None:
            traces = self._sample_traces(_draw(self.spec, rngs[i]), needed)
            for w in needed:
                per_sample[w][i] = traces[w]

        # samples are independent (one substream each) and each runs on one
        # BLAS thread, so its bits depend on neither the BLAS thread count
        # nor the number of workers; without OpenBLAS control, one worker
        with _one_blas_thread() as pinned:
            workers = min(_worker_count(), self.n_samples) if pinned else 1
            with ThreadPoolExecutor(max_workers=workers) as pool:
                for _ in pool.map(run, range(self.n_samples)):
                    pass
        for w in needed:
            vals = per_sample[w]
            self._means[w] = complex(np.mean(vals))
            self._batches[w] = np.array(
                [np.mean(chunk) for chunk in np.array_split(vals, self.n_batches)]
            )

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
                return self._means[key]  # exact path has no batches
            return complex(self._batches[key][batch])

        return Expectation(fn, cyclic=True)


def _alternating_labels(k: int) -> tuple:
    return tuple(x for _ in range(k) for x in ("A", "B"))


def _needed_block_words(word: tuple) -> list[tuple]:
    words = set()
    n = len(word)
    for pi in enumerate_nc(n):
        for block in pi.blocks:
            words.add(tuple(word[i - 1] for i in block))
    return sorted(words, key=repr)


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
    cumulant on batch means.
    """
    word = _alternating_labels(k)
    expectation = EnsembleExpectation(
        spec, {"A": A, "B": B}, rotated={"A"}, n_samples=n_samples, seed=seed, n_batches=n_batches
    )
    expectation.evaluate_words(_needed_block_words(word))
    value = complex(free_cumulant(expectation.functional(), word))
    if expectation.exact:
        return Estimate(value=value, std_error=0.0, n_samples=len(spec.unitaries), seed=seed)
    batch_vals = np.array(
        [complex(free_cumulant(expectation.functional(batch=b), word)) for b in range(n_batches)]
    )
    spread = np.std(batch_vals.real, ddof=1) + 1j * np.std(batch_vals.imag, ddof=1)
    std_error = abs(spread) / math.sqrt(n_batches)
    return Estimate(value=value, std_error=std_error, n_samples=n_samples, seed=seed, batch_values=batch_vals)


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
    the exact weighted sum over a discrete ensemble, or the mean over the
    `spec.n_samples` sampled times of a Hamiltonian ensemble."""
    _check_superop_size(k, spec.dim)
    if isinstance(spec, HaarEnsemble):
        return haar_channel_superoperator(k, spec.dim)
    if isinstance(spec, DiscreteEnsemble):
        dim = spec.dim**k
        out = np.zeros((dim * dim, dim * dim), dtype=complex)
        for p, u in zip(spec.probabilities, spec.unitaries):
            _add_superoperator_term(out, u, k, p)
        return out
    dim = spec.dim**k
    out = np.zeros((dim * dim, dim * dim), dtype=complex)
    for u in ensemble_unitaries(spec, spec.n_samples, seed):
        _add_superoperator_term(out, u, k, 1.0)
    out /= spec.n_samples
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
    s_e = ensemble_superoperator(spec, k, seed=seed)
    s_e -= haar_channel_superoperator(k, spec.dim)
    dev = float(np.max(np.abs(s_e)))
    return DesignReport(dev <= tolerance, dev, k, tolerance)


def _pair_moment(spec: EnsembleSpec, k: int, seed: int) -> float:
    """E |Tr(U V^dagger)|^{2k} over independent ensemble pairs."""
    if isinstance(spec, DiscreteEnsemble):
        p = spec.probabilities
        total = 0.0
        for i, u in enumerate(spec.unitaries):
            for j, v in enumerate(spec.unitaries):
                total += p[i] * p[j] * abs(np.trace(u @ v.conj().T)) ** (2 * k)
        return total
    if isinstance(spec, HamiltonianEnsemble):
        rng = np.random.default_rng(seed)
        times = rng.uniform(0.0, spec.t_max, size=spec.n_samples)
        phases = np.exp(-1j * np.outer(times, spec.model.energies))
        conj = phases.conj().T
        n = len(phases)
        total = 0.0
        # |Gram[i, j]| with Gram[i, j] = sum_m e^{-i(t_i - t_j)E_m}, one row block
        # at a time in one reused float buffer, filled a few rows per matmul so
        # no block-sized complex temporary exists
        buf = np.empty((min(_PAIR_BLOCK_ROWS, n), n))
        for start in range(0, n, _PAIR_BLOCK_ROWS):
            block = buf[: min(_PAIR_BLOCK_ROWS, n - start)]
            for s in range(0, len(block), _PAIR_SUB_ROWS):
                rows = phases[start + s : start + s + _PAIR_SUB_ROWS]
                np.abs(rows @ conj, out=block[s : s + _PAIR_SUB_ROWS])
            block **= 2 * k
            total += float(np.sum(block))
        return total / n**2
    raise TypeError(f"pair moment undefined for {type(spec).__name__}")


def channel_distance(spec: EnsembleSpec, k: int, method: str = "auto", seed: int = 0) -> float:
    """Frobenius distance between the ensemble and Haar k-fold channels.

    "dense" subtracts explicit superoperators; "gram" expands the squared
    norm into pairwise |Tr(U V^dagger)|^{2k} sums (exact identity: both
    cross terms with Haar equal k! whenever D >= k) and scales to any D.
    """
    if isinstance(spec, HaarEnsemble):
        return 0.0
    D = spec.dim
    if D < k:
        raise RegimeError(f"channel distance needs D >= k (got D={D}, k={k})")
    if method == "auto":
        method = "dense" if (D**k) ** 2 <= 4096 else "gram"
    if method == "dense":
        s_e = ensemble_superoperator(spec, k, seed=seed)
        s_h = haar_channel_superoperator(k, D)
        return float(np.linalg.norm(s_e - s_h))
    if method != "gram":
        raise ValueError(f"unknown method {method!r}")
    f_e = _pair_moment(spec, k, seed)
    return math.sqrt(max(f_e - math.factorial(k), 0.0))


def infinite_time_distance(model: SpectralModel, k: int) -> float:
    """Strict t_max -> infinity limit of the time-window channel distance,
    by resonance counting on the actual spectrum (k <= 2)."""
    e = model.energies
    D = len(e)
    if k == 1:
        _, counts = np.unique(np.round(e, 9), return_counts=True)
        f = float(np.sum(counts.astype(float) ** 2))
    elif k == 2:
        sums = np.round((e[:, None] + e[None, :]).reshape(-1), 9)
        _, counts = np.unique(sums, return_counts=True)
        f = float(np.sum(counts.astype(float) ** 2))
    else:
        raise ValueError("analytic limit implemented for k <= 2")
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
