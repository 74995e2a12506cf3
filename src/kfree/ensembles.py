"""Unitary ensembles and their channel diagnostics: Haar sampling, discrete
sets, Hamiltonian time windows averaged exactly, freeness probes, design
checks, and channel distance."""

from __future__ import annotations

import functools
import math
import os
from dataclasses import dataclass
from typing import Hashable, Iterator, Sequence

import numpy as np

from .channel import permutation_operator
from .errors import RegimeError
from .eth import SpectralModel, _one_blas_thread, window_kernel
from .moments import Expectation, _cyclic_key, _word_trace, cumulant_words, free_cumulant
from .permutations import all_permutations

PROB_TOL = 1e-12
UNITARY_TOL = 1e-10  # max |U^dagger U - I| accepted for a supplied unitary
DENSE_SUPEROP_CAP = 4096  # D^(2k), the side of a dense superoperator, and k!
WINDOW_PAIR_CAP = 2**24  # D^(2k), the pairs of k-tuples of levels a window kernel spans
_KERNEL_BLOCK_ELEMS = 2**16  # window-kernel entries per row block of the frame potential
HAAR_BLOCK = 32  # Householder reflectors per compact-WY block of a Haar draw


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
    """Evolution unitaries e^{-iHt} with t uniform on [0, t_max], averaged
    exactly.  In the eigenbasis of H its k-fold channel multiplies the entry
    of k-tuples I, J of levels by the window kernel K_T(s_I - s_J)
    (`eth.window_kernel`), s_I = E_{i_1} + ... + E_{i_k}; t_max = inf is the
    long-time limit, which keeps the resonances s_I = s_J."""

    model: SpectralModel
    t_max: float

    def __post_init__(self):
        if not self.t_max > 0:
            raise ValueError(f"t_max must be positive (got {self.t_max})")

    @property
    def dim(self) -> int:
        return self.model.dim


EnsembleSpec = HaarEnsemble | DiscreteEnsemble | HamiltonianEnsemble


def sample_haar(D: int, rng) -> np.ndarray:
    """Haar-distributed unitary as a product of D Householder reflectors,
    drawn directly (Stewart, SIAM J. Numer. Anal. 17 (1980); Mezzadri,
    Notices AMS 54 (2007)).

    The QR of a Ginibre matrix reduces column j, after j reflections, to a
    fresh Gaussian vector of length D - j, so those vectors are drawn as they
    are: D(D+1)/2 complex normals, real and imaginary parts of each in turn,
    in one `standard_normal` call, column by column down the lower triangle.
    `_haar_reflectors` turns each into LAPACK's reflector and `_accumulate`
    forms H_0 ... H_{D-1} diag(sign beta), the Q of that QR with its phases
    fixed (Q diag(R / |R|)).  No draw is scaled to unit variance: a positive
    scale changes no reflector."""
    if D < 1:
        raise ValueError("dimension must be positive")
    return _accumulate(*_haar_reflectors(D, rng))


@functools.lru_cache(maxsize=None)
def _lower_triangle(D: int) -> tuple[np.ndarray, np.ndarray]:
    """(flat C-order indices of the lower triangle of a D x D array, column
    by column; the positions of the column heads among them)."""
    cols, rows = np.triu_indices(D)
    flat, heads = rows * D + cols, np.flatnonzero(rows == cols)
    flat.flags.writeable = heads.flags.writeable = False  # shared by every draw
    return flat, heads


@functools.lru_cache(maxsize=None)
def _strict_upper(n: int) -> np.ndarray:
    mask = np.triu(np.ones((n, n), dtype=bool), 1)
    mask.flags.writeable = False  # shared by every draw
    return mask


def _haar_reflectors(D: int, rng) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(V, tau, sign beta) of D reflectors H_j = I - tau_j v_j v_j^dagger, each
    by LAPACK's zlarfg rule from a Gaussian column x_j with head alpha_j:
    beta_j = -copysign(|x_j|, Re alpha_j), tau_j = (beta_j - alpha_j) / beta_j,
    and v_j = x_j / (alpha_j - beta_j) with a unit head, column j of the unit
    lower-triangular V."""
    flat, heads = _lower_triangle(D)
    z = np.empty(len(flat), dtype=complex)
    parts = z.view(np.float64)
    rng.standard_normal(out=parts)
    alpha = z[heads]
    beta = np.copysign(np.sqrt(np.add.reduceat(parts * parts, 2 * heads)), -alpha.real)
    v = np.zeros((D, D), dtype=complex)
    v.reshape(-1)[flat] = z
    v /= alpha - beta
    v.reshape(-1)[:: D + 1] = 1.0
    return v, (beta - alpha) / beta, np.sign(beta)


def _accumulate(v: np.ndarray, tau: np.ndarray, signs: np.ndarray) -> np.ndarray:
    """H_0 ... H_{D-1} diag(signs), the reflectors applied HAAR_BLOCK at a
    time in compact-WY form, the last block first: H_j ... H_{j+b-1} =
    I - V_b T_b V_b^dagger on rows j on, with T_b^-1 = striu(V_b^dagger V_b)
    + diag(1 / tau_b), the UT transform (Joffrain et al., ACM TOMS 32
    (2006))."""
    D = len(tau)
    v_conj = v.conj()
    last = (D - 1) // HAAR_BLOCK * HAAR_BLOCK
    g = np.eye(D, dtype=complex)
    for j in range(last, -1, -HAAR_BLOCK):
        cols = slice(j, j + HAAR_BLOCK)
        vb, vb_h = v[j:, cols], v_conj[j:, cols].T
        t_inv = vb_h @ vb
        t_inv *= _strict_upper(len(t_inv))
        t_inv.reshape(-1)[:: len(t_inv) + 1] = 1.0 / tau[cols]
        tvh = np.linalg.inv(t_inv) @ vb_h
        if j < last:  # g is still the identity on the block's own rows and columns
            past = j + HAAR_BLOCK
            tvh[:, HAAR_BLOCK:] = tvh[:, HAAR_BLOCK:] @ g[past:, past:]
        g[j:, j:] -= vb @ tvh
    g *= signs
    return g


def spawn_rngs(seed: int, n: int) -> list[np.random.Generator]:
    """One independent substream per sample index (deterministic)."""
    return [np.random.default_rng(s) for s in np.random.SeedSequence(seed).spawn(n)]


def _members(spec: HaarEnsemble | DiscreteEnsemble, n_samples: int, seed: int):
    """(weights, total, member) of an ensemble: its average of f is
    sum_i weights[i] f(member(i)) / total.

    A discrete ensemble lists its unitaries with their probabilities, total
    1.  Haar draws `n_samples` unitaries, unitary i from substream i of
    `spawn_rngs(seed, n_samples)`, each weighing 1, total `n_samples`.  A
    Haar member consumes its substream, so call this again for a second pass
    over the same draws.
    """
    if isinstance(spec, DiscreteEnsemble):
        return spec.probabilities, 1.0, spec.unitaries.__getitem__
    if n_samples < 1:
        raise ValueError("n_samples must be positive")
    rngs = spawn_rngs(seed, n_samples)
    # through the module global, so a rebinding of sample_haar sees every draw
    return np.ones(n_samples), n_samples, lambda i: sample_haar(spec.dim, rngs[i])


def _window_kernel(spec: HamiltonianEnsemble, k: int, rows: slice = slice(None)) -> np.ndarray:
    """K_T(s_I - s_J) for the k-tuples of levels I in `rows` and every J, in
    the row-major order of the columns of V^{x k}, s_I = E_{i_1} + ... + E_{i_k}.
    At t_max = inf the sums are rounded to 9 decimals, so the resonances kept
    are the sums equal to 1e-9.  Refuses past WINDOW_PAIR_CAP pairs of tuples."""
    D = spec.dim
    if 2 * k * math.log2(D) > math.log2(WINDOW_PAIR_CAP):
        raise RegimeError(f"time-window kernel at k={k}, D={D} spans D^(2k) > {WINDOW_PAIR_CAP} pairs of level tuples")
    sums = functools.reduce(np.add.outer, [spec.model.energies] * k).reshape(-1)
    if spec.t_max == math.inf:
        sums = np.round(sums, 9)
    return window_kernel(np.subtract.outer(sums[rows], sums), spec.t_max)


def _worker_count() -> int:
    """Cores this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity API on this platform
        return os.cpu_count() or 1


def _kron_power(u: np.ndarray, k: int) -> np.ndarray:
    return functools.reduce(np.kron, [u] * k, np.array([[1.0 + 0.0j]]))


@dataclass
class Estimate:
    value: complex
    std_error: float | None  # None with one sample: there is no spread
    n_samples: int
    seed: int | None = None


def _eigenframe(letters: dict[Hashable, np.ndarray]) -> tuple[np.ndarray | None, dict[Hashable, np.ndarray]]:
    """(V, letters in V): V the eigenbasis of the first exactly Hermitian
    letter, from a real `eigh` where its imaginary part is all zero; that
    letter becomes its eigenvalues (1-D), every other X becomes V^dagger X V.
    With no exactly Hermitian letter, V is None (the identity frame) and the
    letters stay as they are."""
    for label, m in letters.items():
        if np.array_equal(m, m.conj().T):
            energies, v = np.linalg.eigh(m if m.imag.any() else m.real)
            return v, {k: energies if k == label else v.conj().T @ x @ v for k, x in letters.items()}
    return None, dict(letters)


def _in_frame(w: np.ndarray | None, u: np.ndarray, v: np.ndarray | None) -> np.ndarray:
    """G = W^dagger U V, a None frame being the identity."""
    if w is not None:
        u = w.conj().T @ u
    return u if v is None else u @ v


def _dress(g: np.ndarray, x: np.ndarray) -> np.ndarray:
    """G X G^dagger, one matmul for a diagonal (1-D) X and two for a dense one."""
    return (g * x) @ g.conj().T if x.ndim == 1 else g @ x @ g.conj().T


class EnsembleExpectation:
    """The ensemble-inclusive expectation: each word moment is the ensemble
    average of the normalized trace of the dressed word.

    Labels marked rotated are conjugated by the sampled unitary; others are
    left fixed.  Per-batch means are retained so nonlinear functions of the
    moments (cumulants) get batch-means error bars.

    Words are traced in the eigenframe (`_eigenframe`): with W the
    eigenbasis of the first exactly Hermitian rotated letter and V that of
    the first exactly Hermitian fixed one (the identity where there is
    none), Tr w(U^dagger X_r U, X_f) = Tr w(W^dagger X_r W, G V^dagger X_f V
    G^dagger) with G = W^dagger U V.  A Haar G is the draw itself, since
    W^dagger U V is Haar when U is; a discrete member's G is computed.  So
    the rotated letters are constant, the one that fixed W a diagonal, and
    only the fixed letters are dressed; a word of rotated letters only, or
    of fixed letters only, is traced once for every member.

    A Haar sample of a freeness probe then costs its draw (`sample_haar`:
    D(D+1)/2 normals and Householder reflectors multiplied in compact-WY
    blocks), one matmul to dress B as (G * b) G^dagger, and the word matmuls
    of `moments._word_trace`, in which a product with the diagonal A is an
    O(D^2) scaling: none at k = 2, two at k = 3.  The draw is the largest
    part (about 6 ms at D = 256 on a 2-core x86-64 machine with OpenBLAS
    0.3.31) and gains nothing from a second BLAS thread, so samples run
    concurrently, one per core, each on one OpenBLAS thread.
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
        if isinstance(spec, HamiltonianEnsemble):
            raise ValueError("a time window has no sampled members: eth.averaged_free_cumulant averages its words exactly")
        self.operators = {k: np.asarray(v, dtype=complex) for k, v in operators.items()}
        self.rotated = set(rotated)
        self.exact = isinstance(spec, DiscreteEnsemble)
        self._members = functools.partial(_members, spec, n_samples, seed)  # drawn afresh for each pass
        self.n_samples = len(spec.unitaries) if self.exact else n_samples
        if self.n_samples < 1:
            raise ValueError("n_samples must be positive")
        self.n_batches = min(n_batches, self.n_samples)  # no batch is empty
        self._means: dict[tuple, complex] = {}
        self._batches: dict[tuple, np.ndarray] = {}
        self.dim = spec.dim
        for label, m in self.operators.items():
            if m.shape != (spec.dim, spec.dim):
                raise ValueError(f"operator {label!r} has shape {m.shape}, but the ensemble's dimension is {spec.dim}")

    def evaluate_words(self, words: Sequence[tuple]) -> None:
        """Accumulate the ensemble averages of every requested word at once."""
        needed = {_cyclic_key(tuple(w)) for w in words if tuple(w)}
        needed -= set(self._means)
        if not needed:
            return
        # imported here, not at the top: its ~10 ms import would add to every kfree start-up
        from concurrent.futures import ThreadPoolExecutor

        mixed = sorted(
            (w for w in needed if not (self.rotated.issuperset(w) or self.rotated.isdisjoint(w))),
            key=lambda w: (-len(w), repr(w)),  # longest first, so shorter words find their halves built
        )
        # members are independent (a sample has its own substream) and each
        # runs on one BLAS thread, so its bits depend on neither the BLAS
        # thread count nor the number of workers; without OpenBLAS control,
        # one worker.  The frames are found under the same pin.
        with _one_blas_thread() as pinned:
            w_frame, rotated = _eigenframe({k: v for k, v in self.operators.items() if k in self.rotated})
            v_frame, fixed = _eigenframe({k: v for k, v in self.operators.items() if k not in self.rotated})
            constant = _word_trace({**rotated, **fixed})
            for w in needed.difference(mixed):
                self._means[w] = constant(w)
                if not self.exact:
                    self._batches[w] = np.full(self.n_batches, self._means[w])
            if not mixed:
                return
            dressing = {label: fixed[label] for label in set().union(*mixed) if label in fixed}
            weights, total, member = self._members()
            per_sample = {w: np.empty(self.n_samples, dtype=complex) for w in mixed}

            def run(i: int) -> None:
                g = member(i)
                if self.exact:  # a discrete member is U; a Haar draw is G itself
                    g = _in_frame(w_frame, g, v_frame)
                trace = _word_trace({**rotated, **{label: _dress(g, x) for label, x in dressing.items()}})
                for w in mixed:
                    per_sample[w][i] = trace(w)

            workers = min(_worker_count(), self.n_samples) if pinned else 1
            with ThreadPoolExecutor(max_workers=workers) as pool:
                for _ in pool.map(run, range(self.n_samples)):
                    pass
        for w in mixed:
            vals = per_sample[w]
            self._means[w] = complex(np.sum(weights * vals) / total)
            if not self.exact:  # sampled members weigh 1: batch means are plain means
                self._batches[w] = np.array([np.mean(chunk) for chunk in np.array_split(vals, self.n_batches)])

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
    word = ("A", "B") * k
    expectation = EnsembleExpectation(
        spec, {"A": A, "B": B}, rotated={"A"}, n_samples=n_samples, seed=seed, n_batches=n_batches
    )
    expectation.evaluate_words(sorted(cumulant_words(word), key=repr))
    value = complex(free_cumulant(expectation.functional(), word))
    batches = expectation.n_batches
    std_error = 0.0 if expectation.exact else None
    if not expectation.exact and batches >= 2:
        batch_vals = np.array([complex(free_cumulant(expectation.functional(batch=b), word)) for b in range(batches)])
        spread = np.std(batch_vals.real, ddof=1) + 1j * np.std(batch_vals.imag, ddof=1)
        std_error = abs(spread) / math.sqrt(batches)
    return Estimate(value=value, std_error=std_error, n_samples=expectation.n_samples, seed=seed)


# ---------------------------------------------------------------------------
# superoperators, design checking, channel distance
# ---------------------------------------------------------------------------


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


def _superoperator_slabs(spec: EnsembleSpec, k: int) -> Iterator[np.ndarray]:
    """Yield row slab i = 0, ..., d - 1, d = D^k, of the row-major-vec k-fold
    channel superoperator S: S.reshape(d, d, d, d)[i], so no D^(2k) x D^(2k)
    array exists.

    - Haar: the Hilbert-Schmidt orthogonal projector onto span{vec W_alpha}
      (the twirl is a self-adjoint idempotent onto the commutant of U^{x k},
      which the W_alpha span, for every D; for D < k they are dependent).
      Slab i is rows i d, ..., (i + 1) d - 1 of an orthonormal basis of the
      span, from an SVD, times the basis's adjoint.
    - Time window: (W x conj W) diag K (W x conj W)^dagger with W = V^{x k}
      and K the kernel of `_window_kernel`, from c[I, j, s] = sum_J K_IJ
      conj(W_jJ) W_sJ: slab[j, r, s] = sum_I W_iI conj(W_rI) c[I, j, s].
    - Discrete: sum p kron(a, b) with a = (U^{x k})^dagger, b = (U^{x k})^T,
      so slab[j, r, s] = sum p (a_ir b_js), added in member order.
    """
    _check_superop_size(k, spec.dim)
    d = spec.dim**k
    if isinstance(spec, HaarEnsemble):
        span = np.stack([permutation_operator(a, spec.dim).reshape(-1) for a in all_permutations(k)], axis=1)
        u, s, _ = np.linalg.svd(span, full_matrices=False)
        basis = u[:, s > 1e-9 * s[0]]
        adjoint = basis.conj().T
        for i in range(d):
            yield (basis[i * d : (i + 1) * d] @ adjoint).reshape(d, d, d)
    elif isinstance(spec, HamiltonianEnsemble):
        w = _kron_power(spec.model.basis, k)
        right = (w.conj().T[:, :, None] * w.T[:, None, :]).reshape(d, d * d)
        c = _window_kernel(spec, k) @ right
        for i in range(d):
            yield ((w[i] * w.conj()) @ c).reshape(d, d, d).transpose(1, 0, 2)
    else:
        terms = [(p, _kron_power(u, k)) for p, u in zip(spec.probabilities, spec.unitaries)]
        for i in range(d):
            slab = np.zeros((d, d, d), dtype=complex)
            for p, uk in terms:
                slab += p * (uk[:, i].conj()[None, :, None] * uk.T[:, None, :])
            yield slab


@dataclass
class DesignReport:
    passed: bool
    max_deviation: float
    k: int
    tolerance: float


def design_check(spec: EnsembleSpec, k: int, tolerance: float = 1e-10) -> DesignReport:
    """Compare the ensemble k-fold channel with the Haar one on a spanning
    set of inputs; reports the max entry deviation, taken over paired row
    slabs (`_superoperator_slabs`), so neither full superoperator exists."""
    if isinstance(spec, HaarEnsemble):
        return DesignReport(True, 0.0, k, tolerance)
    pairs = zip(_superoperator_slabs(spec, k), _superoperator_slabs(HaarEnsemble(spec.dim), k))
    dev = float(np.max([np.max(np.abs(e - h)) for e, h in pairs]))
    return DesignReport(dev <= tolerance, dev, k, tolerance)


def _pair_moment(spec: DiscreteEnsemble, k: int) -> float:
    """E |Tr(U V^dagger)|^{2k} over independent pairs of members, with
    Tr(U_i U_j^dagger) the inner product of the rows vec(U_i) and vec(U_j)."""
    # |Tr(U V^dagger)| <= D with equality at i = j, so the sum below reaches D^(2k)
    if 2 * k * math.log(spec.dim) > math.log(np.finfo(float).max):
        raise RegimeError(f"channel distance at k={k}, D={spec.dim} overflows a float: its pair sum reaches D^(2k)")
    rows = np.stack([u.reshape(-1) for u in spec.unitaries])
    gram = np.abs(rows @ rows.conj().T) ** (2 * k)
    return float(spec.probabilities @ (gram @ spec.probabilities))


def _window_frame_potential(spec: HamiltonianEnsemble, k: int) -> float:
    """E_{t,t'} |Tr(U_t U_t'^dagger)|^{2k} = sum_{I,J} |K_T(s_I - s_J)|^2 of a
    time window: the Fejer kernel 2(1 - cos x)/x^2 at x = T (s_I - s_J),
    summed over pairs of k-tuples of levels a row block at a time."""
    n = spec.dim**k
    rows = max(1, _KERNEL_BLOCK_ELEMS // n)
    return sum(float(np.sum(np.abs(_window_kernel(spec, k, slice(lo, lo + rows))) ** 2)) for lo in range(0, n, rows))


def channel_distance(spec: EnsembleSpec, k: int) -> float:
    """Frobenius distance between the ensemble and Haar k-fold channels,
    sqrt(F_E - k!) with F_E = E|Tr(U V^dagger)|^{2k} the frame potential
    (`_pair_moment`, `_window_frame_potential`): both cross terms with Haar
    equal k! whenever D >= k.  At an exact design F_E - k! is rounding noise;
    `design_check` tests one."""
    if isinstance(spec, HaarEnsemble):
        return 0.0
    D = spec.dim
    if D < k:
        raise RegimeError(f"channel distance needs D >= k (got D={D}, k={k})")
    f_e = _window_frame_potential(spec, k) if isinstance(spec, HamiltonianEnsemble) else _pair_moment(spec, k)
    return math.sqrt(max(f_e - math.factorial(k), 0.0))


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
