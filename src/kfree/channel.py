"""The k-fold Haar twirling channel over permutation operators.

The channel output lives in the span of the replica permutation operators
W_alpha (Schur-Weyl), so it is represented as a coefficient map over S_k.
Exact coefficients come from the Weingarten matrix at finite D; asymptotic
coefficients are cumulant-weighted, kappa_alpha / D^(k - #alpha), where
kappa_alpha is the product of the free cumulants of alpha's cycle words.
Replica labels name operators (default: one per replica); equal labels
share cumulants and exact row sums, which needs a tracial phi.

Index convention, pinned by a dense unit test before anything builds on it:
W_alpha |j_1 ... j_k> = |j_alpha(1), ..., j_alpha(k)>, which makes
Tr(W_beta A_1 x ... x A_k) the product over forward-ordered cycles of beta
of the traces of the cycle products, and W_a W_b = W_{ba}.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Hashable, Sequence

import numpy as np

from .errors import RegimeError
from .moments import Expectation, Value, Word, _cyclic_key, cumulants, mixed_moment_free, parts_product, sub_words
from .permutations import Permutation, all_permutations, compose, full_cycle, inverse
from .weingarten import weingarten_table

DENSE_VALIDATION_CAP = 4096


def positional_labels(k: int) -> tuple[int, ...]:
    return tuple(range(1, k + 1))


def permutation_operator(alpha: Permutation, D: int) -> np.ndarray:
    """Dense W_alpha on the D^k-dimensional replica space (validation sizes)."""
    k = alpha.k
    if D**k > DENSE_VALIDATION_CAP:
        raise ValueError(f"dense permutation operator capped at D^k <= {DENSE_VALIDATION_CAP}")
    digits = np.unravel_index(np.arange(D**k), (D,) * k)  # of each column, most significant first
    rows = np.ravel_multi_index([digits[alpha(t + 1) - 1] for t in range(k)], (D,) * k)
    w = np.zeros((D**k, D**k))
    w[rows, np.arange(D**k)] = 1.0
    return w


def permuted_trace(beta: Permutation, phi: Callable[[Word], Value], labels: Sequence[Hashable], D: int) -> Value:
    """Tr(W_beta A_1 x ... x A_k) expressed through normalized moments."""
    cycles = beta.cycles()
    return parts_product(phi, labels, cycles, D ** len(cycles))


@dataclass
class ChannelCoefficients:
    """Coefficient of W_{alpha^-1} for each alpha in S_k."""

    k: int
    D: int
    mode: str  # "exact" | "asymptotic"
    coeffs: dict[Permutation, Value] = field(default_factory=dict)


def _label_pattern(alpha: Permutation, ids: Sequence[int]) -> tuple[Word, ...]:
    """alpha's sorted cycle words, each at its least rotation: shared exactly
    when a label-preserving permutation conjugates one alpha into the other."""
    return tuple(sorted(_cyclic_key(w) for w in sub_words(ids, alpha.cycles())))


def _row_sum(wg_row: Sequence[Fraction], traces: Sequence[Value]) -> Value:
    """sum_beta Wg(alpha, beta) Tr(W_beta A_1 x ... x A_k) over one Weingarten row."""
    acc: Value = 0
    for wg, tr in zip(wg_row, traces):
        acc += wg * tr if isinstance(tr, (int, Fraction)) else complex(wg) * tr
    return acc


def channel_exact(
    k: int,
    D: int,
    phi: Callable[[Word], Value],
    labels: Sequence[Hashable] | None = None,
) -> ChannelCoefficients:
    """Exact Haar channel coefficients via the Weingarten matrix.

    coeff(alpha) = sum_beta Wg(alpha, beta) D^(#beta) prod_cycles <cycle word>,
    exact in rationals whenever phi is.  phi must be tracial: then Wg being
    a class function makes coeff constant on a label pattern, and one row
    sum serves each (for one operator, one per cycle type: 7 at k = 5).
    """
    if D < k:
        raise RegimeError(f"exact channel needs D >= k (got D={D}, k={k})")
    labels = tuple(labels) if labels is not None else positional_labels(k)
    ids = tuple(labels.index(x) for x in labels)
    table = weingarten_table(k, D)
    traces = [permuted_trace(beta, phi, labels, D) for beta in table.perms]
    by_pattern: dict[tuple[Word, ...], Value] = {}
    coeffs: dict[Permutation, Value] = {}
    for i, alpha in enumerate(table.perms):
        pattern = _label_pattern(alpha, ids)
        if pattern not in by_pattern:
            by_pattern[pattern] = _row_sum(table.row(i), traces)
        coeffs[alpha] = by_pattern[pattern]
    return ChannelCoefficients(k=k, D=D, mode="exact", coeffs=coeffs)


def channel_asymptotic(
    k: int,
    D: int,
    phi: Callable[[Word], Value],
    labels: Sequence[Hashable] | None = None,
) -> ChannelCoefficients:
    """Leading-order channel: coeff(alpha) = kappa_alpha / D^(k - #alpha).

    One free cumulant per distinct cycle word: k for one operator.
    """
    labels = tuple(labels) if labels is not None else positional_labels(k)
    kappa = cumulants(phi)
    coeffs: dict[Permutation, Value] = {}
    for alpha in all_permutations(k):
        cycles = alpha.cycles()
        kap = parts_product(kappa, labels, cycles)
        denom = D ** (k - len(cycles))
        coeffs[alpha] = Fraction(kap, denom) if isinstance(kap, int) else kap / denom
    return ChannelCoefficients(k=k, D=D, mode="asymptotic", coeffs=coeffs)


def otoc_haar_formula(
    phi_a: Callable[[Word], Value],
    phi_b: Callable[[Word], Value],
    k: int,
    a_labels: Sequence[Hashable] | None = None,
    b_labels: Sequence[Hashable] | None = None,
) -> Value:
    """Leading-order 2k-OTOC: sum over NC(k) of kappa_pi(A) <B>_{pi*}."""
    a_labels = tuple(a_labels) if a_labels is not None else positional_labels(k)
    b_labels = tuple(b_labels) if b_labels is not None else positional_labels(k)
    return mixed_moment_free(phi_a, phi_b, a_labels, b_labels)


def otoc_haar_channel(
    coeffs: ChannelCoefficients,
    phi_b: Callable[[Word], Value],
    b_labels: Sequence[Hashable] | None = None,
) -> Value:
    """Contraction route: (1/D) sum_alpha c_alpha Tr(W_{alpha^-1 gamma} xB).

    With exact coefficients this is the exact finite-D Haar average of the
    2k-OTOC; with asymptotic coefficients it reproduces the cumulant
    formula up to the dropped orders.
    """
    k, D = coeffs.k, coeffs.D
    b_labels = tuple(b_labels) if b_labels is not None else positional_labels(k)
    gamma = full_cycle(k)
    total: Value = 0
    for alpha, c in coeffs.coeffs.items():
        cycles = compose(inverse(alpha), gamma).cycles()
        total += parts_product(phi_b, b_labels, cycles, c * D ** len(cycles))
    return (
        Fraction(total, D)
        if isinstance(total, int)
        else total / D
    )


def haar_word_average_exact(
    phi_a: Callable[[Word], Value],
    phi_b: Callable[[Word], Value],
    word: Sequence[str],
    D: int,
) -> Value:
    """Exact finite-D Haar average of a mixed word moment E<w(A^U, B)>.

    The word is a cyclic sequence over letters "A" (rotated) and "B"
    (fixed).  Splitting at the A positions turns it into a 2m-OTOC with
    composite B strings (possibly empty), evaluated through the exact
    m-fold channel contraction.
    """
    word = tuple(word)
    if any(w not in ("A", "B") for w in word):
        raise ValueError(f"word letters must be 'A' or 'B': {word!r}")
    m = sum(1 for w in word if w == "A")
    if m == 0:
        return phi_b(word)
    # rotate so the word starts at an A, then collect the B-run after each A
    start = word.index("A")
    word = word[start:] + word[:start]
    runs_after: list[list[str]] = []
    for w in word:
        if w == "A":
            runs_after.append([])
        else:
            runs_after[-1].append(w)
    b_labels = tuple(tuple(("B",) * len(r)) for r in runs_after)

    def phi_composite(comp_word: Word) -> Value:
        flat = tuple(letter for group in comp_word for letter in group)
        if not flat:
            return 1
        return phi_b(flat)

    coeffs = channel_exact(m, D, phi_a, ("A",) * m)
    return otoc_haar_channel(coeffs, phi_composite, b_labels)


@dataclass
class OtocResult:
    formula: Value
    channel: Value | None = None


def otoc_haar(
    phi_a: Callable[[Word], Value],
    phi_b: Callable[[Word], Value],
    k: int,
    D: int | None = None,
    a_labels: Sequence[Hashable] | None = None,
    b_labels: Sequence[Hashable] | None = None,
) -> OtocResult:
    """Both evaluation paths of the Haar-averaged 2k-OTOC.

    The channel-contraction value requires a dimension and is exact at that
    D; the formula value is the leading large-D factorization.
    """
    formula = otoc_haar_formula(phi_a, phi_b, k, a_labels, b_labels)
    chan = None
    if D is not None:
        coeffs = channel_exact(k, D, phi_a, a_labels)
        chan = otoc_haar_channel(coeffs, phi_b, b_labels)
    return OtocResult(formula=formula, channel=chan)


def word_functional_from_matrices(mats: Sequence[np.ndarray]) -> Expectation:
    """Positional-label functional over an explicit operator tuple."""
    ops = {i + 1: np.asarray(m, dtype=complex) for i, m in enumerate(mats)}
    return Expectation.normalized_trace(ops)
