"""Reference channel coefficients for the `kfree.channel` tests.

`kfree.channel` evaluates kappa_alpha as a product over the cycles of alpha
and sums one Weingarten row per label pattern.  The oracles here take the
older or slower routes:

- `kappa_alpha_conjugation` conjugates alpha to a non-crossing canonical
  form and evaluates the blockwise free cumulant of its orbit partition;
- `kappa_alpha_geodesic` is the Moebius-weighted moment sum over the
  geodesic from the identity to alpha;
- `channel_exact_rows` sums every Weingarten row, with no sharing;
- `label_pattern_sorted_rotations` is the former label-pattern rule, each
  cycle word at its least rotation in tuple order;
- `reconstruct_dense` sums c_alpha W_{alpha^-1} into the dense D^k x D^k
  channel output (validation sizes).
"""

from fractions import Fraction
from typing import Callable, Hashable, Sequence

import numpy as np

from kfree.channel import ChannelCoefficients, permutation_operator, permuted_trace, positional_labels
from kfree.moments import Value, Word, cumulants, parts_product, sub_words
from kfree.permutations import Permutation, geodesic_set, inverse, permutation_to_nc
from kfree.weingarten import weingarten_table

from nc_oracles import canonicalize_by_conjugation, moebius_between_permutations


def kappa_alpha_conjugation(
    alpha: Permutation,
    phi: Callable[[Word], Value],
    labels: Sequence[Hashable] | None = None,
) -> Value:
    """Reorder the word by the conjugating permutation, then kappa_pi of the
    orbit partition of the canonical form."""
    labels = tuple(labels) if labels is not None else positional_labels(alpha.k)
    rho, alpha_c = canonicalize_by_conjugation(alpha)
    pi = permutation_to_nc(alpha_c)
    word = tuple(labels[rho(p) - 1] for p in range(1, alpha.k + 1))
    return parts_product(cumulants(phi), word, pi.blocks)


def kappa_alpha_geodesic(
    alpha: Permutation,
    phi: Callable[[Word], Value],
    labels: Sequence[Hashable] | None = None,
) -> Value:
    """Moebius-weighted moment sum over the geodesic from the identity to alpha."""
    labels = tuple(labels) if labels is not None else positional_labels(alpha.k)
    total: Value = 0
    for beta in geodesic_set(alpha):
        term: Value = moebius_between_permutations(beta, alpha)
        for word in sub_words(labels, beta.cycles()):
            term *= phi(word)
        total += term
    return total


def channel_exact_rows(
    k: int,
    D: int,
    phi: Callable[[Word], Value],
    labels: Sequence[Hashable] | None = None,
) -> ChannelCoefficients:
    """Exact channel with one Weingarten row sum for every alpha in S_k."""
    labels = tuple(labels) if labels is not None else positional_labels(k)
    table = weingarten_table(k, D)
    traces = [permuted_trace(beta, phi, labels, D) for beta in table.perms]
    coeffs = {}
    for alpha, (_, wg_row) in zip(table.perms, table.rows()):
        acc: Value = 0
        for wg, tr in zip(wg_row, traces):
            acc += wg * tr if isinstance(tr, (int, Fraction)) else complex(wg) * tr
        coeffs[alpha] = acc
    return ChannelCoefficients(k=k, D=D, coeffs=coeffs)


def label_pattern_sorted_rotations(alpha: Permutation, ids: Sequence[int]) -> tuple[Word, ...]:
    """alpha's cycle words, each at its least rotation in tuple order, sorted."""
    return tuple(sorted(min(w[i:] + w[:i] for i in range(len(w))) for w in sub_words(ids, alpha.cycles())))


def reconstruct_dense(channel: ChannelCoefficients) -> np.ndarray:
    out = np.zeros((channel.D**channel.k, channel.D**channel.k), dtype=complex)
    for alpha, c in channel.coeffs.items():
        out += complex(c) * permutation_operator(inverse(alpha), channel.D)
    return out
