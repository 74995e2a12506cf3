"""Exact Gram and Weingarten matrices over the rationals at fixed integer D,
plus the leading large-D asymptotics.

The Gram matrix is Q[a, b] = D^(#cycles(a^-1 b)) over S_k x S_k with the
lexicographic one-line indexing of `permutations.all_permutations`.  Its
exact inverse (D >= k) is the Weingarten matrix.  Both are bi-invariant, so
the inverse is computed by fraction-free elimination of the class-collapsed
system (p(k) unknowns instead of k!) and re-expanded; the defining identity
is re-verified over the full group at construction time.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

from .errors import RegimeError
from .partitions import Partition, moebius_nc
from .permutations import (
    Permutation,
    all_permutations,
    canonicalize_by_conjugation,
    compose,
    identity,
    inverse,
    on_geodesic,
    permutation_to_nc,
)
from .ratlinalg import exact_solve


def _cycle_types(k: int) -> list[tuple[int, ...]]:
    """Integer partitions of k, sorted descending within, listed deterministically."""
    out: list[tuple[int, ...]] = []

    def rec(remaining: int, maxpart: int, acc: tuple[int, ...]):
        if remaining == 0:
            out.append(acc)
            return
        for part in range(min(remaining, maxpart), 0, -1):
            rec(remaining - part, part, acc + (part,))

    rec(k, k, ())
    return out


def gram_matrix(k: int, D: int) -> list[list[int]]:
    """Q[a, b] = D^(#cycles(a^-1 b)), exact integers."""
    if k < 1 or D < 1:
        raise ValueError("k and D must be positive")
    perms = all_permutations(k)
    inv = [inverse(p) for p in perms]
    return [[D ** compose(inv[i], perms[j]).num_cycles() for j in range(len(perms))] for i in range(len(perms))]


class WeingartenTable:
    """Exact Gram matrix and its inverse for fixed (k, D)."""

    def __init__(self, k: int, D: int):
        if k < 1 or D < 1:
            raise ValueError("k and D must be positive")
        self.k = k
        self.D = D
        self.perms: tuple[Permutation, ...] = tuple(all_permutations(k))
        self.index = {p: i for i, p in enumerate(self.perms)}
        self._by_class = _weingarten_class_function(k, D)
        self._verify_inverse()

    def wg(self, alpha: Permutation, beta: Permutation) -> Fraction:
        """Weingarten entry; depends only on the class of alpha^-1 beta."""
        return self._by_class[compose(inverse(alpha), beta).cycle_type()]

    def wg_of_class(self, cycle_type: tuple[int, ...]) -> Fraction:
        return self._by_class[cycle_type]

    def gram(self) -> list[list[int]]:
        return gram_matrix(self.k, self.D)

    def matrix(self) -> list[list[Fraction]]:
        inv = [inverse(p) for p in self.perms]
        return [
            [self._by_class[compose(inv[i], self.perms[j]).cycle_type()] for j in range(len(self.perms))]
            for i in range(len(self.perms))
        ]

    def _verify_inverse(self) -> None:
        # Wg and Q are both functions of a^-1 b, hence so is their product;
        # checking the identity-row of the convolution over the full group
        # proves Wg . Q = I exactly.
        k, D = self.k, self.D
        for beta in self.perms:
            acc = Fraction(0)
            for gamma in self.perms:
                acc += self._by_class[gamma.cycle_type()] * D ** compose(inverse(gamma), beta).num_cycles()
            expected = Fraction(int(beta == identity(k)))
            if acc != expected:
                raise AssertionError(f"Weingarten inversion failed at k={k}, D={D}")


@lru_cache(maxsize=None)
def _weingarten_class_function(k: int, D: int) -> dict[tuple[int, ...], Fraction]:
    """Solve sum_sigma w(sigma) D^(#(sigma^-1 tau)) = [tau == id] for the
    class function w, collapsing by conjugacy class."""
    types = _cycle_types(k)
    type_index = {t: i for i, t in enumerate(types)}
    perms = all_permutations(k)
    reps: dict[tuple[int, ...], Permutation] = {}
    for p in perms:
        reps.setdefault(p.cycle_type(), p)
    # A[row tau-class][col sigma-class] = sum over sigma in class of D^#(sigma^-1 tau)
    a = [[0] * len(types) for _ in types]
    for t, rep in ((t, reps[t]) for t in types):
        row = a[type_index[t]]
        for sigma in perms:
            row[type_index[sigma.cycle_type()]] += D ** compose(inverse(sigma), rep).num_cycles()
    rhs = [[Fraction(int(t == (1,) * k)) for t in types]]
    try:
        sol = exact_solve(a, rhs)[0]
    except ValueError as exc:
        raise RegimeError(
            f"Gram matrix singular at k={k}, D={D}: pseudo-inverse regime unsupported"
        ) from exc
    return {t: sol[type_index[t]] for t in types}


@lru_cache(maxsize=None)
def weingarten_table(k: int, D: int) -> WeingartenTable:
    return WeingartenTable(k, D)


def weingarten_value(k: int, D: int, alpha: Permutation, beta: Permutation) -> Fraction:
    return weingarten_table(k, D).wg(alpha, beta)


def moebius_between_permutations(beta: Permutation, alpha: Permutation) -> int:
    """NC-lattice Moebius value between geodesic beta and alpha.

    The pair is conjugated so alpha becomes canonical, both are mapped to
    their orbit partitions, and the lattice Moebius function is applied.
    """
    if not on_geodesic(beta, alpha):
        raise ValueError(f"{beta} is not on the geodesic to {alpha}")
    rho, alpha_c = canonicalize_by_conjugation(alpha)
    beta_c = compose(compose(inverse(rho), beta), rho)
    sigma: Partition = permutation_to_nc(beta_c)
    pi: Partition = permutation_to_nc(alpha_c)
    return moebius_nc(sigma, pi)


def weingarten_asymptotic(alpha: Permutation, beta: Permutation, D: int) -> Fraction:
    """Leading large-D Weingarten entry.

    mu(beta, alpha) / D^(2k - #(beta^-1 alpha)) when beta lies on the
    geodesic from the identity to alpha, zero otherwise (higher order).
    """
    if alpha.k != beta.k:
        raise ValueError("sizes differ")
    k = alpha.k
    if not on_geodesic(beta, alpha):
        return Fraction(0)
    mu = moebius_between_permutations(beta, alpha)
    rel = compose(inverse(beta), alpha)
    return Fraction(mu, D ** (2 * k - rel.num_cycles()))
