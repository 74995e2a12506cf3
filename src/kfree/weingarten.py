"""Exact Gram and Weingarten matrices over the rationals at fixed integer D.

The Gram matrix is Q[a, b] = D^(#cycles(a^-1 b)) over S_k x S_k with the
lexicographic one-line indexing of `permutations.all_permutations`.  Its
exact inverse (D >= k) is the Weingarten matrix.  Both depend only on the
conjugacy class of a^-1 b (Collins-Sniady, CMP 264, 2006), so every lookup
goes through one class table per k: row i holds, as bytes, the class index
of perms[i]^-1 perms[j] for every j.  The table is built once per k from
0-based index arithmetic and read by the Gram and Weingarten matrices, and
row by row (`WeingartenTable.row`) by the exact channel.

The class values are the character expansion (Collins, IMRN 2003;
Collins-Sniady, CMP 264, 2006) Wg(mu) = (1/k!^2) sum_{lam |- k}
chi^lam(e)^2 chi^lam(mu) / s_lam(1^D): Murnaghan-Nakayama on beta-sets for
chi^lam(mu), the hook-content formula for s_lam(1^D) and k!/prod hooks for
chi^lam(e).  At D < k some s_lam(1^D) vanishes and Q is singular, so
`WeingartenTable` refuses that regime before building anything.  The
defining identity is re-verified over the full group at construction time,
in integers: with the class values put over their common denominator L as
integers n(gamma), every beta in S_k must give
sum_gamma n(gamma) D^(#(gamma^-1 beta)) = L [beta == e].
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .errors import RegimeError
from .permutations import Permutation, all_permutations


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


@lru_cache(maxsize=None)
def _group_table(k: int) -> tuple[tuple[tuple[int, ...], ...], tuple[bytes, ...]]:
    """(cycle types, rows) for S_k in `all_permutations` order.

    rows[i][j] is the index into the cycle types of perms[i]^-1 perms[j].
    The table is symmetric, since x and x^-1 share a cycle type, and row 0
    (the identity) lists the class of each permutation.
    """
    types = _cycle_types(k)
    type_index = {t: c for c, t in enumerate(types)}
    perms = all_permutations(k)
    classes = np.array([type_index[p.cycle_type()] for p in perms], dtype=np.uint8)
    one_line = np.array([p.images for p in perms], dtype=np.int64) - 1
    # base-k codes increase along the lexicographic order, so searchsorted ranks
    radix = k ** np.arange(k - 1, -1, -1, dtype=np.int64)
    codes = one_line @ radix
    rows = []
    for p in one_line:
        # (p^-1 q)(x) = p^-1(q(x)) for every q at once
        ranks = np.searchsorted(codes, np.argsort(p)[one_line] @ radix)
        rows.append(classes[ranks].tobytes())
    return tuple(types), tuple(rows)


def _class_pair_counts(rows: tuple[bytes, ...], i: int, n_types: int) -> list[list[int]]:
    """counts[c][d] = #{j : perms[j] in class c, perms[i]^-1 perms[j] in class d}."""
    pairs = np.frombuffer(rows[0], dtype=np.uint8).astype(np.int64) * n_types + np.frombuffer(rows[i], dtype=np.uint8)
    return np.bincount(pairs, minlength=n_types * n_types).reshape(n_types, n_types).tolist()


def gram_matrix(k: int, D: int) -> list[list[int]]:
    """Q[a, b] = D^(#cycles(a^-1 b)), exact integers."""
    if k < 1 or D < 1:
        raise ValueError("k and D must be positive")
    types, rows = _group_table(k)
    powers = [D ** len(t) for t in types]
    return [[powers[c] for c in row] for row in rows]


class WeingartenTable:
    """Exact Gram matrix and its inverse for fixed (k, D)."""

    def __init__(self, k: int, D: int):
        if k < 1 or D < 1:
            raise ValueError("k and D must be positive")
        if D < k:
            raise RegimeError(f"Gram matrix singular at k={k}, D={D}: pseudo-inverse regime unsupported")
        self.k = k
        self.D = D
        self.perms: tuple[Permutation, ...] = tuple(all_permutations(k))
        self.index = {p: i for i, p in enumerate(self.perms)}
        self._types, self._rows = _group_table(k)
        self._by_class = _weingarten_class_function(k, D)
        # Wg(perms[i], perms[j]) = self._values[self._rows[i][j]]
        self._values = tuple(self._by_class[t] for t in self._types)
        self._verify_inverse()

    def wg(self, alpha: Permutation, beta: Permutation) -> Fraction:
        """Weingarten entry; depends only on the class of alpha^-1 beta."""
        return self._values[self._rows[self.index[alpha]][self.index[beta]]]

    def wg_of_class(self, cycle_type: tuple[int, ...]) -> Fraction:
        return self._by_class[cycle_type]

    def gram(self) -> list[list[int]]:
        return gram_matrix(self.k, self.D)

    def row(self, i: int) -> list[Fraction]:
        """Wg(perms[i], beta) for every beta, in `perms` order."""
        values = self._values
        return [values[c] for c in self._rows[i]]

    def matrix(self) -> list[list[Fraction]]:
        return [self.row(i) for i in range(len(self.perms))]

    def _verify_inverse(self) -> None:
        # Wg and Q are both functions of a^-1 b, hence so is their product;
        # checking the identity row of the convolution for every beta over
        # the full group proves Wg . Q = I exactly.
        k, D, values = self.k, self.D, self._values
        lcm = math.lcm(*(v.denominator for v in values))
        numerators = [v.numerator * (lcm // v.denominator) for v in values]
        powers = [D ** len(t) for t in self._types]
        for i in range(len(self.perms)):
            counts = _class_pair_counts(self._rows, i, len(values))
            acc = sum(n * sum(m * p for m, p in zip(row, powers)) for n, row in zip(numerators, counts))
            if acc != (lcm if i == 0 else 0):
                raise AssertionError(f"Weingarten inversion failed at k={k}, D={D}")


@lru_cache(maxsize=None)
def _character(beads: frozenset[int], mu: tuple[int, ...]) -> int:
    """chi^lam(mu) by the Murnaghan-Nakayama rule, lam given by its beta-set
    {lam_i + len(lam) - i}: removing a border strip of length r moves a bead b
    to the free position b - r, with sign (-1)^(beads strictly between)."""
    if not mu:
        return 1
    r = mu[0]
    return sum(
        (-1) ** sum(b - r < c < b for c in beads) * _character(beads - {b} | {b - r}, mu[1:])
        for b in beads
        if b >= r and b - r not in beads
    )


def _hooks_and_schur(lam: tuple[int, ...], D: int) -> tuple[int, Fraction]:
    """(product of the hook lengths, s_lam(1^D) = prod_cells (D + content)/hook)."""
    cells = [(i, j) for i, row in enumerate(lam) for j in range(row)]
    hooks = math.prod(lam[i] - j + sum(below > j for below in lam[i + 1 :]) for i, j in cells)
    return hooks, Fraction(math.prod(D + j - i for i, j in cells), hooks)


@lru_cache(maxsize=None)
def _weingarten_class_function(k: int, D: int) -> dict[tuple[int, ...], Fraction]:
    """Wg on each cycle type, summed over the irreducible characters of S_k."""
    types = _cycle_types(k)
    n = math.factorial(k)
    irreps = []  # (chi^lam(e)^2 / (k!^2 s_lam(1^D)), beta-set of lam)
    for lam in types:
        hooks, schur = _hooks_and_schur(lam, D)  # chi^lam(e) = k!/hooks
        beads = frozenset(part + len(lam) - 1 - i for i, part in enumerate(lam))
        irreps.append((Fraction((n // hooks) ** 2, n * n) / schur, beads))
    return {mu: sum(w * _character(beads, mu) for w, beads in irreps) for mu in types}


@lru_cache(maxsize=None)
def weingarten_table(k: int, D: int) -> WeingartenTable:
    return WeingartenTable(k, D)
