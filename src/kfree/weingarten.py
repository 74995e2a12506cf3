"""Exact Gram and Weingarten matrices over the rationals at fixed integer D.

Q[a, b] = D^(#cycles(a^-1 b)) over S_k x S_k, indexed as in
`permutations.all_permutations`, and its exact inverse (D >= k), the
Weingarten matrix, depend only on the class of a^-1 b (Collins-Sniady, CMP
264, 2006).  Row i of either maps `_class_row(k, i)`, the classes of
perms[i]^-1 perms[j], computed on demand, through one value per class.

The values are Wg(mu) = (1/k!^2) sum_{lam |- k} chi^lam(e)^2 chi^lam(mu) /
s_lam(1^D) (Collins, IMRN 2003): Murnaghan-Nakayama on beta-sets for
chi^lam(mu), hook-content for s_lam(1^D).  At D < k some s_lam(1^D) = 0 and
Q is singular, so `WeingartenTable` refuses D < k before building anything.

Every table proves Wg . Q = I in the class algebra, by exact checks on the
p(k) cycle types that read the character table the values are summed from:
  (1) chi^lam(e) > 0 and sum_mu |C_mu| chi^lam(mu) chi^nu(mu) = k! [lam == nu];
  (2) Frobenius, D^(#mu) = sum_lam chi^lam(mu) s_lam(1^D);
  (3) sum_lam (k!/chi^lam(e)) W_lam s_lam(1^D) chi^lam(mu) = [mu == e], with
      W_lam = (1/k!) sum_mu |C_mu| Wg(mu) chi^lam(mu).
Murnaghan-Nakayama gives chi^lam(mu) as the coefficient of the alternant
a_{lam+delta} in p_mu a_delta (Macdonald, Symmetric Functions, I.7), so each
row is a virtual character (an integer combination of irreducible ones), a
premise not re-checked.  An orthonormal virtual character of positive degree
is irreducible, so by (1) the rows are the p(k) irreducible characters, a
basis of the class functions: Wg = sum_lam W_lam chi^lam and, by (2),
Q = sum_lam s_lam(1^D) chi^lam.  As chi^lam * chi^nu = [lam == nu]
(k!/chi^lam(e)) chi^lam, the left side of (3) is (Wg * Q)(mu), so
Wg * Q = delta_e, and (Wg . Q)[a, b] = (Wg * Q)(a^-1 b) makes Wg . Q = I.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from typing import Iterator

import numpy as np

from .errors import RegimeError
from .permutations import Permutation, all_permutations


def _cycle_types(k: int, largest: int | None = None) -> list[tuple[int, ...]]:
    """Integer partitions of k (parts at most `largest`), each descending,
    listed in reverse lexicographic order: (k,) first, (1, ..., 1) last."""
    if k == 0:
        return [()]
    return [(part,) + rest for part in range(min(k, largest or k), 0, -1) for rest in _cycle_types(k - part, part)]


@lru_cache(maxsize=None)
def _group_index(k: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """(class of each permutation, 0-based one-line images, radix, base-k
    codes) for S_k in `all_permutations` order: O(k k!) entries."""
    type_index = {t: c for c, t in enumerate(_cycle_types(k))}
    perms = all_permutations(k)
    classes = np.array([type_index[p.cycle_type()] for p in perms], dtype=np.uint8)
    one_line = np.array([p.images for p in perms], dtype=np.int64) - 1
    radix = k ** np.arange(k - 1, -1, -1, dtype=np.int64)
    return classes, one_line, radix, one_line @ radix


def _class_row(k: int, i: int) -> bytes:
    """The index into `_cycle_types(k)` of the class of perms[i]^-1 perms[j],
    for every j.  Symmetric in i and j, since x and x^-1 share a cycle type."""
    classes, one_line, radix, codes = _group_index(k)
    # (p^-1 q)(x) = p^-1(q(x)) for every q at once; base-k codes increase
    # along the lexicographic order, so searchsorted ranks them
    ranks = np.searchsorted(codes, np.argsort(one_line[i])[one_line] @ radix)
    return classes[ranks].tobytes()


class WeingartenTable:
    """Exact Gram matrix and its inverse for fixed (k, D)."""

    def __init__(self, k: int, D: int):
        if k < 1 or D < 1:
            raise ValueError("k and D must be positive")
        if D < k:
            raise RegimeError(f"Gram matrix singular at k={k}, D={D}: pseudo-inverse regime unsupported")
        self.k, self.D = k, D
        self.perms: tuple[Permutation, ...] = tuple(all_permutations(k))
        self._types = _cycle_types(k)
        self._by_class = _weingarten_class_function(k, D)
        # Wg(perms[i], perms[j]) = self._values[_class_row(k, i)[j]]
        self._values = tuple(self._by_class[t] for t in self._types)
        self._verify_class_algebra()

    def wg_of_class(self, cycle_type: tuple[int, ...]) -> Fraction:
        return self._by_class[cycle_type]

    def row(self, i: int) -> list[Fraction]:
        """Wg(perms[i], beta) for every beta, in `perms` order."""
        return [self._values[c] for c in _class_row(self.k, i)]

    def rows(self, show_gram=int, show_wg=Fraction) -> Iterator[tuple[list, list]]:
        """(Gram row, Weingarten row) of each perms[i], both from one class row,
        each entry mapped through `show_gram` or `show_wg` once per class."""
        powers = [show_gram(self.D ** len(t)) for t in self._types]
        values = [show_wg(v) for v in self._values]
        for i in range(len(self.perms)):
            row = _class_row(self.k, i)
            yield list(map(powers.__getitem__, row)), list(map(values.__getitem__, row))

    def _verify_class_algebra(self) -> None:
        """Checks (1)-(3) of the module docstring, exactly, on every class."""
        k, D, types, values = self.k, self.D, self._types, self._values
        chi, n, e = _character_table(k), math.factorial(k), len(types) - 1  # e: the identity's class
        sizes = [n // math.prod(i ** mu.count(i) * math.factorial(mu.count(i)) for i in set(mu)) for mu in types]
        schur = [_hooks_and_schur(lam, D)[1] for lam in types]

        def inner(f, g):  # k! <f, g> = sum_mu |C_mu| f(mu) g(mu)
            return sum(map(math.prod, zip(sizes, f, g)))

        def on_classes(coefficients):  # sum_lam coefficients[lam] chi^lam, on every class
            return [sum(w * row[c] for w, row in zip(coefficients, chi)) for c in range(e + 1)]

        # (k!/chi^lam(e)) W_lam s_lam(1^D), the coefficient of chi^lam in Wg * Q
        coeffs = [Fraction(inner(values, row), row[e]) * s for row, s in zip(chi, schur)]
        checks = {
            "row orthogonality": all(a[e] > 0 for a in chi)
            and all([inner(a, b) for b in chi] == [n * (a is b) for b in chi] for a in chi),
            "Frobenius": on_classes(schur) == [D ** len(mu) for mu in types],
            "Wg * Q = delta_e": on_classes(coeffs) == [0] * e + [1],
        }
        failed = [name for name, holds in checks.items() if not holds]
        if failed:
            raise AssertionError(f"Weingarten inversion failed at k={k}, D={D}: {', '.join(failed)}")


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


@lru_cache(maxsize=None)
def _character_table(k: int) -> tuple[tuple[int, ...], ...]:
    """chi[l][c] = chi^lam(mu) for lam, mu the l-th and c-th of `_cycle_types(k)`."""
    types = _cycle_types(k)
    beta_sets = [frozenset(part + len(lam) - 1 - i for i, part in enumerate(lam)) for lam in types]
    return tuple(tuple(_character(beads, mu) for mu in types) for beads in beta_sets)


def _hooks_and_schur(lam: tuple[int, ...], D: int) -> tuple[int, Fraction]:
    """(product of the hook lengths, s_lam(1^D) = prod_cells (D + content)/hook)."""
    cells = [(i, j) for i, row in enumerate(lam) for j in range(row)]
    hooks = math.prod(lam[i] - j + sum(below > j for below in lam[i + 1 :]) for i, j in cells)
    return hooks, Fraction(math.prod(D + j - i for i, j in cells), hooks)


@lru_cache(maxsize=None)
def _weingarten_class_function(k: int, D: int) -> dict[tuple[int, ...], Fraction]:
    """Wg on each cycle type, summed over the irreducible characters of S_k."""
    types, chi, n = _cycle_types(k), _character_table(k), math.factorial(k)
    # chi^lam(e)^2 / (k!^2 s_lam(1^D)), chi^lam(e) in the identity's (last) column
    weights = [Fraction(row[-1] ** 2, n * n) / _hooks_and_schur(lam, D)[1] for lam, row in zip(types, chi)]
    return {mu: sum(w * row[c] for w, row in zip(weights, chi)) for c, mu in enumerate(types)}


@lru_cache(maxsize=None)
def weingarten_table(k: int, D: int) -> WeingartenTable:
    return WeingartenTable(k, D)
