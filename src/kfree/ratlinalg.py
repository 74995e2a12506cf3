"""Exact rational linear algebra: fraction-free Gaussian elimination.

The forward pass is Bareiss elimination, which keeps the pivot block in
arbitrary-precision integers with controlled entry growth; back substitution
then produces exact `Fraction` results.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm


def _integerize(matrix: list[list]) -> tuple[list[list[int]], list[int]]:
    """Scale each row to integers; return the matrix and the row scales."""
    rows = []
    scales = []
    for row in matrix:
        fracs = [Fraction(x) for x in row]
        s = lcm(*(f.denominator for f in fracs)) if fracs else 1
        rows.append([int(f * s) for f in fracs])
        scales.append(s)
    return rows, scales


def _bareiss_forward(m: list[list], n: int, ncols: int) -> None:
    """In-place fraction-free forward elimination of the first n columns.

    Entries in columns >= n may be Fractions; the pivot block must be
    integral.  Raises ValueError on singular input.
    """
    prev = 1
    for p in range(n):
        if m[p][p] == 0:
            for q in range(p + 1, n):
                if m[q][p] != 0:
                    m[p], m[q] = m[q], m[p]
                    break
            else:
                raise ValueError("matrix is singular")
        for i in range(p + 1, n):
            for j in range(p + 1, ncols):
                num = m[p][p] * m[i][j] - m[i][p] * m[p][j]
                m[i][j] = num // prev if isinstance(num, int) else num / prev
            m[i][p] = 0
        prev = m[p][p]


def exact_solve(matrix: list[list], rhs: list[list]) -> list[list[Fraction]]:
    """Solve A X = B exactly; `rhs` and the result are given column-wise."""
    n = len(matrix)
    cols = len(rhs)
    a, scales = _integerize(matrix)
    m = [a[i] + [Fraction(rhs[c][i]) * scales[i] for c in range(cols)] for i in range(n)]
    _bareiss_forward(m, n, n + cols)
    out: list[list[Fraction]] = []
    for c in range(cols):
        x = [Fraction(0)] * n
        for i in range(n - 1, -1, -1):
            acc = Fraction(m[i][n + c])
            for j in range(i + 1, n):
                acc -= m[i][j] * x[j]
            x[i] = acc / m[i][i]
        out.append(x)
    return out
