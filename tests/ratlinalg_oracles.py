"""Dense exact rational inverse and product, for checking the Weingarten
tables and `kfree.ratlinalg.exact_solve` itself."""

from fractions import Fraction

from kfree.ratlinalg import exact_solve


def exact_inverse(matrix: list[list]) -> list[list[Fraction]]:
    """Exact inverse of a square rational matrix (row-major nested lists)."""
    n = len(matrix)
    eye = [[Fraction(int(i == j)) for i in range(n)] for j in range(n)]
    cols = exact_solve(matrix, eye)
    return [[cols[c][r] for c in range(n)] for r in range(n)]


def exact_matmul(a: list[list], b: list[list]) -> list[list[Fraction]]:
    n, m, p = len(a), len(b), len(b[0])
    assert len(a[0]) == m
    out = [[Fraction(0)] * p for _ in range(n)]
    for i in range(n):
        ai = a[i]
        for j in range(p):
            out[i][j] = sum((Fraction(ai[t]) * b[t][j] for t in range(m)), Fraction(0))
    return out
