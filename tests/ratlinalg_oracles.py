"""Exact rational linear algebra and the Weingarten values it solves for.

`exact_solve` is fraction-free Gaussian elimination: the forward pass is
Bareiss elimination, which keeps the pivot block in arbitrary-precision
integers with controlled entry growth, and back substitution produces exact
`Fraction` results.  On top of it sit a dense exact inverse and product, for
checking the Weingarten tables, and `weingarten_class_function_by_solve`, the
class-collapsed Gram system that the package solved for Wg before it used
the character formula.
"""

from fractions import Fraction
from math import lcm

from kfree.permutations import all_permutations, compose, inverse


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


def weingarten_class_function_by_solve(k: int, D: int) -> dict[tuple[int, ...], Fraction]:
    """Solve sum_sigma w(sigma) D^(#(sigma^-1 tau)) = [tau == id] for the
    class function w, collapsing by conjugacy class (p(k) unknowns).  Raises
    ValueError when the system is singular (D < k)."""
    perms = all_permutations(k)
    reps = {}
    for p in perms:
        reps.setdefault(p.cycle_type(), p)
    types = list(reps)
    column = {t: c for c, t in enumerate(types)}
    sigma_classes = [column[p.cycle_type()] for p in perms]
    # A[tau-class][sigma-class] = sum over sigma in the class of D^#(tau^-1 sigma),
    # tau one representative of its class, every product by `compose`
    a = []
    for t in types:
        tau_inv = inverse(reps[t])
        row = [0] * len(types)
        for c, sigma in zip(sigma_classes, perms):
            row[c] += D ** compose(tau_inv, sigma).num_cycles()
        a.append(row)
    rhs = [[Fraction(int(t == (1,) * k)) for t in types]]
    sol = exact_solve(a, rhs)[0]
    return {t: sol[c] for c, t in enumerate(types)}
