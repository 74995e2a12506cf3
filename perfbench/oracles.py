"""Reference combinatorics for checking kfree outputs, written without kfree.

Everything here is brute force over small ground sets (n <= 7, k <= 5) and
exact in `Fraction` whenever the inputs are.  Permutations are one-line
tuples of images of 1..k; partitions are lists of ascending blocks.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import permutations as _permutations
from math import comb


def catalan(n: int) -> int:
    return comb(2 * n, n) // (n + 1)


def set_partitions(n: int):
    """Every set partition of 1..n as a list of ascending blocks."""
    if n == 0:
        yield []
        return
    for p in set_partitions(n - 1):
        for i in range(len(p)):
            yield p[:i] + [p[i] + [n]] + p[i + 1 :]
        yield p + [[n]]


def is_noncrossing(blocks) -> bool:
    where = {x: i for i, b in enumerate(blocks) for x in b}
    n = len(where)
    for a in range(1, n + 1):
        for b in range(a + 1, n + 1):
            for c in range(b + 1, n + 1):
                for d in range(c + 1, n + 1):
                    if where[a] == where[c] != where[b] == where[d]:
                        return False
    return True


@lru_cache(maxsize=None)
def nc_partitions(n: int) -> tuple:
    return tuple(tuple(map(tuple, p)) for p in set_partitions(n) if is_noncrossing(p))


def kreweras(blocks, n: int) -> list[tuple[int, ...]]:
    """Kreweras complement as the cycles of pi^-1 gamma, gamma = (1 2 ... n)."""
    inv = {}
    for b in blocks:
        for i, x in enumerate(b):
            inv[b[(i + 1) % len(b)]] = x
    k = tuple(inv[x % n + 1] for x in range(1, n + 1))
    return sorted(tuple(sorted(c)) for c in cycles(k))


def nc_sign(i: int) -> int:
    """Moebius value mu(0, 1) on NC(i)."""
    return (-1) ** (i - 1) * catalan(i - 1)


def moebius_to_top(blocks, n: int) -> int:
    """mu(pi, 1_n) = mu(0_n, K(pi)) = product of nc_sign over K(pi)'s blocks."""
    out = 1
    for b in kreweras(blocks, n):
        out *= nc_sign(len(b))
    return out


def moebius_from_bottom(blocks) -> int:
    out = 1
    for b in blocks:
        out *= nc_sign(len(b))
    return out


def free_cumulant(phi, n: int):
    """kappa_n of the positional word 0..n-1: sum over NC(n) of
    mu(pi, 1) times the product of phi over the blocks of pi."""
    total = 0
    for p in nc_partitions(n):
        term = moebius_to_top(p, n)
        for b in p:
            term *= phi(tuple(x - 1 for x in b))
        total += term
    return total


def cumulants_from_moments(moments) -> list:
    """kappa_1..kappa_len(moments) of a single variable."""
    return [free_cumulant(lambda block: moments[len(block) - 1], n) for n in range(1, len(moments) + 1)]


def otoc_formula(kappa_a, moments_b, k: int):
    """Leading 2k-OTOC of free a, b: sum over NC(k) of kappa_pi(a) m_{K(pi)}(b)."""
    total = 0
    for p in nc_partitions(k):
        term = 1
        for b in p:
            term *= kappa_a[len(b) - 1]
        for b in kreweras(p, k):
            term *= moments_b[len(b) - 1]
        total += term
    return total


# ---------------------------------------------------------------------------
# permutations and the exact Weingarten class function
# ---------------------------------------------------------------------------


def parse_perm(text: str) -> tuple[int, ...]:
    return tuple(int(x) for x in text.strip("()").split(","))


def cycles(p: tuple[int, ...]) -> list[tuple[int, ...]]:
    seen, out = set(), []
    for s in range(1, len(p) + 1):
        if s in seen:
            continue
        cyc, x = [], s
        while x not in seen:
            seen.add(x)
            cyc.append(x)
            x = p[x - 1]
        out.append(tuple(cyc))
    return out


def cycle_type(p: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(sorted((len(c) for c in cycles(p)), reverse=True))


def rel(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    """a^-1 b (apply b, then a^-1)."""
    inv = [0] * len(a)
    for i, j in enumerate(a, start=1):
        inv[j - 1] = i
    return tuple(inv[b[i] - 1] for i in range(len(a)))


def all_perms(k: int) -> list[tuple[int, ...]]:
    return list(_permutations(range(1, k + 1)))


def solve(a: list[list], rhs: list) -> list[Fraction]:
    """Gauss-Jordan elimination over the rationals (small nonsingular systems)."""
    n = len(a)
    m = [[Fraction(x) for x in row] + [Fraction(r)] for row, r in zip(a, rhs)]
    for col in range(n):
        piv = next(r for r in range(col, n) if m[r][col] != 0)
        m[col], m[piv] = m[piv], m[col]
        for r in range(n):
            if r != col and m[r][col] != 0:
                f = m[r][col] / m[col][col]
                m[r] = [x - f * y for x, y in zip(m[r], m[col])]
    return [m[i][n] / m[i][i] for i in range(n)]


def weingarten_class_function(k: int, D: int) -> dict[tuple[int, ...], Fraction]:
    """w with sum_sigma w(type(sigma)) D^#(sigma^-1 tau) = [tau == id]."""
    perms = all_perms(k)
    types = sorted({cycle_type(p) for p in perms}, reverse=True)
    reps = {}
    for p in perms:
        reps.setdefault(cycle_type(p), p)
    a = []
    for t in types:
        row = dict.fromkeys(types, 0)
        for s in perms:
            row[cycle_type(s)] += D ** len(cycles(rel(s, reps[t])))
        a.append([row[u] for u in types])
    sol = solve(a, [int(t == (1,) * k) for t in types])
    return dict(zip(types, sol))


def permuted_trace(beta: tuple[int, ...], moments, D: int):
    """Tr(W_beta A^{x k}) for one operator with normalized moments."""
    out = D ** len(cycles(beta))
    for c in cycles(beta):
        out *= moments[len(c) - 1]
    return out


def otoc_exact(moments_a, moments_b, k: int, D: int) -> Fraction:
    """Exact finite-D Haar 2k-OTOC of single-operator inputs:
    (1/D) sum_{alpha, beta} Wg(alpha, beta) Tr_a(beta) Tr_b(alpha^-1 gamma)."""
    w = weingarten_class_function(k, D)
    perms = all_perms(k)
    gamma = tuple(range(2, k + 1)) + (1,)
    tr_a = {b: permuted_trace(b, moments_a, D) for b in perms}
    total = Fraction(0)
    for alpha in perms:
        coeff = sum(w[cycle_type(rel(alpha, b))] * tr_a[b] for b in perms)
        total += coeff * permuted_trace(rel(alpha, gamma), moments_b, D)
    return total / D
