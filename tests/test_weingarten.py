"""Exact Gram/Weingarten tables and their large-D asymptotics."""

import math
from fractions import Fraction

import numpy as np
import pytest

from kfree import weingarten
from kfree.channel import channel_exact
from kfree.errors import RegimeError
from kfree.moments import Expectation
from kfree.permutations import Permutation, all_permutations, compose, full_cycle, identity, inverse
from kfree.weingarten import (
    WeingartenTable,
    _character,
    _character_table,
    _class_row,
    _cycle_types,
    _group_index,
    _hooks_and_schur,
    _weingarten_class_function,
    weingarten_table,
)

from nc_oracles import weingarten_asymptotic
from ratlinalg_oracles import exact_inverse, exact_matmul, weingarten_class_function_by_solve


def gram_and_wg(t):
    """(Gram matrix, Weingarten matrix) of a table, read off `rows()`."""
    gram, wg = zip(*t.rows())
    return list(gram), list(wg)


def entry(t, alpha, beta):
    """Wg(alpha, beta), read off the row of alpha."""
    return t.row(t.perms.index(alpha))[t.perms.index(beta)]


def test_exact_solve_roundtrip():
    rng = np.random.default_rng(0)
    for n in (1, 3, 5, 8):
        a = [[Fraction(int(rng.integers(-9, 10)), int(rng.integers(1, 7))) for _ in range(n)] for _ in range(n)]
        try:
            inv = exact_inverse(a)
        except ValueError:
            continue
        prod = exact_matmul(a, inv)
        assert all(prod[i][j] == (1 if i == j else 0) for i in range(n) for j in range(n))


def test_exact_solve_singular():
    with pytest.raises(ValueError):
        exact_inverse([[1, 2], [2, 4]])


def test_gram_examples():
    assert gram_and_wg(weingarten_table(1, 7))[0] == [[7]]
    assert gram_and_wg(weingarten_table(2, 3))[0] == [[9, 3], [3, 9]]


def test_gram_k3_structure():
    # entries are D^{#cycles(a^-1 b)}: diagonal D^3, one-transposition D^2,
    # three-cycle D; 3 transpositions and 2 three-cycles off each row
    D = 4
    g, _ = gram_and_wg(weingarten_table(3, D))
    for i, row in enumerate(g):
        assert row[i] == D**3
        assert sorted(row) == sorted([D**3] + [D**2] * 3 + [D] * 2)


def test_weingarten_k1():
    t = weingarten_table(1, 9)
    assert gram_and_wg(t)[1] == [[Fraction(1, 9)]]


@pytest.mark.parametrize("D", range(2, 9))
def test_weingarten_k2_display(D):
    t = weingarten_table(2, D)
    n = D * (D**2 - 1)
    assert gram_and_wg(t)[1] == [
        [Fraction(D, n), Fraction(-1, n)],
        [Fraction(-1, n), Fraction(D, n)],
    ]


def test_weingarten_k2_d2_off_diagonal():
    assert entry(weingarten_table(2, 2), identity(2), Permutation((2, 1))) == Fraction(-1, 6)


@pytest.mark.parametrize("D", range(3, 9))
def test_weingarten_k3_class_values(D):
    # off-diagonal classes match the printed display; the identity-class
    # value is the exact inverse's (D - 2/D)/N -- the printed "(1 - 2/D)"
    # fails Wg.Q = I (see the decisions ledger)
    t = weingarten_table(3, D)
    n = (D**2 - 1) * (D**2 - 4)
    assert t.wg_of_class((2, 1)) == Fraction(-1, n)
    assert t.wg_of_class((3,)) == Fraction(2, D) / n
    assert t.wg_of_class((1, 1, 1)) == (Fraction(D) - Fraction(2, D)) / n
    assert t.wg_of_class((1, 1, 1)) == Fraction(D**2 - 2, D * n)


def test_weingarten_k3_d3_identity_entry():
    assert entry(weingarten_table(3, 3), identity(3), identity(3)) == Fraction(7, 120)


@pytest.mark.parametrize("k,D", [(2, 2), (2, 5), (3, 3), (3, 6)])
def test_collapsed_solver_matches_full_inversion(k, D):
    gram, wg = gram_and_wg(weingarten_table(k, D))
    assert exact_inverse(gram) == wg


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_exact_inverse_identity_dense(k):
    for D in (k, k + 3, 12):
        gram, wg = gram_and_wg(weingarten_table(k, D))
        prod = exact_matmul(wg, gram)
        n = len(prod)
        assert all(prod[i][j] == (1 if i == j else 0) for i in range(n) for j in range(n))


def test_singular_regime_rejected():
    with pytest.raises(RegimeError):
        weingarten_table(3, 2)
    with pytest.raises(RegimeError):
        weingarten_table(4, 2)
    # refused before the S_k index or the character table is built
    _group_index.cache_clear()
    _character_table.cache_clear()
    with pytest.raises(RegimeError, match=r"^Gram matrix singular at k=7, D=2: pseudo-inverse regime unsupported$"):
        weingarten_table(7, 2)
    assert _group_index.cache_info().currsize == 0
    assert _character_table.cache_info().currsize == 0


def _centralizer_order(mu):
    """z_mu = k!/|C_mu| = prod_i i^(m_i) m_i!."""
    return math.prod(i ** mu.count(i) * math.factorial(mu.count(i)) for i in set(mu))


@pytest.mark.parametrize("k", range(1, 9))
def test_character_table_identities(k):
    types = _cycle_types(k)
    beads = {lam: frozenset(part + len(lam) - 1 - i for i, part in enumerate(lam)) for lam in types}
    chi = {(lam, mu): _character(beads[lam], mu) for lam in types for mu in types}
    for lam in types:
        hooks, _ = _hooks_and_schur(lam, k)
        assert chi[lam, (1,) * k] == math.factorial(k) // hooks
    # column orthogonality: sum_lam chi(mu) chi(nu) = delta_{mu nu} k!/|C_mu|
    for mu in types:
        for nu in types:
            total = sum(chi[lam, mu] * chi[lam, nu] for lam in types)
            assert total == (_centralizer_order(mu) if mu == nu else 0)
    # Frobenius: D^(#cycles) = sum_lam chi^lam(mu) s_lam(1^D), s_lam(1^D) by hook-content
    for D in range(1, k + 3):
        schur = {lam: _hooks_and_schur(lam, D)[1] for lam in types}
        for mu in types:
            assert sum(chi[lam, mu] * schur[lam] for lam in types) == D ** len(mu)


@pytest.mark.parametrize("k", range(1, 7))
def test_character_route_matches_solve_oracle(k):
    for D in range(k, k + 5):
        assert _weingarten_class_function(k, D) == weingarten_class_function_by_solve(k, D)


def test_class_function_property():
    rng = np.random.default_rng(3)
    for k in (2, 3, 4):
        t = weingarten_table(k, k + 2)
        for _ in range(5):
            a, b, rho = (Permutation(tuple(rng.permutation(range(1, k + 1)).tolist())) for _ in range(3))
            ca = compose(compose(inverse(rho), a), rho)
            cb = compose(compose(inverse(rho), b), rho)
            assert entry(t, a, b) == entry(t, ca, cb)


def test_asymptotic_examples():
    assert weingarten_asymptotic(identity(1), identity(1), 7) == Fraction(1, 7)
    s = Permutation((2, 1))
    assert weingarten_asymptotic(s, s, 5) == Fraction(1, 25)
    # off-geodesic pairs vanish at leading order
    gamma = full_cycle(3)
    clockwise = Permutation((3, 1, 2))
    assert weingarten_asymptotic(gamma, clockwise, 9) == 0


@pytest.mark.parametrize("k", [2, 3])
def test_asymptotic_relative_error_scaling(k):
    dims = [16, 32, 64, 128]
    errs = []
    for D in dims:
        t = weingarten_table(k, D)
        worst = 0.0
        for alpha in all_permutations(k):
            for beta in all_permutations(k):
                exact = entry(t, alpha, beta)
                approx = weingarten_asymptotic(alpha, beta, D)
                if approx == 0:
                    continue  # higher-order entries
                worst = max(worst, abs(float((exact - approx) / exact)))
        errs.append(worst)
    slope = np.polyfit(np.log(dims), np.log(errs), 1)[0]
    assert -2.3 <= slope <= -1.7
    for D, err in zip(dims, errs):
        assert err <= 8.0 / D**2


# ---------------------------------------------------------------------------
# the on-demand class rows against compose-based oracles
# ---------------------------------------------------------------------------


def _gram_oracle(k, D):
    perms = all_permutations(k)
    return [[D ** compose(inverse(a), b).num_cycles() for b in perms] for a in perms]


def _matrix_oracle(table):
    return [[table.wg_of_class(compose(inverse(a), b).cycle_type()) for b in table.perms] for a in table.perms]


@pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
def test_group_table_matches_compose(k):
    types = _cycle_types(k)
    perms = all_permutations(k)
    for i, a in enumerate(perms):
        row = _class_row(k, i)
        assert len(row) == len(perms)
        assert [types[c] for c in row] == [compose(inverse(a), b).cycle_type() for b in perms]


@pytest.mark.parametrize("k,D", [(1, 3), (2, 2), (3, 4), (4, 4), (4, 7), (5, 5)])
def test_gram_and_matrix_match_compose_oracles(k, D):
    t = weingarten_table(k, D)
    assert gram_and_wg(t) == (_gram_oracle(k, D), _matrix_oracle(t))
    assert [t.row(i) for i in range(len(t.perms))] == _matrix_oracle(t)


def test_one_operator_exact_channel_reads_one_row_per_cycle_type(monkeypatch):
    rows = []

    def counted(k, i, original=_class_row):
        rows.append(i)
        return original(k, i)

    monkeypatch.setattr(weingarten, "_class_row", counted)
    phi = Expectation.from_moment_sequence([Fraction(n + 1, n + 2) for n in range(7)])
    channel_exact(7, 7, phi, ("A",) * 7)
    assert len(rows) == len(set(rows)) == len(_cycle_types(7)) == 15


# ---------------------------------------------------------------------------
# the class-algebra proof of Wg . Q = I rejects a wrong value or input
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("k,D", [(2, 3), (3, 3), (4, 6), (7, 9)])
def test_inverse_check_rejects_a_perturbed_class_value(k, D):
    t = WeingartenTable(k, D)
    exact = t._values
    for c in range(len(exact)):
        t._values = exact[:c] + (exact[c] + Fraction(1, 10**12),) + exact[c + 1 :]
        with pytest.raises(AssertionError, match=r": Wg \* Q = delta_e$"):
            t._verify_class_algebra()
    t._values = exact
    t._verify_class_algebra()


def _clear_table_caches():
    for cached in (_character_table, _weingarten_class_function, weingarten_table):
        cached.cache_clear()


@pytest.fixture
def cold_tables():
    """Empty the caches of character tables, class values and tables before
    and after, so a monkeypatched input reaches fresh tables only."""
    _clear_table_caches()
    yield
    _clear_table_caches()


@pytest.mark.parametrize("k,D", [(3, 4), (5, 5)])
def test_inverse_check_rejects_a_perturbed_schur_value(k, D, monkeypatch, cold_tables):
    # a consistently wrong s_lam(1^D) enters Wg too, and then Wg * Q = delta_e
    # still holds; only the Frobenius check sees it
    for target in _cycle_types(k):

        def perturbed(lam, dim, target=target, original=_hooks_and_schur):
            hooks, schur = original(lam, dim)
            return hooks, schur + Fraction(int(lam == target), 10**12)

        monkeypatch.setattr(weingarten, "_hooks_and_schur", perturbed)
        _clear_table_caches()
        with pytest.raises(AssertionError, match=r": Frobenius$"):
            weingarten_table(k, D)


@pytest.mark.parametrize("k,D", [(3, 3), (5, 6)])
def test_inverse_check_rejects_a_perturbed_character_value(k, D, monkeypatch, cold_tables):
    types = _cycle_types(k)
    for lam in types:
        for mu in types:
            target = (frozenset(part + len(lam) - 1 - i for i, part in enumerate(lam)), mu)

            def perturbed(beads, nu, target=target, original=_character):
                return original(beads, nu) + ((beads, nu) == target)

            monkeypatch.setattr(weingarten, "_character", perturbed)
            _clear_table_caches()
            with pytest.raises(AssertionError, match=r": row orthogonality"):
                weingarten_table(k, D)
