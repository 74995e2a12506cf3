"""Moment <-> free-cumulant engine."""

import itertools
from fractions import Fraction
from functools import reduce

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kfree.moments import (
    _times,
    _word_trace,
    Expectation,
    cumulant_words,
    cumulants,
    free_cumulant,
    mixed_moment_free,
    parts_product,
    sub_words,
)
from kfree import ensembles, eth
from kfree.partitions import Partition, catalan

from eth_oracles import classical_cumulant
from moment_oracles import alternating_centered_moment, free_cumulant_recursive, free_mixed_word, moments_from_cumulants


def moment_phi(values, label="A"):
    return Expectation.from_moment_sequence(list(values), label=label)


def test_empty_word_normalization():
    phi = moment_phi([1.0, 2.0])
    assert phi(()) == 1


def test_sub_words_read_each_part_in_the_given_order():
    word = (Fraction(1, 2), Fraction(1, 3), Fraction(1, 5), Fraction(1, 7))
    # a cycle (1, 3, 2) reads positions 1, 3, 2, not sorted
    assert sub_words(word, [(1, 3, 2), (4,)]) == [(Fraction(1, 2), Fraction(1, 5), Fraction(1, 3)), (Fraction(1, 7),)]
    assert sub_words(word, [(2, 1)]) != sub_words(word, [(1, 2)])


class _Trail(tuple):
    """Records the factors of a product in the order they are multiplied."""

    def __mul__(self, other):
        return _Trail((*self, other))


def test_parts_product_multiplies_start_first_then_left_to_right():
    word = (Fraction(1, 2), Fraction(1, 3), Fraction(1, 5))

    def f(sub):  # depends on the order of the sub-word
        return sum(x * 10**i for i, x in enumerate(sub))

    parts = [(1, 3, 2)]
    assert parts_product(f, word, parts) == Fraction(1, 2) + Fraction(10, 5) + Fraction(100, 3)
    parts = [(2,), (3, 1)]
    assert parts_product(f, word, parts, start=Fraction(7, 4)) == Fraction(7, 4) * Fraction(1, 3) * (
        Fraction(1, 5) + Fraction(10, 2)
    )
    assert parts_product(f, word, parts, start=_Trail(("start",))) == (
        "start", Fraction(1, 3), Fraction(1, 5) + Fraction(10, 2)
    )
    assert parts_product(f, word, [], start=Fraction(3)) == Fraction(3)


def test_blockwise_moment_examples():
    table = {("A",): 2.0, ("B",): 3.0, ("C",): 5.0, ("D",): 7.0, ("A", "B"): 11.0, ("C", "D"): 13.0,
             ("A", "B", "C", "D"): 17.0}
    phi = Expectation(table.__getitem__)
    word = ("A", "B", "C", "D")
    assert parts_product(phi, word, Partition.full(4).blocks) == 17.0
    assert parts_product(phi, word, Partition.singletons(4).blocks) == 2.0 * 3.0 * 5.0 * 7.0
    assert parts_product(phi, word, Partition.from_blocks(4, [[1, 2], [3, 4]]).blocks) == 11.0 * 13.0


@pytest.mark.parametrize("word", [("A", "B") * 2, (0, 1) * 3, ("x", "y", "x", "z", "y")])
def test_cumulant_words_are_the_sub_words_free_cumulant_reads(word):
    read = []

    def phi(sub):  # records every call: no cache hides a repeated sub-word
        read.append(sub)
        return 1.0

    free_cumulant(phi, word)
    assert list(dict.fromkeys(read)) == cumulant_words(word)


def test_kappa3_kappa4_closed_forms():
    rng = np.random.default_rng(42)
    for _ in range(6):
        m = rng.standard_normal(4)
        phi = moment_phi(m)
        k3 = free_cumulant(phi, ("A",) * 3)
        k4 = free_cumulant(phi, ("A",) * 4)
        assert abs(k3 - (m[2] + 2 * m[0] ** 3 - 3 * m[0] * m[1])) < 1e-12
        expected4 = m[3] - 2 * m[1] ** 2 - 4 * m[0] * m[2] + 10 * m[0] ** 2 * m[1] - 5 * m[0] ** 4
        assert abs(k4 - expected4) < 1e-12


def test_constant_operator_cumulants():
    c = 0.37
    phi = moment_phi([c**n for n in range(1, 7)])
    assert abs(free_cumulant(phi, ("A",)) - c) < 1e-12
    for n in range(2, 7):
        assert abs(free_cumulant(phi, ("A",) * n)) < 1e-12


def test_semicircle_cumulants_vanish():
    phi = moment_phi([0, 1, 0, 2, 0, 5])
    assert abs(free_cumulant(phi, ("A",) * 2) - 1) < 1e-12
    for n in (1, 3, 4, 5, 6):
        assert abs(free_cumulant(phi, ("A",) * n)) < 1e-12
    # exact rationals up to n = 9: the semicircle (m_n = Cat(n/2) for even n)
    # has kappa_n = delta_{n,2}; free Poisson (m_n = Cat(n)) has kappa_n = 1
    semicircle = moment_phi([Fraction(catalan(n // 2) if n % 2 == 0 else 0) for n in range(1, 10)])
    free_poisson = moment_phi([Fraction(catalan(n)) for n in range(1, 10)])
    for n in range(1, 10):
        assert free_cumulant(semicircle, ("A",) * n) == (1 if n == 2 else 0)
        assert free_cumulant(free_poisson, ("A",) * n) == 1


def test_moments_from_semicircle_cumulants_are_catalan():
    kappa = lambda word: 1.0 if len(word) == 2 else 0.0
    for n in range(1, 9):
        expected = catalan(n // 2) if n % 2 == 0 else 0
        assert moments_from_cumulants(("A",) * n, kappa) == expected


def test_free_sum_of_semicircles():
    two = lambda word: 2.0 if len(word) == 2 else 0.0
    # kappa_2(A + B) = kappa_2(A) + kappa_2(B) for free A, B
    assert free_cumulant(lambda word: moments_from_cumulants(word, two), ("A", "A")) == 1.0 + 1.0
    # moments of the sum: Catalan numbers scaled by 2^(n/2)
    assert moments_from_cumulants(("A",) * 4, two) == 8.0  # 2 * 2^2
    assert moments_from_cumulants(("A",) * 2, two) == 2.0


@settings(max_examples=40, deadline=None)
@given(st.lists(st.floats(min_value=-2, max_value=2), min_size=6, max_size=6))
def test_roundtrip_cumulants_to_moments(kappas):
    table = {n: kappas[n - 1] for n in range(1, 7)}
    kappa_fn = lambda word: table[len(word)]
    moments = [moments_from_cumulants(("A",) * n, kappa_fn) for n in range(1, 7)]
    phi = moment_phi(moments)
    scale = max(1.0, max(abs(m) for m in moments))
    for n in range(1, 7):
        recovered = free_cumulant(phi, ("A",) * n)
        assert abs(recovered - table[n]) <= 1e-12 * scale


def test_recursive_equals_moebius_path():
    rng = np.random.default_rng(7)
    m = rng.standard_normal(6)
    phi = moment_phi(m)
    for n in range(1, 7):
        a = free_cumulant(phi, ("A",) * n)
        b = free_cumulant_recursive(phi, ("A",) * n)
        assert abs(a - b) < 1e-12 * max(1.0, abs(a))


def test_classical_equals_free_up_to_three():
    rng = np.random.default_rng(11)
    m = rng.standard_normal(4)
    phi = moment_phi(m)
    for n in (1, 2, 3):
        assert abs(classical_cumulant(phi, ("A",) * n) - free_cumulant(phi, ("A",) * n)) < 1e-12
    # and they differ at 4 in general (the crossing partition enters)
    k4_free = free_cumulant(phi, ("A",) * 4)
    k4_classical = classical_cumulant(phi, ("A",) * 4)
    assert abs((k4_classical - k4_free) - (-(m[1] - m[0] ** 2) ** 2)) < 1e-12


def test_kappa_pi_block_factorization_hand_expanded():
    rng = np.random.default_rng(3)
    ops = {lab: rng.standard_normal((5, 5)) for lab in "WXYZ"}
    phi = Expectation.normalized_trace(ops)
    word = ("W", "X", "Y", "Z")
    pi = Partition.from_blocks(4, [[1, 4], [2, 3]])
    expected = free_cumulant(phi, ("W", "Z")) * free_cumulant(phi, ("X", "Y"))
    assert abs(parts_product(cumulants(phi), word, pi.blocks) - expected) < 1e-12
    pi2 = Partition.from_blocks(4, [[1, 2, 4], [3]])
    expected2 = free_cumulant(phi, ("W", "X", "Z")) * free_cumulant(phi, ("Y",))
    assert abs(parts_product(cumulants(phi), word, pi2.blocks) - expected2) < 1e-12


def test_mixed_moment_free_abab():
    pa = moment_phi([0.3, 1.1, 0.2, 2.0], label="A")
    pb = moment_phi([0.7, 1.4, -0.1, 1.0], label="B")
    got = mixed_moment_free(pa, pb, ("A",) * 2, ("B",) * 2)
    a1, a2 = pa(("A",)), pa(("A", "A"))
    b1, b2 = pb(("B",)), pb(("B", "B"))
    assert abs(got - (a2 * b1**2 + b2 * a1**2 - b1**2 * a1**2)) < 1e-12


def test_mixed_moment_centered_a():
    pa = moment_phi([0.0, 1.5], label="A")
    pb = moment_phi([0.6, 2.0], label="B")
    got = mixed_moment_free(pa, pb, ("A",) * 2, ("B",) * 2)
    assert abs(got - 1.5 * 0.36) < 1e-12


def test_mixed_moment_matches_monochromatic_expansion():
    pa = moment_phi([0.4, 1.2, 0.9, 2.2, 1.0, 3.0], label="A")
    pb = moment_phi([-0.2, 0.8, 0.3, 1.7, 0.5, 2.5], label="B")
    for n in (1, 2, 3):
        v1 = mixed_moment_free(pa, pb, ("A",) * n, ("B",) * n)
        word = tuple(x for _ in range(n) for x in (("A", "A"), ("B", "B")))
        v2 = free_mixed_word(word, {"A": pa, "B": pb})
        assert abs(v1 - v2) < 1e-12


def test_alternating_centered_vanishes_under_freeness():
    pa = moment_phi([0.3, 1.1, 0.2, 2.0, 0.9, 3.1, 1.2, 4.0], label="A")
    pb = moment_phi([0.7, 1.4, -0.1, 1.0, 0.8, 2.2, 0.1, 3.3], label="B")
    for n in (1, 2, 3, 4):
        assert abs(alternating_centered_moment(pa, pb, n)) < 1e-10


def test_alternating_centered_powers_vanish():
    pa = moment_phi([0.3, 1.1, 0.2, 2.0, 0.9, 3.1], label="A")
    pb = moment_phi([0.7, 1.4, -0.1, 1.0, 0.8, 2.2], label="B")
    assert abs(alternating_centered_moment(pa, pb, 2, a_powers=(2, 1), b_powers=(1, 2))) < 1e-10


def test_alternating_centered_n1_identity():
    # fed a correlated empirical functional, n=1 reduces to <AB> - <A><B>
    pa = moment_phi([0.5, 1.0], label="A")
    pb = moment_phi([0.25, 1.0], label="B")
    got = alternating_centered_moment(pa, pb, 1, empirical=Expectation(
        {("A",): 0.5, ("B",): 0.25, ("A", "B"): 0.4, ("B", "A"): 0.4, ("A", "A"): 1.0, ("B", "B"): 1.0}.__getitem__
    ))
    assert abs(got - (0.4 - 0.5 * 0.25)) < 1e-12


def test_cumulant_set_table():
    phi = moment_phi([0.0, 1.0, 0.0, 2.0])
    kappa = cumulants(phi)
    table = {n: kappa(("A",) * n) for n in range(1, 5)}
    assert abs(table[2] - 1.0) < 1e-12
    assert abs(table[4]) < 1e-12


def test_mixed_cumulants_of_free_families_vanish():
    pa = moment_phi([0.4, 1.2, 0.9, 2.2], label="A")
    pb = moment_phi([-0.2, 0.8, 0.3, 1.7], label="B")

    def joint(word):
        return free_mixed_word(tuple((lab, lab) for lab in word), {"A": pa, "B": pb})

    phi_joint = Expectation(joint)
    for word in (("A", "B"), ("A", "B", "A", "B"), ("A", "A", "B"), ("A", "B", "B")):
        if len(set(word)) < 2:
            continue
        assert abs(free_cumulant(phi_joint, word)) < 1e-10


def _chained_trace(letters, word, weights=None):
    """Reference: multiply the whole word, then take the (weighted) trace."""
    prod = reduce(np.matmul, (letters[x] for x in word))
    if weights is None:
        return complex(np.trace(prod)) / prod.shape[0]
    return complex(np.dot(weights, np.diagonal(prod)))


def test_word_trace_matches_chained_products():
    rng = np.random.default_rng(17)
    D = 9
    letters = {lab: rng.standard_normal((D, D)) + 1j * rng.standard_normal((D, D)) for lab in "xyz"}
    real_weights = rng.random(D)
    complex_weights = rng.standard_normal(D) + 1j * rng.standard_normal(D)
    words = [tuple(rng.choice(list("xyz"), size=n)) for n in range(1, 8) for _ in range(6)]
    words += [("x",) * n for n in range(1, 8)] + [("x", "y") * 3 + ("x",)]
    for weights in (None, real_weights / real_weights.sum(), complex_weights):
        shared = _word_trace(letters, weights)  # one cache across every word
        for word in words:
            want = _chained_trace(letters, word, weights)
            for got in (shared(word), _word_trace(letters, weights)(word)):
                assert abs(got - want) <= 1e-12 * max(abs(want), 1.0)


@pytest.mark.parametrize("order", ["forward", "reversed", "longest-first"])
def test_word_trace_any_split_matches_chained_products(order):
    """Every word of length <= 6 over three non-commuting letters, through one
    shared cache, so the split each word takes depends on what the words
    before it built."""
    rng = np.random.default_rng(23)
    D = 5
    letters = {lab: rng.standard_normal((D, D)) + 1j * rng.standard_normal((D, D)) for lab in "xyz"}
    real_weights = rng.random(D)
    complex_weights = rng.standard_normal(D) + 1j * rng.standard_normal(D)
    words = [w for n in range(1, 7) for w in itertools.product("xyz", repeat=n)]
    if order == "reversed":
        words.reverse()
    elif order == "longest-first":
        words.sort(key=lambda w: (-len(w), w))
    for weights in (None, real_weights / real_weights.sum(), complex_weights):
        trace = _word_trace(letters, weights)
        for word in words:
            want = _chained_trace(letters, word, weights)
            assert abs(trace(word) - want) <= 1e-12 * max(abs(want), 1.0), word


@pytest.mark.parametrize("weights", ["none", "real", "complex"])
def test_word_trace_diagonal_letters_match_dense_diagonals(weights):
    """1-D letters are diagonals: every word of length <= 5 over a dense
    letter and two diagonal ones, through one shared cache, equals the trace
    over the same letters as `np.diag` matrices."""
    rng = np.random.default_rng(29)
    D = 6
    diagonals = {"y": rng.standard_normal(D), "z": rng.standard_normal(D) + 1j * rng.standard_normal(D)}
    letters = {"x": rng.standard_normal((D, D)) + 1j * rng.standard_normal((D, D)), **diagonals}
    dense = {**letters, **{lab: np.diag(d) for lab, d in diagonals.items()}}
    w = {"none": None, "real": rng.random(D), "complex": rng.standard_normal(D) + 1j * rng.standard_normal(D)}[weights]
    trace = _word_trace(letters, w)
    for word in (w_ for n in range(1, 6) for w_ in itertools.product("xyz", repeat=n)):
        want = _chained_trace(dense, word, w)
        assert abs(trace(word) - want) <= 1e-12 * max(abs(want), 1.0), word


def _mixed_operands(rng, D):
    """(name, real, complex) D x D operands in several layouts: C order, a
    transpose (Fortran order) and strided slices of larger arrays."""
    r = rng.standard_normal((2 * D, 2 * D))
    c = rng.standard_normal((2 * D, 2 * D)) + 1j * rng.standard_normal((2 * D, 2 * D))
    return [
        ("contiguous", r[:D, :D].copy(), c[:D, :D].copy()),
        ("transposed", r[:D, :D].copy().T, c[:D, :D].copy().T),
        ("strided", r[::2, 1::2], c[1::2, ::2]),
        ("row-slice", r[:D, ::2], c[::2, :D]),
    ]


@pytest.mark.parametrize("D", [1, 7, 64])
def test_times_mixed_real_complex_matches_complex_matmul(D):
    """Real x complex and complex x real, in real GEMMs, equal the complex
    product of the real factor cast to complex, in every operand layout."""
    rng = np.random.default_rng(D)
    for (nx, rx, cx), (ny, ry, cy) in itertools.product(_mixed_operands(rng, D), repeat=2):
        for x, y in ((rx, cy), (cx, ry)):
            want = x.astype(complex) @ y.astype(complex)
            got = _times(x, y)
            assert got.dtype == np.complex128 and got.shape == want.shape
            assert np.linalg.norm(got - want) <= 1e-14 * np.linalg.norm(want), (nx, ny, x.dtype)


def test_times_diagonals_scale_rows_and_columns():
    rng = np.random.default_rng(3)
    D = 6
    for d in (rng.standard_normal(D), rng.standard_normal(D) + 1j * rng.standard_normal(D)):
        for _, r, c in _mixed_operands(rng, D):
            for m in (r, c):
                assert np.allclose(_times(d, m), np.diag(d) @ m, rtol=1e-14, atol=0)
                assert np.allclose(_times(m, d), m @ np.diag(d), rtol=1e-14, atol=0)
        assert np.array_equal(_times(d, d), d * d)


class _CountingMatrix(np.ndarray):
    """A matrix that counts the products it is a factor of."""

    matmuls = 0

    def __matmul__(self, other):
        _CountingMatrix.matmuls += 1
        return super().__matmul__(other)

    def __rmatmul__(self, other):
        _CountingMatrix.matmuls += 1
        return super().__rmatmul__(other)


def _count_word_matmuls(monkeypatch, module) -> None:
    """Make `module`'s word traces run over counting letters, from a count of 0."""

    def counting_word_trace(letters, weights=None):
        return _word_trace({k: np.asarray(v).view(_CountingMatrix) for k, v in letters.items()}, weights)

    monkeypatch.setattr(module, "_word_trace", counting_word_trace)
    _CountingMatrix.matmuls = 0


@pytest.mark.parametrize("k, matmuls", [(2, 1), (3, 6)])
def test_thermal_cumulant_time_point_matmul_count(monkeypatch, k, matmuls):
    """One time point of kappa^beta_2k(A(t), B, ...): equal letters share a
    label and every split reuses the products already built (4 and 18 word
    matmuls with positional labels and middle splits)."""
    model = eth.goe_model(16, seed=5)
    state = eth.thermal_state(model, 0.2)
    _count_word_matmuls(monkeypatch, eth)
    eth.thermal_free_cumulant(model, state, eth.alternating_word("A", "B", k, 0.7))
    assert _CountingMatrix.matmuls == matmuls


@pytest.mark.parametrize("k, most", [(2, 1), (3, 3)])
def test_haar_sample_matmul_count(monkeypatch, k, most):
    """Every matmul a Haar sample of kappa_2k(A^U, B, ...) does, dressing
    included: in the eigenframe A is a diagonal, B is dressed as
    (G * b) G^dagger, and a product with A is a scaling, so k = 2 takes the
    dressing alone (it took two dressing and one word matmul before)."""
    model = eth.goe_model(16, seed=5)
    draw = ensembles.sample_haar
    monkeypatch.setattr(ensembles, "sample_haar", lambda D, rng: draw(D, rng).view(_CountingMatrix))
    _CountingMatrix.matmuls = 0
    n_samples = 4
    ensembles.k_freeness_test(
        ensembles.HaarEnsemble(16), model.observables["A"], model.observables["B"], k, n_samples=n_samples, n_batches=2
    )
    assert _CountingMatrix.matmuls <= most * n_samples
    if k == 2:
        assert _CountingMatrix.matmuls == n_samples


def test_word_trace_rejects_mixed_dimensions():
    with pytest.raises(ValueError, match="share one dimension"):
        _word_trace({"a": np.eye(2), "b": np.eye(3)})
