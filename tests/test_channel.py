"""k-fold Haar channel: exact Weingarten evaluation, cumulant asymptotics,
and the OTOC factorization."""

from fractions import Fraction

import numpy as np
import pytest
from channel_oracles import (
    channel_exact_rows,
    kappa_alpha_conjugation,
    kappa_alpha_geodesic,
    label_pattern_sorted_rotations,
    reconstruct_dense,
)

import kfree.channel
import kfree.moments
from kfree.channel import (
    channel_asymptotic,
    channel_exact,
    haar_word_average_exact,
    otoc_haar_channel,
    permutation_operator,
    permuted_trace,
    positional_labels,
    word_functional_from_matrices,
)
from kfree.errors import RegimeError
from kfree.moments import Expectation, cumulants, free_cumulant, mixed_moment_free, parts_product
from kfree.partitions import kreweras_complement
from kfree.permutations import (
    Permutation,
    all_permutations,
    compose,
    full_cycle,
    geodesic_set,
    identity,
    inverse,
    on_geodesic,
)
from kfree.weingarten import weingarten_table


def random_mats(k, D, seed=0):
    rng = np.random.default_rng(seed)
    return [rng.standard_normal((D, D)) + 1j * rng.standard_normal((D, D)) for _ in range(k)]


def test_permutation_operator_trace_formula_dense():
    # the convention-pinning test: Tr(W_beta A1 x A2 x A3) equals the product
    # of cycle-ordered traces for every beta in S_3 at D=3
    k, D = 3, 3
    mats = random_mats(k, D, seed=1)
    big = np.kron(np.kron(mats[0], mats[1]), mats[2])
    phi = word_functional_from_matrices(mats)
    for beta in all_permutations(k):
        lhs = np.trace(permutation_operator(beta, D) @ big)
        rhs = permuted_trace(beta, phi, (1, 2, 3), D)
        assert abs(lhs - rhs) < 1e-9 * max(1.0, abs(lhs))


def test_permutation_operator_antihomomorphism():
    for a in all_permutations(3):
        for b in all_permutations(3):
            wa = permutation_operator(a, 2)
            wb = permutation_operator(b, 2)
            assert np.allclose(wa @ wb, permutation_operator(compose(b, a), 2))


def test_channel_exact_k1():
    phi = Expectation({(1,): Fraction(3, 7)}.__getitem__)
    co = channel_exact(1, 5, phi)
    assert co.coeffs[identity(1)] == Fraction(3, 7)


def test_channel_exact_k2_traceless_qubit():
    phi = Expectation(lambda w: Fraction(0) if len(w) == 1 else Fraction(1), cyclic=True)
    co = channel_exact(2, 2, phi, labels=(1, 2))
    assert co.coeffs[identity(2)] == Fraction(-1, 3)
    assert co.coeffs[Permutation((2, 1))] == Fraction(2, 3)


def test_channel_exact_requires_d_ge_k():
    phi = Expectation(lambda w: 1.0, cyclic=True)
    with pytest.raises(RegimeError):
        channel_exact(3, 2, phi)


def test_channel_trace_preservation():
    for k, D in ((2, 4), (3, 5)):
        mats = random_mats(k, D, seed=k + D)
        co = channel_exact(k, D, word_functional_from_matrices(mats))
        target = np.prod([np.trace(m) for m in mats])
        trace = sum(c * D ** alpha.num_cycles() for alpha, c in co.coeffs.items())  # Tr W_alpha = D^#alpha
        assert abs(complex(trace) - complex(target)) < 1e-8 * abs(complex(target))


def test_channel_output_commutes_with_tensor_unitaries():
    from kfree.ensembles import sample_haar

    rng = np.random.default_rng(2)
    for k, D in ((2, 4), (3, 4), (3, 6)):
        mats = random_mats(k, D, seed=3 * k + D)
        rec = reconstruct_dense(channel_exact(k, D, word_functional_from_matrices(mats)))
        for _ in range(10):
            v = sample_haar(D, rng)
            vk = v
            for _ in range(k - 1):
                vk = np.kron(vk, v)
            assert np.max(np.abs(rec @ vk - vk @ rec)) < 1e-10 * np.max(np.abs(rec))


def test_channel_hermitian_output_for_hermitian_input():
    rng = np.random.default_rng(8)
    a = rng.standard_normal((4, 4))
    a = a + a.T
    co = channel_exact(2, 4, word_functional_from_matrices([a, a]))
    dense = reconstruct_dense(co)
    assert np.max(np.abs(dense - dense.conj().T)) < 1e-10


@pytest.mark.parametrize("k", [1, 2])
def test_channel_exact_matches_clifford_enumeration(k):
    # the 24-element Clifford group is an exact 3-design at D=2, so its
    # enumerated twirl is an independent oracle for the Haar channel
    from ensemble_oracles import channel_monte_carlo
    from kfree.ensembles import clifford_group_1q

    D = 2
    mats = random_mats(k, D, seed=10 + k)
    O = mats[0]
    for m in mats[1:]:
        O = np.kron(O, m)
    oracle = channel_monte_carlo(clifford_group_1q(), k, O)
    rec = reconstruct_dense(channel_exact(k, D, word_functional_from_matrices(mats)))
    assert np.max(np.abs(oracle - rec)) < 1e-10


def _channel_exact_double_loop(k, D, phi, labels):
    """Reference: the Weingarten double loop over S_k x S_k through compose."""
    table = weingarten_table(k, D)
    perms = all_permutations(k)
    traces = {beta: permuted_trace(beta, phi, labels, D) for beta in perms}
    coeffs = {}
    for alpha in perms:
        acc = 0
        for beta in perms:
            wg = table.wg_of_class(compose(inverse(alpha), beta).cycle_type())
            tr = traces[beta]
            acc += wg * tr if isinstance(tr, (int, Fraction)) else complex(wg) * tr
        coeffs[alpha] = acc
    return coeffs


@pytest.mark.parametrize("k,D", [(2, 2), (3, 3), (4, 5)])
def test_channel_exact_bit_identical_to_double_loop(k, D):
    labels = positional_labels(k)
    complex_phi = word_functional_from_matrices(random_mats(k, D, seed=k + D))
    exact_phi = Expectation(lambda w: Fraction(len(w) + 1, 3 + sum(w)), cyclic=True)
    for phi in (complex_phi, exact_phi):
        coeffs = channel_exact(k, D, phi).coeffs
        ref = _channel_exact_double_loop(k, D, phi, labels)
        assert list(coeffs) == list(ref)
        # equal floats, not merely close: same terms summed in the same order
        assert all(coeffs[a] == ref[a] and type(coeffs[a]) is type(ref[a]) for a in ref)


def test_channel_asymptotic_k2_identical():
    phi = Expectation.from_moment_sequence([0.4, 1.3])
    co = channel_asymptotic(2, 10, phi, labels=("A", "A"))
    assert abs(co.coeffs[identity(2)] - 0.4**2) < 1e-12
    swap = Permutation((2, 1))
    assert abs(co.coeffs[swap] - (1.3 - 0.16) / 10) < 1e-12


def test_channel_asymptotic_shared_cumulants_match_kappa_alpha():
    # one cumulant functional serves every alpha; each coefficient must equal the
    # stand-alone kappa_alpha evaluation exactly (the conjugation route is
    # bit-identical to it, below)
    k, D = 4, 7
    phi = word_functional_from_matrices(random_mats(k, 3, seed=4))
    co = channel_asymptotic(k, D, phi)
    for alpha in all_permutations(k):
        assert co.coeffs[alpha] == kappa_alpha_conjugation(alpha, phi) / D ** (k - alpha.num_cycles())


def test_channel_asymptotic_k3_cyclic_coefficient():
    m = [0.2, 1.1, 0.7]
    phi = Expectation.from_moment_sequence(m)
    co = channel_asymptotic(3, 50, phi, labels=("A",) * 3)
    k3 = m[2] - 3 * m[0] * m[1] + 2 * m[0] ** 3
    gamma = full_cycle(3)
    assert abs(co.coeffs[gamma] - k3 / 50**2) < 1e-12


@pytest.mark.parametrize("k", [2, 3])
def test_exact_vs_asymptotic_coefficient_scaling(k):
    rng = np.random.default_rng(7)
    moments = list(rng.standard_normal(2 * k + 2))
    moments[0] = 0.3
    phi = Expectation.from_moment_sequence(moments)
    labels = ("A",) * k
    dims = [16, 32, 64, 128]
    errs = []
    for D in dims:
        ex = channel_exact(k, D, phi, labels=labels)
        asy = channel_asymptotic(k, D, phi, labels=labels)
        rel = max(
            abs((complex(ex.coeffs[a]) - complex(asy.coeffs[a])) / complex(ex.coeffs[a]))
            for a in ex.coeffs
        )
        errs.append(rel)
    slope = np.polyfit(np.log(dims), np.log(errs), 1)[0]
    assert -2.3 <= slope <= -1.7


def test_kappa_alpha_identity_and_cycle():
    phi = Expectation.from_moment_sequence([0.5, 1.2, 0.9, 2.0])
    labels = ("A",) * 4
    kappa_alpha = channel_asymptotic(4, 1, phi, labels).coeffs  # at D = 1 the coefficient is kappa_alpha
    assert abs(kappa_alpha[identity(4)] - 0.5**4) < 1e-12
    k4 = free_cumulant(phi, labels)
    assert abs(kappa_alpha[full_cycle(4)] - k4) < 1e-12


def test_kappa_alpha_conjugation_vs_geodesic_sum():
    rng = np.random.default_rng(12)
    phi = Expectation.normalized_trace({i: rng.standard_normal((6, 6)) for i in range(1, 7)})
    kappa_alpha = channel_asymptotic(6, 1, phi).coeffs  # at D = 1 the coefficient is kappa_alpha
    for alpha in (
        Permutation((3, 5, 1, 6, 2, 4)),
        Permutation((2, 1, 4, 3, 6, 5)),
        Permutation((4, 3, 6, 5, 1, 2)),
        Permutation((6, 4, 5, 1, 3, 2)),
    ):
        v1 = kappa_alpha[alpha]
        v2 = kappa_alpha_geodesic(alpha, phi)
        assert abs(v1 - v2) < 1e-12 * max(1.0, abs(v1))


def test_kappa_alpha_cycle_product_bit_identical_to_conjugation_route():
    # the product over cycle words multiplies the same cumulants in the same
    # order as the canonical conjugate's blockwise kappa_pi, for all of S_k
    for k in range(1, 7):
        phi = word_functional_from_matrices(random_mats(k, 3, seed=20 + k))
        kappa_alpha = channel_asymptotic(k, 1, phi).coeffs  # at D = 1 the coefficient is kappa_alpha
        for alpha in all_permutations(k):
            got, ref = kappa_alpha[alpha], kappa_alpha_conjugation(alpha, phi)
            assert got == ref and type(got) is type(ref)


def test_kappa_alpha_cycle_product_matches_geodesic_oracle():
    for k in range(1, 6):
        phi = word_functional_from_matrices(random_mats(k, 3, seed=30 + k))
        kappa = cumulants(phi)
        for alpha in all_permutations(k):
            got = parts_product(kappa, positional_labels(k), alpha.cycles())
            ref = kappa_alpha_geodesic(alpha, phi)
            assert abs(got - ref) < 1e-12 * max(1.0, abs(ref))


@pytest.mark.parametrize("kind", ["positional", "one", "XY", "XXY"])
def test_label_pattern_classes_match_sorted_rotation_oracle(kind):
    # _label_pattern keys each cycle word by moments._cyclic_key (least
    # rotation by repr); the classes it splits S_k into must be the former
    # rule's, which took the least rotation in tuple order
    for k in range(1, 7):
        labels = {
            "positional": positional_labels(k),
            "one": ("A",) * k,
            "XY": ("X", "Y") * k,
            "XXY": ("X", "X", "Y") * k,
        }[kind][:k]
        ids = tuple(labels.index(x) for x in labels)
        classes, oracle = {}, {}
        for alpha in all_permutations(k):
            classes.setdefault(kfree.channel._label_pattern(alpha, ids), set()).add(alpha)
            oracle.setdefault(label_pattern_sorted_rotations(alpha, ids), set()).add(alpha)
        assert set(map(frozenset, classes.values())) == set(map(frozenset, oracle.values()))


CHANNEL_LABELS = [
    *(("A",) * k for k in range(1, 6)),
    (1, 1, 2, 2),
    (1, 2, 1, 2),
    (1, 1, 1, 2),
    *(positional_labels(k) for k in range(1, 6)),
]


@pytest.mark.parametrize("labels", CHANNEL_LABELS, ids=str)
def test_channel_exact_pattern_sharing_matches_every_row_oracle(labels):
    k = len(labels)
    distinct = list(dict.fromkeys(labels))
    mats = dict(zip(distinct, random_mats(len(distinct), k + 1, seed=k)))
    code = {x: i + 2 for i, x in enumerate(distinct)}
    # tracial by construction: the Expectation hands fn the canonical rotation
    exact_phi = Expectation(lambda w: Fraction(1 + sum(i * code[x] for i, x in enumerate(w, 1)), 2 + len(w)), cyclic=True)
    for D in (k, k + 1):
        complex_phi = Expectation.normalized_trace({x: m[:D, :D] for x, m in mats.items()})
        got, ref = channel_exact(k, D, exact_phi, labels).coeffs, channel_exact_rows(k, D, exact_phi, labels).coeffs
        assert got == ref
        got, ref = channel_exact(k, D, complex_phi, labels).coeffs, channel_exact_rows(k, D, complex_phi, labels).coeffs
        assert list(got) == list(ref)
        scale = max(abs(v) for v in ref.values())
        assert all(abs(got[a] - ref[a]) <= 1e-12 * scale for a in ref)


def _count_calls(monkeypatch, module, name):
    calls = []
    original = getattr(module, name)

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(module, name, counted)
    return calls


def test_channel_asymptotic_one_label_takes_k_cumulants(monkeypatch):
    moments = [Fraction(n, n + 2) for n in range(1, 7)]
    base = Expectation.from_moment_sequence(moments)
    calls = _count_calls(monkeypatch, kfree.moments, "free_cumulant")
    one_label = channel_asymptotic(6, 64, base, ("A",) * 6)
    assert len(calls) == 6
    calls.clear()
    positional = channel_asymptotic(6, 64, Expectation(lambda w: base(("A",) * len(w)), cyclic=True))
    assert len(calls) == 415
    assert one_label.coeffs == positional.coeffs


def test_channel_exact_one_label_sums_one_row_per_cycle_type(monkeypatch):
    base = Expectation.from_moment_sequence([Fraction(n, n + 2) for n in range(1, 6)])
    calls = _count_calls(monkeypatch, kfree.channel, "_row_sum")
    one_label = channel_exact(5, 6, base, ("A",) * 5)
    assert len(calls) == 7
    calls.clear()
    positional = channel_exact(5, 6, Expectation(lambda w: base(("A",) * len(w)), cyclic=True))
    assert len(calls) == 120
    assert one_label.coeffs == positional.coeffs


def test_otoc_k2_matches_mixed_moment_formula():
    pa = Expectation.from_moment_sequence([0.3, 1.1], label="A")
    pb = Expectation.from_moment_sequence([0.7, 1.4], label="B")
    formula = mixed_moment_free(pa, pb, ("A", "A"), ("B", "B"))
    a1, a2, b1, b2 = 0.3, 1.1, 0.7, 1.4
    assert abs(formula - (a2 * b1**2 + b2 * a1**2 - b1**2 * a1**2)) < 1e-12


def test_otoc_traceless_specialization():
    pa = Expectation.from_moment_sequence([0.0, 1.0], label="A")
    pb = Expectation.from_moment_sequence([0.7, 1.4], label="B")
    assert abs(mixed_moment_free(pa, pb, ("A", "A"), ("B", "B")) - 1.0 * 0.49) < 1e-12


def test_otoc_channel_path_approaches_formula():
    pa = Expectation.from_moment_sequence([0.3, 1.1, 0.6, 1.9], label="A")
    pb = Expectation.from_moment_sequence([0.7, 1.4, 0.2, 2.2], label="B")
    formula = complex(mixed_moment_free(pa, pb, ("A", "A"), ("B", "B")))
    gaps = []
    for D in (16, 64, 256):
        channel = otoc_haar_channel(channel_exact(2, D, pa, ("A", "A")), pb, ("B", "B"))
        gaps.append(abs(complex(channel) - formula))
    assert gaps[0] > gaps[1] > gaps[2]
    assert gaps[2] < 1e-3


def test_otoc_geodesic_suppression_k3():
    # non-geodesic permutations contribute to the exact OTOC contraction at
    # relative order 1/D^2
    pa = Expectation.from_moment_sequence([0.4, 1.2, 0.8, 2.0, 1.1, 2.4], label="A")
    pb = Expectation.from_moment_sequence([0.6, 1.5, 0.3, 1.8, 0.9, 2.1], label="B")
    k = 3
    gamma = full_cycle(k)
    ratios = []
    for D in (8, 32):
        co = channel_exact(k, D, pa, labels=("A",) * k)
        contributions = {}
        for alpha, c in co.coeffs.items():
            grouping = compose(inverse(alpha), gamma)
            term = complex(c) * D ** grouping.num_cycles() / D
            for cyc in grouping.cycles():
                term *= complex(pb(("B",) * len(cyc)))
            contributions[alpha] = abs(term)
        geo = [v for a, v in contributions.items() if on_geodesic(a, gamma)]
        non = [v for a, v in contributions.items() if not on_geodesic(a, gamma)]
        ratios.append(max(non) / max(geo))
    # suppression strengthens like 1/D^2
    assert ratios[1] < ratios[0] / 8
    assert ratios[1] < 1.0 / 32**2 * 20


def test_haar_word_average_exact_special_cases():
    rng = np.random.default_rng(4)
    D = 5
    a = rng.standard_normal((D, D))
    b = rng.standard_normal((D, D))
    pa = Expectation.normalized_trace({"A": a})
    pb = Expectation.normalized_trace({"B": b})
    # <A^U> = <A>, <A^U A^U> = <A^2>, <A^U B> = <A><B>
    assert abs(haar_word_average_exact(pa, pb, ("A",), D) - np.trace(a) / D) < 1e-12
    assert abs(haar_word_average_exact(pa, pb, ("A", "A"), D) - np.trace(a @ a) / D) < 1e-10
    expected = np.trace(a) / D * np.trace(b) / D
    assert abs(haar_word_average_exact(pa, pb, ("A", "B"), D) - expected) < 1e-10
    assert abs(haar_word_average_exact(pa, pb, ("B", "B"), D) - np.trace(b @ b) / D) < 1e-12


def test_duality_blocks_drive_b_grouping():
    # for every geodesic alpha the B-moment grouping in the contraction is
    # the Kreweras complement of alpha's partition
    for k in range(2, 6):
        gamma = full_cycle(k)
        for beta in geodesic_set(gamma):
            from kfree.permutations import permutation_to_nc

            grouping = compose(inverse(beta), gamma)
            assert grouping.orbit_partition() == kreweras_complement(permutation_to_nc(beta))
