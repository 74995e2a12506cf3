"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion
lines.  Stated tolerances are asserted verbatim; stated runtimes are
reported (they were calibrated for reference hardware, so they are printed
with each line rather than asserted).  Criterion 10's slope band is a
documented spec defect (see the decisions ledger) and is marked strict-xfail
with the honest computation left in place.
"""

import math
import time
from contextlib import contextmanager
from fractions import Fraction

import numpy as np
import pytest

from kfree.channel import (
    channel_asymptotic,
    channel_exact,
    word_functional_from_matrices,
)
from kfree.ensembles import (
    EnsembleExpectation,
    HaarEnsemble,
    HamiltonianEnsemble,
    channel_distance,
    clifford_group_1q,
    design_check,
    k_freeness_test,
    pauli_group,
    sample_haar,
    spawn_rngs,
)
from kfree.eth import (
    TimeWindow,
    alternating_word,
    averaged_free_cumulant,
    distinct_index_cumulant,
    factorization_gap,
    goe_matrix,
    goe_model,
    normalize_observable,
    thermal_free_cumulant,
    thermal_state,
)
from kfree.moments import Expectation, free_cumulant, mixed_moment_free
from kfree.partitions import (
    catalan,
    enumerate_nc,
    is_noncrossing,
    kreweras_complement,
    leq,
    moebius_nc,
)
from kfree.permutations import Permutation, full_cycle, geodesic_set, identity, permutation_to_nc
from kfree.weingarten import weingarten_table

from channel_oracles import reconstruct_dense
from eth_oracles import (
    appendix_b_crossing_term,
    distinct_index_brute,
    iter_set_partitions,
    phase_average_delta_structure,
)
from ratlinalg_oracles import exact_matmul


@contextmanager
def criterion(number, description):
    start = time.time()
    try:
        yield
    except BaseException:
        print(f"[FAIL] criterion {number}: {description} ({time.time() - start:.1f}s)")
        raise
    print(f"[PASS] criterion {number}: {description} ({time.time() - start:.1f}s)")


def test_criterion_1_weingarten_golden():
    with criterion(1, "Weingarten golden tables and exact inversion"):
        # k=1 and k=2 displays, verbatim, for D in 3..8
        for D in range(3, 9):
            assert [wg for _, wg in weingarten_table(1, D).rows()] == [[Fraction(1, D)]]
            n2 = D * (D**2 - 1)
            assert [wg for _, wg in weingarten_table(2, D).rows()] == [
                [Fraction(D, n2), Fraction(-1, n2)],
                [Fraction(-1, n2), Fraction(D, n2)],
            ]
            # k=3 class pattern: off-diagonal classes as printed; diagonal is
            # the exact inverse's (D - 2/D)/N (printed "(1-2/D)" is a typo
            # that breaks Wg.Q = I; see the decisions ledger)
            t3 = weingarten_table(3, D)
            n3 = (D**2 - 1) * (D**2 - 4)
            assert t3.wg_of_class((2, 1)) == Fraction(-1, n3)
            assert t3.wg_of_class((3,)) == Fraction(2, D) / n3
            assert t3.wg_of_class((1, 1, 1)) == (Fraction(D) - Fraction(2, D)) / n3
        # Wg . Q = I exactly for k <= 5, D in {k..12}; dense product for
        # k <= 3, bi-invariant convolution row (a complete proof) beyond
        for k in range(1, 6):
            for D in range(k, 13):
                table = weingarten_table(k, D)  # constructor verifies the identity
                if k <= 3:
                    gram, wg = zip(*table.rows())
                    prod = exact_matmul(wg, gram)
                    m = len(prod)
                    assert all(prod[i][j] == (1 if i == j else 0) for i in range(m) for j in range(m))


def test_criterion_2_cumulant_formulas():
    with criterion(2, "kappa3/kappa4 closed forms and semicircle"):
        rng = np.random.default_rng(2024)
        for _ in range(10):
            m = rng.standard_normal(4)
            phi = Expectation.from_moment_sequence(list(m))
            k3 = free_cumulant(phi, ("A",) * 3)
            k4 = free_cumulant(phi, ("A",) * 4)
            assert abs(k3 - (m[2] + 2 * m[0] ** 3 - 3 * m[0] * m[1])) < 1e-12
            expected = m[3] - 2 * m[1] ** 2 - 4 * m[0] * m[2] + 10 * m[0] ** 2 * m[1] - 5 * m[0] ** 4
            assert abs(k4 - expected) < 1e-12
        semicircle = Expectation.from_moment_sequence([0, 1, 0, 2, 0, 5])
        for n in (3, 4, 5, 6):
            assert abs(free_cumulant(semicircle, ("A",) * n)) < 1e-12


def test_criterion_3_channel_consistency():
    with criterion(3, "exact vs asymptotic channel, golden qubit values, MC"):
        rng = np.random.default_rng(7)
        moments = list(rng.standard_normal(8))
        moments[0] = 0.3
        phi = Expectation.from_moment_sequence(moments)
        dims = [16, 32, 64, 128]
        for k in (2, 3):
            labels = ("A",) * k
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
        # k=2, D=2 traceless qubit: exactly (-1/3, +2/3)
        phi2 = Expectation(lambda w: Fraction(0) if len(w) == 1 else Fraction(1), cyclic=True)
        co = channel_exact(2, 2, phi2, labels=(1, 2))
        assert co.coeffs[identity(2)] == Fraction(-1, 3)
        assert co.coeffs[Permutation((2, 1))] == Fraction(2, 3)
        # dense Monte Carlo cross-check to 3 standard errors
        rng = np.random.default_rng(15)
        a = rng.standard_normal((2, 2))
        a = a + a.T
        a = a - np.trace(a) / 2 * np.eye(2)
        a = a / math.sqrt(np.trace(a @ a).real / 2)
        O = np.kron(a, a)
        n, batches = 40000, 20
        samples = np.empty((n, 4, 4), dtype=complex)
        for i, r in enumerate(spawn_rngs(123, n)):
            u = sample_haar(2, r)
            uk = np.kron(u, u)
            samples[i] = uk.conj().T @ O @ uk
        mean = samples.mean(axis=0)
        batch_means = np.array([b.mean(axis=0) for b in np.array_split(samples, batches)])
        se = np.linalg.norm(np.std(batch_means, axis=0, ddof=1)) / math.sqrt(batches)
        target = reconstruct_dense(channel_exact(2, 2, word_functional_from_matrices([a, a])))
        assert np.linalg.norm(mean - target) <= 3 * se


def test_criterion_4_otoc_factorization_haar():
    with criterion(4, "Haar OTOC: MC at D=256 vs formula; 8-OTOC term structure"):
        D, n, batches = 256, 10000, 20
        rng = np.random.default_rng(91)
        A = normalize_observable(goe_matrix(D, rng)) + 0.4 * np.eye(D)
        B = normalize_observable(goe_matrix(D, rng)) + 0.7 * np.eye(D)
        pa = Expectation.normalized_trace({"A": A})
        pb = Expectation.normalized_trace({"B": B})
        formula = complex(mixed_moment_free(pa, pb, ("A", "A"), ("B", "B")))
        word = ("A", "B", "A", "B")
        mc = EnsembleExpectation(HaarEnsemble(D), {"A": A, "B": B}, {"A"}, n_samples=n, seed=2718, n_batches=batches)
        mc.evaluate_words([word])
        mean = complex(mc.functional()(word))
        batch_means = np.array([complex(mc.functional(batch=b)(word)) for b in range(batches)])
        se = abs(np.std(batch_means.real, ddof=1) + 1j * np.std(batch_means.imag, ddof=1)) / math.sqrt(batches)
        assert abs(mean - formula) <= 3 * se

        # symbolic 8-OTOC term set over NC(4) with the dual multiplicities
        terms = [(pi.blocks, kreweras_complement(pi).blocks) for pi in enumerate_nc(4)]
        assert len(terms) == 14
        from collections import Counter

        classes = Counter(
            (
                tuple(sorted((len(b) for b in a_blocks), reverse=True)),
                tuple(sorted((len(b) for b in b_blocks), reverse=True)),
            )
            for a_blocks, b_blocks in terms
        )
        assert classes == {
            ((1, 1, 1, 1), (4,)): 1,
            ((2, 1, 1), (3, 1)): 4,
            ((2, 1, 1), (2, 2)): 2,
            ((2, 2), (2, 1, 1)): 2,
            ((3, 1), (2, 1, 1)): 4,
            ((4,), (1, 1, 1, 1)): 1,
        }
        term_set = set(terms)
        assert (((1, 2), (3, 4)), ((1,), (2, 4), (3,))) in term_set
        assert (((1, 4), (2, 3)), ((1, 3), (2,), (4,))) in term_set


def test_criterion_5_k_freeness_under_haar():
    with criterion(5, "kappa4(A^U,B,A^U,B) vanishes under Haar at D=256"):
        D = 256
        A = normalize_observable(goe_matrix(D, np.random.default_rng(1)))
        B = normalize_observable(goe_matrix(D, np.random.default_rng(2)))
        est = k_freeness_test(HaarEnsemble(D), A, B, k=2, n_samples=1000, seed=42)
        assert abs(est.value) <= max(5.0 / D, 4 * est.std_error)


def test_criterion_6_design_checks():
    with criterion(6, "Pauli 1-design / not 2-design; Clifford 3-design"):
        assert design_check(pauli_group(), 1, tolerance=1e-10).passed
        pauli2 = design_check(pauli_group(), 2, tolerance=1e-10)
        assert not pauli2.passed
        assert pauli2.max_deviation > 0.1
        cliff = design_check(clifford_group_1q(), 3, tolerance=1e-10)
        assert cliff.passed
        assert cliff.max_deviation <= 1e-10


def test_criterion_7_channel_distance_scaling():
    with criterion(7, "time-window ensemble distance ~ sqrt(k!) D^(k/2)"):
        for k in (1, 2):
            dims = [4, 8, 16]
            dists = []
            for D in dims:
                model = goe_model(D, seed=D + k)
                spec = HamiltonianEnsemble(model, t_max=5000.0)
                d = channel_distance(spec, k)
                dists.append(d)
                predicted = math.sqrt(math.factorial(k)) * D ** (k / 2)
                assert predicted / 2 <= d <= predicted * 2
            slope = np.polyfit(np.log(dims), np.log(dists), 1)[0]
            assert abs(slope - k / 2) <= 0.3


def test_criterion_8_eth_long_time_freeness():
    with criterion(8, "strict-averaged thermal kappa4 at D=512; 1/t_max window convergence"):
        model = goe_model(512, seed=31)
        word = (("A", True), ("B", False), ("A", True), ("B", False))
        for beta in (0.0, 1.0 / model.spectral_width()):
            state = thermal_state(model, beta)
            k4bar = averaged_free_cumulant(model, state, word, TimeWindow("infinite"))
            assert abs(k4bar) <= 10.0 / state.effective_dim()
        # finite window converges to the strict value at least as fast as
        # 1/t_max -- the kernel envelope is 1/(t_max Delta); smooth spectral
        # densities can beat it.  Exercised at D=64, where the window's
        # D^4 amplitudes (contracted against telescoped per-slot phase
        # vectors, the few near resonance weighted directly) are cheap to
        # materialize; the bound above is the D=512 statement.
        small = goe_model(64, seed=11)
        s0 = thermal_state(small, 0.3 / small.spectral_width())
        strict = averaged_free_cumulant(small, s0, word, TimeWindow("infinite"))
        t_values = (40.0, 80.0, 160.0, 320.0, 640.0, 1280.0)
        errs = [
            abs(averaged_free_cumulant(small, s0, word, TimeWindow("finite", t)) - strict)
            for t in t_values
        ]
        slope = np.polyfit(np.log(t_values), np.log(errs), 1)[0]
        assert slope <= -0.7
        assert errs[-1] <= errs[0] * (t_values[0] / t_values[-1]) * 3


def test_criterion_9_distinct_index_identity():
    with criterion(9, "distinct-index inclusion-exclusion vs brute force and Moebius"):
        for D, t in ((48, 0.0), (60, 0.7)):
            model = goe_model(D, seed=D)
            state = thermal_state(model, 0.5)
            v_einsum = distinct_index_cumulant(model, state, "A", "B", k=2, t=t)
            v_brute = distinct_index_brute(model, state, "A", "B", k=2, t=t)
            assert abs(v_einsum - v_brute) < 1e-10
        model = goe_model(512, seed=2)
        state = thermal_state(model, 0.0)
        k4 = thermal_free_cumulant(model, state, alternating_word("A", "B", 2, 0.0))
        ds = distinct_index_cumulant(model, state, "A", "B", k=2, t=0.0)
        assert abs(k4 - ds) <= 10.0 / model.dim


def test_criterion_10_appendix_b_delta_structure():
    with criterion(10, "window factorization: delta structure and crossing term"):
        model = goe_model(16, seed=5)
        assert phase_average_delta_structure(model) == 0.0
        big = goe_model(128, seed=21)
        state = thermal_state(big, 0.0)
        joint, product, gap = factorization_gap(big, state, "A", "B", TimeWindow("infinite"))
        assert abs(gap - appendix_b_crossing_term(big, state, "A", "B")) < 1e-14


@pytest.mark.xfail(
    strict=True,
    reason="spec defect: the crossing term is (1 - 1/D_eff)/D^2 * E|A|^2|B|^2 "
    "for GOE observables (measured slope ~ -2), so the stated -1 +- 0.3 band "
    "cannot be met honestly; the printed 1/D is a loose bound. See ledger.",
)
def test_criterion_10_gap_slope_as_stated():
    with criterion("10 (slope band)", "factorization gap slope -1 +- 0.3 as stated"):
        dims = (64, 128, 256, 512)
        gaps = []
        for D in dims:
            model = goe_model(D, seed=21)
            state = thermal_state(model, 0.0)
            _, _, gap = factorization_gap(model, state, "A", "A", TimeWindow("infinite"))
            gaps.append(abs(gap))
        slope = np.polyfit(np.log(dims), np.log(gaps), 1)[0]
        assert abs(slope - (-1.0)) <= 0.3


def test_criterion_11_combinatorial_suites():
    with criterion(11, "Catalan counts, Moebius inversion, Kreweras, geodesics"):
        for n in range(1, 9):
            assert len(enumerate_nc(n)) == catalan(n)
        for n in range(1, 7):
            brute = {p for p in iter_set_partitions(n) if is_noncrossing(p)}
            assert set(enumerate_nc(n)) == brute
            parts = enumerate_nc(n)
            for sigma in parts:
                for pi in parts:
                    if leq(sigma, pi):
                        total = sum(
                            moebius_nc(sigma, tau)
                            for tau in parts
                            if leq(sigma, tau) and leq(tau, pi)
                        )
                        assert total == (1 if sigma == pi else 0)
            images = [kreweras_complement(p) for p in parts]
            assert len(set(images)) == len(images)
            for p, img in zip(parts, images):
                assert len(p.blocks) + len(img.blocks) == n + 1
        for k in range(2, 7):
            geo = geodesic_set(full_cycle(k))
            assert len(geo) == catalan(k)
            assert {permutation_to_nc(b) for b in geo} == set(enumerate_nc(k))
