"""Exact diagonalization: thermal cumulants, distinct-index sums, time
averages, factorizations, free-k times, perturbed-basis ensembles."""

import gc
import itertools
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import kfree
from kfree import eth
from kfree.eth import (
    DeutschSpec,
    SlotChains,
    SpectralModel,
    TimeWindow,
    alternating_word,
    averaged_free_cumulant,
    build_model,
    chains_from_word,
    deutsch_ensemble,
    distinct_index_cumulant,
    factorization_gap,
    free_k_time,
    goe_matrix,
    goe_model,
    hamiltonian_energies,
    heisenberg,
    ising_hamiltonian,
    ising_model,
    level_spacing_ratio,
    merged_chain_sum,
    normalize_observable,
    resonance_report,
    thermal_cumulant_scan,
    thermal_free_cumulant,
    thermal_state,
    time_average,
    _chain_einsum,
    _balanced_weight,
    _hermitian_deviation,
    _distinct_patterns,
    _restricted_coeffs,
    _slot_amplitudes,
    _slot_coeffs,
)
from kfree.moments import Expectation, free_cumulant
from kfree.partitions import Partition

from eth_oracles import (
    SpectralSum,
    appendix_b_crossing_term,
    chain_amplitudes_einsum,
    classical_cumulant,
    coincidence_pattern_sum,
    distinct_index_bell,
    distinct_index_brute,
    ising_kronecker,
    iter_set_partitions,
    joint_spectral_sum,
    merged_chain_sum_loops,
    otoc_long_time_factorization,
    partition_lattice_moebius,
    phase_average_delta_structure,
    positional_averaged_free_cumulant,
    positional_thermal_free_cumulant,
    restricted_coeffs_bell,
    strict_average_coeffs,
    thermal_word_moment,
    window_average_total,
    word_spectral_sum,
)

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "scripts"))

from freeness_decay_scan import bimodal_observable  # noqa: E402


@pytest.fixture(scope="module")
def small_model():
    return goe_model(48, seed=11)


@pytest.fixture(scope="module")
def small_state(small_model):
    return thermal_state(small_model, 0.4)


def test_build_model_diagonal_hamiltonian():
    h = np.diag([0.0, 1.0, 2.5])
    model = build_model(h, {"n": np.diag([1.0, 2.0, 3.0])})
    assert np.allclose(model.basis, np.eye(3))
    assert np.allclose(model.observables["n"], np.diag([1.0, 2.0, 3.0]))


def test_build_model_rejects_non_hermitian():
    with pytest.raises(ValueError):
        build_model(np.array([[0.0, 1.0], [0.0, 0.0]]))


def _close(got, want):
    assert abs(got - want) <= 1e-12 * abs(want), (got, want)


def test_real_model_matches_complex_typed_oracle():
    # a complex-typed real symmetric H and observables, as an operator file
    # loads them, take the real path; the oracle is the same model with its
    # basis and observables cast back to complex
    D = 24
    rng = np.random.default_rng(5)
    h = goe_matrix(D, rng).astype(complex)
    obs = {name: normalize_observable(goe_matrix(D, rng)).astype(complex) for name in ("A", "B")}
    model = build_model(h, obs)
    assert model.basis.dtype == np.float64
    assert all(m.dtype == np.float64 for m in model.observables.values())
    oracle = SpectralModel(
        model.energies, model.basis.astype(complex), {n: m.astype(complex) for n, m in model.observables.items()}
    )
    assert oracle.basis.dtype == np.complex128
    state, oracle_state = thermal_state(model, 0.3), thermal_state(oracle, 0.3)

    def same(fn, *args, **kwargs):
        got, want = fn(model, state, *args, **kwargs), fn(oracle, oracle_state, *args, **kwargs)
        for g, w in zip(np.atleast_1d(got), np.atleast_1d(want)):
            _close(g, w)

    def timed(k):
        return tuple(x for _ in range(k) for x in (("A", True), ("B", False)))

    for k in (2, 3):
        same(thermal_free_cumulant, alternating_word("A", "B", k, 0.7))
        same(distinct_index_cumulant, "A", "B", k=k)
        same(averaged_free_cumulant, timed(k), TimeWindow("infinite"))
    same(averaged_free_cumulant, timed(2), TimeWindow("finite", 7.0))
    for window in (TimeWindow("infinite"), TimeWindow("finite", 7.0)):
        same(factorization_gap, "A", "B", window)
    spec = DeutschSpec(perturbation=goe_matrix(D, rng), strength=0.25, lambdas=(1.0, 2.0), beta=0.3)
    got, want = deutsch_ensemble(model, spec), deutsch_ensemble(oracle, spec)
    assert got.mixed_kappa4.keys() == want.mixed_kappa4.keys()
    for key, value in want.mixed_kappa4.items():
        _close(got.mixed_kappa4[key], value)


def test_complex_hermitian_model_keeps_complex_eigh():
    D = 24
    rng = np.random.default_rng(6)
    g = rng.standard_normal((D, D))
    h = goe_matrix(D, rng) + 1e-3j * (g - g.T) / 2.0
    model = build_model(h, {"A": np.diag(np.arange(D, dtype=float))})
    assert model.basis.dtype == np.complex128
    assert model.observables["A"].dtype == np.complex128
    assert np.max(np.abs(model.energies - np.linalg.eigvalsh(h))) <= 1e-12 * model.spectral_width()
    assert np.max(np.abs(model.basis @ np.diag(model.energies) @ model.basis.conj().T - h)) < 1e-12


@pytest.mark.parametrize("panel_elems", [None, 1, 40])
def test_hermitian_deviation_matches_full_difference(monkeypatch, panel_elems):
    # row panels of 1 row and of 40 // 12 = 3 rows (the last one shorter)
    # give the full max|H - H^dagger| exactly, for real and complex input
    if panel_elems is not None:
        monkeypatch.setattr(eth, "_PANEL_ELEMS", panel_elems)
    rng = np.random.default_rng(4)
    g = rng.standard_normal((13, 13)) + 1j * rng.standard_normal((13, 13))
    for h in (g.real, g, g + g.conj().T, (g + g.conj().T).real + 0j):
        h = h[:12, :12]
        assert _hermitian_deviation(eth._real_if_zero_imag(h)) == float(np.max(np.abs(h - h.conj().T)))


def test_hamiltonian_energies_match_eigh_and_keep_the_checks():
    rng = np.random.default_rng(8)
    g = rng.standard_normal((40, 40))
    complex_h = goe_matrix(40, rng) + 0.3j * (g - g.T)
    for h in (goe_matrix(40, rng), complex_h, complex_h.real + 0j, ising_hamiltonian(6)):
        want = np.linalg.eigh(h)[0]
        got = hamiltonian_energies(h)
        assert np.max(np.abs(got - want)) <= 1e-12 * (want[-1] - want[0])
    skew = np.eye(3)
    skew[0, 1] = 1e-9
    nan = np.eye(3)
    nan[1, 1] = np.nan
    # the cap is tested on the row count first, so a 4097 x 1 array reaches it
    for h, message in ((skew, "Hermitian"), (nan, "non-finite"), (np.zeros((4097, 1)), "exceeds cap")):
        with pytest.raises(ValueError, match=message):
            hamiltonian_energies(h)
        with pytest.raises(ValueError, match=message):
            build_model(h)


def test_goe_level_spacing_ratio():
    model = goe_model(512, seed=0)
    assert abs(level_spacing_ratio(model.energies) - 0.5307) < 0.03


def test_level_spacing_ratio_leaves_out_pairs_of_zero_gaps():
    # central gap pairs (1, 0), (0, 0), (0, 1), (1, 1): the (0, 0) pair has no ratio
    assert level_spacing_ratio(np.array([0.0, 1.0, 2.0, 2.0, 2.0, 3.0, 4.0, 5.0])) == pytest.approx(1 / 3, rel=1e-15)
    assert level_spacing_ratio(np.array([0.0, 0.0, 0.0, 1.0, 2.0, 3.0, 3.0, 3.0])) == 0.5
    assert level_spacing_ratio(np.zeros(6)) is None
    assert level_spacing_ratio(np.array([1.0, 2.0])) is None


@pytest.mark.parametrize("L", range(2, 9))
def test_ising_model_matches_kronecker_oracle(monkeypatch, L):
    # index arithmetic fills the entries the Kronecker products would, with
    # each diagonal entry summed in the same term order: bit for bit
    built = {}
    monkeypatch.setattr(eth, "build_model", lambda h, obs, provenance: built.update(h=h, obs=obs))
    ising_model(L)
    h, obs = ising_kronecker(L)
    assert built["h"].dtype == h.dtype and np.array_equal(built["h"], h)
    assert set(built["obs"]) == set(obs)
    for name, m in obs.items():
        assert built["obs"][name].dtype == m.dtype and np.array_equal(built["obs"][name], m)


def test_normalize_observable_refuses_multiples_of_the_identity():
    # no traceless part to scale: every 1 x 1 operator, and c I up to rounding
    for m in (np.eye(1), np.array([[2.0 + 0j]]), 0.1 * np.eye(5), np.zeros((3, 3))):
        with pytest.raises(ValueError, match="no traceless part"):
            normalize_observable(m)


def test_ising_model_builds():
    model = ising_model(10)
    assert model.dim == 1024
    assert set(model.observables) == {"sz_mid", "sx_mid"}
    for name in ("sz_mid", "sx_mid"):
        obs = model.observables[name]
        assert np.max(np.abs(obs - obs.conj().T)) < 1e-10
    # sigma_z and sigma_x at the same site anticommute; rotation to the
    # eigenbasis preserves that
    sz, sx = model.observables["sz_mid"], model.observables["sx_mid"]
    assert np.max(np.abs(sz @ sx + sx @ sz)) < 1e-8
    # chaotic point, but reflection symmetry mixes two GOE sectors: resolve
    # the even-parity block before reading level statistics
    L = 10
    D = 2**L
    perm = np.zeros((D, D))
    for s in range(D):
        bits = [(s >> i) & 1 for i in range(L)]
        r = sum(b << (L - 1 - i) for i, b in enumerate(bits))
        perm[r, s] = 1.0
    H = model.basis @ np.diag(model.energies) @ model.basis.conj().T
    evals, evecs = np.linalg.eigh(perm)
    even = evecs[:, evals > 0]
    e = np.linalg.eigvalsh(even.T @ H @ even)
    gaps = np.diff(e)
    lo, hi = len(gaps) // 4, 3 * len(gaps) // 4
    s1, s2 = gaps[lo:hi], gaps[lo + 1 : hi + 1]
    ratio = float(np.mean(np.minimum(s1, s2) / np.maximum(s1, s2)))
    assert abs(ratio - 0.5307) < 0.04


def test_resonance_report(small_model):
    rep = resonance_report(small_model.energies, seed=1)
    assert rep["near_resonances"] == 0


def test_thermal_state_weights(small_model):
    state = thermal_state(small_model, 0.7)
    assert abs(np.sum(state.weights) - 1.0) < 1e-12
    assert state.effective_dim() <= small_model.dim


def test_thermal_word_moment_against_double_sum(small_model):
    state = thermal_state(small_model, 0.7)
    A = small_model.observables["A"]
    t = 0.9
    m = thermal_word_moment(small_model, state, ((A, t), (A, 0.0)))
    e, w = small_model.energies, state.weights
    D = small_model.dim
    oracle = sum(
        w[i] * abs(A[i, j]) ** 2 * np.exp(1j * (e[i] - e[j]) * t) for i in range(D) for j in range(D)
    )
    assert abs(m - oracle) < 1e-10


def test_thermal_moment_time_independent_single_letter(small_model, small_state):
    a = thermal_word_moment(small_model, small_state, (("A", 0.0),))
    b = thermal_word_moment(small_model, small_state, (("A", 2.3),))
    assert abs(a - b) < 1e-12


def test_beta_zero_moment_is_normalized_trace(small_model):
    s0 = thermal_state(small_model, 0.0)
    A = small_model.observables["A"]
    m = thermal_word_moment(small_model, s0, ((A, 0.0), (A, 0.0)))
    assert abs(m - np.trace(A @ A) / small_model.dim) < 1e-12


def test_cyclic_rotation_invariance_at_beta_zero(small_model):
    s0 = thermal_state(small_model, 0.0)
    word = (("A", 0.5), ("B", 0.0), ("A", 1.1))
    rotated = (("A", 1.1), ("A", 0.5), ("B", 0.0))
    a = thermal_word_moment(small_model, s0, word)
    b = thermal_word_moment(small_model, s0, rotated)
    assert abs(a - b) < 1e-10


def test_time_translation_invariance_any_beta(small_model, small_state):
    word = (("A", 1.3), ("B", 0.4), ("A", 0.0))
    shifted = (("A", 1.9), ("B", 1.0), ("A", 0.6))
    a = thermal_word_moment(small_model, small_state, word)
    b = thermal_word_moment(small_model, small_state, shifted)
    assert abs(a - b) < 1e-10


def test_thermal_cumulants_low_orders(small_model, small_state):
    A = small_model.observables["A"]
    k1 = thermal_free_cumulant(small_model, small_state, ((A, 0.0),))
    assert abs(k1 - thermal_word_moment(small_model, small_state, ((A, 0.0),))) < 1e-12
    t = 0.8
    k2 = thermal_free_cumulant(small_model, small_state, ((A, t), (A, 0.0)))
    expected = thermal_word_moment(small_model, small_state, ((A, t), (A, 0.0))) - k1**2
    assert abs(k2 - expected) < 1e-12


def _chained_letters_functional(state, letters):
    """Reference: multiply the whole positional sub-word, then weight its diagonal."""

    def fn(positions):
        prod = letters[positions[0]]
        for p in positions[1:]:
            prod = prod @ letters[p]
        return complex(np.dot(state.weights, np.diagonal(prod)))

    return Expectation(fn)


@pytest.mark.parametrize("k", [1, 2, 3])
def test_thermal_cumulant_matches_chained_products(small_model, small_state, k):
    for t in (0.0, 0.7, 3.1):
        word = alternating_word("A", "B", k, t)
        letters = [heisenberg(small_model, obs, s) for obs, s in word]
        phi = _chained_letters_functional(small_state, letters)
        positions = tuple(range(len(letters)))
        want = complex(free_cumulant(phi, positions))
        got = thermal_free_cumulant(small_model, small_state, word)
        assert abs(got - want) <= 1e-12 * max(abs(want), 1.0)
        moment = thermal_word_moment(small_model, small_state, word)
        assert abs(moment - phi(positions)) <= 1e-12 * max(abs(phi(positions)), 1.0)


@pytest.mark.parametrize("k", [2, 3])
def test_thermal_cumulant_value_labels_match_positional_oracle(small_model, small_state, k):
    for t in (0.0, 0.7, 3.1):
        word = alternating_word("A", "B", k, t)
        want = positional_thermal_free_cumulant(small_model, small_state, word)
        got = thermal_free_cumulant(small_model, small_state, word)
        assert abs(got - want) <= 1e-14 * abs(want)


@pytest.mark.parametrize("window", [TimeWindow("infinite"), TimeWindow("finite", 7.0)], ids=["infinite", "finite"])
def test_averaged_cumulant_averages_each_distinct_subword_once(monkeypatch, window):
    """A(t) B A(t) B has 11 distinct sub-words in NC(4) blocks (15 positional
    ones), and the value is the positional one bit for bit: equal sub-words
    are the same time average."""
    model = goe_model(12, seed=4)
    state = thermal_state(model, 0.3 / model.spectral_width())
    word = (("A", True), ("B", False), ("A", True), ("B", False))
    want = positional_averaged_free_cumulant(model, state, word, window)
    calls = []

    def counting_time_average(*args):
        calls.append(args[2])
        return time_average(*args)

    monkeypatch.setattr(eth, "time_average", counting_time_average)
    got = averaged_free_cumulant(model, state, word, window)
    assert len(calls) == 11
    assert got == want


def test_value_labels_match_arrays_by_identity():
    a = np.eye(3)
    assert eth._value_labels(((a, 0.0), ("B", 0.0), (a, 0.0), ("B", 0.0))) == (0, 1, 0, 1)
    assert eth._value_labels(((a, 0.0), (a.copy(), 0.0), (a, 0.5), ("B", 0.0), ("B", 0.5))) == (0, 1, 2, 3, 4)
    assert eth._value_labels((("A", True), ("A", False), ("A", True))) == (0, 1, 0)


def test_deutsch_same_lambda_letters_share_one_label(monkeypatch):
    """At lambda_1 = lambda_2 the four letters are one rotated array, so one
    Heisenberg matrix serves them; lambda_1 != lambda_2 needs two."""
    D = 24
    model = goe_model(D, seed=8)
    rng = np.random.default_rng(3)
    spec = DeutschSpec(perturbation=goe_matrix(D, rng), strength=4.0 / math.sqrt(D), lambdas=(1.0, 2.0))
    calls = []

    def counting_heisenberg(*args):
        calls.append(args[2])
        return heisenberg(*args)

    monkeypatch.setattr(eth, "heisenberg", counting_heisenberg)
    report = deutsch_ensemble(model, spec)
    assert len(calls) == 1 + 2 + 1
    state = thermal_state(model, 0.0)
    for (l1, l2), got in report.mixed_kappa4.items():
        a1, a2 = report.rotated[l1], report.rotated[l2]
        want = positional_thermal_free_cumulant(model, state, ((a1, 0.0), (a2, 0.0), (a1, 0.0), (a2, 0.0)))
        assert abs(got - want) <= 1e-14 * abs(want)


def test_empty_words_and_k0():
    model = goe_model(6, seed=1)
    state = thermal_state(model, 0.2)
    for window in (TimeWindow("infinite"), TimeWindow("finite", 3.0)):
        assert time_average(model, state, (), window) == 1
        with pytest.raises(ValueError, match="empty word"):
            averaged_free_cumulant(model, state, (), window)
    with pytest.raises(ValueError, match="empty word"):
        thermal_free_cumulant(model, state, ())
    with pytest.raises(ValueError, match=r"k >= 1"):
        distinct_index_cumulant(model, state, "A", "B", k=0)


def test_distinct_index_einsum_equals_brute(small_model):
    state = thermal_state(small_model, 0.5)
    for t in (0.0, 0.8):
        v1 = distinct_index_cumulant(small_model, state, "A", "B", k=2, t=t)
        v2 = distinct_index_brute(small_model, state, "A", "B", k=2, t=t)
        assert abs(v1 - v2) < 1e-10


def test_distinct_index_generic_brute_k3():
    model = goe_model(8, seed=2)
    state = thermal_state(model, 0.3)
    v1 = distinct_index_cumulant(model, state, "A", "B", k=3, t=0.2)
    v2 = distinct_index_brute(model, state, "A", "B", k=3, t=0.2)
    assert abs(v1 - v2) < 1e-10


@pytest.mark.parametrize("m", range(1, 8))
def test_distinct_patterns_are_the_merged_sums_that_survive_zeroed_diagonals(m):
    # the patterns kept are exactly those whose merged sum survives letters
    # with zeroed diagonals (D = m levels colour any quotient of the m-cycle),
    # each with the lattice Moebius function mu(0, Q)
    rng = np.random.default_rng(m)
    letters = [rng.standard_normal((m, m)) for _ in range(m)]
    for x in letters:
        np.fill_diagonal(x, 0)
    chains = SlotChains([letters], [np.ones(m)], (0,) * m)
    zero = Partition.singletons(m)
    expected = tuple(
        (q, partition_lattice_moebius(zero, q)) for q in iter_set_partitions(m) if merged_chain_sum(chains, q) != 0
    )
    assert _distinct_patterns(m) == expected
    assert len(expected) == (0, 1, 1, 4, 11, 41, 162)[m - 1]


def _complex_model(D, seed):
    """A model whose Hamiltonian and observables have non-zero imaginary parts."""
    rng = np.random.default_rng(seed)

    def herm():
        g = rng.standard_normal((D, D)) + 1j * rng.standard_normal((D, D))
        return (g + g.conj().T) / 2

    return build_model(herm(), {"A": normalize_observable(herm()), "B": normalize_observable(herm())})


def test_distinct_index_matches_the_bell_oracle():
    # every Bell(2k) merge pattern with the diagonals kept, against the
    # cycle-independent patterns with the diagonals zeroed
    for model in (goe_model(12, seed=3), _complex_model(12, seed=4)):
        state = thermal_state(model, 0.5)
        for k in (1, 2, 3, 4):
            for t in (0.0, 0.7):
                want = distinct_index_bell(model, state, "A", "B", k=k, t=t)
                got = distinct_index_cumulant(model, state, "A", "B", k=k, t=t)
                assert abs(got - want) <= 1e-12 * abs(want), (k, t, got, want)


def test_distinct_index_contracts_only_cycle_independent_patterns(monkeypatch):
    model = goe_model(6, seed=1)
    state = thermal_state(model, 0.5)
    calls = []

    def counted(chains, merge):
        calls.append(merge)
        return merged_chain_sum(chains, merge)

    monkeypatch.setattr(eth, "merged_chain_sum", counted)
    for k, count in zip((1, 2, 3, 4), (1, 4, 41, 715)):
        calls.clear()
        distinct_index_cumulant(model, state, "A", "B", k=k, t=0.3)
        assert len(calls) == count


def test_distinct_index_vanishes_below_2k_levels():
    # fewer levels than slots: no assignment is injective
    for D, k in ((3, 2), (5, 3), (7, 4)):
        model = goe_model(D, seed=D)
        state = thermal_state(model, 0.5)
        for t in (0.0, 0.7):
            assert abs(distinct_index_cumulant(model, state, "A", "B", k=k, t=t)) <= 1e-12


def test_distinct_index_vanishes_for_diagonal_observable(small_model, small_state):
    Ad = np.diag(np.diagonal(small_model.observables["A"]))
    v = distinct_index_cumulant(small_model, small_state, Ad, Ad, k=2, t=0.0)
    assert abs(v) < 1e-12


def test_inclusion_exclusion_completeness(small_model):
    state = thermal_state(small_model, 0.5)
    B = small_model.observables["B"]
    mats = [heisenberg(small_model, "A", 0.3), B, heisenberg(small_model, "A", 0.3), B]
    chains = SlotChains([mats], [state.weights], (0, 0, 0, 0))
    total = sum(coincidence_pattern_sum(chains, p) for p in iter_set_partitions(4))
    unrestricted = merged_chain_sum(chains, Partition.singletons(4))
    assert abs(total - unrestricted) < 1e-10


def test_strict_coefficients_match_pairwise_lattice_oracle():
    # block-product coefficients against the O(Bell(m)^2) zeta-mu double
    # loop: every {-1, 0, 1} coefficient vector up to m = 5, and every
    # vector a word of timed/untimed letters produces at m = 6
    vectors = [c for m in range(1, 6) for c in itertools.product((-1, 0, 1), repeat=m)]
    vectors += sorted({_slot_coeffs(timed) for timed in itertools.product((False, True), repeat=6)})
    assert len(vectors) == 363 + 63
    for coeffs in vectors:
        assert _restricted_coeffs(coeffs) == strict_average_coeffs(len(coeffs), coeffs)


def test_strict_coefficients_match_the_bell_route_at_eight_slots():
    # every coefficient vector a word of timed/untimed letters produces at
    # m = 8 (k = 4), pattern by pattern and in order, against the sum over all
    # Bell(8) = 4,140 slot partitions of blockwise classical cumulants
    vectors = sorted({_slot_coeffs(timed) for timed in itertools.product((False, True), repeat=8)})
    assert len(vectors) == 255
    for coeffs in vectors:
        assert _restricted_coeffs(coeffs) == restricted_coeffs_bell(coeffs)


def test_balanced_block_weights_are_indicator_cumulants():
    # c_p is the classical cumulant of the "phase cancels" indicator over a
    # block of p slots of +1 and p of -1
    for p in range(1, 6):
        block = (1,) * p + (-1,) * p
        assert _balanced_weight(p) == classical_cumulant(lambda b: int(sum(b) == 0), block)
    assert [_balanced_weight(p) for p in range(7)] == [1, 1, -1, 4, -33, 456, -9460]


def test_alternating_word_strict_pattern_counts():
    # A(t) B A(t) B ...: slots alternate +1, -1, so the patterns are the
    # partitions into balanced blocks, against Bell(2k) = 203, 4,140, 115,975
    for k, count in zip((3, 4, 5), (16, 131, 1496)):
        assert len(_restricted_coeffs(_slot_coeffs((True, False) * k))) == count


@pytest.mark.parametrize("m", range(1, 8))
def test_distinct_index_coefficients_are_moebius_from_bottom(m):
    # the patterns whose merged sums survive zeroed diagonals: no block holds
    # two cyclically adjacent slots (in a 1-cycle the slot is its own neighbour)
    zero = Partition.singletons(m)

    def adjacent(b):
        return any((j - i) % m in (1, m - 1) for i, j in itertools.combinations_with_replacement(b, 2) if i != j or m == 1)

    expected = tuple(
        (q, partition_lattice_moebius(zero, q)) for q in iter_set_partitions(m) if not any(map(adjacent, q.blocks))
    )
    assert _distinct_patterns(m) == expected
    assert len(expected) == (0, 1, 1, 4, 11, 41, 162)[m - 1]


@pytest.mark.parametrize("cycle_lengths", [(4,), (5,), (2, 2), (3, 2)])
def test_merged_chain_sum_matches_nested_loops(cycle_lengths):
    D = 3
    rng = np.random.default_rng(sum(cycle_lengths) + len(cycle_lengths))

    def cplx(*shape):
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

    cycles = [[cplx(D, D) for _ in range(p)] for p in cycle_lengths]
    weights = [rng.uniform(0.1, 1.0, D) for _ in cycle_lengths]
    m = sum(cycle_lengths)
    chains = SlotChains(cycles, weights, (0,) * m)
    for merge in iter_set_partitions(m):
        want = merged_chain_sum_loops(chains, merge, D)
        got = merged_chain_sum(chains, merge)
        assert abs(got - want) <= 1e-12 * abs(want), merge


def test_factorization_gap_joint_matches_two_cycle_materialisation():
    model = goe_model(10, seed=3)
    state = thermal_state(model, 0.4)
    literal = joint_spectral_sum(model, state, "A", "B")
    eps = 1e-10 * model.spectral_width()
    windows = (TimeWindow("finite", 10.0), TimeWindow("finite", 35.0), TimeWindow("infinite"))
    for window in windows:
        joint, _, _ = factorization_gap(model, state, "A", "B", window)
        want = literal.averaged(window, eps_res=eps).total()
        assert abs(joint - want) <= 1e-12 * abs(want), window


def test_distinct_matches_moebius_cumulant_at_large_d():
    model = goe_model(512, seed=2)
    state = thermal_state(model, 0.0)
    k4 = thermal_free_cumulant(model, state, alternating_word("A", "B", 2, 0.0))
    ds = distinct_index_cumulant(model, state, "A", "B", k=2, t=0.0)
    assert abs(k4 - ds) <= 10.0 / model.dim


def test_strict_average_two_letter_diagonal_ensemble(small_model, small_state):
    v = time_average(small_model, small_state, (("A", True), ("B", False)), TimeWindow("infinite"))
    A, B = small_model.observables["A"], small_model.observables["B"]
    diag = np.dot(small_state.weights, np.diagonal(A) * np.diagonal(B))
    assert abs(v - diag) < 1e-12


def test_strict_average_matches_literal_resonance_filter(small_model, small_state):
    word = (("A", True), ("B", False), ("A", True), ("B", False))
    ss = word_spectral_sum(small_model, small_state, word)
    eps = 1e-10 * small_model.spectral_width()
    literal = ss.averaged(TimeWindow("infinite"), eps_res=eps).total()
    via_partitions = time_average(small_model, small_state, word, TimeWindow("infinite"))
    assert abs(literal - via_partitions) < 1e-12


def test_strict_average_eight_slots_matches_literal_resonance_filter():
    # D^8 ~ 1.7M amplitudes: the literal filter is affordable at D = 6 only
    model = goe_model(6, seed=4)
    state = thermal_state(model, 0.5)
    word = (("A", True), ("B", False)) * 4
    eps = 1e-10 * model.spectral_width()
    literal = word_spectral_sum(model, state, word).averaged(TimeWindow("infinite"), eps_res=eps).total()
    via_partitions = time_average(model, state, word, TimeWindow("infinite"))
    assert abs(literal - via_partitions) < 1e-12


def test_windowed_average_matches_literal_kernel(small_model, small_state):
    word = (("A", True), ("B", False), ("A", True), ("B", False))
    ss = word_spectral_sum(small_model, small_state, word)
    for t_max in (10.0, 35.0):
        literal = ss.averaged(TimeWindow("finite", t_max)).total()
        chunked = time_average(small_model, small_state, word, TimeWindow("finite", t_max))
        assert abs(literal - chunked) < 1e-12


@pytest.fixture(scope="module")
def window_models():
    D = 10
    rng = np.random.default_rng(21)

    def hermitian():
        g = rng.standard_normal((D, D)) + 1j * rng.standard_normal((D, D))
        return (g + g.conj().T) / 2.0

    complex_model = build_model(hermitian(), {name: normalize_observable(hermitian()) for name in ("A", "B")})
    assert complex_model.basis.dtype == np.complex128
    real = goe_model(D, seed=21)
    # the real model in energy units 100 times smaller: E -> 100 E with
    # T -> T/100 is the same physics, but the rounding residual of a
    # structurally resonant phase such as E_a - E_b + E_b - E_a grows past 1e-14
    scaled = SpectralModel(100.0 * real.energies, real.basis, real.observables)
    # I (x) h with the two copies split by 1e-13: near-degenerate pairs, as
    # eigh leaves them on an exactly degenerate H with energies of order 10
    h = np.kron(np.eye(2), goe_matrix(D // 2, rng)) + np.kron(np.diag([0.0, 1e-13]), np.eye(D // 2))
    degenerate = build_model(h, {name: normalize_observable(goe_matrix(D, rng)) for name in ("A", "B")})
    return {"real": (real, 1.0), "complex": (complex_model, 1.0), "scaled": (scaled, 1e-2), "degenerate": (degenerate, 1.0)}


WINDOW_WORDS = (
    (("A", True), ("B", False)),  # slot coefficients (1, -1)
    (("A", True), ("B", False), ("A", False)),  # (1, -1, 0): a zero-coefficient slot
    (("A", False), ("B", False), ("A", False)),  # all untimed
    (("A", True), ("B", False), ("A", True), ("B", False)),  # (1, -1, 1, -1)
    (("A", True), ("A", True), ("B", False), ("B", False)),  # (1, 0, -1, 0)
)


@pytest.mark.parametrize("chunk_elems", [None, 1, 3 * 10**3], ids=["whole", "chunk1", "chunk3"])
@pytest.mark.parametrize("name", ["complex", "real", "scaled", "degenerate"])
def test_windowed_average_matches_accurate_kernel_oracle(window_models, name, chunk_elems, monkeypatch):
    # chunk1 chunks every word one first-slot index at a time; chunk3 splits
    # the 4-slot words at D = 10 into first-slot chunks 3, 3, 3, 1
    if chunk_elems is not None:
        monkeypatch.setattr(eth, "_WINDOW_CHUNK_ELEMS", chunk_elems)
    model, t_scale = window_models[name]
    state = thermal_state(model, 0.3 * t_scale)
    sums = {word: word_spectral_sum(model, state, word) for word in WINDOW_WORDS}
    joint_sum = joint_spectral_sum(model, state, "A", "B")
    for t, tol in [(t, 1e-12) for t in (1e-9, 0.5, 7.0, 40.0, 640.0, 1e4)] + [(1e9, 1e-6)]:
        t_max = t * t_scale
        window = TimeWindow("finite", t_max)
        for word, ss in sums.items():
            want = window_average_total(ss, t_max)
            got = time_average(model, state, word, window)
            assert abs(got - want) <= tol * abs(want), (t_max, word, got, want)
        joint, product, gap = factorization_gap(model, state, "A", "B", window)
        want_joint = window_average_total(joint_sum, t_max)
        want_product = window_average_total(sums[WINDOW_WORDS[0]], t_max) ** 2
        assert abs(joint - want_joint) <= tol * abs(want_joint), (t_max, joint, want_joint)
        assert abs(product - want_product) <= tol * abs(want_product), (t_max, product, want_product)
        # the gap is a difference of the two, so its rounding scales with theirs
        scale = abs(want_joint) + abs(want_product)
        assert abs(gap - (want_joint - want_product)) <= tol * scale, (t_max, gap)


def _window_peak(name: str, D: int) -> int:
    """tracemalloc peak of a 4-slot windowed average at T = 3 on a seeded
    real (GOE) or complex model of dimension D."""
    model = goe_model(D, seed=8) if name == "real" else _complex_model(D, seed=8)
    w = thermal_state(model, 0.3).weights
    a, b = model.observable("A"), model.observable("B")
    chains = SlotChains(cycles=[[a, b], [a, b]], weights=[w, w], slot_coeffs=(1, -1, 1, -1))
    tracemalloc.start()
    try:
        eth._windowed_chain_sum(chains, model.energies, 3.0)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("chunk_elems", [1, None], ids=["chunk1", "default"])
@pytest.mark.parametrize("name", ["real", "complex"])
def test_window_bytes_bound_what_a_window_holds(monkeypatch, name, chunk_elems):
    """`window_bytes`, the count the window budget is checked against, bounds
    the tracemalloc peak of a 4-slot windowed average, one first-slot index
    per chunk and in the default chunks, and is within a factor 4 of it."""
    if chunk_elems is not None:
        monkeypatch.setattr(eth, "_WINDOW_CHUNK_ELEMS", chunk_elems)
    D = 24
    peak = _window_peak(name, D)
    assert eth.window_bytes(D, 4) / 4 <= peak <= eth.window_bytes(D, 4)


@pytest.mark.parametrize("name, bytes_per_entry", [("real", 48), ("complex", 64)])
def test_window_holds_h_once(monkeypatch, name, bytes_per_entry):
    """One first-slot index per chunk, a window holds h (16 bytes per entry)
    and a few arrays of h's size beside it: at most 48 bytes per entry of h
    for a real model and 64 for a complex one.  A window that copied h into
    complex row products per chunk held 130 and 105."""
    monkeypatch.setattr(eth, "_WINDOW_CHUNK_ELEMS", 1)
    D = 60
    assert _window_peak(name, D) <= bytes_per_entry * D**3


AMPLITUDE_WORDS = (
    (("A", True),),  # k = 1: the one slot's matrix lies on axes [0, 0], a diagonal
    (("A", True), ("B", False)),
    (("A", False), ("B", False)),
    (("A", True), ("B", False), ("A", False)),
    (("A", True), ("B", True), ("A", True)),
)


@pytest.mark.parametrize("name", ["complex", "real"])
def test_slot_amplitudes_match_einsum_oracle(window_models, name):
    model, _ = window_models[name]
    state = thermal_state(model, 0.3)
    a, b = model.observable("A"), model.observable("B")
    joint = SlotChains(cycles=[[a, b], [a, b]], weights=[state.weights] * 2, slot_coeffs=(1, -1, 1, -1))
    chains = [chains_from_word(model, state, word) for word in AMPLITUDE_WORDS] + [joint]
    for chain in chains:
        want = chain_amplitudes_einsum(chain)
        operands = _chain_einsum(chain, Partition.singletons(chain.n_slots))
        # the whole first axis, and first-slot chunks of 3, 3, 3, 1
        for step in (model.dim, 3):
            for lo in range(0, model.dim, step):
                sel = slice(lo, lo + step)
                got = np.empty_like(want[sel])
                _slot_amplitudes(got, operands, sel)
                assert got.dtype == want.dtype
                assert np.max(np.abs(got - want[sel])) <= 1e-13 * np.max(np.abs(want)), (chain.slot_coeffs, sel)


def test_windowed_average_converges_to_strict_one_over_t(small_model, small_state):
    word = (("A", True), ("B", False), ("A", True), ("B", False))
    strict = time_average(small_model, small_state, word, TimeWindow("infinite"))
    t_values = (80.0, 160.0, 320.0, 640.0)
    errs = [
        abs(time_average(small_model, small_state, word, TimeWindow("finite", t)) - strict)
        for t in t_values
    ]
    slope = np.polyfit(np.log(t_values), np.log(errs), 1)[0]
    assert -1.5 <= slope <= -0.6


def test_strict_average_idempotent_and_linear(small_model, small_state):
    word = (("A", True), ("B", False), ("A", True), ("B", False))
    eps = 1e-10 * small_model.spectral_width()
    ss = word_spectral_sum(small_model, small_state, word)
    once = ss.averaged(TimeWindow("infinite"), eps_res=eps)
    twice = once.averaged(TimeWindow("infinite"), eps_res=eps)
    assert abs(once.total() - twice.total()) < 1e-14
    # linearity: averaging distributes over amplitude sums
    ss2 = word_spectral_sum(small_model, small_state, (("B", True), ("A", False), ("B", True), ("A", False)))
    combined = SpectralSum(
        np.concatenate([ss.amplitudes, 2.0 * ss2.amplitudes]),
        np.concatenate([ss.frequencies, ss2.frequencies]),
    )
    lhs = combined.averaged(TimeWindow("infinite"), eps_res=eps).total()
    rhs = once.total() + 2.0 * ss2.averaged(TimeWindow("infinite"), eps_res=eps).total()
    assert abs(lhs - rhs) < 1e-12


def test_window_limits_at_the_float_extremes(small_model, small_state):
    # T d underflowing gives every amplitude weight 1 (the t = 0 value); T d
    # overflowing gives the far ones weight 0 (the infinite window), both
    # without a warning
    with np.errstate(over="raise", divide="raise", invalid="raise"):
        kernel = eth.window_kernel(np.array([0.0, 1e-10, 1.0, -3.0]), 1e-320)
        assert np.array_equal(kernel, np.ones(4, dtype=complex))
        assert np.array_equal(eth.window_kernel(np.array([0.0, 1e-20, 2.0, -3.0]), 1e308), np.array([1, 1, 0, 0]))
        for k in (1, 2):
            word = tuple(x for _ in range(k) for x in (("A", True), ("B", False)))
            t0 = thermal_word_moment(small_model, small_state, alternating_word("A", "B", k, 0.0))
            tiny = time_average(small_model, small_state, word, TimeWindow("finite", 1e-320))
            assert abs(tiny - t0) <= 1e-12 * abs(t0)
            strict = time_average(small_model, small_state, word, TimeWindow("infinite"))
            huge = time_average(small_model, small_state, word, TimeWindow("finite", 1e308))
            assert abs(huge - strict) <= 1e-12 * abs(strict)
        for t_max in (1e-320, 1e308):
            assert np.all(np.isfinite(factorization_gap(small_model, small_state, "A", "B", TimeWindow("finite", t_max))))


def test_thermal_weights_past_the_float_range():
    model = goe_model(8, seed=0)
    with np.errstate(over="raise", divide="raise", invalid="raise"):
        cold, inverted = thermal_state(model, 1e308), thermal_state(model, -1e308)
    assert np.array_equal(cold.weights, np.eye(8)[0]) and cold.Z == 1.0
    assert np.array_equal(inverted.weights, np.eye(8)[-1])
    # the shift by the top level keeps a large negative beta finite, and an in-range one as it was
    assert np.all(np.isfinite(thermal_state(model, -1000.0).weights))
    w = np.exp(-0.5 * (model.energies - model.energies[0]))
    assert np.array_equal(thermal_state(model, 0.5).weights, w / np.sum(w))


def test_window_validation():
    with pytest.raises(ValueError):
        TimeWindow("finite", None)
    with pytest.raises(ValueError):
        TimeWindow("sometimes", 1.0)


def test_averaged_cumulant_shrinks_with_dimension():
    values = []
    dims = (64, 128, 256, 512)
    word = (("A", True), ("B", False), ("A", True), ("B", False))
    for D in dims:
        model = goe_model(D, seed=55)
        state = thermal_state(model, 0.0)
        values.append(abs(averaged_free_cumulant(model, state, word, TimeWindow("infinite"))))
    slope = np.polyfit(np.log(dims), np.log(values), 1)[0]
    assert slope <= -0.7


def test_otoc_long_time_factorization_identity_b(small_model):
    s0 = thermal_state(small_model, 0.0)
    I = np.eye(small_model.dim)
    lhs, rhs, residual = otoc_long_time_factorization(small_model, s0, "A", I, 2)
    assert residual < 1e-10


def test_otoc_long_time_factorization_goe():
    model = goe_model(256, seed=8)
    for beta in (0.0, 0.5 / model.spectral_width()):
        state = thermal_state(model, beta)
        lhs, rhs, residual = otoc_long_time_factorization(model, state, "A", "B", 2)
        assert residual <= 10.0 / state.effective_dim()


def test_factorization_gap_equals_crossing_term(small_model, small_state):
    _, _, gap = factorization_gap(small_model, small_state, "A", "B", TimeWindow("infinite"))
    cross = appendix_b_crossing_term(small_model, small_state, "A", "B")
    assert abs(gap - cross) < 1e-14


def test_factorization_gap_zero_for_diagonal_observable(small_model, small_state):
    Ad = np.diag(np.diagonal(small_model.observables["A"]))
    _, _, gap = factorization_gap(small_model, small_state, Ad, "B", TimeWindow("infinite"))
    assert abs(gap) < 1e-14


def test_factorization_gap_windowed_approaches_strict(small_model, small_state):
    _, _, strict_gap = factorization_gap(small_model, small_state, "A", "B", TimeWindow("infinite"))
    _, _, windowed_gap = factorization_gap(small_model, small_state, "A", "B", TimeWindow("finite", 2000.0))
    assert abs(windowed_gap - strict_gap) < 0.3 * max(abs(strict_gap), 1e-12)


def test_phase_average_delta_structure_d16():
    model = goe_model(16, seed=5)
    assert phase_average_delta_structure(model) == 0.0


def test_gap_scaling_is_quadratic_not_linear():
    # honest GOE behavior: the crossing term is ~1/D^2 (see ledger; the
    # printed 1/D is a loose bound). This test documents the true exponent.
    gaps = []
    dims = (64, 128, 256, 512)
    for D in dims:
        model = goe_model(D, seed=21)
        state = thermal_state(model, 0.0)
        _, _, gap = factorization_gap(model, state, "A", "A", TimeWindow("infinite"))
        gaps.append(abs(gap))
    slope = np.polyfit(np.log(dims), np.log(gaps), 1)[0]
    assert -2.4 <= slope <= -1.6


def test_thermal_cumulant_scan_matches_per_t_cumulants():
    # a real, a complex and an Ising model, with t = 0, A is B, and a
    # one-point grid given as a list
    grid = np.array([0.0, 0.35, 0.7, 2.0])
    models = [(goe_model(12, seed=3), "A", "B"), (_complex_model(12, seed=4), "A", "B"), (ising_model(4), "sz_mid", "sx_mid")]
    # a real B stays real in the scan, so its products with A(t) are real GEMMs
    assert [np.iscomplexobj(model.observable(B)) for model, _, B in models] == [False, True, False]
    for model, A, B in models:
        for beta in (0.0, 0.3):
            state = thermal_state(model, beta)
            for k in (1, 2, 3):
                for a, b, times in ((A, B, grid), (B, B, grid), (A, B, [0.7])):
                    got = thermal_cumulant_scan(model, state, a, b, k, times)
                    want = [thermal_free_cumulant(model, state, alternating_word(a, b, k, t)) for t in times]
                    for g, w in zip(got, want):
                        assert abs(g - w) <= 1e-12 * abs(w) + 1e-14, (k, beta, a, b, g, w)
                    if a == b:  # the letters collapse at t = 0: the per-t value itself
                        assert got[0] == want[0]


def test_thermal_cumulant_scan_over_several_chunks():
    model = goe_model(12, seed=3)
    state = thermal_state(model, 0.3)
    times = np.linspace(0.0, 5.0, 2 * (eth._SCAN_CHUNK_ELEMS // model.dim) + 3)
    got = thermal_cumulant_scan(model, state, "A", "B", 2, times)
    for g, t in zip(got, times):
        w = thermal_free_cumulant(model, state, alternating_word("A", "B", 2, t))
        assert abs(g - w) <= 1e-12 * abs(w) + 1e-14


def test_thermal_cumulant_scan_peak_grows_by_at_most_one_chunk():
    # no array grows with the grid but the returned values, 16 bytes a point
    D = 64
    model = goe_model(D, seed=5)
    state = thermal_state(model, 0.3)
    chunk_bytes = (eth._SCAN_CHUNK_ELEMS // D) * D * np.dtype(complex).itemsize

    def peak(n):
        times = np.linspace(0.0, 3.0, n)
        gc.collect()  # empties the interpreter's free lists, which tracemalloc counts
        tracemalloc.start()
        try:
            thermal_cumulant_scan(model, state, "A", "B", 2, times)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    small = peak(64)
    assert peak(4096) - small <= chunk_bytes


def test_free_k_time_ordering_and_monotonicity():
    model = goe_model(128, seed=17)
    state = thermal_state(model, 0.0)
    A = bimodal_observable(128, np.random.default_rng(5))
    grid = np.linspace(0.0, 60.0 / model.spectral_width(), 61)
    r1 = free_k_time(model, state, A, A, 1, t_grid=grid)
    r2 = free_k_time(model, state, A, A, 2, t_grid=grid)
    assert r1.reached and r2.reached
    assert r2.time >= r1.time
    # smaller threshold cannot give an earlier time
    tight = free_k_time(model, state, A, A, 1, threshold=0.01, t_grid=grid)
    assert (tight.time or math.inf) >= r1.time


def test_free_k_time_conserved_quantity_never_reached():
    model = goe_model(64, seed=17)
    state = thermal_state(model, 0.0)
    Ad = np.diag(model.energies / np.max(np.abs(model.energies)))
    grid = np.linspace(0.0, 40.0 / model.spectral_width(), 41)
    res = free_k_time(model, state, Ad, Ad, 1, t_grid=grid)
    assert not res.reached
    assert res.time is None


def test_deutsch_overlaps_doubly_stochastic_and_freeness():
    D = 256
    model = goe_model(D, seed=41)
    rng = np.random.default_rng(99)
    # strength 4/sqrt(D): golden-rule mixing of ~10 levels, inside the
    # 'blender' regime the perturbed-basis argument needs (see ledger)
    spec = DeutschSpec(perturbation=goe_matrix(D, rng), strength=4.0 / math.sqrt(D), lambdas=(1.0, 2.0))
    report = deutsch_ensemble(model, spec)
    for overlap in report.overlaps.values():
        assert np.max(np.abs(overlap.sum(axis=1) - 1.0)) < 1e-10
        assert np.max(np.abs(overlap.sum(axis=0) - 1.0)) < 1e-10
    assert abs(report.mixed_kappa4[(1.0, 2.0)]) <= 10.0 / D
    # same-coupling cumulant reduces to the single-operator value
    same = report.mixed_kappa4[(1.0, 1.0)]
    word = ((report.rotated[1.0], 0.0),) * 4
    state = thermal_state(model, 0.0)
    direct = thermal_free_cumulant(model, state, word)
    assert abs(same - direct) < 1e-12


def test_deutsch_band_profile_decays():
    D = 128
    model = goe_model(D, seed=13)
    rng = np.random.default_rng(7)
    spec = DeutschSpec(perturbation=goe_matrix(D, rng), strength=4.0 / math.sqrt(D), lambdas=(1.0,))
    report = deutsch_ensemble(model, spec)
    omega, mass = report.band_profile[1.0]
    # overlap mass concentrates at small energy separation
    assert mass[0] > 10 * np.mean(mass[len(mass) // 2 :])


def test_criterion_8_companion_strict_kappa8():
    # k = 4 companion of criterion 8 (test_acceptance), with criterion 8's
    # own bound |kappa| <= 10 / D_eff
    model = goe_model(64, seed=3)
    word = (("A", True), ("B", False)) * 4
    for beta in (0.0, 0.3 / model.spectral_width()):
        state = thermal_state(model, beta)
        k8bar = averaged_free_cumulant(model, state, word, TimeWindow("infinite"))
        assert abs(k8bar) <= 10.0 / state.effective_dim()


_THREADED_RUN = """
import sys
from kfree.cli import dispatch
from kfree.eth import TimeWindow, averaged_free_cumulant, distinct_index_cumulant, goe_model, thermal_state

out = sys.argv[1]
for action, flags in (("cumulant", ["--t-max", "2", "--n-points", "5", "--beta", "0.05"]), ("appendixb", [])):
    argv = ["eth", action, "--model", "goe", "--dim", "256", "--seed", "3", *flags, "--output", f"{out}/{action}.json"]
    assert dispatch(argv) == 0
model = goe_model(256, seed=3)
state = thermal_state(model, 0.3 / model.spectral_width())
word = (("A", True), ("B", False)) * 2
values = [averaged_free_cumulant(model, state, word, TimeWindow("infinite"))]
values += [distinct_index_cumulant(model, state, "A", "B", k=k) for k in (2, 3)]
with open(f"{out}/library.txt", "w") as fh:
    fh.write(repr(values))
"""


def test_eth_documents_at_d256_independent_of_blas_threads(tmp_path):
    # OpenBLAS's eigh rounds differently with one and two threads from
    # D = 256 up; below the crossover eth runs on one thread
    if eth._openblas_thread_control() is None:
        pytest.skip("no OpenBLAS thread control in this process (numpy uses another BLAS)")
    assert 256 < eth.ONE_THREAD_DIM
    src = str(Path(kfree.__file__).resolve().parents[1])
    outputs = []
    for threads in ("1", "2"):
        out = tmp_path / f"threads{threads}"
        out.mkdir()
        env = {
            **os.environ,
            "OPENBLAS_NUM_THREADS": threads,
            "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])),
        }
        proc = subprocess.run([sys.executable, "-c", _THREADED_RUN, str(out)], capture_output=True, text=True, env=env)
        assert proc.returncode == 0, proc.stderr
        outputs.append({p.name: p.read_bytes() for p in sorted(out.iterdir())})
    assert sorted(outputs[0]) == ["appendixb.json", "cumulant.json", "library.txt"]
    assert outputs[0] == outputs[1]
