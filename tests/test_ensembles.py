"""Unitary ensembles: sampling, dense reference channels, freeness probes,
design checks, and channel distance."""

import contextlib
import functools
import gc
import itertools
import json
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import kfree
from kfree import ensembles, eth
from kfree.channel import channel_exact, haar_word_average_exact, permutation_operator, word_functional_from_matrices
from kfree.cli import dispatch
from kfree.ensembles import (
    DiscreteEnsemble,
    EnsembleExpectation,
    Estimate,
    HaarEnsemble,
    HamiltonianEnsemble,
    channel_distance,
    clifford_group_1q,
    design_check,
    k_freeness_test,
    pauli_group,
    sample_haar,
    spawn_rngs,
    _pair_moment,
    _window_frame_potential,
)
from kfree.errors import RegimeError
from kfree.eth import SpectralModel, goe_matrix, goe_model, normalize_observable
from kfree.moments import Expectation, _cyclic_key, free_cumulant
from kfree.partitions import enumerate_nc
from kfree.permutations import all_permutations, inverse
from kfree.weingarten import weingarten_table

from channel_oracles import reconstruct_dense
from ensemble_oracles import channel_monte_carlo, ensemble_superoperator


def test_sample_haar_unitarity():
    rng = np.random.default_rng(0)
    for D in (2, 5, 16):
        u = sample_haar(D, rng)
        assert np.max(np.abs(u.conj().T @ u - np.eye(D))) < 1e-10


def _dense_reflector(v, tau, j):
    """H_j = I - tau_j v_j v_j^dagger as a dense matrix."""
    return np.eye(len(v)) - tau[j] * np.outer(v[:, j], v[:, j].conj())


def _dense_reflector_product(v, tau, signs):
    """H_0 ... H_{D-1} diag(signs), each reflector formed densely and the
    product taken in order."""
    return functools.reduce(np.matmul, [_dense_reflector(v, tau, j) for j in range(len(tau))]) * signs


@pytest.mark.parametrize("D", [1, 2, 31, 32, 33, 64, 65, 100])
def test_blocked_accumulation_equals_the_dense_reflector_product(D):
    assert ensembles.HAAR_BLOCK == 32  # the D above sit on its block edges
    v, tau, signs = ensembles._haar_reflectors(D, np.random.default_rng(D))
    g = ensembles._accumulate(v, tau, signs)
    assert np.max(np.abs(g - _dense_reflector_product(v, tau, signs))) <= 1e-13
    assert np.max(np.abs(g.conj().T @ g - np.eye(D))) <= 1e-13
    assert np.array_equal(sample_haar(D, np.random.default_rng(D)), g)


@pytest.mark.parametrize("D", [1, 2, 33, 70])
def test_haar_draw_is_the_phase_fixed_qr_of_a_ginibre_matrix(D):
    # column j of Z is H_0 ... H_{j-1} applied to the j-th drawn vector, put
    # below j zeros; the QR of Z finds the same reflectors, so Q diag(R/|R|) = G
    z = np.empty(D * (D + 1) // 2, dtype=complex)
    np.random.default_rng(D).standard_normal(out=z.view(np.float64))
    v, tau, signs = ensembles._haar_reflectors(D, np.random.default_rng(D))
    ginibre = np.zeros((D, D), dtype=complex)
    q, start = np.eye(D), 0
    for j in range(D):
        ginibre[j:, j] = z[start:start + D - j]
        start += D - j
        ginibre[:, j] = q @ ginibre[:, j]
        q = q @ _dense_reflector(v, tau, j)
    q, r = np.linalg.qr(ginibre)
    d = np.diagonal(r)
    assert np.max(np.abs(q * (d / np.abs(d)) - sample_haar(D, np.random.default_rng(D)))) <= 1e-13


def test_sample_haar_trace_moments_are_the_frame_potential():
    # E|Tr U|^(2t) = t! for t <= D (Diaconis-Shahshahani): F_1 = 1, F_2 = 2
    D, n = 8, 20000
    traces = np.abs([np.trace(sample_haar(D, rng)) for rng in spawn_rngs(8128, n)]) ** 2
    for vals, target in ((traces, 1.0), (traces**2, 2.0)):
        se = np.std(vals) / math.sqrt(n)
        assert abs(vals.mean() - target) <= 4 * se


def test_sample_haar_entry_moments():
    # E[U_ij conj(U_kl)] = delta_ik delta_jl / D
    D, n = 8, 20000
    vals_diag = np.empty(n, dtype=complex)
    vals_off = np.empty(n, dtype=complex)
    for i, rng in enumerate(spawn_rngs(21, n)):
        u = sample_haar(D, rng)
        vals_diag[i] = u[0, 0] * np.conj(u[0, 0])
        vals_off[i] = u[0, 1] * np.conj(u[1, 0])
    for vals, target in ((vals_diag, 1.0 / D), (vals_off, 0.0)):
        se = np.std(vals) / math.sqrt(n)
        assert abs(vals.mean() - target) <= 4 * se


def test_sample_haar_trace_invariance():
    D, n = 8, 4000
    rng0 = np.random.default_rng(5)
    a = rng0.standard_normal((D, D)) + 1j * rng0.standard_normal((D, D))
    vals = np.empty(n, dtype=complex)
    for i, rng in enumerate(spawn_rngs(9, n)):
        u = sample_haar(D, rng)
        vals[i] = np.trace(u.conj().T @ a @ u) / D
    # exact invariance: every sample equals <A>
    assert np.max(np.abs(vals - np.trace(a) / D)) < 1e-10


def test_second_moment_contraction_matches_weingarten():
    # E <A^U B A^U B> against the exact k=2 channel contraction
    D, n = 6, 6000
    rng0 = np.random.default_rng(1)
    A = normalize_observable(goe_matrix(D, rng0))
    B = normalize_observable(goe_matrix(D, rng0))
    pa = Expectation.normalized_trace({"A": A})
    pb = Expectation.normalized_trace({"B": B})
    exact = complex(haar_word_average_exact(pa, pb, ("A", "B", "A", "B"), D))
    vals = np.empty(n, dtype=complex)
    for i, rng in enumerate(spawn_rngs(3, n)):
        u = sample_haar(D, rng)
        m = u.conj().T @ A @ u
        p = m @ B
        vals[i] = np.trace(p @ p) / D
    se = np.std(vals) / math.sqrt(n)
    assert abs(vals.mean() - exact) <= 4 * se


def test_channel_monte_carlo_haar_converges_to_exact():
    D, k, n = 4, 2, 3000
    rng = np.random.default_rng(11)
    a = rng.standard_normal((D, D))
    O = np.kron(a, a)
    mc = channel_monte_carlo(HaarEnsemble(D), k, O, n_samples=n, seed=17)
    exact = reconstruct_dense(channel_exact(k, D, word_functional_from_matrices([a, a])))
    assert np.linalg.norm(mc - exact, 2) <= 5.0 / math.sqrt(n) * np.linalg.norm(O, 2)


def test_channel_monte_carlo_single_element_exact():
    D = 3
    rng = np.random.default_rng(2)
    u = sample_haar(D, rng)
    O = np.kron(rng.standard_normal((D, D)), rng.standard_normal((D, D)))
    ens = DiscreteEnsemble([u])
    uk = np.kron(u, u)
    assert np.allclose(channel_monte_carlo(ens, 2, O), uk.conj().T @ O @ uk)


def _window_kernel_oracle(omega, t_max):
    """(1/T) int_0^T e^{i omega t} dt = (e^{i omega T} - 1)/(i omega T), 1 at omega = 0."""
    omega = np.asarray(omega, dtype=float)
    x = np.where(omega == 0.0, 1.0, omega * t_max)
    return np.where(omega == 0.0, 1.0, (np.exp(1j * x) - 1.0) / (1j * x))


def _window_kron_quadrature(spec, k, nodes):
    """Reference window superoperator: Gauss-Legendre quadrature over [0, T]
    of the dense term kron((U^{x k})^dagger, (U^{x k})^T), U = e^{-iHt}."""
    basis, energies = spec.model.basis, spec.model.energies
    x, w = np.polynomial.legendre.leggauss(nodes)
    out = 0.0
    for xi, wi in zip(x, w):
        t = 0.5 * spec.t_max * (xi + 1.0)
        uk = functools.reduce(np.kron, [(basis * np.exp(-1j * energies * t)) @ basis.conj().T] * k)
        out = out + 0.5 * wi * np.kron(uk.conj().T, uk.T)
    return out


def test_channel_monte_carlo_rejects_no_samples():
    for n in (0, -1):
        with pytest.raises(ValueError, match="n_samples must be positive"):
            channel_monte_carlo(HaarEnsemble(2), 1, np.eye(2), n_samples=n)


def test_ensemble_expectation_rejects_no_samples():
    # zero samples used to give NaN moments; the sample pool needs at least one worker
    ops = {"A": np.eye(2), "B": np.eye(2)}
    for n in (0, -1):
        with pytest.raises(ValueError, match="n_samples must be positive"):
            EnsembleExpectation(HaarEnsemble(2), ops, {"A"}, n_samples=n)
        with pytest.raises(ValueError, match="n_samples must be positive"):
            k_freeness_test(HaarEnsemble(2), ops["A"], ops["B"], 1, n_samples=n)


def test_ensemble_expectation_refuses_operators_of_another_dimension():
    spec = DiscreteEnsemble([np.eye(2), np.diag([1.0, -1.0])])
    for ensemble in (HaarEnsemble(8), spec):
        for ops in ({"A": np.eye(4), "B": np.eye(ensemble.dim)}, {"A": np.eye(ensemble.dim), "B": np.ones(ensemble.dim)}):
            with pytest.raises(ValueError, match=f"ensemble's dimension is {ensemble.dim}"):
                EnsembleExpectation(ensemble, ops, {"A"}, n_samples=4)
            with pytest.raises(ValueError, match=f"ensemble's dimension is {ensemble.dim}"):
                k_freeness_test(ensemble, ops["A"], ops["B"], 1, n_samples=4)


def test_ensemble_expectation_counts_members_without_drawing_them(monkeypatch):
    draws = []
    spawn = ensembles.spawn_rngs
    monkeypatch.setattr(ensembles, "spawn_rngs", lambda seed, n: draws.append(n) or spawn(seed, n))
    ops = {"A": np.diag([1.0, -1.0]), "B": np.diag([1.0, 2.0])}
    ee = EnsembleExpectation(HaarEnsemble(2), ops, {"A"}, n_samples=6, seed=1, n_batches=2)
    assert (ee.n_samples, draws) == (6, [])
    ee.evaluate_words([("A", "B")])
    assert draws == [6]
    spec = DiscreteEnsemble([np.eye(2), np.diag([1.0, -1.0]), np.diag([1.0, 1j])])
    assert EnsembleExpectation(spec, ops, {"A"}, n_samples=50).n_samples == 3
    assert draws == [6]


def test_channel_monte_carlo_hamiltonian_reads_spec_n_samples():
    # a Hamiltonian ensemble carries its own average, set by its window; the
    # n_samples argument is the Haar draw count and, like the seed, does not apply
    model = goe_model(3, seed=2)
    spec = HamiltonianEnsemble(model, t_max=7.0)
    rng = np.random.default_rng(6)
    O = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    O_eig = model.basis.conj().T @ O @ model.basis
    want = O_eig * _window_kernel_oracle(np.subtract.outer(model.energies, model.energies), 7.0)
    avg = channel_monte_carlo(spec, 1, O, seed=3)
    assert np.max(np.abs(model.basis.conj().T @ avg @ model.basis - want)) < 1e-12
    for n_samples, seed in ((1, 3), (40, 3), (7, 9)):
        assert np.array_equal(channel_monte_carlo(spec, 1, O, n_samples=n_samples, seed=seed), avg)


def test_channel_monte_carlo_hamiltonian_dephases():
    # at k = 1 in the eigenbasis the window keeps the diagonal and multiplies
    # entry (i, j) by K_T(E_i - E_j); the superoperator does the same
    model = goe_model(8, seed=3)
    rng = np.random.default_rng(4)
    O_eig = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
    O = model.basis @ O_eig @ model.basis.conj().T
    for t_max in (0.3, 50.0, 50000.0):
        spec = HamiltonianEnsemble(model, t_max=t_max)
        want = O_eig * _window_kernel_oracle(np.subtract.outer(model.energies, model.energies), t_max)
        avg = channel_monte_carlo(spec, 1, O, seed=4)
        via_superop = (ensemble_superoperator(spec, 1) @ O.reshape(-1)).reshape(8, 8)
        for got in (avg, via_superop):
            got_eig = model.basis.conj().T @ got @ model.basis
            assert np.max(np.abs(np.diagonal(got_eig) - np.diagonal(O_eig))) < 1e-12
            assert np.max(np.abs(got_eig - want)) < 1e-12
    # by T = 50000 every off-diagonal entry has dephased
    assert np.max(np.abs(want - np.diag(np.diagonal(O_eig)))) < 1e-3 * np.max(np.abs(O_eig))


def test_hamiltonian_window_must_be_positive():
    model = goe_model(4, seed=0)
    for t_max in (math.nan, 0.0, -1.0, -math.inf):
        with pytest.raises(ValueError, match="t_max must be positive"):
            HamiltonianEnsemble(model, t_max=t_max)
    assert HamiltonianEnsemble(model, t_max=math.inf).t_max == math.inf


@pytest.mark.parametrize("k", [1, 2])
def test_window_superoperator_matches_quadrature(k):
    # the slab-built (W x conj W) diag K (W x conj W)^dagger against 400
    # Gauss-Legendre nodes of the dense kron terms over [0, T]
    spec = HamiltonianEnsemble(goe_model(3, seed=2), t_max=7.0)
    want = _window_kron_quadrature(spec, k, 400)
    assert np.max(np.abs(ensemble_superoperator(spec, k) - want)) < 1e-12


def test_empty_discrete_ensemble_rejected():
    with pytest.raises(ValueError, match="at least one unitary"):
        DiscreteEnsemble([])
    with pytest.raises(ValueError, match="at least one unitary"):
        DiscreteEnsemble([], np.array([]))


def test_probabilities_validated():
    with pytest.raises(ValueError):
        DiscreteEnsemble([np.eye(2), np.eye(2)], np.array([0.7, 0.2]))
    with pytest.raises(ValueError):
        DiscreteEnsemble([np.eye(2)], np.array([-1.0]))
    with pytest.raises(ValueError):
        DiscreteEnsemble([np.eye(2), np.eye(2)], np.array([1.0]))
    with pytest.raises(ValueError, match="finite"):
        DiscreteEnsemble([np.eye(2), np.eye(2)], np.array([1.0, np.nan]))


def _prefix_product_traces(expectation, u, words):
    """Reference: every prefix of every word as a full matrix product."""
    dressed = {
        label: u.conj().T @ m @ u if label in expectation.rotated else m
        for label, m in expectation.operators.items()
    }
    prods = {}
    for w in words:
        for n in range(1, len(w) + 1):
            if w[:n] not in prods:
                prods[w[:n]] = dressed[w[0]] if n == 1 else prods[w[: n - 1]] @ dressed[w[n - 1]]
    return {w: complex(np.trace(prods[w])) / expectation.dim for w in words}


def _assert_close(got, want):
    assert abs(got - want) <= 1e-12 * max(abs(want), 1.0)


def _oracle_letters(kind, D, rng):
    """(operators, rotated labels, eigenframe label of each side or None, word
    pattern): real symmetric, complex Hermitian or non-Hermitian letters, or
    a mix where the first letter of a side is not Hermitian and a later one is."""

    def gauss():
        return rng.standard_normal((D, D)) + 1j * rng.standard_normal((D, D))

    def herm(m):
        return m + m.conj().T

    if kind == "real":
        return {"A": herm(gauss().real), "B": herm(gauss().real)}, {"A"}, ("A", "B"), ("A", "B")
    if kind == "complex":
        return {"A": herm(gauss()), "B": herm(gauss())}, {"A"}, ("A", "B"), ("A", "B")
    if kind == "dense":
        return {"A": gauss(), "B": gauss()}, {"A"}, (None, None), ("A", "B")
    ops = {"A": gauss(), "B": gauss(), "C": herm(gauss().real), "E": herm(gauss())}
    return ops, {"A", "C"}, ("C", "E"), ("A", "B", "C", "E")


@pytest.mark.parametrize("k", [2, 3])
def test_ensemble_expectation_matches_prefix_product_oracle(k):
    """Haar and discrete averages against full prefix products of the
    dressed words.  A Haar draw G stands for U = W G V^dagger, W and V the
    eigenbases of the first exactly Hermitian rotated and fixed letters."""
    D = 7
    rng = np.random.default_rng(40 + k)
    for kind in ("dense", "real", "complex", "mixed"):
        ops, rotated, framed, pattern = _oracle_letters(kind, D, rng)
        word = tuple(itertools.islice(itertools.cycle(pattern), 2 * k))
        words = {tuple(word[i - 1] for i in block) for pi in enumerate_nc(2 * k) for block in pi.blocks}
        keys = {_cyclic_key(w) for w in words}
        # exact path: a discrete ensemble, weighted by its probabilities
        unitaries = [sample_haar(D, rng) for _ in range(3)]
        probs = np.array([0.5, 0.3, 0.2])
        exact = EnsembleExpectation(DiscreteEnsemble(unitaries, probs), ops, rotated=rotated)
        exact.evaluate_words(words)
        for key in keys:
            want = sum(p * _prefix_product_traces(exact, u, {key})[key] for p, u in zip(probs, unitaries))
            _assert_close(exact._means[key], want)
        # sampled path: same seed, same per-sample streams, same batches
        w, v = (np.eye(D) if lab is None else np.linalg.eigh(ops[lab] if ops[lab].imag.any() else ops[lab].real)[1]
                for lab in framed)
        n, n_batches = 30, 5
        sampled = EnsembleExpectation(HaarEnsemble(D), ops, rotated=rotated, n_samples=n, seed=8, n_batches=n_batches)
        sampled.evaluate_words(words)
        draws = [w @ sample_haar(D, r) @ v.conj().T for r in spawn_rngs(8, n)]
        per_sample = [_prefix_product_traces(sampled, u, keys) for u in draws]
        for key in keys:
            vals = np.array([traces[key] for traces in per_sample])
            _assert_close(sampled._means[key], complex(np.mean(vals)))
            for got, chunk in zip(sampled._batches[key], np.array_split(vals, n_batches)):
                _assert_close(got, complex(np.mean(chunk)))


def test_k_freeness_haar_small_d_matches_exact_oracle():
    # MC estimate vs the exact finite-D Weingarten value of the same cumulant
    D = 6
    rng = np.random.default_rng(1)
    A = normalize_observable(goe_matrix(D, rng))
    B = normalize_observable(goe_matrix(D, rng))
    pa = Expectation.normalized_trace({"A": A})
    pb = Expectation.normalized_trace({"B": B})
    phi_exact = Expectation(lambda w: haar_word_average_exact(pa, pb, w, D), cyclic=True)
    exact = complex(free_cumulant(phi_exact, ("A", "B", "A", "B")))
    est = k_freeness_test(HaarEnsemble(D), A, B, 2, n_samples=6000, seed=77)
    assert abs(est.value - exact) <= 4 * est.std_error


def test_k_freeness_haar_k3_small_d_matches_exact_oracle():
    # kappa_6: the k = 3 words take word matmuls besides the dressing
    D = 6
    rng = np.random.default_rng(3)
    A = normalize_observable(goe_matrix(D, rng))
    B = normalize_observable(goe_matrix(D, rng))
    pa = Expectation.normalized_trace({"A": A})
    pb = Expectation.normalized_trace({"B": B})
    phi_exact = Expectation(lambda w: haar_word_average_exact(pa, pb, w, D), cyclic=True)
    exact = complex(free_cumulant(phi_exact, ("A", "B") * 3))
    est = k_freeness_test(HaarEnsemble(D), A, B, 3, n_samples=6000, seed=303)
    assert abs(est.value - exact) <= 4 * est.std_error


def test_k_freeness_pauli_exact_zero():
    A = np.array([[0.3, 0.2 - 0.1j], [0.2 + 0.1j, -0.7]])
    B = np.array([[1.1, -0.4j], [0.4j, 0.2]])
    est = k_freeness_test(pauli_group(), A, B, 1)
    assert est.std_error == 0.0
    assert abs(est.value) < 1e-12


def test_k_freeness_trivial_ensemble_nonzero():
    D = 4
    A = normalize_observable(goe_matrix(D, np.random.default_rng(3)))
    est = k_freeness_test(DiscreteEnsemble([np.eye(D)]), A, A, 2)
    assert abs(est.value) > 0.05


def test_time_window_expectation_names_the_exact_route():
    # a time window has no members to sample; eth averages its words exactly
    model = goe_model(6, seed=4)
    spec = HamiltonianEnsemble(model, t_max=30.0)
    A, B = np.diag(np.arange(6.0)), np.diag(np.arange(6.0) ** 2)
    for make in (lambda: EnsembleExpectation(spec, {"A": A, "B": B}, {"A"}), lambda: k_freeness_test(spec, A, B, 2)):
        with pytest.raises(ValueError) as err:
            make()
        assert len(str(err.value).splitlines()) == 1
        assert "eth.averaged_free_cumulant" in str(err.value)


def test_k_freeness_reproducible():
    D = 16
    A = normalize_observable(goe_matrix(D, np.random.default_rng(1)))
    B = normalize_observable(goe_matrix(D, np.random.default_rng(2)))
    e1 = k_freeness_test(HaarEnsemble(D), A, B, 2, n_samples=200, seed=9)
    e2 = k_freeness_test(HaarEnsemble(D), A, B, 2, n_samples=200, seed=9)
    assert e1.value == e2.value
    assert e1.std_error == e2.std_error


def test_evaluate_words_leaves_no_reference_cycles():
    # per-sample product matrices must be freed by reference counting, not
    # held until the cyclic collector runs
    D = 8
    A = normalize_observable(goe_matrix(D, np.random.default_rng(1)))
    B = normalize_observable(goe_matrix(D, np.random.default_rng(2)))
    ee = EnsembleExpectation(HaarEnsemble(D), {"A": A, "B": B}, {"A"}, n_samples=20, seed=4)
    gc.collect()
    gc.disable()
    try:
        ee.evaluate_words([("A", "B", "A", "B"), ("A", "A", "B"), ("A", "B")])
        assert gc.collect() == 0
    finally:
        gc.enable()


def _pool_expectation(spec, seed=5):
    D = spec.dim
    A = normalize_observable(goe_matrix(D, np.random.default_rng(1)))
    B = normalize_observable(goe_matrix(D, np.random.default_rng(2)))
    ee = EnsembleExpectation(spec, {"A": A, "B": B}, {"A"}, n_samples=24, seed=seed, n_batches=6)
    ee.evaluate_words([("A", "B", "A", "B"), ("A", "A", "B"), ("A", "B"), ("A",), ("B",)])
    return ee


@pytest.mark.parametrize("D", [32, 128])
@pytest.mark.parametrize("kind", ["haar", "discrete"])
def test_evaluate_words_independent_of_worker_count(monkeypatch, D, kind):
    # each member runs on one BLAS thread (a sample from its own substream),
    # so neither the worker count nor the order members finish in can move a bit
    if kind == "haar":
        spec = HaarEnsemble(D)
    else:
        rng = np.random.default_rng(D)
        spec = DiscreteEnsemble([sample_haar(D, rng) for _ in range(6)], np.arange(1.0, 7.0) / 21.0)
    runs = []
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # switch threads often, so a lost update would show
    try:
        for workers in (1, 4):
            monkeypatch.setattr(ensembles, "_worker_count", lambda: workers)
            runs.append(_pool_expectation(spec))
    finally:
        sys.setswitchinterval(interval)
    one, four = runs
    assert set(one._batches) == set(four._batches)
    assert set(one._means) == set(four._means)
    for key in one._means:
        assert np.array_equal(one._batches.get(key, []), four._batches.get(key, []))
        assert one._means[key] == four._means[key]


def _openblas_control():
    control = eth._openblas_thread_control()
    if control is None:
        pytest.skip("no OpenBLAS thread control in this process (numpy uses another BLAS)")
    return control


def test_evaluate_words_restores_blas_threads(monkeypatch):
    get, set_ = _openblas_control()
    original = get()
    try:
        set_(2)
        before = get()  # 2 unless OpenBLAS caps the count on this machine
        _pool_expectation(HaarEnsemble(16))
        assert get() == before
        # an eth entry point below the crossover runs on one thread and
        # restores the count on return and on raise, also inside another pin
        seen, fail = [], []
        eigh = np.linalg.eigh

        def recording_eigh(h):
            seen.append(get())
            if fail:
                raise np.linalg.LinAlgError("eigh failed")
            return eigh(h)

        monkeypatch.setattr(np.linalg, "eigh", recording_eigh)
        h = goe_matrix(16, np.random.default_rng(1))
        for nested in (False, True):
            with eth._one_blas_thread() if nested else contextlib.nullcontext():
                eth.build_model(h)
                fail.append(True)
                with pytest.raises(np.linalg.LinAlgError, match="eigh failed"):
                    eth.build_model(h)
                fail.clear()
                assert get() == (1 if nested else before)
            assert seen[-2:] == [1, 1]
            assert get() == before
        # at or above the crossover the caller's count stays
        monkeypatch.setattr(eth, "ONE_THREAD_DIM", 16)
        eth.build_model(h)
        assert seen[-1] == before and get() == before
        # a sample that raises: the Haar draw fails
        def failing_draw(D, rng):
            raise ValueError("draw failed")

        monkeypatch.setattr(ensembles, "sample_haar", failing_draw)
        bad = EnsembleExpectation(HaarEnsemble(8), {"A": np.eye(8), "B": np.eye(8)}, {"A"}, n_samples=10, seed=1)
        with pytest.raises(ValueError, match="draw failed"):
            bad.evaluate_words([("A", "B")])
        assert get() == before
    finally:
        set_(original)


@pytest.mark.parametrize("crossover", [eth.ONE_THREAD_DIM, 8])
def test_eth_entry_points_pin_one_blas_thread_below_the_crossover(monkeypatch, crossover):
    """Every eth entry point that does BLAS work enters the one-thread pin
    at D = 8 below the crossover, and not at it; the count is restored."""
    get, set_ = _openblas_control()
    monkeypatch.setattr(eth, "ONE_THREAD_DIM", crossover)
    model = goe_model(8, seed=2)
    state = eth.thermal_state(model, 0.3)
    h = goe_matrix(8, np.random.default_rng(3))
    window = eth.TimeWindow("infinite")
    word = (("A", True), ("B", False))
    calls = [
        lambda: eth.build_model(h, {"A": h}),
        lambda: eth.hamiltonian_energies(h),
        lambda: eth.to_eigenbasis(model.basis, h),
        lambda: eth.thermal_free_cumulant(model, state, eth.alternating_word("A", "B", 2, 0.5)),
        lambda: eth.thermal_cumulant_scan(model, state, "A", "B", 2, [0.0, 0.5]),
        lambda: eth.time_average(model, state, word, window),
        lambda: eth.averaged_free_cumulant(model, state, word, window),
        lambda: eth.distinct_index_cumulant(model, state, "A", "B", k=2),
        lambda: eth.free_k_time(model, state, "A", "B", 2, [0.0, 0.5]),
        lambda: eth.factorization_gap(model, state, "A", "B", window),
        lambda: eth.deutsch_ensemble(model, h, 0.25, (1.0,)),
    ]
    entered = []
    pin = eth._one_blas_thread

    @contextlib.contextmanager
    def recording_pin():
        with pin() as pinned:
            entered.append(get())
            yield pinned

    monkeypatch.setattr(eth, "_one_blas_thread", recording_pin)
    original = get()
    try:
        set_(2)
        before = get()
        for i, call in enumerate(calls):
            entered.clear()
            call()
            assert get() == before, i
            assert entered[:1] == ([1] if crossover > 8 else []), i
    finally:
        set_(original)


def test_haar_test_document_independent_of_blas_threads(tmp_path):
    # OpenBLAS's QR rounding depends on its thread count at D >= 128
    _openblas_control()
    src = str(Path(kfree.__file__).resolve().parents[1])
    digests = []
    for threads in ("1", "2"):
        out = tmp_path / f"threads{threads}.json"
        env = {
            **os.environ,
            "OPENBLAS_NUM_THREADS": threads,
            "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])),
        }
        argv = ["haar-test", "--dim", "128", "--k", "2", "--n-samples", "20", "--output", str(out)]
        proc = subprocess.run([sys.executable, "-m", "kfree.cli", *argv], capture_output=True, text=True, env=env)
        assert proc.returncode == 0, proc.stderr
        digests.append(out.read_bytes())
    assert digests[0] == digests[1]


def test_design_check_pauli():
    assert design_check(pauli_group(), 1).passed
    report = design_check(pauli_group(), 2)
    assert not report.passed
    assert report.max_deviation > 0.1


def test_design_check_clifford_and_nesting():
    for k in (3, 2, 1):
        report = design_check(clifford_group_1q(), k)
        assert report.passed
        assert report.max_deviation <= 1e-10


def test_design_check_haar_trivial():
    report = design_check(HaarEnsemble(4), 3)
    assert report.passed and report.max_deviation == 0.0


def test_design_check_slabs_equal_the_dense_gap():
    # the max over paired row slabs is the max entry of the dense gap, to the bit
    model = goe_model(4, seed=1)
    cases = [(pauli_group(), k) for k in (1, 2, 3)] + [(clifford_group_1q(), k) for k in (1, 2, 3, 4)]
    cases += [(HamiltonianEnsemble(model, t_max), k) for t_max in (7.0, 100.0, math.inf) for k in (1, 2)]
    for spec, k in cases:
        dense = ensemble_superoperator(spec, k) - ensemble_superoperator(HaarEnsemble(spec.dim), k)
        assert design_check(spec, k).max_deviation == np.max(np.abs(dense))


def test_design_check_holds_no_full_superoperator():
    # at D = 4, k = 3 one complex D^(2k) x D^(2k) array is 16 D^(4k) bytes = 256 MiB
    rng = np.random.default_rng(2)
    specs = [HamiltonianEnsemble(goe_model(4, seed=0), 7.0), DiscreteEnsemble([sample_haar(4, rng) for _ in range(2)])]
    for spec in specs:
        tracemalloc.start()
        try:
            design_check(spec, 3)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 16 * 4**12


def _weingarten_superoperator(k, D):
    """Reference for D >= k: sum_{alpha, beta} Wg(alpha, beta) vec(W_alpha^-1) vec(W_beta^T)^T."""
    perms = all_permutations(k)
    dim = D**k
    out = np.zeros((dim * dim, dim * dim), dtype=complex)
    w_ins = [permutation_operator(beta, D).T.reshape(-1) for beta in perms]
    for alpha, (_, wg_row) in zip(perms, weingarten_table(k, D).rows()):
        w_out = permutation_operator(inverse(alpha), D).reshape(-1)
        for wg, w_in in zip(wg_row, w_ins):
            out += float(wg) * np.outer(w_out, w_in)
    return out


def test_haar_superoperator_projector_branch_consistent():
    # the commutant projector equals the Weingarten sum wherever that
    # exists (D >= k), and is idempotent where only it exists (D < k)
    for k, D in ((1, 2), (2, 2), (1, 4), (2, 3), (2, 4), (2, 8), (3, 3)):
        assert np.max(np.abs(ensemble_superoperator(HaarEnsemble(D), k) - _weingarten_superoperator(k, D))) < 1e-12
    s = ensemble_superoperator(HaarEnsemble(2), 3)
    assert np.max(np.abs(s @ s - s)) < 1e-10


def test_superoperator_cap_bounds_the_allocation():
    # D^(2k) and k! are checked before anything is built; none of the
    # rejected sizes is ever allocated
    assert ensemble_superoperator(HaarEnsemble(1), 6).shape == (1, 1)
    for k, D in ((7, 2), (3, 8), (7, 1), (12, 1)):
        with pytest.raises(ValueError, match="capped"):
            ensemble_superoperator(HaarEnsemble(D), k)
    with pytest.raises(ValueError, match="capped"):
        ensemble_superoperator(pauli_group(), 7)
    with pytest.raises(ValueError, match="capped"):
        design_check(pauli_group(), 7)


def test_channel_distance_haar_zero():
    assert channel_distance(HaarEnsemble(8), 2) == 0.0


def _dense_channel_distance(spec, k):
    """Reference: the Frobenius norm of the difference of dense superoperators."""
    return np.linalg.norm(ensemble_superoperator(spec, k) - ensemble_superoperator(HaarEnsemble(spec.dim), k))


def test_channel_distance_dense_equals_gram():
    rng = np.random.default_rng(3)
    ens = DiscreteEnsemble([sample_haar(4, rng) for _ in range(5)])
    assert abs(_dense_channel_distance(ens, 1) - channel_distance(ens, 1)) < 1e-9
    ens2 = DiscreteEnsemble([sample_haar(2, rng) for _ in range(4)])
    assert abs(_dense_channel_distance(ens2, 2) - channel_distance(ens2, 2)) < 1e-9


def test_hamiltonian_channel_distance_dense_equals_gram():
    # the Fejer sum F_k - k! is the squared Frobenius norm of the dense gap
    for t_max in (0.5, 50.0, math.inf):
        spec = HamiltonianEnsemble(goe_model(4, seed=0), t_max=t_max)
        for k in (1, 2):
            dense = _dense_channel_distance(spec, k) ** 2
            fejer = _window_frame_potential(spec, k) - math.factorial(k)
            assert abs(dense - fejer) <= 1e-12 * fejer
            assert abs(channel_distance(spec, k) ** 2 - fejer) <= 1e-12 * fejer


def test_channel_distance_builds_no_superoperator(monkeypatch, capsys):
    def refuse(*args, **kwargs):
        raise AssertionError("channel distance built a dense superoperator")

    monkeypatch.setattr(ensembles, "_superoperator_slabs", refuse)
    for spec in (pauli_group(), clifford_group_1q()):
        for k in (1, 2):
            assert channel_distance(spec, k) >= 0.0
    spec = HamiltonianEnsemble(goe_model(8, seed=0), t_max=1000.0)
    assert channel_distance(spec, 2) > 0.0
    assert dispatch(["distance", "--ensemble", "hamiltonian", "--k", "2"]) == 0
    assert json.loads(capsys.readouterr().out)["result"]["distance"] > 0.0


def _pair_moment_pair_loop(spec, k):
    """Reference: sum_ij p_i p_j |Tr(U_i U_j^dagger)|^{2k}, one pair at a time."""
    p = spec.probabilities
    total = 0.0
    for i, u in enumerate(spec.unitaries):
        for j, v in enumerate(spec.unitaries):
            total += p[i] * p[j] * abs(np.trace(u @ v.conj().T)) ** (2 * k)
    return total


def test_discrete_pair_moment_matches_pair_loop():
    rng = np.random.default_rng(23)
    weighted = DiscreteEnsemble([sample_haar(3, rng) for _ in range(5)], np.array([0.1, 0.3, 0.05, 0.35, 0.2]))
    for spec in (pauli_group(), clifford_group_1q(), weighted):
        for k in (1, 2, 3):
            want = _pair_moment_pair_loop(spec, k)
            assert abs(_pair_moment(spec, k) - want) <= 1e-12 * want


def test_channel_distance_requires_d_ge_k():
    with pytest.raises(RegimeError):
        channel_distance(DiscreteEnsemble([np.eye(2)]), 3)


def test_hamiltonian_distance_matches_infinite_time_limit():
    # the window kernel tends to the resonance indicator: the distance at
    # T = 5000 is near its T -> infinity limit and meets it as T grows
    model = goe_model(8, seed=5)
    for k in (1, 2):
        limit = channel_distance(HamiltonianEnsemble(model, t_max=math.inf), k)
        assert abs(channel_distance(HamiltonianEnsemble(model, t_max=5000.0), k) - limit) < 0.01 * limit
        assert abs(channel_distance(HamiltonianEnsemble(model, t_max=1e12), k) - limit) < 1e-6 * limit


def _fejer_sum_full(spec, k):
    """Reference: 2(1 - cos x)/x^2 at x = T (s_I - s_J) over the whole matrix of tuple pairs at once."""
    sums = functools.reduce(np.add.outer, [spec.model.energies] * k).reshape(-1)
    x = spec.t_max * np.subtract.outer(sums, sums)
    tiny = np.abs(x) < 1e-6
    x = np.where(tiny, 1.0, x)
    return float(np.sum(np.where(tiny, 1.0, 2.0 * (1.0 - np.cos(x)) / x**2)))


@pytest.mark.parametrize("block_rows", [1, 255, 256, 700])
def test_hamiltonian_pair_moment_blocks_match_full_gram(monkeypatch, block_rows):
    # the frame potential of a window, summed `block_rows` tuples at a time
    # (blocks of 1, of 255 and a remainder, exactly 256, and one block past
    # the 512 triples), against the whole Fejer matrix
    spec = HamiltonianEnsemble(goe_model(8, seed=5), t_max=800.0)
    for k in (1, 2, 3):
        monkeypatch.setattr(ensembles, "_KERNEL_BLOCK_ELEMS", block_rows * 8**k)
        want = _fejer_sum_full(spec, k)
        assert abs(_window_frame_potential(spec, k) - want) <= 1e-12 * want


def test_infinite_time_distance_counts_resonances():
    # an evenly spaced spectrum is maximally resonant: at T = infinity the
    # frame potential counts the pairs of k-tuples with equal level sums,
    # also where the float sums of equal tuples differ by rounding (E = 1000 + j/10)
    D = 6
    for energies in (np.arange(D, dtype=float), 1000.0 + 0.1 * np.arange(D)):
        spec = HamiltonianEnsemble(SpectralModel(energies, np.eye(D), {}), t_max=math.inf)
        for k in (1, 2, 3):
            tuples = list(itertools.product(range(D), repeat=k))
            count = sum(sum(a) == sum(b) for a in tuples for b in tuples)
            assert _window_frame_potential(spec, k) == count
            assert channel_distance(spec, k) == math.sqrt(count - math.factorial(k))


def test_infinite_time_distance_values():
    spec = HamiltonianEnsemble(goe_model(16, seed=1), t_max=math.inf)
    # generic spectra: k=1 -> sqrt(D - 1), k=2 -> sqrt(2 D^2 - D - 2)
    assert abs(channel_distance(spec, 1) - math.sqrt(15)) < 1e-9
    assert abs(channel_distance(spec, 2) - math.sqrt(2 * 256 - 16 - 2)) < 1e-9


def test_window_pair_cap_refuses_before_any_kernel(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a kernel was evaluated past the pair cap")

    monkeypatch.setattr(ensembles, "window_kernel", refuse)
    spec = HamiltonianEnsemble(goe_model(65, seed=0), t_max=10.0)  # 65^4 > 2^24 pairs at k = 2
    with pytest.raises(RegimeError, match="k=2, D=65"):
        channel_distance(spec, 2)


def test_ensemble_superoperator_discrete_matches_channel():
    ens = pauli_group()
    s = ensemble_superoperator(ens, 1)
    rng = np.random.default_rng(0)
    O = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    via_s = (s @ O.reshape(-1)).reshape(2, 2)
    direct = channel_monte_carlo(ens, 1, O)
    assert np.allclose(via_s, direct)


def test_ensemble_superoperator_is_bit_identical_to_kron_sum():
    # the superoperator is accumulated in place, one row slab at a time; the
    # sum it replaces is sum p kron((U^{x k})^dagger, (U^{x k})^T), and every
    # entry is still p (a_ik b_jl) added in the same order
    def term(u, k):
        uk = np.array([[1.0 + 0.0j]])
        for _ in range(k):
            uk = np.kron(uk, u)
        return np.kron(uk.conj().T, uk.T)

    rng = np.random.default_rng(17)
    unitaries = [sample_haar(3, rng) for _ in range(4)]
    discrete = DiscreteEnsemble(unitaries, np.array([0.1, 0.2, 0.3, 0.4]))
    for k in (1, 2):
        want = np.zeros((9**k, 9**k), dtype=complex)
        for p, u in zip(discrete.probabilities, unitaries):
            want += p * term(u, k)
        assert np.array_equal(ensemble_superoperator(discrete, k), want)


def test_clifford_group_has_24_elements():
    assert len(clifford_group_1q().unitaries) == 24


def test_estimate_fields():
    est = Estimate(value=1.0 + 0j, std_error=0.1, n_samples=10)
    assert est.n_samples == 10
