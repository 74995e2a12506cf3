"""Canonical partitions, the non-crossing lattice, Moebius, Kreweras."""

import itertools
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kfree import partitions
from kfree.partitions import (
    DEFAULT_ENUMERATION_LIMIT,
    Partition,
    PartitionSizeError,
    catalan,
    enumerate_nc,
    is_noncrossing,
    kreweras_complement,
    leq,
    moebius_nc,
    weighted_set_partitions,
)
from kfree.permutations import compose, inverse

from eth_oracles import iter_set_partitions, partition_lattice_moebius
from nc_oracles import inverse_kreweras, kreweras_by_chords, moebius_by_relabelling, nc_to_permutation, shift


def test_canonical_form_unique():
    a = Partition.from_blocks(4, [[3, 1], [4, 2]])
    b = Partition.from_blocks(4, [[2, 4], [1, 3]])
    assert a == b
    assert hash(a) == hash(b)
    assert a.blocks == ((1, 3), (2, 4))


def test_invalid_blocks_rejected():
    with pytest.raises(ValueError):
        Partition.from_blocks(3, [[1, 2]])
    with pytest.raises(ValueError):
        Partition.from_blocks(3, [[1, 2], [2, 3]])


def test_is_noncrossing_examples():
    assert not is_noncrossing(Partition.from_blocks(4, [[1, 3], [2, 4]]))
    assert is_noncrossing(Partition.full(4))
    assert is_noncrossing(Partition.from_blocks(4, [[1, 4], [2, 3]]))


def test_noncrossing_matches_quadruple_scan():
    def crossing_quadruple(p):
        idx = p.block_index()
        for a, b, c, d in itertools.combinations(range(1, p.n + 1), 4):
            if idx[a] == idx[c] and idx[b] == idx[d] and idx[a] != idx[b]:
                return True
        return False

    for p in iter_set_partitions(6):
        assert is_noncrossing(p) == (not crossing_quadruple(p))


@pytest.mark.parametrize("n", range(1, 9))
def test_enumerate_nc_counts(n):
    parts = enumerate_nc(n)
    assert len(parts) == catalan(n)
    assert len(set(parts)) == len(parts)


@pytest.mark.parametrize("n", range(1, 7))
def test_enumerate_nc_equals_filtered_set_partitions(n):
    brute = {p for p in iter_set_partitions(n) if is_noncrossing(p)}
    assert set(enumerate_nc(n)) == brute


def test_enumeration_limit():
    with pytest.raises(PartitionSizeError):
        enumerate_nc(DEFAULT_ENUMERATION_LIMIT + 1)


def test_leq_examples():
    pi = Partition.from_blocks(4, [[1, 2, 3], [4]])
    assert leq(Partition.singletons(4), pi)
    assert leq(Partition.from_blocks(4, [[1, 2], [3], [4]]), pi)
    assert not leq(Partition.from_blocks(4, [[1, 4], [2, 3]]), Partition.from_blocks(4, [[1, 2], [3, 4]]))
    with pytest.raises(ValueError):
        leq(Partition.singletons(3), Partition.singletons(4))


@pytest.mark.parametrize("n", range(1, 7))
def test_leq_partial_order(n):
    parts = enumerate_nc(n)
    for p in parts:
        assert leq(p, p)
    for a in parts:
        for b in parts:
            if leq(a, b) and leq(b, a):
                assert a == b
    for a in parts:
        for b in parts:
            if not leq(a, b):
                continue
            for c in parts:
                if leq(b, c):
                    assert leq(a, c)


def test_moebius_golden_values():
    assert moebius_nc(Partition.full(3), Partition.full(3)) == 1
    assert moebius_nc(Partition.singletons(3), Partition.full(3)) == 2
    assert moebius_nc(Partition.singletons(4), Partition.full(4)) == -5
    assert moebius_nc(Partition.singletons(5), Partition.full(5)) == 14


def test_moebius_requires_order():
    with pytest.raises(ValueError):
        moebius_nc(Partition.full(3), Partition.singletons(3))


@pytest.mark.parametrize("n", range(1, 7))
def test_moebius_zeta_inversion(n):
    parts = enumerate_nc(n)
    for sigma in parts:
        for pi in parts:
            if not leq(sigma, pi):
                continue
            total = sum(moebius_nc(sigma, tau) for tau in parts if leq(sigma, tau) and leq(tau, pi))
            assert total == (1 if sigma == pi else 0)


def test_kreweras_golden_examples():
    assert kreweras_complement(Partition.full(5)) == Partition.singletons(5)
    assert kreweras_complement(Partition.singletons(4)) == Partition.full(4)
    assert kreweras_complement(Partition.from_blocks(4, [[1, 2], [3, 4]])) == Partition.from_blocks(
        4, [[1], [2, 4], [3]]
    )
    assert kreweras_complement(Partition.from_blocks(3, [[1], [2, 3]])) == Partition.from_blocks(
        3, [[1, 3], [2]]
    )


def test_kreweras_rejects_crossing():
    with pytest.raises(ValueError):
        kreweras_complement(Partition.from_blocks(4, [[1, 3], [2, 4]]))


@pytest.mark.parametrize("n", range(1, 7))
def test_kreweras_bijection_and_block_count(n):
    parts = enumerate_nc(n)
    images = [kreweras_complement(p) for p in parts]
    assert len(set(images)) == len(parts)
    for p, img in zip(parts, images):
        assert len(p.blocks) + len(img.blocks) == n + 1


@pytest.mark.parametrize("n", range(1, 7))
def test_inverse_kreweras_roundtrip(n):
    assert inverse_kreweras(Partition.singletons(n)) == Partition.full(n)
    for p in enumerate_nc(n):
        assert inverse_kreweras(kreweras_complement(p)) == p
        assert kreweras_complement(inverse_kreweras(p)) == p


@pytest.mark.parametrize("n", range(2, 7))
def test_double_kreweras_is_cyclic_shift(n):
    for p in enumerate_nc(n):
        assert kreweras_complement(kreweras_complement(p)) == shift(p, -1)


def _kreweras_mismatches(n_max):
    return [p for n in range(1, n_max + 1) for p in enumerate_nc(n) if kreweras_complement(p) != kreweras_by_chords(p)]


def _moebius_mismatches(n_max):
    out = []
    for n in range(1, n_max + 1):
        parts = enumerate_nc(n)
        for sigma, pi in itertools.product(parts, parts):
            if leq(sigma, pi) and moebius_nc(sigma, pi) != moebius_by_relabelling(sigma, pi):
                out.append((sigma, pi))
    return out


def test_kreweras_matches_chord_oracle():
    assert _kreweras_mismatches(8) == []


def test_moebius_matches_relabelling_oracle():
    assert _moebius_mismatches(6) == []


def test_differential_checks_catch_a_reversed_orbit_or_a_dropped_sign(monkeypatch):
    orbits = partitions._relative_orbits

    # P_p sending each element to the previous one in its block turns
    # P_sigma^-1 P_pi into P_sigma P_pi^-1: the complement comes out rotated.
    # The Moebius value survives that mutant, since the two products are
    # conjugate and the signed Catalan product reads only the orbit sizes.
    def reversed_orbits(sigma, pi):
        return compose(nc_to_permutation(sigma), inverse(nc_to_permutation(pi))).orbit_partition()

    def unsigned_moebius(sigma, pi):
        return math.prod(catalan(len(b) - 1) for b in orbits(sigma, pi).blocks)

    monkeypatch.setattr(partitions, "_relative_orbits", reversed_orbits)
    assert _kreweras_mismatches(4) != []
    assert _moebius_mismatches(4) == []
    monkeypatch.setattr(partitions, "_relative_orbits", orbits)
    monkeypatch.setattr(partitions, "_moebius", unsigned_moebius)
    assert _moebius_mismatches(4) != []


def test_partition_lattice_moebius_blocks():
    zero = Partition.singletons(4)
    assert partition_lattice_moebius(zero, Partition.full(4)) == -6  # (-1)^3 3!
    assert partition_lattice_moebius(zero, Partition.from_blocks(4, [[1, 2], [3, 4]])) == 1
    assert partition_lattice_moebius(zero, zero) == 1


@pytest.mark.parametrize("n", range(0, 7))
def test_unpruned_walk_is_the_set_partition_lattice_with_moebius_weights(n):
    # nothing pruned, the walk lists every set partition in restricted-growth
    # order, each with its default weight mu(0_n, Q)
    zero = Partition.singletons(n)
    want = tuple((q, partition_lattice_moebius(zero, q)) for q in iter_set_partitions(n))
    assert weighted_set_partitions(n, lambda g, s: True) == want
    assert len(want) == (1, 1, 2, 5, 15, 52, 203)[n]


def test_partition_lattice_moebius_zeta_inversion():
    parts = list(iter_set_partitions(4))
    for sigma in parts:
        for pi in parts:
            if not leq(sigma, pi):
                continue
            total = sum(
                partition_lattice_moebius(sigma, tau) for tau in parts if leq(sigma, tau) and leq(tau, pi)
            )
            assert total == (1 if sigma == pi else 0)


@st.composite
def random_partition(draw, max_n=6):
    n = draw(st.integers(min_value=1, max_value=max_n))
    labels = draw(st.lists(st.integers(min_value=0, max_value=n - 1), min_size=n, max_size=n))
    blocks: dict[int, list[int]] = {}
    for i, lab in enumerate(labels, start=1):
        blocks.setdefault(lab, []).append(i)
    return Partition.from_blocks(n, blocks.values())


@settings(max_examples=80, deadline=None)
@given(random_partition())
def test_partition_roundtrips_canonical(p):
    rebuilt = Partition.from_blocks(p.n, [list(b) for b in p.blocks])
    assert rebuilt == p
    assert shift(shift(p, 1), -1) == p
    assert sum(len(b) for b in p.blocks) == p.n


@settings(max_examples=60, deadline=None)
@given(random_partition(max_n=5), random_partition(max_n=5))
def test_leq_refinement_semantics(a, b):
    if a.n != b.n:
        return
    idx = b.block_index()
    manual = all(len({idx[x] for x in blk}) == 1 for blk in a.blocks)
    assert leq(a, b) == manual
