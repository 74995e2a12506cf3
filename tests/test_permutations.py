"""Symmetric-group algebra, Cayley geodesics, and the NC embedding."""

from collections import deque

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kfree.partitions import Partition, catalan, enumerate_nc, kreweras_complement
from kfree.permutations import (
    NCEmbeddingError,
    Permutation,
    all_permutations,
    compose,
    full_cycle,
    geodesic_set,
    identity,
    inverse,
    on_geodesic,
    permutation_to_nc,
)

from nc_oracles import canonicalize_by_conjugation, nc_to_permutation


def perm_strategy(k):
    return st.permutations(list(range(1, k + 1))).map(lambda xs: Permutation(tuple(xs)))


def test_rejects_non_bijection():
    with pytest.raises(ValueError):
        Permutation((1, 1, 3))


def test_compose_against_s3_table():
    # exhaustive multiplication table oracle: apply to every point
    for a in all_permutations(3):
        for b in all_permutations(3):
            c = compose(a, b)
            for i in (1, 2, 3):
                assert c(i) == a(b(i))


def test_inverse_and_identity():
    for a in all_permutations(4):
        assert compose(a, inverse(a)) == identity(4)
        assert compose(inverse(a), a) == identity(4)
        assert compose(identity(4), a) == a


def test_compose_requires_same_size():
    with pytest.raises(ValueError):
        compose(identity(3), identity(4))


def test_cycle_structure_examples():
    assert identity(5).num_cycles() == 5
    assert full_cycle(5).num_cycles() == 1
    assert Permutation((2, 1, 4, 3)).num_cycles() == 2
    assert Permutation((2, 1, 4, 3)).cycles() == ((1, 2), (3, 4))


def test_length_examples():
    assert identity(4).length() == 0
    assert full_cycle(6).length() == 5
    assert Permutation((2, 1, 3)).length() == 1


def _bfs_transposition_distance(alpha):
    k = alpha.k
    start = identity(k)
    transpositions = []
    for i in range(1, k + 1):
        for j in range(i + 1, k + 1):
            img = list(range(1, k + 1))
            img[i - 1], img[j - 1] = j, i
            transpositions.append(Permutation(tuple(img)))
    seen = {start: 0}
    queue = deque([start])
    while queue:
        cur = queue.popleft()
        if cur == alpha:
            return seen[cur]
        for t in transpositions:
            nxt = compose(t, cur)
            if nxt not in seen:
                seen[nxt] = seen[cur] + 1
                queue.append(nxt)
    raise AssertionError("unreachable")


@pytest.mark.parametrize("k", [2, 3, 4])
def test_length_equals_bfs_distance_exhaustive(k):
    for a in all_permutations(k):
        assert a.length() == _bfs_transposition_distance(a)


@settings(max_examples=25, deadline=None)
@given(perm_strategy(5))
def test_length_equals_bfs_distance_k5(a):
    assert a.length() == _bfs_transposition_distance(a)


def test_length_triangle_inequality_s4():
    for a in all_permutations(4):
        for b in all_permutations(4):
            assert compose(a, b).length() <= a.length() + b.length()


def test_on_geodesic_endpoints():
    gamma = full_cycle(4)
    assert on_geodesic(identity(4), gamma)
    assert on_geodesic(gamma, gamma)


def test_geodesic_count_s3():
    assert len(geodesic_set(full_cycle(3))) == 5


def test_geodesic_of_identity():
    assert geodesic_set(identity(4)) == [identity(4)]


@pytest.mark.parametrize("k", range(2, 7))
def test_geodesic_catalan_and_nc_bijection(k):
    geo = geodesic_set(full_cycle(k))
    assert len(geo) == catalan(k)
    images = [permutation_to_nc(b) for b in geo]
    assert len(set(images)) == len(images)
    assert set(images) == set(enumerate_nc(k))


@pytest.mark.parametrize("k", range(2, 7))
def test_geodesic_kreweras_duality(k):
    gamma = full_cycle(k)
    for beta in geodesic_set(gamma):
        co = compose(inverse(beta), gamma)
        assert co.orbit_partition() == kreweras_complement(permutation_to_nc(beta))


def test_embedding_examples():
    assert permutation_to_nc(identity(4)) == Partition.singletons(4)
    assert permutation_to_nc(full_cycle(4)) == Partition.full(4)
    # transpositions are direction-neutral
    assert permutation_to_nc(Permutation((1, 3, 2))) == Partition.from_blocks(3, [[1], [2, 3]])
    with pytest.raises(NCEmbeddingError) as exc:
        permutation_to_nc(Permutation((3, 1, 2)))  # clockwise 3-cycle
    assert exc.value.failed_condition == "direction"
    with pytest.raises(NCEmbeddingError) as exc:
        permutation_to_nc(Permutation((3, 4, 1, 2)))  # orbits {1,3},{2,4} cross
    assert exc.value.failed_condition == "crossing"


def test_nc_to_permutation_inverts_embedding():
    for n in range(1, 7):
        for p in enumerate_nc(n):
            assert permutation_to_nc(nc_to_permutation(p)) == p


def test_canonicalize_identity_when_already_canonical():
    for alpha in (identity(4), full_cycle(4), Permutation((1, 3, 2))):
        rho, alpha_c = canonicalize_by_conjugation(alpha)
        assert rho == identity(alpha.k)
        assert alpha_c == alpha


def test_canonicalize_single_cycle_gives_full_cycle():
    for alpha in all_permutations(5):
        if alpha.num_cycles() == 1:
            _, alpha_c = canonicalize_by_conjugation(alpha)
            assert alpha_c == full_cycle(5)


@settings(max_examples=100, deadline=None)
@given(perm_strategy(6))
def test_canonicalize_conjugation_properties(alpha):
    rho, alpha_c = canonicalize_by_conjugation(alpha)
    assert compose(compose(inverse(rho), alpha), rho) == alpha_c
    assert alpha_c.cycle_type() == alpha.cycle_type()
    permutation_to_nc(alpha_c)  # must not raise


@settings(max_examples=60, deadline=None)
@given(perm_strategy(5), perm_strategy(5))
def test_conjugation_preserves_cycle_count(alpha, rho):
    conj = compose(compose(inverse(rho), alpha), rho)
    assert conj.num_cycles() == alpha.num_cycles()
