"""Reference routes through the non-crossing lattice for the `kfree` tests.

`kfree.partitions` reads both the Kreweras complement and the Moebius
function off the orbits of one permutation.  The oracles here take the
older, independent routes:

- `kreweras_by_chords` joins dual points on the interleaved circle that no
  block polygon separates, with a union-find;
- `moebius_by_relabelling` factorizes [sigma, pi] over the blocks of pi,
  relabels each restriction to 1..|W| and reads mu(., 1_|W|) off the chord
  complement;
- `inverse_kreweras` is the chord-free inverse through a cyclic shift
  (`shift`);
- `moebius_table_pairwise` lists `kfree nc --moebius`'s intervals one pair at
  a time, each sigma built as a `Partition` and mu(sigma, pi) read off the
  relative orbits;
- the conjugation route embeds NC(k) in S_k (`nc_to_permutation`,
  `is_nc_canonical`), conjugates a permutation to a non-crossing canonical
  form (`canonicalize_by_conjugation`) and evaluates the lattice Moebius
  function there (`moebius_between_permutations`), which gives the leading
  large-D Weingarten entry (`weingarten_asymptotic`).
"""

import itertools
from fractions import Fraction

from kfree.partitions import Partition, _moebius, _nc_partitions_of, catalan, enumerate_nc, is_noncrossing, moebius_nc
from kfree.permutations import (
    NCEmbeddingError,
    Permutation,
    compose,
    identity,
    inverse,
    on_geodesic,
    permutation_to_nc,
)


def _same_arc(x: int, y: int, chord: tuple[int, ...]) -> bool:
    """Whether circle positions x < y avoid separation by the polygon `chord`."""
    inside = sum(1 for s in chord if x < s < y)
    return inside == 0 or inside == len(chord)


def kreweras_by_chords(pi: Partition) -> Partition:
    """Kreweras complement on the interleaved circle A1 B1 A2 B2 ... An Bn.

    Element i of the input sits at circle position 2i-1, its dual point at
    position 2i.  Dual points are joined exactly when no block polygon of
    the input separates them.
    """
    if not is_noncrossing(pi):
        raise ValueError(f"Kreweras complement requires a non-crossing partition: {pi}")
    n = pi.n
    chords = [tuple(2 * a - 1 for a in b) for b in pi.blocks]
    parent = list(range(n + 1))

    def find(a: int) -> int:
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for i, j in itertools.combinations(range(1, n + 1), 2):
        if all(_same_arc(2 * i, 2 * j, ch) for ch in chords):
            parent[find(i)] = find(j)

    groups: dict[int, list[int]] = {}
    for i in range(1, n + 1):
        groups.setdefault(find(i), []).append(i)
    return Partition.from_blocks(n, groups.values())


def _moebius_to_top(sigma: Partition) -> int:
    """mu(sigma, 1_n) as a Catalan product over the chord complement."""
    out = 1
    for block in kreweras_by_chords(sigma).blocks:
        out *= (-1) ** (len(block) - 1) * catalan(len(block) - 1)
    return out


def moebius_by_relabelling(sigma: Partition, pi: Partition) -> int:
    """mu(sigma, pi) as the product over blocks W of pi of
    mu(sigma restricted to W, 1_|W|), each restriction relabelled 1..|W|."""
    out = 1
    for block in pi.blocks:
        pos = {x: i for i, x in enumerate(block, start=1)}
        inner = [[pos[x] for x in b] for b in sigma.blocks if b[0] in pos]
        out *= _moebius_to_top(Partition.from_blocks(len(block), inner))
    return out


def moebius_table_pairwise(n: int) -> dict[str, int]:
    """{"sigma <= pi": mu(sigma, pi)} over the intervals of NC(n): each sigma
    is one NC partition of every block of pi, built as a `Partition`, and
    mu(sigma, pi) comes from the orbits of P_sigma^-1 P_pi."""
    table = {}
    for p in enumerate_nc(n):
        for pieces in itertools.product(*(_nc_partitions_of(b) for b in p.blocks)):
            s = Partition.from_blocks(n, itertools.chain.from_iterable(pieces))
            table[f"{s} <= {p}"] = _moebius(s, p)
    return table


def shift(p: Partition, delta: int) -> Partition:
    """Relabel every element i -> i + delta cyclically on {1..n}."""
    n = p.n
    return Partition.from_blocks(
        n, [[(x - 1 + delta) % n + 1 for x in b] for b in p.blocks]
    )


def inverse_kreweras(pi: Partition) -> Partition:
    """Inverse of the Kreweras complement.

    Applying the complement twice shifts every label down by one on the
    circle, so the inverse is the complement of the up-shifted partition.
    """
    if not is_noncrossing(pi):
        raise ValueError(f"inverse Kreweras requires a non-crossing partition: {pi}")
    return kreweras_by_chords(shift(pi, +1))


def is_nc_canonical(alpha: Permutation) -> bool:
    try:
        permutation_to_nc(alpha)
        return True
    except NCEmbeddingError:
        return False


def nc_to_permutation(p: Partition) -> Permutation:
    """Inverse embedding: each block becomes a counterclockwise cycle."""
    if not is_noncrossing(p):
        raise ValueError(f"partition must be non-crossing: {p}")
    images = [0] * p.n
    for b in p.blocks:
        for i, x in enumerate(b):
            images[x - 1] = b[(i + 1) % len(b)]
    return Permutation(tuple(images))


def canonicalize_by_conjugation(alpha: Permutation) -> tuple[Permutation, Permutation]:
    """Find (rho, alpha') with alpha' = rho^-1 alpha rho satisfying the
    embedding conditions (always possible: cycle type is preserved).

    rho is the identity when alpha is already canonical; otherwise it lays
    the cycles out as consecutive intervals, ordered by least element and
    each traversed counterclockwise from its least element.
    """
    if is_nc_canonical(alpha):
        return identity(alpha.k), alpha
    layout = tuple(x for cyc in alpha.cycles() for x in cyc)
    rho = Permutation(layout)
    alpha_c = compose(compose(inverse(rho), alpha), rho)
    assert is_nc_canonical(alpha_c)
    return rho, alpha_c


def moebius_between_permutations(beta: Permutation, alpha: Permutation) -> int:
    """NC-lattice Moebius value between geodesic beta and alpha.

    The pair is conjugated so alpha becomes canonical, both are mapped to
    their orbit partitions, and the lattice Moebius function is applied.
    """
    if not on_geodesic(beta, alpha):
        raise ValueError(f"{beta} is not on the geodesic to {alpha}")
    rho, alpha_c = canonicalize_by_conjugation(alpha)
    beta_c = compose(compose(inverse(rho), beta), rho)
    return moebius_nc(permutation_to_nc(beta_c), permutation_to_nc(alpha_c))


def weingarten_asymptotic(alpha: Permutation, beta: Permutation, D: int) -> Fraction:
    """Leading large-D Weingarten entry.

    mu(beta, alpha) / D^(2k - #(beta^-1 alpha)) when beta lies on the
    geodesic from the identity to alpha, zero otherwise (higher order).
    """
    if alpha.k != beta.k:
        raise ValueError("sizes differ")
    k = alpha.k
    if not on_geodesic(beta, alpha):
        return Fraction(0)
    mu = moebius_between_permutations(beta, alpha)
    rel = compose(inverse(beta), alpha)
    return Fraction(mu, D ** (2 * k - rel.num_cycles()))
