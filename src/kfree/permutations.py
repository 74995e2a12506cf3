"""The symmetric group S_k: composition, cycles, Cayley length, geodesics,
and the embedding of non-crossing partitions into S_k.

One-line notation is 1-based: ``Permutation((2, 3, 1))`` maps 1->2, 2->3,
3->1.  Composition is function composition, ``compose(a, b)(i) == a(b(i))``.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .partitions import Partition, is_noncrossing


@dataclass(frozen=True)
class Permutation:
    images: tuple[int, ...]

    def __post_init__(self):
        k = len(self.images)
        if sorted(self.images) != list(range(1, k + 1)):
            raise ValueError(f"not a permutation of 1..{k}: {self.images!r}")

    @property
    def k(self) -> int:
        return len(self.images)

    def __call__(self, i: int) -> int:
        return self.images[i - 1]

    def cycles(self) -> tuple[tuple[int, ...], ...]:
        """Orbits, each listed from its least element following the map."""
        seen = [False] * (self.k + 1)
        out = []
        for start in range(1, self.k + 1):
            if seen[start]:
                continue
            cyc = [start]
            seen[start] = True
            nxt = self(start)
            while nxt != start:
                cyc.append(nxt)
                seen[nxt] = True
                nxt = self(nxt)
            out.append(tuple(cyc))
        return tuple(out)

    def num_cycles(self) -> int:
        return len(self.cycles())

    def length(self) -> int:
        """Cayley length: least number of transpositions, k - #cycles."""
        return self.k - self.num_cycles()

    def cycle_type(self) -> tuple[int, ...]:
        return tuple(sorted((len(c) for c in self.cycles()), reverse=True))

    def orbit_partition(self) -> Partition:
        return Partition.from_blocks(self.k, self.cycles())

    def __str__(self) -> str:
        return "(" + ",".join(map(str, self.images)) + ")"


def identity(k: int) -> Permutation:
    return Permutation(tuple(range(1, k + 1)))


def full_cycle(k: int) -> Permutation:
    """The counterclockwise cycle 1->2->...->k->1."""
    return Permutation(tuple(range(2, k + 1)) + (1,))


def compose(a: Permutation, b: Permutation) -> Permutation:
    """Function composition: apply b first, then a."""
    if a.k != b.k:
        raise ValueError(f"sizes differ: {a.k} vs {b.k}")
    return Permutation(tuple(a(b(i)) for i in range(1, a.k + 1)))


def inverse(a: Permutation) -> Permutation:
    inv = [0] * a.k
    for i, j in enumerate(a.images, start=1):
        inv[j - 1] = i
    return Permutation(tuple(inv))


def all_permutations(k: int) -> list[Permutation]:
    """S_k in lexicographic one-line order (the shared indexing convention)."""
    return [Permutation(p) for p in itertools.permutations(range(1, k + 1))]


def on_geodesic(beta: Permutation, alpha: Permutation) -> bool:
    """Whether beta saturates len(beta) + len(beta^-1 alpha) = len(alpha)."""
    if beta.k != alpha.k:
        raise ValueError(f"sizes differ: {beta.k} vs {alpha.k}")
    return beta.length() + compose(inverse(beta), alpha).length() == alpha.length()


def geodesic_set(alpha: Permutation) -> list[Permutation]:
    """All permutations on the geodesic from the identity to alpha.

    Exhaustive filtering; the group sizes in play make anything cleverer
    unnecessary (k <= 7).
    """
    if alpha.k > 7:
        raise ValueError("geodesic enumeration limited to k <= 7")
    return [b for b in all_permutations(alpha.k) if on_geodesic(b, alpha)]


class NCEmbeddingError(ValueError):
    """Permutation does not represent a non-crossing partition.

    `failed_condition` is "direction" when some orbit is traversed against
    the counterclockwise order, "crossing" when the orbit partition crosses.
    """

    def __init__(self, alpha: Permutation, failed_condition: str):
        self.failed_condition = failed_condition
        super().__init__(f"{alpha} rejected: condition {failed_condition!r} failed")


def _counterclockwise(alpha: Permutation, cycle: tuple[int, ...]) -> bool:
    # orbits of size <= 2 have no orientation
    if len(cycle) <= 2:
        return True
    srt = sorted(cycle)
    return all(alpha(srt[i]) == srt[(i + 1) % len(srt)] for i in range(len(srt)))


def permutation_to_nc(alpha: Permutation) -> Partition:
    """Map alpha to its orbit partition when the embedding conditions hold.

    Accepts alpha iff (i) every orbit permutes its elements counterclockwise
    (in sorted order b1<...<bm, alpha(bi) = b(i+1 mod m)) and (ii) the orbit
    partition is non-crossing.  Raises NCEmbeddingError otherwise.
    """
    for cyc in alpha.cycles():
        if not _counterclockwise(alpha, cyc):
            raise NCEmbeddingError(alpha, "direction")
    part = alpha.orbit_partition()
    if not is_noncrossing(part):
        raise NCEmbeddingError(alpha, "crossing")
    return part
