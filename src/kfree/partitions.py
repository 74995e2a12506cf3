"""Set partitions, the non-crossing lattice NC(n), and Kreweras duality.

The Moebius function of NC(n) is closed-form (Nica-Speicher, Lectures 9-10):
mu(sigma, 1_n) is the product over blocks V of the Kreweras complement
K(sigma) of (-1)^(|V|-1) Cat(|V|-1), and every interval [sigma, pi]
factorizes over the blocks of pi into intervals of that form.

Partitions are kept in a canonical block form: each block is an ascending
tuple and blocks are ordered by their least element.  Equal partitions
therefore compare and hash equal, so they can index dictionaries and be
frozen into golden test files.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache
from math import comb
from typing import Iterable, Iterator

DEFAULT_ENUMERATION_LIMIT = 10


class PartitionSizeError(ValueError):
    """Enumeration request beyond the configured ground-set limit."""


def catalan(n: int) -> int:
    return comb(2 * n, n) // (n + 1)


@dataclass(frozen=True)
class Partition:
    """A set partition of {1..n} in canonical block form."""

    n: int
    blocks: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        covered = sorted(x for b in self.blocks for x in b)
        if covered != list(range(1, self.n + 1)):
            raise ValueError(f"blocks do not partition 1..{self.n}: {self.blocks!r}")
        for b in self.blocks:
            if tuple(sorted(b)) != b:
                raise ValueError(f"block not sorted ascending: {b!r}")
        if list(self.blocks) != sorted(self.blocks, key=lambda b: b[0]):
            raise ValueError("blocks must be ordered by least element")

    @classmethod
    def from_blocks(cls, n: int, blocks: Iterable[Iterable[int]]) -> "Partition":
        canon = tuple(sorted((tuple(sorted(b)) for b in blocks), key=lambda b: b[0]))
        return cls(n, canon)

    @classmethod
    def singletons(cls, n: int) -> "Partition":
        return cls(n, tuple((i,) for i in range(1, n + 1)))

    @classmethod
    def full(cls, n: int) -> "Partition":
        return cls(n, (tuple(range(1, n + 1)),))

    def num_blocks(self) -> int:
        return len(self.blocks)

    def block_index(self) -> dict[int, int]:
        """Map each element to the position of its block in `blocks`."""
        out: dict[int, int] = {}
        for j, b in enumerate(self.blocks):
            for x in b:
                out[x] = j
        return out

    def shift(self, delta: int) -> "Partition":
        """Relabel every element i -> i + delta cyclically on {1..n}."""
        n = self.n
        return Partition.from_blocks(
            n, [[(x - 1 + delta) % n + 1 for x in b] for b in self.blocks]
        )

    def __str__(self) -> str:
        return "{" + ", ".join("{" + ",".join(map(str, b)) + "}" for b in self.blocks) + "}"


def is_noncrossing(p: Partition) -> bool:
    """True iff no a<b<c<d exist with {a,c} in one block and {b,d} in another."""
    idx = p.block_index()
    n = p.n
    for b in p.blocks:
        if len(b) < 2:
            continue
        # successive elements of a block delimit arcs; any element inside an
        # arc whose partner lies outside would produce a crossing quadruple
        for lo, hi in zip(b, b[1:]):
            for m in range(lo + 1, hi):
                if idx[m] == idx[lo]:
                    continue
                partner_block = p.blocks[idx[m]]
                if any(x < lo or x > hi for x in partner_block):
                    return False
    return True


def leq(sigma: Partition, pi: Partition) -> bool:
    """Refinement order: every block of sigma lies inside some block of pi."""
    if sigma.n != pi.n:
        raise ValueError(f"ground sets differ: {sigma.n} vs {pi.n}")
    idx = pi.block_index()
    for b in sigma.blocks:
        target = idx[b[0]]
        if any(idx[x] != target for x in b[1:]):
            return False
    return True


def iter_set_partitions(n: int) -> Iterator[Partition]:
    """All set partitions of {1..n} (restricted-growth enumeration)."""
    if n == 0:
        yield Partition(0, ())
        return
    blocks: list[list[int]] = []

    def rec(i: int):
        if i > n:
            yield Partition(n, tuple(tuple(b) for b in blocks))
            return
        for b in blocks:
            b.append(i)
            yield from rec(i + 1)
            b.pop()
        blocks.append([i])
        yield from rec(i + 1)
        blocks.pop()

    yield from rec(1)


def _nc_partitions_of(elems: tuple[int, ...]) -> Iterator[tuple[tuple[int, ...], ...]]:
    """Non-crossing partitions of an ordered ground set, as block tuples.

    The block of the first element is chosen; the leftover elements split
    into independent gaps between consecutive chosen elements, which is what
    enforces non-crossing and yields the Catalan recursion.
    """
    if not elems:
        yield ()
        return
    first, rest = elems[0], elems[1:]
    m = len(rest)
    for r in range(m + 1):
        for picks in itertools.combinations(range(m), r):
            block = (first,) + tuple(rest[i] for i in picks)
            gaps = []
            prev = -1
            for i in picks:
                gaps.append(rest[prev + 1 : i])
                prev = i
            gaps.append(rest[prev + 1 :])
            for sub in itertools.product(*(_nc_partitions_of(g) for g in gaps)):
                yield (block,) + tuple(itertools.chain.from_iterable(sub))


def enumerate_nc(n: int, limit: int = DEFAULT_ENUMERATION_LIMIT) -> list[Partition]:
    """All of NC(n) in a deterministic order; |NC(n)| = Catalan(n)."""
    if n < 1:
        raise ValueError("ground set must be nonempty")
    if n > limit:
        raise PartitionSizeError(f"n={n} exceeds enumeration limit {limit}")
    return [Partition.from_blocks(n, blocks) for blocks in _nc_partitions_of(tuple(range(1, n + 1)))]


def _same_arc(x: int, y: int, chord: tuple[int, ...]) -> bool:
    """Whether circle positions x < y avoid separation by the polygon `chord`."""
    inside = sum(1 for s in chord if x < s < y)
    return inside == 0 or inside == len(chord)


def kreweras_complement(pi: Partition) -> Partition:
    """Kreweras complement on the interleaved circle A1 B1 A2 B2 ... An Bn.

    Element i of the input sits at circle position 2i-1, its dual point at
    position 2i.  Dual points are joined exactly when no block polygon of
    the input separates them, i.e. the complement blocks are the maximal
    dual polygons that do not cross the input ones.
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


def inverse_kreweras(pi: Partition) -> Partition:
    """Inverse of the Kreweras complement.

    Applying the complement twice shifts every label down by one on the
    circle, so the inverse is the complement of the up-shifted partition.
    """
    if not is_noncrossing(pi):
        raise ValueError(f"inverse Kreweras requires a non-crossing partition: {pi}")
    return kreweras_complement(pi.shift(+1))


@lru_cache(maxsize=None)
def _moebius_to_top(sigma: Partition) -> int:
    """mu(sigma, 1_n) as a Catalan product over the Kreweras complement."""
    out = 1
    for block in kreweras_complement(sigma).blocks:
        out *= (-1) ** (len(block) - 1) * catalan(len(block) - 1)
    return out


@lru_cache(maxsize=None)
def nc_moebius_table(n: int) -> tuple[tuple[Partition, int], ...]:
    """(sigma, mu(sigma, 1_n)) for every sigma in NC(n), in `enumerate_nc` order."""
    return tuple((sigma, _moebius_to_top(sigma)) for sigma in enumerate_nc(n))


def moebius_nc(sigma: Partition, pi: Partition) -> int:
    """Moebius function on NC(n) between non-crossing sigma <= pi.

    The interval [sigma, pi] is the product over blocks W of pi of the
    intervals [sigma restricted to W, 1_|W|], each relabelled 1..|W|.
    """
    if not (is_noncrossing(sigma) and is_noncrossing(pi)):
        raise ValueError("moebius_nc requires non-crossing arguments")
    if not leq(sigma, pi):
        raise ValueError(f"{sigma} is not below {pi}")
    out = 1
    for block in pi.blocks:
        pos = {x: i for i, x in enumerate(block, start=1)}
        inner = [[pos[x] for x in b] for b in sigma.blocks if b[0] in pos]
        out *= _moebius_to_top(Partition.from_blocks(len(block), inner))
    return out
