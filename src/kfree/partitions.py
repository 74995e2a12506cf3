"""Set partitions, the non-crossing lattice NC(n), and Kreweras duality.

Both lattice functions come from one permutation (Nica-Speicher, *Lectures
on the Combinatorics of Free Probability*, Lecture 18; Biane, Discrete
Math. 175 (1997)).  Let P_p send each element to the next one in its block
of p, cyclically.  For non-crossing sigma <= pi, the orbits of
P_sigma^-1 P_pi form the relative Kreweras complement K_pi(sigma); with
pi = 1_n they form K(sigma).  The Moebius function is closed-form over
those orbits: mu(sigma, pi) is the product over them of
(-1)^(|V|-1) Cat(|V|-1).

Partitions are kept in a canonical block form: each block is an ascending
tuple and blocks are ordered by their least element.  Equal partitions
therefore compare and hash equal, so they can index dictionaries and be
frozen into golden test files.

`weighted_set_partitions` grows set partitions in restricted-growth order
under a pruning rule, so a sum over the set-partition lattice visits only
the partitions that can carry weight, never all Bell(n) of them.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache
from math import comb, factorial, prod
from typing import Callable, Iterable, Iterator

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

    def block_index(self) -> dict[int, int]:
        """Map each element to the position of its block in `blocks`."""
        out: dict[int, int] = {}
        for j, b in enumerate(self.blocks):
            for x in b:
                out[x] = j
        return out

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


def weighted_set_partitions(
    n: int,
    fits: Callable[[tuple, int], bool],
    weight: Callable[[int], int] | None = None,
    blocks: tuple = (),
    s: int = 1,
) -> tuple[tuple[Partition, int], ...]:
    """(Q, prod over the blocks B of Q of weight(|B|)) for the set partitions
    Q of {1..n} that extend `blocks`, a partition of {1..s-1}, in
    restricted-growth order: element s joins each block in turn, then opens
    its own, and the walk goes on from a grown partition g only where
    fits(g, s).  The default weight (-1)^(|B|-1) (|B|-1)! makes the product
    the Moebius function mu(0_n, Q) of the set-partition lattice."""
    if s > n:
        w = weight or (lambda size: (-1) ** (size - 1) * factorial(size - 1))
        return ((Partition(n, blocks), prod(w(len(b)) for b in blocks)),)
    grown = (blocks[:j] + (b + (s,),) + blocks[j + 1 :] for j, b in enumerate(blocks + ((),)))
    return tuple(q for g in grown if fits(g, s) for q in weighted_set_partitions(n, fits, weight, g, s + 1))


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


def enumerate_nc(n: int) -> list[Partition]:
    """All of NC(n) in a deterministic order; |NC(n)| = Catalan(n)."""
    if n < 1:
        raise ValueError("ground set must be nonempty")
    if n > DEFAULT_ENUMERATION_LIMIT:
        raise PartitionSizeError(f"n={n} exceeds enumeration limit {DEFAULT_ENUMERATION_LIMIT}")
    return [Partition.from_blocks(n, blocks) for blocks in _nc_partitions_of(tuple(range(1, n + 1)))]


def _relative_orbits(sigma: Partition, pi: Partition) -> Partition:
    """Orbit partition of P_sigma^-1 P_pi, where P_p sends each element to
    the next one in its block, cyclically.

    For non-crossing sigma <= pi this is the relative Kreweras complement
    K_pi(sigma); with pi = 1_n, P_pi is the full cycle and the orbits are
    K(sigma).
    """
    n = pi.n
    image = [0] * (n + 1)
    for b in pi.blocks:
        for x, y in zip(b, b[1:] + b[:1]):
            image[x] = y
    preimage = [0] * (n + 1)
    for b in sigma.blocks:
        for x, y in zip(b, b[1:] + b[:1]):
            preimage[y] = x
    seen = [False] * (n + 1)
    orbits = []
    for start in range(1, n + 1):
        if seen[start]:
            continue
        orbit = []
        x = start
        while not seen[x]:
            seen[x] = True
            orbit.append(x)
            x = preimage[image[x]]
        orbits.append(orbit)
    return Partition.from_blocks(n, orbits)


def _moebius(sigma: Partition, pi: Partition) -> int:
    """mu(sigma, pi) for non-crossing sigma <= pi: the signed Catalan product
    over the blocks V of K_pi(sigma) of (-1)^(|V|-1) Cat(|V|-1)."""
    out = 1
    for block in _relative_orbits(sigma, pi).blocks:
        out *= (-1) ** (len(block) - 1) * catalan(len(block) - 1)
    return out


def kreweras_complement(pi: Partition) -> Partition:
    """Kreweras complement on the interleaved circle A1 B1 A2 B2 ... An Bn.

    Element i of the input sits at circle position 2i-1, its dual point at
    position 2i.  The complement blocks are the maximal dual polygons that do
    not cross the input ones: the orbits of P_pi^-1 gamma, with gamma the
    full cycle 1 -> 2 -> ... -> n -> 1.
    """
    if not is_noncrossing(pi):
        raise ValueError(f"Kreweras complement requires a non-crossing partition: {pi}")
    return _relative_orbits(pi, Partition.full(pi.n))


@lru_cache(maxsize=None)
def nc_moebius_table(n: int) -> tuple[tuple[Partition, int], ...]:
    """(sigma, mu(sigma, 1_n)) for every sigma in NC(n), in `enumerate_nc` order."""
    parts = enumerate_nc(n)
    top = Partition.full(n)
    return tuple((sigma, _moebius(sigma, top)) for sigma in parts)


def moebius_nc(sigma: Partition, pi: Partition) -> int:
    """Moebius function on NC(n) between non-crossing sigma <= pi."""
    if not (is_noncrossing(sigma) and is_noncrossing(pi)):
        raise ValueError("moebius_nc requires non-crossing arguments")
    if not leq(sigma, pi):
        raise ValueError(f"{sigma} is not below {pi}")
    return _moebius(sigma, pi)
