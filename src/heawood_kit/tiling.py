"""The infinite permutahedral tiling of the affine slice.

Vertices are integer points whose coordinates sum to 1 + 2 + ... + (d+1)
and hit every residue mod d+1.  Edges step by e_j - e_i.  Tiles are
translates of the permutahedron by lattice vectors; faces of a tile are
named by ordered partitions of [d+1] together with a lattice offset, with
block rotation trading against lattice translation.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, permutations
from typing import Iterable, Sequence

from .lattice import canonicalize, from_ambient, to_ambient


class SliceError(ValueError):
    """A point is off the affine slice of the tiling."""


def slice_total(n: int) -> int:
    return n * (n + 1) // 2


def is_tiling_vertex(x: Sequence[int]) -> bool:
    """Sum matches the slice and residues mod d+1 are all distinct."""
    n = len(x)
    if n < 2 or sum(x) != slice_total(n):
        return False
    return len({v % n for v in x}) == n


def neighbors(x: Sequence[int]) -> list[tuple[int, ...]]:
    """The d+1 adjacent vertices of x.

    Fast rule: a step e_j - e_i keeps the residue system intact exactly
    when x_i is one more than x_j mod d+1.  The definitional filter over
    all (i, j) moves is kept in tests as the oracle.
    """
    n = len(x)
    out = []
    for i in range(n):
        for j in range(n):
            if i != j and (x[i] - x[j] - 1) % n == 0:
                y = list(x)
                y[i] -= 1
                y[j] += 1
                out.append(tuple(y))
    return out


def base_permutation(x: Sequence[int], shift: int = 0) -> tuple[int, ...]:
    """The permutation p of [d+1] with p_a congruent to x_a - shift mod d+1."""
    n = len(x)
    p = tuple((x[a] - shift - 1) % n + 1 for a in range(n))
    return p


def tiles_containing(x: Sequence[int]) -> list[tuple[int, ...]]:
    """Canonical offsets of the d+1 tiles incident to a vertex.

    For each residue shift c there is a unique permutation p with
    p_a congruent to x_a - c, and x - p is a lattice vector; x is then a
    vertex of the tile sitting at that offset.
    """
    n = len(x)
    out = []
    for c in range(n):
        p = base_permutation(x, c)
        out.append(from_ambient(tuple(xa - pa for xa, pa in zip(x, p))))
    return out


@dataclass(frozen=True)
class OrderedPartition:
    """Ordered tuple of disjoint blocks covering [d+1]."""

    blocks: tuple[frozenset[int], ...]

    def __post_init__(self) -> None:
        ground = set()
        for b in self.blocks:
            if not b:
                raise ValueError("empty block")
            if ground & b:
                raise ValueError("blocks overlap")
            ground |= set(b)
        n = len(ground)
        if ground != set(range(1, n + 1)):
            raise ValueError("blocks must cover 1..d+1")

    @classmethod
    def of(cls, *blocks: Iterable[int]) -> "OrderedPartition":
        return cls(tuple(frozenset(b) for b in blocks))

    @property
    def n(self) -> int:
        return sum(len(b) for b in self.blocks)

    def rotate(self) -> "OrderedPartition":
        return OrderedPartition(self.blocks[1:] + self.blocks[:1])


@dataclass(frozen=True)
class TilingFace:
    """A face of some tile: ordered partition plus lattice offset.

    The offset is a canonical coefficient tuple.  The face name is
    canonical when 1 lies in the first block.
    """

    partition: OrderedPartition
    offset: tuple[int, ...]

    @property
    def is_canonical(self) -> bool:
        return 1 in self.partition.blocks[0]


def rotate_partition(f: TilingFace) -> TilingFace:
    """Same geometric face, first block cycled to the back.

    The rotated partition at offset zero equals the original partition
    translated by the sum of w_b over b in the first block, so renaming
    subtracts that block's indicator vector from the offset.
    """
    first = f.partition.blocks[0]
    shifted = list(f.offset)
    for b in first:
        shifted[b - 1] -= 1
    return TilingFace(f.partition.rotate(), canonicalize(shifted))


def canonical_face(f: TilingFace) -> TilingFace:
    """Rotate as few times as needed so 1 lands in the first block."""
    g = TilingFace(f.partition, canonicalize(f.offset))
    for _ in range(len(f.partition.blocks)):
        if g.is_canonical:
            return g
        g = rotate_partition(g)
    raise ValueError("element 1 missing from every block")


def face_vertices(f: TilingFace) -> set[tuple[int, ...]]:
    """Coordinate set of the face's vertices.

    Block i receives the value range just above the preceding blocks;
    vertices are all assignments of those values within each block,
    translated by the ambient offset.
    """
    n = f.partition.n
    shift = to_ambient(f.offset)
    fills: list[list[dict[int, int]]] = []
    lo = 1
    for block in f.partition.blocks:
        members = sorted(block)
        values = range(lo, lo + len(block))
        fills.append(
            [dict(zip(members, perm)) for perm in permutations(values)]
        )
        lo += len(block)
    out = set()
    stack: list[dict[int, int]] = [{}]
    for options in fills:
        stack = [{**acc, **opt} for acc in stack for opt in options]
    for assignment in stack:
        out.add(tuple(assignment[a] + shift[a - 1] for a in range(1, n + 1)))
    return out


def permutahedron_membership(
    point: Sequence[Fraction | int], offset: Sequence[int] | None = None
) -> str:
    """Classify a point against the tile at a given offset.

    Returns 'interior', 'boundary', or 'outside' by checking every proper
    subset inequality sum_{a in A} x_a >= 1 + ... + |A|.
    """
    n = len(point)
    x = [Fraction(v) for v in point]
    if offset is not None:
        shift = to_ambient(offset)
        x = [v - s for v, s in zip(x, shift)]
    if sum(x) != slice_total(n):
        raise SliceError("point is off the affine slice")
    tight = False
    for size in range(1, n):
        floor = slice_total(size)
        for subset in combinations(range(n), size):
            s = sum(x[a] for a in subset)
            if s < floor:
                return "outside"
            if s == floor:
                tight = True
    return "boundary" if tight else "interior"
