"""The infinite permutahedral tiling of the affine slice.

Vertices are integer points whose coordinates sum to 1 + 2 + ... + (d+1)
and hit every residue mod d+1.  Edges step by e_j - e_i.  Tiles are
translates of the permutahedron by lattice vectors.
"""

from __future__ import annotations

from typing import Sequence

from .lattice import from_ambient


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
