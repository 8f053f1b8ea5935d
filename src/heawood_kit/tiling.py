"""The infinite permutahedral tiling of the affine slice.

Vertices are integer points whose coordinates sum to 1 + 2 + ... + (d+1)
and hit every residue mod d+1.  Edges step by e_j - e_i.  Tiles are
translates of the permutahedron by lattice vectors.
"""

from __future__ import annotations

from typing import Sequence


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


def base_permutation(x: Sequence[int], shift: int = 0) -> tuple[int, ...]:
    """The permutation p of [d+1] with p_a congruent to x_a - shift mod d+1."""
    n = len(x)
    p = tuple((x[a] - shift - 1) % n + 1 for a in range(n))
    return p
