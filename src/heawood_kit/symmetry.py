"""Automorphism groups of quotient graphs.

Generator families with closed-form orders: translations along the basis
vectors, the point reflection, and coordinate rotation when the signature
allows it.  An independent exact search, by individualization and color
refinement with orbit pruning, verifies group orders from scratch: it
returns generators of the full group and its order without listing the
elements.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Iterable, Optional, Sequence

from .intlin import IntMatrix, integer_span_contains
from .lattice import KSignature, w_vector
from .quotient import QuotientGraph

DEFAULT_SEARCH_CAP = 200
DEFAULT_CLOSURE_CAP = 10**6


class NotAnAutomorphism(ValueError):
    """A proposed vertex map fails to preserve adjacency."""


class CapExceeded(RuntimeError):
    """A search or closure grew past its configured cap."""


def search_cap(default: int = DEFAULT_SEARCH_CAP) -> int:
    value = os.environ.get("HEAWOOD_CAP")
    return int(value) if value else default


@dataclass(frozen=True)
class VertexPermutation:
    """Vertex map of a graph, stored as an image array."""

    images: tuple[int, ...]

    def __post_init__(self) -> None:
        if sorted(self.images) != list(range(len(self.images))):
            raise NotAnAutomorphism("image array is not a bijection")

    def __mul__(self, other: "VertexPermutation") -> "VertexPermutation":
        # (self * other)(x) = self(other(x))
        return VertexPermutation(tuple(self.images[i] for i in other.images))

    def inverse(self) -> "VertexPermutation":
        inv = [0] * len(self.images)
        for i, img in enumerate(self.images):
            inv[img] = i
        return VertexPermutation(tuple(inv))

    @classmethod
    def identity(cls, n: int) -> "VertexPermutation":
        return cls(tuple(range(n)))


@dataclass(frozen=True)
class PermutationGroup:
    """A permutation group given by generators, with its order."""

    generators: tuple[VertexPermutation, ...]
    order: int

    @cached_property
    def elements(self) -> frozenset[VertexPermutation]:
        """Every element, closed from the generators on first use."""
        return frozenset(_closure(self.generators, DEFAULT_CLOSURE_CAP))

    def __contains__(self, perm: VertexPermutation) -> bool:
        return perm in self.elements


def is_automorphism(g: QuotientGraph, images: Sequence[int]) -> bool:
    nbr_sets = [set(nbrs) for nbrs in g.adjacency]
    for i, nbrs in enumerate(g.adjacency):
        if {images[j] for j in nbrs} != nbr_sets[images[i]]:
            return False
    return True


def perm_from_coordinate_map(
    g: QuotientGraph, fn: Callable[[tuple[int, ...]], Sequence[int]]
) -> VertexPermutation:
    """Lift a coordinate-level map to a verified vertex permutation."""
    images = tuple(g.vertex_of(fn(label)) for label in g.labels)
    perm = VertexPermutation(images)
    if not is_automorphism(g, images):
        raise NotAnAutomorphism("coordinate map breaks adjacency")
    return perm


def translation_generators(g: QuotientGraph) -> list[VertexPermutation]:
    """The d shifts along basis vectors (the last one is their inverse sum)."""
    d = g.d
    out = []
    for i in range(1, d + 1):
        w = w_vector(i, d)
        out.append(
            perm_from_coordinate_map(
                g, lambda x, w=w: tuple(a + b for a, b in zip(x, w))
            )
        )
    return out


def rotation_R(g: QuotientGraph) -> VertexPermutation:
    """Point reflection: x maps to (d+2)(1,...,1) - x.

    One concrete lift of negating every basis vector; any other lift
    differs by a translation.
    """
    total = g.d + 2
    perm = perm_from_coordinate_map(g, lambda x: tuple(total - a for a in x))
    if (perm * perm).images != tuple(range(g.vertex_count)):
        raise NotAnAutomorphism("point reflection is not an involution")
    return perm


def cyclic_C(g: QuotientGraph, shift: int = 1) -> VertexPermutation:
    """Coordinate rotation by a shift, admitted only when k is shift-invariant."""
    n = g.d + 1
    shift %= n
    k = g.signature
    if k is not None:
        kk = k.entries
        if any(kk[(i + shift) % n] != kk[i] for i in range(n)):
            raise NotAnAutomorphism(
                f"signature is not invariant under shift {shift}"
            )
    return perm_from_coordinate_map(
        g, lambda x: tuple(x[(j - shift) % n] for j in range(n))
    )


def admitted_cyclic_order(k: KSignature) -> int:
    """Order of the admitted coordinate-rotation subgroup."""
    n = k.n
    kk = k.entries
    for s in range(1, n + 1):
        if all(kk[(i + s) % n] == kk[i] for i in range(n)):
            return n // s
    raise AssertionError("shift n is always admitted")


def _closure(
    gens: tuple[VertexPermutation, ...], cap: int
) -> set[VertexPermutation]:
    """All products of the generators, by breadth-first composition."""
    identity = VertexPermutation.identity(len(gens[0].images))
    elements = {identity}
    frontier = [identity]
    while frontier:
        nxt = []
        for elem in frontier:
            for gen in gens:
                prod = gen * elem
                if prod not in elements:
                    elements.add(prod)
                    nxt.append(prod)
                    if len(elements) > cap:
                        raise CapExceeded(f"closure exceeded cap {cap}")
        frontier = nxt
    return elements


def group_closure(
    gens: Iterable[VertexPermutation], cap: int = DEFAULT_CLOSURE_CAP
) -> PermutationGroup:
    """The group the generators generate, its order counted by closure."""
    gens = tuple(gens)
    if not gens:
        raise ValueError("need at least one generator (identity works)")
    return PermutationGroup(generators=gens, order=len(_closure(gens, cap)))


def generated_group(g: QuotientGraph) -> PermutationGroup:
    """Closure of translations, reflection, and admitted rotations.

    A rotation is admitted when it maps the quotient's lattice to itself:
    for a signature when it fixes the entries, for a general matrix when
    every rotated row stays in the span of the rows and the all-ones row.
    """
    gens = list(translation_generators(g))
    gens.append(rotation_R(g))
    n = g.d + 1
    if g.signature is not None:
        shift = n // admitted_cyclic_order(g.signature)
    else:
        rows = g.general_matrix.row_list()
        span = IntMatrix.from_rows(rows + [(1,) * n])
        admitted = (
            s for s in range(1, n)
            if all(integer_span_contains(span, r[-s:] + r[:-s]) for r in rows)
        )
        shift = next(admitted, n)
    if shift < n:
        gens.append(cyclic_C(g, shift))
    return group_closure(gens)


def refine_colors(
    g: QuotientGraph, initial: Optional[Sequence[int]] = None
) -> tuple[int, ...]:
    """Iterative neighborhood-color refinement down to a stable coloring.

    Each round colors a vertex by the rank of its color and the sorted
    colors of its neighbors, so the result does not depend on vertex labels
    and keeps the order of the colors it splits.  A round that splits no
    cell returns.
    """
    adjacency = g.adjacency
    colors = list(initial) if initial is not None else [len(nbrs) for nbrs in adjacency]
    cells = len(set(colors))
    while True:
        signatures = [
            (c, tuple(sorted([colors[j] for j in nbrs])))
            for c, nbrs in zip(colors, adjacency)
        ]
        palette = {sig: c for c, sig in enumerate(sorted(set(signatures)))}
        colors = [palette[sig] for sig in signatures]
        if len(palette) == cells:
            return tuple(colors)
        cells = len(palette)


def _individualize(
    g: QuotientGraph, colors: Sequence[int], v: int
) -> tuple[int, ...]:
    """Give v a color below all others, then refine again."""
    marked = list(colors)
    marked[v] = -1
    return refine_colors(g, marked)


def _target(colors: Sequence[int]) -> int:
    """First vertex of the first non-singleton cell, or -1 if discrete."""
    sizes: dict[int, int] = {}
    for c in colors:
        sizes[c] = sizes.get(c, 0) + 1
    cell = min((c for c, size in sizes.items() if size > 1), default=None)
    return -1 if cell is None else colors.index(cell)


def _orbit(gens: Iterable[VertexPermutation], vertex: int) -> set[int]:
    images = [p.images for p in gens]
    seen = {vertex}
    stack = [vertex]
    while stack:
        v = stack.pop()
        for img in images:
            w = img[v]
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return seen


def brute_force_automorphisms(
    g: QuotientGraph,
    cap: Optional[int] = None,
    initial_colors: Optional[Sequence[int]] = None,
) -> PermutationGroup:
    """Exact automorphism group by individualization and refinement.

    The refined coloring is individualized at base points b_1, b_2, ...
    (each the first vertex of the first non-singleton cell) until it is
    discrete, which gives a chain of pointwise stabilizers.  From the
    deepest level up, the generators found so far generate the stabilizer
    of b_1..b_i; for each y in b_i's cell not yet in b_i's orbit under
    them, one automorphism mapping b_i to y is searched for by
    individualizing y and, level by level, each candidate for the next
    base point, pruning a branch as soon as its cell sizes differ from the
    chain's.  A leaf counts only if it preserves adjacency.  The order is
    the product of the orbit sizes (McKay & Piperno 2014 for the search;
    Seress 2003 for orders read off a stabilizer chain).  Given
    ``initial_colors``, only automorphisms that keep those colors count.
    """
    n = g.vertex_count
    limit = cap if cap is not None else search_cap()
    if n > limit:
        raise CapExceeded(f"vertex count {n} above search cap {limit}")
    chain = [refine_colors(g, initial_colors)]
    base: list[int] = []
    while (b := _target(chain[-1])) >= 0:
        base.append(b)
        chain.append(_individualize(g, chain[-1], b))
    shapes = [sorted(colors) for colors in chain]
    leaf_position = {c: v for v, c in enumerate(chain[-1])}

    def extend(level: int, colors: tuple[int, ...]) -> Optional[list[int]]:
        """Images of an automorphism taking chain[level] to colors, or None.

        Refinement keeps the order of the colors it splits, so colorings
        with the same cell sizes at every level give the same colors to
        matching cells; the leaf maps each vertex to its namesake.
        """
        if sorted(colors) != shapes[level]:
            return None
        if level == len(base):
            images = [0] * n
            for v, c in enumerate(colors):
                images[leaf_position[c]] = v
            return images if is_automorphism(g, images) else None
        cell = chain[level][base[level]]
        for y in range(n):
            if colors[y] == cell:
                images = extend(level + 1, _individualize(g, colors, y))
                if images is not None:
                    return images
        return None

    gens: list[VertexPermutation] = []
    order = 1
    for level in reversed(range(len(base))):
        colors, b = chain[level], base[level]
        seen = _orbit(gens, b)
        for y in range(n):
            if colors[y] != colors[b] or y in seen:
                continue
            images = extend(level + 1, _individualize(g, colors, y))
            if images is not None:
                gens.append(VertexPermutation(tuple(images)))
                seen = _orbit(gens, b)
        order *= len(seen)
    return PermutationGroup(
        generators=tuple(gens) or (VertexPermutation.identity(n),), order=order
    )


def orbit(group: PermutationGroup, vertex: int) -> set[int]:
    """Images of a vertex under the group, by walking its generators."""
    return _orbit(group.generators, vertex)


def verify_exceptional_W(g: QuotientGraph) -> bool:
    """Check the extra involution of the classical 14-vertex graph.

    Swaps four coordinate pairs and fixes everything else; true when the
    resulting vertex map preserves adjacency.
    """
    swaps = [
        ((3, -1, 4), (1, 0, 5)),
        ((4, -1, 3), (5, 0, 1)),
        ((1, 3, 2), (0, 2, 4)),
        ((2, 3, 1), (4, 2, 0)),
    ]
    mapping = {}
    for a, b in swaps:
        ia, ib = g.vertex_of(a), g.vertex_of(b)
        mapping[ia] = ib
        mapping[ib] = ia
    images = tuple(mapping.get(i, i) for i in range(g.vertex_count))
    if sorted(images) != list(range(g.vertex_count)):
        return False
    return is_automorphism(g, images)
