"""Automorphism groups of quotient graphs.

Generator families with closed-form orders: translations along the basis
vectors, the point reflection, and coordinate rotation when the signature
allows it.  An independent backtracking search with color refinement
verifies group orders from scratch.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
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
    generators: tuple[VertexPermutation, ...]
    elements: frozenset[VertexPermutation]

    @property
    def order(self) -> int:
        return len(self.elements)

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
    images = tuple(g.index[g.key_of(fn(label))] for label in g.labels)
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


def group_closure(
    gens: Iterable[VertexPermutation], cap: int = DEFAULT_CLOSURE_CAP
) -> PermutationGroup:
    """All products of the generators, by breadth-first composition."""
    gens = tuple(gens)
    if not gens:
        raise ValueError("need at least one generator (identity works)")
    n = len(gens[0].images)
    identity = VertexPermutation.identity(n)
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
    return PermutationGroup(generators=gens, elements=frozenset(elements))


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
    """Iterative neighborhood-color refinement down to a stable coloring."""
    n = g.vertex_count
    colors = list(initial) if initial is not None else [len(g.adjacency[i]) for i in range(n)]
    while True:
        signatures = [
            (colors[i], tuple(sorted(colors[j] for j in g.adjacency[i])))
            for i in range(n)
        ]
        palette = {sig: c for c, sig in enumerate(sorted(set(signatures)))}
        new_colors = [palette[sig] for sig in signatures]
        if new_colors == colors:
            return tuple(colors)
        colors = new_colors


def brute_force_automorphisms(
    g: QuotientGraph,
    cap: Optional[int] = None,
    initial_colors: Optional[Sequence[int]] = None,
) -> PermutationGroup:
    """Exact automorphism group by backtracking over a BFS vertex order.

    Candidate images are filtered by refined colors and by bitmask
    agreement of mapped neighborhoods, which prunes hard enough for the
    group orders at hand.
    """
    n = g.vertex_count
    limit = cap if cap is not None else search_cap()
    if n > limit:
        raise CapExceeded(f"vertex count {n} above search cap {limit}")
    colors = refine_colors(g, initial_colors)
    color_class = {}
    for i, c in enumerate(colors):
        color_class.setdefault(c, []).append(i)
    adj_mask = [0] * n
    for i, nbrs in enumerate(g.adjacency):
        for j in nbrs:
            adj_mask[i] |= 1 << j

    # order vertices so each one touches an earlier one where possible
    order: list[int] = []
    seen = [False] * n
    for root in range(n):
        if seen[root]:
            continue
        queue = [root]
        seen[root] = True
        while queue:
            v = queue.pop(0)
            order.append(v)
            for w in g.adjacency[v]:
                if not seen[w]:
                    seen[w] = True
                    queue.append(w)

    images = [-1] * n
    used = [False] * n
    found: list[tuple[int, ...]] = []

    def backtrack(pos: int, placed_mask: int) -> None:
        if pos == n:
            found.append(tuple(images))
            return
        v = order[pos]
        mapped_nbr_mask = 0
        for w in g.adjacency[v]:
            if images[w] >= 0:
                mapped_nbr_mask |= 1 << images[w]
        for y in color_class[colors[v]]:
            if used[y]:
                continue
            # neighbors of y among already-placed images must be exactly
            # the images of v's already-mapped neighbors
            if adj_mask[y] & placed_mask != mapped_nbr_mask:
                continue
            images[v] = y
            used[y] = True
            backtrack(pos + 1, placed_mask | (1 << y))
            images[v] = -1
            used[y] = False

    backtrack(0, 0)
    perms = [VertexPermutation(imgs) for imgs in found]
    identity = VertexPermutation.identity(n)
    gens = tuple(p for p in perms if p != identity) or (identity,)
    return PermutationGroup(generators=gens, elements=frozenset(perms))


def orbit(group: PermutationGroup, vertex: int) -> set[int]:
    return {perm.images[vertex] for perm in group.elements}


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
        ka, kb = g.key_of(a), g.key_of(b)
        mapping[g.index[ka]] = g.index[kb]
        mapping[g.index[kb]] = g.index[ka]
    images = tuple(mapping.get(i, i) for i in range(g.vertex_count))
    if sorted(images) != list(range(g.vertex_count)):
        return False
    return is_automorphism(g, images)
