"""Automorphism groups of quotient graphs.

Generator families with closed-form orders: translations along the basis
vectors, the point reflection, and coordinate rotation when the lattice
allows it; each is lifted from the tiling in closed form on the build
numbering of the quotient, and the order of the group they generate is
the size of the orbit of a base.  An independent exact search, by
individualization and color refinement with orbit pruning, verifies
group orders from scratch: it returns generators of the full group and
its order without listing the elements.
"""

from __future__ import annotations

import heapq
from functools import cached_property
from operator import sub
from typing import Callable, Iterable, Optional, Sequence

from .intlin import Frozen
from .lattice import KSignature, w_vector
from .limits import DEFAULT_SEARCH_CAP, CapExceeded, search_cap  # noqa: F401 - re-exported
from .quotient import QuotientGraph

DEFAULT_CLOSURE_CAP = 10**6


class NotAnAutomorphism(ValueError):
    """A proposed vertex map fails to preserve adjacency."""


class VertexPermutation(Frozen):
    """Vertex map of a graph, stored as an image array."""

    _fields = ("images",)

    def __init__(self, images: tuple[int, ...]) -> None:
        if sorted(images) != list(range(len(images))):
            raise NotAnAutomorphism("image array is not a bijection")
        object.__setattr__(self, "images", images)

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


class PermutationGroup(Frozen):
    """A permutation group given by generators, with its order."""

    _fields = ("generators", "order")

    def __init__(self, generators: tuple[VertexPermutation, ...], order: int) -> None:
        object.__setattr__(self, "generators", generators)
        object.__setattr__(self, "order", order)

    @cached_property
    def elements(self) -> frozenset[VertexPermutation]:
        """Every element, closed from the generators on first use."""
        return frozenset(_closure(self.generators, DEFAULT_CLOSURE_CAP))

    def __contains__(self, perm: VertexPermutation) -> bool:
        return perm in self.elements


def is_automorphism(g: QuotientGraph, images: Sequence[int]) -> bool:
    """Does the vertex map send each neighbour set onto its image's?"""
    targets = g.neighbour_sets
    for i, nbrs in enumerate(g.adjacency):
        if {images[j] for j in nbrs} != targets[images[i]]:
            return False
    return True


def perm_from_coordinate_map(
    g: QuotientGraph, fn: Callable[[tuple[int, ...]], Sequence[int]]
) -> VertexPermutation:
    """Lift an affine map of the tiling to a verified vertex permutation.

    ``fn`` must be affine, x -> Lx + t, with L a coordinate permutation or
    its negative; the generators below are of that kind.  Then the vertex
    x = p + amb(a) of build number rank(p) * D + class(a) maps to
    fn(p) + amb(La): its permutation p' depends on p alone, and the
    class of fn(x) - p' is that of fn(p) - p' plus that of La, since
    Smith coordinates are linear mod diag.  So the lift locates the d!
    points fn(p) through ``number_of``, tiling check included, keys the D
    classes La = fn(a) - fn(0), and adds the two on the class index, one
    table per distinct class of fn(p) - p'; no vertex is looked up.  The
    image array must be a bijection that preserves adjacency.
    """
    if g.rank is None:
        raise ValueError("graph carries no quotient data")
    index, position = g.lattice, g.position
    size = len(index.classes)
    origin = fn((0,) * (g.d + 1))
    turned = [
        index.position[index.key(tuple(map(sub, fn(a), origin)))]
        for a in index.classes
    ]
    tables: dict[int, list[int]] = {}
    images = [0] * g.vertex_count
    for p, r in g.rank.items():
        image_rank, shift = divmod(g.number_of(fn(p)), size)
        if shift not in tables:
            shifted = index.shifted(index.keys[shift])
            tables[shift] = [shifted[t] for t in turned]
        start, target = r * size, image_rank * size
        for c, image in enumerate(tables[shift]):
            images[position[start + c]] = position[target + image]
    perm = VertexPermutation(tuple(images))
    if not is_automorphism(g, perm.images):
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
    """Coordinate rotation by a shift, admitted only when the lattice allows it."""
    n = g.d + 1
    shift %= n
    if g.lattice is None:
        raise ValueError("graph carries no quotient data")
    if not g.lattice.admits_rotation(shift):
        raise NotAnAutomorphism(f"lattice is not invariant under shift {shift}")
    return perm_from_coordinate_map(
        g, lambda x: tuple(x[(j - shift) % n] for j in range(n))
    )


def admitted_cyclic_order(k: KSignature) -> int:
    """Order of the admitted coordinate-rotation subgroup, from the entries.

    A shift counts when it fixes the entries of k, which keeps the rows of
    its banded matrix and so the lattice.
    """
    n = k.n
    kk = k.entries
    for s in range(1, n + 1):
        if all(kk[(i + s) % n] == kk[i] for i in range(n)):
            return n // s
    raise AssertionError("shift n is always admitted")


def _orbit_tuples(
    gens: Iterable[VertexPermutation],
    points: tuple[int, ...],
    cap: int = DEFAULT_CLOSURE_CAP,
) -> set[tuple[int, ...]]:
    """Images of a tuple of vertices under the group, by breadth-first search."""
    images = [p.images for p in gens]
    seen = {points}
    frontier = [points]
    while frontier:
        nxt = []
        for t in frontier:
            for img in images:
                u = tuple(map(img.__getitem__, t))
                if u not in seen:
                    seen.add(u)
                    nxt.append(u)
                    if len(seen) > cap:
                        raise CapExceeded(f"closure exceeded cap {cap}")
        frontier = nxt
    return seen


def _closure(
    gens: tuple[VertexPermutation, ...], cap: int
) -> set[VertexPermutation]:
    """All products of the generators.

    The image array of gen * elem is that of elem mapped through gen, so
    the elements are the orbit of the identity's image array.
    """
    identity = tuple(range(len(gens[0].images)))
    return {VertexPermutation(t) for t in _orbit_tuples(gens, identity, cap)}


def group_closure(
    gens: Iterable[VertexPermutation], cap: int = DEFAULT_CLOSURE_CAP
) -> PermutationGroup:
    """The group the generators generate, its order counted by closure."""
    gens = tuple(gens)
    if not gens:
        raise ValueError("need at least one generator (identity works)")
    return PermutationGroup(generators=gens, order=len(_closure(gens, cap)))


def generated_group(g: QuotientGraph) -> PermutationGroup:
    """Group of translations, reflection, and admitted rotations.

    A rotation is admitted when the lattice allows it: when every rotated
    generator row has Smith coordinates zero.  The least admitted shift
    generates the admitted rotations.  Each of the d + 1 or d + 2
    generators costs d! point lookups and D class keys, then one
    adjacency check; the base chain is the rest of the work.  The order
    is read off a base without listing elements: refinement commutes
    with every automorphism, so one that fixes the base of the search
    fixes every vertex, and each element of the group moves the base
    tuple to a different image.
    """
    gens = list(translation_generators(g))
    gens.append(rotation_R(g))
    n = g.d + 1
    shift = next((s for s in range(1, n) if g.lattice.admits_rotation(s)), n)
    if shift < n:
        gens.append(cyclic_C(g, shift))
    _, base = _base_chain(g)
    return PermutationGroup(
        generators=tuple(gens), order=len(_orbit_tuples(gens, tuple(base)))
    )


def refine_colors(
    g: QuotientGraph, initial: Optional[Sequence[int]] = None
) -> tuple[int, ...]:
    """Coarsest equitable coloring finer than the initial one.

    Colors are cell starts: a vertex's color is the number of vertices in
    the cells before its own, the cells ordered by their initial values
    (degrees by default).  Refinement splits cells (McKay & Piperno 2014):
    splitter cells leave a heap in color order; a splitter counts, for each
    vertex adjacent to it, that vertex's neighbours inside it, and every
    cell it touches splits into parts by count, in increasing count order
    in place of the old cell.  Every step depends only on colors and
    counts, so the result does not depend on vertex labels.
    """
    adjacency = g.adjacency
    values = initial if initial is not None else [len(nbrs) for nbrs in adjacency]
    colors = [0] * len(adjacency)
    cells: dict[int, set[int]] = {}
    start, last = 0, None
    for pos, v in enumerate(sorted(range(len(adjacency)), key=values.__getitem__)):
        if values[v] != last:
            start, last = pos, values[v]
            cells[start] = set()
        cells[start].add(v)
        colors[v] = start
    return _refine(adjacency, colors, cells, list(cells))


def _refine(
    adjacency: Sequence[Sequence[int]],
    colors: list[int],
    cells: dict[int, set[int]],
    splitters: list[int],
) -> tuple[int, ...]:
    """Split cells against the queued splitters until the coloring is equitable.

    ``cells`` maps each cell start to its vertices and ``splitters`` is a
    heap of starts.  A split keeps the first part at the old start, so its
    vertices keep their color, and queues the new parts: all of them when
    the old cell was queued, else all but the first largest, since counts
    into that part follow from counts into the old cell and the others.
    """
    queued = set(splitters)
    n = len(colors)
    while splitters and len(cells) < n:
        splitter = heapq.heappop(splitters)
        queued.discard(splitter)
        counts: dict[int, int] = {}
        for w in cells[splitter]:
            for u in adjacency[w]:
                counts[u] = counts.get(u, 0) + 1
        touched: dict[int, list[int]] = {}
        for u in counts:
            touched.setdefault(colors[u], []).append(u)
        for start, hit in touched.items():
            cell = cells[start]
            if len(cell) == 1:
                continue
            by_count: dict[int, list[int]] = {}
            for u in hit:
                by_count.setdefault(counts[u], []).append(u)
            parts = [by_count[c] for c in sorted(by_count)]
            if len(hit) < len(cell):
                cell.difference_update(hit)  # count 0 comes first
            elif len(parts) == 1:
                continue
            else:
                cell = cells[start] = set(parts.pop(0))
            starts = [start]
            pos = start + len(cell)
            for part in parts:
                cells[pos] = set(part)
                for v in part:
                    colors[v] = pos
                starts.append(pos)
                pos += len(part)
            if start in queued:
                fresh = starts[1:]
            else:
                largest = max(starts, key=lambda s: len(cells[s]))
                fresh = [s for s in starts if s != largest]
            for pos in fresh:
                heapq.heappush(splitters, pos)
                queued.add(pos)
    return tuple(colors)


def _individualize(
    g: QuotientGraph, colors: Sequence[int], v: int
) -> tuple[int, ...]:
    """Split v off at the front of its cell, then refine against it.

    The input coloring is equitable, so the singleton is the only splitter
    needed: counts into the rest of v's old cell follow from the two.
    """
    colors = list(colors)
    cells: dict[int, set[int]] = {}
    for u, c in enumerate(colors):
        cells.setdefault(c, set()).add(u)
    start = colors[v]
    rest = cells[start]
    rest.discard(v)
    cells[start] = {v}
    cells[start + 1] = rest
    for u in rest:
        colors[u] = start + 1
    return _refine(g.adjacency, colors, cells, [start])


def _base_chain(
    g: QuotientGraph, initial_colors: Optional[Sequence[int]] = None
) -> tuple[list[tuple[int, ...]], list[int]]:
    """Refined colorings individualized at base points until discrete.

    Each base point is the first vertex of the first non-singleton cell;
    the chain holds the coloring before each point and the discrete one.
    """
    chain = [refine_colors(g, initial_colors)]
    base: list[int] = []
    while (b := _target(chain[-1])) >= 0:
        base.append(b)
        chain.append(_individualize(g, chain[-1], b))
    return chain, base


def _target(colors: Sequence[int]) -> int:
    """First vertex of the first non-singleton cell, or -1 if discrete."""
    sizes: dict[int, int] = {}
    for c in colors:
        sizes[c] = sizes.get(c, 0) + 1
    cell = min((c for c, size in sizes.items() if size > 1), default=None)
    return -1 if cell is None else colors.index(cell)


def _orbit(gens: Iterable[VertexPermutation], vertex: int) -> set[int]:
    return {t[0] for t in _orbit_tuples(gens, (vertex,))}


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
    chain's.  A leaf counts only if it preserves adjacency.  When the branch
    for y fails, so does the branch for every z in y's orbit under the
    generators found so far: they fix b_1..b_{i-1}, so if g maps y to z and
    h maps b_i to z, then g⁻¹h maps b_i to y.  That orbit is skipped, which
    keeps the search to a few branches per level on graphs that are not
    vertex-transitive: 25 refinements on the 5,064 vertices of (2,2,2,2,2),
    0.6 s with Python 3.11 on a 2 vCPU x86_64 host.  Failed vertices never
    join b_i's orbit, whose size is all that enters the order: the product
    of the orbit sizes (McKay & Piperno 2014 for the search; Seress 2003
    for orders read off a stabilizer chain).  Given ``initial_colors``,
    only automorphisms that keep those colors count.
    """
    n = g.vertex_count
    limit = cap if cap is not None else search_cap()
    if n > limit:
        raise CapExceeded(f"vertex count {n} above search cap {limit}")
    chain, base = _base_chain(g, initial_colors)
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
        failed: set[int] = set()
        for y in range(n):
            if colors[y] != colors[b] or y in seen or y in failed:
                continue
            images = extend(level + 1, _individualize(g, colors, y))
            if images is None:
                failed |= _orbit(gens, y)
            else:
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
