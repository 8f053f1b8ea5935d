"""Independent oracles the tests compare the package against.

``bfs_quotient`` is the package's original quotient construction.
Starting from the vertex (1, 2, ..., d+1), it keys every tiling neighbour
by reducing all d+1 of its residue-shift offsets and keeps going until no
new key appears.  It is slow, with d+1 reductions per neighbour of every
vertex, but it shares nothing with the closed-form index beyond the tiling
and the reducers, so the graphs and facets of both must agree exactly.

``lift_per_vertex`` is the package's original generator lift: it looks
up the image of every vertex label through ``vertex_of``, where
``perm_from_coordinate_map`` tabulates the map once per permutation and
once per class, so their image arrays must agree exactly.

``refine_rounds`` is the package's original colour refinement: it re-signs
every vertex in every round, where ``refine_colors`` splits cells, and
both must reach the same coarsest equitable partition.
"""

from __future__ import annotations

from typing import Callable, Sequence

from heawood_kit.lattice import (
    KSignature,
    from_ambient,
    reduce_to_fundamental,
    to_ambient,
)
from heawood_kit.tiling import (
    base_permutation,
    is_tiling_vertex,
    neighbors,
    tiles_containing,
)

Reducer = Callable[[tuple[int, ...]], tuple[int, ...]]


def key(x: Sequence[int], reduce_class: Reducer) -> tuple[int, ...]:
    """Least over residue shifts of base permutation plus reduced offset."""
    best = None
    for c in range(len(x)):
        p = base_permutation(x, c)
        rep = reduce_class(from_ambient(tuple(xa - pa for xa, pa in zip(x, p))))
        cand = tuple(pa + ea for pa, ea in zip(p, to_ambient(rep)))
        if best is None or cand < best:
            best = cand
    return best


def vertex_key(x: Sequence[int], k: KSignature) -> tuple[int, ...]:
    """Canonical representative coordinates of x modulo the sublattice of k."""
    return key(tuple(x), lambda a: reduce_to_fundamental(a, k))


def bfs_quotient(d: int, reduce_class: Reducer):
    """Sorted labels and adjacency of the quotient, by closure."""
    seed = key(tuple(range(1, d + 2)), reduce_class)
    adjacency = {seed: set()}
    frontier = [seed]
    while frontier:
        nxt = []
        for vertex in frontier:
            for nb in neighbors(vertex):
                nb_key = key(nb, reduce_class)
                adjacency[vertex].add(nb_key)
                if nb_key not in adjacency:
                    adjacency[nb_key] = set()
                    nxt.append(nb_key)
        frontier = nxt
    labels = tuple(sorted(adjacency))
    pos = {lab: i for i, lab in enumerate(labels)}
    adj = tuple(tuple(sorted(pos[nb] for nb in adjacency[lab])) for lab in labels)
    return labels, adj


def torus_facets(labels, reduce_class: Reducer, classes):
    """Facet of each labelled vertex: sorted indices of its d+1 tile classes."""
    class_index = {rep: i for i, rep in enumerate(classes)}
    return tuple(
        tuple(sorted(class_index[reduce_class(offset)] for offset in tiles_containing(x)))
        for x in labels
    )


def lift_per_vertex(g, fn: Callable[[tuple[int, ...]], Sequence[int]]):
    """Image array of a coordinate map, one ``vertex_of`` per vertex."""
    return tuple(g.vertex_of(fn(label)) for label in g.labels)


def refine_rounds(
    adjacency: Sequence[Sequence[int]], initial: Sequence[int]
) -> tuple[int, ...]:
    """Colour refinement in rounds, the package's original ``refine_colors``.

    Each round colours a vertex by the rank of its colour and the sorted
    colours of its neighbours; a round that splits no cell returns.
    """
    colors = list(initial)
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


def neighbors_definitional(x: Sequence[int]) -> list[tuple[int, ...]]:
    """Every e_j - e_i move that lands on a valid vertex."""
    n = len(x)
    out = []
    for i in range(n):
        for j in range(n):
            if i != j:
                y = list(x)
                y[i] -= 1
                y[j] += 1
                if is_tiling_vertex(y):
                    out.append(tuple(y))
    return out


def stirling2_recurrence(n: int, m: int) -> int:
    """S(n,m) = m S(n-1,m) + S(n-1,m-1)."""
    if m > n:
        return 0
    if n == 0:
        return 1 if m == 0 else 0
    if m == 0:
        return 0
    return m * stirling2_recurrence(n - 1, m) + stirling2_recurrence(n - 1, m - 1)
