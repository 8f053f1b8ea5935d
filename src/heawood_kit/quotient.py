"""Finite quotients of the tiling: graphs, torus complexes, f-vectors.

The graph of a signature k is the tiling graph modulo the sublattice of k.
Its dual object is a triangulated torus whose vertices are the lattice
classes and whose facets correspond one-to-one with graph vertices.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from itertools import combinations, permutations
from math import comb, factorial
from operator import add, sub
from typing import Optional, Sequence

from .intlin import IntMatrix
from .lattice import (
    ClassIndex,
    KSignature,
    enumerate_fundamental,
    from_ambient,
    to_ambient,
)
from .tiling import SliceError, base_permutation, is_tiling_vertex

VertexKey = tuple[int, ...]


class NotSimplicial(ValueError):
    """A facet repeats a vertex or a facet list repeats a facet."""


class DegenerateQuotient(ValueError):
    """A quotient graph in which some vertex has fewer than d+1 neighbours."""


@dataclass(frozen=True)
class QuotientGraph:
    """Finite (d+1)-regular graph with stable vertex indexing.

    Vertices are canonical keys sorted lexicographically; labels default to
    the keys but dual graphs reuse the type with facet labels.  A quotient
    keeps the lattice it was built from, as the ``ClassIndex`` of its
    generator rows, and the numbering it was built in: the tiling point
    p + amb(a), p a permutation with p_1 = 1 and a a listed class, has
    number rank[p] * D + (position of a's class), and ``position`` maps
    that number to the vertex index in label order.  ``number_of`` finds
    the number of any tiling point from its Smith coordinates, and
    ``vertex_of`` its vertex.
    """

    d: int
    labels: tuple[VertexKey, ...]
    adjacency: tuple[tuple[int, ...], ...]
    signature: Optional[KSignature] = None
    lattice: Optional[ClassIndex] = field(default=None, compare=False, repr=False)
    rank: Optional[dict[VertexKey, int]] = field(
        default=None, compare=False, repr=False
    )
    position: Optional[list[int]] = field(default=None, compare=False, repr=False)

    @property
    def vertex_count(self) -> int:
        return len(self.labels)

    @property
    def edge_count(self) -> int:
        return sum(len(nbrs) for nbrs in self.adjacency) // 2

    def edges(self) -> list[tuple[int, int]]:
        return [
            (i, j)
            for i, nbrs in enumerate(self.adjacency)
            for j in nbrs
            if i < j
        ]

    @cached_property
    def neighbour_sets(self) -> tuple[frozenset[int], ...]:
        """The adjacency rows as sets, built on first use."""
        return tuple(map(frozenset, self.adjacency))

    def number_of(self, x: Sequence[int]) -> int:
        """Build-order number of the vertex that the tiling point x maps to.

        It takes the p with p_1 = 1 and the shift x_1 - 1, and the Smith
        coordinates of x - p.
        """
        if self.rank is None:
            raise ValueError("graph carries no quotient data")
        x = tuple(x)
        if len(x) != self.d + 1 or not is_tiling_vertex(x):
            raise SliceError(f"{x} is not a vertex of the tiling")
        p = base_permutation(x, x[0] - 1)
        index = self.lattice
        z = index.key(from_ambient(tuple(map(sub, x, p))))
        return self.rank[p] * len(index.classes) + index.position[z]

    def vertex_of(self, x: Sequence[int]) -> int:
        """Index of the vertex that the tiling point x maps to."""
        return self.position[self.number_of(x)]

    def key_of(self, x: Sequence[int]) -> VertexKey:
        return self.labels[self.vertex_of(x)]


def _build_quotient(
    index: ClassIndex, signature: Optional[KSignature] = None
) -> tuple[QuotientGraph, tuple]:
    """Graph and tile-class facets of the quotient by the rows of an index.

    The dimension d is the width of the rows minus one.  Each vertex is
    x = p + amb(a) for exactly one permutation p with p_1 = 1 and one
    class a, so it is numbered rank(p) * D + index(a).
    For each shift t, x lies in the tile at offset a - e(S_t), S_t the
    positions of the values 1..t in p: those classes are its facet, and
    the least of p shifted down by t plus the embedded tile class is its
    label.  Swapping values v, v+1 >= 2 of p keeps a; wrapping the value
    d+1 round to 2 lands in the last tile class; the last neighbour undoes
    a wrap.  Subtracting e_j permutes the classes, and in Smith
    coordinates it subtracts row j of v, so the table minus[j] needs no
    reduction; tile t is tile t-1 stepped through minus[j] for the j with
    p_j = t, d table steps per vertex.  The graph keeps ``rank`` and the
    sort's ``position`` so that ``number_of`` and ``vertex_of`` can index
    any tiling point.  A quotient in which some vertex has fewer than d+1
    distinct neighbours raises ``DegenerateQuotient``.
    """
    n, classes = index.rows.cols, index.classes
    d = n - 1
    size = len(classes)
    ambient = [to_ambient(a) for a in classes]
    minus = [index.shifted(index.key([0] * j + [-1] + [0] * (d - j))) for j in range(n)]
    perms = [(1,) + rest for rest in permutations(range(2, n + 1))]
    rank = {p: r for r, p in enumerate(perms)}
    labels: list[VertexKey] = []
    facets = []
    adjacency: list[list[int]] = [[] for _ in range(len(perms) * size)]
    for p in perms:
        down = [tuple((v - t - 1) % n + 1 for v in p) for t in range(n)]
        swaps = [
            rank[tuple(v + 1 if x == v else v if x == v + 1 else x for x in p)]
            for v in range(2, n)
        ]
        wrap = rank[tuple(1 if x == 1 else 2 if x == n else x + 1 for x in p)]
        steps = [minus[p.index(t)] for t in range(1, n)]
        for ci in range(size):
            u = len(labels)
            tiles = [ci]
            for step in steps:
                tiles.append(step[tiles[-1]])
            labels.append(
                min(tuple(map(add, q, ambient[c])) for q, c in zip(down, tiles))
            )
            facets.append(tuple(sorted(tiles)))
            w = wrap * size + tiles[d]
            adjacency[u] += [s * size + ci for s in swaps] + [w]
            adjacency[w].append(u)
    order = sorted(range(len(labels)), key=labels.__getitem__)
    position = [0] * len(order)
    for i, u in enumerate(order):
        position[u] = i
    neighbours = tuple(
        tuple(sorted({position[w] for w in adjacency[u]})) for u in order
    )
    if any(len(nbrs) < n for nbrs in neighbours):
        edges = sum(map(len, neighbours)) // 2
        raise DegenerateQuotient(
            f"degenerate quotient: {edges} edges on {len(order)} vertices,"
            f" not {n * len(order) // 2}; repeated edges merged"
        )

    graph = QuotientGraph(
        d=d,
        labels=tuple(labels[u] for u in order),
        adjacency=neighbours,
        signature=signature,
        lattice=index,
        rank=rank,
        position=position,
    )
    return graph, tuple(facets[u] for u in order)


def build_heawood_graph(k: KSignature) -> QuotientGraph:
    """Quotient graph of a signature, numbered by the closed-form index."""
    return _build_quotient(ClassIndex(k.matrix(), enumerate_fundamental(k)), k)[0]


def build_general_quotient(rows: IntMatrix) -> QuotientGraph:
    """Quotient graph for an arbitrary finite-quotient generator matrix.

    The sublattice is the integer row span plus the all-ones line, and d
    is the width of the matrix minus one; the graph has d! times the
    quotient order vertices.  ``ClassIndex`` raises for a matrix narrower
    than three columns and for an infinite quotient.
    """
    return _build_quotient(ClassIndex(rows))[0]


@dataclass(frozen=True)
class SimplicialComplex:
    """Pure complex given by facets over integer-indexed vertices."""

    vertex_count: int
    facets: tuple[tuple[int, ...], ...]
    vertex_labels: tuple = ()

    @property
    def dim(self) -> int:
        return len(self.facets[0]) - 1 if self.facets else -1

    def validate(self) -> None:
        seen = set()
        width = len(self.facets[0]) if self.facets else 0
        for idx, facet in enumerate(self.facets):
            if len(facet) != width:
                raise NotSimplicial(f"facet {idx} has mixed dimension")
            if len(set(facet)) != len(facet):
                raise NotSimplicial(f"facet {idx} repeats a vertex")
            if tuple(sorted(facet)) != facet:
                raise NotSimplicial(f"facet {idx} is not sorted")
            if facet in seen:
                raise NotSimplicial(f"facet {idx} duplicates an earlier one")
            seen.add(facet)
            if any(not 0 <= v < self.vertex_count for v in facet):
                raise NotSimplicial(f"facet {idx} references unknown vertex")

    def faces(self, i: int) -> set[tuple[int, ...]]:
        """All i-dimensional faces as sorted vertex tuples."""
        out = set()
        for facet in self.facets:
            out.update(combinations(facet, i + 1))
        return out

    def fvector_enumerated(self) -> tuple[int, ...]:
        return tuple(len(self.faces(i)) for i in range(self.dim + 1))

    def euler_characteristic(self) -> int:
        return sum(
            (-1) ** i * count for i, count in enumerate(self.fvector_enumerated())
        )


def build_torus_complex(k: KSignature) -> SimplicialComplex:
    """Triangulated torus dual to the graph of k.

    Vertices are the fundamental classes; each graph vertex contributes the
    facet of the d+1 tile classes containing it, in graph vertex order so
    the duality bijection is positional.
    """
    if k.delta:
        raise NotSimplicial("zero entries void the simplicial guarantees")
    classes = enumerate_fundamental(k)
    _, facets = _build_quotient(ClassIndex(k.matrix(), classes))
    complex_ = SimplicialComplex(
        vertex_count=len(classes),
        facets=facets,
        vertex_labels=tuple(classes),
    )
    complex_.validate()
    return complex_


def stirling2(n: int, m: int) -> int:
    """Stirling number of the second kind, by the alternating sum."""
    if m > n:
        return 0
    if m == 0:
        return 1 if n == 0 else 0
    total = sum((-1) ** (m - i) * comb(m, i) * i**n for i in range(1, m + 1))
    return total // factorial(m)


def fvector_formula(k: KSignature) -> tuple[int, ...]:
    """Closed-form face counts: f_i = i! S(d+1, i+1) D."""
    d = k.d
    order = k.order()
    return tuple(
        factorial(i) * stirling2(d + 1, i + 1) * order for i in range(d + 1)
    )


def dual_graph(c: SimplicialComplex) -> QuotientGraph:
    """Graph on facets, adjacent when they share a codimension-1 face."""
    ridge_map: dict[tuple[int, ...], list[int]] = {}
    for idx, facet in enumerate(c.facets):
        for ridge in combinations(facet, len(facet) - 1):
            ridge_map.setdefault(ridge, []).append(idx)
    adjacency: list[set[int]] = [set() for _ in c.facets]
    for sharing in ridge_map.values():
        for i, j in combinations(sharing, 2):
            adjacency[i].add(j)
            adjacency[j].add(i)
    return QuotientGraph(
        d=c.dim,
        labels=tuple(c.facets),
        adjacency=tuple(tuple(sorted(nbrs)) for nbrs in adjacency),
    )


def skeleton_graph(c: SimplicialComplex) -> QuotientGraph:
    """1-skeleton of a complex as a plain graph on its vertices."""
    adjacency: list[set[int]] = [set() for _ in range(c.vertex_count)]
    for i, j in c.faces(1):
        adjacency[i].add(j)
        adjacency[j].add(i)
    labels = tuple((v,) for v in range(c.vertex_count))
    return QuotientGraph(
        d=1,
        labels=labels,
        adjacency=tuple(tuple(sorted(nbrs)) for nbrs in adjacency),
    )

