"""Finite quotients of the tiling: graphs, torus complexes, f-vectors.

The graph of a signature k is the tiling graph modulo the sublattice of k.
Its dual object is a triangulated torus whose vertices are the lattice
classes and whose facets correspond one-to-one with graph vertices.  A
quotient has that torus exactly when its lattice holds no short vector,
one in {-1,0,1}^(d+1) off the all-ones line (``ClassIndex.short_vector``):
every zero-free signature, and some with zero entries, such as (0,2,2).
"""

from __future__ import annotations

from functools import cached_property
from itertools import chain, combinations, permutations, repeat
from math import comb, factorial
from operator import add, mul
from typing import Iterable, Iterator, NamedTuple, Optional, Sequence

from .intlin import Frozen, IntMatrix
from .lattice import (
    ClassIndex,
    KSignature,
    ambient_columns,
    combine_columns,
)
from .tiling import SliceError, base_permutation, is_tiling_vertex

VertexKey = tuple[int, ...]


class NotSimplicial(ValueError):
    """A facet list, or a lattice, that gives no simplicial complex."""


class DegenerateQuotient(ValueError):
    """A quotient graph in which some vertex has fewer than d+1 neighbours."""


def coord_label(x: Sequence[int]) -> str:
    """Comma-separated coordinate string; negatives keep their minus sign."""
    return ",".join(str(v) for v in x)


class QuotientGraph(Frozen):
    """Finite (d+1)-regular graph with stable vertex indexing.

    Vertices are canonical keys sorted lexicographically; labels default to
    the keys but dual graphs reuse the type with facet labels.  A graph
    given labels keeps them; a quotient is given none and makes its keys
    on first read, from the tile pass its index keeps.  A quotient also
    keeps the lattice it was built from, as the ``ClassIndex`` of its
    generator rows, and the numbering it was built in: the tiling point
    p + amb(a), p a permutation with p_1 = 1 and a a listed class, has
    number rank[p] * D + (position of a's class), and ``position`` maps
    that number to the vertex index in label order.  ``number_of`` finds
    the number of any tiling point from its Hermite key, and
    ``vertex_of`` its vertex.  Equality, hashing and the repr leave the
    quotient data out.
    """

    _fields = ("d", "labels", "adjacency", "signature")

    def __init__(
        self,
        d: int,
        labels: Optional[tuple[VertexKey, ...]],
        adjacency: tuple[tuple[int, ...], ...],
        signature: Optional[KSignature] = None,
        lattice: Optional[ClassIndex] = None,
        rank: Optional[dict[VertexKey, int]] = None,
        position: Optional[list[int]] = None,
    ) -> None:
        object.__setattr__(self, "d", d)
        if labels is not None:
            object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "adjacency", adjacency)
        object.__setattr__(self, "signature", signature)
        object.__setattr__(self, "lattice", lattice)
        object.__setattr__(self, "rank", rank)
        object.__setattr__(self, "position", position)

    @cached_property
    def labels(self) -> tuple[VertexKey, ...]:
        """Labels of a quotient's vertices, made from its tile pass on
        first read: downs[rank(p)][t] + amb(T_t) for the t of each code."""
        _, downs, ambient, _, codes, tile_columns, order = self.lattice.tile_pass
        n, size = self.d + 1, len(self.lattice.classes)
        labels: list[VertexKey] = []
        for u in order:
            t = codes[u] % n
            labels.append(tuple(map(add, downs[u // size][t], ambient[tile_columns[t][u]])))
        return tuple(labels)

    @property
    def vertex_count(self) -> int:
        return len(self.adjacency)

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

    def number_of(self, x: Sequence[int]) -> int:
        """Build-order number of the vertex that the tiling point x maps to.

        It takes the p with p_1 = 1, for the shift c = x_1 - 1.  Each
        coordinate of x - p is then c mod d+1 and they sum to 0, so x - p
        is the ambient vector of the coefficients (x - p - c) / (d+1), an
        exact division, and the vertex is their class: the coefficients'
        Hermite key, which the all-ones vector leaves unchanged.
        """
        if self.rank is None:
            raise ValueError("graph carries no quotient data")
        x = tuple(x)
        if len(x) != self.d + 1 or not is_tiling_vertex(x):
            raise SliceError(f"{x} is not a vertex of the tiling")
        c, n = x[0] - 1, len(x)
        p = base_permutation(x, c)
        index = self.lattice
        z = index.key([(v - q - c) // n for v, q in zip(x, p)])
        return self.rank[p] * len(index.classes) + index.position[z]

    def vertex_of(self, x: Sequence[int]) -> int:
        """Index of the vertex that the tiling point x maps to."""
        return self.position[self.number_of(x)]

    def key_of(self, x: Sequence[int]) -> VertexKey:
        return self.labels[self.vertex_of(x)]


class _TilePass(NamedTuple):
    """The one pass over the tiles that both readers of a quotient share,
    kept by its ``ClassIndex`` as ``tile_pass`` and holding no reference
    back to it.

    Vertex u = rank(p) * D + c is x = p + amb(a_c) for the permutation
    p = perms[rank(p)] and the listed class a_c.  Column t of
    ``tile_columns`` holds the tile class T_t of every vertex, ``codes``
    the code of its label and ``order`` the vertices sorted by label.
    ``downs`` holds p shifted down by t for each p and t, so a label is
    downs[rank(p)][t] + amb(T_t) for the t of its code, and ``minus[j]``
    is the class table of subtracting e_j.
    """

    perms: list[tuple[int, ...]]
    downs: list[list[tuple[int, ...]]]
    ambient: list[tuple[int, ...]]
    minus: list[list[int]]
    codes: list[int]
    tile_columns: list[list[int]]
    order: list[int]

    def facets(self) -> Iterator[tuple[int, ...]]:
        """The d+1 tile classes of each vertex, T_0 to T_d, in label order;
        ``SimplicialComplex`` sorts them."""
        return zip(*(map(column.__getitem__, self.order) for column in self.tile_columns))


def _tile_pass(index: ClassIndex) -> _TilePass:
    """Tile classes, label codes and label order of the quotient by the
    rows of an index.

    The dimension d is the width of the rows minus one.  Each vertex is
    x = p + amb(a) for exactly one permutation p with p_1 = 1 and one
    class a, numbered rank(p) * D + index(a); the pass takes one p at a
    time, in whole-list steps over the D classes.  For each shift t, x
    lies in the tile at offset a - e(S_t), S_t the positions of the values
    1..t in p: the tile classes T_t are T_{t-1} mapped through minus[j],
    p_j = t, from T_0 = range(D), and the facets of the torus are zip(*T).
    The label is the least of p shifted down by t plus amb(T_t), compared
    as an int in a balanced base wider than twice any coordinate: the
    code is linear and keeps tuple order, so a candidate costs one int
    add, t rides in the low digit, and the sort is on ints.  The ambient
    coordinates and their codes are made column by column over the D
    classes.  A degenerate quotient is refused before the pass, by
    ``refuse_degenerate``.
    """
    refuse_degenerate(index)
    n, classes = index.rows.cols, index.classes
    d = n - 1
    size = len(classes)
    columns = ambient_columns(classes)
    minus = [index.mapped(index.key([-(i == j) for j in range(n)])) for i in range(n)]
    perms = [(1,) + rest for rest in permutations(range(2, n + 1))]
    # a candidate's coordinates lie within n + max|amb| of zero
    base = 2 * (n + max(map(abs, chain.from_iterable(columns)))) + 2
    weights = [n * base ** (d - i) for i in range(n)]
    ambient_codes = list(combine_columns(weights, columns, size))
    downs: list[list[tuple[int, ...]]] = []
    codes: list[int] = []
    tile_columns: list[list[int]] = [[] for _ in range(n)]
    for p in perms:
        down = [tuple((v - t - 1) % n + 1 for v in p) for t in range(n)]
        tiles = [range(size)]
        for t in range(1, n):
            tiles.append(list(map(minus[p.index(t)].__getitem__, tiles[-1])))
        candidates = [
            map((sum(map(mul, weights, q)) + t).__add__,
                map(ambient_codes.__getitem__, tile))
            for t, (q, tile) in enumerate(zip(down, tiles))
        ]
        codes += map(min, *candidates)
        for column, tile in zip(tile_columns, tiles):
            column += tile
        downs.append(down)
    order = sorted(range(len(codes)), key=codes.__getitem__)
    return _TilePass(perms, downs, list(zip(*columns)), minus, codes, tile_columns, order)


def _quotient_graph(
    index: ClassIndex, signature: Optional[KSignature] = None
) -> QuotientGraph:
    """The quotient graph that the tile pass of an index describes.

    It makes no labels: ``QuotientGraph.labels`` makes them from the same
    pass when they are first read.  Neighbours fill d+1 slots of V
    numbers: swapping values v, v+1 >= 2 of p keeps the class; wrapping
    d+1 round to 2 lands in T_d = a + e_j, p_j = d+1, which minus[j]
    undoes for the last slot.  The graph keeps ``rank`` and the sort's
    ``position`` for ``number_of`` and ``vertex_of``.
    """
    perms, _, _, minus, _, tile_columns, order = index.tile_pass
    n, size = len(perms[0]), len(index.classes)
    d = n - 1
    rank = {p: r for r, p in enumerate(perms)}
    blocks = [range(r * size, r * size + size) for r in range(len(perms))]
    slots = [
        list(chain.from_iterable(
            blocks[rank[tuple(v + 1 if x == v else v if x == v + 1 else x for x in p)]]
            for p in perms
        ))
        for v in range(2, n)
    ]
    wraps = [
        rank[tuple(1 if x == 1 else 2 if x == n else x + 1 for x in p)] for p in perms
    ]
    starts = chain.from_iterable(map(repeat, (w * size for w in wraps), repeat(size)))
    slots.append(list(map(add, starts, tile_columns[d])))
    # block wraps[r] steps back to block r
    unwrap = sorted(range(len(perms)), key=wraps.__getitem__)
    slots.append(list(chain.from_iterable(
        map((r * size).__add__, minus[perms[r].index(n)]) for r in unwrap
    )))
    position = [0] * len(order)
    for i, u in enumerate(order):
        position[u] = i
    columns = [
        list(map(position.__getitem__, map(slot.__getitem__, order))) for slot in slots
    ]
    return QuotientGraph(
        d=d,
        labels=None,
        adjacency=tuple(map(tuple, map(sorted, zip(*columns)))),
        signature=signature,
        lattice=index,
        rank=rank,
        position=position,
    )


def refuse_degenerate(index: ClassIndex) -> None:
    """Raise ``DegenerateQuotient`` naming ``ClassIndex.unit_vector``, if
    any: d = 2, and each vertex keeps two distinct neighbours, or one when
    the lattice holds all three unit vectors, that is when D = 1."""
    vector = index.unit_vector()
    if vector is not None:
        vertices = 2 * index.order
        edges = vertices // 2 if index.order == 1 else vertices
        raise DegenerateQuotient(
            f"degenerate quotient: the lattice holds the unit vector {vector},"
            f" so {edges} edges on {vertices} vertices, not {3 * vertices // 2}"
        )


def build_heawood_graph(k: KSignature) -> QuotientGraph:
    """Quotient graph of a signature, numbered by the closed-form index.

    It reads the signature's kept ``index`` and that index's kept tile
    pass, so a graph built after the torus of the same signature object
    makes neither again.
    """
    return _quotient_graph(k.index, k)


def build_general_quotient(rows: IntMatrix | ClassIndex) -> QuotientGraph:
    """Quotient graph for an arbitrary finite-quotient generator matrix.

    The sublattice is the integer row span plus the all-ones line, and d
    is the width of the matrix minus one; the graph has d! times the
    quotient order vertices.  ``ClassIndex`` raises for a matrix narrower
    than three columns and for an infinite quotient.  A caller that has
    made the ``ClassIndex`` of the matrix already, to read its order,
    passes the index instead and the build reuses its Hermite basis, and its
    tile pass if a torus build made one.
    """
    index = rows if isinstance(rows, ClassIndex) else ClassIndex(rows)
    return _quotient_graph(index)


class SimplicialComplex(Frozen):
    """Pure complex given by facets over integer-indexed vertices.

    Each facet is stored as its sorted vertex tuple, sorted once here, so
    the vertex order inside a given facet changes nothing and the readers
    below take the facets as stored.
    """

    _fields = ("vertex_count", "facets", "vertex_labels")

    def __init__(
        self,
        vertex_count: int,
        facets: Iterable[Sequence[int]],
        vertex_labels: tuple = (),
    ) -> None:
        object.__setattr__(self, "vertex_count", vertex_count)
        object.__setattr__(self, "facets", tuple(map(tuple, map(sorted, facets))))
        object.__setattr__(self, "vertex_labels", vertex_labels)

    @property
    def dim(self) -> int:
        return len(self.facets[0]) - 1 if self.facets else -1

    def faces(self, i: int) -> set[tuple[int, ...]]:
        """All i-dimensional faces as sorted vertex tuples."""
        return _faces(self.facets, i)

    def fvector_enumerated(self) -> tuple[int, ...]:
        """Face counts by enumeration: f_0 counts the distinct vertices of
        the facets, f_d the distinct facets, and only the dimensions in
        between go through ``combinations``."""
        facets = self.facets
        top = len(set(facets))
        if self.dim < 1:
            return (top,) * (self.dim + 1)
        middle = [len(_faces(facets, i)) for i in range(1, self.dim)]
        return (len(set(chain.from_iterable(facets))), *middle, top)

    def euler_characteristic(self) -> int:
        return alternating_sum(self.fvector_enumerated())


def _faces(facets: Iterable[tuple[int, ...]], i: int) -> set[tuple[int, ...]]:
    """The i-dimensional faces of sorted facets."""
    return set(chain.from_iterable(map(combinations, facets, repeat(i + 1))))


def alternating_sum(fvector: Sequence[int]) -> int:
    """Euler characteristic of a complex from its face counts."""
    return sum((-1) ** i * f for i, f in enumerate(fvector))


def build_torus_complex(k: KSignature | ClassIndex) -> SimplicialComplex:
    """Triangulated torus dual to the quotient graph of a signature or index.

    Vertices are the listed classes, the fundamental vectors for a
    signature; each graph vertex contributes the facet of the d+1 tile
    classes containing it, in graph vertex order so the duality bijection
    is positional.  It reads only the label order and the tile columns of
    the tile pass, and makes no graph.  A lattice with a short vector has
    no torus and is refused before the build.  A signature's kept
    ``index``, or an index the caller passes, of a signature or of a
    general matrix, keeps its Hermite basis and the tile pass, so a graph
    built from the same object afterwards makes neither again.
    """
    index = k.index if isinstance(k, KSignature) else k
    _refuse_short_vector(index)
    return SimplicialComplex(
        vertex_count=len(index.classes),
        facets=index.tile_pass.facets(),
        vertex_labels=tuple(index.classes),
    )


def _refuse_short_vector(index: ClassIndex) -> None:
    """Raise ``NotSimplicial`` naming the short vector of a lattice that has one."""
    vector = index.short_vector()
    if vector is not None:
        raise NotSimplicial(f"no torus: the lattice holds the short vector {vector}")


def stirling2(n: int, m: int) -> int:
    """Stirling number of the second kind, by the alternating sum."""
    if m > n:
        return 0
    if m == 0:
        return 1 if n == 0 else 0
    total = sum((-1) ** (m - i) * comb(m, i) * i**n for i in range(1, m + 1))
    return total // factorial(m)


def fvector_formula(k: KSignature | ClassIndex) -> tuple[int, ...]:
    """Closed-form face counts of the torus: f_i = i! S(d+1, i+1) D.

    The paper's theorem gives every zero-free signature a torus, so its
    counts need no check.  A signature with a zero entry, or a quotient
    given by its ``ClassIndex``, has one exactly when its lattice holds no
    short vector, and is refused otherwise, as ``build_torus_complex``
    refuses it.
    """
    if isinstance(k, KSignature) and 0 not in k.entries:
        d, order = k.d, k.order()
    else:
        index = k.index if isinstance(k, KSignature) else k
        _refuse_short_vector(index)
        d, order = index.rows.cols - 1, index.order
    return tuple(
        factorial(i) * stirling2(d + 1, i + 1) * order for i in range(d + 1)
    )


def dual_graph(c: SimplicialComplex) -> QuotientGraph:
    """Graph on facets, adjacent when they share a codimension-1 face.

    A ridge met again is paired at once with the facet that first showed
    it, into adjacency lists.  Two facets share a second ridge only when
    they are equal, and then each ridge of the later one pairs the same
    two facets, one after another, so a pair equal to the last one kept
    is dropped.  If a ridge lies in three or more facets, or twice in one,
    every ridge is grouped with all its facets instead, each pair of which
    joins once.  Ridges are read from the facets as stored, sorted; the
    labels are the facets.
    """
    facets = c.facets
    adjacency: list[list[int]] = [[] for _ in facets]
    first: dict[tuple[int, ...], int] = {}
    crowded = False
    paired = 0
    for idx, facet in enumerate(facets):
        row = adjacency[idx]
        for ridge in combinations(facet, len(facet) - 1):
            j = first.setdefault(ridge, idx)
            if j < 0:
                crowded = True
            elif j != idx:
                first[ridge] = -1
                paired += 1
                if not row or row[-1] != j:
                    adjacency[j].append(idx)
                    row.append(j)
    # each sight was a first or a closing second one unless some pair is missing
    if crowded or sum(map(len, facets)) != len(first) + paired:
        sharing: dict[tuple[int, ...], list[int]] = {}
        for idx, facet in enumerate(facets):
            for ridge in combinations(facet, len(facet) - 1):
                sharing.setdefault(ridge, []).append(idx)
        joined: list[set[int]] = [set() for _ in facets]
        for group in sharing.values():
            for i, j in combinations(group, 2):
                joined[i].add(j)
                joined[j].add(i)
        adjacency = list(map(list, joined))
    return QuotientGraph(
        d=c.dim,
        labels=facets,
        adjacency=tuple(map(tuple, map(sorted, adjacency))),
    )
