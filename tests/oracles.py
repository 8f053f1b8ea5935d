"""Independent oracles the tests compare the package against.

``reduce_by_scan`` is the package's original reduction of a strict
signature's coefficient tuple to its fundamental vector: it scans the
entries and pulls each one back into range by a row of the banded
matrix, sharing nothing with the Smith coordinates of ``ClassIndex``.

``integer_span_contains`` is the package's original span membership
test, on a Smith form of the rows alone, where
``ClassIndex.all_ones_in_span`` reads the relations of the Smith form
of the rows and all ones.  ``admitted_cyclic_order`` is the package's
original rotation rule, read off the entries of a signature, where
``ClassIndex.least_rotation`` rotates the generator rows.

``bfs_quotient`` is the package's original quotient construction.
Starting from the vertex (1, 2, ..., d+1), it keys every tiling neighbour
by reducing all d+1 of its residue-shift offsets and keeps going until no
new key appears.  It is slow, with d+1 reductions per neighbour of every
vertex, but it shares nothing with the closed-form index beyond the tiling
and the reducers, so the graphs and facets of both must agree exactly.
``neighbors`` and ``tiles_containing`` are the tiling's own rules for
the d+1 neighbours of a vertex and the d+1 tiles holding it.

``lift_per_vertex`` is the package's original generator lift: it looks
up the image of every vertex label through ``vertex_of``.  With it,
``translations``, ``reflection`` and ``rotation`` lift the shifts along
the basis vectors ``w_vector``, the point reflection and a coordinate
rotation, and ``generators`` lists the generators of the group whose
order ``generated_order`` reads off the lattice in closed form.

``build_per_vertex`` is the package's original quotient builder: it
walks every vertex in turn, stepping its d+1 tile classes, building the
d+1 candidate label tuples and appending its neighbours, where the
package's ``_tile_pass`` works a whole permutation at a time on
integer-coded labels, and ``_quotient_graph`` reads the graph from it,
so their labels, adjacency, facets and numbering must agree exactly.

``validate_per_facet`` and ``dual_graph_grouped`` are the package's
original facet checks and dual graph: one scans facet by facet and stops
at the first failure, the other groups every ridge with all the facets
holding it and joins each pair in a group.

``OrderedPartition`` and ``TilingFace`` name the faces of the tiling by
an ordered partition of [d+1] and a lattice offset, with block rotation
trading against lattice translation; ``face_vertices`` and
``permutahedron_membership`` check those names against coordinates.

``refine_rounds`` is the package's original colour refinement: it re-signs
every vertex in every round, where ``refine_colors`` splits cells, and
both must reach the same coarsest equitable partition.  ``refine_cells``
is the package's earlier cell-splitting refinement, which counts and
groups the touched vertices in separate passes per splitter; the
colors themselves, cell order included, must agree with it exactly,
since the base and the branch order of the search are read off them.

``identity_matrix`` and ``matmul`` are the identity and the product of
``IntMatrix`` values, which only the Smith-form checks need, and ``det``
is the Bareiss determinant, which checks the closed-form order and the
unimodular transforms.  ``from_ambient`` is the package's original way
back from an ambient vector to its canonical coefficients, checking
that the vector lies in the weight lattice (``NotInLattice``), where
``QuotientGraph.number_of`` divides exactly what the tiling makes a
lattice vector.

``closure`` lists every element a set of generators generates,
``group_closure`` counts them, ``orbit`` reads a vertex's images off
them, and ``compose`` and ``inverse`` multiply and invert; they check
the orders of the closed form and of the exact search.
``chromatic_by_exhaustion`` tries every coloring with t colors for
t = 0, 1, ..., where ``chromatic_number`` backtracks.  ``skeleton_graph``, ``verify_exceptional_W``,
``heawood_number`` and ``import_graph_json`` check facts of the paper
and the JSON export: the 1-skeleton of a torus, the extra involution of
the classical 14-vertex graph, the map-coloring bound of a genus-p
surface, and the graph an export reads back as.
"""

from __future__ import annotations

import heapq
import json
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, permutations, product
from math import isqrt
from operator import add
from typing import Callable, Iterable, NamedTuple, Optional, Sequence

from heawood_kit.intlin import IntMatrix, InvalidSignature, ShapeError
from heawood_kit.lattice import (
    ClassIndex,
    KSignature,
    canonicalize,
    to_ambient,
)
from heawood_kit.limits import CapExceeded
from heawood_kit.quotient import (
    DegenerateQuotient,
    NotSimplicial,
    QuotientGraph,
    SimplicialComplex,
)
from heawood_kit.symmetry import (
    PermutationGroup,
    VertexPermutation,
    is_automorphism,
)
from heawood_kit.tiling import (
    SliceError,
    base_permutation,
    is_tiling_vertex,
    slice_total,
)

Reducer = Callable[[tuple[int, ...]], tuple[int, ...]]

REDUCTION_GUARD = 10**6


def reduce_by_scan(a: Sequence[int], k: KSignature) -> tuple[int, ...]:
    """Unique fundamental representative of the class of a, for strict k.

    Phase one repeatedly scans the entries and pulls the first out-of-range
    one into [0, k_i] by adding an integer multiple of row i of the banded
    matrix.  Phase two subtracts min(a) many all-ones vectors so some entry
    becomes zero.  For signatures with a zero entry the scan may not terminate.
    """
    n = k.n
    kk = k.entries
    vec = list(a)
    if len(vec) != n:
        raise InvalidSignature("coefficient length does not match signature")
    for _ in range(REDUCTION_GUARD):
        for i in range(n):
            if not 0 <= vec[i] <= kk[i]:
                c = -(vec[i] // (kk[i] + 1))
                vec[i] += c * (kk[i] + 1)
                vec[(i + 1) % n] -= c * kk[(i + 1) % n]
                break
        else:
            break
    else:
        raise RuntimeError("entry correction exceeded iteration guard")
    m = min(vec)
    rep = tuple(x - m for x in vec)
    return rep


def w_vector(i: int, d: int) -> tuple[int, ...]:
    """Ambient vector of the i-th basis element (1-based index)."""
    if not 1 <= i <= d + 1:
        raise IndexError(f"index {i} out of range for d={d}")
    return tuple(d if j == i - 1 else -1 for j in range(d + 1))


def identity_matrix(n: int) -> IntMatrix:
    """The n x n identity."""
    return IntMatrix(n, n, tuple(1 if i == j else 0 for i in range(n) for j in range(n)))


def matmul(a: IntMatrix, b: IntMatrix) -> IntMatrix:
    """The matrix product a b."""
    if a.cols != b.rows:
        raise ShapeError("inner dimensions differ")
    out = []
    for i in range(a.rows):
        ri = a.row(i)
        out.append(
            tuple(sum(ri[t] * b[t, j] for t in range(a.cols)) for j in range(b.cols))
        )
    return IntMatrix.from_rows(out) if out else IntMatrix(0, b.cols, ())


def det(m: IntMatrix) -> int:
    """Exact determinant by Bareiss fraction-free elimination."""
    if m.rows != m.cols:
        raise ShapeError("determinant of non-square matrix")
    n = m.rows
    if n == 0:
        return 1
    a = [list(m.row(i)) for i in range(n)]
    sign = 1
    prev = 1
    for t in range(n - 1):
        if a[t][t] == 0:
            for i in range(t + 1, n):
                if a[i][t] != 0:
                    a[t], a[i] = a[i], a[t]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(t + 1, n):
            for j in range(t + 1, n):
                a[i][j] = (a[i][j] * a[t][t] - a[i][t] * a[t][j]) // prev
            a[i][t] = 0
        prev = a[t][t]
    return sign * a[n - 1][n - 1]


def diagonal(m: IntMatrix) -> tuple[int, ...]:
    """The entries m[i, i] of a matrix."""
    return tuple(m[i, i] for i in range(min(m.rows, m.cols)))


class SnfResult(NamedTuple):
    """Smith normal form s = u @ input @ v with unimodular u, v; v_inv @ v = I."""

    s: IntMatrix
    u: IntMatrix
    v: IntMatrix
    v_inv: IntMatrix

    def diagonal(self) -> tuple[int, ...]:
        return diagonal(self.s)


def smith_normal_form(m: IntMatrix) -> SnfResult:
    """Diagonalize over Z by elementary row/column operations.

    Pivots are chosen as the smallest nonzero entry in the working block,
    which keeps intermediate growth tame at these sizes.  The diagonal is
    made nonnegative and repaired into a divisibility chain.  Nothing
    bounds the entries of u, v and v_inv: past a handful of rows and
    columns of small entries they can grow to thousands of bits within a
    few pivots (Kannan & Bachem 1979), so the tests give it only such
    small matrices.
    """
    R, C = m.rows, m.cols
    a = [list(m.row(i)) for i in range(R)]
    u = [[1 if i == j else 0 for j in range(R)] for i in range(R)]
    v = [[1 if i == j else 0 for j in range(C)] for i in range(C)]
    v_inv = [[1 if i == j else 0 for j in range(C)] for i in range(C)]

    def swap_rows(i, j):
        a[i], a[j] = a[j], a[i]
        u[i], u[j] = u[j], u[i]

    def swap_cols(i, j):
        for r in a:
            r[i], r[j] = r[j], r[i]
        for r in v:
            r[i], r[j] = r[j], r[i]
        v_inv[i], v_inv[j] = v_inv[j], v_inv[i]

    def add_row(dst, src, c):
        # row dst += c * row src
        ad, asrc = a[dst], a[src]
        for j in range(C):
            ad[j] += c * asrc[j]
        ud, usrc = u[dst], u[src]
        for j in range(R):
            ud[j] += c * usrc[j]

    def add_col(dst, src, c):
        # column dst += c * column src; the inverse takes row src -= c * row dst
        for r in a:
            r[dst] += c * r[src]
        for r in v:
            r[dst] += c * r[src]
        vs, vd = v_inv[src], v_inv[dst]
        for j in range(C):
            vs[j] -= c * vd[j]

    def negate_row(i):
        a[i] = [-x for x in a[i]]
        u[i] = [-x for x in u[i]]

    t = 0
    while t < min(R, C):
        # locate the smallest nonzero entry of the trailing block
        pivot = None
        for i in range(t, R):
            for j in range(t, C):
                if a[i][j] != 0 and (pivot is None or abs(a[i][j]) < abs(a[pivot[0]][pivot[1]])):
                    pivot = (i, j)
        if pivot is None:
            break
        swap_rows(t, pivot[0])
        swap_cols(t, pivot[1])

        while True:
            # clear column t; remainders become new, smaller pivots
            dirty = False
            for i in range(t + 1, R):
                if a[i][t] != 0:
                    q = a[i][t] // a[t][t]
                    add_row(i, t, -q)
                    if a[i][t] != 0:
                        swap_rows(t, i)
                        dirty = True
            for j in range(t + 1, C):
                if a[t][j] != 0:
                    q = a[t][j] // a[t][t]
                    add_col(j, t, -q)
                    if a[t][j] != 0:
                        swap_cols(t, j)
                        dirty = True
            if not dirty:
                # pivot must divide the whole trailing block for the chain
                offender = None
                for i in range(t + 1, R):
                    for j in range(t + 1, C):
                        if a[i][j] % a[t][t] != 0:
                            offender = i
                            break
                    if offender is not None:
                        break
                if offender is None:
                    break
                add_row(t, offender, 1)
        if a[t][t] < 0:
            negate_row(t)
        t += 1

    return SnfResult(
        s=IntMatrix.from_rows([tuple(r) for r in a]) if a else IntMatrix(0, C, ()),
        u=IntMatrix.from_rows([tuple(r) for r in u]) if u else IntMatrix(0, 0, ()),
        v=IntMatrix.from_rows([tuple(r) for r in v]) if v else IntMatrix(0, 0, ()),
        v_inv=IntMatrix.from_rows([tuple(r) for r in v_inv]) if v else IntMatrix(0, 0, ()),
    )


class NotInLattice(ValueError):
    """An ambient vector is not a weight-lattice element."""


def from_ambient(v: Sequence[int]) -> tuple[int, ...]:
    """Canonical coefficient tuple of an ambient weight-lattice vector.

    Requires coordinate sum zero and all pairwise differences divisible by
    the coordinate count.
    """
    n = len(v)
    if sum(v) != 0:
        raise NotInLattice("coordinates do not sum to zero")
    m = min(v)
    shifted = [x - m for x in v]
    if any(x % n != 0 for x in shifted):
        raise NotInLattice("pairwise differences not divisible by d+1")
    return tuple(x // n for x in shifted)


def integer_span_contains(rows: IntMatrix, target: Sequence[int]) -> bool:
    """Is target an integer linear combination of the rows?

    With s = u @ rows @ v, the row span of rows @ v is spanned by the
    diagonal rows of s, so target @ v must be divisible entrywise by the
    diagonal (and vanish past the rank).
    """
    target = tuple(int(x) for x in target)
    if len(target) != rows.cols:
        raise ShapeError("target length does not match column count")
    snf = smith_normal_form(rows)
    z = [
        sum(target[i] * snf.v[i, j] for i in range(rows.cols))
        for j in range(rows.cols)
    ]
    diag = snf.diagonal()
    for j in range(rows.cols):
        s_j = diag[j] if j < len(diag) else 0
        if s_j == 0:
            if z[j] != 0:
                return False
        elif z[j] % s_j != 0:
            return False
    return True


def admitted_cyclic_order(k: KSignature) -> int:
    """Number of coordinate rotations that fix the entries of k."""
    entries = k.entries
    return sum(entries[s:] + entries[:s] == entries for s in range(k.n))


def neighbors(x: Sequence[int]) -> list[tuple[int, ...]]:
    """The d+1 adjacent vertices of x.

    Fast rule: a step e_j - e_i keeps the residue system intact exactly
    when x_i is one more than x_j mod d+1.  ``neighbors_definitional``
    filters all (i, j) moves instead.
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
    return key(tuple(x), lambda a: reduce_by_scan(a, k))


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


def build_per_vertex(index: ClassIndex, signature: Optional[KSignature] = None):
    """Graph and facets of the quotient, one vertex at a time.

    Vertex (p, a) is numbered rank(p) * D + index(a); its tiles are a
    stepped through the tables minus[j], its label the least of p shifted
    down by t plus the embedded tile class, and its neighbours the swaps
    of values v, v+1 >= 2, the wrap of d+1 round to 2 and the undone wrap.
    """
    n, classes = index.rows.cols, index.classes
    d = n - 1
    size = len(classes)
    ambient = [to_ambient(a) for a in classes]
    minus = [index.mapped(index.key([-(i == j) for j in range(n)])) for i in range(n)]
    perms = [(1,) + rest for rest in permutations(range(2, n + 1))]
    rank = {p: r for r, p in enumerate(perms)}
    labels = []
    facets = []
    adjacency = [[] for _ in range(len(perms) * size)]
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


def validate_per_facet(c: SimplicialComplex) -> None:
    """Raise ``NotSimplicial`` at the first facet that fails a check."""
    seen = set()
    width = len(c.facets[0]) if c.facets else 0
    for idx, facet in enumerate(c.facets):
        if len(facet) != width:
            raise NotSimplicial(f"facet {idx} has mixed dimension")
        if len(set(facet)) != len(facet):
            raise NotSimplicial(f"facet {idx} repeats a vertex")
        if tuple(sorted(facet)) != facet:
            raise NotSimplicial(f"facet {idx} is not sorted")
        if facet in seen:
            raise NotSimplicial(f"facet {idx} duplicates an earlier one")
        seen.add(facet)
        if any(not 0 <= v < c.vertex_count for v in facet):
            raise NotSimplicial(f"facet {idx} references unknown vertex")


def dual_graph_grouped(c: SimplicialComplex) -> tuple[tuple[int, ...], ...]:
    """Adjacency of the dual graph: facets sharing a ridge, by ridge groups
    of the sorted facets."""
    ridge_map: dict[tuple[int, ...], list[int]] = {}
    for idx, facet in enumerate(c.facets):
        for ridge in combinations(sorted(facet), len(facet) - 1):
            ridge_map.setdefault(ridge, []).append(idx)
    adjacency: list[set[int]] = [set() for _ in c.facets]
    for sharing in ridge_map.values():
        for i, j in combinations(sharing, 2):
            adjacency[i].add(j)
            adjacency[j].add(i)
    return tuple(tuple(sorted(nbrs)) for nbrs in adjacency)


def lift_per_vertex(g, fn: Callable[[tuple[int, ...]], Sequence[int]]):
    """Vertex permutation of a coordinate map, one ``vertex_of`` per vertex."""
    return VertexPermutation(tuple(g.vertex_of(fn(label)) for label in g.labels))


def translations(g) -> list[VertexPermutation]:
    """The shifts along w_1, ..., w_d; the one along w_{d+1} is their inverse sum."""
    shifts = [w_vector(i, g.d) for i in range(1, g.d + 1)]
    return [lift_per_vertex(g, lambda x, w=w: tuple(map(add, x, w))) for w in shifts]


def reflection(g) -> VertexPermutation:
    """The point reflection x -> (d+2)(1, ..., 1) - x."""
    return lift_per_vertex(g, lambda x: tuple(g.d + 2 - a for a in x))


def rotation(g, shift: int) -> VertexPermutation:
    """The coordinate rotation x_j -> x_{j - shift}."""
    return lift_per_vertex(g, lambda x: x[-shift:] + x[:-shift])


def generators(g) -> list[VertexPermutation]:
    """Translations, the reflection and the least rotation that keeps the lattice."""
    gens = translations(g) + [reflection(g)]
    shift = g.lattice.least_rotation()
    return gens + [rotation(g, shift)] if shift <= g.d else gens


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


def refine_cells(
    adjacency: Sequence[Sequence[int]],
    colors: list[int],
    cells: dict[int, set[int]],
    splitters: list[int],
) -> tuple[int, ...]:
    """Split cells against the queued splitters until the coloring is equitable.

    The package's earlier ``_refine``, which groups the touched vertices in
    three passes per splitter and skips singleton cells after grouping.

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


def inverse(perm: VertexPermutation) -> VertexPermutation:
    """The permutation that undoes perm."""
    inv = [0] * len(perm.images)
    for i, img in enumerate(perm.images):
        inv[img] = i
    return VertexPermutation(tuple(inv))


def compose(a: VertexPermutation, b: VertexPermutation) -> VertexPermutation:
    """The permutation x -> a(b(x))."""
    return VertexPermutation(tuple(a.images[i] for i in b.images))


def closure(gens: Sequence[VertexPermutation], cap: int = 10**6) -> set[VertexPermutation]:
    """All products of the generators, at most ``cap`` of them.

    The image array of gen * elem is that of elem mapped through gen, so
    the elements are the orbit of the identity's image array.
    """
    identity = tuple(range(len(gens[0].images)))
    seen, frontier = {identity}, [identity]
    for elem in frontier:
        for gen in gens:
            image = tuple(map(gen.images.__getitem__, elem))
            if image not in seen:
                if len(seen) == cap:
                    raise CapExceeded(f"closure exceeded cap {cap}")
                seen.add(image)
                frontier.append(image)
    return set(map(VertexPermutation, seen))


def group_closure(gens: Iterable[VertexPermutation], cap: int = 10**6) -> PermutationGroup:
    """The group the generators generate, its order counted by closure."""
    gens = tuple(gens)
    if not gens:
        raise ValueError("need at least one generator (identity works)")
    return PermutationGroup(generators=gens, order=len(closure(gens, cap)))


def orbit(group: PermutationGroup, vertex: int) -> set[int]:
    """Images of a vertex under the elements of the group."""
    return {perm.images[vertex] for perm in closure(group.generators)}


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


def chromatic_by_exhaustion(g: QuotientGraph) -> int:
    """Least t for which some map of the vertices to t colors is proper."""
    edges = [(i, j) for i, nbrs in enumerate(g.adjacency) for j in nbrs if i < j]
    t = 0
    while not any(
        all(colors[i] != colors[j] for i, j in edges)
        for colors in product(range(t), repeat=g.vertex_count)
    ):
        t += 1
    return t


def heawood_number(p: int) -> int:
    """Map-coloring bound for the orientable genus-p surface, all-integer."""
    if p < 0:
        raise ValueError("genus must be nonnegative")
    return (7 + isqrt(1 + 48 * p)) // 2


def import_graph_json(text: str) -> QuotientGraph:
    """The graph an ``export_graph_json`` text describes, without quotient data."""
    payload = json.loads(text)
    labels = tuple(tuple(v) for v in payload["vertices"])
    adjacency: list[set[int]] = [set() for _ in labels]
    for i, j in payload["edges"]:
        adjacency[i].add(j)
        adjacency[j].add(i)
    signature = None
    if payload.get("signature"):
        signature = KSignature(payload["signature"])
    return QuotientGraph(
        d=payload["meta"]["d"],
        labels=labels,
        adjacency=tuple(tuple(sorted(s)) for s in adjacency),
        signature=signature,
    )
