import gc
import random
import weakref
from functools import lru_cache
from itertools import product
from math import factorial

import oracles
import pytest
from oracles import (
    identity_matrix,
    integer_span_contains,
    neighbors,
    reduce_by_scan,
    skeleton_graph,
    stirling2_recurrence,
    vertex_key,
    w_vector,
)
from test_symmetry import CENSUS_MATRICES

from heawood_kit import lattice, quotient
from heawood_kit.artifacts import parse_matrix_arg
from heawood_kit.fixtures import klein_quartic
from heawood_kit.intlin import IntMatrix, ShapeError, build_mk
from heawood_kit.lattice import (
    ClassIndex,
    InfiniteQuotient,
    KSignature,
    enumerate_fundamental,
    reduce_to_fundamental,
    to_ambient,
)
from heawood_kit.quotient import (
    DegenerateQuotient,
    NotSimplicial,
    SimplicialComplex,
    build_general_quotient,
    build_heawood_graph,
    build_torus_complex,
    dual_graph,
    fvector_formula,
    stirling2,
)
from heawood_kit.tiling import SliceError


@lru_cache(maxsize=None)
def graph(entries):
    return build_heawood_graph(KSignature(entries))


@lru_cache(maxsize=None)
def torus(entries):
    return build_torus_complex(KSignature(entries))


def test_vertex_key_examples():
    k = KSignature((1, 1, 1))
    base = vertex_key((1, 2, 3), k)
    shifted = tuple(
        a + 2 * b - c
        for a, b, c in zip((1, 2, 3), w_vector(1, 2), w_vector(2, 2))
    )
    assert vertex_key(shifted, k) == base
    w1_shift = tuple(a + b for a, b in zip((1, 2, 3), w_vector(1, 2)))
    assert vertex_key(w1_shift, k) != base
    assert not integer_span_contains(k.matrix(), (1, 0, 0))


def test_vertex_key_constant_on_sublattice_orbits():
    for entries in [(1, 1, 1), (2, 1, 2), (1, 3, 2)]:
        k = KSignature(entries)
        rows = k.matrix().row_list()
        x = (1, 2, 3)
        base = vertex_key(x, k)
        for row in rows:
            amb = tuple(
                sum(row[i] * w_vector(i + 1, 2)[j] for i in range(3))
                for j in range(3)
            )
            assert vertex_key(tuple(a + b for a, b in zip(x, amb)), k) == base


def test_graph_counts_examples():
    g = graph((1, 1, 1))
    assert g.vertex_count == 14
    assert g.edge_count == 21
    g = graph((2, 3, 2))
    assert (g.vertex_count, g.edge_count) == (48, 72)
    g = graph((1, 1, 1, 1))
    assert (g.vertex_count, g.edge_count) == (90, 180)


def test_graph_counts_match_formulas():
    cases = [k for k in product((1, 2), repeat=3)] + [
        k for k in product((1, 2), repeat=4)
    ]
    for entries in cases:
        k = KSignature(entries)
        g = graph(entries)
        d, order = k.d, k.order()
        assert g.vertex_count == factorial(d) * order
        assert g.edge_count == factorial(d + 1) // 2 * order
        assert all(len(nbrs) == d + 1 for nbrs in g.adjacency)


def test_graph_is_connected_and_regular():
    g = graph((2, 2, 3))
    seen = {0}
    stack = [0]
    while stack:
        v = stack.pop()
        for w in g.adjacency[v]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    assert len(seen) == g.vertex_count


def test_torus_examples():
    assert torus((1, 1, 1)).fvector_enumerated() == (7, 21, 14)
    assert torus((1, 1, 1, 1)).fvector_enumerated() == (15, 105, 180, 90)
    assert torus((2, 2, 2)).fvector_enumerated() == (19, 57, 38)


def test_fvector_enumerated_of_a_point_set_and_of_nothing():
    # a 0-dimensional complex counts its distinct points, an empty one has
    # no face count at all
    assert SimplicialComplex(3, [(0,), (2,), (1,), (2,)]).fvector_enumerated() == (3,)
    assert SimplicialComplex(0, []).fvector_enumerated() == ()


def test_stirling_examples():
    assert stirling2(4, 2) == 7
    assert stirling2(5, 3) == 25
    assert stirling2(6, 1) == 1
    assert stirling2(3, 5) == 0


def test_stirling_formula_matches_recurrence():
    for n in range(8):
        for m in range(n + 2):
            assert stirling2(n, m) == stirling2_recurrence(n, m)


def test_fvector_formula_rows():
    factors = {
        2: (1, 3, 2),
        3: (1, 7, 12, 6),
        4: (1, 15, 50, 60, 24),
        5: (1, 31, 180, 390, 360, 120),
    }
    for d, row in factors.items():
        k = KSignature((1,) * (d + 1))
        order = k.order()
        assert fvector_formula(k) == tuple(order * f for f in row)


def test_fvector_formula_matches_enumeration():
    for n in (3, 4):
        for entries in product((1, 2), repeat=n):
            k = KSignature(entries)
            assert fvector_formula(k) == torus(entries).fvector_enumerated()


def test_duality_examples():
    g = graph((1, 1, 1))
    dg = dual_graph(torus((1, 1, 1)))
    assert dg.vertex_count == 14
    assert dg.edge_count == 21
    assert dg.adjacency == g.adjacency


def test_duality_positional_for_small_signatures():
    for n in (3, 4):
        for entries in product((1, 2), repeat=n):
            assert dual_graph(torus(entries)).adjacency == graph(entries).adjacency


def test_dual_graph_triangle():
    c = SimplicialComplex(vertex_count=3, facets=((0, 1), (0, 2), (1, 2)))
    dg = dual_graph(c)
    assert dg.vertex_count == 3
    assert dg.edge_count == 3


def test_euler_characteristic():
    assert torus((1, 1, 1)).euler_characteristic() == 0
    assert torus((1, 1, 1, 1)).euler_characteristic() == 15 - 105 + 180 - 90 == 0
    for entries in [(2, 1, 2), (1, 3, 2), (2, 2, 2, 1)]:
        assert torus(entries).euler_characteristic() == 0


def test_face_class_census_matches_formula():
    # count canonical tiling faces per codimension directly via the
    # canonical-name construction: (partition with 1 first, class) pairs
    from heawood_kit.lattice import enumerate_fundamental
    from oracles import OrderedPartition

    def ordered_partitions(n, blocks):
        def helper(remaining, parts_left):
            if not remaining:
                if parts_left == 0:
                    yield ()
                return
            if parts_left == 0:
                return
            items = sorted(remaining)
            from itertools import combinations

            for size in range(1, len(items) + 1):
                for block in combinations(items, size):
                    rest = remaining - set(block)
                    for tail in helper(rest, parts_left - 1):
                        yield (frozenset(block),) + tail

        yield from helper(set(range(1, n + 1)), blocks)

    for entries in [(1, 1, 1), (2, 1, 2)]:
        k = KSignature(entries)
        n = k.n
        order = k.order()
        for codim in range(1, n + 1):
            canonical = [
                p for p in ordered_partitions(n, codim) if 1 in p[0]
            ]
            count = len(canonical) * order
            i = codim - 1
            expected = factorial(i) * stirling2(n, i + 1) * order
            assert count == expected


def test_general_quotient_census_orders():
    heawood = build_mk((1, 1, 1))
    assert build_general_quotient(heawood).vertex_count == 14
    mk = IntMatrix.from_rows([(2, 0, -1), (0, 2, -1), (-1, -1, 3)])
    assert build_general_quotient(mk).vertex_count == 16
    pappus = IntMatrix.from_rows([(3, 0, 0), (0, 3, 0), (0, 0, 3)])
    assert build_general_quotient(pappus).vertex_count == 18


def test_general_quotient_matches_strict_mode():
    # canonical class representatives differ between the two reducers, so
    # compare through the coordinate-level bijection instead of labels
    g_strict = graph((1, 1, 1))
    g_general = build_general_quotient(build_mk((1, 1, 1)))
    assert g_general.vertex_count == g_strict.vertex_count
    assert g_general.edge_count == g_strict.edge_count
    phi = [g_general.vertex_of(label) for label in g_strict.labels]
    assert sorted(phi) == list(range(g_strict.vertex_count))
    for i, nbrs in enumerate(g_strict.adjacency):
        assert {phi[j] for j in nbrs} == set(g_general.adjacency[phi[i]])


def test_skeleton_of_small_torus_is_complete():
    sk = skeleton_graph(torus((1, 1, 1)))
    assert sk.vertex_count == 7
    assert sk.edge_count == 21


def test_not_simplicial_validation():
    # the raw facets of delta(0, 0, 1, 2) repeat a vertex and those of
    # delta(0, 1, 1) repeat a facet; the lattice check refuses both first
    for entries, vector in [
        ((0, 0, 1, 2), r"\(0, 1, -1, 0\)"),
        ((0, 1, 1), r"\(1, -1, 0\)"),
    ]:
        index = KSignature(entries).index
        facets = quotient._tile_pass(index).facets()
        with pytest.raises(NotSimplicial):
            oracles.validate_per_facet(
                SimplicialComplex(vertex_count=index.order, facets=tuple(facets))
            )
        with pytest.raises(NotSimplicial, match=vector):
            build_torus_complex(KSignature(entries))


ORACLE_SIGNATURES = [
    (1, 1, 1), (2, 1, 2), (1, 3, 2), (3, 3, 3, 3), (2, 1, 3, 1), (2, 2, 2, 2, 2)
]
ORACLE_DELTAS = [(3, 3, 0), (6, 6, 0)]
ORACLE_CENSUS = [
    [(2, -1, 0), (0, 2, -1), (-1, 0, 2)],
    [(4, 0, -1), (0, 4, -1), (-1, -1, 5)],
]


@pytest.mark.parametrize("entries", ORACLE_SIGNATURES)
def test_closed_form_index_matches_bfs_oracle(entries):
    k = KSignature(entries)
    reduce = lambda a: reduce_by_scan(a, k)  # noqa: E731
    labels, adjacency = oracles.bfs_quotient(k.d, reduce)
    g = build_heawood_graph(k)
    assert g.labels == labels
    assert g.adjacency == adjacency
    c = build_torus_complex(k)
    classes = enumerate_fundamental(k)
    assert c.facets == oracles.torus_facets(labels, reduce, classes)
    assert c.vertex_labels == tuple(classes)


@pytest.mark.parametrize("entries", ORACLE_DELTAS)
def test_closed_form_index_matches_bfs_oracle_delta(entries):
    k = KSignature(entries)
    g = build_heawood_graph(k)
    reduce = lambda a: reduce_to_fundamental(a, k)  # noqa: E731
    assert (g.labels, g.adjacency) == oracles.bfs_quotient(k.d, reduce)


@pytest.mark.parametrize("rows", ORACLE_CENSUS)
def test_closed_form_index_matches_bfs_oracle_census(rows):
    m = IntMatrix.from_rows(rows)
    g = build_general_quotient(m)
    labels, adjacency = oracles.bfs_quotient(2, ClassIndex(m).rep)
    assert (g.labels, g.adjacency) == (labels, adjacency)


@pytest.mark.parametrize(
    "build",
    [
        lambda: build_general_quotient(IntMatrix.from_rows(ORACLE_CENSUS[1])),
        lambda: build_heawood_graph(KSignature((3, 3, 0))),
    ],
)
def test_key_of_reuses_the_quotients_reducer(build, monkeypatch):
    g = build()
    calls = []
    original = lattice.hermite_basis

    def counting(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(lattice, "hermite_basis", counting)
    for label in g.labels[:5]:
        assert g.key_of(label) == label
        shifted = tuple(a + b for a, b in zip(label, w_vector(1, g.d)))
        assert g.key_of(shifted) in g.labels
    assert calls == []


LOOKUP_QUOTIENTS = (
    [pytest.param(KSignature(e), id=str(e)) for e in ORACLE_SIGNATURES]
    + [pytest.param(KSignature(e), id=f"delta{e}") for e in ORACLE_DELTAS]
    + [pytest.param(IntMatrix.from_rows(r), id=f"census{r}") for r in ORACLE_CENSUS]
)


@pytest.mark.parametrize("quotient", LOOKUP_QUOTIENTS)
def test_vertex_of_matches_the_key_oracle(quotient):
    if isinstance(quotient, KSignature):
        g, rows = build_heawood_graph(quotient), quotient.matrix().row_list()
        reduce = reduce_to_fundamental if 0 in quotient.entries else reduce_by_scan
        reducer = lambda a: reduce(a, quotient)  # noqa: E731
    else:
        g, rows = build_general_quotient(quotient), quotient.row_list()
        reducer = ClassIndex(quotient).rep
    shift = to_ambient([2 * a - b for a, b in zip(rows[0], rows[-1])])
    index = {label: i for i, label in enumerate(g.labels)}
    for label in g.labels:
        shifted = tuple(a + b for a, b in zip(label, shift))
        # far from the origin, with negative coordinates: the lookup's
        # exact division must floor them as the oracle does
        far = tuple(a - 10**6 * b for a, b in zip(label, shift))
        for x in [label, shifted, far] + neighbors(label):
            assert g.vertex_of(x) == index[oracles.key(x, reducer)]


def test_vertex_of_reduces_once(monkeypatch):
    g = graph((2, 1, 2))
    calls = []
    original = lattice.reduce_to_fundamental

    def counting(a, k):
        calls.append(a)
        return original(a, k)

    monkeypatch.setattr(lattice, "reduce_to_fundamental", counting)
    far = tuple(a + 7 * b for a, b in zip((1, 2, 3), w_vector(2, 2)))
    for x in [(1, 2, 3), far] + neighbors(far):
        calls.clear()
        g.vertex_of(x)
        assert calls == []


@pytest.mark.parametrize(
    "source",
    [
        (2, 1, 2),
        (3, 3, 3, 3),
        (3, 3, 0),
        ORACLE_CENSUS[1],
        build_mk((2, 1, 2, 1)).row_list(),
    ],
)
def test_build_reduces_once_per_class_and_coordinate(source, monkeypatch):
    if isinstance(source[0], int):
        k = KSignature(source)
        d, order = k.d, k.order()
        build = lambda: build_heawood_graph(k)  # noqa: E731
    else:
        m = IntMatrix.from_rows(source)
        d, order = m.cols - 1, lattice.quotient_order_general(m)
        build = lambda: build_general_quotient(m)  # noqa: E731
    calls = {"hermite_basis": 0, "reduce_to_fundamental": 0}
    for name in calls:
        original = getattr(lattice, name)

        def counting(*args, name=name, original=original):
            calls[name] += 1
            return original(*args)

        monkeypatch.setattr(lattice, name, counting)
    assert build().vertex_count == factorial(d) * order
    assert calls == {"hermite_basis": 1, "reduce_to_fundamental": 0}


@pytest.mark.parametrize(
    "build",
    [
        lambda: build_heawood_graph(KSignature((0, 0, 1))),
        lambda: build_general_quotient(identity_matrix(3)),
    ],
    ids=["delta(0, 0, 1)", "census identity"],
)
def test_builders_refuse_degenerate_quotients(build):
    with pytest.raises(
        DegenerateQuotient, match=r"unit vector \(1, 0, 0\), so .* edges on .* vertices, not"
    ):
        build()


def test_general_quotient_refuses_matrices_narrower_than_three_columns():
    with pytest.raises(ShapeError, match="generator matrix has 2 columns"):
        build_general_quotient(IntMatrix.from_rows([(2, -1), (-1, 2)]))


def test_vertex_of_refuses_points_off_the_tiling():
    with pytest.raises(SliceError, match=r"\(1, 5, 4, 0\)"):
        graph((1, 1, 1, 1)).key_of((1, 5, 4, 0))
    with pytest.raises(SliceError, match=r"\(1, 1, 1\)"):
        graph((1, 1, 1)).key_of((1, 1, 1))
    with pytest.raises(ValueError, match="no quotient data"):
        dual_graph(torus((1, 1, 1))).vertex_of((1, 2, 3))


BUILDER_QUOTIENTS = (
    [
        pytest.param(KSignature(e), id=str(e))
        for e in [(2, 1, 2), (3, 3, 3, 3), (2, 2, 2, 2, 2), (1, 1, 1, 1, 1, 1)]
    ]
    + [pytest.param(KSignature(e), id=f"delta{e}") for e in ORACLE_DELTAS]
    + [pytest.param(parse_matrix_arg(text), id=text) for text in CENSUS_MATRICES]
)


def class_index(source):
    if isinstance(source, KSignature):
        return ClassIndex(source.matrix(), enumerate_fundamental(source)), source
    return ClassIndex(source), None


@pytest.mark.parametrize("source", BUILDER_QUOTIENTS)
def test_builder_matches_the_per_vertex_oracle(source):
    index, k = class_index(source)
    g = quotient._quotient_graph(index, k)
    facets = SimplicialComplex(index.order, index.tile_pass.facets()).facets
    want, want_facets = oracles.build_per_vertex(index, k)
    assert g.labels == want.labels
    assert g.adjacency == want.adjacency
    assert facets == want_facets
    assert g.rank == want.rank
    assert g.position == want.position
    assert g.signature == want.signature and g.lattice is index


@pytest.mark.parametrize(
    "source",
    [KSignature((0, 0, 1)), identity_matrix(3)],
    ids=["delta(0, 0, 1)", "census identity"],
)
def test_builder_refuses_degenerate_quotients_as_the_oracle_does(source):
    index, k = class_index(source)
    assert oracle_refusal(index, k) == builder_refusal(index)


def oracle_refusal(index, k=None):
    """The edge counts the per-vertex oracle refuses a quotient with, or
    None when it builds the quotient."""
    try:
        oracles.build_per_vertex(index, k)
    except DegenerateQuotient as exc:
        # "degenerate quotient: E edges on V vertices, not 3V/2; ..."
        return str(exc).split(": ")[1].split(";")[0]
    return None


def builder_refusal(index):
    """The edge counts the builder refuses a quotient with, after the unit
    vector it names, or None when it builds the quotient."""
    vector = index.unit_vector()
    try:
        quotient._tile_pass(index)
    except DegenerateQuotient as exc:
        assert not any(index.key(vector)) and sorted(vector) == [0, 0, 1]
        head, counts = str(exc).split(", so ")
        assert head == f"degenerate quotient: the lattice holds the unit vector {vector}"
        return counts
    assert vector is None
    return None


def test_unit_vector_decides_degeneracy_as_the_oracle_does():
    # every zero-entry signature of three grids, and seeded three-column
    # lattices; for d >= 3 no quotient is degenerate
    indexes = [
        ClassIndex(KSignature(entries).matrix())
        for n, top in ((3, 3), (4, 2), (5, 1))
        for entries in product(range(top + 1), repeat=n)
        if 0 in entries
    ] + list(random_lattices(100, columns=3, entries=3, vertices=200))
    refusals = [oracle_refusal(index) for index in indexes]
    assert refusals == [builder_refusal(index) for index in indexes]
    degenerate = [index for index, r in zip(indexes, refusals) if r is not None]
    assert (len(indexes), len(degenerate)) == (233, 45)
    assert {index.rows.cols for index in degenerate} == {3}


DUAL_COMPLEXES = {
    "ridge in three facets": ((0, 1, 2), (0, 1, 3), (0, 1, 4)),
    "ridge in four facets": ((0, 1, 2), (0, 1, 3), (0, 1, 4), (0, 1, 5), (1, 2, 3)),
    "boundary ridges": ((0, 1, 2), (1, 2, 3)),
    "ridge twice in one facet": ((0, 0, 1), (0, 1, 2)),
    "facet repeated": ((0, 1, 2), (0, 1, 2), (0, 1, 3)),
    "one facet": ((0, 1, 2),),
}


@pytest.mark.parametrize("facets", DUAL_COMPLEXES.values(), ids=DUAL_COMPLEXES.keys())
def test_dual_graph_matches_ridge_groups(facets):
    c = SimplicialComplex(vertex_count=6, facets=facets)
    assert dual_graph(c).adjacency == oracles.dual_graph_grouped(c)


def test_dual_graph_of_tori_matches_ridge_groups():
    for entries in [(1, 1, 1), (2, 1, 3, 1), (2, 2, 2, 2, 2)]:
        c = torus(entries)
        assert dual_graph(c).adjacency == oracles.dual_graph_grouped(c)


def genuine_torus(index):
    """Do the facets of the quotient build, pass the per-facet oracle and
    count i! S(d+1, i+1) D faces of each dimension i?"""
    try:
        facets = quotient._tile_pass(index).facets()
    except DegenerateQuotient:
        return False
    c = SimplicialComplex(vertex_count=index.order, facets=tuple(facets))
    try:
        oracles.validate_per_facet(c)
    except NotSimplicial:
        return False
    n = index.rows.cols
    return c.fvector_enumerated() == tuple(
        factorial(i) * stirling2(n, i + 1) * index.order for i in range(n)
    )


def assert_short_vector_decides_the_torus(index):
    vector = index.short_vector()
    if vector is not None:
        assert set(vector) <= {-1, 0, 1} and len(set(vector)) > 1
        assert not any(index.key(vector))
    assert (vector is None) == genuine_torus(index)
    return vector is None


def random_lattices(count, seed=7, columns=None, entries=2, vertices=600):
    """Seeded lattices with ``columns`` columns, else 3-5, entries in
    [-entries, entries] and at most ``vertices`` graph vertices."""
    rng = random.Random(seed)
    while count:
        n = columns or rng.randint(3, 5)
        rows = [
            tuple(rng.randint(-entries, entries) for _ in range(n)) for _ in range(n - 1)
        ]
        try:
            index = ClassIndex(IntMatrix.from_rows(rows))
        except InfiniteQuotient:
            continue
        if factorial(n - 1) * index.order <= vertices:
            count -= 1
            yield index


def test_short_vector_decides_the_torus_on_the_delta_grid():
    grid = [
        entries
        for n, top in ((3, 4), (4, 3))
        for entries in product(range(top + 1), repeat=n)
        if 0 in entries
    ]
    tori = [
        entries
        for entries in grid
        if assert_short_vector_decides_the_torus(
            ClassIndex(KSignature(entries).matrix())
        )
    ]
    assert (len(grid), len(tori)) == (236, 59)
    assert (0, 2, 2) in tori and (0, 1, 1) not in tori


def test_short_vector_decides_the_torus_on_random_lattices():
    tori = sum(map(assert_short_vector_decides_the_torus, random_lattices(300)))
    assert tori == 35


def test_strict_signatures_have_no_short_vector():
    for n, top in ((3, 6), (4, 4), (5, 2), (6, 1)):
        for entries in product(range(1, top + 1), repeat=n):
            assert KSignature(entries).index.short_vector() is None


GRID_SIGNATURES = [
    entries
    for n, top in ((3, 3), (4, 2))
    for entries in product(range(1, top + 1), repeat=n)
]
CENSUS_TORI = [
    text
    for text in CENSUS_MATRICES + ["2,-1,0;0,2,-3;-1,0,4"]
    if ClassIndex(parse_matrix_arg(text)).short_vector() is None
]


def class_table_indexes():
    """Indexes of the grids, two delta signatures, the census matrices,
    seeded random lattices and two order-1 quotients."""
    yield from (KSignature(entries).index for entries in GRID_SIGNATURES)
    for entries in [(0, 2, 2), (6, 6, 0)]:
        yield KSignature(entries).index
    yield from (ClassIndex(parse_matrix_arg(text)) for text in CENSUS_MATRICES)
    yield from random_lattices(60)
    yield from (ClassIndex(identity_matrix(n)) for n in (3, 4))


def test_column_wise_class_tables_equal_the_per_class_ones():
    indexes = list(class_table_indexes())
    for index in indexes:
        assert index.keys == [index.key(a) for a in index.classes]
        ambient = [to_ambient(a) for a in index.classes]
        assert list(zip(*lattice.ambient_columns(index.classes))) == ambient
        if index.unit_vector() is None:
            assert quotient._tile_pass(index).ambient == ambient
    # the identity matrices, and some random lattices, give order 1
    order_one = [index for index in indexes if index.order == 1]
    assert indexes[-2:] == order_one[-2:]
    assert all((index.moduli, index.keys) == ((), [()]) for index in order_one)


def test_torus_build_makes_no_graph(monkeypatch):
    made = []
    original = quotient.QuotientGraph

    def counting(*args, **kwargs):
        made.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(quotient, "QuotientGraph", counting)
    build_torus_complex(KSignature((2, 1, 3, 1)))
    build_torus_complex(ClassIndex(parse_matrix_arg(CENSUS_TORI[0])))
    assert made == []


@pytest.mark.parametrize(
    "source",
    [pytest.param(KSignature(e), id=str(e)) for e in GRID_SIGNATURES]
    + [pytest.param(parse_matrix_arg(text), id=text) for text in CENSUS_TORI],
)
def test_torus_facets_and_dual_match_the_graph_build(source):
    index, k = class_index(source)
    c = build_torus_complex(index)
    g, facets = oracles.build_per_vertex(index, k)
    assert c.facets == facets
    built = build_heawood_graph(k) if k else build_general_quotient(index)
    assert built.adjacency == g.adjacency
    assert dual_graph(c).adjacency == g.adjacency


def shuffled(c, rng):
    """The complex made from its facets with the vertices inside each shuffled."""
    facets = [rng.sample(facet, len(facet)) for facet in c.facets]
    return SimplicialComplex(c.vertex_count, facets, c.vertex_labels)


SHUFFLED_COMPLEXES = {
    **{name: SimplicialComplex(6, facets) for name, facets in DUAL_COMPLEXES.items()},
    "klein quartic": klein_quartic(),
    "torus (2, 1, 3, 1)": torus((2, 1, 3, 1)),
}


@pytest.mark.parametrize(
    "c", SHUFFLED_COMPLEXES.values(), ids=SHUFFLED_COMPLEXES.keys()
)
def test_vertex_order_inside_facets_changes_nothing(c):
    # the constructor sorts each facet, so a shuffled complex is the same value
    rng = random.Random(7)
    for _ in range(3):
        s = shuffled(c, rng)
        assert s == c
        assert all(list(facet) == sorted(facet) for facet in s.facets)
        assert s.fvector_enumerated() == c.fvector_enumerated()
        assert s.euler_characteristic() == c.euler_characteristic()
        assert dual_graph(s).adjacency == dual_graph(c).adjacency
        assert oracles.dual_graph_grouped(s) == dual_graph(c).adjacency
        for i in range(c.dim + 1):
            assert s.faces(i) == c.faces(i)
            assert all(list(face) == sorted(face) for face in s.faces(i))


def count_quotient_work(monkeypatch):
    """Count the Hermite bases and the tile passes made from now on."""
    calls = {"hermite_basis": 0, "_tile_pass": 0}
    for module, name in ((lattice, "hermite_basis"), (quotient, "_tile_pass")):
        original = getattr(module, name)

        def counting(*args, name=name, original=original):
            calls[name] += 1
            return original(*args)

        monkeypatch.setattr(module, name, counting)
    return calls


@pytest.mark.parametrize("torus_first", [True, False], ids=["torus first", "graph first"])
def test_one_signature_object_makes_one_smith_form_and_one_tile_pass(
    torus_first, monkeypatch
):
    entries = (2, 1, 3, 1)
    fresh_graph = build_heawood_graph(KSignature(entries))
    fresh_torus = build_torus_complex(KSignature(entries))
    calls = count_quotient_work(monkeypatch)
    k = KSignature(entries)
    if torus_first:
        c, g = build_torus_complex(k), build_heawood_graph(k)
    else:
        g, c = build_heawood_graph(k), build_torus_complex(k)
    assert calls == {"hermite_basis": 1, "_tile_pass": 1}
    assert g == fresh_graph and c == fresh_torus
    assert (g.rank, g.position) == (fresh_graph.rank, fresh_graph.position)
    assert g.lattice is k.index
    # the cache is per object: an equal but distinct signature builds again
    calls.update(hermite_basis=0, _tile_pass=0)
    build_torus_complex(KSignature(entries))
    build_heawood_graph(KSignature(entries))
    assert calls == {"hermite_basis": 2, "_tile_pass": 2}
    # a refused torus makes no tile pass
    calls.update(hermite_basis=0, _tile_pass=0)
    with pytest.raises(NotSimplicial):
        build_torus_complex(KSignature((0, 1, 1)))
    assert calls == {"hermite_basis": 1, "_tile_pass": 0}


def test_a_dropped_graph_is_freed_without_the_cycle_collector():
    # the tile pass kept on the index holds nothing that points back to it
    enabled = gc.isenabled()
    gc.disable()
    try:
        k = KSignature((2, 1, 3, 1))
        build_torus_complex(k)
        g = build_heawood_graph(k)
        del k
        lattice_ref = weakref.ref(g.lattice)
        del g
        assert lattice_ref() is None
    finally:
        if enabled:
            gc.enable()
