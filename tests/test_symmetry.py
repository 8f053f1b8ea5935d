import hashlib
import random
from bisect import bisect_left
from functools import lru_cache
from itertools import product
from math import factorial

import pytest

from heawood_kit import fixtures, intlin, lattice, symmetry
from heawood_kit.artifacts import parse_matrix_arg
from heawood_kit.lattice import ClassIndex, InfiniteQuotient, KSignature
from heawood_kit.limits import CapExceeded
from heawood_kit.quotient import (
    DegenerateQuotient,
    QuotientGraph,
    build_general_quotient,
    build_heawood_graph,
)
from heawood_kit.symmetry import (
    NotAnAutomorphism,
    VertexPermutation,
    brute_force_automorphisms,
    generated_group,
    generated_order,
    is_automorphism,
    refine_colors,
)
from oracles import (
    admitted_cyclic_order,
    closure,
    compose,
    generators,
    group_closure,
    inverse,
    orbit,
    reflection,
    refine_cells,
    refine_rounds,
    rotation,
    translations,
    verify_exceptional_W,
)


@lru_cache(maxsize=None)
def graph(entries):
    return build_heawood_graph(KSignature(entries))


def cycle_graph(n):
    labels = tuple((i,) for i in range(n))
    adjacency = tuple(
        tuple(sorted(((i - 1) % n, (i + 1) % n))) for i in range(n)
    )
    return QuotientGraph(d=1, labels=labels, adjacency=adjacency)


def test_translation_generators():
    g = graph((1, 1, 1))
    gens = translations(g)
    assert len(gens) == 2
    t_group = group_closure(gens)
    assert t_group.order == 7
    assert len(orbit(t_group, 0)) == 7

    g = graph((2, 3, 2))
    assert group_closure(translations(g)).order == 24


def test_translation_by_all_w_is_identity():
    g = graph((1, 1, 1))
    gens = translations(g)
    # composing shifts along w_1 and w_2 with the inverse of both is trivial
    combined = compose(gens[0], gens[1])
    inv = inverse(combined)
    assert compose(combined, inv).images == tuple(range(g.vertex_count))


def test_rotation_R():
    g = graph((1, 1, 1))
    r = reflection(g)
    assert compose(r, r).images == tuple(range(g.vertex_count))
    assert r.images[g.vertex_of((1, 2, 3))] == g.vertex_of((3, 2, 1))
    for entries in [(2, 1, 2), (1, 3, 2), (2, 2, 2)]:
        assert is_automorphism(graph(entries), reflection(graph(entries)).images)


def test_cyclic_C_admission():
    g = graph((2, 1, 2, 1))
    assert is_automorphism(g, rotation(g, 2).images)
    with pytest.raises(NotAnAutomorphism):
        rotation(g, 1)
    assert admitted_cyclic_order(KSignature((2, 1, 2, 1))) == 2
    assert admitted_cyclic_order(
        KSignature((2, 3, 4, 3, 2, 3, 4, 3, 2, 3, 4, 3))
    ) == 3
    assert admitted_cyclic_order(KSignature((2, 2, 2))) == 3
    for s in range(1, 4):
        assert is_automorphism(graph((2, 2, 2)), rotation(graph((2, 2, 2)), s).images)


def test_admitted_cyclic_order_matches_the_lattice_rule():
    for n, top in [(3, 4), (4, 3), (5, 2)]:
        for entries in product(range(top + 1), repeat=n):
            k = KSignature(entries)
            shift = ClassIndex(k.matrix()).least_rotation()
            assert admitted_cyclic_order(k) == n // shift, entries


@pytest.mark.parametrize("text", ["2,0,-1;0,2,-1;-1,-1,3", "7,-1,0;0,7,-1;-1,0,7"])
def test_generated_group_of_census_needs_no_smith_form(text, monkeypatch):
    g = build_general_quotient(parse_matrix_arg(text))
    calls = []
    original = intlin.hermite_basis

    def counting(*args):
        calls.append(args)
        return original(*args)

    for module in (intlin, lattice):
        monkeypatch.setattr(module, "hermite_basis", counting)
    generated_group(g)
    assert calls == []


def test_cyclic_C_refuses_a_rotation_the_census_lattice_does_not_allow():
    g = build_general_quotient(parse_matrix_arg("2,0,-1;0,2,-1;-1,-1,3"))
    assert not g.lattice.admits_rotation(1)
    with pytest.raises(NotAnAutomorphism):
        rotation(g, 1)


@pytest.mark.parametrize("entries", [(1, 2, 3), (3, 1, 1), (2, 1, 2, 1)])
def test_lift_refuses_a_rotation_that_does_not_keep_the_lattice(entries):
    # a rotation the lattice rule refuses does not lift to a vertex permutation
    g = graph(entries)
    assert not g.lattice.admits_rotation(1)
    with pytest.raises(NotAnAutomorphism):
        rotation(g, 1)


def test_group_closure_examples():
    assert group_closure([VertexPermutation.identity(5)]).order == 1
    assert generated_group(graph((2, 2, 2))).order == 114
    assert generated_group(graph((1, 1, 1))).order == 42


def test_group_closure_cap():
    g = graph((2, 2, 2))
    with pytest.raises(CapExceeded):
        group_closure(generators(g), cap=10)


def test_brute_force_small_cases():
    assert brute_force_automorphisms(cycle_graph(6)).order == 12
    assert brute_force_automorphisms(graph((1, 1, 1))).order == 336
    assert brute_force_automorphisms(graph((2, 2, 2))).order == 114


def test_brute_force_agrees_with_generated_constant_k():
    for entries in [(2, 2, 2), (1, 2, 1), (2, 1, 2)]:
        g = graph(entries)
        brute = brute_force_automorphisms(g)
        generated = generated_group(g)
        if entries == (2, 2, 2):
            assert brute.order == generated.order
        expected = 2 * admitted_cyclic_order(KSignature(entries)) * KSignature(
            entries
        ).order()
        assert brute.order == expected
        assert generated.order == expected


def test_brute_force_transitive():
    for entries in [(1, 1, 1), (2, 1, 2)]:
        g = graph(entries)
        group = brute_force_automorphisms(g)
        assert len(orbit(group, 0)) == g.vertex_count


@pytest.mark.parametrize(
    "entries, sizes",
    [
        ((2, 2, 2), [38]),
        ((1, 2, 3), [36]),
        ((1, 1, 1, 1), [30, 60]),
        ((2, 1, 2, 1), [64, 64, 64]),
    ],
)
def test_brute_force_orbit_sizes(entries, sizes):
    """The d = 2 samples are vertex-transitive; the d = 3 ones are not."""
    g = graph(entries)
    group = brute_force_automorphisms(g)
    left = set(range(g.vertex_count))
    found = []
    while left:
        o = orbit(group, min(left))
        found.append(len(o))
        left -= o
    assert sorted(found) == sizes


def test_library_searches_have_no_vertex_cap(monkeypatch):
    # the caps are the command line's, checked on closed-form counts before
    # the build; the library answers graphs above them, HEAWOOD_CAP unset
    from heawood_kit.analysis import chromatic_number

    monkeypatch.delenv("HEAWOOD_CAP", raising=False)
    g = graph((2, 2, 2, 2))
    assert g.vertex_count == 390
    assert brute_force_automorphisms(g).order == generated_order(g.lattice)
    g = graph((5, 5, 5))
    assert g.vertex_count == 182
    assert chromatic_number(g) == 2


def test_generators_preserve_adjacency():
    g = graph((1, 2, 1))
    for gen in translations(g) + [reflection(g)]:
        assert is_automorphism(g, gen.images)


def test_exceptional_W():
    assert verify_exceptional_W(graph((1, 1, 1)))
    assert not verify_exceptional_W(graph((1, 2, 1)))
    g = graph((1, 1, 1))
    from heawood_kit.symmetry import is_automorphism

    assert is_automorphism(g, tuple(range(g.vertex_count)))


@pytest.mark.parametrize(
    "text, generated, brute",
    [
        ("2,0,-1;0,2,-1;-1,-1,3", 16, 96),
        ("4,0,-1;0,4,-1;-1,-1,5", 48, 96),
        ("2,-1,0;0,2,-1;-1,0,2", 42, 336),
        ("7,-1,0;0,7,-1;-1,0,7", 342, 342),
    ],
)
def test_generated_group_of_census_divides_brute_force(text, generated, brute):
    g = build_general_quotient(parse_matrix_arg(text))
    order = generated_group(g).order
    assert order == generated
    assert brute_force_automorphisms(g).order == brute
    assert brute % order == 0


CUBIC_NEEDS_BACKTRACKING = [
    (0, 2), (0, 6), (0, 7), (1, 2), (1, 3), (1, 5), (2, 4), (3, 4),
    (3, 6), (4, 9), (5, 7), (5, 8), (6, 8), (7, 9), (8, 9),
]


def graph_from_edges(n, edges):
    nbrs = [set() for _ in range(n)]
    for a, b in edges:
        nbrs[a].add(b)
        nbrs[b].add(a)
    return QuotientGraph(
        d=1,
        labels=tuple((i,) for i in range(n)),
        adjacency=tuple(tuple(sorted(s)) for s in nbrs),
    )


def test_search_matches_networkx_on_random_graphs():
    nx = pytest.importorskip("networkx")
    from networkx.algorithms.isomorphism import GraphMatcher

    def networkx_order(reference):
        return sum(1 for _ in GraphMatcher(reference, reference).isomorphisms_iter())

    rng = random.Random(20140101)
    for _ in range(400):
        n = rng.randint(1, 7)
        p = rng.choice([0.2, 0.4, 0.6, 0.8])
        edges = [
            (a, b) for a in range(n) for b in range(a + 1, n) if rng.random() < p
        ]
        reference = nx.Graph()
        reference.add_nodes_from(range(n))
        reference.add_edges_from(edges)
        expected = networkx_order(reference)
        assert brute_force_automorphisms(graph_from_edges(n, edges)).order == expected
    # refinement cannot split a regular graph, so these need individualization;
    # on the first, a search that never backtracks finds half of the group
    regular = [nx.Graph(CUBIC_NEEDS_BACKTRACKING)] + [
        nx.random_regular_graph(3, 10, seed=seed) for seed in range(60)
    ]
    for reference in regular:
        g = graph_from_edges(10, reference.edges())
        assert brute_force_automorphisms(g).order == networkx_order(reference)


def test_search_matches_networkx_on_unions_of_cubic_graphs():
    # a repeated component makes the graph not vertex-transitive and gives a
    # failed branch an orbit of more than one vertex under the stabilizer
    nx = pytest.importorskip("networkx")
    from networkx.algorithms.isomorphism import GraphMatcher

    def union_order(union):
        # |Aut| of a disjoint union: |Aut(C)|^m · m! for each component C repeated m times
        classes = []
        for nodes in nx.connected_components(union):
            component = union.subgraph(nodes)
            for entry in classes:
                if nx.is_isomorphic(entry[0], component):
                    entry[1] += 1
                    break
            else:
                classes.append([component, 1])
        order = 1
        for component, m in classes:
            aut = sum(1 for _ in GraphMatcher(component, component).isomorphisms_iter())
            order *= aut**m * factorial(m)
        return order

    for seed in range(30):
        rng = random.Random(seed)
        parts = [
            nx.random_regular_graph(3, 10, seed=rng.randrange(10**6))
            for _ in range(rng.randint(1, 2))
        ]
        parts.append(parts[0])
        rng.shuffle(parts)
        union = nx.disjoint_union_all(parts)
        g = graph_from_edges(union.number_of_nodes(), union.edges())
        assert brute_force_automorphisms(g).order == union_order(union)


@pytest.mark.parametrize(
    "entries, most", [((1, 1, 1, 1), 15), ((2, 1, 2, 1), 20), ((2, 2, 2, 2), 25)]
)
def test_failed_branch_prunes_its_orbit(entries, most, monkeypatch):
    # skipping only the failed vertex itself costs one refinement per vertex
    # of the first cell: 67, 135 and 272 calls on these graphs
    calls = 0
    individualize = symmetry._individualize

    def counting(*args):
        nonlocal calls
        calls += 1
        return individualize(*args)

    monkeypatch.setattr(symmetry, "_individualize", counting)
    brute_force_automorphisms(graph(entries))
    assert calls <= most


@pytest.mark.parametrize(
    "entries", list(product((1, 2), repeat=4)), ids=lambda k: ",".join(map(str, k))
)
def test_brute_force_equals_generated_on_d3_grid(entries):
    g = graph(entries)
    assert brute_force_automorphisms(g).order == generated_order(g.lattice)


@pytest.mark.parametrize("entries, order", [((3, 3, 3, 3), 1400), ((1, 1, 1, 1, 1), 310)])
def test_brute_force_orders_above_default_cap(entries, order):
    g = graph(entries)
    assert brute_force_automorphisms(g).order == order
    assert generated_group(g).order == order


@pytest.mark.parametrize(
    "g",
    [
        graph((1, 1, 1)),
        graph((2, 1, 2)),
        build_general_quotient(parse_matrix_arg("2,0,-1;0,2,-1;-1,-1,3")),
    ],
    ids=["1,1,1", "2,1,2", "census"],
)
def test_search_generators_generate_the_group(g):
    group = brute_force_automorphisms(g)
    assert all(is_automorphism(g, gen.images) for gen in group.generators)
    assert group_closure(group.generators).order == group.order


def test_search_keeps_initial_colors():
    # the 6-cycle with one vertex marked: only the reflection through it stays
    group = brute_force_automorphisms(cycle_graph(6), initial_colors=[1, 0, 0, 0, 0, 0])
    assert group.order == 2
    assert orbit(group, 0) == {0}
    assert orbit(group, 1) == {1, 5}


def partition(colors):
    """The set partition of a coloring, color names ignored."""
    cells = {}
    for v, c in enumerate(colors):
        cells.setdefault(c, set()).add(v)
    return {frozenset(cell) for cell in cells.values()}


def random_graph(rng, n):
    p = rng.choice([0.15, 0.3, 0.5, 0.7])
    edges = [(a, b) for a in range(n) for b in range(a + 1, n) if rng.random() < p]
    return graph_from_edges(n, edges)


def test_refine_colors_matches_round_oracle_on_random_graphs():
    rng = random.Random(19812014)
    for _ in range(300):
        n = rng.randint(1, 14)
        g = random_graph(rng, n)
        degrees = [len(nbrs) for nbrs in g.adjacency]
        assert partition(refine_colors(g)) == partition(refine_rounds(g.adjacency, degrees))
        initial = [rng.randrange(3) for _ in range(n)]
        assert partition(refine_colors(g, initial)) == partition(
            refine_rounds(g.adjacency, initial)
        )


@pytest.mark.parametrize("entries", [(1, 1, 1), (2, 1, 2), (2, 2, 2), (1, 1, 1, 1)])
def test_individualized_refinement_matches_round_oracle(entries):
    g = graph(entries)
    chain, _, _ = symmetry._base_chain(g)
    for colors, cells in chain[:-1]:
        for v in range(0, g.vertex_count, 5):
            marked = list(colors)
            marked[v] = -1
            refined = symmetry._individualize(g, colors, cells, v)[0]
            assert partition(refined) == partition(refine_rounds(g.adjacency, marked))


def test_refine_colors_is_label_independent():
    # relabelling the vertices relabels the coloring, colors included, and
    # leaves the trace as it is
    rng = random.Random(2014)
    for entries in [(2, 1, 2), (1, 1, 1, 1)]:
        g = graph(entries)
        n = g.vertex_count
        perm = list(range(n))
        rng.shuffle(perm)
        inverse = {p: v for v, p in enumerate(perm)}
        relabelled = QuotientGraph(
            d=g.d,
            labels=tuple((i,) for i in range(n)),
            adjacency=tuple(
                tuple(sorted(perm[u] for u in g.adjacency[inverse[v]]))
                for v in range(n)
            ),
        )
        root, moved_root = refine_colors(g), refine_colors(relabelled)
        for v in range(0, n, 7):
            colors, _, trace = symmetry._individualize(g, root, cells_of(root), v)
            moved, _, moved_trace = symmetry._individualize(
                relabelled, moved_root, cells_of(moved_root), perm[v]
            )
            assert all(moved[perm[u]] == colors[u] for u in range(n))
            assert moved_trace == trace


def cells_of(colors):
    """The cells of a coloring by cell starts, each keyed by its color."""
    cells = {}
    for u, c in enumerate(colors):
        cells.setdefault(c, set()).add(u)
    return cells


def cell_oracle(adjacency, colors, splitters):
    """``refine_cells`` from a coloring by cell starts."""
    return refine_cells(adjacency, list(colors), cells_of(colors), list(splitters))


def oracle_refine_colors(g, initial=None):
    values = initial if initial is not None else [len(nbrs) for nbrs in g.adjacency]
    ordered = sorted(values)
    colors = [bisect_left(ordered, x) for x in values]
    return cell_oracle(g.adjacency, colors, sorted(set(colors)))


def oracle_individualize(g, colors, v):
    start = colors[v]
    marked = [c + 1 if c == start and u != v else c for u, c in enumerate(colors)]
    return cell_oracle(g.adjacency, marked, [start])


def random_multigraph(rng, n):
    """A random graph whose rows may list a neighbour more than once."""
    rows = [[] for _ in range(n)]
    for a in range(n):
        for b in range(a + 1, n):
            if rng.random() < 0.3:
                for _ in range(rng.choice((1, 1, 2, 3))):
                    rows[a].append(b)
                    rows[b].append(a)
    return QuotientGraph(
        d=1, labels=tuple((i,) for i in range(n)), adjacency=tuple(map(tuple, rows))
    )


def klein_incidence():
    """The vertex-facet incidence graph of the Klein quartic, colored apart."""
    c = fixtures.klein_quartic()
    v = c.vertex_count
    stars = [[] for _ in range(v)]
    for f, facet in enumerate(c.facets):
        for u in facet:
            stars[u].append(v + f)
    adjacency = tuple(map(tuple, stars)) + tuple(c.facets)
    g = QuotientGraph(
        d=1, labels=tuple((i,) for i in range(len(adjacency))), adjacency=adjacency
    )
    return g, [0] * v + [1] * len(c.facets)


def assert_refinement_matches_cell_oracle(g, initial=None, stride=1):
    assert refine_colors(g, initial) == oracle_refine_colors(g, initial)
    chain, _, _ = symmetry._base_chain(g, initial)
    for colors, cells in chain[:-1]:
        for v in range(0, g.vertex_count, stride):
            if len(cells[colors[v]]) > 1:
                refined, _, _ = symmetry._individualize(g, colors, cells, v)
                assert refined == oracle_individualize(g, colors, v)


def test_refinement_matches_cell_oracle_exactly_on_random_multigraphs():
    # colors, not just partitions: the base and the branch order follow cell order
    rng = random.Random(20141204)
    for _ in range(200):
        n = rng.randint(1, 14)
        g = random_multigraph(rng, n)
        assert_refinement_matches_cell_oracle(g)
        assert_refinement_matches_cell_oracle(g, [rng.randrange(3) for _ in range(n)])


def test_refinement_hands_out_the_cells_of_its_colors(monkeypatch):
    # every coloring that refinement or individualization returns carries
    # its partition: one cell per color, keyed by it, holding its vertices
    checked = 0

    def checking(refine):
        def call(*args):
            nonlocal checked
            refined = refine(*args)
            if refined is not None:
                colors, cells, _ = refined
                assert cells == cells_of(colors)
                checked += 1
            return refined

        return call

    for name in ("_refine", "_individualize"):
        monkeypatch.setattr(symmetry, name, checking(getattr(symmetry, name)))
    rng = random.Random(20141204)  # the graphs of the exact-color test above
    for _ in range(200):
        n = rng.randint(1, 14)
        g = random_multigraph(rng, n)
        for initial in (None, [rng.randrange(3) for _ in range(n)]):
            assert_refinement_matches_cell_oracle(g, initial)
            brute_force_automorphisms(g, initial_colors=initial)
    assert checked > 1000


@pytest.mark.parametrize(
    "source",
    [(1, 1, 1), (2, 1, 2), (2, 2, 2), (1, 1, 1, 1), (2, 1, 2, 1), "2,0,-1;0,2,-1;-1,-1,3"],
    ids=lambda s: s if isinstance(s, str) else ",".join(map(str, s)),
)
def test_refinement_matches_cell_oracle_exactly_on_quotients(source):
    if isinstance(source, str):
        g = build_general_quotient(parse_matrix_arg(source))
    else:
        g = graph(source)
    assert_refinement_matches_cell_oracle(g, stride=3)


def test_refinement_matches_cell_oracle_exactly_on_the_klein_incidence_graph():
    g, colors = klein_incidence()
    assert_refinement_matches_cell_oracle(g, colors)
    assert_refinement_matches_cell_oracle(g)


@pytest.mark.parametrize("entries, order", [((1, 1, 1, 1), 120), ((2, 1, 2, 1), 128)])
def test_trace_stops_failing_branches_early(entries, order, monkeypatch):
    # a branch whose refinement departs from the first path's trace is
    # stopped there; refined to the end, it fails the cell-shape check too
    g = graph(entries)
    individualize = symmetry._individualize
    shapes, traces = [], []
    stopped = 0

    def checking(g, colors, cells, v, trace=None):
        nonlocal stopped
        refined = individualize(g, colors, cells, v, trace)
        if trace is None:  # the first path, one base level after another
            shapes.append(sorted(refined[0]))
            traces.append(refined[2])
        elif refined is None:
            stopped += 1
            level = next(i for i, t in enumerate(traces) if t is trace)
            assert sorted(individualize(g, colors, cells, v)[0]) != shapes[level]
        return refined

    with monkeypatch.context() as patch:
        patch.setattr(symmetry, "_individualize", checking)
        group = brute_force_automorphisms(g)
    assert stopped > 0
    assert group.order == order

    def untraced(g, colors, cells, v, trace=None):
        return individualize(g, colors, cells, v)

    # without the stop the search visits more branches and finds the same group
    monkeypatch.setattr(symmetry, "_individualize", untraced)
    assert brute_force_automorphisms(g) == group


CENSUS_MATRICES = [
    "2,0,-1;0,2,-1;-1,-1,3",
    "4,0,-1;0,4,-1;-1,-1,5",
    "2,-1,0;0,2,-1;-1,0,2",
    "7,-1,0;0,7,-1;-1,0,7",
]


# order, _individualize calls and the first 16 hex digits of the SHA-256
# of the generator image arrays: trying other branches, or the same ones
# in another order, changes the calls or the generators.  A census
# quotient's digest also follows its numbering, which its listed classes,
# the min-zero vectors of the Hermite box, decide
SEARCH_TREES = {
    "1,1,1": (336, 14, "143fd4b000c7cafe"),
    "2,2,2": (114, 5, "463e9490c1d21d4d"),
    "3,3,3": (222, 5, "5b6712311d004c0a"),
    "4,4,4": (366, 5, "d65d3fc2e7d87bdc"),
    "1,1,1,1": (120, 11, "09e1e54e001875ea"),
    "2,1,2,1": (128, 13, "97d4651e007115f3"),
    "2,2,2,2": (520, 16, "2b25991002da134f"),
    "klein": (336, 9, "e5c4396d307d324f"),
    "2,0,-1;0,2,-1;-1,-1,3": (96, 9, "879db7b9b183ff41"),
    "4,0,-1;0,4,-1;-1,-1,5": (96, 7, "29658634e217894c"),
    "2,-1,0;0,2,-1;-1,0,2": (336, 14, "5d3164e4c7a4de3e"),
    "7,-1,0;0,7,-1;-1,0,7": (342, 5, "d3188e025c694cea"),
}


@pytest.mark.parametrize("source", SEARCH_TREES)
def test_search_tree_is_pinned(source, monkeypatch):
    initial = None
    if source == "klein":  # the incidence graph with vertices and facets apart
        g, initial = klein_incidence()
    elif ";" in source:
        g = build_general_quotient(parse_matrix_arg(source))
    else:
        g = graph(tuple(map(int, source.split(","))))
    calls = 0
    individualize = symmetry._individualize

    def counting(*args):
        nonlocal calls
        calls += 1
        return individualize(*args)

    monkeypatch.setattr(symmetry, "_individualize", counting)
    group = brute_force_automorphisms(g, initial_colors=initial)
    digest = hashlib.sha256(repr([gen.images for gen in group.generators]).encode())
    assert (group.order, calls, digest.hexdigest()[:16]) == SEARCH_TREES[source]


def buildable_signatures(top, n):
    """The quotients of the signatures in {0..top}^n that build."""
    graphs = []
    for entries in product(range(top + 1), repeat=n):
        try:
            graphs.append(build_heawood_graph(KSignature(entries)))
        except DegenerateQuotient:
            pass
    return graphs


def census_quotients(count, most):
    """Quotients of seeded matrices of 3 and 4 columns and as many rows or
    one fewer, entries in [-3, 3], of order at most ``most``; infinite and
    degenerate ones are skipped."""
    rng = random.Random(7)
    graphs = []
    while len(graphs) < count:
        n = rng.choice((3, 4))
        rows = [
            [rng.randint(-3, 3) for _ in range(n)] for _ in range(n - rng.randint(0, 1))
        ]
        try:
            index = ClassIndex(intlin.IntMatrix.from_rows(rows))
            if index.order <= most:
                graphs.append(build_general_quotient(index))
        except (InfiniteQuotient, DegenerateQuotient):
            pass
    return graphs


# the signatures of the benchmark's automorphism workload, the census
# matrices one by one, and three grids of quotients
QUOTIENTS = {
    **{
        ",".join(map(str, k)): lambda k=k: [graph(k)]
        for k in [(1, 1, 1), (2, 2, 2), (3, 3, 3), (4, 4, 4), (1, 1, 1, 1), (2, 1, 2, 1),
                  (2, 2, 2, 2)]
    },
    **{
        text: lambda text=text: [build_general_quotient(parse_matrix_arg(text))]
        for text in CENSUS_MATRICES
    },
    "0..3^3": lambda: buildable_signatures(3, 3),
    "0..2^4": lambda: buildable_signatures(2, 4),
    "census": lambda: census_quotients(60, 100),
}


@lru_cache(maxsize=None)
def lifted(source):
    """Each quotient of a source with its generators lifted vertex by vertex."""
    return [(g, generators(g)) for g in QUOTIENTS[source]()]


@pytest.mark.parametrize("source", QUOTIENTS)
def test_generated_order_matches_closure(source):
    for g, gens in lifted(source):
        assert group_closure(gens).order == generated_order(g.lattice)
        assert generated_group(g).order == generated_order(g.lattice)


@pytest.mark.parametrize(
    "rows",
    [
        KSignature((0, 0, 1)).matrix(),
        KSignature((0, 0, 0)).matrix(),
        intlin.IntMatrix.from_rows([(1, 0, 0), (0, 1, 0), (0, 0, 1)]),
    ],
    ids=["delta(0, 0, 1)", "delta(0, 0, 0)", "census identity"],
)
def test_generated_order_refuses_degenerate_quotients(rows):
    with pytest.raises(DegenerateQuotient, match=r"unit vector \(1, 0, 0\)"):
        generated_order(ClassIndex(rows))


def test_a_signature_index_answers_its_order_without_listing_a_class(monkeypatch):
    # the index of a signature makes its Hermite basis alone; the 265,761
    # fundamental vectors of (40,40,40,40) are listed only when read
    listed = []
    original = lattice._fundamental

    def recording(entries):
        listed.append(entries)
        yield from original(entries)

    monkeypatch.setattr(lattice, "_fundamental", recording)
    k = KSignature((40, 40, 40, 40))
    assert k.index.order == intlin.closed_form_dk(k.entries) == 265_761
    assert generated_order(k.index) == 2 * 265_761 * 4 == 2_126_088
    assert listed == [] and "classes" not in vars(k.index)


@pytest.mark.parametrize("source", QUOTIENTS)
def test_every_lifted_generator_is_an_automorphism(source):
    for g, gens in lifted(source):
        assert all(is_automorphism(g, gen.images) for gen in gens)


def test_is_automorphism_reads_unsorted_rows():
    # a 6-cycle whose rows list the next vertex before the previous one
    g = QuotientGraph(
        d=1,
        labels=tuple((i,) for i in range(6)),
        adjacency=tuple(((i + 1) % 6, (i - 1) % 6) for i in range(6)),
    )
    assert is_automorphism(g, tuple(range(6)))
    assert is_automorphism(g, tuple((-i) % 6 for i in range(6)))
    # swapping 0 and 1 sends the edge {1, 2} to {0, 2}
    assert not is_automorphism(g, (1, 0, 2, 3, 4, 5))


def test_value_types_compare_hash_and_refuse_assignment_by_their_fields():
    g = graph((1, 1, 1))
    bare = QuotientGraph(g.d, g.labels, adjacency=g.adjacency, signature=g.signature)
    # the quotient data stays out of equality and hashing
    assert bare == g and hash(bare) == hash(g) and bare.lattice is None
    assert g != QuotientGraph(g.d, g.labels, g.adjacency)
    swap = VertexPermutation((1, 0))
    group = symmetry.PermutationGroup((swap,), 2)
    values = [
        (intlin.IntMatrix(1, 2, (3, 4)), intlin.IntMatrix(rows=1, cols=2, entries=(3, 4))),
        (KSignature((1, 2, 0)), KSignature(entries=[1, 2, 0])),
        (swap, VertexPermutation(images=(1, 0))),
        (group, symmetry.PermutationGroup(generators=(swap,), order=2)),
    ]
    for value, same in values + [(g, bare)]:
        assert value == same and hash(value) == hash(same)
        assert repr(value) == repr(same)
        with pytest.raises(AttributeError):
            value.order = 1
        with pytest.raises(AttributeError):
            del value.entries
    assert KSignature((1, 1, 1)) != KSignature((1, 1, 2))
    assert repr(KSignature((1, 2, 3))) == "KSignature(entries=(1, 2, 3))"
    assert closure(group.generators) == {swap, VertexPermutation.identity(2)}
    assert g.neighbour_sets[0] == set(g.adjacency[0])
