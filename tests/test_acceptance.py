"""End-to-end acceptance checks, one test per criterion.

Run with -v to get one pass/fail line per criterion.  Each test is
self-contained: it rebuilds everything it checks from the library entry
points rather than trusting intermediate state from other tests.
"""

from functools import lru_cache
from itertools import product
from math import factorial

from oracles import (
    admitted_cyclic_order,
    det,
    heawood_number,
    integer_span_contains,
    skeleton_graph,
    verify_exceptional_W,
)

from heawood_kit.analysis import (
    chromatic_number,
    hamiltonian_alternating,
    is_bipartite,
    six_cycles_through,
)
from heawood_kit.fixtures import klein_quartic, klein_quartic_aut_order
from heawood_kit.intlin import IntMatrix, build_mk, closed_form_dk
from heawood_kit.lattice import KSignature
from heawood_kit.quotient import (
    alternating_sum,
    build_general_quotient,
    build_heawood_graph,
    build_torus_complex,
    dual_graph,
    fvector_formula,
    stirling2,
)
from heawood_kit.symmetry import brute_force_automorphisms, generated_group


@lru_cache(maxsize=None)
def graph(entries):
    return build_heawood_graph(KSignature(entries))


@lru_cache(maxsize=None)
def torus(entries):
    return build_torus_complex(KSignature(entries))


def test_criterion_01_classical_case_counts():
    g = graph((1, 1, 1))
    assert (g.vertex_count, g.edge_count) == (14, 21)
    assert all(len(nbrs) == 3 for nbrs in g.adjacency)
    assert torus((1, 1, 1)).fvector_enumerated() == (7, 21, 14)


def test_criterion_02_tabulated_orders_and_fvectors():
    table = {
        (1, 1, 1): 7,
        (1, 2, 1): 10,
        (2, 2, 2): 19,
        (2, 2, 3): 24,
        (3, 2, 1): 18,
        (3, 1, 2): 18,
    }
    for entries, order in table.items():
        k = KSignature(entries)
        assert k.order() == order
        assert closed_form_dk(entries) == order
        assert det(build_mk(entries)) == order
        assert fvector_formula(k) == (order, 3 * order, 2 * order)
        assert torus(entries).fvector_enumerated() == (
            order,
            3 * order,
            2 * order,
        )


def test_criterion_03_fvector_factor_rows():
    factors = {
        2: (1, 3, 2),
        3: (1, 7, 12, 6),
        4: (1, 15, 50, 60, 24),
        5: (1, 31, 180, 390, 360, 120),
    }
    for d, row in factors.items():
        n = d + 1
        assert row == tuple(
            factorial(i) * stirling2(n, i + 1) for i in range(n)
        )
        k = KSignature((1,) * n)
        assert fvector_formula(k) == tuple(k.order() * f for f in row)


def test_criterion_04_formula_matches_enumeration():
    for n in (3, 4):
        for entries in product((1, 2), repeat=n):
            k = KSignature(entries)
            c = torus(entries)
            assert fvector_formula(k) == c.fvector_enumerated()
            g = graph(entries)
            d, order = k.d, k.order()
            assert g.vertex_count == factorial(d) * order
            assert g.edge_count == factorial(d + 1) // 2 * order


def test_criterion_05_duality():
    for n in (3, 4):
        for entries in product((1, 2), repeat=n):
            c = torus(entries)
            g = graph(entries)
            dg = dual_graph(c)
            assert dg.adjacency == g.adjacency
            assert alternating_sum(c.fvector_enumerated()) == 0


def test_criterion_06_automorphism_orders():
    assert brute_force_automorphisms(graph((1, 1, 1))).order == 336
    for entries in [(2, 2, 2), (3, 3, 3), (1, 1, 1, 1)]:
        k = KSignature(entries)
        g = graph(entries)
        expected = 2 * (k.d + 1) * k.order()
        assert brute_force_automorphisms(g).order == expected
        assert generated_group(g).order == expected
    k = KSignature((2, 1, 2, 1))
    g = graph((2, 1, 2, 1))
    assert admitted_cyclic_order(k) == 2
    assert brute_force_automorphisms(g).order == 2 * 2 * k.order() == 128
    assert generated_group(g).order == 128


def test_criterion_07_exceptional_symmetry():
    assert verify_exceptional_W(graph((1, 1, 1)))
    assert not verify_exceptional_W(graph((1, 2, 1)))
    assert brute_force_automorphisms(graph((1, 1, 1))).order > generated_group(
        graph((1, 1, 1))
    ).order


def test_criterion_08_alternating_walk_counterexample():
    g = graph((1, 3, 2))
    r1 = hamiltonian_alternating(g, 1)
    assert (r1.outcome, r1.length, r1.vertices) == (
        "premature-closure",
        12,
        36,
    )
    r2 = hamiltonian_alternating(g, 3)
    assert (r2.outcome, r2.length) == ("hamiltonian-cycle", 36)
    assert sorted(r2.cycle) == list(range(36))
    for a, b in zip(r2.cycle, r2.cycle[1:] + r2.cycle[:1]):
        assert b in g.adjacency[a]


def test_criterion_09_colorings():
    assert chromatic_number(skeleton_graph(torus((1, 1, 1)))) == 7
    assert chromatic_number(graph((1, 1, 1))) == 2
    for entries in [(1, 1, 1), (2, 1, 2), (1, 3, 2), (1, 1, 1, 1, 1)]:
        assert is_bipartite(graph(entries)).bipartite
    assert heawood_number(1) == 7
    assert heawood_number(0) == 4
    assert heawood_number(6) == 12


def test_criterion_10_genus_three_fixture():
    c = klein_quartic()
    assert c.fvector_enumerated() == (24, 84, 56)
    assert alternating_sum(c.fvector_enumerated()) == -4
    assert klein_quartic_aut_order() == {"simplicial": 336, "dual_graph": 336}


def test_criterion_11_general_matrix_census():
    # the torus column: its f-vector, or the short vector that rules it out
    census = [
        ("1,-1,0;0,1,-1;3,0,-3", 3, 6, False, (0, 1, -1)),
        ("2,-1,0;0,2,-1;-1,0,2", 7, 14, True, (7, 21, 14)),
        ("2,0,-1;0,2,-1;-1,-1,3", 8, 16, True, (8, 24, 16)),
        ("3,0,0;0,3,0;0,0,3", 9, 18, False, (9, 27, 18)),
        ("2,-2,0;0,2,-2;-2,0,2", 12, 24, False, (12, 36, 24)),
        ("2,-1,0;0,2,-3;-1,0,4", 13, 26, True, (13, 39, 26)),
    ]
    from heawood_kit.artifacts import parse_matrix_arg
    from heawood_kit.lattice import ClassIndex, quotient_order_general

    for text, order, vertices, all_ones, torus in census:
        matrix = parse_matrix_arg(text)
        assert quotient_order_general(matrix) == order
        g = build_general_quotient(matrix)
        assert g.vertex_count == vertices
        assert all(len(nbrs) == 3 for nbrs in g.adjacency)
        assert integer_span_contains(matrix, (1, 1, 1)) is all_ones
        index = ClassIndex(matrix)
        assert index.all_ones_in_span is all_ones
        vector = index.short_vector()
        if vector is None:
            c = build_torus_complex(index)
            assert c.vertex_count == order
            assert c.fvector_enumerated() == torus
            assert alternating_sum(torus) == 0
            assert fvector_formula(index) == torus
        else:
            assert vector == torus


def test_criterion_12_six_cycle_census():
    g = graph((1, 1, 2))
    for v in range(g.vertex_count):
        assert len(six_cycles_through(g, v)) == 6
    g = graph((2, 2, 2))
    seed = g.vertex_of((1, 2, 3))
    assert len(six_cycles_through(g, seed)) == 3


def test_criterion_13_property_suite_runs_deterministically():
    # the hypothesis profile pins derandomize=True; spot-check that two
    # invariant samples agree across evaluations
    from oracles import vertex_key

    k = KSignature((2, 1, 2))
    first = [vertex_key((1 + 3 * t, 2 - 3 * t, 3), k) for t in range(5)]
    second = [vertex_key((1 + 3 * t, 2 - 3 * t, 3), k) for t in range(5)]
    assert first == second
    a = k.index.rep((9, -4, 6))
    assert k.index.rep(a) == a
