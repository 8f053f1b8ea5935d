from functools import lru_cache
from itertools import combinations

import oracles
import pytest

from heawood_kit.fixtures import (
    complex_from_facets,
    klein_quartic,
    klein_quartic_aut_order,
    simplicial_automorphism_order,
)
from heawood_kit.lattice import KSignature
from heawood_kit.quotient import NotSimplicial, build_torus_complex, dual_graph


@lru_cache(maxsize=None)
def surface():
    return klein_quartic()


@lru_cache(maxsize=None)
def surface_dual():
    return dual_graph(surface())


def test_counts_and_euler_characteristic():
    c = surface()
    assert c.fvector_enumerated() == (24, 84, 56)
    assert c.euler_characteristic() == -4
    oracles.validate_per_facet(c)


def test_closed_surface_edge_condition():
    # every edge lies in exactly two facets
    c = surface()
    incidence = {}
    for facet in c.facets:
        for edge in combinations(facet, 2):
            incidence[edge] = incidence.get(edge, 0) + 1
    assert set(incidence.values()) == {2}
    assert len(incidence) == 84


def test_dual_graph_is_cubic_and_connected():
    dg = surface_dual()
    assert dg.vertex_count == 56
    assert dg.edge_count == 84
    assert all(len(nbrs) == 3 for nbrs in dg.adjacency)
    seen = {0}
    stack = [0]
    while stack:
        v = stack.pop()
        for w in dg.adjacency[v]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    assert len(seen) == 56


def test_automorphism_orders():
    orders = klein_quartic_aut_order()
    assert orders == {"simplicial": 336, "dual_graph": 336}


def test_seven_fold_symmetry_exists():
    # the symmetry group of order 336 contains elements of order 7
    from oracles import closure, compose, skeleton_graph

    from heawood_kit.symmetry import brute_force_automorphisms

    c = surface()
    group = brute_force_automorphisms(skeleton_graph(c))
    facet_set = set(c.facets)

    def element_order(perm):
        power = perm
        order = 1
        identity = tuple(range(len(perm.images)))
        while power.images != identity:
            power = compose(power, perm)
            order += 1
        return order

    orders = {
        element_order(perm)
        for perm in closure(group.generators)
        if all(
            tuple(sorted(perm.images[v] for v in facet)) in facet_set
            for facet in c.facets
        )
    }
    assert 7 in orders
    # element orders of PGL(2,7)
    assert orders == {1, 2, 3, 4, 6, 7, 8}


def test_every_dual_seven_cycle_is_a_vertex_link():
    # each vertex of the surface has 7 incident facets forming a 7-cycle in
    # the dual graph, giving 24 such cycles
    c = surface()
    dg = surface_dual()
    links = []
    for v in range(c.vertex_count):
        star = [i for i, facet in enumerate(c.facets) if v in facet]
        assert len(star) == 7
        star_set = set(star)
        for f in star:
            assert sum(1 for w in dg.adjacency[f] if w in star_set) == 2
        links.append(frozenset(star))
    assert len(set(links)) == 24


def test_complex_from_facets_validation():
    c = complex_from_facets("abc", [("a", "b"), ("b", "c"), ("a", "c")])
    assert c.vertex_count == 3
    assert c.fvector_enumerated() == (3, 3)
    with pytest.raises(NotSimplicial):
        complex_from_facets("aab", [("a", "b")])
    with pytest.raises(NotSimplicial):
        complex_from_facets("abc", [("a", "z")])
    with pytest.raises(NotSimplicial, match="facet 1 has mixed dimension"):
        complex_from_facets("abc", [("a", "b"), ("a", "b", "c")])
    with pytest.raises(NotSimplicial, match="facet 0 repeats a vertex"):
        complex_from_facets("abc", [("a", "a", "b")])
    with pytest.raises(NotSimplicial, match="facet 1 duplicates an earlier one"):
        complex_from_facets("abc", [("a", "b", "c"), ("c", "b", "a")])


def test_simplicial_automorphism_order_small():
    # boundary of a triangle: the full symmetric group on three vertices
    c = complex_from_facets("abc", [("a", "b"), ("b", "c"), ("a", "c")])
    assert simplicial_automorphism_order(c) == 6


@pytest.mark.parametrize("entries, order", [((1, 1, 1), 42), ((2, 2, 2), 114)])
def test_simplicial_automorphism_order_of_torus(entries, order):
    # the skeleton of the (1,1,1) torus is K7 with 5040 automorphisms, of
    # which only the 42 that send facets to facets count
    assert simplicial_automorphism_order(build_torus_complex(KSignature(entries))) == order
