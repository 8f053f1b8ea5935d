import random
from functools import lru_cache
from itertools import combinations, product

import pytest
from oracles import chromatic_by_exhaustion, heawood_number, skeleton_graph

from heawood_kit.analysis import (
    chromatic_number,
    hamiltonian_alternating,
    is_bipartite,
    six_cycles_through,
)
from heawood_kit.intlin import InvalidSignature
from heawood_kit.lattice import KSignature
from heawood_kit.quotient import (
    QuotientGraph,
    build_heawood_graph,
    build_torus_complex,
)


@lru_cache(maxsize=None)
def graph(entries):
    return build_heawood_graph(KSignature(entries))


def triangle():
    return QuotientGraph(
        d=1,
        labels=((0,), (1,), (2,)),
        adjacency=((1, 2), (0, 2), (0, 1)),
    )


def cycle_graph(n):
    labels = tuple((i,) for i in range(n))
    adjacency = tuple(
        tuple(sorted(((i - 1) % n, (i + 1) % n))) for i in range(n)
    )
    return QuotientGraph(d=1, labels=labels, adjacency=adjacency)


def test_bipartite_examples():
    assert is_bipartite(graph((1, 1, 1))).bipartite
    report = is_bipartite(triangle())
    assert not report.bipartite
    assert report.odd_cycle is not None
    assert len(report.odd_cycle) % 2 == 1


def test_odd_cycle_leaves_out_the_shared_part_of_the_two_paths():
    # edge 0-1 and triangle 1, 2, 3: from root 0, the paths up from 2 and
    # from 3 share 1 and 0, and only the meeting point 1 stays
    g = QuotientGraph(
        d=2,
        labels=((0,), (1,), (2,), (3,)),
        adjacency=((1,), (0, 2, 3), (1, 3), (1, 2)),
    )
    cycle = is_bipartite(g).odd_cycle
    assert cycle == (2, 1, 3)
    assert len(set(cycle)) == len(cycle) and len(cycle) % 2 == 1
    assert all(b in g.adjacency[a] for a, b in zip(cycle, cycle[1:] + cycle[:1]))


def test_bipartite_for_even_d():
    for entries in list(product((1, 2), repeat=3)) + [(3, 1, 2), (2, 2, 3)]:
        report = is_bipartite(graph(entries))
        assert report.bipartite
        coloring = report.coloring
        g = graph(entries)
        for i, nbrs in enumerate(g.adjacency):
            assert all(coloring[i] != coloring[j] for j in nbrs)


def test_bipartite_for_d3_only_when_entries_alternate_in_parity():
    # measured on these 81 signatures, not a theorem: 8 are bipartite
    odd_lengths = {}
    for entries in product((1, 2, 3), repeat=4):
        g = graph(entries)
        report = is_bipartite(g)
        a, b, c, d = (x % 2 for x in entries)
        assert report.bipartite == (a == c != b == d)
        if not report.bipartite:
            cycle = report.odd_cycle
            assert len(cycle) % 2 == 1
            for u, v in zip(cycle, cycle[1:] + cycle[:1]):
                assert v in g.adjacency[u]
            odd_lengths[entries] = len(cycle)
    assert len(odd_lengths) == 81 - 8
    assert odd_lengths[(1, 1, 1, 1)] == 9
    assert odd_lengths[(2, 2, 2, 2)] == 15
    assert odd_lengths[(1, 1, 2, 2)] == 9


def test_six_cycles_counts():
    g = graph((1, 1, 2))
    seed = g.vertex_of((1, 2, 3))
    assert len(six_cycles_through(g, seed)) == 6

    g = graph((2, 2, 2))
    seed = g.vertex_of((1, 2, 3))
    assert len(six_cycles_through(g, seed)) == 3

    assert len(six_cycles_through(cycle_graph(6), 0)) == 1


def test_six_cycles_listed_sequences():
    listed = [
        [(1, 2, 3), (0, 2, 4), (0, 1, 5), (1, 0, 5), (2, 0, 4), (2, 1, 3)],
        [(1, 2, 3), (1, 3, 2), (0, 4, 2), (-1, 4, 3), (-1, 3, 4), (0, 2, 4)],
        [(1, 2, 3), (2, 1, 3), (3, 1, 2), (3, 2, 1), (2, 3, 1), (1, 3, 2)],
        [(1, 2, 3), (2, 1, 3), (3, 1, 2), (4, 0, 2), (4, -1, 3), (5, -2, 3)],
        [(1, 2, 3), (2, 1, 3), (2, 0, 4), (3, -1, 4), (4, -1, 3), (5, -2, 3)],
        [(1, 2, 3), (2, 1, 3), (3, 1, 2), (4, 0, 2), (5, 0, 1), (6, -1, 1)],
    ]
    closures = [
        (1, 2, 3),
        (1, 2, 3),
        (1, 2, 3),
        (6, -2, 2),
        (6, -2, 2),
        (6, -2, 2),
    ]
    g = graph((1, 1, 2))

    def canonical(indices):
        best = None
        for seq in (list(indices), list(reversed(indices))):
            for r in range(len(seq)):
                cand = tuple(seq[r:] + seq[:r])
                if best is None or cand < best:
                    best = cand
        return best

    expected = set()
    for cycle, closure in zip(listed, closures):
        indices = [g.vertex_of(x) for x in cycle]
        assert len(set(indices)) == 6
        assert g.key_of(closure) == g.key_of((1, 2, 3))
        # consecutive listed vertices really are edges, closing at the seed
        for a, b in zip(indices, indices[1:] + indices[:1]):
            assert b in g.adjacency[a]
        expected.add(canonical(indices))

    seed = g.vertex_of((1, 2, 3))
    reported = {canonical(list(c)) for c in six_cycles_through(g, seed)}
    assert reported == expected


def test_six_cycles_vertex_transitive_counts():
    g = graph((1, 1, 2))
    counts = {len(six_cycles_through(g, v)) for v in range(5)}
    assert counts == {6}


def test_alternating_walk_counterexample():
    g = graph((1, 3, 2))
    r1 = hamiltonian_alternating(g, 1)
    assert r1.outcome == "premature-closure"
    assert r1.length == 12
    assert r1.vertices == 36
    r2 = hamiltonian_alternating(g, 3)
    assert r2.outcome == "hamiltonian-cycle"
    assert r2.length == 36
    assert sorted(r2.cycle) == list(range(36))
    for a, b in zip(r2.cycle, r2.cycle[1:] + r2.cycle[:1]):
        assert b in g.adjacency[a]


def test_alternating_walk_classical():
    outcomes = {
        i: hamiltonian_alternating(graph((1, 1, 1)), i).outcome
        for i in (1, 2, 3)
    }
    assert "hamiltonian-cycle" in outcomes.values()


def test_chromatic_examples():
    assert chromatic_number(graph((1, 1, 1))) == 2
    assert chromatic_number(triangle()) == 3
    sk = skeleton_graph(build_torus_complex(KSignature((1, 1, 1))))
    # the skeleton is the complete graph on 7 vertices
    assert all(len(nbrs) == 6 for nbrs in sk.adjacency)
    assert chromatic_number(sk) == 7
    assert chromatic_number(cycle_graph(5)) == 3


def random_graph(rng, n, p):
    nbrs = [set() for _ in range(n)]
    for i, j in combinations(range(n), 2):
        if rng.random() < p:
            nbrs[i].add(j)
            nbrs[j].add(i)
    return QuotientGraph(
        d=1,
        labels=tuple((i,) for i in range(n)),
        adjacency=tuple(tuple(sorted(s)) for s in nbrs),
    )


def test_chromatic_number_matches_exhaustive_coloring():
    rng = random.Random(18)
    graphs = [random_graph(rng, n, p) for n in (0, 1, 7) for p in (0.0, 1.0)]
    graphs += [
        random_graph(rng, rng.randint(2, 7), rng.choice((0.2, 0.4, 0.6, 0.8)))
        for _ in range(120)
    ]
    for g in graphs:
        assert chromatic_number(g) == chromatic_by_exhaustion(g)
    assert chromatic_number(graphs[5]) == 7  # the complete graph on 7 vertices


def test_chromatic_number_of_a_large_bipartite_quotient():
    # a search that recursed once per colored vertex would pass Python's
    # recursion limit here
    g = graph((14, 14, 14))
    assert g.vertex_count == 1262
    assert chromatic_number(g) == 2


def test_heawood_number():
    assert heawood_number(0) == 4
    assert heawood_number(1) == 7
    assert heawood_number(6) == 12
    with pytest.raises(ValueError):
        heawood_number(-1)


def test_alternating_walk_refuses_bad_input():
    with pytest.raises(InvalidSignature, match="out of range"):
        hamiltonian_alternating(graph((1, 1, 1)), 9)
    with pytest.raises(InvalidSignature, match="out of range"):
        hamiltonian_alternating(graph((1, 1, 1)), 0)
    with pytest.raises(InvalidSignature, match="d = 2"):
        hamiltonian_alternating(graph((1, 1, 1, 1)), 1)
