"""Hand-verified complexes shipped with the package.

The genus-3 triangulation lives in a plain-text facet list (one facet per
line, comma-separated labels) so transcription errors fail loudly against
the count checks here and in the tests.
"""

from __future__ import annotations

from importlib import resources
from typing import Sequence

from .quotient import NotSimplicial, QuotientGraph, SimplicialComplex, dual_graph

KLEIN_VERTEX_COUNT = 24
KLEIN_FACET_COUNT = 56


def complex_from_facets(
    labels: Sequence, facets: Sequence[Sequence]
) -> SimplicialComplex:
    """Complex from labeled facets of one width, each sorted, none of them
    repeating a vertex or an earlier facet."""
    labels = tuple(labels)
    index = {lab: i for i, lab in enumerate(labels)}
    if len(index) != len(labels):
        raise NotSimplicial("duplicate vertex labels")
    width = len(facets[0]) if facets else 0
    translated: dict[tuple[int, ...], int] = {}
    for pos, facet in enumerate(facets):
        if len(facet) != width:
            raise NotSimplicial(f"facet {pos} has mixed dimension")
        try:
            vertices = tuple(sorted(index[lab] for lab in facet))
        except KeyError as exc:
            raise NotSimplicial(f"facet {pos} uses unknown label {exc}") from None
        if len(set(vertices)) != width:
            raise NotSimplicial(f"facet {pos} repeats a vertex")
        if translated.setdefault(vertices, pos) != pos:
            raise NotSimplicial(f"facet {pos} duplicates an earlier one")
    return SimplicialComplex(
        vertex_count=len(labels),
        facets=tuple(translated),
        vertex_labels=labels,
    )


def klein_quartic() -> SimplicialComplex:
    """The 24-vertex, 56-facet genus-3 surface."""
    text = (
        resources.files("heawood_kit.data").joinpath("klein_quartic.txt").read_text()
    )
    facets = [
        tuple(part.strip() for part in line.split(","))
        for line in text.splitlines()
        if line.strip()
    ]
    labels = sorted({lab for facet in facets for lab in facet})
    if len(labels) != KLEIN_VERTEX_COUNT:
        raise NotSimplicial("fixture label count drifted")
    if len(facets) != KLEIN_FACET_COUNT:
        raise NotSimplicial("fixture facet count drifted")
    return complex_from_facets(labels, facets)


def simplicial_automorphism_order(c: SimplicialComplex) -> int:
    """Order of the facet-preserving vertex permutation group.

    One search on the vertex-facet incidence graph, vertices and facets
    colored apart: its automorphisms are the simplicial automorphisms
    together with the facet permutations they induce, and since facets
    are distinct vertex sets the vertex permutation fixes the facet one.
    """
    from .symmetry import brute_force_automorphisms

    v = c.vertex_count
    stars: list[list[int]] = [[] for _ in range(v)]
    for f, facet in enumerate(c.facets):
        for u in facet:
            stars[u].append(v + f)
    adjacency = tuple(map(tuple, stars)) + tuple(c.facets)
    incidence = QuotientGraph(
        d=1, labels=tuple((i,) for i in range(len(adjacency))), adjacency=adjacency
    )
    colors = [0] * v + [1] * len(c.facets)
    return brute_force_automorphisms(incidence, initial_colors=colors).order


def klein_quartic_aut_order() -> dict[str, int]:
    """Simplicial and dual-graph automorphism orders of the fixture."""
    from .symmetry import brute_force_automorphisms

    c = klein_quartic()
    dual = dual_graph(c)
    dual_order = brute_force_automorphisms(dual).order
    return {
        "simplicial": simplicial_automorphism_order(c),
        "dual_graph": dual_order,
    }
