"""Quotient graphs and triangulated tori of the permutahedral tiling.

The tiling of the affine slice by permutahedra has a (d+1)-regular edge
graph; quotienting by a finite-index sublattice attached to a signature
k = (k_1, ..., k_{d+1}) yields a finite graph and a dual triangulated
d-torus.  The graph is vertex-transitive on the d = 2 samples, but not
in general for d >= 3.  This package constructs both, computes their
exact invariants, and cross-checks every closed form against enumeration.
"""

from .intlin import IntMatrix, build_mk, closed_form_dk
from .lattice import (
    KSignature,
    enumerate_fundamental,
    quotient_order_general,
    reduce_to_fundamental,
)
from .quotient import (
    QuotientGraph,
    SimplicialComplex,
    build_general_quotient,
    build_heawood_graph,
    build_torus_complex,
    dual_graph,
    fvector_formula,
)

__all__ = [
    "IntMatrix",
    "KSignature",
    "QuotientGraph",
    "SimplicialComplex",
    "build_general_quotient",
    "build_heawood_graph",
    "build_mk",
    "build_torus_complex",
    "closed_form_dk",
    "dual_graph",
    "enumerate_fundamental",
    "fvector_formula",
    "quotient_order_general",
    "reduce_to_fundamental",
]
