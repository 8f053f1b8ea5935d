"""Command line interface.

Subcommands build quotient graphs and torus complexes, compare f-vector
formulas against enumeration, compute automorphism groups, run the graph
analyses, process census matrices, render tiles, and dump fixtures.  All
results are JSON on stdout unless -o routes them to a file.  Exit codes:
0 success, 2 validation error, 3 cap or budget refusal.  Only the core
modules load with this one; a command imports the symmetry, analysis,
export and fixture code it runs where it runs it, after its cap checks.
"""

from __future__ import annotations

import argparse
import json
import sys
from math import factorial
from typing import Optional, Sequence

from .intlin import parse_matrix_arg
from .lattice import ClassIndex, KSignature, signature_index
from .limits import SCHEMA, CapExceeded, check_vertex_cap
from .quotient import (
    alternating_sum,
    build_general_quotient,
    build_heawood_graph,
    build_torus_complex,
    coord_label,
    fvector_formula,
)

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_REFUSED = 3


def parse_signature(text: str) -> KSignature:
    entries = tuple(int(v) for v in text.split(","))
    return KSignature(entries, delta=0 in entries)


def emit(payload: dict, out: Optional[str]) -> None:
    payload = {"schema": SCHEMA, **payload}
    emit_text(json.dumps(payload, sort_keys=True, indent=2) + "\n", out)


def emit_text(text: str, out: Optional[str]) -> None:
    """Write text to the -o file, else to stdout; a file that cannot be
    written is a validation error naming its path."""
    if not out:
        sys.stdout.write(text)
        return
    try:
        with open(out, "w") as fh:
            fh.write(text)
    except OSError as exc:
        raise ValueError(f"cannot write {out}: {exc.strerror or exc}") from exc


def cmd_build(args: argparse.Namespace) -> int:
    if args.torus and args.format in ("dot", "json-graph"):
        raise ValueError(f"--format {args.format} exports a graph, not --torus")
    if not args.torus and args.format == "off":
        raise ValueError("--format off exports a torus and needs --torus")
    k = parse_signature(args.k)
    check_vertex_cap(factorial(k.d) * k.order(), "build")
    if args.torus:
        complex_ = build_torus_complex(k)
        if args.format == "off":
            from . import artifacts

            emit_text(artifacts.export_complex_off(complex_), args.output)
        else:
            fvector = complex_.fvector_enumerated()
            emit(
                {
                    "signature": list(k.entries),
                    "torus": {
                        "vertices": complex_.vertex_count,
                        "facets": [list(f) for f in complex_.facets],
                        "fvector": list(fvector),
                        "euler_characteristic": alternating_sum(fvector),
                    },
                },
                args.output,
            )
        return EXIT_OK
    graph = build_heawood_graph(k)
    if args.format in ("dot", "json-graph"):
        from . import artifacts

        if args.format == "dot":
            emit_text(artifacts.export_graph_dot(graph), args.output)
        else:
            emit_text(artifacts.export_graph_json(graph), args.output)
    else:
        emit(
            {
                "signature": list(k.entries),
                "graph": {
                    "vertices": graph.vertex_count,
                    "edges": graph.edge_count,
                    "d": graph.d,
                },
            },
            args.output,
        )
    return EXIT_OK


def cmd_fvector(args: argparse.Namespace) -> int:
    k = parse_signature(args.k)
    # with a zero entry even the formula runs the torus check, of up to D + 1 keys
    if 0 in k.entries or args.mode != "formula":
        check_vertex_cap(factorial(k.d) * k.order(), "build")
    lattice = k if args.mode == "formula" else signature_index(k)
    payload: dict = {"signature": list(k.entries)}
    if args.mode in ("formula", "both"):
        payload["formula"] = list(fvector_formula(lattice))
    if args.mode in ("enumerate", "both"):
        enumerated = list(build_torus_complex(lattice).fvector_enumerated())
        payload["enumerated"] = enumerated
        if args.mode == "both":
            payload["match"] = enumerated == payload["formula"]
    emit(payload, args.output)
    return EXIT_OK


def cmd_aut(args: argparse.Namespace) -> int:
    k = parse_signature(args.k)
    vertices = factorial(k.d) * k.order()
    check_vertex_cap(vertices, "build")
    if args.mode in ("brute", "compare"):
        check_vertex_cap(vertices, "search")
    from . import symmetry

    graph = build_heawood_graph(k)
    payload: dict = {"signature": list(k.entries)}
    if args.mode in ("generated", "compare"):
        payload["generated"] = symmetry.generated_group(graph).order
    if args.mode in ("brute", "compare"):
        payload["brute"] = symmetry.brute_force_automorphisms(graph).order
    if args.mode == "compare":
        payload["exceptional"] = payload["brute"] != payload["generated"]
    emit(payload, args.output)
    return EXIT_OK


def cmd_analyze(args: argparse.Namespace) -> int:
    k = parse_signature(args.k)
    vertices = factorial(k.d) * k.order()
    check_vertex_cap(vertices, "build")
    if args.chromatic:
        check_vertex_cap(vertices, "chromatic")
    from . import analysis

    if args.hamiltonian is not None:
        analysis.check_walk(k.d, args.hamiltonian)
    graph = build_heawood_graph(k)
    payload: dict = {"signature": list(k.entries)}
    if args.hamiltonian is not None:
        result = analysis.hamiltonian_alternating(graph, args.hamiltonian)
        payload.update(
            {
                "mode": result.mode,
                "outcome": result.outcome,
                "length": result.length,
                "vertices": result.vertices,
            }
        )
    if args.bipartite:
        report = analysis.is_bipartite(graph)
        payload["bipartite"] = report.bipartite
        if report.odd_cycle:
            payload["odd_cycle_length"] = len(report.odd_cycle)
    if args.six_cycles:
        seed = graph.vertex_of(range(1, k.n + 1))
        cycles = analysis.six_cycles_through(graph, seed)
        payload["six_cycles"] = [
            [coord_label(graph.labels[v]) for v in cycle] for cycle in cycles
        ]
        payload["six_cycle_count"] = len(cycles)
    if args.chromatic:
        payload["chromatic_number"] = analysis.chromatic_number(graph)
    emit(payload, args.output)
    return EXIT_OK


def cmd_census(args: argparse.Namespace) -> int:
    matrix = parse_matrix_arg(args.matrix)
    index = ClassIndex(matrix)
    check_vertex_cap(factorial(matrix.cols - 1) * index.order, "build")
    graph = build_general_quotient(index)
    emit(
        {
            "matrix": [list(r) for r in matrix.row_list()],
            "quotient_order": index.order,
            "vertices": graph.vertex_count,
            "edges": graph.edge_count,
            "all_ones_in_span": index.all_ones_in_span,
        },
        args.output,
    )
    return EXIT_OK


def cmd_render(args: argparse.Namespace) -> int:
    k = parse_signature(args.k)
    if k.d == 2:  # other dimensions have no scene and exit 2 below
        check_vertex_cap(factorial(k.d) * k.order(), "build")
    from . import artifacts

    scene = artifacts.fundamental_tile_scene(k, domain=args.domain)
    emit_text(artifacts.render_svg(scene), args.output)
    return EXIT_OK


def cmd_fixture(args: argparse.Namespace) -> int:
    from . import fixtures

    complex_ = fixtures.klein_quartic()
    payload: dict = {
        "name": args.name,
        "vertices": complex_.vertex_count,
        "facets": len(complex_.facets),
        "edges": len(complex_.faces(1)),
        "euler_characteristic": complex_.euler_characteristic(),
    }
    if args.aut:
        payload["aut"] = fixtures.klein_quartic_aut_order()
    emit(payload, args.output)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="heawood",
        description="quotient graphs and triangulated tori of the "
        "permutahedral tiling",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("build", help="construct the graph or torus")
    p.add_argument("-k", required=True, help="signature, e.g. 1,1,1")
    p.add_argument("--torus", action="store_true")
    p.add_argument("--format", choices=["summary", "dot", "json-graph", "off"],
                   default="summary")
    p.add_argument("-o", "--output")
    p.set_defaults(func=cmd_build)

    p = sub.add_parser("fvector", help="face counts by formula or enumeration")
    p.add_argument("-k", required=True)
    group = p.add_mutually_exclusive_group()
    group.add_argument("--formula", dest="mode", action="store_const",
                       const="formula")
    group.add_argument("--enumerate", dest="mode", action="store_const",
                       const="enumerate")
    group.add_argument("--both", dest="mode", action="store_const", const="both")
    p.set_defaults(mode="both")
    p.add_argument("-o", "--output")
    p.set_defaults(func=cmd_fvector)

    p = sub.add_parser("aut", help="automorphism group orders")
    p.add_argument("-k", required=True)
    group = p.add_mutually_exclusive_group()
    group.add_argument("--generated", dest="mode", action="store_const",
                       const="generated")
    group.add_argument("--brute", dest="mode", action="store_const",
                       const="brute")
    group.add_argument("--compare", dest="mode", action="store_const",
                       const="compare")
    p.set_defaults(mode="compare")
    p.add_argument("-o", "--output")
    p.set_defaults(func=cmd_aut)

    p = sub.add_parser("analyze", help="bipartiteness, cycles, colorings")
    p.add_argument("-k", required=True)
    p.add_argument("--bipartite", action="store_true")
    p.add_argument("--hamiltonian", type=int, metavar="I")
    p.add_argument("--six-cycles", action="store_true")
    p.add_argument("--chromatic", action="store_true")
    p.add_argument("-o", "--output")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("census", help="general-matrix quotient summary")
    p.add_argument("--matrix", required=True,
                   help="semicolon-separated rows, e.g. '2,-1,0;0,2,-1;-1,0,2'")
    p.add_argument("-o", "--output")
    p.set_defaults(func=cmd_census)

    p = sub.add_parser("render", help="SVG of the fundamental tile (d=2)")
    p.add_argument("-k", required=True)
    p.add_argument("--domain", choices=["parallelepiped", "permutahedron"])
    p.add_argument("-o", "--output")
    p.set_defaults(func=cmd_render)

    p = sub.add_parser("fixture", help="shipped complexes")
    p.add_argument("name", choices=["klein-quartic"])
    p.add_argument("--aut", action="store_true")
    p.add_argument("-o", "--output")
    p.set_defaults(func=cmd_fixture)

    return parser


def cli(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_VALIDATION if exc.code not in (0, None) else EXIT_OK
    try:
        return args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except CapExceeded as exc:
        print(f"refused: {exc}", file=sys.stderr)
        return EXIT_REFUSED


def main() -> None:
    sys.exit(cli())


if __name__ == "__main__":
    main()
