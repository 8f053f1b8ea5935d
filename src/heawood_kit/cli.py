"""Command line interface.

Subcommands build quotient graphs and torus complexes, compare f-vector
formulas against enumeration, compute automorphism groups, run the graph
analyses, process census matrices, render tiles, and dump fixtures.  Each
command returns its answer: a dict, which goes out as JSON, or the text of
an export.  cli() alone adds the schema tag, writes the answer to stdout or
the -o file, and maps the answer or the error raised to the exit code:
0 success, 2 validation error, 3 cap refusal.  Only the core modules
load with this one; a command imports the symmetry, analysis, export and
fixture code it runs where it runs it: after its cap checks, or, for the
OFF export and the walk, before them, to check the request's own rules.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Optional, Sequence

from .intlin import parse_matrix_arg
from .lattice import ClassIndex, KSignature
from .limits import SCHEMA, CapExceeded, check_caps
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
    return KSignature(text.split(","))


def write(text: str, out: Optional[str]) -> None:
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


def cmd_build(args: argparse.Namespace) -> dict | str:
    if args.torus and args.format in ("dot", "json-graph"):
        raise ValueError(f"--format {args.format} exports a graph, not --torus")
    if not args.torus and args.format == "off":
        raise ValueError("--format off exports a torus and needs --torus")
    k = parse_signature(args.k)
    if args.format == "off":
        from . import artifacts

        artifacts.check_off_dimension(k.d)
        check_caps(k.index, "build")
        return artifacts.export_complex_off(build_torus_complex(k))
    check_caps(k.index, "build")
    if args.torus:
        complex_ = build_torus_complex(k)
        fvector = complex_.fvector_enumerated()
        return {
            "signature": list(k.entries),
            "torus": {
                "vertices": complex_.vertex_count,
                "facets": [list(f) for f in complex_.facets],
                "fvector": list(fvector),
                "euler_characteristic": alternating_sum(fvector),
            },
        }
    graph = build_heawood_graph(k)
    if args.format == "summary":
        return {
            "signature": list(k.entries),
            "graph": {
                "vertices": graph.vertex_count,
                "edges": graph.edge_count,
                "d": graph.d,
            },
        }
    from . import artifacts

    if args.format == "dot":
        return artifacts.export_graph_dot(graph)
    return artifacts.export_graph_json(graph)


def cmd_fvector(args: argparse.Namespace) -> dict:
    k = parse_signature(args.k)
    # with a zero entry even the formula runs the torus check, of up to D + 1 keys
    if 0 in k.entries or args.mode != "formula":
        check_caps(k.index, "build")
    payload: dict = {"signature": list(k.entries)}
    if args.mode in ("formula", "both"):
        payload["formula"] = list(fvector_formula(k))
    if args.mode in ("enumerate", "both"):
        enumerated = list(build_torus_complex(k).fvector_enumerated())
        payload["enumerated"] = enumerated
        if args.mode == "both":
            payload["match"] = enumerated == payload["formula"]
    return payload


def cmd_aut(args: argparse.Namespace) -> dict:
    k = parse_signature(args.k)
    if args.mode != "generated":
        check_caps(k.index, "build", "search")
        graph = build_heawood_graph(k)
    from . import symmetry

    payload: dict = {"signature": list(k.entries)}
    if args.mode in ("generated", "compare"):
        payload["generated"] = symmetry.generated_order(k.index)
    if args.mode in ("brute", "compare"):
        payload["brute"] = symmetry.brute_force_automorphisms(graph).order
    if args.mode == "compare":
        payload["exceptional"] = payload["brute"] != payload["generated"]
    return payload


def cmd_analyze(args: argparse.Namespace) -> dict:
    k = parse_signature(args.k)
    if args.hamiltonian is not None:
        from . import analysis

        analysis.check_walk(k.d, args.hamiltonian)
    check_caps(k.index, "build", "chromatic" if args.chromatic else None)
    from . import analysis

    graph = build_heawood_graph(k)
    payload: dict = {"signature": list(k.entries)}
    if args.hamiltonian is not None:
        result = analysis.hamiltonian_alternating(graph, args.hamiltonian)
        payload.update(mode=result.mode, outcome=result.outcome,
                       length=result.length, vertices=result.vertices)
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
    return payload


def cmd_census(args: argparse.Namespace) -> dict:
    matrix = parse_matrix_arg(args.matrix)
    index = ClassIndex(matrix)
    check_caps(index, "build")
    graph = build_general_quotient(index)
    return {
        "matrix": [list(r) for r in matrix.row_list()],
        "quotient_order": index.order,
        "vertices": graph.vertex_count,
        "edges": graph.edge_count,
        "all_ones_in_span": index.all_ones_in_span,
    }


def cmd_render(args: argparse.Namespace) -> str:
    k = parse_signature(args.k)
    if k.d == 2:  # other dimensions have no scene and exit 2 below
        check_caps(k.index, "build")
    from . import artifacts

    scene = artifacts.fundamental_tile_scene(k, domain=args.domain)
    return artifacts.render_svg(scene)


def cmd_fixture(args: argparse.Namespace) -> dict:
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
    return payload


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="heawood",
        description="quotient graphs and triangulated tori of the "
        "permutahedral tiling",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, func, help, signature=True):
        p = sub.add_parser(name, help=help)
        p.set_defaults(func=func)
        if signature:
            p.add_argument("-k", required=True, help="signature, e.g. 1,1,1")
        return p

    def modes(p, default, *names):
        group = p.add_mutually_exclusive_group()
        for name in names:
            group.add_argument(f"--{name}", dest="mode", action="store_const",
                               const=name)
        p.set_defaults(mode=default)

    p = command("build", cmd_build, "construct the graph or torus")
    p.add_argument("--torus", action="store_true")
    p.add_argument("--format", choices=["summary", "dot", "json-graph", "off"],
                   default="summary")
    p = command("fvector", cmd_fvector, "face counts by formula or enumeration")
    modes(p, "both", "formula", "enumerate", "both")
    p = command("aut", cmd_aut, "automorphism group orders")
    modes(p, "compare", "generated", "brute", "compare")
    p = command("analyze", cmd_analyze, "bipartiteness, cycles, colorings")
    p.add_argument("--bipartite", action="store_true")
    p.add_argument("--hamiltonian", type=int, metavar="I")
    p.add_argument("--six-cycles", action="store_true")
    p.add_argument("--chromatic", action="store_true")
    p = command("census", cmd_census, "general-matrix quotient summary",
                signature=False)
    p.add_argument("--matrix", required=True,
                   help="semicolon-separated rows, e.g. '2,-1,0;0,2,-1;-1,0,2'")
    p = command("render", cmd_render, "SVG of the fundamental tile (d=2)")
    p.add_argument("--domain", choices=["parallelepiped", "permutahedron"])
    p = command("fixture", cmd_fixture, "shipped complexes", signature=False)
    p.add_argument("name", choices=["klein-quartic"])
    p.add_argument("--aut", action="store_true")
    for p in sub.choices.values():
        p.add_argument("-o", "--output")
    return parser


def cli(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_VALIDATION if exc.code not in (0, None) else EXIT_OK
    try:
        answer = args.func(args)
        if isinstance(answer, dict):
            answer = json.dumps({"schema": SCHEMA, **answer}, sort_keys=True,
                                indent=2) + "\n"
        write(answer, args.output)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except CapExceeded as exc:
        print(f"refused: {exc}", file=sys.stderr)
        return EXIT_REFUSED
    return EXIT_OK


def main() -> None:
    sys.exit(cli())


if __name__ == "__main__":
    main()
