"""The jobs of each workload.

A job is one user-level operation: ``run`` is the timed call into
heawood_kit and ``check`` compares its result with ``oracle`` (closed
forms and the paper's tables) and ``pinned`` (export digests), returning
the list of mismatches.  Library calls go through module attributes
(``quotient.build_heawood_graph``) so that the traced run sees them.

Inputs are fixed; the seed only shuffles job order within a pass.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from typing import Any, Callable

import oracle
import pinned

WORKLOADS = ("construct-large", "automorphism", "cli")


@dataclass(frozen=True)
class Job:
    name: str
    run: Callable[[], Any]
    check: Callable[[Any], list[str]]


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def digest_problems(key: str, text: str) -> list[str]:
    want = pinned.DIGESTS.get(key)
    got = sha256(text)
    return [] if got == want else [f"{key}: sha256 {got[:12]} != pinned {str(want)[:12]}"]


def expect(label: str, got: Any, want: Any) -> list[str]:
    return [] if got == want else [f"{label}: got {got!r}, expected {want!r}"]


def sig(k: tuple[int, ...]) -> str:
    return ",".join(map(str, k))


def workload_jobs(name: str, launch: Callable | None = None) -> list[Job]:
    """Jobs of a workload; ``launch(argv)`` runs one CLI process for ``cli``."""
    if name == "construct-large":
        return construct_large()
    if name == "automorphism":
        return automorphism()
    if name == "cli":
        return cli_commands(launch)
    raise ValueError(f"unknown workload {name!r}")


# ---------------------------------------------------------------- checks


def graph_problems(k: tuple[int, ...], g: Any) -> list[str]:
    vertices, edges = oracle.graph_counts(k)
    out = expect(f"{k} vertices", g.vertex_count, vertices)
    out += expect(f"{k} edges", g.edge_count, edges)
    return out + oracle.adjacency_problems(g.adjacency, len(k))


def torus_problems(k: tuple[int, ...], c: Any, fvector: tuple, dual: Any, g: Any) -> list[str]:
    out = expect(f"{k} f-vector", tuple(fvector), oracle.torus_fvector(k))
    out += expect(f"{k} torus vertices", c.vertex_count, oracle.order_dk(k))
    out += expect(f"{k} facets", len(c.facets), oracle.graph_counts(k)[0])
    out += graph_problems(k, g)
    if dual.adjacency != g.adjacency:
        out.append(f"{k} dual graph adjacency differs from the graph")
    return out


def census_problems(text: str, order: int, g: Any) -> list[str]:
    want = oracle.census_order(text)
    out = expect(f"census {text} order", order, want)
    out += expect(f"census {text} vertices", g.vertex_count, oracle.census_vertices(text))
    return out + oracle.adjacency_problems(g.adjacency, 3)


# ------------------------------------------------------- construct-large


def construct_large() -> list[Job]:
    from heawood_kit import artifacts, lattice, quotient

    jobs = []
    for k in [(10, 10, 10), (20, 20, 20), (3, 3, 3, 3), (4, 4, 4, 4), (2, 2, 2, 2, 2)]:
        jobs.append(
            Job(
                f"graph {sig(k)}",
                lambda k=k: quotient.build_heawood_graph(lattice.KSignature(k)),
                lambda g, k=k: graph_problems(k, g),
            )
        )

    def torus(k):
        K = lattice.KSignature(k)
        c = quotient.build_torus_complex(K)
        return c, c.fvector_enumerated(), quotient.dual_graph(c), quotient.build_heawood_graph(K)

    for k in [(10, 10, 10), (3, 3, 3, 3), (2, 2, 2, 2, 2)]:
        jobs.append(
            Job(
                f"torus {sig(k)}",
                lambda k=k: torus(k),
                lambda r, k=k: torus_problems(k, *r),
            )
        )

    def delta_check(g):
        # zero entries: D_k = 7·7·1 - 0 = 49 classes, 2·49 vertices, cubic
        out = expect("delta 6,6,0 vertices", g.vertex_count, 98)
        out += expect("delta 6,6,0 edges", g.edge_count, 147)
        return out + oracle.adjacency_problems(g.adjacency, 3)

    jobs.append(
        Job(
            "delta 6,6,0",
            lambda: quotient.build_heawood_graph(lattice.KSignature((6, 6, 0), delta=True)),
            delta_check,
        )
    )

    def census(text):
        m = artifacts.parse_matrix_arg(text)
        return lattice.quotient_order_general(m), quotient.build_general_quotient(m)

    for text in ["7,-1,0;0,7,-1;-1,0,7", "4,0,-1;0,4,-1;-1,-1,5"]:
        jobs.append(
            Job(
                f"census {text}",
                lambda text=text: census(text),
                lambda r, text=text: census_problems(text, *r),
            )
        )

    def graph_exports():
        g = quotient.build_heawood_graph(lattice.KSignature((10, 10, 10)))
        return artifacts.export_graph_json(g), artifacts.export_graph_dot(g)

    def graph_exports_check(r):
        text_json, text_dot = r
        payload = json.loads(text_json)
        vertices, edges = oracle.graph_counts((10, 10, 10))
        out = expect("json schema", payload.get("schema"), oracle.SCHEMA)
        out += expect("json vertices", len(payload.get("vertices", ())), vertices)
        out += expect("json edges", len(payload.get("edges", ())), edges)
        out += expect("dot edge lines", text_dot.count(" -- "), edges)
        out += digest_problems("json 10,10,10", text_json)
        return out + digest_problems("dot 10,10,10", text_dot)

    jobs.append(Job("export json+dot 10,10,10", graph_exports, graph_exports_check))

    def off_export():
        c = quotient.build_torus_complex(lattice.KSignature((3, 3, 3, 3)))
        return artifacts.export_complex_off(c)

    def off_check(text):
        f = oracle.torus_fvector((3, 3, 3, 3))
        lines = text.split("\n")
        out = expect("off header", lines[:2], ["OFF", f"{f[0]} {f[3]} {f[1]}"])
        return out + digest_problems("off 3,3,3,3", text)

    jobs.append(Job("export off 3,3,3,3", off_export, off_check))
    return jobs


# ---------------------------------------------------------- automorphism


def automorphism() -> list[Job]:
    from heawood_kit import fixtures, lattice, quotient, symmetry

    def generated(k):
        return symmetry.generated_group(quotient.build_heawood_graph(lattice.KSignature(k))).order

    def brute(k):
        g = quotient.build_heawood_graph(lattice.KSignature(k))
        return symmetry.brute_force_automorphisms(g).order

    signatures = [(1, 1, 1), (2, 2, 2), (3, 3, 3), (4, 4, 4), (1, 1, 1, 1), (2, 1, 2, 1), (2, 2, 2, 2)]
    jobs = [
        Job(
            f"generated {sig(k)}",
            lambda k=k: generated(k),
            lambda order, k=k: expect(f"generated {k}", order, oracle.generated_order(k)),
        )
        for k in signatures
    ]
    jobs += [
        Job(
            f"brute {sig(k)}",
            lambda k=k: brute(k),
            lambda order, k=k: expect(f"brute {k}", order, oracle.full_aut_order(k)),
        )
        for k in signatures[:6]
    ]
    jobs.append(
        Job(
            "klein quartic aut",
            fixtures.klein_quartic_aut_order,
            lambda r: expect("klein aut", r, oracle.KLEIN_AUT),
        )
    )
    return jobs


# ------------------------------------------------------------------- cli


def json_problems(label: str, stdout: str, want: dict) -> list[str]:
    try:
        payload = json.loads(stdout)
    except ValueError:
        return [f"{label}: stdout is not JSON"]
    out = []
    for path, value in want.items():
        got = payload
        for part in path.split("."):
            got = got.get(part) if isinstance(got, dict) else None
        out += expect(f"{label} {path}", got, value)
    return out


def cli_commands(launch: Callable) -> list[Job]:
    """Fresh ``heawood`` processes; ``launch(argv)`` returns (code, stdout, stderr)."""
    d2 = oracle.order_dk((2, 1, 2))
    f333 = oracle.torus_fvector((3, 3, 3))
    v1010, e1010 = oracle.graph_counts((10, 10, 10))
    v132 = oracle.graph_counts((1, 3, 2))[0]
    f212 = list(oracle.torus_fvector((2, 1, 2)))
    census = "2,-1,0;0,2,-1;-1,0,2"
    census_order, census_vertices, census_all_ones = oracle.CENSUS_TABLE[census]
    commands: list[tuple[list[str], int, dict]] = [
        (["build", "-k", "1,1,1"], 0,
         {"graph.vertices": 14, "graph.edges": 21, "graph.d": 2}),
        (["build", "-k", "3,3,3", "--torus"], 0,
         {"torus.vertices": f333[0], "torus.fvector": list(f333), "torus.euler_characteristic": 0}),
        (["build", "-k", "10,10,10", "--format", "json-graph"], 0,
         {"schema": oracle.SCHEMA, "meta.vertex_count": v1010, "meta.edge_count": e1010}),
        (["build", "-k", "2,1,2", "--torus", "--format", "off"], 0, {}),
        (["fvector", "-k", "2,1,2", "--both"], 0,
         {"formula": f212, "enumerated": f212, "match": True}),
        (["aut", "-k", "1,1,1", "--compare"], 0,
         {"generated": oracle.generated_order((1, 1, 1)), "brute": oracle.full_aut_order((1, 1, 1)),
          "exceptional": True}),
        (["analyze", "-k", "1,1,2", "--bipartite", "--six-cycles", "--chromatic"], 0,
         {"bipartite": True, "chromatic_number": 2,
          "six_cycle_count": oracle.SIX_CYCLES_THROUGH_SEED[(1, 1, 2)]}),
        (["analyze", "-k", "1,3,2", "--hamiltonian", "3"], 0,
         {"outcome": "hamiltonian-cycle", "length": v132, "vertices": v132}),
        (["census", "--matrix", census], 0,
         {"quotient_order": census_order, "vertices": census_vertices,
          "edges": 3 * census_order, "all_ones_in_span": census_all_ones}),
        (["render", "-k", "2,1,2", "--domain", "parallelepiped"], 0, {}),
        (["fixture", "klein-quartic", "--aut"], 0,
         {"vertices": 24, "facets": 56, "edges": 84, "euler_characteristic": -4,
          "aut": oracle.KLEIN_AUT}),
        (["build", "-k", "1,-1,1"], 2, {}),
        (["aut", "-k", "2,2,2,2", "--brute"], 3, {}),
    ]

    def check(result, argv, code, want):
        label = " ".join(argv)
        got_code, stdout, stderr = result
        out = expect(f"{label} exit code", got_code, code)
        if "Traceback" in stderr:
            out.append(f"{label}: traceback on stderr")
        if code != 0:
            return out
        out += digest_problems(label, stdout)
        if argv[-1] == "off":
            lines = stdout.split("\n")
            out += expect(f"{label} header", lines[:2], ["OFF", f"{d2} {f212[2]} {f212[1]}"])
        elif argv[0] == "render":
            # one hexagon per fundamental class plus the domain outline
            out += expect(f"{label} polygons", stdout.count("<polygon"), d2 + 1)
        else:
            out += json_problems(label, stdout, want)
        return out

    return [
        Job(" ".join(argv), lambda argv=argv: launch(argv),
            lambda r, argv=argv, code=code, want=want: check(r, argv, code, want))
        for argv, code, want in commands
    ]


# --------------------------------------------------------- known defects

# Untimed probes of defects listed in ROADMAP.md.  Each runs in its own
# process under a kill time limit; ``fixed(code, stdout, stderr)`` says
# whether the program now behaves as its contract asks.
DEFECT_CODE_GENERATED_CENSUS = (
    "from heawood_kit.artifacts import parse_matrix_arg\n"
    "from heawood_kit.quotient import build_general_quotient\n"
    "from heawood_kit.symmetry import generated_group\n"
    "g = build_general_quotient(parse_matrix_arg('2,0,-1;0,2,-1;-1,-1,3'))\n"
    "print(generated_group(g).order)\n"
)


def _refusal_fixed(expected_code: int) -> Callable[[int, str, str], bool]:
    return lambda code, stdout, stderr: code == expected_code and "Traceback" not in stderr


KNOWN_DEFECTS = [
    # (name, kind, payload, fixed)
    ("generated group of census 2,0,-1;0,2,-1;-1,-1,3", "python", DEFECT_CODE_GENERATED_CENSUS,
     lambda code, stdout, stderr: code == 0 and stdout.strip().isdigit()),
    ("analyze -k 1,1,1 --hamiltonian 9 exits 2", "cli", ["analyze", "-k", "1,1,1", "--hamiltonian", "9"],
     _refusal_fixed(2)),
    ("build -k 40,40,40,40 refuses with exit 3", "cli", ["build", "-k", "40,40,40,40"],
     _refusal_fixed(3)),
    ("analyze -k 1,1,1,1 --hamiltonian 1 answers or refuses cleanly", "cli",
     ["analyze", "-k", "1,1,1,1", "--hamiltonian", "1"],
     lambda code, stdout, stderr: "Traceback" not in stderr
     and (code == 0 or (code in (2, 3) and "do not sum to zero" not in stderr))),
]

DEFECT_TIME_LIMIT_S = 3.0
