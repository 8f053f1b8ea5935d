import hashlib
import json
import os
import subprocess
import sys
from functools import lru_cache
from pathlib import Path

import pytest
from oracles import det, import_graph_json

from heawood_kit import cli as cli_module
from heawood_kit import intlin, lattice
from heawood_kit.artifacts import (
    UnsupportedDimension,
    export_complex_off,
    export_graph_dot,
    export_graph_json,
    fundamental_tile_scene,
    parse_matrix_arg,
    render_svg,
)
from heawood_kit.cli import cli
from heawood_kit.fixtures import klein_quartic
from heawood_kit.intlin import IntMatrix
from heawood_kit.lattice import ClassIndex, KSignature
from heawood_kit.limits import CapExceeded, check_caps
from heawood_kit.quotient import (
    SimplicialComplex,
    build_heawood_graph,
    build_torus_complex,
    coord_label,
)


@lru_cache(maxsize=None)
def graph(entries):
    return build_heawood_graph(KSignature(entries))


# SHA-256 of exports whose bytes the schema keeps stable; a change in the
# facet order or the label order changes them
EXPORT_DIGESTS = {
    "json 10,10,10": "6675576aea486aa708142a002ac80347ae4e696f3d89970643d6195f150a26f0",
    "dot 10,10,10": "d406324f2b3d3c9f9ea9f8de201ffec2f4c70456f12fc8b7f8b8f1c56422ca96",
    "off 3,3,3,3": "12dee021e1e55ca7a60aaf9834e48989ac0076410cb38e0d854a3354135480f4",
}


def test_exports_keep_their_pinned_digests():
    g = graph((10, 10, 10))
    torus = build_torus_complex(KSignature((3, 3, 3, 3)))
    exports = {
        "json 10,10,10": export_graph_json(g),
        "dot 10,10,10": export_graph_dot(g),
        "off 3,3,3,3": export_complex_off(torus),
    }
    digests = {key: hashlib.sha256(text.encode()).hexdigest() for key, text in exports.items()}
    assert digests == EXPORT_DIGESTS


def test_coord_label():
    assert coord_label((1, 2, 3)) == "1,2,3"
    assert coord_label((-1, 4, 3)) == "-1,4,3"


def test_dot_export_structure():
    text = export_graph_dot(graph((1, 1, 1)))
    lines = text.splitlines()
    assert lines[0] == "graph quotient {"
    assert lines[-1] == "}"
    assert sum(1 for ln in lines if "[label=" in ln) == 14
    assert sum(1 for ln in lines if " -- " in ln) == 21


def test_json_round_trip():
    delta = build_heawood_graph(KSignature((3, 3, 0)))
    for g, entries in ((graph((2, 1, 2)), [2, 1, 2]), (delta, [3, 3, 0])):
        text = export_graph_json(g)
        payload = json.loads(text)
        assert payload["schema"] == "heawood-kit/1"
        assert payload["signature"] == entries
        h = import_graph_json(text)
        assert h.vertex_count == g.vertex_count
        assert h.adjacency == g.adjacency
        assert h.labels == g.labels
        assert h.signature == g.signature
        with pytest.raises(ValueError, match="no quotient data"):
            h.vertex_of(g.labels[0])


def test_exports_are_byte_stable():
    g = graph((1, 1, 1))
    assert export_graph_dot(g) == export_graph_dot(g)
    assert export_graph_json(g) == export_graph_json(g)
    c = build_torus_complex(KSignature((1, 1, 1)))
    assert export_complex_off(c) == export_complex_off(c)
    scene = fundamental_tile_scene(KSignature((2, 1, 2)), domain="parallelepiped")
    assert render_svg(scene) == render_svg(scene)


def test_off_counts():
    c = build_torus_complex(KSignature((1, 1, 1)))
    lines = export_complex_off(c).splitlines()
    assert lines[0] == "OFF"
    assert lines[1] == "7 14 21"
    assert len(lines) == 2 + 7 + 14

    kq = export_complex_off(klein_quartic()).splitlines()
    assert kq[1] == "24 56 84"


def test_svg_hexagon_count_is_quotient_order():
    for entries in [(1, 1, 1), (2, 1, 2), (1, 3, 2)]:
        k = KSignature(entries)
        scene = fundamental_tile_scene(k)
        assert len(scene.hexagons) == k.order()
        svg = render_svg(scene)
        assert svg.count("<polygon") == k.order()
    scene = fundamental_tile_scene(KSignature((1, 1, 1)), domain="permutahedron")
    svg = render_svg(scene)
    assert svg.count("<polygon") == 7 + 1  # tiles plus the domain outline
    with pytest.raises(UnsupportedDimension):
        fundamental_tile_scene(KSignature((1, 1, 1, 1)))


def test_parse_matrix_arg():
    m = parse_matrix_arg("2,0,-1;0,2,-1;-1,-1,3")
    assert m.row_list() == [(2, 0, -1), (0, 2, -1), (-1, -1, 3)]
    # the parser lives beside the matrix type; artifacts keeps the same name
    assert parse_matrix_arg is intlin.parse_matrix_arg


def run_cli(capsys, *argv):
    code = cli(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_cli_build_summary(capsys):
    code, out, _ = run_cli(capsys, "build", "-k", "1,1,1")
    assert code == 0
    payload = json.loads(out)
    assert payload["schema"] == "heawood-kit/1"
    assert payload["graph"] == {"vertices": 14, "edges": 21, "d": 2}


def test_cli_build_formats(capsys, tmp_path):
    code, out, _ = run_cli(capsys, "build", "-k", "1,1,1", "--format", "dot")
    assert code == 0 and out.startswith("graph quotient {")
    code, out, _ = run_cli(capsys, "build", "-k", "1,1,1", "--torus",
                           "--format", "off")
    assert code == 0 and out.startswith("OFF\n7 14 21")
    target = tmp_path / "g.json"
    code, out, _ = run_cli(capsys, "build", "-k", "1,1,1",
                           "--format", "json-graph", "-o", str(target))
    assert code == 0 and out == ""
    assert import_graph_json(target.read_text()).vertex_count == 14


@pytest.mark.parametrize(
    "extra",
    [
        ("--torus", "--format", "dot"),
        ("--torus", "--format", "json-graph"),
        ("--format", "off"),
    ],
)
def test_cli_build_refuses_format_that_does_not_fit(capsys, extra):
    code, out, err = run_cli(capsys, "build", "-k", "1,1,1", *extra)
    assert code == 2
    assert out == ""
    assert "--torus" in err and f"--format {extra[-1]}" in err


def test_cli_refuses_off_above_dimension_three_before_the_build(capsys, monkeypatch):
    def no_build(k):
        raise RuntimeError("the torus was built")

    monkeypatch.setattr(cli_module, "build_torus_complex", no_build)
    code, out, err = run_cli(capsys, "build", "-k", "1,1,1,1,1", "--torus",
                             "--format", "off")
    assert (code, out) == (2, "")
    assert "OFF export handles dimension at most 3" in err


def test_cli_build_torus_summary(capsys):
    code, out, _ = run_cli(capsys, "build", "-k", "1,1,1", "--torus")
    payload = json.loads(out)
    assert code == 0
    assert payload["torus"]["fvector"] == [7, 21, 14]
    assert payload["torus"]["euler_characteristic"] == 0


def test_cli_fvector_both(capsys):
    code, out, _ = run_cli(capsys, "fvector", "-k", "2,1,2")
    payload = json.loads(out)
    assert code == 0
    assert payload["formula"] == payload["enumerated"]
    assert payload["match"] is True


def test_cli_aut_compare(capsys):
    code, out, _ = run_cli(capsys, "aut", "-k", "1,1,1")
    payload = json.loads(out)
    assert code == 0
    assert payload["generated"] == 42
    assert payload["brute"] == 336
    assert payload["exceptional"] is True

    code, out, _ = run_cli(capsys, "aut", "-k", "2,2,2")
    payload = json.loads(out)
    assert payload["exceptional"] is False


def test_cli_analyze(capsys):
    code, out, _ = run_cli(capsys, "analyze", "-k", "1,3,2",
                           "--hamiltonian", "1")
    payload = json.loads(out)
    assert code == 0
    assert payload["outcome"] == "premature-closure"
    assert payload["length"] == 12
    assert payload["vertices"] == 36

    code, out, _ = run_cli(capsys, "analyze", "-k", "1,1,2",
                           "--bipartite", "--six-cycles", "--chromatic")
    payload = json.loads(out)
    assert code == 0
    assert payload["bipartite"] is True
    assert payload["six_cycle_count"] == 6
    assert payload["chromatic_number"] == 2

    # every flag is answered from the one graph the command builds
    code, out, _ = run_cli(capsys, "analyze", "-k", "1,3,2", "--hamiltonian", "3",
                           "--bipartite", "--chromatic")
    payload = json.loads(out)
    assert code == 0
    assert (payload["outcome"], payload["length"], payload["vertices"]) == (
        "hamiltonian-cycle", 36, 36)
    assert payload["bipartite"] is True
    assert payload["chromatic_number"] == 2

    # a zero entry can leave an odd cycle, whose length is reported
    code, out, _ = run_cli(capsys, "analyze", "-k", "0,0,1,1", "--bipartite")
    payload = json.loads(out)
    assert code == 0
    assert payload["bipartite"] is False
    assert payload["odd_cycle_length"] == 3


def test_cli_census(capsys):
    code, out, _ = run_cli(capsys, "census", "--matrix",
                           "2,0,-1;0,2,-1;-1,-1,3")
    payload = json.loads(out)
    assert code == 0
    assert payload["quotient_order"] == 8
    assert payload["vertices"] == 16
    assert payload["all_ones_in_span"] is True

    code, out, _ = run_cli(capsys, "census", "--matrix",
                           "1,-1,0;0,1,-1;3,0,-3")
    payload = json.loads(out)
    assert code == 0
    assert payload["vertices"] == 6
    assert payload["all_ones_in_span"] is False


def test_cli_render(capsys):
    code, out, _ = run_cli(capsys, "render", "-k", "1,1,1",
                           "--domain", "parallelepiped")
    assert code == 0
    assert out.startswith("<svg") and out.rstrip().endswith("</svg>")


def test_cli_fixture(capsys):
    code, out, _ = run_cli(capsys, "fixture", "klein-quartic")
    payload = json.loads(out)
    assert code == 0
    assert payload["vertices"] == 24
    assert payload["facets"] == 56
    assert payload["edges"] == 84
    assert payload["euler_characteristic"] == -4
    assert "aut" not in payload

    code, out, _ = run_cli(capsys, "fixture", "klein-quartic", "--aut")
    payload = json.loads(out)
    assert code == 0
    assert payload["aut"] == {"dual_graph": 336, "simplicial": 336}


def test_cli_validation_exit_code(capsys):
    code, _, err = run_cli(capsys, "build", "-k", "1,-1,1")
    assert code == 2
    code, _, err = run_cli(capsys, "census", "--matrix", "1,-1,0;0,0,0;0,0,0")
    assert code == 2
    code, _, err = run_cli(capsys, "fixture", "unknown-name")
    assert code == 2
    assert "invalid choice: 'unknown-name'" in err


def test_cli_cap_exit_code(capsys, monkeypatch):
    monkeypatch.setenv("HEAWOOD_CAP", "5")
    code, _, err = run_cli(capsys, "aut", "-k", "2,2,2", "--brute")
    assert code == 3
    assert "refused" in err


@pytest.mark.parametrize(
    "argv, vertices, what, cap",
    [
        (("build", "-k", "40,40,40,40"), 1594566, "build", 200000),
        (("aut", "-k", "2,2,2,2", "--brute"), 390, "search", 200),
        (("analyze", "-k", "5,5,5", "--chromatic"), 182, "chromatic", 60),
    ],
    ids=["build", "search", "chromatic"],
)
def test_vertex_cap_refusals_read_alike(capsys, monkeypatch, argv, vertices, what, cap):
    # the command refuses with the message of the one cap check, on the
    # closed-form count, before it builds anything
    def no_build(k):
        raise AssertionError("the command built the graph before its cap checks")

    monkeypatch.delenv("HEAWOOD_CAP", raising=False)
    monkeypatch.setattr(cli_module, "build_heawood_graph", no_build)
    message = f"{vertices} vertices above {what} cap {cap}"
    code, out, err = run_cli(capsys, *argv)
    assert (code, out, err) == (3, "", f"refused: {message}\n")
    index = KSignature(argv[2].split(",")).index
    with pytest.raises(CapExceeded) as refusal:
        check_caps(index, what)
    assert str(refusal.value) == message
    # a count equal to the cap passes
    monkeypatch.setenv("HEAWOOD_CAP", str(vertices))
    check_caps(index, what)


@pytest.mark.parametrize("value", ["0", "-5", "abc"])
def test_cli_rejects_bad_cap_value(capsys, monkeypatch, value):
    monkeypatch.setenv("HEAWOOD_CAP", value)
    code, out, err = run_cli(capsys, "build", "-k", "1,1,1")
    assert code == 2
    assert out == ""
    assert "HEAWOOD_CAP" in err


@pytest.mark.parametrize(
    "argv, message",
    [
        (("analyze", "-k", "1,1,1", "--hamiltonian", "9"), "out of range"),
        (("analyze", "-k", "1,1,1,1", "--hamiltonian", "1"), "d = 2"),
    ],
)
def test_cli_hamiltonian_bad_input_exit_code(capsys, monkeypatch, argv, message):
    def no_build(k):
        raise AssertionError("analyze built the graph before checking the walk")

    monkeypatch.setattr(cli_module, "build_heawood_graph", no_build)
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert message in err


@pytest.mark.parametrize(
    "argv, counts",
    [
        (("build", "-k", "0,0,0"), "1 edges on 2 vertices, not 3"),
        (("build", "-k", "0,0,1"), "4 edges on 4 vertices, not 6"),
        (("census", "--matrix", "1,0,0;0,1,0;0,0,1"), "1 edges on 2 vertices, not 3"),
        (("aut", "-k", "0,0,1", "--compare"), "4 edges on 4 vertices, not 6"),
        (("aut", "-k", "0,0,1", "--generated"), "4 edges on 4 vertices, not 6"),
        (("analyze", "-k", "0,0,1", "--bipartite"), "4 edges on 4 vertices, not 6"),
        (("analyze", "-k", "0,0,1", "--hamiltonian", "1"), "4 edges on 4 vertices, not 6"),
    ],
)
def test_cli_rejects_degenerate_quotient(capsys, argv, counts):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert "degenerate quotient" in err and counts in err
    assert "the lattice holds the unit vector (1, 0, 0)" in err


@pytest.mark.parametrize("matrix, width", [("3", 1), ("", 0), ("2,-1;-1,2", 2)])
def test_cli_census_refuses_matrices_narrower_than_three_columns(
    capsys, monkeypatch, matrix, width
):
    # the width check runs before the cap check, so a cap of 1 does not matter
    monkeypatch.setenv("HEAWOOD_CAP", "1")
    code, out, err = run_cli(capsys, "census", "--matrix", matrix)
    assert code == 2
    assert out == ""
    assert f"generator matrix has {width} columns" in err


@pytest.mark.parametrize("matrix", ["2,,-1,0;0,2,-1;-1,0,2", "2,-1,0,;0,2,-1;-1,0,2"])
def test_cli_census_refuses_an_empty_matrix_entry(capsys, matrix):
    # an empty field is an error, not a column to drop from the row
    code, out, err = run_cli(capsys, "census", "--matrix", matrix)
    assert code == 2
    assert out == ""
    assert "invalid literal for int() with base 10: ''" in err


def test_cli_hamiltonian_refuses_above_vertex_cap(capsys, monkeypatch):
    monkeypatch.setenv("HEAWOOD_CAP", "10")
    code, out, err = run_cli(capsys, "analyze", "-k", "1,3,2", "--hamiltonian", "3")
    assert code == 3 and out == ""
    assert "36 vertices above build cap 10" in err
    monkeypatch.setenv("HEAWOOD_CAP", "36")
    code, out, _ = run_cli(capsys, "analyze", "-k", "1,3,2", "--hamiltonian", "3")
    assert code == 0
    assert json.loads(out)["outcome"] == "hamiltonian-cycle"


# A request that breaks its own rules is bad input whatever the size of
# its quotient: each rule is checked before the cap.
REQUESTS_CHECKED_BEFORE_THE_CAP = [
    (("build", "-k", "9,9,9,9,9", "--torus", "--format", "off"),
     "OFF export handles dimension at most 3"),
    (("analyze", "-k", "9,9,9,9,9", "--hamiltonian", "1"),
     "the alternating walk needs d = 2, not d = 4"),
    (("analyze", "-k", "400,400,400", "--hamiltonian", "9"),
     "walk index 9 out of range 1..3"),
]


@pytest.mark.parametrize(
    "argv, error", REQUESTS_CHECKED_BEFORE_THE_CAP,
    ids=[" ".join(argv) for argv, _ in REQUESTS_CHECKED_BEFORE_THE_CAP],
)
def test_cli_checks_the_request_before_the_cap(capsys, argv, error):
    code, out, err = run_cli(capsys, *argv)
    assert (code, out, err) == (2, "", f"error: {error}\n")


@pytest.mark.parametrize("extra", [(), ("--torus",)])
def test_cli_build_refuses_above_vertex_cap(capsys, monkeypatch, extra):
    code, out, err = run_cli(capsys, "build", "-k", "40,40,40,40", *extra)
    assert code == 3
    assert out == ""
    assert "1594566 vertices" in err
    monkeypatch.setenv("HEAWOOD_CAP", "13")
    code, _, err = run_cli(capsys, "build", "-k", "1,1,1", *extra)
    assert code == 3
    assert "refused" in err
    monkeypatch.setenv("HEAWOOD_CAP", "14")
    code, _, _ = run_cli(capsys, "build", "-k", "1,1,1", *extra)
    assert code == 0


def fresh_env() -> dict:
    """Environment of a fresh interpreter that imports this checkout, no cap set."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    env.pop("HEAWOOD_CAP", None)
    return env


@pytest.mark.parametrize(
    "argv, vertices",
    [
        (("fvector", "-k", "40,40,40,40"), 1594566),
        (("aut", "-k", "40,40,40,40", "--compare"), 1594566),
        (("analyze", "-k", "40,40,40,40", "--bipartite"), 1594566),
        (("render", "-k", "300,300,300"), 541802),
    ],
    ids=["fvector", "aut", "analyze", "render"],
)
def test_cli_refuses_above_vertex_cap_before_building(argv, vertices):
    proc = subprocess.run(
        [sys.executable, "-m", "heawood_kit.cli", *argv],
        capture_output=True, text=True, env=fresh_env(), timeout=10,
    )
    assert proc.returncode == 3
    assert proc.stdout == ""
    assert "Traceback" not in proc.stderr
    assert f"{vertices} vertices above build cap" in proc.stderr


# A signature whose box of fundamental vectors no memory could hold: each
# command answers from the lattice alone or refuses on the closed-form
# vertex count, and lists no class either way.
HUGE = "99999999999,1,1"
HUGE_SIGNATURE_COMMANDS = [
    (("build", "-k", HUGE), 3),
    (("build", "-k", HUGE, "--torus"), 3),
    (("fvector", "-k", HUGE, "--both"), 3),
    (("fvector", "-k", HUGE, "--formula"), 0),
    (("fvector", "-k", "0,99999999999,1", "--formula"), 3),
    (("aut", "-k", HUGE, "--generated"), 0),
    (("aut", "-k", HUGE, "--compare"), 3),
    (("analyze", "-k", HUGE, "--bipartite"), 3),
    (("render", "-k", HUGE), 3),
]


@pytest.mark.parametrize(
    "argv, exit_code", HUGE_SIGNATURE_COMMANDS,
    ids=[" ".join(argv) for argv, _ in HUGE_SIGNATURE_COMMANDS],
)
def test_cli_huge_entries_answer_or_refuse_without_listing(argv, exit_code):
    proc = subprocess.run(
        [sys.executable, "-m", "heawood_kit.cli", *argv],
        capture_output=True, text=True, env=fresh_env(), timeout=10,
    )
    assert proc.returncode == exit_code
    assert "Traceback" not in proc.stderr
    if exit_code == 3:
        assert "vertices above build cap" in proc.stderr
    elif argv[0] == "aut":
        assert json.loads(proc.stdout)["generated"] == 600_000_000_002


# Lattices on which the transforms of a Smith form grow to thousands of
# bits: the Hermite basis of each stays below its order, so every command
# answers or refuses at once.  The 5 x 6 census matrix has order 763,564,689, the
# Bareiss determinant of its rows and all ones.
WIDE_CENSUS = (
    "6,70,-56,-7,40,79;98,72,88,-5,-78,12;69,30,-73,99,-59,33;"
    "0,-6,25,87,-93,20;-89,-22,80,57,51,48"
)
BOUNDED_INDEX_COMMANDS = [
    (("build", "-k", "5,9,9,8,3,7,8"), 3, "727833600 vertices above build cap 200000"),
    (("aut", "-k", "442,93,322,701", "--generated"), 0, 327_256_800),
    (("aut", "-k", "5,9,9,8,3,7,8", "--generated"), 0, 2_021_760),
    (("census", "--matrix", WIDE_CENSUS), 3, "91627762680 vertices above build cap 200000"),
]


@pytest.mark.parametrize(
    "argv, exit_code, answer", BOUNDED_INDEX_COMMANDS,
    ids=[" ".join(argv[:2]) for argv, _, _ in BOUNDED_INDEX_COMMANDS],
)
def test_cli_index_of_a_wide_lattice_answers_at_once(argv, exit_code, answer):
    proc = subprocess.run(
        [sys.executable, "-m", "heawood_kit.cli", *argv],
        capture_output=True, text=True, env=fresh_env(), timeout=10,
    )
    assert proc.returncode == exit_code
    assert "Traceback" not in proc.stderr
    if exit_code == 3:
        assert answer in proc.stderr
    else:
        assert json.loads(proc.stdout)["generated"] == answer


def test_wide_census_order_is_the_determinant():
    rows = parse_matrix_arg(WIDE_CENSUS)
    with_ones = IntMatrix.from_rows(rows.row_list() + [(1,) * rows.cols])
    assert ClassIndex(rows).order == det(with_ones) == 763_564_689


# Each command of the benchmark's cli workload, aut --generated and the
# requests whose own rules come before the cap, its exit code, and the
# package modules it loads beyond the core that every command loads.
CORE_MODULES = {"cli", "intlin", "lattice", "limits", "quotient", "tiling"}
COMMAND_MODULES = [
    (("build", "-k", "1,1,1"), 0, set()),
    (("build", "-k", "3,3,3", "--torus"), 0, set()),
    (("build", "-k", "10,10,10", "--format", "json-graph"), 0, {"artifacts"}),
    (("build", "-k", "2,1,2", "--torus", "--format", "off"), 0, {"artifacts"}),
    (("fvector", "-k", "2,1,2", "--both"), 0, set()),
    (("aut", "-k", "1,1,1", "--compare"), 0, {"symmetry"}),
    (("aut", "-k", "1,1,1", "--generated"), 0, {"symmetry"}),
    (("analyze", "-k", "1,1,2", "--bipartite", "--six-cycles", "--chromatic"), 0,
     {"analysis"}),
    (("analyze", "-k", "1,3,2", "--hamiltonian", "3"), 0, {"analysis"}),
    (("census", "--matrix", "2,-1,0;0,2,-1;-1,0,2"), 0, set()),
    (("render", "-k", "2,1,2", "--domain", "parallelepiped"), 0, {"artifacts"}),
    (("fixture", "klein-quartic", "--aut"), 0, {"fixtures", "symmetry", "data"}),
    (("fixture", "klein-quartic"), 0, {"fixtures", "data"}),
    (("build", "-k", "1,-1,1"), 2, set()),
    (("aut", "-k", "2,2,2,2", "--brute"), 3, set()),
    (("build", "-k", "9,9,9,9,9", "--torus", "--format", "off"), 2, {"artifacts"}),
    (("analyze", "-k", "9,9,9,9,9", "--hamiltonian", "1"), 2, {"analysis"}),
    (("analyze", "-k", "400,400,400", "--hamiltonian", "9"), 2, {"analysis"}),
    (("analyze", "-k", "400,400,400", "--hamiltonian", "1"), 3, {"analysis"}),
    (("analyze", "-k", "400,400,400", "--bipartite"), 3, set()),
]
LIST_MODULES = (
    "import sys\n"
    "from heawood_kit.cli import cli\n"
    "code = cli(sys.argv[1:])\n"
    "print(*sorted(sys.modules), file=sys.stderr)\n"
    "sys.exit(code)\n"
)


@pytest.mark.parametrize(
    "argv, exit_code, modules", COMMAND_MODULES,
    ids=[" ".join(argv) for argv, _, _ in COMMAND_MODULES],
)
def test_cli_command_loads_only_the_modules_it_runs(argv, exit_code, modules):
    # a fresh interpreter per command: it compiles every module it loads,
    # and dataclasses alone pulls in inspect, ast and dis
    proc = subprocess.run(
        [sys.executable, "-c", LIST_MODULES, *argv],
        capture_output=True, text=True, env=fresh_env(), timeout=20,
    )
    assert proc.returncode == exit_code
    assert "Traceback" not in proc.stderr
    loaded = set(proc.stderr.splitlines()[-1].split())
    assert "dataclasses" not in loaded
    package = {m.partition(".")[2] for m in loaded if m.startswith("heawood_kit.")}
    assert package == CORE_MODULES | modules


@pytest.mark.parametrize(
    "argv",
    [
        ("build", "-k", "0,1,1", "--torus"),
        ("fvector", "-k", "0,1,1", "--formula"),
        ("fvector", "-k", "0,1,1", "--enumerate"),
        ("fvector", "-k", "0,1,1", "--both"),
    ],
    ids=["build-torus", "formula", "enumerate", "both"],
)
def test_cli_refuses_delta_signatures_without_a_torus(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err == "error: no torus: the lattice holds the short vector (1, -1, 0)\n"


def test_cli_fvector_caps_a_zero_entry_in_every_mode(capsys, monkeypatch):
    # a zero entry makes even --formula run the torus check, so the cap
    # comes first; a zero-free --formula reads the closed form uncapped
    monkeypatch.setenv("HEAWOOD_CAP", "7")
    for mode in ("--formula", "--enumerate", "--both"):
        code, out, err = run_cli(capsys, "fvector", "-k", "0,1,1", mode)
        assert (code, out, err) == (3, "", "refused: 8 vertices above build cap 7\n")
    code, out, _ = run_cli(capsys, "fvector", "-k", "40,40,40,40", "--formula")
    assert code == 0
    assert json.loads(out)["formula"] == [265761, 1860327, 3189132, 1594566]


def test_cli_aut_generated_reads_a_zero_free_lattice_uncapped(capsys, monkeypatch):
    # the closed form needs no build, with or without a zero entry: the
    # lattice itself decides degeneracy
    def no_build(k):
        raise AssertionError("aut --generated built the graph")

    monkeypatch.setenv("HEAWOOD_CAP", "7")
    monkeypatch.setattr(cli_module, "build_heawood_graph", no_build)
    calls = count_bases(monkeypatch)
    code, out, _ = run_cli(capsys, "aut", "-k", "40,40,40,40", "--generated")
    assert (code, len(calls)) == (0, 1)
    assert json.loads(out)["generated"] == 2126088
    code, out, _ = run_cli(capsys, "aut", "-k", "0,1,1", "--generated")
    assert (code, len(calls)) == (0, 2)
    assert json.loads(out)["generated"] == 8
    code, out, err = run_cli(capsys, "aut", "-k", "0,0,1", "--generated")
    assert (code, out, len(calls)) == (2, "", 3)
    assert "the lattice holds the unit vector (1, 0, 0)" in err


def test_cli_builds_the_torus_of_a_delta_signature_that_has_one(capsys, tmp_path):
    code, out, _ = run_cli(capsys, "build", "-k", "0,2,2", "--torus")
    assert code == 0
    torus = json.loads(out)["torus"]
    assert (torus["fvector"], torus["euler_characteristic"]) == ([9, 27, 18], 0)
    target = tmp_path / "t.off"
    code, out, _ = run_cli(capsys, "build", "-k", "0,2,2", "--torus",
                           "--format", "off", "-o", str(target))
    assert (code, out) == (0, "")
    lines = target.read_text().splitlines()
    assert lines[1] == "9 18 27"
    assert lines[11:] == [" ".join(map(str, [3, *f])) for f in torus["facets"]]
    code, out, _ = run_cli(capsys, "fvector", "-k", "0,2,2", "--both")
    assert code == 0
    payload = json.loads(out)
    assert payload["formula"] == payload["enumerated"] == [9, 27, 18]
    assert payload["match"] is True


def test_cli_census_and_search_refuse_above_cap(capsys, monkeypatch):
    monkeypatch.delenv("HEAWOOD_CAP", raising=False)
    code, out, err = run_cli(capsys, "aut", "-k", "2,2,2,2", "--brute")
    assert code == 3 and out == ""
    assert "390 vertices above search cap 200" in err
    monkeypatch.setenv("HEAWOOD_CAP", "15")
    code, _, err = run_cli(capsys, "census", "--matrix", "2,0,-1;0,2,-1;-1,-1,3")
    assert code == 3
    assert "16 vertices" in err
    monkeypatch.setenv("HEAWOOD_CAP", "16")
    code, _, _ = run_cli(capsys, "census", "--matrix", "2,0,-1;0,2,-1;-1,-1,3")
    assert code == 0


@pytest.mark.parametrize("fmt", ["summary", "dot"])
def test_cli_output_that_cannot_be_written_is_a_validation_error(capsys, tmp_path, fmt):
    target = tmp_path / "missing" / "x"
    code, out, err = run_cli(capsys, "build", "-k", "1,1,1", "--format", fmt,
                             "-o", str(target))
    assert code == 2
    assert out == ""
    assert err == f"error: cannot write {target}: No such file or directory\n"
    code, _, err = run_cli(capsys, "build", "-k", "1,1,1", "-o", str(tmp_path))
    assert code == 2
    assert f"cannot write {tmp_path}" in err


# every subcommand and output format that -o can route to a file
OUTPUT_COMMANDS = [
    ("build", "-k", "1,1,1"),
    ("build", "-k", "1,1,1", "--format", "dot"),
    ("build", "-k", "1,1,1", "--format", "json-graph"),
    ("build", "-k", "1,1,1", "--torus"),
    ("build", "-k", "1,1,1", "--torus", "--format", "off"),
    ("fvector", "-k", "2,1,2"),
    ("aut", "-k", "1,1,1"),
    ("analyze", "-k", "1,1,2", "--bipartite", "--six-cycles"),
    ("census", "--matrix", "2,-1,0;0,2,-1;-1,0,2"),
    ("render", "-k", "2,1,2"),
    ("fixture", "klein-quartic"),
]


@pytest.mark.parametrize(
    "argv", OUTPUT_COMMANDS, ids=[" ".join(argv) for argv in OUTPUT_COMMANDS]
)
def test_cli_every_command_writes_its_answer_to_the_output_file(capsys, tmp_path, argv):
    code, expected, _ = run_cli(capsys, *argv)
    assert code == 0 and expected
    target = tmp_path / "answer"
    code, out, err = run_cli(capsys, *argv, "-o", str(target))
    assert (code, out, err) == (0, "", "")
    assert target.read_bytes() == expected.encode()


USAGE = {
    "build": "usage: heawood build [-h] -k K [--torus]\n"
             "                     [--format {summary,dot,json-graph,off}] [-o OUTPUT]\n",
    "fvector": "usage: heawood fvector [-h] -k K [--formula | --enumerate | --both]\n"
               "                       [-o OUTPUT]\n",
    "aut": "usage: heawood aut [-h] -k K [--generated | --brute | --compare] [-o OUTPUT]\n",
    "analyze": "usage: heawood analyze [-h] -k K [--bipartite] [--hamiltonian I]\n"
               "                       [--six-cycles] [--chromatic] [-o OUTPUT]\n",
    "census": "usage: heawood census [-h] --matrix MATRIX [-o OUTPUT]\n",
    "render": "usage: heawood render [-h] -k K [--domain {parallelepiped,permutahedron}]\n"
              "                      [-o OUTPUT]\n",
    "fixture": "usage: heawood fixture [-h] [--aut] [-o OUTPUT] {klein-quartic}\n",
}


@pytest.mark.parametrize("command", USAGE)
def test_cli_usage_lines_are_pinned(capsys, monkeypatch, command):
    # the options, their order and -o last, at a terminal 80 columns wide
    monkeypatch.setenv("COLUMNS", "80")
    code, out, err = run_cli(capsys, command, "-h")
    assert (code, err) == (0, "")
    assert out.partition("\n\n")[0] + "\n" == USAGE[command]


def test_cli_missing_signature_is_an_argparse_error(capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    code, out, err = run_cli(capsys, "build")
    assert (code, out) == (2, "")
    assert err == USAGE["build"] + (
        "heawood build: error: the following arguments are required: -k\n")


def count_bases(monkeypatch) -> list:
    calls = []
    original = intlin.hermite_basis

    def counting(*args):
        calls.append(args)
        return original(*args)

    for module in (intlin, lattice):
        monkeypatch.setattr(module, "hermite_basis", counting)
    return calls


# (argv, Hermite bases): a command that needs the lattice makes one class
# index, which answers the order, the cap check, the build, the torus
# check, the f-vector and the span of all ones
BASES = [
    (("build", "-k", "2,1,2"), 1),
    (("build", "-k", "2,1,2", "--torus"), 1),
    (("build", "-k", "0,2,2", "--torus"), 1),
    (("fvector", "-k", "2,1,2", "--formula"), 0),
    (("fvector", "-k", "2,1,2", "--enumerate"), 1),
    (("fvector", "-k", "2,1,2", "--both"), 1),
    (("fvector", "-k", "0,2,2", "--formula"), 1),
    (("fvector", "-k", "0,2,2", "--enumerate"), 1),
    (("fvector", "-k", "0,2,2", "--both"), 1),
    (("aut", "-k", "1,1,1", "--compare"), 1),
    (("aut", "-k", "1,1,1", "--generated"), 1),
    (("aut", "-k", "0,2,2", "--generated"), 1),
    (("analyze", "-k", "1,1,2", "--bipartite", "--six-cycles", "--chromatic"), 1),
    (("census", "--matrix", "2,0,-1;0,2,-1;-1,-1,3"), 1),
    (("render", "-k", "2,1,2"), 1),
]


@pytest.mark.parametrize(
    "argv, bases", BASES,
    ids=[" ".join(argv) for argv, _ in BASES],
)
def test_cli_makes_at_most_one_smith_form(capsys, monkeypatch, argv, bases):
    calls = count_bases(monkeypatch)
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    assert out
    assert len(calls) == bases <= 1
    if argv[0] == "census":
        assert json.loads(out)["vertices"] == 16


# (argv, torus checks): --enumerate checks the torus once, in the build;
# --both also prints the closed form, which a zero-free signature answers
# unchecked and which makes the second check when an entry is zero
TORUS_CHECKS = [
    (("fvector", "-k", "2,1,2", "--enumerate"), 1),
    (("fvector", "-k", "0,2,2", "--enumerate"), 1),
    (("fvector", "-k", "2,1,2", "--both"), 1),
    (("fvector", "-k", "0,2,2", "--both"), 2),
]


@pytest.mark.parametrize(
    "argv, checks", TORUS_CHECKS, ids=[" ".join(argv) for argv, _ in TORUS_CHECKS]
)
def test_cli_fvector_checks_the_torus_once_per_answer(capsys, monkeypatch, argv, checks):
    calls = []
    original = lattice.ClassIndex.short_vector

    def counting(self):
        calls.append(self)
        return original(self)

    monkeypatch.setattr(lattice.ClassIndex, "short_vector", counting)
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    assert "enumerated" in json.loads(out)
    assert len(calls) == checks


def test_cli_census_refuses_before_listing_classes():
    # ClassIndex lists its classes on first use, so the order of a huge
    # quotient is read and refused without listing them
    proc = subprocess.run(
        [sys.executable, "-m", "heawood_kit.cli", "census", "--matrix",
         "100000,0,-1;0,100000,-1;-1,-1,100001"],
        capture_output=True, text=True, env=fresh_env(), timeout=10,
    )
    assert proc.returncode == 3
    assert "20000400000 vertices above build cap" in proc.stderr


def test_cli_refuses_a_large_signature_before_listing_classes(capsys, monkeypatch):
    listed = []
    original = lattice._fundamental

    def recording(entries):
        listed.append(entries)
        yield from original(entries)

    monkeypatch.setattr(lattice, "_fundamental", recording)
    code, out, err = run_cli(capsys, "build", "-k", "40,40,40,40")
    assert (code, out) == (3, "")
    assert "1594566 vertices above build cap" in err
    code, out, _ = run_cli(capsys, "aut", "-k", "40,40,40,40", "--generated")
    assert (code, json.loads(out)["generated"]) == (0, 2_126_088)
    assert listed == []
    # a build lists them, once
    assert run_cli(capsys, "build", "-k", "1,1,1")[0] == 0
    assert listed == [(1, 1, 1)]


def test_cli_render_lists_the_classes_once(capsys, monkeypatch):
    # the scene reads the classes of the index the cap check made, so
    # the listing generator is made once, by that index
    listed = []
    original = lattice._fundamental

    def recording(entries):
        listed.append(entries)
        return original(entries)

    monkeypatch.setattr(lattice, "_fundamental", recording)
    code, out, _ = run_cli(capsys, "render", "-k", "2,1,2")
    assert code == 0
    assert out.startswith("<svg")
    assert listed == [(2, 1, 2)]


def test_cli_build_torus_enumerates_faces_once(capsys, monkeypatch):
    calls = []
    original = SimplicialComplex.fvector_enumerated

    def counting(self):
        calls.append(self)
        return original(self)

    monkeypatch.setattr(SimplicialComplex, "fvector_enumerated", counting)
    code, out, _ = run_cli(capsys, "build", "-k", "2,1,2", "--torus")
    assert code == 0
    assert json.loads(out)["torus"]["euler_characteristic"] == 0
    assert len(calls) == 1
