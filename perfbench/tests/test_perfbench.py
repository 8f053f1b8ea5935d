"""Tests of the benchmark itself (not part of the package's test suite).

    PYTHONPATH=src python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import hashlib
import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import compare  # noqa: E402
import jobs  # noqa: E402
import oracle  # noqa: E402
import pinned  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
from heawood_kit import lattice, quotient  # noqa: E402

BASELINE = json.loads((BENCH / "baseline_seed.json").read_text())


def named(workload: str, *names: str) -> list[jobs.Job]:
    return [job for job in jobs.workload_jobs(workload) if job.name in names]


def source_digest() -> str:
    h = hashlib.sha256()
    package = ROOT / "src" / "heawood_kit"
    for path in sorted(p for p in package.rglob("*") if p.is_file() and "__pycache__" not in p.parts):
        h.update(path.relative_to(package).as_posix().encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def traced_counts(work) -> dict[str, float]:
    tracer = tracing.Tracer()
    tracer.install()
    try:
        work()
    finally:
        tracer.uninstall()
    return {name: value for name, value in tracer.summary().items() if not name.endswith("_s")}


def test_closed_forms_reproduce_the_paper_tables():
    assert oracle.graph_counts((1, 1, 1)) == (14, 21)
    assert oracle.torus_fvector((1, 1, 1)) == (7, 21, 14)
    assert [oracle.stirling2(5, m) for m in range(1, 6)] == [1, 15, 25, 10, 1]
    assert oracle.generated_order((2, 1, 2, 1)) == 128
    assert oracle.generated_order((2, 2, 2, 2)) == 520
    for text, (order, vertices, _) in oracle.CENSUS_TABLE.items():
        assert oracle.census_order(text) == order
        assert oracle.census_vertices(text) == vertices


def test_injected_wrong_expected_value_counts_as_failed(monkeypatch):
    selected = named("automorphism", "brute 1,1,1", "klein quartic aut")
    clean = run.run_pass(selected, random.Random(0))
    assert (clean.attempted, clean.failures) == (2, [])

    monkeypatch.setitem(oracle.EXCEPTIONAL_AUT, (1, 1, 1), 42)
    monkeypatch.setitem(oracle.KLEIN_AUT, "simplicial", 168)
    wrong = run.run_pass(selected, random.Random(0))
    assert wrong.attempted == 2
    assert len(wrong.failures) == 2


def test_reference_units_follow_the_host_speed():
    def units(slowdown: float, job_s: float) -> list[list[float]]:
        # one kernel sample every 0.1 s of a steady host's time, 20 ms each
        speedometer = run.Speedometer()
        speedometer.samples = [(0.1 * i * slowdown, 0.02 * slowdown) for i in range(200)]
        p = run.Pass(jobs=[(0.0, job_s * slowdown), (10.0 * slowdown, 0.05 * slowdown)])
        return speedometer.units([p])

    base = units(1.0, 1.0)
    assert base == [pytest.approx([50.0, 2.5])]
    assert units(1.7, 1.0) == [pytest.approx(base[0])]
    assert units(1.0, 2.0)[0][0] == pytest.approx(100.0)


def test_changed_export_bytes_count_as_failed(monkeypatch):
    selected = named("construct-large", "export off 3,3,3,3")
    monkeypatch.setitem(pinned.DIGESTS, "off 3,3,3,3", "0" * 64)
    assert len(run.run_pass(selected, random.Random(0)).failures) == 1


def test_traced_call_counts_repeat_exactly():
    def work():
        quotient.build_heawood_graph(lattice.KSignature((3, 3, 3)))
        quotient.build_heawood_graph(lattice.KSignature((3, 3, 0), delta=True))
        run.run_pass(named("construct-large", "census 4,0,-1;0,4,-1;-1,-1,5"), random.Random(1))
        run.run_pass(named("automorphism", "generated 2,2,2"), random.Random(1))

    first, second = traced_counts(work), traced_counts(work)
    assert first == second
    assert first["quotient.build_heawood_graph.calls"] > 0


def test_tracing_restores_the_package():
    before = quotient.build_heawood_graph, quotient.QuotientGraph.key_of
    traced_counts(lambda: None)
    assert (quotient.build_heawood_graph, quotient.QuotientGraph.key_of) == before


@pytest.mark.skipif(source_digest() != BASELINE["source_sha256"], reason="heawood_kit differs from the seed")
def test_seed_traced_counts():
    big = traced_counts(lambda: quotient.build_heawood_graph(lattice.KSignature((2, 2, 2, 2, 2))))
    assert big["lattice.reduce_to_fundamental.calls"] == 126_605
    assert big["quotient.vertices_built"] == 5064
    delta = traced_counts(lambda: quotient.build_heawood_graph(lattice.KSignature((6, 6, 0), delta=True)))
    assert delta["lattice.reduce_to_fundamental.calls"] == 885
    assert delta["lattice.class_canonicalizer.calls"] == 885
    assert delta["intlin.smith_normal_form.calls"] == 885
    assert delta["intlin.det.calls"] == 8850


def test_metric_names_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    expected = dict(tracing.LAYER_METRICS)
    expected.update({name: "s" for name in run.CLI_METRICS})
    expected.update({"cli.known_defects_failing": "count", "trace.overhead_share": "share"})
    assert per_layer == expected
    assert [w["name"] for w in spec["workloads"]] == list(jobs.WORKLOADS)


def write_runs(directory: Path, workload: str, values: dict[str, list[float]]) -> None:
    directory.mkdir()
    count = len(next(iter(values.values())))
    for i in range(count):
        metrics = {name: {"value": v[i], "unit": "s"} for name, v in values.items()}
        record = {"workload": workload, "trace": 0, "seed": i, "result": {"metrics": metrics}}
        (directory / f"{workload}.trace0.seed{i}.json").write_text(json.dumps(record))


def test_compare_rows(tmp_path):
    write_runs(tmp_path / "old", "cli", {
        "pass_ref": [1.00, 1.01, 0.99, 1.00, 1.02],
        "setup_s": [0.10, 0.10, 0.11, 0.10, 0.10],
        "slowest_job_ref": [1.0, 1.5, 0.6, 1.2, 0.8],
        "intlin.det.calls": [10, 10, 10, 10, 10],
    })
    write_runs(tmp_path / "new", "cli", {
        "pass_ref": [1.30, 1.31, 1.29, 1.30, 1.32],
        "setup_s": [0.10, 0.11, 0.10, 0.10, 0.10],
        "slowest_job_ref": [1.0, 1.4, 0.7, 1.1, 0.9],
        "intlin.det.calls": [4, 4, 4, 4, 4],
    })
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    verdicts = {row[1]: (row[4], row[7]) for row in compare.rows(tmp_path / "old", tmp_path / "new", spec)}
    assert verdicts["pass_ref"] == (pytest.approx(1.3), "regressed")
    assert verdicts["setup_s"][1] == "within bound"
    assert verdicts["slowest_job_ref"][1] == "unresolved"
    assert verdicts["intlin.det.calls"] == (pytest.approx(0.4), "lower")


def test_refuses_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "cli", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
