import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def test_aut_survey_runs_and_orders_divide():
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p)}
    env.pop("HEAWOOD_CAP", None)
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "aut_survey.py"),
         "--n", "3", "--max-entry", "2"],
        capture_output=True, text=True, env=env, timeout=60, check=True,
    )
    rows = json.loads(proc.stdout)["survey"]
    assert len(rows) == 8
    for row in rows:
        assert row["brute"] % row["generated"] == 0


def test_aut_survey_runs_exact_search_on_d3_grid():
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p)}
    env.pop("HEAWOOD_CAP", None)
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "aut_survey.py"),
         "--n", "4", "--max-entry", "2"],
        capture_output=True, text=True, env=env, timeout=60, check=True,
    )
    rows = json.loads(proc.stdout)["survey"]
    assert len(rows) == 16
    assert all(row["exceptional"] is False for row in rows)


def test_hamiltonicity_sweep_runs():
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p)}
    env.pop("HEAWOOD_CAP", None)
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "hamiltonicity_sweep.py"),
         "--n", "3", "--max-entry", "2"],
        capture_output=True, text=True, env=env, timeout=60, check=True,
    )
    rows = json.loads(proc.stdout)["sweep"]
    assert len(rows) == 8
    for row in rows:
        for walk in row["alternating"].values():
            if walk["outcome"] == "hamiltonian-cycle":
                assert walk["length"] == row["vertices"]
            else:
                assert walk["outcome"] == "premature-closure"
                assert walk["length"] < row["vertices"]


def load_sweep():
    spec = importlib.util.spec_from_file_location(
        "hamiltonicity_sweep", ROOT / "scripts" / "hamiltonicity_sweep.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_hamiltonicity_sweep_builds_each_graph_once(monkeypatch):
    module = load_sweep()
    calls = []
    build = module.build_heawood_graph

    def counting_build(k):
        calls.append(k.entries)
        return build(k)

    monkeypatch.setattr(module, "build_heawood_graph", counting_build)
    rows = module.sweep(3, 2)
    assert len(rows) == 8
    # one build per signature, shared by its three walks
    assert len(calls) == 8
    assert sorted(calls) == [tuple(row["k"]) for row in rows]


def test_hamiltonicity_sweep_failures_up_to_entry_5():
    # the rows where no alternating direction closes; the sweep reports
    # them and settles nothing more about them
    rows = load_sweep().sweep(3, 5)
    assert len(rows) == 125
    failures = [row["k"] for row in rows if not row["any_alternating_hamiltonian"]]
    assert failures == [[3, 5, 4], [4, 3, 5], [5, 4, 3]]
    assert all(
        set(row) == {"k", "vertices", "alternating", "any_alternating_hamiltonian"}
        for row in rows
    )


@pytest.mark.parametrize(
    "script, n, message",
    [
        ("aut_survey.py", "2", "--n must be at least 3"),
        ("hamiltonicity_sweep.py", "2", "--n must be 3"),
        ("hamiltonicity_sweep.py", "4", "--n must be 3"),
    ],
)
def test_scripts_reject_a_bad_signature_length(script, n, message):
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p)}
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script), "--n", n],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert message in proc.stderr
    assert "Traceback" not in proc.stderr
