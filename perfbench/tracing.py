"""Outside-in tracing of heawood_kit from the benchmark's own files.

``Tracer.install`` wraps the public functions named in ``LAYERS`` and
rebinds every name in every ``heawood_kit`` module that refers to the
original, so that calls made through ``from .x import y`` bindings are
seen too.  Each call records a span (function, start, end, parent span,
job id) in flat arrays; self time is a span's duration minus the
durations of its direct child spans.  A function that a later version of
the package no longer has is skipped and reads 0.
"""

from __future__ import annotations

import importlib
import json
import sys
import time
from array import array
from collections import Counter
from pathlib import Path
from typing import Any, Callable

LAYERS: dict[str, tuple[str, ...]] = {
    "intlin": ("smith_normal_form", "det"),
    "lattice": (
        "reduce_to_fundamental",
        "class_canonicalizer",
        "from_ambient",
        "to_ambient",
        "enumerate_fundamental",
        "quotient_order_general",
    ),
    "tiling": ("neighbors", "base_permutation", "tiles_containing"),
    "quotient": (
        "build_heawood_graph",
        "build_torus_complex",
        "build_general_quotient",
        "vertex_key",
        "QuotientGraph.key_of",
        "SimplicialComplex.fvector_enumerated",
        "dual_graph",
    ),
    "symmetry": (
        "generated_group",
        "translation_generators",
        "perm_from_coordinate_map",
        "is_automorphism",
        "group_closure",
        "brute_force_automorphisms",
        "refine_colors",
    ),
    "analysis": (
        "hamiltonian_alternating",
        "hamiltonian_backtracking",
        "chromatic_number",
        "six_cycles_through",
        "is_bipartite",
    ),
    "artifacts": ("export_graph_json", "export_graph_dot", "export_complex_off", "import_graph_json"),
    "fixtures": ("klein_quartic", "simplicial_automorphism_order"),
}

FUNCTIONS = [f"{module}.{attr}" for module, attrs in LAYERS.items() for attr in attrs]


def _size(result: Any, attr: str) -> int:
    value = getattr(result, attr, 0)
    return value if isinstance(value, int) else 0


def _text_bytes(result: Any) -> int:
    return len(result.encode()) if isinstance(result, str) else 0


# Work counts read off return values at the same boundaries.
COUNTERS: dict[str, tuple[str, Callable[[Any], int]]] = {
    "quotient.build_heawood_graph": ("quotient.vertices_built", lambda r: _size(r, "vertex_count")),
    "quotient.build_general_quotient": ("quotient.vertices_built", lambda r: _size(r, "vertex_count")),
    "symmetry.group_closure": ("symmetry.group_closure.elements", lambda r: _size(r, "order")),
    "symmetry.brute_force_automorphisms": ("symmetry.brute_force_automorphisms.found", lambda r: _size(r, "order")),
    "artifacts.export_graph_json": ("artifacts.bytes_out", _text_bytes),
    "artifacts.export_graph_dot": ("artifacts.bytes_out", _text_bytes),
    "artifacts.export_complex_off": ("artifacts.bytes_out", _text_bytes),
}

# Per-layer metric names and units, in report order.
LAYER_METRICS: dict[str, str] = {}
for _name in FUNCTIONS:
    LAYER_METRICS[f"{_name}.calls"] = "count"
    LAYER_METRICS[f"{_name}.self_s"] = "s"
for _counter, _ in COUNTERS.values():
    LAYER_METRICS[_counter] = "bytes" if _counter.endswith("bytes_out") else "count"
LAYER_METRICS["lattice.reductions_per_vertex"] = "ratio"


def with_ratios(layers: dict[str, float]) -> dict[str, float]:
    """Fill in the ratio metrics from the counts they divide."""
    built = layers["quotient.vertices_built"]
    reductions = layers["lattice.reduce_to_fundamental.calls"]
    layers["lattice.reductions_per_vertex"] = reductions / built if built else 0.0
    return layers


class Tracer:
    def __init__(self) -> None:
        self.names = array("i")
        self.parents = array("i")
        self.jobs = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self.stack = [-1]
        self.job = [0]
        self.job_names: list[str] = []
        self.counters: Counter = Counter()
        self.missing: list[str] = []
        self._patched: list[tuple[object, str, object]] = []

    def start_job(self, name: str) -> None:
        self.job[0] = len(self.job_names)
        self.job_names.append(name)

    def calls_by_job(self, function: str) -> dict[str, int]:
        """Calls of one traced function, per job of the pass."""
        fid = FUNCTIONS.index(function)
        counts = Counter(job for name, job in zip(self.names, self.jobs) if name == fid)
        return {self.job_names[job]: count for job, count in counts.items()}

    def _wrap(self, fid: int, fn: Callable, counter: tuple | None) -> Callable:
        names, parents, jobs, starts, ends = self.names, self.parents, self.jobs, self.starts, self.ends
        stack, job, counters, clock = self.stack, self.job, self.counters, time.perf_counter

        def traced(*args, **kwargs):
            idx = len(names)
            names.append(fid)
            parents.append(stack[-1])
            jobs.append(job[0])
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if counter is not None:
                counters[counter[0]] += counter[1](result)
            return result

        return traced

    def install(self) -> None:
        """Wrap every listed function that the imported package defines."""
        modules = [m for n, m in sys.modules.items() if n == "heawood_kit" or n.startswith("heawood_kit.")]
        for fid, full in enumerate(FUNCTIONS):
            module_name, attr = full.split(".", 1)
            try:
                module = importlib.import_module(f"heawood_kit.{module_name}")
            except ImportError:
                self.missing.append(full)
                continue
            if "." in attr:
                cls_name, meth = attr.split(".")
                owner = getattr(module, cls_name, None)
                original = getattr(owner, "__dict__", {}).get(meth)
                if original is None:
                    self.missing.append(full)
                    continue
                self._patched.append((owner, meth, original))
                setattr(owner, meth, self._wrap(fid, original, COUNTERS.get(full)))
                continue
            original = getattr(module, attr, None)
            if original is None:
                self.missing.append(full)
                continue
            wrapper = self._wrap(fid, original, COUNTERS.get(full))
            for mod in modules:
                for name, value in list(vars(mod).items()):
                    if value is original:
                        self._patched.append((mod, name, original))
                        setattr(mod, name, wrapper)

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._patched):
            setattr(owner, name, original)
        self._patched.clear()

    def summary(self) -> dict[str, float]:
        """Calls, self time and counters per traced function, all names present."""
        out: dict[str, float] = {name: 0.0 if unit in ("s", "ratio") else 0 for name, unit in LAYER_METRICS.items()}
        names, parents, starts, ends = self.names, self.parents, self.starts, self.ends
        self_time = [0.0] * len(FUNCTIONS)
        child = array("d", bytes(8 * len(names)))
        # children are recorded after their parent, so a reverse sweep
        # has every child's duration summed before its parent is reached
        for i in range(len(names) - 1, -1, -1):
            duration = ends[i] - starts[i]
            self_time[names[i]] += duration - child[i]
            parent = parents[i]
            if parent >= 0:
                child[parent] += duration
        for fid, count in Counter(names).items():
            out[f"{FUNCTIONS[fid]}.calls"] = count
        for fid, seconds in enumerate(self_time):
            out[f"{FUNCTIONS[fid]}.self_s"] = seconds
        out.update(self.counters)
        return with_ratios(out)

    def dump(self, path: Path) -> None:
        """Write the spans: a JSON header and the raw arrays in header order."""
        path.parent.mkdir(parents=True, exist_ok=True)
        fields = [("name", self.names), ("start", self.starts), ("end", self.ends),
                  ("parent", self.parents), ("job", self.jobs)]
        header = {
            "functions": FUNCTIONS,
            "jobs": self.job_names,
            "spans": len(self.names),
            "fields": [[name, arr.typecode, arr.itemsize] for name, arr in fields],
            "byteorder": sys.byteorder,
        }
        path.with_suffix(".json").write_text(json.dumps(header) + "\n")
        with open(path.with_suffix(".bin"), "wb") as fh:
            for _, arr in fields:
                arr.tofile(fh)
