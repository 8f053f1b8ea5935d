"""heawood-kit benchmark.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]
    python3 perfbench/run.py --compare OLD_DIR NEW_DIR

Run from the root of a source checkout; heawood_kit is imported from
``src/`` of that checkout.  Workloads (``jobs.py``): ``construct-large``,
``automorphism`` and ``cli``.  One client runs the
workload's jobs one at a time, closed loop, in passes; the seed shuffles
job order within each pass.  Passes repeat while another one fits into
``--seconds``.  Every answer is checked (``oracle.py``, ``pinned.py``);
a job that raises, answers wrongly or exits with an unexpected code
counts as failed.

``--trace 0`` reports the end-to-end metrics: ``pass_ref`` (summed
time of the jobs of one pass, median over passes), ``slowest_job_ref``
(slowest job of a pass, median over passes), ``setup_s`` (fresh
interpreter until the workload's modules are imported and its jobs are
built, median of several probes) and ``peak_rss_mb`` (getrusage peak of
the process running the passes; for ``cli`` the largest CLI process).

The speed of a shared host drifts by a fifth or more within a minute,
in wall and in CPU time alike, so job times are read against a fixed
pure-Python reference kernel (``reference_kernel``).  A second thread
(``Speedometer``) times the kernel every ``REFERENCE_INTERVAL_S`` while
the passes run; it takes turns with the jobs at the GIL, so it samples
the host's speed during each job, a job of several seconds included.
Each job's wall time is divided by the mean kernel time sampled during
it and within ``REFERENCE_WINDOW_S`` before and after it (at least
``REFERENCE_MIN_SAMPLES`` samples); the ``_ref`` metrics are in those
units.  The kernel's turns take a few percent of each job's wall time,
the same share on every commit.  The plain wall times are printed
alongside.

``--trace 1`` alternates untraced and traced passes and reports the
per-layer metrics of ``tracing.py`` (lower medians over traced passes,
so counts stay whole), the ``cli.*`` timings of the CLI processes,
``trace.overhead_share`` (traced over untraced pass time, both in
reference units) and ``cli.known_defects_failing`` from an untimed
probe of known defects.

Each run also writes its result to ``.perfbench/runs/``; ``--compare``
takes two copies of that directory (parent and change) and prints, per
workload, every metric's ratio to its base and whether it resolved.
"""

from __future__ import annotations

import argparse
import bisect
import gc
import json
import os
import random
import resource
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import compare
import jobs
import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
CLI_ENTRY = HERE / "cli_entry.py"
PROBE = HERE / "probe.py"

SETUP_PROBES = 7
REFERENCE_STEPS = 1_500  # 0.5-1 ms on a 2.1 GHz Xeon vCPU
REFERENCE_INTERVAL_S = 0.02
REFERENCE_WINDOW_S = 1.0
REFERENCE_MIN_SAMPLES = 10
CLI_TIMEOUT_S = 120

END_TO_END = {"pass_ref": "ref", "slowest_job_ref": "ref", "setup_s": "s", "peak_rss_mb": "MB"}
CLI_METRICS = ("cli.interpreter_s", "cli.import_s", "cli.command_s")
# Call counts the traced summary also breaks down by job.
PER_JOB_CALLS = ("lattice.reduce_to_fundamental", "intlin.smith_normal_form")


@dataclass
class Pass:
    seconds: float = 0.0
    slowest: float = 0.0
    attempted: int = 0
    failures: list[str] = field(default_factory=list)
    jobs: list[tuple[float, float]] = field(default_factory=list)  # start, seconds
    layers: dict[str, float] = field(default_factory=dict)
    cli: dict[str, float] = field(default_factory=dict)


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(SRC), str(HERE)])
    env.pop("HEAWOOD_CAP", None)
    for name in ("PERFBENCH_CLI_REPORT", "PERFBENCH_CLI_TRACE"):
        env.pop(name, None)
    return env


class CliLauncher:
    """Starts one CLI process per job and sums what the processes report."""

    def __init__(self) -> None:
        self.mode = "plain"  # "plain", "timing" or "trace"
        self.totals: dict[str, float] = {}

    def launch(self, argv: list[str]) -> tuple[int, str, str]:
        env = child_env()
        report = WORK / "cli-report.json"
        if self.mode != "plain":
            WORK.mkdir(exist_ok=True)
            report.unlink(missing_ok=True)
            env["PERFBENCH_CLI_REPORT"] = str(report)
        if self.mode == "trace":
            slug = "".join(c if c.isalnum() else "_" for c in "-".join(argv))
            env["PERFBENCH_CLI_TRACE"] = str(WORK / "spans" / f"cli-{slug}")
        spawned = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, str(CLI_ENTRY), *argv],
            capture_output=True, text=True, env=env, cwd=ROOT, timeout=CLI_TIMEOUT_S,
        )
        if self.mode != "plain" and report.is_file():
            data = json.loads(report.read_text())
            self.add("cli.interpreter_s", data["start"] - spawned)
            self.add("cli.import_s", data["imported"] - data["start"])
            self.add("cli.command_s", data["end"] - data["command"])
            for name, value in data.get("layers", {}).items():
                self.add(name, value)
        return proc.returncode, proc.stdout, proc.stderr

    def add(self, name: str, value: float) -> None:
        self.totals[name] = self.totals.get(name, 0) + value

    def take(self) -> dict[str, float]:
        totals, self.totals = self.totals, {}
        return totals


def reference_kernel() -> int:
    """Fixed pure-Python work in the program's style: tuple keys, dict and list churn."""
    table: dict[tuple[int, int, int], int] = {}
    rows = []
    for i in range(REFERENCE_STEPS):
        key = (i % 97, -(i % 89), i % 83)
        table[key] = table.get(key, 0) + 1
        if i % 7 == 0:
            rows.append(tuple(sorted(key)))
    return len(table) + len(rows)


class Speedometer:
    """Times ``reference_kernel`` from a second thread while the passes run."""

    def __init__(self) -> None:
        self.samples: list[tuple[float, float]] = []  # end, seconds
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _run(self) -> None:
        while not self._stop.wait(REFERENCE_INTERVAL_S):
            start = time.perf_counter()
            reference_kernel()
            end = time.perf_counter()
            self.samples.append((end, end - start))

    def __enter__(self) -> "Speedometer":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()

    def units(self, passes: list[Pass]) -> list[list[float]]:
        """Each pass's job times over the mean kernel time sampled around each job."""
        ends = [end for end, _ in self.samples]
        out = []
        for p in passes:
            units = []
            for start, seconds in p.jobs:
                lo = bisect.bisect_left(ends, start - REFERENCE_WINDOW_S)
                hi = bisect.bisect_right(ends, start + seconds + REFERENCE_WINDOW_S)
                while hi - lo < REFERENCE_MIN_SAMPLES and (lo > 0 or hi < len(ends)):
                    lo, hi = max(0, lo - 1), min(len(ends), hi + 1)
                units.append(seconds / statistics.mean(r for _, r in self.samples[lo:hi]))
            out.append(units)
        return out


def run_pass(jobs_: list, rng: random.Random, tracer=None) -> Pass:
    """One pass in shuffled order; checks run between jobs, untimed."""
    order = list(jobs_)
    rng.shuffle(order)
    result = Pass()
    for job in order:
        gc.collect()
        if tracer is not None:
            tracer.start_job(job.name)
        start = time.perf_counter()
        try:
            answer = job.run()
        except Exception as exc:  # a failed operation is counted, not fatal
            elapsed = time.perf_counter() - start
            problems = [f"raised {type(exc).__name__}: {exc}"]
        else:
            elapsed = time.perf_counter() - start
            try:
                problems = job.check(answer)
            except Exception as exc:
                problems = [f"check raised {type(exc).__name__}: {exc}"]
            del answer
        result.jobs.append((start, elapsed))
        result.seconds += elapsed
        result.slowest = max(result.slowest, elapsed)
        result.attempted += 1
        if problems:
            result.failures.append(f"{job.name}: {'; '.join(problems)}")
    return result


def setup_seconds(workload: str) -> float:
    """Median time from launching a fresh interpreter to the probe's ready line."""
    samples = []
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, str(PROBE), workload],
            stdout=subprocess.PIPE, text=True, env=child_env(), cwd=ROOT,
        )
        line = proc.stdout.readline()
        samples.append(time.perf_counter() - start)
        proc.stdout.close()
        if proc.wait(timeout=CLI_TIMEOUT_S) != 0 or line.strip() != "ready":
            raise RuntimeError(f"set-up probe for {workload} failed")
    return statistics.median(samples)


def _limit_memory() -> None:
    resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))


def known_defects_failing() -> list[str]:
    """Names of the known defects that still reproduce (untimed)."""
    failing = []
    for name, kind, payload, fixed in jobs.KNOWN_DEFECTS:
        argv = ["-c", payload] if kind == "python" else [str(CLI_ENTRY), *payload]
        try:
            proc = subprocess.run(
                [sys.executable, *argv], capture_output=True, text=True, env=child_env(),
                cwd=ROOT, timeout=jobs.DEFECT_TIME_LIMIT_S, preexec_fn=_limit_memory,
            )
        except subprocess.TimeoutExpired:
            failing.append(f"{name} (killed after {jobs.DEFECT_TIME_LIMIT_S} s)")
            continue
        if not fixed(proc.returncode, proc.stdout, proc.stderr):
            failing.append(f"{name} (exit {proc.returncode})")
    return failing


def measure(workload: str, seed: int, seconds: float, trace: bool) -> tuple[list[Pass], list[Pass], dict]:
    """Run passes for about ``seconds``: all plain, or alternating plain and traced."""
    rng = random.Random(seed)
    launcher = CliLauncher()
    jobs_ = jobs.workload_jobs(workload, launch=launcher.launch)
    extra: dict = {}
    if trace:
        extra["defects"] = known_defects_failing()
        import heawood_kit.cli  # noqa: F401  every module, so every binding gets wrapped
    plain: list[Pass] = []
    traced: list[Pass] = []
    tracer = None
    with Speedometer() as speedometer:
        begin = time.perf_counter()
        while True:
            use_trace = trace and len(traced) < len(plain)
            if workload == "cli":
                launcher.mode = "trace" if use_trace else ("timing" if trace else "plain")
            elif use_trace:
                tracer = tracing.Tracer()
                tracer.install()
            try:
                result = run_pass(jobs_, rng, tracer if use_trace else None)
            finally:
                if use_trace and tracer is not None:
                    tracer.uninstall()
            if workload == "cli":
                totals = launcher.take()
                result.cli = {name: totals.get(name, 0.0) for name in CLI_METRICS}
                if use_trace:
                    result.layers = tracing.with_ratios({name: totals.get(name, 0) for name in tracing.LAYER_METRICS})
            elif use_trace:
                result.layers = tracer.summary()
                extra["missing"] = tracer.missing
                extra["by_job"] = {f: tracer.calls_by_job(f) for f in PER_JOB_CALLS}
                tracer.dump(WORK / "spans" / workload)
                tracer = None
            (traced if use_trace else plain).append(result)
            elapsed = time.perf_counter() - begin
            if trace and not traced:
                continue
            upcoming = traced if trace and len(traced) < len(plain) else plain
            if elapsed + statistics.median(p.seconds for p in upcoming) > seconds:
                break
    extra["units"] = speedometer.units(plain)
    extra["traced_units"] = speedometer.units(traced)
    extra["reference_s"] = statistics.mean(r for _, r in speedometer.samples)
    if not trace:
        who = resource.RUSAGE_CHILDREN if workload == "cli" else resource.RUSAGE_SELF
        extra["peak_rss_mb"] = resource.getrusage(who).ru_maxrss / 1024
    return plain, traced, extra


def report(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    plain, traced, extra = measure(workload, seed, seconds, trace)
    passes = plain + traced
    attempted = sum(p.attempted for p in passes)
    failures = [f for p in passes for f in p.failures]
    metrics: dict[str, dict] = {}

    def put(name: str, value: float, unit: str) -> None:
        metrics[name] = {"value": value, "unit": unit}

    plain_s = statistics.median(p.seconds for p in plain)
    plain_ref = statistics.median(sum(u) for u in extra["units"])
    if trace:
        for name, unit in tracing.LAYER_METRICS.items():
            put(name, statistics.median_low(p.layers.get(name, 0) for p in traced), unit)
        for name in CLI_METRICS:
            put(name, statistics.median_low(p.cli.get(name, 0.0) for p in plain), "s")
        put("cli.known_defects_failing", len(extra["defects"]), "count")
        traced_ref = statistics.median(sum(u) for u in extra["traced_units"])
        put("trace.overhead_share", traced_ref / plain_ref - 1, "share")
    else:
        put("pass_ref", plain_ref, "ref")
        put("slowest_job_ref", statistics.median(max(u) for u in extra["units"]), "ref")
        put("setup_s", setup_seconds(workload), "s")
        put("peak_rss_mb", extra["peak_rss_mb"], "MB")

    print(f"workload {workload}  seed {seed}  trace {int(trace)}  passes {len(plain)} plain + {len(traced)} traced")
    for name, m in metrics.items():
        if not trace or m["value"]:
            print(f"  {name:52s} {m['value']:.6g} {m['unit']}")
    print(f"  {'pass wall time':52s} {plain_s:.6g} s (median over plain passes)")
    print(f"  {'slowest job wall time':52s} {statistics.median(p.slowest for p in plain):.6g} s")
    print(f"  {'reference kernel':52s} {extra['reference_s']:.6g} s (mean over the run)")
    print(f"  failed_share {len(failures) / attempted:.6g} share ({len(failures)}/{attempted} operations failed)")
    for function, by_job in extra.get("by_job", {}).items():
        for job, count in sorted(by_job.items()):
            print(f"  {function}.calls in {job}: {count}")
    for failure in failures:
        print(f"FAILED {failure}", file=sys.stderr)
    for defect in extra.get("defects", []):
        print(f"known defect still failing: {defect}", file=sys.stderr)
    if extra.get("missing"):
        print(f"not traced (absent): {', '.join(extra['missing'])}", file=sys.stderr)
    return {"correct": not failures, "attempted": attempted, "failed": len(failures), "metrics": metrics}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=38.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--compare", nargs=2, metavar=("OLD_DIR", "NEW_DIR"))
    args = parser.parse_args(argv)
    if args.compare:
        return compare.main(Path(args.compare[0]), Path(args.compare[1]), ROOT / "BENCHMARK.json")
    if not (SRC / "heawood_kit" / "__init__.py").is_file():
        print(f"error: no heawood_kit sources under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    if args.workload not in jobs.WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(jobs.WORKLOADS)}")
    sys.path.insert(0, str(SRC))
    os.environ.pop("HEAWOOD_CAP", None)
    import heawood_kit

    if Path(heawood_kit.__file__).resolve().parent != (SRC / "heawood_kit").resolve():
        print(f"error: heawood_kit imported from {heawood_kit.__file__}, not {SRC}", file=sys.stderr)
        return 2
    result = report(args.workload, args.seed, args.seconds, bool(args.trace))
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "result": result}
    runs = WORK / "runs"
    runs.mkdir(parents=True, exist_ok=True)
    (runs / f"{args.workload}.trace{args.trace}.seed{args.seed}.json").write_text(json.dumps(record) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
