"""Run the ``heawood`` command line as its console script does.

The benchmark starts this file in a fresh interpreter for every CLI job.
When ``PERFBENCH_CLI_REPORT`` names a file, the clock readings at start,
after ``import heawood_kit.cli`` and after the command are written there
as JSON; when ``PERFBENCH_CLI_TRACE`` also names a span file, the command
runs traced and the report carries the per-layer summary.
"""

import time

START = time.perf_counter()

import os  # noqa: E402
import sys  # noqa: E402

from heawood_kit.cli import cli  # noqa: E402

IMPORTED = time.perf_counter()


def main() -> int:
    report_path = os.environ.get("PERFBENCH_CLI_REPORT")
    span_path = os.environ.get("PERFBENCH_CLI_TRACE")
    tracer = None
    if report_path and span_path:
        import tracing

        tracer = tracing.Tracer()
        tracer.install()
    command = time.perf_counter()
    code = cli(sys.argv[1:])
    end = time.perf_counter()
    if report_path:
        import json
        from pathlib import Path

        report = {"start": START, "imported": IMPORTED, "command": command, "end": end}
        if tracer is not None:
            tracer.uninstall()
            report["layers"] = tracer.summary()
            tracer.dump(Path(span_path))
        Path(report_path).write_text(json.dumps(report))
    return code


if __name__ == "__main__":
    sys.exit(main())
