"""Set-up probe: import what a workload uses, build its inputs, say so.

``python3 perfbench/probe.py WORKLOAD`` prints ``ready`` once the
workload's modules are imported and its job list is built; the benchmark
times a fresh interpreter from launch to that line.
"""

import sys

import jobs

if __name__ == "__main__":
    workload = sys.argv[1]
    if workload == "cli":
        import heawood_kit.cli  # noqa: F401
    jobs.workload_jobs(workload, launch=lambda argv: None)
    print("ready", flush=True)
