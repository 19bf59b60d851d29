"""Benchmark entry point: one workload in a fresh child process.

    python3 perfbench/run.py --workload concurrence_grid --seed 1 --seconds 40 --trace 0

Run from the root of a source checkout (it imports plasmarray from ./src).
The child is pinned to one BLAS thread.  This process times the child's
set-up from just before it is started until it reports ready, so set-up
includes interpreter start-up.  The last stdout line is one JSON object:
correct, attempted, failed and metrics (end-to-end metrics with --trace 0,
per-layer metrics with --trace 1).  The exit code is 0 only when every
check passed.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time

from workload import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
CHILD_TIMEOUT_S = 170.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def _metric(value, unit):
    return {"value": value, "unit": unit}


def _unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith(".bytes"):
        return "bytes"
    return "count"


def end_to_end(result: dict, setup_s: float) -> dict:
    return {
        "setup_s": _metric(setup_s, "s"),
        "sweep_s": _metric(statistics.median(result["rounds"]), "s"),
        "peak_rss_mb": _metric(result["peak_rss_mb"], "MB"),
    }


def per_layer(result: dict) -> dict:
    metrics = {name: _metric(value, _unit(name)) for name, value in result["layers"].items()}
    untraced, traced = result["rounds"][:2]
    metrics["setup.import_s"] = _metric(result["import_s"], "s")
    metrics["sweep.points"] = _metric(result["points_per_round"], "count")
    metrics["trace.sweep_untraced_s"] = _metric(untraced, "s")
    metrics["trace.sweep_traced_s"] = _metric(traced, "s")
    metrics["trace.overhead_s"] = _metric(traced - untraced, "s")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join("src", "plasmarray", "__init__.py")):
        print("no src/plasmarray here: run from the root of a plasmarray checkout",
              file=sys.stderr)
        return 2

    env = dict(os.environ, **{var: "1" for var in THREAD_VARS})
    cmd = [sys.executable, os.path.join(HERE, "workload.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    started = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=env)
    watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
    watchdog.start()
    setup_s, result = None, None
    try:
        for line in proc.stdout:
            if line.startswith("PERFBENCH READY"):
                setup_s = time.perf_counter() - started
            elif line.startswith("PERFBENCH RESULT "):
                result = json.loads(line[len("PERFBENCH RESULT "):])
        code = proc.wait()
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    finally:
        watchdog.cancel()
        proc.stdout.close()
    if code != 0 or result is None or setup_s is None:
        print(f"workload failed (exit code {code})", file=sys.stderr)
        return 1

    metrics = per_layer(result) if args.trace else end_to_end(result, setup_s)
    correct = result["problems"] == 0
    print(json.dumps({
        "correct": correct,
        "attempted": len(result["rounds"]) * result["points_per_round"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
