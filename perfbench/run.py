"""Benchmark entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs from the root of a source checkout.  Times several cold starts of the
workload process for ``setup_s``, then runs the workload in one more fresh
process and prints one JSON line of results as the last line of stdout:
the end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``.  Exits non-zero, printing no result, when anything fails.
"""

from __future__ import annotations

import argparse
import json
import os
import select
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
# cold starts timed before the measured process; its own start is one more
COLD_STARTS = 7
# each child process must finish within this many seconds
CHILD_TIMEOUT = 150


def _env() -> dict:
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def _start(args: list[str], deadline: float) -> tuple[subprocess.Popen, float]:
    """Start a worker and wait for its ``ready`` line; returns the process
    and the seconds from launch to ready.  The pipe is unbuffered, so
    ``communicate`` later sees everything after that line."""
    t0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable, WORKER] + args, stdout=subprocess.PIPE,
                            bufsize=0, env=_env(), cwd=ROOT)
    readable, _, _ = select.select([proc.stdout], [], [], deadline - t0)
    line = proc.stdout.readline() if readable else b""
    ready = time.perf_counter() - t0
    if line.strip() != b"ready":
        _finish(proc, deadline)
        raise RuntimeError("worker did not get ready")
    return proc, ready


def _finish(proc: subprocess.Popen, deadline: float) -> str:
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.perf_counter()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise RuntimeError("worker timed out")
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with {proc.returncode}")
    return out.decode()


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "conecheck", "__init__.py")):
        print("no conecheck sources under src/ next to the benchmark", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)

    wargs = ["--workload", args.workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)]
    setup = []
    try:
        for _ in range(COLD_STARTS):
            deadline = time.perf_counter() + CHILD_TIMEOUT
            proc, ready = _start(wargs + ["--setup-only"], deadline)
            _finish(proc, deadline)
            setup.append(ready)
        deadline = time.perf_counter() + CHILD_TIMEOUT
        proc, ready = _start(wargs, deadline)
        setup.append(ready)
        result = json.loads(_finish(proc, deadline).strip().splitlines()[-1])
    except (RuntimeError, ValueError, IndexError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1

    if args.trace:
        values = result["layers"]
        wanted = spec["per_layer"]
    else:
        values = {"setup_s": statistics.median(setup), "trials_per_s": result["trials_per_s"],
                  "round_s": result["round_s"], "peak_rss_mb": result["peak_rss_mb"]}
        wanted = spec["end_to_end"]
    names = [m["name"] for m in wanted]
    if sorted(names) != sorted(values):
        print(f"metric names differ from BENCHMARK.json: {sorted(set(names) ^ set(values))}",
              file=sys.stderr)
        return 1
    print(f"{args.workload}: {result['rounds']} rounds, setup samples "
          f"{[round(s, 4) for s in setup]}, report digest {result['digest']}", file=sys.stderr)
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
