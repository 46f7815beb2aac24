"""Trial-throughput benchmark for icsim.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout: the program is imported from ./src. Each
workload runs in a fresh worker process (worker.py) with BLAS pinned to one
thread. Set-up time is measured from spawning a process until its warm-up
trial has ended, scaled to a steady host like every time (see worker.py),
over PROBES set-up-only processes plus the worker itself, and reported as
the median. Prints every metric with its unit, then one JSON object as the
last line. Exits 2 on bad arguments or when ./src/icsim is missing, and 1
when a run-level check fails; a trial that breaks a per-trial check is
counted in "failed" instead.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = sorted(p.stem for p in (HERE / "workloads").glob("*.json"))
PROBES = 4  # set-up-only processes per run, on top of the worker's own set-up
TIME_LIMIT = 170.0  # seconds the whole run may take


def clock() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def spawn(args, env, deadline: float) -> tuple[float, dict]:
    """Run a worker to completion; return its set-up time and its result."""
    start = clock()
    proc = subprocess.run([sys.executable, str(HERE / "worker.py"), *args], env=env,
                          stdout=subprocess.PIPE, timeout=max(1.0, deadline - start),
                          text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with {proc.returncode}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    return (result.pop("ready_at") - start) * result.pop("setup_scale"), result


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        ap.error("--seed must be >= 0 and --seconds >= 1")

    root = Path.cwd()
    if not (root / "src" / "icsim" / "__init__.py").is_file():
        print("perfbench: run from the root of an icsim checkout (no src/icsim here)",
              file=sys.stderr)
        return 2
    outdir = HERE / "out" / args.workload
    outdir.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, PYTHONPATH=str(root / "src"), PYTHONDONTWRITEBYTECODE="1",
               OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    env.pop("ICSIM_OUTDIR", None)
    common = ["--workload", args.workload, "--seed", str(args.seed),
              "--seconds", str(args.seconds), "--outdir", str(outdir)]

    deadline = clock() + TIME_LIMIT
    try:
        setups = [] if args.trace else [
            spawn([*common, "--setup-only"], env, deadline)[0] for _ in range(PROBES)]
        setup, result = spawn([*common, "--trace", str(args.trace)], env, deadline)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError, IndexError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    if not args.trace:
        setups.append(setup)
        result["metrics"]["setup_s"] = {"value": statistics.median(setups), "unit": "s"}

    for name, m in sorted(result["metrics"].items()):
        print(f"{name:32s} {m['value']:>14.6g} {m['unit']}")
    print(f"{'attempted':32s} {result['attempted']:>14d}\n"
          f"{'failed':32s} {result['failed']:>14d}\n"
          f"{'correct':32s} {str(result['correct']):>14s}")
    print(json.dumps({key: result[key] for key in ("correct", "attempted", "failed", "metrics")}))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
