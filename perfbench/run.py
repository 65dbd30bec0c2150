"""Benchmark of the fluidcell outage engines.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs from the root of a source checkout (``src/fluidcell`` must be
there). Each workload runs in a fresh single-threaded process
(``workload.py``); set-up is also timed in two more processes that stop
after set-up, and ``setup_s`` is the median of the three. The last line
of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``,
the per-layer metrics of a traced run with ``--trace 1``. See README.md.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKLOADS = ("analytic-stock", "mc-stock", "crosscheck-desk")
# one thread everywhere: the package's own pools and every BLAS/OpenMP
# runtime numpy or scipy may load
PINNED = {
    "FLUIDCELL_WORKERS": "1",
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
}
SETUP_ONLY_PROCESSES = 2
DEADLINE_S = 170.0


def child(args, env, started, setup_only=False):
    command = [
        sys.executable, os.path.join(HERE, "workload.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--out-dir", args.out_dir,
    ]
    if setup_only:
        command.append("--setup-only")
    left = DEADLINE_S - (time.perf_counter() - started)
    done = subprocess.run(command, env=env, cwd=ROOT, stdout=subprocess.PIPE,
                          text=True, timeout=max(left, 1.0))
    lines = done.stdout.splitlines()
    if done.returncode != 0 or not lines:
        sys.stdout.write(done.stdout)
        raise SystemExit(f"workload process failed with code "
                         f"{done.returncode}")
    return lines[:-1], json.loads(lines[-1])


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()
    if not os.path.isfile(os.path.join(SRC, "fluidcell", "__init__.py")):
        sys.exit(f"no fluidcell sources under {SRC}; run from a checkout")
    args.out_dir = os.path.join(
        HERE, "out", f"{args.workload}-seed{args.seed}-trace{args.trace}")

    env = dict(os.environ, **PINNED)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, env.get("PYTHONPATH")) if p)
    started = time.perf_counter()

    setups = []
    if not args.trace:
        for _ in range(SETUP_ONLY_PROCESSES):
            _, result = child(args, env, started, setup_only=True)
            setups.append(result["setup_s"])
    report, result = child(args, env, started)
    metrics = result["metrics"]
    if not args.trace:
        setups.append(metrics["setup_s"])
        metrics["setup_s"] = statistics.median(setups)
        report.append("setup_s samples: "
                      + ", ".join(f"{s:.4f}" for s in setups))
    with open(os.path.join(ROOT, "BENCHMARK.json"),
              encoding="utf-8") as handle:
        declared = json.load(handle)[
            "per_layer" if args.trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}
    if set(units) != set(metrics):
        sys.exit(f"metrics {sorted(metrics)} do not match BENCHMARK.json")
    report.append("timed rounds (s): "
                  + ", ".join(f"{s:.3f}" for s in result["rounds_s"])
                  + f"; run total {time.perf_counter() - started:.1f} s")
    for line in report:
        print(line)
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": metrics[name], "unit": units[name]}
                    for name in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
