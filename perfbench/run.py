"""Benchmark entry point for timebinsim.

    python3 perfbench/run.py --workload scaling --seed 1 --seconds 26 --trace 0

Run from the root of a source checkout; the package is imported from
``src/``. With ``--trace 0`` it reports the end-to-end metrics: ``setup_s``
(median of several fresh interpreters that import the package, build the
inputs and warm caches), ``wall_rel`` (the median over passes of a pass's
time over the time of the reference task in ``probe.py`` during that pass)
and ``peak_rss_mb``.
With ``--trace 1`` it reports the per-layer metrics of a traced run. The
last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``. Workloads and metrics are
described in ``perfbench/README.md``.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKER = Path(__file__).resolve().parent / "worker.py"
OUT = Path(__file__).resolve().parent / "out"
# Set-up is timed in fresh interpreters, half of them before the workload
# process and half after it, so that a slow spell of a shared host does not
# fall on all of them.
SETUP_SAMPLES = 6
SETUP_TIMEOUT_S = 30.0
# time allowed beyond --seconds for the worker's own set-up and last pass
WORKER_SLACK_S = 60.0


class BenchError(RuntimeError):
    pass


def worker_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    threads = str(len(os.sched_getaffinity(0)))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = threads
    return env


def run_worker(argv, timeout):
    """Run one worker to completion; returns (start stamp, its last stdout line as JSON)."""
    t0 = time.monotonic()
    proc = subprocess.run(
        [sys.executable, str(WORKER)] + argv,
        cwd=ROOT,
        env=worker_env(),
        stdout=subprocess.PIPE,
        text=True,
        timeout=timeout,
    )
    if proc.returncode != 0:
        raise BenchError(f"worker {' '.join(argv)} exited with {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise BenchError(f"worker {' '.join(argv)} printed no report")
    return t0, json.loads(lines[-1])


def declared():
    """Workload names and, per --trace value, (metric, unit) pairs from BENCHMARK.json."""
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        bench = json.load(fh)
    workloads = [w["name"] for w in bench["workloads"]]
    metrics = {
        0: [(m["name"], m["unit"]) for m in bench["end_to_end"]],
        1: [(m["name"], m["unit"]) for m in bench["per_layer"]],
    }
    return workloads, metrics


def measure(args, workdir):
    common = ["--workload", args.workload, "--seed", str(args.seed), "--workdir", str(workdir)]
    setup = []

    def time_setup():
        for _ in range(SETUP_SAMPLES // 2 if args.trace == 0 else 0):
            start, report = run_worker(common + ["--setup-only"], SETUP_TIMEOUT_S)
            setup.append(report["setup_done"] - start)

    time_setup()
    spans = OUT / f"spans-{args.workload}-seed{args.seed}.json"
    _, report = run_worker(
        common
        + ["--seconds", str(args.seconds), "--trace", str(args.trace), "--spans", str(spans)],
        args.seconds + WORKER_SLACK_S,
    )
    time_setup()
    if args.trace == 1:
        return report["layers"], report
    values = {
        "setup_s": statistics.median(setup),
        "wall_rel": report["wall_rel"],
        "peak_rss_mb": report["peak_rss_mb"],
    }
    return values, report


def main(argv=None):
    workloads, declared_metrics = declared()
    ap = argparse.ArgumentParser(description="timebinsim benchmark")
    ap.add_argument("--workload", required=True, choices=workloads)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "timebinsim" / "__init__.py").is_file():
        print(f"error: no timebinsim sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    metrics = declared_metrics[args.trace]
    workdir = OUT / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        values, report = measure(args, workdir)
    except (BenchError, subprocess.TimeoutExpired, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    missing = [name for name, _ in metrics if name not in values]
    if missing:
        print(f"error: metrics not measured: {missing}", file=sys.stderr)
        return 1
    machine = dict(report["machine"], seed=args.seed, workload=args.workload)
    print("# machine " + json.dumps(machine, sort_keys=True))
    for name, unit in metrics:
        print(f"{name:28s} {values[name]:>16.6g} {unit}")
    if args.trace == 0:
        for name in ("wall_s", "probe_s"):
            print(f"{name:28s} {report[name]:>16.6g} s")
    error_rate = report["failed"] / report["attempted"]
    print(f"{'error_rate':28s} {error_rate:>16.6g} ratio")
    if report["failures"]:
        print("# failed: " + ", ".join(report["failures"]))
    result = {
        "correct": report["failed"] == 0,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in metrics},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
