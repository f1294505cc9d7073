"""One benchmark process: set up a workload, run it in passes, report JSON.

Started by ``run.py`` with BLAS threads pinned through the environment.
Passes run back to back in this one process (a closed loop with a single
caller), until the next pass would overrun ``--seconds``; with ``--trace 1``
untraced and traced passes alternate. Before the first operation of an
untraced pass, and then about once a second between its operations, the
reference task of ``probe.py`` runs once in a process of its own, to time
the host's speed during that pass. With
``--setup-only`` the process stops after set-up, so ``run.py`` can time
set-up in a fresh interpreter.
The last line of standard output is the report.

    python3 perfbench/worker.py --workload scaling --seed 1 --seconds 26 \
        --trace 0 --workdir perfbench/out/tmp
"""
from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from tracing import Tracer, layer_metrics, write_spans
from workloads import WORKLOADS, Pass

MIN_PASSES = 3
MAX_PASSES = 200
PROBE = Path(__file__).resolve().parent / "probe.py"
PROBE_TIMEOUT_S = 30.0
PROBE_EVERY_S = 1.0


def machine_facts():
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


@contextlib.contextmanager
def probe_process():
    """Start ``probe.py``; yields a function that runs its task once and
    returns the task's time. The process is stopped on the way out."""
    proc = subprocess.Popen(
        [sys.executable, str(PROBE)], stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True
    )

    def probe():
        proc.stdin.write("\n")
        proc.stdin.flush()
        line = proc.stdout.readline()
        if not line:
            raise RuntimeError(f"probe exited with {proc.wait()}")
        return float(line)

    try:
        yield probe
    finally:
        proc.stdin.close()
        try:
            proc.wait(PROBE_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()


def run_pass(run, inputs, memo, traced, probe):
    tracer = Tracer() if traced else None
    probe_s = []
    last_probe = -math.inf

    def between():
        nonlocal last_probe
        if time.perf_counter() - last_probe >= PROBE_EVERY_S:
            probe_s.append(probe())
            last_probe = time.perf_counter()

    p = Pass(memo, tracer, None if traced else between)
    p.traced = traced
    p.probe_s = probe_s
    with tracer or contextlib.nullcontext():
        run(inputs, p)
    p.seconds = sum(p.op_s)
    p.layers = p.spans = None
    if tracer is not None:
        p.layers = layer_metrics(tracer.spans, tracer.counts, tracer.build_keys)
        p.spans = tracer.spans
    return p


def run_passes(run, inputs, budget, trace):
    """Run passes until the next one would end after ``budget`` seconds.

    Untraced runs make at least MIN_PASSES passes. Traced runs alternate
    untraced and traced passes, starting untraced, so that slow drifts of
    the machine hit both kinds alike.
    """
    memo = {}
    passes = []
    start = time.perf_counter()
    with probe_process() as probe:
        while True:
            traced = bool(trace) and len(passes) % 2 == 1
            if traced:
                for q in passes:
                    q.spans = None  # only the last traced pass's spans are written
            passes.append(run_pass(run, inputs, memo, traced, probe))
            elapsed = time.perf_counter() - start
            typical = elapsed / len(passes)
            if len(passes) >= MAX_PASSES or (len(passes) >= MIN_PASSES and elapsed + typical > budget):
                return passes


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--spans", help="where a traced run writes its last pass's spans")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    setup, run = WORKLOADS[args.workload]
    inputs = setup(args.seed, args.workdir)
    if args.setup_only:
        # CLOCK_MONOTONIC is shared by all processes, so run.py can subtract
        # its own start stamp; interpreter teardown is left out
        sys.stdout.write(json.dumps({"setup_done": time.monotonic()}) + "\n")
        return 0

    passes = run_passes(run, inputs, args.seconds, args.trace)
    plain = [p for p in passes if not p.traced]
    traced = [p for p in passes if p.traced]

    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    failures = sorted({name for p in passes for name in p.failures})
    # every later pass, traced or not, must reproduce the first pass bit for bit
    for p in passes[1:]:
        attempted += 1
        if p.digest != passes[0].digest:
            failed += 1
            failures.append("traced-output-differs" if p.traced else "pass-output-differs")

    report = {
        "machine": machine_facts(),
        "attempted": attempted,
        "failed": failed,
        "failures": failures,
        # each pass's time in units of the probe task's time during that
        # pass: a host that slows down for a while slows both alike
        "wall_rel": statistics.median(p.seconds / statistics.median(p.probe_s) for p in plain),
        "wall_s": statistics.median(p.seconds for p in plain),
        "probe_s": statistics.median(t for p in plain for t in p.probe_s),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if traced:
        layers = {}
        for key in traced[0].layers:
            layers[key] = statistics.median(p.layers[key] for p in traced)
        layers["trace.overhead_s"] = statistics.median(p.seconds for p in traced) - statistics.median(
            p.seconds for p in plain
        )
        report["layers"] = layers
        if args.spans:
            write_spans(traced[-1].spans, args.spans)
    sys.stdout.write("\n" + json.dumps(report) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
