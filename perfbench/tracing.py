"""Span tracing of timebinsim's layers, applied from outside the package.

A ``Tracer`` replaces every public function of each layer module with a
wrapper that records a span (name, layer, start, end, parent span, operation
id) and, for a few functions, counts work at the same boundary. The wrapper
is installed in every ``timebinsim`` module namespace that binds the
function, so ``timebinsim.cli.run_protocol`` is traced as well as
``timebinsim.protocol.run_protocol``. Leaving the ``with`` block restores
every patched attribute. Nothing under ``src/`` is changed.

Spans stay in memory; ``write_spans`` saves them when the run ends.
"""
from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import sys
import time
from dataclasses import asdict, dataclass

PACKAGE = "timebinsim"
# Package modules in the order they are reported. ``params`` is left out: it
# only runs inside cyclemap/budget/cli calls and is too thin to time alone.
LAYERS = ("cli", "budget", "dynamics", "cyclemap", "protocol", "waveguide", "measurement")
# Bookkeeping done by the tracer itself inside a traced call is recorded
# under this layer, so it is not charged to the layer that was running.
HOOK_LAYER = "trace"

SAMPLERS = ("sample_measurements", "sample_measurements_with_eta")
ESTIMATORS = ("estimate_ghz_fidelity", "sample_stabilizer_expectations")
FIDELITY = ("conditional_fidelity", "stabilizer_expectations")
COMPLEX_BYTES = 16


@dataclass(slots=True)
class Span:
    sid: int
    name: str
    layer: str
    start: float
    end: float | None
    parent: int | None
    op: int

    @property
    def duration(self):
        return self.end - self.start


def public_functions(module):
    """Public callables defined in ``module`` (plain or ``lru_cache``-wrapped)."""
    out = {}
    for name, obj in vars(module).items():
        if name.startswith("_") or isinstance(obj, type) or not callable(obj):
            continue
        if getattr(obj, "__module__", None) == module.__name__:
            out[name] = obj
    return out


def package_modules():
    return [
        mod
        for name, mod in sorted(sys.modules.items())
        if mod is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))
    ]


class Tracer:
    """Context manager that traces every layer's public functions.

    ``op`` is the identifier of the benchmark operation in progress; the
    caller sets it before each operation so all spans it causes share it.
    """

    def __init__(self):
        self.spans = []
        self.op = 0
        self.counts = {
            "protocol.cycles": 0,
            "protocol.peak_dim": 0,
            "protocol.bytes_computed": 0,
            "protocol.mc_samples": 0,
            "cyclemap.builds": 0,
            "dynamics.solves": 0,
            "dynamics.rhs_evals": 0,
            "dynamics.solver_failures": 0,
            "dynamics.optimizations": 0,
            "measurement.shots": 0,
            "measurement.records": 0,
            "measurement.kept_shots": 0,
            "cli.csv_bytes": 0,
        }
        self.build_keys = set()
        self._stack = []
        self._patched = []
        self._hooks = {
            ("protocol", "run_protocol_cycles"): self._on_protocol_cycles,
            ("protocol", "run_protocol"): self._on_noise_average,
            ("protocol", "overhauser_average"): self._on_noise_average,
            ("cyclemap", "build_cycle_map"): self._on_build,
            ("dynamics", "optimize_pulse_duration"): self._on_optimize,
            ("measurement", "sample_measurements"): self._on_sample,
            ("measurement", "sample_measurements_with_eta"): self._on_sample,
            ("cli", "write_result"): self._on_write_result,
        }

    # -- patching ---------------------------------------------------------

    def __enter__(self):
        modules = {layer: importlib.import_module(f"{PACKAGE}.{layer}") for layer in LAYERS}
        namespaces = package_modules()
        for layer, module in modules.items():
            for name, original in public_functions(module).items():
                wrapped = self._wrap(layer, name, original)
                for ns in namespaces:
                    for attr, value in list(vars(ns).items()):
                        if value is original:
                            self._patch(ns, attr, wrapped)
        dynamics = modules["dynamics"]
        self._patch(dynamics, "solve_ivp", self._wrap_solver(dynamics.solve_ivp))
        return self

    def __exit__(self, *exc):
        while self._patched:
            ns, attr, original = self._patched.pop()
            setattr(ns, attr, original)
        return False

    def _patch(self, ns, attr, value):
        self._patched.append((ns, attr, getattr(ns, attr)))
        setattr(ns, attr, value)

    def _wrap(self, layer, name, fn):
        hook = self._hooks.get((layer, name))
        signature = inspect.signature(fn) if hook else None
        clock = time.perf_counter
        spans = self.spans
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            sid = len(spans)
            span = Span(sid, name, layer, clock(), None, parent, self.op)
            spans.append(span)
            stack.append(sid)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = clock()
                stack.pop()
            if hook is not None:
                h0 = clock()
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                hook(bound.arguments, result)
                spans.append(Span(len(spans), "hook", HOOK_LAYER, h0, clock(), parent, self.op))
            return result

        return traced

    def _wrap_solver(self, solve_ivp):
        # Counting only, no span: the RHS closures that solve_ivp calls are
        # dynamics code, so their time stays in the dynamics layer.
        @functools.wraps(solve_ivp)
        def counted(*args, **kwargs):
            sol = solve_ivp(*args, **kwargs)
            self.counts["dynamics.solves"] += 1
            self.counts["dynamics.rhs_evals"] += int(sol.nfev)
            self.counts["dynamics.solver_failures"] += int(not sol.success)
            return sol

        return counted

    # -- counters read at layer boundaries --------------------------------

    def _on_protocol_cycles(self, args, state):
        c = self.counts
        dim = 2
        for cycle in args["cycles"]:
            # each Kraus term reads rho (dim^2) and accumulates a (2 dim)^2 block
            c["protocol.bytes_computed"] += len(cycle.kraus) * 5 * dim * dim * COMPLEX_BYTES
            dim *= 2
            c["protocol.cycles"] += 1
        c["protocol.peak_dim"] = max(c["protocol.peak_dim"], dim)

    def _on_noise_average(self, args, result):
        noise = args["noise"]
        if noise is not None:
            self.counts["protocol.mc_samples"] += noise.sample_count

    def _on_build(self, args, cycle_map):
        self.counts["cyclemap.builds"] += 1
        self.build_keys.add((args["betas_or_params"], args["options"]))

    def _on_optimize(self, args, result):
        self.counts["dynamics.optimizations"] += 1

    def _on_sample(self, args, records):
        self.counts["measurement.shots"] += args["shots"]
        self.counts["measurement.records"] += len(records)
        dropped = {r.shot for r in records if r.outcome == "no_click"}
        self.counts["measurement.kept_shots"] += args["shots"] - len(dropped)

    def _on_write_result(self, args, result):
        self.counts["cli.csv_bytes"] += os.path.getsize(args["path"])


def self_times(spans):
    """Per span: duration minus the part of it that its children cover."""
    children = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    out = {}
    for s in spans:
        covered = 0.0
        cur_lo = cur_hi = None
        for lo, hi in sorted(children.get(s.sid, ())):
            lo, hi = max(lo, s.start), min(hi, s.end)
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out[s.sid] = s.duration - covered
    return out


def layer_metrics(spans, counts, build_keys):
    """Per-layer metrics of one traced pass, keyed as in BENCHMARK.json."""
    selfs = self_times(spans)
    by_id = {s.sid: s for s in spans}
    m = {}
    for layer in LAYERS:
        own = [s for s in spans if s.layer == layer]
        m[f"{layer}.calls"] = sum(
            1 for s in own if s.parent is None or by_id[s.parent].layer != layer
        )
        m[f"{layer}.self_s"] = sum(selfs[s.sid] for s in own)

    def named(names):
        return [s for s in spans if s.name in names]

    m["protocol.runs"] = len(named(("run_protocol_cycles",)))
    for key in ("cycles", "peak_dim", "bytes_computed", "mc_samples"):
        m[f"protocol.{key}"] = counts[f"protocol.{key}"]
    m["protocol.fidelity_s"] = sum(s.duration for s in named(FIDELITY))

    builds = counts["cyclemap.builds"]
    m["cyclemap.unique_frac"] = len(build_keys) / builds if builds else 0.0

    for key in ("solves", "rhs_evals", "solver_failures"):
        m[f"dynamics.{key}"] = counts[f"dynamics.{key}"]
    opts = counts["dynamics.optimizations"]
    m["dynamics.evals_per_opt"] = counts["dynamics.rhs_evals"] / opts if opts else 0.0

    m["waveguide.points"] = len(named(("coupling_at",)))

    m["measurement.sample_s"] = sum(
        s.duration
        for s in named(SAMPLERS)
        if s.parent is None or by_id[s.parent].name not in SAMPLERS
    )
    m["measurement.estimate_s"] = sum(selfs[s.sid] for s in named(ESTIMATORS))
    shots = counts["measurement.shots"]
    m["measurement.shots"] = shots
    m["measurement.records"] = counts["measurement.records"]
    m["measurement.kept_frac"] = counts["measurement.kept_shots"] / shots if shots else 0.0

    m["cli.csv_bytes"] = counts["cli.csv_bytes"]
    return m


def write_spans(spans, path):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump([asdict(s) for s in spans], fh)
        fh.write("\n")
