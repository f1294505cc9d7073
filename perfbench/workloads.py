"""The four benchmark workloads and the checks on their outputs.

Each workload has a ``setup_*`` function, which turns the seed into the
workload's inputs and warms lazy caches, and a ``pass_*`` function, which
runs one pass of operations through ``Pass.op``. Every operation returns
``(ok, outputs)``: ``ok`` comes from a closed-form oracle or a physics
invariant, never from a stored copy of an earlier output, and ``outputs``
feed the pass digest that the worker compares between passes and between
traced and untraced runs.

Only public ``timebinsim`` functions are called.
"""
from __future__ import annotations

import hashlib
import math
import os
import struct
import sys
import time
import traceback
from dataclasses import replace

import numpy as np

# Package functions are looked up on their modules at call time, so the
# tracer's wrappers are seen; a name bound here by ``from ... import`` would
# bypass them.
import timebinsim as tb
from timebinsim import cli, measurement
from timebinsim.measurement import BasisSetting
from timebinsim.protocol import TargetKind
from timebinsim.waveguide import DEFAULT_GAMMA_TABLE

VERTICAL_ONLY = tb.BranchingBetas(1.0, 0.0, 0.0, 0.0)
KINDS = (TargetKind.GHZ, TargetKind.CLUSTER)
MAX_PHOTONS = 10
STABILIZER_MAX_PHOTONS = 8
ETA = 0.84


class Pass:
    """One pass of a workload: counts operations, failures and outputs, and
    times each operation (``op_s``, in the order they ran). ``between``, if
    given, is called before each operation, outside its timing.

    ``memo`` lives for the whole run, so an operation can compare its output
    with the same operation's output in an earlier pass (CLI byte identity).
    """

    def __init__(self, memo, tracer=None, between=None):
        self.memo = memo
        self.tracer = tracer
        self.between = between
        self.attempted = 0
        self.failed = 0
        self.failures = []
        self.op_s = []
        self._digest = hashlib.sha256()

    def op(self, name, fn):
        if self.between is not None:
            self.between()
        self.attempted += 1
        if self.tracer is not None:
            self.tracer.op = self.attempted
        t0 = time.perf_counter()
        try:
            ok, outputs = fn()
        except Exception:
            traceback.print_exc(file=sys.stderr)
            ok, outputs = False, ("raised", name)
        self.op_s.append(time.perf_counter() - t0)
        _feed(self._digest, (name, outputs))
        if not ok:
            self.failed += 1
            self.failures.append(name)

    def same_as_before(self, key, data):
        """True when ``data`` equals what this run stored under ``key`` first."""
        return self.memo.setdefault(key, data) == data

    @property
    def digest(self):
        return self._digest.hexdigest()


def _feed(h, obj):
    if isinstance(obj, (bytes, str)):
        h.update(obj.encode() if isinstance(obj, str) else obj)
    elif isinstance(obj, (bool, int, float, np.floating, np.integer)):
        h.update(struct.pack("<d", float(obj)))
    elif isinstance(obj, np.ndarray):
        h.update(np.ascontiguousarray(obj).tobytes())
    elif isinstance(obj, dict):
        for key in sorted(obj, key=repr):
            _feed(h, repr(key))
            _feed(h, obj[key])
    elif isinstance(obj, (list, tuple)):
        for item in obj:
            _feed(h, item)
    else:
        raise TypeError(f"cannot digest {type(obj).__name__}")


def _rng(seed, workload):
    return np.random.default_rng([int(seed), sorted(WORKLOADS).index(workload)])


def _close(a, b, rel):
    return abs(a - b) <= rel * max(abs(a), abs(b), 1e-300)


def _write(path, text):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
    return path


def _run_cli(p, key, argv, csv_path):
    """Run the CLI in-process; returns (exit code ok and CSV unchanged, rows, bytes)."""
    code = cli.main(argv + ["--out", csv_path])
    with open(csv_path, "rb") as fh:
        data = fh.read()
    lines = [l for l in data.decode().splitlines() if l and not l.startswith("#")]
    header = lines[0].split(",")
    rows = [dict(zip(header, map(float, l.split(",")))) for l in lines[1:]]
    return code == 0 and p.same_as_before(key, data), rows, data


def _budget_closed_form(params, n, gamma=None):
    """First-order budget written out independently of ``timebinsim.budget``."""
    gamma = params.gamma if gamma is None else gamma
    ind = params.gamma / (params.gamma + 2.0 * params.gamma_d)
    b = params.branching
    return {
        "e_ph": n * (1.0 - ind) / 2.0,
        "e_exc": n * math.sqrt(3.0) * math.pi / 8.0 * gamma / params.delta,
        "e_br": (n - 0.5) / (2.0 * (b + 1.0)),
    }


def _stabilizer_closed_form(n, kind, ind):
    """Photon dephasing flips each generator once per photon it holds an X on."""
    if kind is TargetKind.GHZ:
        return [ind**n] + [1.0] * n
    return [ind] * n + [1.0]


# -- scaling ---------------------------------------------------------------


def setup_scaling(seed, workdir):
    rng = _rng(seed, "scaling")
    ind = float(rng.uniform(0.85, 0.99))
    branching = float(rng.uniform(100.0, 200.0))
    photons = ",".join(str(n) for n in range(1, MAX_PHOTONS + 1))
    for kind in KINDS:
        for n in range(1, MAX_PHOTONS + 1):
            tb.ideal_target(n, kind)
    return {
        "ind": ind,
        "maps": {
            kind: tb.build_cycle_map(
                VERTICAL_ONLY,
                tb.CycleOptions(rotation_angle=kind.rotation_angle, indistinguishability=ind),
            )
            for kind in KINDS
        },
        "params": replace(tb.preset("improved"), branching=branching),
        "config": _write(
            os.path.join(workdir, "photon_scaling.cfg"),
            f"preset = improved\nparam.branching = {branching!r}\n"
            f"photons = {photons}\nkind = ghz\nnumeric = true\n",
        ),
        "csv": os.path.join(workdir, "photon_scaling.csv"),
    }


def pass_scaling(inp, p):
    ind = inp["ind"]
    for kind in KINDS:
        for n in range(1, MAX_PHOTONS + 1):

            def oracle(kind=kind, n=n):
                st = tb.run_protocol(inp["maps"][kind], n, kind=kind)
                f = tb.conditional_fidelity(st, tb.ideal_target(n, kind))
                exact = (1.0 + ind**n) / 2.0 if kind is TargetKind.GHZ else ((1.0 + ind) / 2.0) ** n
                ok = abs(f - exact) <= 1e-9
                stab = []
                if n <= STABILIZER_MAX_PHOTONS:
                    stab = tb.stabilizer_expectations(st, kind)
                    expect = _stabilizer_closed_form(n, kind, ind)
                    ok = ok and max(abs(a - b) for a, b in zip(stab, expect)) <= 1e-9
                return ok, (f, stab)

            p.op(f"oracle-{kind.value}-{n}", oracle)

    params = inp["params"]
    fids = {}
    for n in range(1, MAX_PHOTONS + 1):

        def physical(n=n):
            st = tb.run_protocol(params, n)
            f = tb.conditional_fidelity(st, tb.ideal_target(n, TargetKind.GHZ))
            fids[n] = (f, st.success_probability)
            norm = float(np.trace(st.rho).real) + st.orthogonal_error_mass
            ok = abs(norm - 1.0) <= 1e-12 and 0.0 < st.success_probability <= 1.0
            ok = ok and 0.0 < f < (fids[n - 1][0] if n > 1 else 1.0)
            return ok, (f, st.success_probability)

        p.op(f"preset-ghz-{n}", physical)

    def photon_scaling():
        ok, rows, data = _run_cli(
            p, "photon_scaling", ["photon_scaling", "--config", inp["config"]], inp["csv"]
        )
        ok = ok and [int(r["n_photons"]) for r in rows] == list(range(1, MAX_PHOTONS + 1))
        for r in rows:
            n = int(r["n_photons"])
            want = _budget_closed_form(params, n)
            want["total_first_order"] = sum(want.values())
            want["rate_mhz"] = params.eta**n / (n * params.t_cycle) * 1e3
            want["numeric_infidelity"] = 1.0 - fids[n][0]
            want["success_probability"] = fids[n][1]
            ok = ok and all(_close(r[k], v, 1e-9) for k, v in want.items())
        return ok, data

    p.op("cli-photon_scaling", photon_scaling)


# -- noise -----------------------------------------------------------------

NOISE_PHOTONS = 4
NOISE_SAMPLES = 40
DRIFT_SAMPLES = 100


def setup_noise(seed, workdir):
    rng = _rng(seed, "noise")
    params = tb.preset("reference")
    sigmas = sorted(float(s) for s in rng.uniform(0.2, 0.8, size=3))
    t2 = float(rng.uniform(100.0, 300.0))
    tb.ideal_target(NOISE_PHOTONS, TargetKind.GHZ)
    sigma_list = ",".join(repr(s) for s in [0.0] + sigmas)
    return {
        "params": params,
        "sigmas": sigmas,
        "noise_seed": int(rng.integers(2**31)),
        "drift": tb.drift_diffusion_from_t2(t2, params.t_cycle),
        "config": _write(
            os.path.join(workdir, "echo_demo.cfg"),
            f"preset = reference\nsigma_list = {sigma_list}\n"
            f"n_photons = {NOISE_PHOTONS}\nsample_count = {NOISE_SAMPLES}\nkind = ghz\n",
        ),
        "csv": os.path.join(workdir, "echo_demo.csv"),
    }


def pass_noise(inp, p):
    params, n = inp["params"], NOISE_PHOTONS
    target = tb.ideal_target(n, TargetKind.GHZ)
    clean = {}

    def noise_free():
        st = tb.run_protocol(params, n)
        clean["f"] = tb.conditional_fidelity(st, target)
        return 0.0 < clean["f"] < 1.0, clean["f"]

    p.op("noise-free", noise_free)
    f0 = clean.get("f", math.nan)

    for i, sigma in enumerate(inp["sigmas"]):
        for echo in (True, False):

            def average(sigma=sigma, echo=echo, i=i):
                noise = tb.NoiseConfig(
                    overhauser_sigma=sigma,
                    sample_count=NOISE_SAMPLES,
                    rng_seed=inp["noise_seed"] + i,
                )
                out = tb.overhauser_average(
                    params, n, TargetKind.GHZ, noise, options=tb.CycleOptions(echo=echo)
                )
                f = out["mean_fidelity"]
                ok = abs(f - f0) <= 1e-6 if echo else f < f0
                return ok, (f, out["std_error"])

            p.op(f"overhauser-{sigma:.3f}-{'echo' if echo else 'no_echo'}", average)

    def drift():
        noise = tb.NoiseConfig(
            overhauser_sigma=inp["sigmas"][0],
            drift_diffusion=inp["drift"],
            sample_count=DRIFT_SAMPLES,
            rng_seed=inp["noise_seed"] + len(inp["sigmas"]),
        )
        st = tb.run_protocol(params, n, noise=noise)
        rho = st.rho
        norm = float(np.trace(rho).real) + st.orthogonal_error_mass
        ok = abs(norm - 1.0) <= 1e-12
        ok = ok and np.max(np.abs(rho - rho.conj().T)) <= 1e-12
        ok = ok and np.linalg.eigvalsh(rho).min() >= -1e-12
        f = tb.conditional_fidelity(st, target)
        return ok and f < f0, (rho, f)

    p.op("drift-average", drift)

    def echo_demo():
        ok, rows, data = _run_cli(
            p,
            "echo_demo",
            ["echo_demo", "--config", inp["config"], "--seed", str(inp["noise_seed"])],
            inp["csv"],
        )
        ok = ok and len(rows) == 1 + len(inp["sigmas"])
        for r in rows:
            ok = ok and _close(r["fidelity_echo"], f0, 1e-9)
            if r["sigma_overhauser"] > 0.0:
                ok = ok and r["fidelity_no_echo"] < f0
            else:
                ok = ok and _close(r["fidelity_no_echo"], f0, 1e-9)
        return ok, data

    p.op("cli-echo_demo", echo_demo)


# -- design ----------------------------------------------------------------

DELTA_OVER_GAMMA = 100.0
MAP_RESOLUTION = 201
FIXTURE_NG = 20.0


def setup_design(seed, workdir):
    rng = _rng(seed, "design")
    # the optimum scales with 1/gamma at fixed delta/gamma, so a random rate
    # changes the inputs but not the amount of work
    gamma = float(rng.uniform(0.5, 2.0))
    ng_list = sorted(float(v) for v in rng.uniform(20.0, 56.0, size=4))
    return {
        "system": tb.LevelSystem.from_rates(
            gamma=gamma, betas=VERTICAL_ONLY, delta=DELTA_OVER_GAMMA * gamma
        ),
        "mode": tb.synthetic_w1_mode(FIXTURE_NG),
        "ng_list": ng_list,
        "config": _write(
            os.path.join(workdir, "detuning_sweep.cfg"),
            "preset = reference\nn_g_list = "
            + ",".join(repr(v) for v in ng_list)
            + "\nphotons = 1,2,3\n",
        ),
        "csv": os.path.join(workdir, "detuning_sweep.csv"),
    }


def _gamma_closed_form(n_g):
    """Log-log line through the two tabulated (n_g, gamma) points."""
    (n1, g1), (n2, g2) = sorted(DEFAULT_GAMMA_TABLE.items())
    return g1 * (n_g / n1) ** (math.log(g2 / g1) / math.log(n2 / n1))


def pass_design(inp, p):
    def optimize():
        opt = tb.optimize_pulse_duration(inp["system"], shape="square")
        coefficient = opt["error_min"] * DELTA_OVER_GAMMA
        return 0.48 <= coefficient <= 0.88, (opt["duration_opt"], opt["error_min"])

    p.op("optimize-square", optimize)

    def fixture_map():
        xs, ys, b, bt = tb.branching_map(inp["mode"], resolution=MAP_RESOLUTION)
        ci, cj = int(np.argmin(np.abs(xs))), int(np.argmin(np.abs(ys)))
        _, j = np.unravel_index(np.argmax(b), b.shape)
        ok = 45.0 <= b[ci, cj] <= 55.0 and abs(ys[j]) < 1e-12
        ok = ok and bool(np.all((bt >= 0.0) & (bt <= 1.0)))
        return ok, (b, bt)

    p.op("branching-map", fixture_map)

    def detuning_sweep():
        ok, rows, data = _run_cli(
            p, "detuning_sweep", ["detuning_sweep", "--config", inp["config"]], inp["csv"]
        )
        base = tb.preset("reference")
        ok = ok and len(rows) == 16 * 3 * len(inp["ng_list"])
        for r in rows:
            delta = 2.0 * math.pi * r["delta"]
            want = _budget_closed_form(
                replace(base, delta=delta), int(r["n_photons"]), _gamma_closed_form(r["n_g"])
            )
            want["asymptote"] = want["e_ph"] + want["e_br"]
            want["total_first_order"] = want["e_ph"] + want["e_exc"] + want["e_br"]
            ok = ok and _close(r["delta_rad_ns"], delta, 1e-9)
            ok = ok and all(_close(r[k], v, 1e-9) for k, v in want.items())
        return ok, data

    p.op("cli-detuning_sweep", detuning_sweep)


# -- readout ---------------------------------------------------------------

READOUT_PHOTONS = 3
READOUT_SHOTS = 20000
STABILIZER_SHOTS = 10000


def setup_readout(seed, workdir):
    rng = _rng(seed, "readout")
    ind = float(rng.uniform(0.85, 0.95))
    qubits = READOUT_PHOTONS + 1
    tb.ideal_target(READOUT_PHOTONS, TargetKind.GHZ)
    return {
        "ind": ind,
        "shot_seed": int(rng.integers(2**31)),
        "maps": {
            kind: tb.build_cycle_map(
                VERTICAL_ONLY,
                tb.CycleOptions(rotation_angle=kind.rotation_angle, indistinguishability=ind),
            )
            for kind in KINDS
        },
        "settings": [("Z", [BasisSetting.z()] * qubits)]
        + [(s.phase, [s] * qubits) for s in tb.ghz_parity_settings(qubits)],
    }


def pass_readout(inp, p):
    ind, seed, qubits = inp["ind"], inp["shot_seed"], READOUT_PHOTONS + 1

    exact = (1.0 + ind**READOUT_PHOTONS) / 2.0
    ghz = {}

    def ghz_state():
        ghz["state"] = tb.run_protocol(inp["maps"][TargetKind.GHZ], READOUT_PHOTONS)
        f = tb.conditional_fidelity(ghz["state"], tb.ideal_target(READOUT_PHOTONS, TargetKind.GHZ))
        return abs(f - exact) <= 1e-9, f

    p.op("ghz-state", ghz_state)

    # one operation per setting, so that each is timed on its own
    records = {}
    for k, (key, settings) in enumerate(inp["settings"]):

        def sample(k=k, key=key, settings=settings):
            records[key] = measurement.sample_measurements_with_eta(
                ghz["state"], settings, READOUT_SHOTS, seed=seed + k, eta=ETA
            )
            return len(records[key]) == READOUT_SHOTS * qubits, len(records[key])

        p.op(f"sample-{key}", sample)

    def ghz_estimate():
        # an odd photon number puts the protocol's GHZ coherence at phase pi
        est = tb.estimate_ghz_fidelity(records, qubits, target_phase=math.pi)
        records.clear()  # freeing the records is part of the operation
        return abs(est["fidelity"] - exact) < 4.0 * est["std_error"], est

    p.op("ghz-estimator", ghz_estimate)

    def stabilizer_sampling():
        st = tb.run_protocol(
            inp["maps"][TargetKind.CLUSTER], READOUT_PHOTONS, kind=TargetKind.CLUSTER
        )
        est = measurement.sample_stabilizer_expectations(
            st, TargetKind.CLUSTER, shots=STABILIZER_SHOTS, seed=seed + 100, eta=ETA
        )
        exact = _stabilizer_closed_form(READOUT_PHOTONS, TargetKind.CLUSTER, ind)
        # at least 0.9 eta^(n+1) of the shots keep a click on every qubit
        kept = 0.9 * STABILIZER_SHOTS * ETA**qubits
        ok = all(
            abs(e - x) <= 5.0 * math.sqrt(max(1.0 - x * x, 1.0 / kept) / kept)
            for e, x in zip(est, exact)
        )
        return ok, est

    p.op("cluster-stabilizer-sampling", stabilizer_sampling)


WORKLOADS = {
    "scaling": (setup_scaling, pass_scaling),
    "noise": (setup_noise, pass_noise),
    "design": (setup_design, pass_design),
    "readout": (setup_readout, pass_readout),
}
