"""Scenario runner: named sweeps producing figure-ready CSV tables.

Five registered scenarios cover the standard sweeps: first-order infidelity
versus detuning / magnetic field, photon-number scaling with numeric
cross-check, pulse-duration optimization, spin-echo demonstration, and the
spatial branching-ratio map. Every scenario is deterministic given its
configuration and seed; reruns produce byte-identical output files.

Usage: ``timebinsim <scenario> [--config <path>] [--seed <u64>] [--out <path>]``
"""
from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from dataclasses import dataclass, field, fields, replace

import numpy as np

from . import __version__
from .budget import generation_rate, infidelity_first_order
from .cyclemap import CycleOptions
from .dynamics import LevelSystem, optimize_pulse_duration
from .params import (
    BranchingBetas,
    ParamError,
    PhysicalParams,
    _real,
    _whole as _count,
    gamma_d_for_indistinguishability,
    indistinguishability,
    preset,
    zeeman_detuning,
)
from .protocol import (
    NoiseConfig,
    TargetKind,
    conditional_fidelity,
    ideal_target,
    overhauser_average,
    run_protocol,
)
from .waveguide import (
    DEFAULT_GAMMA_TABLE,
    ModeFieldError,
    branching_map,
    gamma_of_group_index,
    load_mode_field,
    synthetic_w1_mode,
)


class ConfigError(ValueError):
    """Malformed scenario configuration."""


@dataclass(frozen=True)
class SweepAxis:
    name: str
    lo: float
    hi: float
    points: int
    scale: str = "linear"

    def __post_init__(self):
        _real(("lo", self.lo, "(-inf, inf)"), ("hi", self.hi, "(-inf, inf)"),
              error=ConfigError)
        if self.lo >= self.hi:
            raise ConfigError(f"sweep_min must be below sweep_max, got [{self.lo}, {self.hi}]")
        _count("sweep_points", self.points, 2, error=ConfigError)
        if self.scale not in ("linear", "log"):
            raise ConfigError(f"sweep_scale must be linear or log, got {self.scale!r}")
        if self.scale == "log" and self.lo <= 0:
            raise ConfigError(f"sweep_min must be > 0 for a log sweep_scale, got {self.lo}")

    def values(self):
        if self.scale == "log":
            return np.geomspace(self.lo, self.hi, self.points)
        return np.linspace(self.lo, self.hi, self.points)


@dataclass
class ScenarioConfig:
    scenario: str
    preset_name: str = "reference"
    overrides: dict = field(default_factory=dict)
    sweep: SweepAxis | None = None
    photons: tuple = (1, 2, 3)
    rng_seed: int = 0
    out: str | None = None
    options: dict = field(default_factory=dict)

    def __post_init__(self):
        _registered(self.scenario)
        for n in self.photons:
            _count("photons", n, 1, error=ConfigError)
        unknown = sorted(set(self.overrides) - {f.name for f in fields(PhysicalParams)})
        if unknown:
            raise ConfigError(f"unknown parameter override(s): param.{', param.'.join(unknown)}")

    def params(self):
        return replace(preset(self.preset_name), **self.overrides)


def _parse_scalar(text):
    text = text.strip()
    low = text.lower()
    if low in ("true", "false"):
        return low == "true"
    for cast in (int, float):
        try:
            return cast(text)
        except ValueError:
            pass
    return text


def _parse_value(text):
    if "," in text:
        return tuple(_parse_scalar(p) for p in text.split(",") if p.strip())
    return _parse_scalar(text)


def _option(lookup, key, cast, *default):
    """``cast(lookup(key, *default))``, with ``lookup`` a mapping's ``get`` or
    ``pop``; a missing or malformed value raises a ConfigError naming the key."""
    try:
        return cast(lookup(key, *default))
    except KeyError:
        raise ConfigError(f"missing key {key}") from None
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{key}: {exc}") from None


def _flag(value):
    """Cast for a true/false value: only a parsed bool passes."""
    if not isinstance(value, bool):
        raise ValueError(f"expected true or false, got {value!r}")
    return value


def _whole(value):
    """Cast for a whole-number value: only a parsed int (not a bool) passes."""
    if type(value) is not int:
        raise ValueError(f"expected a whole number, got {value!r}")
    return value


def _tuple_of(cast):
    """Cast for a scalar or non-empty comma-list value: a tuple of ``cast`` items."""

    def to_tuple(value):
        if value == ():
            raise ValueError("empty list")
        return tuple(cast(v) for v in (value if isinstance(value, tuple) else (value,)))

    return to_tuple


def parse_config(path, scenario=None):
    """Read a scenario configuration from ``key = value`` lines.

    Text after ``#`` and blank lines are ignored; a line without ``=`` or a
    repeated key raises ConfigError prefixed with ``path:lineno``. Besides
    ``scenario``, ``seed`` and ``out``, only the keys the scenario reads are
    accepted (its ``SCENARIOS`` entry): from ``preset``, ``param.<field>``
    overrides, ``photons`` (comma list), ``sweep_name``/``sweep_min``/
    ``sweep_max``/``sweep_points``/``sweep_scale``, and the scenario's own
    options.
    """
    raw, first_line = {}, {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, text in enumerate(fh, start=1):
            line = text.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {text!r}")
            key, _, val = (part.strip() for part in line.partition("="))
            if key in first_line:
                raise ConfigError(
                    f"{path}:{lineno}: duplicate key {key!r} "
                    f"(first set on line {first_line[key]})"
                )
            first_line[key] = lineno
            raw[key] = _parse_value(val)
    return build_config(raw, scenario=scenario)


def build_config(raw, scenario=None):
    """Assemble a ScenarioConfig from a flat key-value mapping."""
    raw = dict(raw)
    name = raw.pop("scenario", scenario)
    if scenario is not None and name != scenario:
        raise ConfigError(
            f"config names scenario {name!r} but {scenario!r} was requested"
        )
    if name is None:
        raise ConfigError("no scenario given")
    reads = _registered(name)[1] | {"seed", "out"}
    unknown = sorted(k for k in raw if ("param.*" if k.startswith("param.") else k) not in reads)
    if unknown:
        raise ConfigError(f"unknown key(s) for scenario {name}: {', '.join(unknown)}")
    sweep = None
    if _SWEEP & raw.keys():
        axis = _option(raw.pop, "sweep_name", str)
        lo, hi = (_option(raw.pop, key, float) for key in ("sweep_min", "sweep_max"))
        # checked before SweepAxis checks lo and hi, so the error names the config's keys
        _real(("sweep_min", lo, "(-inf, inf)"), ("sweep_max", hi, "(-inf, inf)"),
              error=ConfigError)
        sweep = SweepAxis(
            name=axis,
            lo=lo,
            hi=hi,
            points=_option(raw.pop, "sweep_points", _whole),
            scale=_option(raw.pop, "sweep_scale", str, "linear"),
        )
    photons = _option(raw.pop, "photons", _tuple_of(_whole), (1, 2, 3))
    overrides = {}
    for key in [k for k in raw if k.startswith("param.")]:
        overrides[key[len("param."):]] = _option(raw.pop, key, float)
    return ScenarioConfig(
        scenario=str(name),
        preset_name=str(raw.pop("preset", "reference")),
        overrides=overrides,
        sweep=sweep,
        photons=photons,
        rng_seed=_option(raw.pop, "seed", _whole, 0),
        out=raw.pop("out", None),
        options=raw,
    )


def _with_indistinguishability(params, gamma):
    """Change gamma while keeping the preset's photon indistinguishability."""
    ind = indistinguishability(params.gamma, params.gamma_d)
    return replace(
        params, gamma=gamma, gamma_d=gamma_d_for_indistinguishability(gamma, ind)
    )


def scenario_detuning_sweep(config):
    """First-order budget versus detuning or magnetic field, per group index.

    The sweep axis is ``delta`` (GHz, converted to rad/ns) or ``b_field``
    (Tesla, converted through the Zeeman splitting). One row per
    (n_g, sweep point, photon number); the asymptote column is the
    infinite-detuning limit e_ph + e_br.
    """
    base = config.params()
    sweep = config.sweep or SweepAxis(name="delta", lo=4.0, hi=64.0, points=16)
    if sweep.name not in ("delta", "b_field"):
        raise ConfigError(f"sweep_name must be delta or b_field, got {sweep.name!r}")
    ng_list = _option(config.options.get, "n_g_list", _tuple_of(float), (base.n_g,))
    rows = []
    for n_g in ng_list:
        gamma = gamma_of_group_index(n_g)
        if gamma.extrapolated:
            raise ConfigError(
                f"n_g_list entry {n_g} is outside the gamma(n_g) table range "
                f"[{min(DEFAULT_GAMMA_TABLE)}, {max(DEFAULT_GAMMA_TABLE)}]"
            )
        p_ng = _with_indistinguishability(replace(base, n_g=n_g), gamma.value)
        for value in sweep.values():
            if sweep.name == "delta":
                delta = 2.0 * math.pi * float(value)
            else:
                delta = zeeman_detuning(base.g_factor, float(value))
            p = replace(p_ng, delta=delta, b_field=float(value) if sweep.name == "b_field" else base.b_field)
            for n in config.photons:
                b = infidelity_first_order(p, n)
                rows.append({
                    "n_g": n_g,
                    sweep.name: float(value),
                    "delta_rad_ns": delta,
                    "n_photons": n,
                    "e_ph": b.e_ph,
                    "e_exc": b.e_exc,
                    "e_br": b.e_br,
                    "total_first_order": b.total,
                    "asymptote": b.e_ph + b.e_br,
                })
    return rows


def scenario_photon_scaling(config):
    """First-order budget, numeric conditional infidelity and rate versus N."""
    p = config.params()
    kind = _option(config.options.get, "kind", TargetKind, "ghz")
    numeric = _option(config.options.get, "numeric", _flag, True)
    rows = []
    for n in config.photons:
        b = infidelity_first_order(p, n)
        row = {
            "n_photons": n,
            "e_ph": b.e_ph,
            "e_exc": b.e_exc,
            "e_br": b.e_br,
            "total_first_order": b.total,
            "rate_mhz": generation_rate(p.eta, p.t_cycle, n) * 1e3,
        }
        if numeric:
            state = run_protocol(p, n, kind=kind)
            fid = conditional_fidelity(state, ideal_target(n, kind))
            row["numeric_infidelity"] = 1.0 - fid
            row["success_probability"] = state.success_probability
        rows.append(row)
    return rows


def scenario_pulse_optimization(config):
    """Optimized per-pulse excitation error across detuning-to-rate ratios."""
    ratios = _option(
        config.options.get, "delta_over_gamma", _tuple_of(float), (30.0, 100.0, 300.0)
    )
    shape = _option(config.options.get, "shape", str, "square")
    betas = BranchingBetas(beta_par=1.0, beta_perp=0.0, beta_par_leak=0.0, beta_perp_leak=0.0)
    rows = []
    for r in ratios:
        system = LevelSystem.from_rates(gamma=1.0, betas=betas, delta=r)
        opt = optimize_pulse_duration(system, shape=shape)
        rows.append({
            "delta_over_gamma": r,
            "duration_opt": opt["duration_opt"],
            "error_min": opt["error_min"],
            "coefficient": opt["error_min"] * r,
        })
    return rows


def scenario_echo_demo(config):
    """Conditional fidelity with and without the built-in spin echo.

    Sweeps the quasi-static Overhauser broadening; the echo column stays at
    the noise-free value while the no-echo column decays.
    """
    p = config.params()
    sigmas = _option(
        config.options.get, "sigma_list", _tuple_of(float), (0.0, 0.25, 0.5, 0.7071067811865476)
    )
    n = _option(config.options.get, "n_photons", _whole, 1)
    samples = _option(config.options.get, "sample_count", _whole, 40)
    kind = _option(config.options.get, "kind", TargetKind, "ghz")
    target = ideal_target(n, kind)
    rows = []
    for i, s in enumerate(sigmas):
        fids = {}
        for echo in (True, False):
            opts = CycleOptions(echo=echo)
            if s == 0.0:
                state = run_protocol(p, n, kind=kind, options=opts)
                fids[echo] = conditional_fidelity(state, target)
            else:
                noise = NoiseConfig(
                    overhauser_sigma=s,
                    sample_count=samples,
                    rng_seed=config.rng_seed + i,
                )
                fids[echo] = overhauser_average(p, n, kind, noise, options=opts)[
                    "mean_fidelity"
                ]
        rows.append({
            "sigma_overhauser": s,
            "fidelity_echo": fids[True],
            "fidelity_no_echo": fids[False],
        })
    return rows


def scenario_branching_map(config):
    """Spatial branching-ratio map with per-point single-photon infidelity."""
    source = config.options.get("mode_source", "fixture")
    if source == "fixture":
        mode = synthetic_w1_mode(_option(config.options.get, "n_g", float, 20.0))
    else:
        mode = load_mode_field(source)
    resolution = _option(config.options.get, "resolution", _whole, 21)
    leak = _option(config.options.get, "leak_fraction", float, 0.1)
    xs, ys, b, bt = branching_map(mode, resolution=resolution, leak_fraction=leak)
    rows = []
    for i, px in enumerate(xs):
        for j, py in enumerate(ys):
            rows.append({
                "x": float(px),
                "y": float(py),
                "B": float(b[i, j]),
                "beta_total": float(bt[i, j]),
                "branching_infidelity": 1.0 / (4.0 * (b[i, j] + 1.0)),
            })
    return rows


_PARAMS = {"preset", "param.*"}
_SWEEP = {"sweep_name", "sweep_min", "sweep_max", "sweep_points", "sweep_scale"}

# name -> (runner, every config key it reads; "param.*" stands for all overrides)
SCENARIOS = {
    "detuning_sweep": (scenario_detuning_sweep, _PARAMS | _SWEEP | {"photons", "n_g_list"}),
    "photon_scaling": (scenario_photon_scaling, _PARAMS | {"photons", "kind", "numeric"}),
    "pulse_optimization": (scenario_pulse_optimization, {"delta_over_gamma", "shape"}),
    "echo_demo": (
        scenario_echo_demo,
        _PARAMS | {"sigma_list", "n_photons", "sample_count", "kind"},
    ),
    "branching_map": (
        scenario_branching_map, {"mode_source", "n_g", "resolution", "leak_fraction"}
    ),
}


def _registered(name):
    """The SCENARIOS entry of ``name``; an unregistered name raises a ConfigError."""
    try:
        return SCENARIOS[name]
    except KeyError:
        raise ConfigError(f"unknown scenario {name!r}; registered: {sorted(SCENARIOS)}") from None


def run_scenario(config):
    """Run a scenario; returns its rows, dicts keyed by column in column order."""
    return SCENARIOS[config.scenario][0](config)


def _fmt(value):
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        return f"{value:.12g}"
    return str(value)


def _config_echo(config):
    return {
        "scenario": config.scenario,
        "preset": config.preset_name,
        "overrides": dict(config.overrides),
        "sweep": None
        if config.sweep is None
        else {
            "name": config.sweep.name,
            "min": config.sweep.lo,
            "max": config.sweep.hi,
            "points": config.sweep.points,
            "scale": config.sweep.scale,
        },
        "photons": list(config.photons),
        "seed": config.rng_seed,
        "options": {k: list(v) if isinstance(v, tuple) else v for k, v in config.options.items()},
    }


def write_result(rows, config, path):
    """Write a scenario's rows as CSV with a self-describing metadata header.

    The columns are the first row's keys, in order. A JSON manifest with
    the same content is written alongside at ``<path>.manifest.json``.
    Output carries no timestamps so reruns are byte-identical.
    """
    columns = list(rows[0])
    echo = _config_echo(config)
    meta = json.dumps(echo, sort_keys=True, separators=(",", ":"))
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(f"# scenario={config.scenario} seed={config.rng_seed} version={__version__}\n")
        fh.write(f"# config={meta}\n")
        fh.write(",".join(columns) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(row[c]) for c in columns) + "\n")
    manifest = {
        "version": __version__,
        "config": echo,
        "columns": columns,
        "n_rows": len(rows),
        "csv": str(path),
    }
    with open(f"{path}.manifest.json", "w", encoding="utf-8", newline="\n") as fh:
        json.dump(manifest, fh, sort_keys=True, indent=2)
        fh.write("\n")


@functools.cache
def _parser():
    """The argument parser, built on the first ``main`` call and kept for the process."""
    parser = argparse.ArgumentParser(
        prog="timebinsim",
        description="Scenario runner for the time-bin entanglement simulator.",
    )
    sub = parser.add_subparsers(dest="scenario", required=True)
    for name, (func, _) in sorted(SCENARIOS.items()):
        sp = sub.add_parser(name, help=(func.__doc__ or "").strip().splitlines()[0])
        sp.add_argument("--config", help="key = value configuration file")
        sp.add_argument("--seed", type=int, help="override the rng seed")
        sp.add_argument("--out", help="output CSV path")
    return parser


def main(argv=None):
    args = _parser().parse_args(argv)
    try:
        if args.config:
            config = parse_config(args.config, scenario=args.scenario)
        else:
            config = build_config({}, scenario=args.scenario)
        if args.seed is not None:
            config.rng_seed = args.seed
        if args.out is not None:
            config.out = args.out
        if config.out is None:
            config.out = f"{config.scenario}.csv"
        rows = run_scenario(config)
        write_result(rows, config, config.out)
    except (ConfigError, ParamError, ModeFieldError, OSError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    print(f"{config.scenario}: {len(rows)} rows -> {config.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
