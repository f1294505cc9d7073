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


# A cast takes (key, value) and returns the value the runners read, or raises a
# ConfigError that names the key.


def _instance(kind, what):
    """Cast for a value of type ``kind``, described as ``what``."""

    def cast(key, value):
        if not isinstance(value, kind):
            raise ConfigError(f"{key} must be {what}, got {value!r}")
        return value

    return cast


_text, _flag = _instance(str, "text"), _instance(bool, "true or false")


def _real_in(interval=None):
    """Cast for a number, as a float; finite and in ``interval`` if one is given."""

    def cast(key, value):
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ConfigError(f"{key} must be a number, got {value!r}")
        if interval:
            _real((key, value, interval), error=ConfigError)
        return float(value)

    return cast


def _whole_from(least):
    """Cast for a whole number (not a bool) of at least ``least``."""
    return lambda key, value: _count(key, value, least, error=ConfigError)


def _one_of(*choices):
    """Cast for text naming one of ``choices``; an Enum member is named by its value."""
    names = [getattr(c, "value", c) for c in choices]

    def cast(key, value):
        if _text(key, value) not in names:
            raise ConfigError(f"{key} must be one of {', '.join(names)}, got {value!r}")
        return choices[names.index(value)]

    return cast


def _list_of(cast):
    """Cast for a scalar or a non-empty comma list: a tuple of ``cast`` items."""

    def to_tuple(key, value):
        items = value if isinstance(value, (tuple, list)) else (value,)
        if not items:
            raise ConfigError(f"{key} must list at least one value")
        return tuple(cast(key, v) for v in items)

    return to_tuple


def _group_index(key, value):
    """Cast for a group index inside the gamma(n_g) table, as a float."""
    n_g = _real_in("(0, inf)")(key, value)
    if gamma_of_group_index(n_g).extrapolated:
        raise ConfigError(
            f"{key} entry {n_g} is outside the gamma(n_g) table range "
            f"[{min(DEFAULT_GAMMA_TABLE)}, {max(DEFAULT_GAMMA_TABLE)}]"
        )
    return n_g


def _overrides(key, value):
    """Cast for the ``param.<field>`` overrides as one dict; PhysicalParams bounds them."""
    unknown = sorted(set(value) - {f.name for f in fields(PhysicalParams)})
    if unknown:
        raise ConfigError(f"unknown parameter override(s): param.{', param.'.join(unknown)}")
    return {name: _real_in()(f"param.{name}", v) for name, v in value.items()}


# Table fragments, key -> (cast, default), shared by the SCENARIOS tables. A
# default is written as the runners read it and is not cast; a callable default
# is computed from the keys before it and cast like a given value.
_PHYSICS = {"preset": (_text, "reference"), "param.*": (_overrides, {})}
_PHOTONS = {"photons": (_list_of(_whole_from(1)), (1, 2, 3))}
_KIND = {"kind": (_one_of(*TargetKind), TargetKind.GHZ)}
# in SweepAxis field order
_SWEEP = {
    "sweep_name": (_one_of("delta", "b_field"), "delta"),
    "sweep_min": (_real_in("(-inf, inf)"), 4.0),
    "sweep_max": (_real_in("(-inf, inf)"), 64.0),
    "sweep_points": (_whole_from(2), 16),
    "sweep_scale": (_one_of("linear", "log"), "linear"),
}


@dataclass(frozen=True)
class SweepAxis:
    name: str
    lo: float
    hi: float
    points: int
    scale: str = _SWEEP["sweep_scale"][1]

    def __post_init__(self):
        # each field through its key's cast, under the name SweepAxis gives it
        names = ("sweep_name", "lo", "hi", "sweep_points", "sweep_scale")
        for name, (cast, _), value in zip(names, _SWEEP.values(), vars(self).values()):
            cast(name, value)
        if self.lo >= self.hi:
            raise ConfigError(f"sweep_min must be below sweep_max, got [{self.lo}, {self.hi}]")
        if self.scale == "log" and self.lo <= 0:
            raise ConfigError(f"sweep_min must be > 0 for a log sweep_scale, got {self.lo}")

    def values(self):
        return (np.geomspace if self.scale == "log" else np.linspace)(self.lo, self.hi, self.points)


@dataclass
class ScenarioConfig:
    """A scenario's configuration as given, checked on construction by ``_resolve``;
    ``photons`` and ``overrides`` keep their cast values. ``options`` holds the
    scenario's own keys. Change a config with ``dataclasses.replace``."""

    scenario: str
    preset_name: str = _PHYSICS["preset"][1]
    overrides: dict = field(default_factory=dict)
    sweep: SweepAxis | None = None
    photons: tuple = _PHOTONS["photons"][1]
    rng_seed: int = 0
    out: str | None = None
    options: dict = field(default_factory=dict)

    def __post_init__(self):
        opts = _resolve(self)
        self.photons = opts.get("photons", self.photons)
        self.overrides = opts.get("param.*", self.overrides)

    def params(self):
        return _physics({"preset": self.preset_name, "param.*": self.overrides})


def _parse_value(text):
    """A comma list as a tuple; true or false as a bool; else an int, a float or the text."""
    if "," in text:
        return tuple(_parse_value(p) for p in text.split(",") if p.strip())
    text = text.strip()
    if text.lower() in ("true", "false"):
        return text.lower() == "true"
    for cast in (int, float):
        try:
            return cast(text)
        except ValueError:
            pass
    return text


def parse_config(path, scenario=None):
    """Read a scenario configuration from ``key = value`` lines.

    Text after ``#`` and blank lines are ignored; a line without ``=`` or a
    repeated key raises ConfigError prefixed with ``path:lineno``. Besides
    ``scenario``, ``seed`` and ``out``, only the keys of the scenario's
    ``SCENARIOS`` table are accepted.
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
        raise ConfigError(f"config names scenario {name!r} but {scenario!r} was requested")
    if name is None:
        raise ConfigError("no scenario given")
    _refuse_unknown(name, raw)
    sweep = None
    if _SWEEP.keys() & raw.keys():
        # a given sweep names its axis, bounds and points; only its scale has a default
        missing = [key for key in list(_SWEEP)[:-1] if key not in raw]
        if missing:
            raise ConfigError(f"missing key(s) {', '.join(missing)}")
        sweep = SweepAxis(*(cast(key, raw.pop(key)) for key, (cast, _) in _SWEEP.items()
                            if key in raw))
    overrides = {key[len("param."):]: raw.pop(key) for key in list(raw) if key.startswith("param.")}
    held = {"preset": "preset_name", "photons": "photons", "seed": "rng_seed", "out": "out"}
    held = {attr: raw.pop(key) for key, attr in held.items() if key in raw}
    return ScenarioConfig(str(name), overrides=overrides, sweep=sweep, options=raw, **held)


def _physics(opts):
    """The preset's PhysicalParams with the overrides; PhysicalParams checks their bounds."""
    return replace(preset(opts["preset"]), **opts["param.*"])


def _with_indistinguishability(params, gamma):
    """Change gamma while keeping the preset's photon indistinguishability."""
    ind = indistinguishability(params.gamma, params.gamma_d)
    return replace(params, gamma=gamma, gamma_d=gamma_d_for_indistinguishability(gamma, ind))


def scenario_detuning_sweep(opts):
    """First-order budget versus detuning or magnetic field, per group index.

    The sweep axis is ``delta`` (GHz, converted to rad/ns) or ``b_field``
    (Tesla, converted through the Zeeman splitting). One row per
    (n_g, sweep point, photon number); the asymptote column is the
    infinite-detuning limit e_ph + e_br. Each (n_g, photon number) takes the
    budget of the whole axis as one array.
    """
    base = _physics(opts)
    sweep = SweepAxis(*(opts[key] for key in _SWEEP))
    values = sweep.values()
    rows = []
    with np.errstate(over="ignore"):  # an overflow gives inf without a warning, as in Python floats
        for i, n_g in enumerate(opts["n_g_list"]):
            p_ng = _with_indistinguishability(replace(base, n_g=n_g), gamma_of_group_index(n_g).value)
            if i == 0:  # after the first group's params, where a loop over points meets the axis
                deltas = _sweep_detunings(p_ng, sweep.name, values)
            budgets = [infidelity_first_order(p_ng, n, deltas) for n in opts["photons"]]
            points = [(b.e_exc.tolist(), b.total.tolist()) for b in budgets]
            for j, (value, delta) in enumerate(zip(values.tolist(), deltas.tolist())):
                rows += ({"n_g": n_g, sweep.name: value, "delta_rad_ns": delta, "n_photons": n,
                          "e_ph": b.e_ph, "e_exc": e_exc[j], "e_br": b.e_br,
                          "total_first_order": total[j], "asymptote": b.e_ph + b.e_br}
                         for n, b, (e_exc, total) in zip(opts["photons"], budgets, points))
    return rows


def _sweep_detunings(params, name, values):
    """The detuning of every point of an ascending ``name`` axis, refused as PhysicalParams
    would refuse its first bad point: a too-low point is the first, an overflow the last."""
    if name == "delta":
        deltas = 2.0 * math.pi * values
    else:
        deltas = np.array([zeeman_detuning(params.g_factor, b) for b in values.tolist()])
    for k in (0, -1):
        b_field = float(values[k]) if name == "b_field" else params.b_field
        replace(params, delta=float(deltas[k]), b_field=b_field)
    return deltas


def scenario_photon_scaling(opts):
    """First-order budget, numeric conditional infidelity and rate versus N."""
    p = _physics(opts)
    kind, numeric = opts["kind"], opts["numeric"]
    rows = []
    for n in opts["photons"]:
        b = infidelity_first_order(p, n)
        row = {
            "n_photons": n, "e_ph": b.e_ph, "e_exc": b.e_exc, "e_br": b.e_br,
            "total_first_order": b.total, "rate_mhz": generation_rate(p.eta, p.t_cycle, n) * 1e3,
        }
        if numeric:
            state = run_protocol(p, n, kind=kind)
            row["numeric_infidelity"] = 1.0 - conditional_fidelity(state, ideal_target(n, kind))
            row["success_probability"] = state.success_probability
        rows.append(row)
    return rows


def scenario_pulse_optimization(opts):
    """Optimized per-pulse excitation error across detuning-to-rate ratios."""
    betas = BranchingBetas(beta_par=1.0, beta_perp=0.0, beta_par_leak=0.0, beta_perp_leak=0.0)
    rows = []
    for r in opts["delta_over_gamma"]:
        system = LevelSystem.from_rates(gamma=1.0, betas=betas, delta=r)
        opt = optimize_pulse_duration(system, shape=opts["shape"])
        rows.append({
            "delta_over_gamma": r, "duration_opt": opt["duration_opt"],
            "error_min": opt["error_min"], "coefficient": opt["error_min"] * r,
        })
    return rows


def scenario_echo_demo(opts):
    """Conditional fidelity with and without the built-in spin echo.

    Sweeps the quasi-static Overhauser broadening; the echo column stays at
    the noise-free value while the no-echo column decays. Every row is an
    ``overhauser_average``; a sigma of 0 draws nothing and gives the
    noise-free fidelity.
    """
    p = _physics(opts)
    n, samples, kind, seed = (opts[key] for key in ("n_photons", "sample_count", "kind", "seed"))

    def fidelity(i, s, echo):
        cycle = CycleOptions(echo=echo)
        noise = NoiseConfig(overhauser_sigma=s, sample_count=samples, rng_seed=seed + i)
        return overhauser_average(p, n, kind, noise, options=cycle)["mean_fidelity"]

    return [
        {"sigma_overhauser": s, "fidelity_echo": fidelity(i, s, True),
         "fidelity_no_echo": fidelity(i, s, False)}
        for i, s in enumerate(opts["sigma_list"])
    ]


def scenario_branching_map(opts):
    """Spatial branching-ratio map with per-point single-photon infidelity."""
    source, n_g = opts["mode_source"], opts["n_g"]
    mode = synthetic_w1_mode(n_g) if source == "fixture" else load_mode_field(source)
    xs, ys, b, bt = branching_map(mode, opts["resolution"], opts["leak_fraction"])
    return [
        {"x": float(px), "y": float(py), "B": float(b[i, j]), "beta_total": float(bt[i, j]),
         "branching_infidelity": 1.0 / (4.0 * (b[i, j] + 1.0))}
        for i, px in enumerate(xs) for j, py in enumerate(ys)
    ]


# name -> (runner, key -> (cast, default) for each key it reads besides seed;
# "param.*" stands for every param.<field> override)
SCENARIOS = {
    "detuning_sweep": (scenario_detuning_sweep, _PHYSICS | _SWEEP | _PHOTONS | {
        "n_g_list": (_list_of(_group_index), lambda opts: (_physics(opts).n_g,)),
    }),
    "photon_scaling": (scenario_photon_scaling, _PHYSICS | _PHOTONS | _KIND | {
        "numeric": (_flag, True),
    }),
    "pulse_optimization": (scenario_pulse_optimization, {
        "delta_over_gamma": (_list_of(_real_in("(0, inf)")), (30.0, 100.0, 300.0)),
        "shape": (_one_of("square", "gaussian"), "square"),
    }),
    "echo_demo": (scenario_echo_demo, _PHYSICS | _KIND | {
        "sigma_list": (_list_of(_real_in("[0, inf)")), (0.0, 0.25, 0.5, 0.7071067811865476)),
        "n_photons": (_whole_from(1), 1),
        "sample_count": (_whole_from(1), 40),
    }),
    "branching_map": (scenario_branching_map, {
        "mode_source": (_text, "fixture"),  # or the path of a mode file
        "n_g": (_real_in("(0, inf)"), 20.0),  # the fixture's; a mode file carries its own
        "resolution": (_whole_from(2), 21),
        "leak_fraction": (_real_in("[0, inf)"), 0.1),
    }),
}


def _refuse_unknown(name, keys):
    """Refuse an unregistered scenario ``name``, and any key outside its table, seed and out."""
    if name not in SCENARIOS:
        raise ConfigError(f"unknown scenario {name!r}; registered: {sorted(SCENARIOS)}")
    accepted = SCENARIOS[name][1].keys() | {"seed", "out"}
    unknown = [k for k in keys if ("param.*" if k.startswith("param.") else k) not in accepted]
    if unknown:
        raise ConfigError(f"unknown key(s) for scenario {name}: {', '.join(sorted(unknown))}")


def _resolve(config):
    """What the runner reads: each key of the scenario's table, cast and checked,
    or its default if not given; and ``seed``. ``out`` must be text, the overrides
    fit PhysicalParams, and ``n_g`` is refused with a mode file."""
    given = dict(config.options, **{f"param.{k}": v for k, v in config.overrides.items()})
    if config.sweep is not None:
        given.update(zip(_SWEEP, vars(config.sweep).values()))
    _refuse_unknown(config.scenario, given)
    given.update({"preset": config.preset_name, "photons": config.photons,
                  "param.*": config.overrides})
    opts = {}
    for key, (cast, default) in SCENARIOS[config.scenario][1].items():
        if key in given:
            opts[key] = cast(key, given[key])
        else:
            opts[key] = cast(key, default(opts)) if callable(default) else default
    opts["seed"] = _whole_from(0)("seed", config.rng_seed)
    if config.out is not None:
        _text("out", config.out)
    if "preset" in opts:
        _physics(opts)
    if "n_g" in given and opts["mode_source"] != "fixture":
        raise ConfigError("n_g sets the fixture's group index; a mode file carries its own")
    return opts


def run_scenario(config):
    """Run a scenario; returns its rows, dicts keyed by column in column order."""
    return SCENARIOS[config.scenario][0](_resolve(config))


def _fmt(*values):
    """``values`` as CSV text, comma-separated, in one %-format call: a float (numpy's too) as
    ``f"{v:.12g}"``, a bool as true or false and anything else as ``str(v)``."""
    types = tuple(map(type, values))
    if bool in types:
        values = tuple(("true" if v else "false") if type(v) is bool else v for v in values)
    return _template(types) % values


@functools.cache
def _template(types):
    """The %-template of ``_fmt`` for values of ``types``."""
    return ",".join("%.12g" if issubclass(t, float) else "%s" for t in types)


def _config_echo(config):
    return {
        "scenario": config.scenario,
        "preset": config.preset_name,
        "overrides": dict(config.overrides),
        "sweep": None if config.sweep is None else dict(
            zip(("name", "min", "max", "points", "scale"), vars(config.sweep).values())),
        "photons": list(config.photons),
        "seed": config.rng_seed,
        "options": {k: list(v) if isinstance(v, tuple) else v for k, v in config.options.items()},
    }


def write_result(rows, config, path):
    """Write a scenario's rows as CSV with a self-describing metadata header.

    The columns are the first row's keys, in order. A JSON manifest with
    the same content is written alongside at ``<path>.manifest.json``; its
    ``resolved`` entry adds the options the run read, defaults included.
    Output carries no timestamps so reruns are byte-identical.
    """
    columns = list(rows[0])
    echo = _config_echo(config)
    meta = json.dumps(echo, sort_keys=True, separators=(",", ":"))
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(f"# scenario={config.scenario} seed={config.rng_seed} version={__version__}\n")
        fh.write(f"# config={meta}\n")
        fh.write(",".join(columns) + "\n")
        fh.write("".join(_fmt(*map(row.__getitem__, columns)) + "\n" for row in rows))
    manifest = {
        "version": __version__,
        "config": echo,
        "columns": columns,
        "n_rows": len(rows),
        "csv": str(path),
        "resolved": _resolve(config),
    }
    with open(f"{path}.manifest.json", "w", encoding="utf-8", newline="\n") as fh:
        # an Enum option (kind) is written as its value
        json.dump(manifest, fh, sort_keys=True, indent=2, default=lambda v: v.value)
        fh.write("\n")


@functools.cache
def _parser():
    """The argument parser, built on the first ``main`` call and kept for the process."""
    parser = argparse.ArgumentParser(
        prog="timebinsim", description="Scenario runner for the time-bin entanglement simulator."
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
        config = (parse_config(args.config, scenario=args.scenario) if args.config
                  else build_config({}, scenario=args.scenario))
        if args.seed is not None:
            config = replace(config, rng_seed=args.seed)  # checked as a config's seed is
        out = next(v for v in (args.out, config.out, f"{config.scenario}.csv") if v is not None)
        rows = run_scenario(config)
        write_result(rows, config, out)
    except (ConfigError, ParamError, ModeFieldError, OSError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    print(f"{config.scenario}: {len(rows)} rows -> {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
