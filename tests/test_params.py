import math
from dataclasses import fields, replace

import numpy as np
import pytest

from timebinsim.budget import generation_rate, t2_drift_error
from timebinsim.cli import ConfigError, build_config
from timebinsim.cyclemap import CycleOptions
from timebinsim.dynamics import LevelSystem, Pulse, optimize_pulse_duration
from timebinsim.measurement import (
    BasisSetting,
    MeasurementError,
    estimate_ghz_fidelity,
    povm_elements,
    sample_measurements,
)
from timebinsim.params import (
    MU_B_OVER_H_GHZ_PER_T,
    BranchingBetas,
    ParamError,
    PhysicalParams,
    betas_from_branching,
    branching_from_betas,
    gamma_d_for_indistinguishability,
    indistinguishability,
    preset,
    zeeman_detuning,
)
from timebinsim.protocol import NoiseConfig, drift_diffusion_from_t2, run_protocol
from timebinsim.waveguide import (
    ModeFieldError,
    branching_map,
    coupling_at,
    gamma_of_group_index,
    synthetic_w1_mode,
)


def test_indistinguishability_formula():
    assert indistinguishability(3.2, 0.0) == 1.0
    # gamma / (gamma + 2 gamma_d)
    assert indistinguishability(3.2, 0.06) == pytest.approx(3.2 / 3.32)
    assert indistinguishability(5.3, 0.06) == pytest.approx(5.3 / 5.42)


def test_indistinguishability_rejects_bad_rates():
    with pytest.raises(ParamError):
        indistinguishability(0.0, 0.1)
    with pytest.raises(ParamError):
        indistinguishability(1.0, -0.1)


def test_gamma_d_roundtrip():
    for gamma in (1.0, 3.2, 5.3):
        for target in (0.9, 0.96, 0.98, 1.0):
            gd = gamma_d_for_indistinguishability(gamma, target)
            assert indistinguishability(gamma, gd) == pytest.approx(target, abs=1e-14)


def test_zeeman_detuning_value():
    # 2 pi * 0.6 * 13.996 * 2 rad/ns = 2 pi * 16.795 GHz, within 10% of 2 pi * 16
    val = zeeman_detuning(0.6, 2.0)
    assert val == pytest.approx(2.0 * math.pi * 0.6 * MU_B_OVER_H_GHZ_PER_T * 2.0)
    assert abs(val - 2.0 * math.pi * 16.0) / (2.0 * math.pi * 16.0) < 0.10
    assert zeeman_detuning(0.6, 0.0) == 0.0


def test_branching_from_betas():
    betas = BranchingBetas(0.9, 0.06, 0.03, 0.01)
    assert branching_from_betas(betas) == pytest.approx(0.93 / 0.07)
    # zero diagonal weight is fully cycling: B = inf
    cycling = BranchingBetas(0.5, 0.0, 0.5, 0.0)
    assert branching_from_betas(cycling) == math.inf


def test_beta_weights_must_sum_to_one():
    with pytest.raises(ParamError):
        BranchingBetas(0.9, 0.06, 0.03, 0.02)
    with pytest.raises(ParamError):
        BranchingBetas(1.1, -0.1, 0.0, 0.0)


def test_betas_from_branching_roundtrip():
    for b in (1.0, 15.0, 140.0):
        for bt in (1.0, 0.96, 0.5):
            betas = betas_from_branching(b, beta_total=bt)
            assert branching_from_betas(betas) == pytest.approx(b)
            assert betas.beta_par + betas.beta_perp == pytest.approx(bt)


def test_betas_from_branching_fully_cycling():
    betas = betas_from_branching(math.inf, beta_total=0.9)
    assert (betas.beta_par, betas.beta_par_leak) == pytest.approx((0.9, 0.1))
    assert betas.beta_perp == betas.beta_perp_leak == 0.0
    assert branching_from_betas(betas) == math.inf


@pytest.mark.parametrize("branching", [math.nan, -1.0])
def test_betas_from_branching_rejects_bad_branching(branching):
    with pytest.raises(ParamError, match="branching"):
        betas_from_branching(branching)


def test_presets():
    ref = preset("reference")
    assert ref.gamma == 3.2
    assert ref.delta == pytest.approx(2.0 * math.pi * 16.0)
    assert ref.branching == 15.0
    assert indistinguishability(ref.gamma, ref.gamma_d) == pytest.approx(0.96)
    imp = preset("improved")
    assert imp.gamma == 5.3
    assert imp.delta == pytest.approx(2.0 * math.pi * 64.0)
    assert imp.branching == 140.0
    assert indistinguishability(imp.gamma, imp.gamma_d) == pytest.approx(0.98)
    ideal = preset("ideal")
    assert ideal.gamma_d == 0.0
    assert ideal.eta == 1.0
    with pytest.raises(ParamError):
        preset("nope")


def test_physical_params_names_every_bad_field():
    with pytest.raises(ParamError) as err:
        PhysicalParams(
            gamma=-1.0, gamma_d=0.1, delta=10.0, branching=15.0, eta=1.2,
            t_cycle=27.0, t2_star=2.0, t2=2700.0, g_factor=0.6, b_field=2.0, n_g=20.0,
        )
    assert "gamma" in str(err.value)
    assert "eta" in str(err.value)
    p = preset("reference")
    assert PhysicalParams(**{f.name: getattr(p, f.name) for f in fields(p)}) == p


@pytest.mark.parametrize("name, value", [("delta", 0.0), ("t_cycle", math.nan)])
def test_bad_params_fail_where_they_are_built(name, value):
    # before a run divides by delta or halves t_cycle into another field
    with pytest.raises(ParamError, match=rf"\b{name} must"):
        run_protocol(replace(preset("reference"), **{name: value}), 2)


@pytest.mark.parametrize("name", [f.name for f in fields(PhysicalParams)])
def test_physical_params_rejects_nan(name):
    with pytest.raises(ParamError, match=rf"\b{name} must be finite"):
        replace(preset("reference"), **{name: math.nan})


@pytest.mark.parametrize("name", ["echo", "filter_on"])
@pytest.mark.parametrize("value", ["no", 0, 1.0, None])
def test_cycle_options_reject_a_switch_that_is_not_a_bool(name, value):
    # a truthy string once ran with the echo on
    for call in (lambda: CycleOptions(**{name: value}),
                 lambda: replace(CycleOptions(), **{name: value})):
        with pytest.raises(ParamError, match=rf"^{name} must be a bool"):
            call()


@pytest.mark.parametrize("name", ["echo", "filter_on"])
def test_cycle_options_accept_numpy_bools(name):
    for value in (np.bool_(False), np.bool_(True), False):
        assert getattr(CycleOptions(**{name: value}), name) == value


def _bad(*out_of_interval):
    return (math.nan, math.inf, -math.inf, *out_of_interval)


def _frozen_rows(instance, error, out_of_interval):
    """Rows for the real fields of a frozen dataclass, built both by the
    constructor and by ``dataclasses.replace``; maps field -> bad values."""
    cls = type(instance)
    kwargs = {f.name: getattr(instance, f.name) for f in fields(instance)}
    rows = []
    for name, out in out_of_interval.items():
        rows.append((cls.__name__, lambda v, n=name: cls(**{**kwargs, n: v}),
                     name, error, _bad(*out)))
        rows.append((f"replace({cls.__name__})", lambda v, n=name: replace(instance, **{n: v}),
                     name, error, _bad(*out)))
    return rows


_VERTICAL = BranchingBetas(1.0, 0.0, 0.0, 0.0)
_SYSTEM = LevelSystem.from_rates(1.0, _VERTICAL, 30.0)
_MODE = synthetic_w1_mode(20.0, points=5)
_SWEEP_CONFIG = {"scenario": "detuning_sweep", "sweep_name": "delta", "sweep_min": 8.0,
                 "sweep_max": 64.0, "sweep_points": 3}

# One row per public real-valued input: (label, call with the value, field name,
# error class, bad values). NaN and both infinities are bad in every row but
# betas_from_branching's, which admits inf: the fully cycling emitter.
REAL_INPUTS = [
    *_frozen_rows(preset("reference"), ParamError, {
        "gamma": (0.0,), "gamma_d": (-0.1,), "delta": (0.0,), "branching": (-1.0,),
        "eta": (1.5,), "t_cycle": (0.0,), "t2_star": (0.0,), "t2": (-1.0,),
        "g_factor": (0.0,), "b_field": (-1.0,), "n_g": (0.0,),
    }),
    *_frozen_rows(BranchingBetas(0.9, 0.06, 0.03, 0.01), ParamError, {
        "beta_par": (1.5,), "beta_perp": (-0.1,), "beta_par_leak": (1.5,),
        "beta_perp_leak": (-0.1,),
    }),
    ("indistinguishability", lambda v: indistinguishability(v, 0.0), "gamma", ParamError,
     _bad(0.0)),
    ("indistinguishability", lambda v: indistinguishability(1.0, v), "gamma_d", ParamError,
     _bad(-0.1)),
    ("gamma_d_for_indistinguishability", lambda v: gamma_d_for_indistinguishability(v, 0.9),
     "gamma", ParamError, _bad(0.0)),
    ("gamma_d_for_indistinguishability", lambda v: gamma_d_for_indistinguishability(3.2, v),
     "indistinguishability", ParamError, _bad(0.0, 1.5)),
    ("zeeman_detuning", lambda v: zeeman_detuning(v, 2.0), "g_factor", ParamError, _bad(0.0)),
    ("zeeman_detuning", lambda v: zeeman_detuning(0.6, v), "b_field", ParamError, _bad(-1.0)),
    ("betas_from_branching", betas_from_branching, "branching", ParamError,
     (math.nan, -math.inf, -1.0)),
    ("betas_from_branching", lambda v: betas_from_branching(15.0, beta_total=v), "beta_total",
     ParamError, _bad(1.5)),
    ("t2_drift_error", lambda v: t2_drift_error(v, 100.0, 3), "t_cycle", ParamError, _bad(-27.0)),
    ("t2_drift_error", lambda v: t2_drift_error(27.0, v, 3), "t2", ParamError, _bad(0.0)),
    ("t2_drift_error", lambda v: t2_drift_error(27.0, 100.0, 3, v), "c_model", ParamError,
     _bad(-0.5)),
    ("generation_rate", lambda v: generation_rate(v, 27.0, 3), "eta", ParamError, _bad(0.0)),
    ("generation_rate", lambda v: generation_rate(0.8, v, 3), "t_cycle", ParamError,
     _bad(-1.0, 0.0)),
    *_frozen_rows(CycleOptions(), ParamError, {
        "rotation_angle": (), "indistinguishability": (1.5,), "orthogonal_error_prob": (1.0,),
        "off_resonant_prob": (1.0,), "quasistatic_detuning": (), "drift_phase": (),
        "half_cycle_time": (0.0,), "rotation_error_std": (-0.1,),
    }),
    *_frozen_rows(NoiseConfig(0.3), ParamError, {
        "overhauser_sigma": (-0.1,), "drift_diffusion": (-1e-6,),
    }),
    ("drift_diffusion_from_t2", lambda v: drift_diffusion_from_t2(v, 27.0), "t2", ParamError,
     _bad(0.0, -5.0)),
    ("drift_diffusion_from_t2", lambda v: drift_diffusion_from_t2(2700.0, v), "t_cycle",
     ParamError, _bad(0.0)),
    ("drift_diffusion_from_t2", lambda v: drift_diffusion_from_t2(2700.0, 27.0, v), "c_model",
     ParamError, _bad(-1.0)),
    *_frozen_rows(_SYSTEM, ParamError, {
        "ground_splitting": (), "delta": (), "rate_vertical_wg": (-1.0,),
        "rate_vertical_leak": (-1.0,), "rate_diagonal_wg": (-1.0,),
        "rate_diagonal_leak": (-1.0,), "dephasing": (-1.0,),
    }),
    *_frozen_rows(Pulse("square", 0.05), ParamError, {
        "duration": (0.0,), "carrier_detuning": (),
    }),
    ("optimize_pulse_duration", lambda v: optimize_pulse_duration(_SYSTEM, bounds=(v, 1.0)),
     "bounds", ParamError, _bad(-0.1)),
    ("optimize_pulse_duration", lambda v: optimize_pulse_duration(_SYSTEM, bounds=(0.01, v)),
     "bounds", ParamError, _bad(0.0)),
    ("optimize_pulse_duration",
     lambda v: optimize_pulse_duration(LevelSystem.from_rates(1.0, _VERTICAL, v)),
     "delta", ParamError, _bad(0.0)),
    *_frozen_rows(_MODE, ModeFieldError, {"n_g": (0.0,), "a_nm": (0.0,), "norm": (0.0,)}),
    ("coupling_at", lambda v: coupling_at(_MODE, (0.1, 0.2), gamma_bulk=v), "gamma_bulk",
     ParamError, _bad(0.0)),
    ("coupling_at", lambda v: coupling_at(_MODE, (0.1, 0.2), leak_fraction=v), "leak_fraction",
     ParamError, _bad(-0.1)),
    ("branching_map", lambda v: branching_map(_MODE, resolution=3, leak_fraction=v),
     "leak_fraction", ParamError, _bad(-0.1)),
    ("gamma_of_group_index", gamma_of_group_index, "n_g", ParamError, _bad(0.0)),
    *_frozen_rows(BasisSetting.x(0.3), MeasurementError, {"phase": (-0.1, 2.0 * math.pi)}),
    ("povm_elements", lambda v: povm_elements(BasisSetting.z(), v), "eta", MeasurementError,
     _bad(1.5)),
    ("sample_measurements",
     lambda v: sample_measurements(np.eye(2) / 2.0, [BasisSetting.z()], 10, eta=v),
     "eta", MeasurementError, _bad(-0.1)),
    ("estimate_ghz_fidelity", lambda v: estimate_ghz_fidelity({}, 2, target_phase=v),
     "target_phase", MeasurementError, _bad()),
    *(("build_config", lambda v, k=key: build_config({**_SWEEP_CONFIG, k: v}), key, ConfigError,
       _bad()) for key in ("sweep_min", "sweep_max")),
]


@pytest.mark.parametrize(
    "call, name, error, value",
    [
        pytest.param(call, name, error, value, id=f"{label}-{name}={value:g}")
        for label, call, name, error, bad in REAL_INPUTS
        for value in bad
    ],
)
def test_real_inputs_reject_non_finite_and_out_of_interval_values(call, name, error, value):
    # one policy: finite and in an interval, the caller's error class, the field named first
    with pytest.raises(error, match=rf"^{name} must be finite"):
        call(value)
