import math
from dataclasses import fields, replace

import pytest

from timebinsim.params import (
    MU_B_OVER_H_GHZ_PER_T,
    BranchingBetas,
    ParamError,
    PhysicalParams,
    betas_from_branching,
    branching_from_betas,
    gamma_d_for_indistinguishability,
    indistinguishability,
    load_params,
    preset,
    validate_params,
    zeeman_detuning,
)
from timebinsim.protocol import run_protocol


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


def test_validate_params_names_fields():
    with pytest.raises(ParamError) as err:
        PhysicalParams(
            gamma=-1.0, gamma_d=0.1, delta=10.0, branching=15.0, eta=1.2,
            t_cycle=27.0, t2_star=2.0, t2=2700.0, g_factor=0.6, b_field=2.0, n_g=20.0,
        )
    assert "gamma" in str(err.value)
    assert "eta" in str(err.value)
    p = preset("reference")
    assert validate_params(p) is p


@pytest.mark.parametrize("name, value", [("delta", 0.0), ("t_cycle", math.nan)])
def test_bad_params_fail_where_they_are_built(name, value):
    # before a run divides by delta or halves t_cycle into another field
    with pytest.raises(ParamError, match=rf"\b{name} must"):
        run_protocol(replace(preset("reference"), **{name: value}), 2)


@pytest.mark.parametrize("name", [f.name for f in fields(PhysicalParams)])
def test_validate_params_rejects_nan(name):
    with pytest.raises(ParamError, match=rf"\b{name} must be finite"):
        validate_params(replace(preset("reference"), **{name: math.nan}))


def test_load_params(tmp_path):
    cfg = tmp_path / "params.txt"
    cfg.write_text("preset = improved\ngamma = 4.0  # override\n\nb_field = 1.5\n")
    p = load_params(cfg)
    assert p.gamma == 4.0
    assert p.b_field == 1.5
    assert p.branching == 140.0  # from the improved preset


def test_load_params_errors(tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_text("gamma : 4\n")
    with pytest.raises(ParamError):
        load_params(bad)
    bad.write_text("unknown_key = 4\n")
    with pytest.raises(ParamError) as err:
        load_params(bad)
    assert "unknown_key" in str(err.value)
    bad.write_text("gamma = fast\n")
    with pytest.raises(ParamError):
        load_params(bad)


def test_load_params_rejects_duplicate_key(tmp_path):
    cfg = tmp_path / "params.txt"
    cfg.write_text("gamma = 4.0\n# comment\n\ngamma = 5.0\n")
    with pytest.raises(ParamError) as err:
        load_params(cfg)
    msg = str(err.value)
    assert f"{cfg}:4:" in msg and "'gamma'" in msg and "line 1" in msg
