import math

import numpy as np
import pytest

from timebinsim.cyclemap import (
    CycleOptions,
    build_cycle_map,
    ideal_cycle_map,
    rotation_matrix,
)
from timebinsim.params import BranchingBetas, ParamError, betas_from_branching, preset
from timebinsim.protocol import NoiseConfig, run_protocol

VERTICAL_ONLY = BranchingBetas(1.0, 0.0, 0.0, 0.0)


def test_rotation_matrix():
    r = rotation_matrix(math.pi)
    assert np.allclose(r @ np.array([1.0, 0.0]), [0.0, 1.0])
    assert np.allclose(r.conj().T @ r, np.eye(2))
    assert np.allclose(rotation_matrix(math.pi / 2.0) @ rotation_matrix(math.pi / 2.0), r)


def test_ideal_cycle_is_an_isometry():
    cm = ideal_cycle_map()
    assert cm.orthogonal_prob == 0.0
    total = sum(k.conj().T @ k for k in cm.kraus)
    assert np.allclose(total, np.eye(2), atol=1e-12)
    w = cm.weights()
    assert w["detected"] == pytest.approx(1.0)
    assert w["loss"] == pytest.approx(0.0, abs=1e-12)


def test_weights_split_sums_to_one():
    p = preset("reference")
    cm = build_cycle_map(p)
    w = cm.weights()
    assert w["detected"] + w["orthogonal"] + w["loss"] == pytest.approx(1.0)
    assert 0.0 < w["orthogonal"] < 0.05
    # from PhysicalParams the orthogonal ledger carries the excitation error
    assert cm.orthogonal_prob == pytest.approx(
        math.sqrt(3.0) * math.pi / 8.0 * p.gamma / p.delta
    )


def test_choi_positive_for_presets():
    for name in ("reference", "improved", "ideal"):
        cm = build_cycle_map(preset(name))
        ev = np.linalg.eigvalsh(cm.choi_matrix())
        assert ev.min() > -1e-9


def test_dephasing_scales_photon_coherence():
    ind = 0.9
    cm = build_cycle_map(VERTICAL_ONLY, CycleOptions(indistinguishability=ind))
    plus = np.array([1.0, 1.0], dtype=complex) / math.sqrt(2.0)
    rho_in = np.outer(plus, plus.conj())
    rho_out = sum(k @ rho_in @ k.conj().T for k in cm.kraus)
    # spin-photon coherence between (up, early) and (down, late) blocks,
    # after the pi rotation: basis rows are 2*spin + photon
    coh = abs(rho_out[2 * 0 + 0, 2 * 1 + 1])
    assert coh == pytest.approx(ind / 2.0)


def test_echo_cancels_quasistatic_detuning():
    base = build_cycle_map(VERTICAL_ONLY, CycleOptions())
    for delta in (-1.6, 0.7, 1.6):
        shifted = build_cycle_map(
            VERTICAL_ONLY, CycleOptions(quasistatic_detuning=delta, half_cycle_time=13.5)
        )
        # equal arm phases are a global phase: identical Choi matrices
        assert np.allclose(shifted.choi_matrix(), base.choi_matrix(), atol=1e-12)


def test_no_echo_exposes_quasistatic_detuning():
    base = build_cycle_map(VERTICAL_ONLY, CycleOptions(echo=False))
    shifted = build_cycle_map(
        VERTICAL_ONLY,
        CycleOptions(echo=False, quasistatic_detuning=0.1, half_cycle_time=13.5),
    )
    assert not np.allclose(shifted.choi_matrix(), base.choi_matrix(), atol=1e-3)


@pytest.mark.parametrize("filter_on", [True, False])
def test_unfiltered_diagonal_photon_enters_orthogonal_ledger(filter_on):
    betas = betas_from_branching(15.0, beta_total=0.96)
    cm = build_cycle_map(betas, CycleOptions(filter_on=filter_on))
    assert cm.orthogonal_prob == pytest.approx(0.0 if filter_on else betas.beta_perp)
    # spin-up feeds only the main arm: detected with the vertical waveguide weight
    assert cm.detected_weight(np.diag([0.0, 1.0])) == pytest.approx(betas.beta_par)
    w = cm.weights()
    assert sum(w.values()) == pytest.approx(1.0)


def test_build_cycle_map_rejects_bad_inputs():
    with pytest.raises(ParamError):
        build_cycle_map("betas")
    with pytest.raises(ParamError):
        build_cycle_map(VERTICAL_ONLY, CycleOptions(off_resonant_prob=1.5))
    with pytest.raises(ParamError):
        build_cycle_map(VERTICAL_ONLY, CycleOptions(orthogonal_error_prob=-0.1))


@pytest.mark.parametrize(
    "field, value",
    [
        ("rotation_error_std", -0.1),
        ("rotation_error_std", math.nan),
        ("half_cycle_time", 0.0),
        ("half_cycle_time", -13.5),
        ("rotation_angle", math.nan),
        ("quasistatic_detuning", math.inf),
        ("drift_phase", -math.inf),
        ("indistinguishability", -0.1),
        ("indistinguishability", 1.5),
        ("indistinguishability", math.nan),
        ("off_resonant_prob", 1.0),
        ("orthogonal_error_prob", -0.1),
    ],
)
def test_cycle_options_rejects_bad_fields(field, value):
    with pytest.raises(ParamError, match=field):
        CycleOptions(**{field: value})


def test_channel_sanity_fuzz():
    rng = np.random.default_rng(7)
    for _ in range(100):
        w = rng.dirichlet(np.ones(4))
        betas = BranchingBetas(*w)
        opts = CycleOptions(
            rotation_angle=rng.uniform(0.0, 2.0 * math.pi),
            indistinguishability=rng.uniform(0.0, 1.0),
            filter_on=bool(rng.integers(2)),
            orthogonal_error_prob=rng.uniform(0.0, 0.2),
            off_resonant_prob=rng.uniform(0.0, 0.2),
            quasistatic_detuning=rng.normal(0.0, 1.0),
            drift_phase=rng.normal(0.0, 0.5),
            echo=bool(rng.integers(2)),
            half_cycle_time=rng.uniform(0.1, 20.0),
            rotation_error_std=rng.uniform(0.0, 0.3),
        )
        cm = build_cycle_map(betas, opts)
        ev = np.linalg.eigvalsh(cm.choi_matrix())
        assert ev.min() > -1e-9
        w_split = cm.weights()
        assert sum(w_split.values()) == pytest.approx(1.0, abs=1e-9)
        assert w_split["loss"] > -1e-9


@pytest.mark.parametrize(
    "field, value",
    [("indistinguishability", 0.5), ("orthogonal_error_prob", 0.2), ("half_cycle_time", 3.0)],
)
def test_params_refuse_options_they_set(field, value):
    # PhysicalParams fix these fields; BranchingBetas take them from the options
    p = preset("reference")
    opts = CycleOptions(**{field: value})
    noise = NoiseConfig(overhauser_sigma=0.1, sample_count=2)
    calls = (
        lambda: build_cycle_map(p, opts),
        lambda: run_protocol(p, 3, options=opts),
        lambda: run_protocol(p, 3, noise=noise, options=opts),
    )
    for call in calls:
        with pytest.raises(ParamError, match=field):
            call()
    build_cycle_map(VERTICAL_ONLY, opts)
