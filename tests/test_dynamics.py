import json
import math
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest
from scipy.integrate import solve_ivp

import timebinsim
from timebinsim.dynamics import (
    GROUND_DOWN,
    GROUND_UP,
    TRION_DOWN,
    TRION_UP,
    LevelSystem,
    Pulse,
    _generator,
    excitation_error_probability,
    optimize_pulse_duration,
)
from timebinsim.params import BranchingBetas, ParamError, preset

VERTICAL_ONLY = BranchingBetas(1.0, 0.0, 0.0, 0.0)


def make_system(gamma=1.0, delta=100.0, dephasing=0.0, betas=VERTICAL_ONLY):
    return LevelSystem.from_rates(gamma=gamma, betas=betas, delta=delta, dephasing=dephasing)


def test_level_system_from_params():
    p = preset("reference")
    sys_ = LevelSystem.from_params(p)
    assert sys_.gamma == pytest.approx(p.gamma)
    assert sys_.delta == p.delta
    assert sys_.dephasing == p.gamma_d
    b = sys_.betas
    assert (b.beta_par + b.beta_par_leak) / (b.beta_perp + b.beta_perp_leak) == pytest.approx(15.0)


def test_pulse_envelope_area():
    for shape in ("square", "gaussian"):
        pulse = Pulse(shape=shape, duration=0.1)
        t0, t1 = pulse.span
        ts = np.linspace(t0, t1, 20001)
        area = np.trapezoid([pulse.envelope(t) for t in ts], ts)
        assert area == pytest.approx(math.pi, rel=1e-4)


def test_pulse_validation():
    with pytest.raises(ParamError):
        Pulse(shape="triangle", duration=0.1)
    with pytest.raises(ParamError):
        Pulse(shape="square", duration=0.0)


@pytest.mark.parametrize("field", ["duration", "carrier_detuning"])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_pulse_rejects_non_finite_field(field, value):
    with pytest.raises(ParamError, match=field):
        Pulse(**{"shape": "square", "duration": 0.1, field: value})


LEVEL_FIELDS = dict(
    ground_splitting=0.5,
    delta=30.0,
    rate_vertical_wg=0.8,
    rate_vertical_leak=0.1,
    rate_diagonal_wg=0.05,
    rate_diagonal_leak=0.05,
    dephasing=0.2,
)


@pytest.mark.parametrize(
    "field, value",
    [
        (name, value)
        for name in (
            "rate_vertical_wg",
            "rate_vertical_leak",
            "rate_diagonal_wg",
            "rate_diagonal_leak",
            "dephasing",
        )
        for value in (-1.0, math.nan, math.inf)
    ]
    + [(name, value) for name in ("delta", "ground_splitting") for value in (math.nan, math.inf)],
)
def test_level_system_rejects_bad_field(field, value):
    LevelSystem(**LEVEL_FIELDS)
    with pytest.raises(ParamError, match=field):
        LevelSystem(**{**LEVEL_FIELDS, field: value})


def test_level_system_needs_a_decay_rate():
    no_decay = {name: 0.0 for name in LEVEL_FIELDS if name.startswith("rate_")}
    with pytest.raises(ParamError, match="gamma"):
        LevelSystem(**{**LEVEL_FIELDS, **no_decay})
    for gamma in (0.0, -1.0):
        with pytest.raises(ParamError, match="gamma"):
            make_system(gamma=gamma)


def test_master_equation_trace_and_positivity():
    from scipy.linalg import expm

    sys_ = make_system(gamma=1.0, delta=50.0)
    pulse = Pulse(shape="square", duration=0.2)
    g0, g1 = _generator(sys_)
    y0 = np.zeros(len(g0), dtype=complex)
    y0[GROUND_DOWN * 5] = 1.0
    for t in np.linspace(0.0, pulse.duration, 11):
        rho = (expm((g0 + pulse.peak_rabi * g1) * t) @ y0)[:16].reshape(4, 4)
        assert np.trace(rho).real == pytest.approx(1.0, abs=1e-12)
        assert np.linalg.eigvalsh(0.5 * (rho + rho.conj().T)).min() > -1e-12
    # a pi pulse excites roughly once; emission all but guaranteed after 20 lifetimes
    y = expm(g0 * 20.0) @ expm((g0 + pulse.peak_rabi * g1) * pulse.duration) @ y0
    assert y[16].real == pytest.approx(1.0, abs=0.1)
    assert y[17].real < 0.05


def test_fast_pi_pulse_inverts():
    # pulse much faster than decay: the ground manifold is all but emptied
    errs = excitation_error_probability(
        make_system(gamma=0.01, delta=1e4), Pulse(shape="square", duration=0.01)
    )
    assert errs.incomplete_inversion < 1e-6
    assert errs.re_excitation < 1e-4


def test_excitation_errors_shrink_with_detuning():
    totals = {}
    for ratio in (30.0, 120.0):
        sys_ = make_system(gamma=1.0, delta=ratio)
        errs = excitation_error_probability(sys_, Pulse(shape="square", duration=3.0 / ratio))
        assert errs.off_resonant >= 0.0
        assert errs.re_excitation >= 0.0
        assert errs.incomplete_inversion >= 0.0
        totals[ratio] = errs.total
    assert totals[120.0] < totals[30.0]


def test_optimized_square_pulse_coefficient():
    ratio = 30.0
    sys_ = make_system(gamma=1.0, delta=ratio)
    opt = optimize_pulse_duration(sys_, shape="square", tolerance=1e-8)
    coeff = opt["error_min"] * ratio
    assert 0.48 < coeff < 0.88
    # optimum is interior to the default bounds
    lo, hi = 1.5 / ratio, 30.0 / ratio
    assert lo < opt["duration_opt"] < hi


def test_optimize_rejects_endpoint_minimum():
    sys_ = make_system(gamma=1.0, delta=30.0)
    with pytest.raises(ParamError):
        # monotone decreasing on this tiny bracket: minimum at the edge
        optimize_pulse_duration(sys_, bounds=(1e-4, 2e-4), n_scan=8)


@pytest.mark.parametrize("n_scan", [0, 1, 2])
def test_optimize_rejects_scan_too_short_to_bracket(n_scan):
    with pytest.raises(ParamError, match="n_scan"):
        optimize_pulse_duration(make_system(gamma=1.0, delta=30.0), n_scan=n_scan)


@pytest.mark.parametrize("n_scan", [8.5, 8.0, True, "8"])
def test_scan_length_must_be_a_whole_number(n_scan):
    with pytest.raises(ParamError, match="n_scan"):
        optimize_pulse_duration(make_system(gamma=1.0, delta=30.0), n_scan=n_scan)


# -- oracle: the hand-written Lindblad right-hand sides the generator replaced

def _reference_collapse_ops(system):
    def proj(i, j, rate):
        m = np.zeros((4, 4), dtype=complex)
        m[i, j] = 1.0
        return math.sqrt(rate) * m

    ops = [
        proj(GROUND_DOWN, TRION_DOWN, system.rate_vertical_wg),
        proj(GROUND_DOWN, TRION_DOWN, system.rate_vertical_leak),
        proj(GROUND_UP, TRION_DOWN, system.rate_diagonal_wg),
        proj(GROUND_UP, TRION_DOWN, system.rate_diagonal_leak),
        proj(GROUND_UP, TRION_UP, system.rate_vertical_wg),
        proj(GROUND_UP, TRION_UP, system.rate_vertical_leak),
        proj(GROUND_DOWN, TRION_UP, system.rate_diagonal_wg),
        proj(GROUND_DOWN, TRION_UP, system.rate_diagonal_leak),
    ]
    if system.dephasing > 0.0:
        ops.append(math.sqrt(2.0 * system.dephasing) * np.diag([0, 0, 1, 1]).astype(complex))
    return [op for op in ops if np.any(op)]


def _reference_hamiltonian(system, rabi, carrier_detuning):
    h = np.zeros((4, 4), dtype=complex)
    h[GROUND_DOWN, TRION_DOWN] = h[TRION_DOWN, GROUND_DOWN] = rabi / 2.0
    h[GROUND_UP, TRION_UP] = h[TRION_UP, GROUND_UP] = rabi / 2.0
    h[TRION_DOWN, TRION_DOWN] = -carrier_detuning
    h[TRION_UP, TRION_UP] = system.delta - carrier_detuning
    h[GROUND_UP, GROUND_UP] = system.ground_splitting
    return h


def _reference_rhs(system, pulse):
    """Lindblad RHS on (row-major rho, emissions from trion-down, trion-up)."""
    ls = _reference_collapse_ops(system)
    ldl = sum(l.conj().T @ l for l in ls)

    def rhs(t, y):
        rho = y[:16].reshape(4, 4)
        rabi = pulse.envelope(t) if pulse is not None else 0.0
        h = _reference_hamiltonian(system, rabi, pulse.carrier_detuning if pulse else 0.0)
        drho = -1j * (h @ rho - rho @ h)
        for l in ls:
            drho += l @ rho @ l.conj().T
        drho += -0.5 * (ldl @ rho + rho @ ldl)
        m_down = system.gamma * rho[TRION_DOWN, TRION_DOWN]
        m_up = system.gamma * rho[TRION_UP, TRION_UP]
        return np.concatenate([drho.ravel(), [m_down, m_up]])

    return rhs


def _reference_excitation_errors(system, pulse, tolerance):
    def mu(level):
        y0 = np.zeros(18, dtype=complex)
        y0[level * 5] = 1.0
        rhs = _reference_rhs(system, pulse)
        y = solve_ivp(rhs, pulse.span, y0, rtol=tolerance, atol=1e-14).y[:, -1]
        return y[16].real + y[10].real, y[17].real + y[15].real

    ldl = sum(l.conj().T @ l for l in _reference_collapse_ops(system))

    def no_jump_rhs(t, psi):
        h = _reference_hamiltonian(system, pulse.envelope(t), pulse.carrier_detuning)
        return -1j * ((h - 0.5j * ldl) @ psi)

    psi0 = np.array([1.0, 0.0, 0.0, 0.0], dtype=complex)
    psi = solve_ivp(no_jump_rhs, pulse.span, psi0, rtol=tolerance, atol=1e-14).y[:, -1]
    p_no = abs(psi[GROUND_DOWN]) ** 2 + abs(psi[GROUND_UP]) ** 2
    mu_re = max(mu(GROUND_DOWN)[0] - (1.0 - p_no), 0.0)
    return {
        "off_resonant": mu(GROUND_UP)[1] / 4.0,
        "re_excitation": mu_re / 2.0,
        "incomplete_inversion": p_no / 2.0,
    }


# every channel switched on: leaky and diagonal decay, trion dephasing, a
# ground splitting and a detuned carrier
ALL_CHANNELS = LevelSystem.from_rates(
    gamma=1.0,
    betas=BranchingBetas(0.7, 0.1, 0.15, 0.05),
    delta=40.0,
    dephasing=0.3,
    ground_splitting=0.7,
)


@pytest.mark.parametrize("shape", ["square", "gaussian"])
def test_generator_matches_reference_rhs(shape):
    system = ALL_CHANNELS
    pulse = Pulse(shape=shape, duration=3.0 / system.delta, carrier_detuning=1.3)
    errs = excitation_error_probability(system, pulse, tolerance=1e-13)
    for name, want in _reference_excitation_errors(system, pulse, 1e-13).items():
        assert getattr(errs, name) == pytest.approx(want, abs=1e-12), name


@pytest.mark.parametrize("ratio", [30.0, 100.0, 300.0])
def test_square_propagator_matches_solver(ratio):
    # the exact expm path against solve_ivp at rtol 1e-12 across the
    # optimizer's default duration bounds; per-component relative error is
    # not meaningful because incomplete_inversion falls to 3e-7 on this grid
    system = make_system(gamma=1.0, delta=ratio)
    for duration in np.geomspace(1.5 / ratio, 30.0 / ratio, 5):
        pulse = Pulse(shape="square", duration=duration)
        errs = excitation_error_probability(system, pulse)
        want = _reference_excitation_errors(system, pulse, 1e-12)
        for name, value in want.items():
            assert getattr(errs, name) == pytest.approx(value, rel=0, abs=1e-12), name
        assert errs.total == pytest.approx(sum(want.values()), rel=1e-9)


def test_jump_generator_preserves_trace():
    diagonal_rows = [i * 5 for i in range(4)]
    for g in _generator(ALL_CHANNELS, carrier_detuning=1.3):
        assert np.max(np.abs(g[diagonal_rows, :16].sum(axis=0))) < 1e-14


# Run in a fresh interpreter: this test process has imported scipy already.
IMPORT_PROBE = textwrap.dedent(
    """
    import inspect, json, sys

    def scipy_modules():
        return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))

    import timebinsim, timebinsim.cli
    from timebinsim import dynamics
    from timebinsim.params import BranchingBetas

    seen = {"import": scipy_modules()}
    seen["shim"] = (
        inspect.isfunction(dynamics.solve_ivp)
        and dynamics.solve_ivp.__module__ == dynamics.__name__
    )
    system = dynamics.LevelSystem.from_rates(1.0, BranchingBetas(1.0, 0.0, 0.0, 0.0), 100.0)
    for shape in ("square", "gaussian"):
        dynamics.excitation_error_probability(system, dynamics.Pulse(shape, 0.05))
        seen[shape] = scipy_modules()
    print(json.dumps(seen))
    """
)


def test_scipy_loads_at_the_first_propagator_that_needs_it():
    src = str(Path(timebinsim.__file__).resolve().parents[1])
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""))
    run = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE],
        env=env, capture_output=True, text=True, timeout=120, check=True,
    )
    seen = json.loads(run.stdout)
    assert seen["import"] == []
    assert seen["shim"]
    assert "scipy.linalg" in seen["square"]
    assert "scipy.integrate" not in seen["square"]
    assert "scipy.integrate" in seen["gaussian"]
