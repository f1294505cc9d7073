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
from timebinsim import dynamics
from timebinsim.dynamics import (
    DURATION_REL_TOL,
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
from timebinsim.params import BranchingBetas, ParamError

VERTICAL_ONLY = BranchingBetas(1.0, 0.0, 0.0, 0.0)


def make_system(gamma=1.0, delta=100.0, dephasing=0.0, betas=VERTICAL_ONLY):
    return LevelSystem.from_rates(gamma=gamma, betas=betas, delta=delta, dephasing=dephasing)


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
    opt = optimize_pulse_duration(sys_, shape="square")
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


@pytest.mark.parametrize(
    "shape, system, carrier, width",
    [
        ("square", ALL_CHANNELS, 1.3, 3.0),
        ("gaussian", ALL_CHANNELS, 1.3, 3.0),
        # the long end of the optimizer's default bounds, where the Magnus
        # steps are widest against 1/delta (8.4e-13 and 7.8e-13 measured)
        ("gaussian", ALL_CHANNELS, 1.3, 30.0),
        ("gaussian", make_system(gamma=1.0, delta=30.0), 0.0, 30.0),
    ],
    ids=["square", "gaussian", "gaussian-long", "gaussian-long-delta30"],
)
def test_generator_matches_reference_rhs(shape, system, carrier, width):
    pulse = Pulse(shape=shape, duration=width / system.delta, carrier_detuning=carrier)
    errs = excitation_error_probability(system, pulse)
    for name, want in _reference_excitation_errors(system, pulse, 1e-13).items():
        assert getattr(errs, name) == pytest.approx(want, abs=1e-12), name


@pytest.mark.parametrize(
    "width, total",
    [(1.5, 0.1619561012705), (3.0, 0.04342890112755), (30.0, 0.02251419290454)],
)
def test_gaussian_error_totals_are_pinned(width, total):
    # the Magnus propagator's totals to 12 significant digits, at both ends
    # and the middle of the default bounds at delta / gamma = 100
    pulse = Pulse("gaussian", width / 100.0)
    errs = excitation_error_probability(make_system(gamma=1.0, delta=100.0), pulse)
    assert errs.total == pytest.approx(total, rel=1e-12, abs=0.0)


def _rel_one_norm(got, want):
    """1-norm of the difference of each matrix pair over the 1-norm of ``want``."""
    return np.abs(got - want).sum(axis=-2).max(axis=-1) / np.abs(want).sum(axis=-2).max(axis=-1)


def test_square_propagator_is_one_expm():
    # a constant generator is its whole Magnus series: no steps, no commutators
    from scipy.linalg import expm

    pulse = Pulse("square", 3.0 / ALL_CHANNELS.delta, carrier_detuning=1.3)
    for g0, g1 in dynamics._generators(ALL_CHANNELS, 1.3).values():
        a = (g0 + pulse.peak_rabi * g1) * pulse.duration
        got = dynamics._propagators(g0, g1, [pulse])[0]
        assert np.array_equal(got, dynamics._expm(a))
        assert _rel_one_norm(got, expm(a)) <= 1e-14


# -- the Pade exponential against scipy.linalg.expm, which src/ does not import

@pytest.mark.parametrize("ratio", [30.0, 100.0, 300.0])
@pytest.mark.parametrize("carrier, dephasing", [(0.0, 0.0), (1.3, 0.0), (0.0, 0.3), (1.3, 0.3)])
def test_expm_matches_scipy_on_the_generators(ratio, carrier, dephasing):
    # both population blocks over the optimizer's default duration bounds
    from scipy.linalg import expm

    system = make_system(gamma=1.0, delta=ratio, dephasing=dephasing)
    for g0, g1 in dynamics._generators(system, carrier).values():
        for duration in np.geomspace(1.5 / ratio, 30.0 / ratio, 9):
            a = (g0 + Pulse("square", duration).peak_rabi * g1) * duration
            assert _rel_one_norm(dynamics._expm(a), expm(a)) <= 1e-14


@pytest.mark.parametrize("n", [1, 4, 10, 18])
def test_expm_matches_scipy_on_random_matrices(n):
    # 1-norms from 2^-20, where no squaring is needed, to 8, past theta_13
    from scipy.linalg import expm

    rng = np.random.default_rng(n)
    for norm in 2.0 ** np.arange(-20, 4):
        for _ in range(4):
            a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
            a *= norm / np.abs(a).sum(axis=0).max()
            assert _rel_one_norm(dynamics._expm(a), expm(a)) <= 1e-14


def test_stacked_expm_equals_per_matrix_calls():
    # each matrix gets its own power of two, so a stack of mixed norms takes
    # masked squarings; the result must not depend on the company
    rng = np.random.default_rng(7)
    for n in (4, 10):
        a = rng.normal(size=(3, 10, n, n)) + 1j * rng.normal(size=(3, 10, n, n))
        norms = np.geomspace(1e-6, 60.0, 30).reshape(3, 10)
        a *= (norms / np.abs(a).sum(axis=-2).max(axis=-1))[..., None, None]
        got = dynamics._expm(a)
        assert got.shape == a.shape
        for index in np.ndindex(3, 10):
            assert np.array_equal(got[index], dynamics._expm(a[index]))


def test_expm_of_zero_is_the_identity(recwarn):
    # the scaling power comes from frexp, so a zero norm takes no log of zero
    for n in (1, 4, 10):
        assert np.array_equal(dynamics._expm(np.zeros((n, n), dtype=complex)), np.eye(n))
    assert not recwarn.list


def test_gaussian_steps_cover_the_pulse_span():
    # with no drive the steps commute, and their product is one expm over the span
    from scipy.linalg import expm

    pulse = Pulse("gaussian", 3.0 / ALL_CHANNELS.delta, carrier_detuning=1.3)
    t0, t1 = pulse.span
    for g0, g1 in dynamics._generators(ALL_CHANNELS, 1.3).values():
        got = dynamics._propagator(g0, np.zeros_like(g1), pulse)
        assert np.max(np.abs(got - expm(g0 * (t1 - t0)))) <= 1e-13


@pytest.mark.parametrize(
    "system, carrier",
    [(make_system(gamma=1.0, delta=100.0), 0.0), (ALL_CHANNELS, 1.3)],
    ids=["delta100", "all-channels"],
)
def test_gaussian_magnus_steps_are_sixth_order(monkeypatch, system, carrier):
    # halving the step of a 3 / delta pulse from 10 to 20 slices cuts the
    # propagator's distance to the 400-slice one by about 2^6 (63 to 76 measured)
    pulse = Pulse("gaussian", 3.0 / system.delta, carrier_detuning=carrier)
    for g0, g1 in dynamics._generators(system, carrier).values():
        steps = {}
        for n in (10, 20, 400):
            monkeypatch.setattr(dynamics, "_GAUSSIAN_SLICES", n)
            steps[n] = dynamics._propagator(g0, g1, pulse)
        coarse, fine = (np.max(np.abs(steps[n] - steps[400])) for n in (10, 20))
        assert 5.5 < math.log2(coarse / fine) < 6.5


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


def _reference_optimize(system, shape="square", n_scan=40):
    """The coarse scan and golden section over the default bounds, every
    duration evaluated through the public ``excitation_error_probability``."""

    def err(duration):
        return excitation_error_probability(system, Pulse(shape, duration)).total

    grid = np.geomspace(1.5 / system.delta, 30.0 / system.delta, n_scan)
    k = int(np.argmin([err(t) for t in grid]))
    a, b = grid[k - 1], grid[k + 1]
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    c, d = b - invphi * (b - a), a + invphi * (b - a)
    fc, fd = err(c), err(d)
    while (b - a) > DURATION_REL_TOL * (a + b) / 2.0:
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = err(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = err(d)
    return float(c if fc < fd else d), float(min(fc, fd))


@pytest.mark.parametrize("ratio", [30.0, 100.0, 300.0])
def test_optimizer_matches_per_pulse_public_path(ratio):
    # the shared generator pair must not move a single bit of the optimum
    opt = optimize_pulse_duration(make_system(gamma=1.0, delta=ratio))
    duration, error = _reference_optimize(make_system(gamma=1.0, delta=ratio))
    assert opt["duration_opt"].hex() == duration.hex()
    assert opt["error_min"].hex() == error.hex()


@pytest.mark.parametrize("ratio", [30.0, 100.0, 300.0])
def test_stacked_scan_equals_one_pulse_totals(ratio):
    # the optimizer's coarse scan, in stacked chunks, against one public call per pulse
    system = make_system(gamma=1.0, delta=ratio)
    grid = np.geomspace(1.5 / ratio, 30.0 / ratio, 40)
    pulses = [Pulse("square", duration) for duration in grid]
    stacked = dynamics._excitation_errors(dynamics._generators(system, 0.0), pulses)
    for errs, pulse in zip(stacked, pulses, strict=True):
        assert errs == excitation_error_probability(system, pulse)


def test_scan_is_stacked_in_bounded_chunks(monkeypatch):
    sizes = []
    chunk = dynamics._expm_chunk

    def counted(a):
        sizes.append(len(a))
        return chunk(a)

    monkeypatch.setattr(dynamics, "_expm_chunk", counted)
    optimize_pulse_duration(make_system(gamma=1.0, delta=30.0), n_scan=100)
    # the 100-pulse scan is one stack per generator pair: six full chunks and
    # a last one of four; the golden section then takes two pulses, then one
    scan = [dynamics._CHUNK] * 6 + [4]
    assert sizes[: 2 * len(scan)] == scan * 2
    assert sizes[2 * len(scan) : 2 * len(scan) + 2] == [2, 2]
    assert set(sizes[2 * len(scan) + 2 :]) == {1}


def test_optimizer_names_an_unknown_shape():
    with pytest.raises(ParamError, match="'triangle'"):
        optimize_pulse_duration(make_system(gamma=1.0, delta=30.0), shape="triangle")


def _count_generators(monkeypatch):
    calls = []
    build = dynamics._generator

    def counted(*args, **kwargs):
        calls.append(args)
        return build(*args, **kwargs)

    monkeypatch.setattr(dynamics, "_generator", counted)
    return calls


@pytest.mark.parametrize("shape, options", [("square", {}), ("gaussian", {"n_scan": 8})])
def test_optimizer_builds_the_generator_pair_once(monkeypatch, shape, options):
    calls = _count_generators(monkeypatch)
    optimize_pulse_duration(make_system(gamma=1.0, delta=30.0), shape=shape, **options)
    assert len(calls) == 2


def test_jump_generator_preserves_trace():
    diagonal_rows = [i * 5 for i in range(4)]
    for g in _generator(ALL_CHANNELS, carrier_detuning=1.3):
        assert np.max(np.abs(g[diagonal_rows, :16].sum(axis=0))) < 1e-14


def _random_level_system(rng):
    """Every channel, trion dephasing, a ground splitting; random rates."""
    rates = rng.uniform(0.05, 1.0, 4)
    return LevelSystem(
        ground_splitting=rng.uniform(-2.0, 2.0),
        delta=rng.uniform(5.0, 300.0),
        rate_vertical_wg=rates[0],
        rate_vertical_leak=rates[1],
        rate_diagonal_wg=rates[2],
        rate_diagonal_leak=rates[3],
        dephasing=rng.uniform(0.0, 1.0),
    )


@pytest.mark.parametrize("seed", range(8))
def test_population_block_is_invariant(seed):
    # no generator entry leads out of the block, so its propagator is the
    # block of the full propagator
    rng = np.random.default_rng(seed)
    system = _random_level_system(rng)
    for jumps, block in dynamics._POPULATION_BLOCK.items():
        outside = np.setdiff1d(np.arange(18 if jumps else 16), block)
        for g in _generator(system, rng.uniform(-3.0, 3.0), jumps):
            assert not np.any(g[np.ix_(outside, block)])


@pytest.mark.parametrize("ratio", [30.0, 100.0, 300.0])
def test_block_propagator_matches_full_expm_columns(ratio):
    from scipy.linalg import expm

    system = make_system(gamma=1.0, delta=ratio)
    full = {j: _generator(system, 0.0, j) for j in (True, False)}
    reduced = dynamics._generators(system, 0.0)
    for duration in np.geomspace(1.5 / ratio, 30.0 / ratio, 7):
        rabi = Pulse("square", duration).peak_rabi
        for jumps, block in dynamics._POPULATION_BLOCK.items():
            (g0, g1), (b0, b1) = full[jumps], reduced[jumps]
            want = expm((g0 + rabi * g1) * duration)[:, block]
            got = np.zeros_like(want)
            got[block] = expm((b0 + rabi * b1) * duration)
            assert np.max(np.abs(got - want)) <= 1e-13


def _full_expm_total(system, pulse):
    """The square-pulse error total from full 18x18 and 16x16 propagators."""
    from scipy.linalg import expm

    def final(level, jumps=True):
        g0, g1 = _generator(system, pulse.carrier_detuning, jumps)
        y = expm((g0 + pulse.peak_rabi * g1) * pulse.duration)[:, level * 5]
        return y[:16].reshape(4, 4).real, y[16:].real

    rho, emitted = final(GROUND_DOWN)
    mu_down = emitted[0] + rho[TRION_DOWN, TRION_DOWN]
    rho, _ = final(GROUND_DOWN, jumps=False)
    p_no = rho[GROUND_DOWN, GROUND_DOWN] + rho[GROUND_UP, GROUND_UP]
    rho, emitted = final(GROUND_UP)
    mu_off = emitted[1] + rho[TRION_UP, TRION_UP]
    return mu_off / 4.0 + max(mu_down - (1.0 - p_no), 0.0) / 2.0 + p_no / 2.0


@pytest.mark.parametrize("seed", range(4))
def test_square_error_total_matches_full_expm(seed):
    rng = np.random.default_rng(seed)
    system = _random_level_system(rng)
    for duration in np.geomspace(1.5 / system.delta, 30.0 / system.delta, 5):
        pulse = Pulse("square", duration, carrier_detuning=rng.uniform(-3.0, 3.0))
        total = excitation_error_probability(system, pulse).total
        assert total == pytest.approx(_full_expm_total(system, pulse), rel=1e-13, abs=0.0)


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
    dynamics.optimize_pulse_duration(system, shape="square")
    seen["optimize"] = scipy_modules()
    print(json.dumps(seen))
    """
)


def test_no_pulse_or_optimization_loads_scipy():
    src = str(Path(timebinsim.__file__).resolve().parents[1])
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""))
    run = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE],
        env=env, capture_output=True, text=True, timeout=120, check=True,
    )
    seen = json.loads(run.stdout)
    assert seen == {"import": [], "shim": True, "square": [], "gaussian": [], "optimize": []}
