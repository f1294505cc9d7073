"""Time-domain dynamics of the driven four-level emitter.

Level ordering used everywhere: 0 = ground spin-down, 1 = ground spin-up,
2 = trion spin-down, 3 = trion spin-up. The excitation laser is resonant
with the 0 <-> 2 vertical transition; the same field couples 1 <-> 3 with
detuning ``delta``. Cross transitions (0 <-> 3, 1 <-> 2 driving) are
excluded: they are suppressed by laser polarisation in the side-excitation
geometry. Each trion decays through four channels (vertical / diagonal,
into / out of the waveguide); pure dephasing acts on the trion levels.

scipy is imported by the propagators that use it, not with this module:
``scipy.linalg`` on the first square pulse, ``scipy.integrate`` on the
first ``solve_ivp`` call (the first gaussian pulse). Importing the package
then loads numpy alone, which keeps the start of a one-shot CLI run short.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .params import BranchingBetas, ParamError, _real, _real_fields, _whole, betas_from_branching

N_LEVELS = 4
GROUND_DOWN, GROUND_UP, TRION_DOWN, TRION_UP = range(N_LEVELS)

# Golden-section refinement of the pulse duration stops at this relative width.
DURATION_REL_TOL = 1e-3


class IntegrationError(RuntimeError):
    """Master-equation integration failed; message carries solver diagnostics."""


@dataclass(frozen=True)
class LevelSystem:
    """Four-level emitter with per-channel decay rates (1/ns).

    ``ground_splitting`` and ``delta`` are angular frequencies (rad/ns);
    ``delta`` is the detuning of the off-resonant 1 <-> 3 transition from
    the drive. The four decay rates apply to each trion symmetrically
    (vertical preserves the spin branch, diagonal flips it).
    """

    ground_splitting: float
    delta: float
    rate_vertical_wg: float
    rate_vertical_leak: float
    rate_diagonal_wg: float
    rate_diagonal_leak: float
    dephasing: float = 0.0

    _BOUNDS = {"ground_splitting": "(-inf, inf)", "delta": "(-inf, inf)",
               "rate_vertical_wg": "[0, inf)", "rate_vertical_leak": "[0, inf)",
               "rate_diagonal_wg": "[0, inf)", "rate_diagonal_leak": "[0, inf)",
               "dephasing": "[0, inf)", "gamma": "(0, inf)"}  # gamma: the total decay rate

    def __post_init__(self):
        _real_fields(self)

    @property
    def gamma(self):
        return (
            self.rate_vertical_wg
            + self.rate_vertical_leak
            + self.rate_diagonal_wg
            + self.rate_diagonal_leak
        )

    @property
    def betas(self):
        g = self.gamma
        return BranchingBetas(
            beta_par=self.rate_vertical_wg / g,
            beta_perp=self.rate_diagonal_wg / g,
            beta_par_leak=self.rate_vertical_leak / g,
            beta_perp_leak=self.rate_diagonal_leak / g,
        )

    @classmethod
    def from_rates(cls, gamma, betas, delta, dephasing=0.0, ground_splitting=0.0):
        """Split a total decay rate over the four channels of ``betas``."""
        return cls(
            ground_splitting=ground_splitting,
            delta=delta,
            rate_vertical_wg=gamma * betas.beta_par,
            rate_vertical_leak=gamma * betas.beta_par_leak,
            rate_diagonal_wg=gamma * betas.beta_perp,
            rate_diagonal_leak=gamma * betas.beta_perp_leak,
            dephasing=dephasing,
        )

    @classmethod
    def from_params(cls, params, beta_total=1.0):
        betas = betas_from_branching(params.branching, beta_total=beta_total)
        return cls.from_rates(params.gamma, betas, params.delta, params.gamma_d)


@dataclass(frozen=True)
class Pulse:
    """A pi pulse on the driven transition.

    ``duration`` is the full width for a square pulse and the FWHM for a
    gaussian one (truncated at +-3 sigma). The peak Rabi frequency is fixed
    by the pulse area, pi.
    """

    shape: str
    duration: float
    carrier_detuning: float = 0.0

    _BOUNDS = {"duration": "(0, inf)", "carrier_detuning": "(-inf, inf)"}

    def __post_init__(self):
        if self.shape not in ("square", "gaussian"):
            raise ParamError(f"unknown pulse shape {self.shape!r}")
        _real_fields(self)

    @property
    def sigma(self):
        return self.duration / (2.0 * math.sqrt(2.0 * math.log(2.0)))

    @property
    def span(self):
        """Time interval (t0, t1) outside of which the drive is zero."""
        if self.shape == "square":
            return (0.0, self.duration)
        return (0.0, 6.0 * self.sigma)

    @property
    def peak_rabi(self):
        if self.shape == "square":
            return math.pi / self.duration
        s = self.sigma
        # area of the +-3 sigma truncated gaussian envelope
        norm = s * math.sqrt(2.0 * math.pi) * math.erf(3.0 / math.sqrt(2.0))
        return math.pi / norm

    def envelope(self, t):
        """Instantaneous Rabi frequency at time t (rad/ns)."""
        t0, t1 = self.span
        if t < t0 or t > t1:
            return 0.0
        if self.shape == "square":
            return self.peak_rabi
        tc = 0.5 * (t0 + t1)
        return self.peak_rabi * math.exp(-((t - tc) ** 2) / (2.0 * self.sigma**2))


def _collapse_ops(system):
    """Jump operators: per trion vertical/diagonal decay into/out of the
    waveguide, then pure dephasing of the trion levels."""
    rates = (
        system.rate_vertical_wg,
        system.rate_vertical_leak,
        system.rate_diagonal_wg,
        system.rate_diagonal_leak,
    )
    ops = []
    branches = ((TRION_DOWN, GROUND_DOWN, GROUND_UP), (TRION_UP, GROUND_UP, GROUND_DOWN))
    for trion, same, flipped in branches:
        for ground, rate in zip((same, same, flipped, flipped), rates):
            op = np.zeros((N_LEVELS, N_LEVELS), dtype=complex)
            op[ground, trion] = math.sqrt(rate)
            ops.append(op)
    if system.dephasing > 0.0:
        ops.append(math.sqrt(2.0 * system.dephasing) * np.diag([0j, 0j, 1.0, 1.0]))
    return [op for op in ops if np.any(op)]


def _generator(system, carrier_detuning=0.0, jumps=True):
    """Lindblad generator split as dy/dt = (G0 + rabi(t) * G1) @ y.

    ``y`` is the row-major density operator followed by the expected
    emission numbers from trion-down and trion-up (18 entries). Row-major
    vectorization gives vec(A rho B) = (A kron B^T) vec(rho), so a jump L
    contributes L kron conj(L). With ``jumps=False`` the jump terms and the
    counters are dropped, which leaves the 16x16 no-jump evolution under
    H_eff = H - i/2 sum L^dag L.
    """
    eye = np.eye(N_LEVELS)
    h0 = np.diag(
        [0.0, system.ground_splitting, -carrier_detuning, system.delta - carrier_detuning]
    )
    h1 = np.zeros((N_LEVELS, N_LEVELS))
    h1[GROUND_DOWN, TRION_DOWN] = h1[TRION_DOWN, GROUND_DOWN] = 0.5
    h1[GROUND_UP, TRION_UP] = h1[TRION_UP, GROUND_UP] = 0.5
    ls = _collapse_ops(system)
    ldl = sum(l.conj().T @ l for l in ls)

    def commutator(h):
        return -1j * (np.kron(h, eye) - np.kron(eye, h.T))

    n = N_LEVELS**2
    size = n + 2 if jumps else n
    g0 = np.zeros((size, size), dtype=complex)
    g1 = np.zeros((size, size), dtype=complex)
    g0[:n, :n] = commutator(h0) - 0.5 * (np.kron(ldl, eye) + np.kron(eye, ldl.T))
    g1[:n, :n] = commutator(h1)
    if jumps:
        g0[:n, :n] += sum(np.kron(l, l.conj()) for l in ls)
        g0[n, TRION_DOWN * (N_LEVELS + 1)] = system.gamma
        g0[n + 1, TRION_UP * (N_LEVELS + 1)] = system.gamma
    return g0, g1


def solve_ivp(*args, **kwargs):
    """``scipy.integrate.solve_ivp``, imported on the first call."""
    from scipy import integrate

    return integrate.solve_ivp(*args, **kwargs)


@dataclass(frozen=True)
class ExcitationErrors:
    """Per-pulse infidelity contributions of the driving imperfections.

    Each field is the raw event probability weighted by the state-infidelity
    it causes on an equal superposition: a fully orthogonal detected branch
    (re-excitation) contributes p/2, a which-path-marking branch that still
    reaches the target time bin (off-resonant emission) contributes p/4,
    and an undetected branch (incomplete inversion) contributes p/2 as a
    conservative bound. ``total`` is their sum.
    """

    off_resonant: float
    re_excitation: float
    incomplete_inversion: float

    @property
    def total(self):
        return self.off_resonant + self.re_excitation + self.incomplete_inversion


def excitation_error_probability(system, pulse, tolerance=1e-10):
    """Driving-error budget of one excitation pulse.

    Computed from the dynamics over the pulse: expected emissions beyond
    the first on the driven branch give the re-excitation weight, emissions
    on the detuned branch (starting from the spectator ground state) give
    the off-resonant weight, and the no-jump survival of the ground manifold
    gives the incomplete-inversion weight. A square pulse has a constant
    generator, so its exact propagator ``expm(G * duration)`` is used; a
    gaussian pulse is integrated by ``solve_ivp`` at relative tolerance
    ``tolerance``, which therefore affects gaussian pulses only.
    """
    _real(("tolerance", tolerance, "(0, inf)"))
    generators = {j: _generator(system, pulse.carrier_detuning, j) for j in (True, False)}
    if pulse.shape == "square":
        from scipy.linalg import expm

        propagators = {
            jumps: expm((g0 + pulse.peak_rabi * g1) * pulse.duration)
            for jumps, (g0, g1) in generators.items()
        }

    def final(level, jumps=True):
        # |level><level| is entry level * (N_LEVELS + 1) of the row-major vector
        if pulse.shape == "square":
            y = propagators[jumps][:, level * (N_LEVELS + 1)]
        else:
            g0, g1 = generators[jumps]
            y0 = np.zeros(len(g0), dtype=complex)
            y0[level * (N_LEVELS + 1)] = 1.0
            sol = solve_ivp(
                lambda t, y: g0 @ y + pulse.envelope(t) * (g1 @ y),
                pulse.span, y0, rtol=tolerance, atol=1e-14,
            )
            if not sol.success:
                raise IntegrationError(f"master-equation integration failed: {sol.message}")
            y = sol.y[:, -1]
        return y[: N_LEVELS**2].reshape(N_LEVELS, N_LEVELS).real, y[N_LEVELS**2 :].real

    # The free decay after the pulse needs no integration: every remaining
    # trion population decays exactly once, so the post-pulse emission tail
    # equals the final trion populations.
    rho, emitted = final(GROUND_DOWN)
    mu_down = emitted[0] + rho[TRION_DOWN, TRION_DOWN]
    rho, _ = final(GROUND_DOWN, jumps=False)
    # after the pulse the remaining trion amplitude decays away (emits)
    p_no = float(rho[GROUND_DOWN, GROUND_DOWN] + rho[GROUND_UP, GROUND_UP])
    mu_re = max(mu_down - (1.0 - p_no), 0.0)
    rho, emitted = final(GROUND_UP)
    mu_off = emitted[1] + rho[TRION_UP, TRION_UP]
    return ExcitationErrors(
        off_resonant=mu_off / 4.0,
        re_excitation=mu_re / 2.0,
        incomplete_inversion=p_no / 2.0,
    )


def optimize_pulse_duration(
    system, shape="square", bounds=None, n_scan=40, tolerance=1e-9
):
    """Minimize the total per-pulse excitation error over the duration.

    The error landscape carries an oscillatory off-resonant component, so a
    geometric coarse scan brackets the global minimum before a golden-section
    refinement to relative duration tolerance ``DURATION_REL_TOL``.
    ``tolerance`` is the solver tolerance of ``excitation_error_probability``
    and affects gaussian pulses only; square pulses are propagated exactly.
    """
    if bounds is None:
        _real(("delta", system.delta, "(0, inf)"))
        bounds = (1.5 / system.delta, 30.0 / system.delta)
    lo, hi = bounds
    _real(("bounds", lo, "(0, inf)"), ("bounds", hi, "(0, inf)"))
    if not lo < hi:
        raise ParamError(f"invalid duration bounds {bounds}")
    # fewer than 3 points cannot bracket an interior minimum
    n_scan = _whole("n_scan", n_scan, 3)

    def err(duration):
        return excitation_error_probability(
            system, Pulse(shape=shape, duration=duration), tolerance=tolerance
        ).total

    grid = np.geomspace(lo, hi, n_scan)
    vals = [err(t) for t in grid]
    k = int(np.argmin(vals))
    if k == 0 or k == n_scan - 1:
        raise ParamError(
            "no interior minimum within duration bounds "
            f"({lo:.3g}, {hi:.3g}); endpoint error is minimal"
        )

    a, b = grid[k - 1], grid[k + 1]
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
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
    t_opt = c if fc < fd else d
    return {"duration_opt": float(t_opt), "error_min": float(min(fc, fd))}
