"""Time-domain dynamics of the driven four-level emitter.

Level ordering used everywhere: 0 = ground spin-down, 1 = ground spin-up,
2 = trion spin-down, 3 = trion spin-up. The excitation laser is resonant
with the 0 <-> 2 vertical transition; the same field couples 1 <-> 3 with
detuning ``delta``. Cross transitions (0 <-> 3, 1 <-> 2 driving) are
excluded: they are suppressed by laser polarisation in the side-excitation
geometry. Each trion decays through four channels (vertical / diagonal,
into / out of the waveguide); pure dephasing acts on the trion levels.

Every pulse is propagated by ``_expm``, a matrix exponential written in
numpy, so the package needs numpy alone: neither its import nor any pulse
loads a second numerical library, which keeps the start and the memory of a
one-shot CLI run small.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .params import ParamError, _real, _real_fields, _whole

N_LEVELS = 4
GROUND_DOWN, GROUND_UP, TRION_DOWN, TRION_UP = range(N_LEVELS)

# Golden-section refinement of the pulse duration stops at this relative width.
DURATION_REL_TOL = 1e-3


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
        return -1j * (_kron(h, eye) - _kron(eye, h.T))

    n = N_LEVELS**2
    size = n + 2 if jumps else n
    g0 = np.zeros((size, size), dtype=complex)
    g1 = np.zeros((size, size), dtype=complex)
    g0[:n, :n] = commutator(h0) - 0.5 * (_kron(ldl, eye) + _kron(eye, ldl.T))
    g1[:n, :n] = commutator(h1)
    if jumps:
        g0[:n, :n] += sum(_kron(l, l.conj()) for l in ls)
        g0[n, TRION_DOWN * (N_LEVELS + 1)] = system.gamma
        g0[n + 1, TRION_UP * (N_LEVELS + 1)] = system.gamma
    return g0, g1


def _kron(a, b):
    """``np.kron`` of two matrices: the same products, as one broadcast multiply
    without ``np.kron``'s Python overhead."""
    (m, n), (p, q) = a.shape, b.shape
    return (a[:, None, :, None] * b[None, :, None, :]).reshape(m * p, n * q)


# Entries of the row-major state that any pulse started from |0><0| or |1><1|
# can reach: H couples only 0 <-> 2 and 1 <-> 3, each jump operator is one
# |g><t| and the dephasing and L^dag L terms are diagonal, so the jump run stays
# on {00, 02, 20, 22, 11, 13, 31, 33} and the two counters, and the no-jump run
# from |0><0| on {00, 02, 20, 22}. Keyed by ``jumps``.
_POPULATION_BLOCK = {True: np.array([0, 2, 5, 7, 8, 10, 13, 15, 16, 17]),
                     False: np.array([0, 2, 8, 10])}

_GAUSSIAN_SLICES = 200  # sixth-order Magnus steps per gaussian pulse
_NODES = 0.5 + np.array([-1.0, 0.0, 1.0]) * math.sqrt(15.0) / 10.0  # Gauss-Legendre, per step


def _generators(system, carrier_detuning):
    """The jump and no-jump generator pairs, keyed by ``jumps``, sliced to
    ``_POPULATION_BLOCK``: the excitation-error budget reads nothing else."""
    return {
        jumps: tuple(g[np.ix_(block, block)] for g in _generator(system, carrier_detuning, jumps))
        for jumps, block in _POPULATION_BLOCK.items()
    }


# The degree-13 Pade approximant of e^a is (v - u)^-1 (v + u), with
# u = a (a^6 p_0 + p_2) and v = a^6 p_1 + p_3, each p_i a polynomial in a^2:
# row i holds its coefficients of a^6, a^4, a^2 and 1, divided by b_0 so that
# the zero matrix gives the identity exactly. _THETA13 is the largest 1-norm
# at which the approximant is exact to double precision without scaling
# (Higham, SIAM J. Matrix Anal. Appl. 26, 1179 (2005), eq. 2.6 and table 2.3).
_PADE13 = np.array([
    [1.0, 16380.0, 40840800.0, 0.0],
    [182.0, 960960.0, 1323241920.0, 0.0],
    [33522128640.0, 10559470521600.0, 1187353796428800.0, 32382376266240000.0],
    [670442572800.0, 129060195264000.0, 7771770303897600.0, 64764752532480000.0],
]) / 64764752532480000.0
_THETA13 = 5.371920351148152


# Matrices per _expm_chunk call: bounds the memory of a long stack. Larger
# chunks of the 10x10 block were slower, not faster: their temporaries pass
# 128 KiB, past which each one is mapped afresh.
_CHUNK = 16


def _expm(a):
    """Exponential of each matrix of a float or complex ``(..., n, n)`` stack,
    ``_CHUNK`` matrices per ``_expm_chunk`` call."""
    shape = a.shape
    a = a.reshape(-1, shape[-1], shape[-1])
    r = np.empty_like(a)
    for k in range(0, len(a), _CHUNK):
        r[k : k + _CHUNK] = _expm_chunk(a[k : k + _CHUNK])
    return r.reshape(shape)


def _expm_chunk(a):
    """Exponential of each matrix of an ``(m, n, n)`` stack: the degree-13
    Pade approximant of the matrix scaled by 2^-s, squared s times, where s
    is the smallest power that brings that matrix's 1-norm to ``_THETA13``.
    Every step treats the matrices one by one, so a matrix gets the same bits
    in any stack."""
    n = a.shape[-1]
    norm = np.maximum.reduce(np.add.reduce(np.abs(a), axis=1), axis=1)
    # norm / theta = mantissa * 2^exponent with mantissa in [0.5, 1), and frexp(0) = (0, 0)
    mantissa, exponent = np.frexp(norm / _THETA13)
    s = np.maximum(exponent - (mantissa == 0.5), 0)
    # the factors in the dtype of a: a broadcast product of real and complex arrays is slow
    a = a * np.ldexp(1.0, -s).astype(a.dtype)[:, None, None]
    powers = np.empty((len(a), 4, n, n), a.dtype)
    a2 = np.matmul(a, a, out=powers[:, 2])
    a4 = np.matmul(a2, a2, out=powers[:, 1])
    a6 = np.matmul(a4, a2, out=powers[:, 0])
    powers[:, 3] = np.eye(n)
    p = (_PADE13.astype(a.dtype) @ powers.reshape(-1, 4, n * n)).reshape(-1, 4, n, n)
    w = a6[:, None] @ p[:, :2] + p[:, 2:]
    u = a @ w[:, 0]
    r = np.linalg.solve(w[:, 1] - u, w[:, 1] + u)
    for k in range(int(s.max(initial=0))):
        squared = s > k
        if squared.all():
            r = r @ r
        else:
            r[squared] = r[squared] @ r[squared]
    return r


def _propagator(g0, g1, pulse):
    """Propagator of dy/dt = (g0 + envelope(t) * g1) @ y over a gaussian
    pulse: a product of ``_GAUSSIAN_SLICES`` sixth-order Magnus steps,
    exponentiated in one stacked ``_expm`` (Blanes et al., Phys. Rep. 470,
    151 (2009))."""

    def comm(a, b):
        return a @ b - b @ a

    t0, t1 = pulse.span
    h = (t1 - t0) / _GAUSSIAN_SLICES
    times = t0 + h * (np.arange(_GAUSSIAN_SLICES)[:, None] + _NODES)
    f1, f2, f3 = np.vectorize(pulse.envelope, otypes=[float])(times).T[:, :, None, None]
    # the generator is affine in the envelope, so the node differences are multiples of g1
    a1 = h * (g0 + f2 * g1)
    a2 = (math.sqrt(15.0) * h / 3.0) * (f3 - f1) * g1
    a3 = (10.0 * h / 3.0) * (f3 - 2.0 * f2 + f1) * g1
    c1 = comm(a1, a2)
    c2 = comm(a1, 2.0 * a3 + c1) / -60.0
    steps = _expm(a1 + a3 / 12.0 + comm(-20.0 * a1 - a3 + c1, a2 + c2) / 240.0)
    return functools.reduce(np.matmul, steps[::-1])


def _propagators(g0, g1, pulses):
    """Propagators of ``pulses``, which share one shape, stacked. A square
    pulse's constant generator is its whole Magnus series, so all square
    pulses are one stacked ``_expm``; gaussian pulses are ``_propagator``
    each."""
    if pulses[0].shape == "square":
        rabi = np.array([pulse.peak_rabi for pulse in pulses], dtype=g1.dtype)[:, None, None]
        duration = np.array([pulse.duration for pulse in pulses], dtype=g1.dtype)[:, None, None]
        return _expm((g0 + rabi * g1) * duration)
    return np.stack([_propagator(g0, g1, pulse) for pulse in pulses])


def solve_ivp(*args, **kwargs):
    """``scipy.integrate.solve_ivp``, imported on the first call; scipy comes
    with the ``test`` extra, not with the package. No caller in the package:
    kept because ``perfbench/tracing.py`` patches it (ROADMAP item 1)."""
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


def excitation_error_probability(system, pulse):
    """Driving-error budget of one excitation pulse.

    Computed from the dynamics over the pulse: expected emissions beyond
    the first on the driven branch give the re-excitation weight, emissions
    on the detuned branch (starting from the spectator ground state) give
    the off-resonant weight, and the no-jump survival of the ground manifold
    gives the incomplete-inversion weight. Both runs are propagated by
    ``_propagators`` on the population block their start states never leave.
    """
    return _excitation_errors(_generators(system, pulse.carrier_detuning), [pulse])[0]


def _excitation_errors(generators, pulses):
    """``excitation_error_probability`` of each of ``pulses``, which share one
    shape, on prebuilt ``_generators``."""
    propagators = {jumps: _propagators(g0, g1, pulses) for jumps, (g0, g1) in generators.items()}

    def final(level, jumps=True):
        # |level><level| is entry level * (N_LEVELS + 1) of the row-major vector
        block = _POPULATION_BLOCK[jumps]
        y = np.zeros((len(pulses), N_LEVELS**2 + 2), dtype=complex)
        y[:, block] = propagators[jumps][:, :, np.searchsorted(block, level * (N_LEVELS + 1))]
        rho = y[:, : N_LEVELS**2].reshape(-1, N_LEVELS, N_LEVELS).real
        return rho, y[:, N_LEVELS**2 :].real

    # The free decay after the pulse needs no integration: every remaining
    # trion population decays exactly once, so the post-pulse emission tail
    # equals the final trion populations.
    rho, emitted = final(GROUND_DOWN)
    mu_down = emitted[:, 0] + rho[:, TRION_DOWN, TRION_DOWN]
    rho, _ = final(GROUND_DOWN, jumps=False)
    # after the pulse the remaining trion amplitude decays away (emits)
    p_no = rho[:, GROUND_DOWN, GROUND_DOWN] + rho[:, GROUND_UP, GROUND_UP]
    mu_re = np.maximum(mu_down - (1.0 - p_no), 0.0)
    rho, emitted = final(GROUND_UP)
    mu_off = emitted[:, 1] + rho[:, TRION_UP, TRION_UP]
    return [
        ExcitationErrors(off_resonant=float(off), re_excitation=float(re),
                         incomplete_inversion=float(no))
        for off, re, no in zip(mu_off / 4.0, mu_re / 2.0, p_no / 2.0)
    ]


def optimize_pulse_duration(system, shape="square", bounds=None, n_scan=40):
    """Minimize the total per-pulse excitation error over the duration.

    The error landscape carries an oscillatory off-resonant component, so a
    geometric coarse scan brackets the global minimum before a golden-section
    refinement to relative duration tolerance ``DURATION_REL_TOL``. Every
    pulse is propagated as in ``excitation_error_probability``, from one
    generator pair built for the whole optimization. The coarse scan is one
    ``_excitation_errors`` call, so its square pulses share stacked
    exponentials.
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
    # every scanned pulse has the default carrier, so one generator pair serves them all
    generators = _generators(system, 0.0)

    def totals(durations):
        pulses = [Pulse(shape, duration) for duration in durations]
        return [errors.total for errors in _excitation_errors(generators, pulses)]

    grid = np.geomspace(lo, hi, n_scan)
    vals = totals(grid)
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
    fc, fd = totals([c, d])
    while (b - a) > DURATION_REL_TOL * (a + b) / 2.0:
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            (fc,) = totals([c])
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            (fd,) = totals([d])
    t_opt = c if fc < fd else d
    return {"duration_opt": float(t_opt), "error_min": float(min(fc, fd))}
