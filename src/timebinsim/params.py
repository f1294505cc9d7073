"""Physical parameters, unit conventions, and closed-form scalar quantities.

Unit conventions used throughout the package:

* rates (gamma, gamma_d, gamma_bulk) in 1/ns,
* detunings and splittings as angular frequencies in rad/ns, so a quoted
  detuning of "2*pi x 16 GHz" is stored as ``2*pi*16`` rad/ns,
* times in ns, magnetic field in Tesla,
* efficiencies and branching weights dimensionless.

With these conventions the ratio ``gamma/delta`` entering the first-order
error budget is dimensionless and can be formed directly.
"""
from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, replace
from functools import lru_cache

# Bohr magneton over Planck constant, GHz per Tesla (CODATA, rounded).
# This is the single place the constant is defined.
MU_B_OVER_H_GHZ_PER_T = 13.996


class ParamError(ValueError):
    """A physical-parameter invariant is violated; message names the field."""


def _whole(name, value, least, error=ParamError):
    """``value`` as an int; ``error`` naming ``name`` unless an integer >= least."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise error(f"{name} must be an integer, got {value!r}")
    if value < least:
        raise error(f"{name} must be >= {least}, got {value}")
    return int(value)


@lru_cache(maxsize=None)
def _interval(text):
    """Closed float ends of an interval such as "(0, 1]" or "[0, 2pi)".

    An open end becomes the adjacent float inside it, so one ``low <= x <= high``
    tests the interval: NaN fails it, and so does infinity unless written "inf]".
    """
    low, high = (float(end.replace("2pi", repr(2.0 * math.pi))) for end in text[1:-1].split(","))
    low = low if text[0] == "[" else math.nextafter(low, math.inf)
    high = high if text[-1] == "]" else math.nextafter(high, -math.inf)
    return low, high


def _real(*checks, error=ParamError):
    """The bounds check of every real-valued input: one ``error`` naming each bad
    ``(name, value, interval)`` as ``<name> must be finite and in <interval>, got <value>``."""
    problems = []
    for name, value, interval in checks:
        low, high = _interval(interval)
        if not low <= value <= high:
            within = "" if interval == "(-inf, inf)" else f" and in {interval}"
            problems.append(f"{name} must be finite{within}, got {value}")
    if problems:
        raise error("; ".join(problems))


def _real_fields(obj, error=ParamError):
    """``_real`` on the attributes that ``type(obj)._BOUNDS`` maps to intervals."""
    _real(*((n, getattr(obj, n), iv) for n, iv in type(obj)._BOUNDS.items()), error=error)


@dataclass(frozen=True)
class PhysicalParams:
    """All emitter/photonics scalars of the architecture.

    gamma        decay rate of the vertical transition, 1/ns
    gamma_d      pure-dephasing rate, 1/ns
    delta        detuning of the off-resonant trion transition, rad/ns
    branching    branching parameter B >= 0 (vertical over diagonal weight)
    eta          outcoupling/detection efficiency, in [0, 1]
    t_cycle      protocol cycle length, ns
    t2_star      inhomogeneous spin dephasing time, ns
    t2           echo spin coherence time, ns
    g_factor     |g| = |g_e| + |g_h|, dimensionless
    b_field      magnetic field, Tesla
    n_g          group index of the waveguide mode, dimensionless
    gamma_bulk   bulk decay rate, 1/ns
    """

    gamma: float
    gamma_d: float
    delta: float
    branching: float
    eta: float
    t_cycle: float
    t2_star: float
    t2: float
    g_factor: float
    b_field: float
    n_g: float
    gamma_bulk: float = 1.0

    _BOUNDS = {"gamma": "(0, inf)", "gamma_d": "[0, inf)", "delta": "(0, inf)",
               "branching": "[0, inf)", "eta": "[0, 1]", "t_cycle": "(0, inf)",
               "t2_star": "(0, inf)", "t2": "(0, inf)", "g_factor": "(0, inf)",
               "b_field": "[0, inf)", "n_g": "(0, inf)", "gamma_bulk": "(0, inf)"}

    def __post_init__(self):
        _real_fields(self)


@dataclass(frozen=True)
class BranchingBetas:
    """Decay-path probabilities of the trion.

    beta_par        vertical decay into the waveguide mode
    beta_perp       diagonal decay into the waveguide mode
    beta_par_leak   vertical decay out of the waveguide
    beta_perp_leak  diagonal decay out of the waveguide

    The four weights must be in [0, 1] and sum to one.
    """

    beta_par: float
    beta_perp: float
    beta_par_leak: float
    beta_perp_leak: float

    _BOUNDS = dict.fromkeys(("beta_par", "beta_perp", "beta_par_leak", "beta_perp_leak"), "[0, 1]")

    def __post_init__(self):
        _real_fields(self)
        s = self.beta_par + self.beta_perp + self.beta_par_leak + self.beta_perp_leak
        if abs(s - 1.0) > 1e-12:
            raise ParamError(f"beta weights must sum to 1, got {s!r}")


def indistinguishability(gamma, gamma_d):
    """Wavepacket overlap of successively emitted photons, gamma/(gamma+2*gamma_d)."""
    _real(("gamma", gamma, "(0, inf)"), ("gamma_d", gamma_d, "[0, inf)"))
    return gamma / (gamma + 2.0 * gamma_d)


def gamma_d_for_indistinguishability(gamma, target_i):
    """Dephasing rate that yields exactly the given indistinguishability."""
    _real(("gamma", gamma, "(0, inf)"), ("indistinguishability", target_i, "(0, 1]"))
    return gamma * (1.0 - target_i) / (2.0 * target_i)


def zeeman_detuning(g_factor, b_field):
    """Zeeman splitting 2*pi * |g| * (mu_B/h) * B in rad/ns."""
    _real(("g_factor", g_factor, "(0, inf)"), ("b_field", b_field, "[0, inf)"))
    return 2.0 * math.pi * g_factor * MU_B_OVER_H_GHZ_PER_T * b_field


def branching_from_betas(betas):
    """Branching ratio (beta_par + beta_par_leak) / (beta_perp + beta_perp_leak).

    Returns ``math.inf`` (fully cycling) when the diagonal weight vanishes.
    """
    num = betas.beta_par + betas.beta_par_leak
    den = betas.beta_perp + betas.beta_perp_leak
    return math.inf if den == 0.0 else num / den


def betas_from_branching(branching, beta_total=1.0):
    """Build BranchingBetas consistent with a branching ratio B.

    ``beta_total`` is the summed into-waveguide weight beta_par + beta_perp;
    the remaining 1 - beta_total leaks out of the waveguide, split between
    the vertical and diagonal leak channels in proportion to their decay
    weights so that the overall vertical weight stays at B/(B+1), which is
    exactly 1 for a fully cycling emitter (B = ``math.inf``).
    """
    _real(("branching", branching, "[0, inf]"), ("beta_total", beta_total, "[0, 1]"))
    p_vert = 1.0 if branching == math.inf else branching / (branching + 1.0)
    leak = 1.0 - beta_total
    return BranchingBetas(
        beta_par=p_vert * beta_total,
        beta_perp=(1.0 - p_vert) * beta_total,
        beta_par_leak=p_vert * leak,
        beta_perp_leak=(1.0 - p_vert) * leak,
    )


def _make_presets():
    # gamma_d in each preset is chosen so the indistinguishability is exactly
    # the headline value (0.96 / 0.98); the independently quoted 0.06 1/ns
    # dephasing rate rounds to the same numbers.
    reference = PhysicalParams(
        gamma=3.2,
        gamma_d=gamma_d_for_indistinguishability(3.2, 0.96),
        delta=2.0 * math.pi * 16.0,
        branching=15.0,
        eta=0.84,
        t_cycle=27.0,
        t2_star=2.0,
        t2=2700.0,
        g_factor=0.6,
        b_field=2.0,
        n_g=20.0,
    )
    improved = replace(
        reference,
        gamma=5.3,
        gamma_d=gamma_d_for_indistinguishability(5.3, 0.98),
        delta=2.0 * math.pi * 64.0,
        branching=140.0,
        n_g=56.0,
    )
    ideal = replace(
        reference,
        gamma_d=0.0,
        delta=1e12,
        branching=1e12,
        eta=1.0,
        t2=1e12,
        t2_star=1e12,
    )
    return {"reference": reference, "improved": improved, "ideal": ideal}


PRESETS = _make_presets()


def preset(name):
    """Named parameter set: 'reference', 'improved', or 'ideal'."""
    try:
        return PRESETS[name]
    except KeyError:
        raise ParamError(f"unknown preset {name!r}; choose from {sorted(PRESETS)}")
