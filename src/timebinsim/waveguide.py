"""Beta-factors, branching-ratio maps and Purcell-enhanced decay rates.

Works on gridded complex mode fields of a photonic-crystal waveguide unit
cell. The quantitative field data of real structures is not shipped; a
calibrated synthetic fixture stands in, built so that an emitter at the
cell center with group index 20 reaches a branching ratio near 50 and an
internal efficiency near 96% (leak fraction 0.1 per dipole, dominant-
component waveguide rate 4.8x the bulk rate at the center).
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .params import BranchingBetas, _real, _real_fields, _whole, branching_from_betas

# Waveguide-rate calibration: gamma_wg = RATE_SCALE * n_g * |E|^2 / norm
# * gamma_bulk, with RATE_SCALE chosen so the synthetic fixture center at
# n_g = 20 gives 4.8 * gamma_bulk on the dominant component.
RATE_SCALE = 0.24

DEFAULT_GAMMA_TABLE = {20.0: 3.2, 56.0: 5.3}


class ModeFieldError(ValueError):
    """Malformed or inconsistent mode-field data."""


@dataclass(frozen=True)
class ModeField:
    """Complex electric field on a regular grid over one unit cell.

    ``x`` and ``y`` are strictly increasing coordinates in units of the
    lattice constant, at least two per axis; ``field`` has shape (nx, ny, 3)
    holding (Ex, Ey, Ez).
    """

    x: np.ndarray
    y: np.ndarray
    field: np.ndarray
    n_g: float
    a_nm: float
    norm: float

    _BOUNDS = dict.fromkeys(("n_g", "a_nm", "norm"), "(0, inf)")

    def __post_init__(self):
        x = np.asarray(self.x, dtype=float)
        y = np.asarray(self.y, dtype=float)
        f = np.asarray(self.field, dtype=complex)
        if x.ndim != 1 or y.ndim != 1:
            raise ModeFieldError("grid coordinates must be 1-D")
        for axis, c in (("x", x), ("y", y)):
            if c.size < 2:
                raise ModeFieldError(f"grid needs at least 2 points on {axis}, got {c.size}")
        if np.any(np.diff(x) <= 0) or np.any(np.diff(y) <= 0):
            raise ModeFieldError("grid must be strictly increasing on both axes")
        if f.shape != (x.size, y.size, 3):
            raise ModeFieldError(
                f"field shape {f.shape} does not match grid ({x.size}, {y.size}, 3)"
            )
        if not np.all(np.isfinite(f.view(float))):
            raise ModeFieldError("field contains non-finite entries")
        _real_fields(self, ModeFieldError)
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "y", y)
        object.__setattr__(self, "field", f)

    def interpolate(self, position):
        """Bilinear (Ex, Ey, Ez) at ``(x, y)``, scalars or arrays of one shape."""
        px, py = (np.asarray(c, dtype=float) for c in position)
        inside = (self.x[0] <= px) & (px <= self.x[-1]) & (self.y[0] <= py) & (py <= self.y[-1])
        if not np.all(inside):
            raise ModeFieldError(f"position {position} outside the grid")
        ix = np.clip(np.searchsorted(self.x, px, side="right") - 1, 0, self.x.size - 2)
        iy = np.clip(np.searchsorted(self.y, py, side="right") - 1, 0, self.y.size - 2)
        tx = ((px - self.x[ix]) / (self.x[ix + 1] - self.x[ix]))[..., None]
        ty = ((py - self.y[iy]) / (self.y[iy + 1] - self.y[iy]))[..., None]
        f = self.field
        return (
            f[ix, iy] * (1 - tx) * (1 - ty)
            + f[ix + 1, iy] * tx * (1 - ty)
            + f[ix, iy + 1] * (1 - tx) * ty
            + f[ix + 1, iy + 1] * tx * ty
        )


@dataclass(frozen=True)
class EmitterCoupling:
    betas: BranchingBetas
    gamma_total: float
    purcell_factor: float

    @property
    def branching(self):
        return branching_from_betas(self.betas)

    @property
    def beta_waveguide(self):
        """Total coupling efficiency into the waveguide mode."""
        return self.betas.beta_par + self.betas.beta_perp


def load_mode_field(path):
    """Read a mode field from the documented text format.

    ``#``-prefixed header lines carry ``n_g=<float>``, ``a_nm=<float>`` and
    ``norm=<float>``; data lines are ``x y ReEx ImEx ReEy ImEy ReEz ImEz``,
    row-major over the grid.
    """
    header = {}
    xs, ys, rows = [], [], []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line:
                continue
            if line.startswith("#"):
                for token in line[1:].replace(",", " ").split():
                    if "=" in token:
                        key, _, val = token.partition("=")
                        try:
                            header[key.strip()] = float(val)
                        except ValueError:
                            raise ModeFieldError(
                                f"{path}:{lineno}: bad header value in {token!r}"
                            )
                continue
            parts = line.split()
            if len(parts) != 8:
                names = ["x", "y", "ReEx", "ImEx", "ReEy", "ImEy", "ReEz", "ImEz"]
                missing = names[len(parts)] if len(parts) < 8 else None
                raise ModeFieldError(
                    f"{path}:{lineno}: expected 8 columns, got {len(parts)}"
                    + (f" (missing {missing})" if missing else "")
                )
            try:
                vals = [float(p) for p in parts]
            except ValueError:
                raise ModeFieldError(f"{path}:{lineno}: non-numeric entry")
            xs.append(vals[0])
            ys.append(vals[1])
            rows.append(
                [complex(vals[2], vals[3]), complex(vals[4], vals[5]), complex(vals[6], vals[7])]
            )
    for key in ("n_g", "a_nm", "norm"):
        if key not in header:
            raise ModeFieldError(f"{path}: header is missing {key}")
    x_axis = sorted(set(xs))
    y_axis = sorted(set(ys))
    if len(x_axis) * len(y_axis) != len(rows):
        raise ModeFieldError(f"{path}: grid is not rectangular")
    field = np.zeros((len(x_axis), len(y_axis), 3), dtype=complex)
    xi = {v: i for i, v in enumerate(x_axis)}
    yi = {v: i for i, v in enumerate(y_axis)}
    seen = set()
    for x, y, row in zip(xs, ys, rows):
        key = (xi[x], yi[y])
        if key in seen:
            raise ModeFieldError(f"{path}: duplicate grid point ({x}, {y})")
        seen.add(key)
        field[key[0], key[1]] = row
    return ModeField(
        x=np.array(x_axis),
        y=np.array(y_axis),
        field=field,
        n_g=header["n_g"],
        a_nm=header["a_nm"],
        norm=header["norm"],
    )


def synthetic_w1_mode(n_g, points=41):
    """Analytic stand-in for a W1-like waveguide mode over one unit cell.

    The dominant transverse component (Ey) has an antinode at the cell
    center; the orthogonal in-plane component (Ex) has a nodal line through
    the center (y = 0), so the branching ratio peaks there.
    """
    points = _whole("points", points, 0, error=ModeFieldError)
    x = np.linspace(-0.5, 0.5, points)
    y = np.linspace(-0.5, 0.5, points)
    gx, gy = np.meshgrid(x, y, indexing="ij")
    ey = np.cos(math.pi * gx) * np.cos(math.pi * gy)
    ex = 0.9 * np.sin(math.pi * gy) * np.cos(math.pi * gx)
    field = np.zeros((points, points, 3), dtype=complex)
    field[:, :, 0] = ex
    field[:, :, 1] = ey
    return ModeField(x=x, y=y, field=field, n_g=float(n_g), a_nm=240.0, norm=1.0)


def _decay_weights(mode, px, py, gamma_bulk, leak_fraction):
    """Decay weights (par, perp, leak per dipole) and total rate at x = px, y in py.

    The vertical dipole projects on the dominant transverse component (Ey),
    the diagonal dipole on the orthogonal in-plane component (Ex); each
    waveguide rate scales as n_g |E|^2. Leak rates out of the waveguide are
    ``leak_fraction * gamma_bulk`` per dipole.
    """
    _real(("gamma_bulk", gamma_bulk, "(0, inf)"), ("leak_fraction", leak_fraction, "[0, inf)"))
    e = mode.interpolate((px, py))
    g_par = RATE_SCALE * mode.n_g * np.abs(e[..., 1]) ** 2 / mode.norm * gamma_bulk
    g_perp = RATE_SCALE * mode.n_g * np.abs(e[..., 0]) ** 2 / mode.norm * gamma_bulk
    g_leak = leak_fraction * gamma_bulk
    total = g_par + g_perp + 2.0 * g_leak
    zero = total <= 0
    if np.any(zero):
        raise ModeFieldError(f"zero total decay rate at ({px}, {np.asarray(py)[zero][0]})")
    return g_par / total, g_perp / total, g_leak / total, total


def coupling_at(mode, position, gamma_bulk=1.0, leak_fraction=0.1):
    """Decay channels of the two in-plane linear dipoles at a position."""
    par, perp, leak, total = _decay_weights(mode, *position, gamma_bulk, leak_fraction)
    return EmitterCoupling(
        BranchingBetas(par, perp, leak, leak), gamma_total=total, purcell_factor=total / gamma_bulk
    )


def branching_map(mode, resolution=21, leak_fraction=0.1):
    """B and beta_total on a uniform grid over the cell, one row (one x, all y) at a time.

    Both are ratios of rates, so the bulk rate cancels. Returns (x, y, B,
    beta_total) arrays; B is +inf where fully cycling.
    """
    resolution = _whole("resolution", resolution, 2)
    xs = np.linspace(mode.x[0], mode.x[-1], resolution)
    ys = np.linspace(mode.y[0], mode.y[-1], resolution)
    b = np.empty((resolution, resolution))
    bt = np.empty((resolution, resolution))
    for i, px in enumerate(xs):
        par, perp, leak, _ = _decay_weights(mode, px, ys, 1.0, leak_fraction)
        with np.errstate(divide="ignore"):
            b[i] = (par + leak) / (perp + leak)
        bt[i] = par + perp
    return xs, ys, b, bt


class GammaResult(NamedTuple):
    value: float
    extrapolated: bool


def gamma_of_group_index(n_g):
    """Purcell-enhanced decay rate for a group index, from DEFAULT_GAMMA_TABLE.

    Exact at table entries, log-log linear between them; outside the table
    hull the nearest segment extrapolates and the result is flagged.
    """
    _real(("n_g", n_g, "(0, inf)"))
    if n_g in DEFAULT_GAMMA_TABLE:
        return GammaResult(DEFAULT_GAMMA_TABLE[n_g], extrapolated=False)
    keys = sorted(DEFAULT_GAMMA_TABLE)
    logs = np.log(keys)
    vals = np.log([DEFAULT_GAMMA_TABLE[k] for k in keys])
    ln = math.log(n_g)
    # segment holding n_g, or the nearest end segment outside the table
    i = min(max(int(np.searchsorted(logs, ln, side="right")) - 1, 0), len(keys) - 2)
    slope = (vals[i + 1] - vals[i]) / (logs[i + 1] - logs[i])
    extrapolated = not (keys[0] <= n_g <= keys[-1])
    return GammaResult(math.exp(vals[i] + slope * (ln - logs[i])), extrapolated)
