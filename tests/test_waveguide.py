import math

import numpy as np
import pytest

from timebinsim.params import ParamError
from timebinsim.waveguide import (
    RATE_SCALE,
    ModeField,
    ModeFieldError,
    branching_map,
    coupling_at,
    gamma_of_group_index,
    load_mode_field,
    synthetic_w1_mode,
)


def test_fixture_center_calibration():
    mode = synthetic_w1_mode(20.0)
    c = coupling_at(mode, (0.0, 0.0))
    assert 45.0 <= c.branching <= 55.0
    assert 0.95 <= c.beta_waveguide <= 0.97
    assert c.purcell_factor == pytest.approx(5.0)


def test_fixture_nodal_line():
    mode = synthetic_w1_mode(20.0)
    # the orthogonal in-plane component vanishes on y = 0
    for x in (-0.3, 0.0, 0.4):
        e = mode.interpolate((x, 0.0))
        assert abs(e[0]) < 1e-12
    # with no leak the nodal line is fully cycling
    c = coupling_at(mode, (0.2, 0.0), leak_fraction=0.0)
    assert c.branching == math.inf


def test_interpolation():
    mode = synthetic_w1_mode(20.0, points=21)
    # exact at a grid node
    e = mode.interpolate((mode.x[3], mode.y[5]))
    assert np.allclose(e, mode.field[3, 5])
    # bilinear between nodes stays within the component range
    mid = mode.interpolate((0.013, -0.27))
    assert abs(mid[1]) <= 1.0
    with pytest.raises(ModeFieldError):
        mode.interpolate((0.6, 0.0))
    # arrays of one shape give the scalar result at every point
    px = np.array([[mode.x[3], 0.013, -0.5], [0.5, 0.2, -0.31]])
    py = np.array([[mode.y[5], -0.27, 0.5], [-0.5, 0.0, 0.44]])
    grid = mode.interpolate((px, py))
    assert grid.shape == (2, 3, 3)
    for idx in np.ndindex(px.shape):
        assert np.array_equal(grid[idx], mode.interpolate((px[idx], py[idx])))
    with pytest.raises(ModeFieldError):
        mode.interpolate((px, py + 0.1))


def test_mode_field_validation():
    x = np.linspace(-0.5, 0.5, 5)
    good = np.zeros((5, 5, 3), dtype=complex)
    with pytest.raises(ModeFieldError):
        ModeField(x=x, y=x[::-1], field=good, n_g=20.0, a_nm=240.0, norm=1.0)
    with pytest.raises(ModeFieldError):
        ModeField(x=x, y=x, field=good[:4], n_g=20.0, a_nm=240.0, norm=1.0)
    with pytest.raises(ModeFieldError):
        ModeField(x=x, y=x, field=good, n_g=20.0, a_nm=240.0, norm=0.0)


@pytest.mark.parametrize("points", [0, 1])
def test_mode_field_needs_two_points_per_axis(points):
    # bilinear interpolation needs a cell, so two points per axis
    with pytest.raises(ModeFieldError, match=f"at least 2 points on x, got {points}"):
        synthetic_w1_mode(20.0, points=points)


@pytest.mark.parametrize("axis", ["x", "y"])
def test_mode_field_names_the_axis_with_one_point(axis):
    grid = {"x": np.linspace(-0.5, 0.5, 5), "y": np.linspace(-0.5, 0.5, 5)}
    grid[axis] = np.array([0.0])
    field = np.zeros((grid["x"].size, grid["y"].size, 3), dtype=complex)
    with pytest.raises(ModeFieldError, match=f"at least 2 points on {axis}, got 1"):
        ModeField(**grid, field=field, n_g=20.0, a_nm=240.0, norm=1.0)


def test_two_points_per_axis_make_a_usable_mode_field():
    mode = synthetic_w1_mode(20.0, points=2)
    assert mode.field.shape == (2, 2, 3)
    _, _, b, beta = branching_map(mode, resolution=3)
    assert np.all(np.isfinite(b)) and np.all(np.isfinite(beta))


@pytest.mark.parametrize("points", [-1, 2.5, True])
def test_synthetic_mode_point_count_must_be_a_whole_number(points):
    with pytest.raises(ModeFieldError, match="^points must be"):
        synthetic_w1_mode(20.0, points=points)


@pytest.mark.parametrize(
    "name, value",
    [("n_g", 0.0), ("n_g", -20.0), ("n_g", math.nan), ("norm", math.nan)],
)
def test_mode_field_rejects_bad_scale(name, value):
    x = np.linspace(-0.5, 0.5, 5)
    kwargs = dict(x=x, y=x, field=np.zeros((5, 5, 3)), n_g=20.0, a_nm=240.0, norm=1.0)
    kwargs[name] = value
    with pytest.raises(ModeFieldError, match=name):
        ModeField(**kwargs)


def _write_mode_file(path, header="# n_g=20 a_nm=240 norm=1", rows=None):
    if rows is None:
        rows = []
        for x in (0.0, 1.0):
            for y in (0.0, 1.0):
                rows.append(f"{x} {y} 0 0 1 0 0 0")
    path.write_text(header + "\n" + "\n".join(rows) + "\n")


def test_load_mode_field(tmp_path):
    f = tmp_path / "mode.txt"
    _write_mode_file(f)
    mode = load_mode_field(f)
    assert mode.n_g == 20.0
    assert mode.field.shape == (2, 2, 3)
    assert mode.field[0, 0, 1] == 1.0


def test_load_mode_field_errors(tmp_path):
    f = tmp_path / "mode.txt"
    _write_mode_file(f, header="# a_nm=240 norm=1")
    with pytest.raises(ModeFieldError) as err:
        load_mode_field(f)
    assert "n_g" in str(err.value)

    _write_mode_file(f, rows=["0 0 0 0 1 0 0"])
    with pytest.raises(ModeFieldError) as err:
        load_mode_field(f)
    assert ":2:" in str(err.value)  # line number in the message

    _write_mode_file(f, rows=["0 0 0 0 1 0 0 0", "0 1 0 0 1 0 0 0", "1 0 0 0 1 0 0 0"])
    with pytest.raises(ModeFieldError) as err:
        load_mode_field(f)
    assert "rectangular" in str(err.value)

    _write_mode_file(f, rows=["0 0 0 0 1 0 0 0", "0 0 0 0 1 0 0 0",
                              "0 1 0 0 1 0 0 0", "1 0 0 0 1 0 0 0"])
    with pytest.raises(ModeFieldError) as err:
        load_mode_field(f)
    assert "duplicate" in str(err.value)


def test_load_mode_field_rejects_a_single_column(tmp_path):
    f = tmp_path / "mode.txt"
    _write_mode_file(f, rows=["0 0 0 0 1 0 0 0", "0 1 0 0 1 0 0 0"])
    with pytest.raises(ModeFieldError, match="at least 2 points on x, got 1"):
        load_mode_field(f)


def test_load_mode_field_rejects_negative_group_index(tmp_path):
    f = tmp_path / "mode.txt"
    _write_mode_file(f, header="# n_g=-20 a_nm=240 norm=1")
    with pytest.raises(ModeFieldError, match="n_g"):
        load_mode_field(f)


@pytest.mark.parametrize("name", ["leak_fraction", "gamma_bulk"])
def test_coupling_at_rejects_nan_rate(name):
    mode = synthetic_w1_mode(20.0, points=11)
    with pytest.raises(ParamError, match=name):
        coupling_at(mode, (0.1, 0.2), **{name: math.nan})


def test_branching_map_rejects_nan_leak():
    mode = synthetic_w1_mode(20.0, points=11)
    with pytest.raises(ParamError, match="leak_fraction"):
        branching_map(mode, resolution=5, leak_fraction=math.nan)


def _reference_branching_map(mode, resolution, leak_fraction):
    """One scalar bilinear interpolation and coupling per grid point."""
    xs = np.linspace(mode.x[0], mode.x[-1], resolution)
    ys = np.linspace(mode.y[0], mode.y[-1], resolution)
    b = np.zeros((resolution, resolution))
    bt = np.zeros((resolution, resolution))
    f = mode.field
    for i, px in enumerate(xs):
        for j, py in enumerate(ys):
            ix = max(min(np.searchsorted(mode.x, px, side="right") - 1, mode.x.size - 2), 0)
            iy = max(min(np.searchsorted(mode.y, py, side="right") - 1, mode.y.size - 2), 0)
            tx = (px - mode.x[ix]) / (mode.x[ix + 1] - mode.x[ix])
            ty = (py - mode.y[iy]) / (mode.y[iy + 1] - mode.y[iy])
            e = (
                f[ix, iy] * (1 - tx) * (1 - ty)
                + f[ix + 1, iy] * tx * (1 - ty)
                + f[ix, iy + 1] * (1 - tx) * ty
                + f[ix + 1, iy + 1] * tx * ty
            )
            g_par = RATE_SCALE * mode.n_g * abs(e[1]) ** 2 / mode.norm
            g_perp = RATE_SCALE * mode.n_g * abs(e[0]) ** 2 / mode.norm
            total = g_par + g_perp + 2.0 * leak_fraction
            par, perp, leak = g_par / total, g_perp / total, leak_fraction / total
            b[i, j] = math.inf if perp + leak == 0.0 else (par + leak) / (perp + leak)
            bt[i, j] = par + perp
    return xs, ys, b, bt


def _random_mode():
    """Seeded random field on a non-uniform grid; Ex vanishes on the y = y[0] edge."""
    rng = np.random.default_rng(2024)
    x = np.sort(np.concatenate([[-0.5, 0.5], rng.uniform(-0.5, 0.5, 9)]))
    y = np.sort(np.concatenate([[-0.4, 0.6], rng.uniform(-0.4, 0.6, 6)]))
    field = rng.normal(size=(x.size, y.size, 3)) + 1j * rng.normal(size=(x.size, y.size, 3))
    field[:, 0, 0] = 0.0
    return ModeField(x=x, y=y, field=field, n_g=33.0, a_nm=240.0, norm=1.7)


@pytest.mark.parametrize(
    "mode, resolution, leak_fraction",
    [
        (synthetic_w1_mode(20.0), 21, 0.1),
        (synthetic_w1_mode(20.0), 201, 0.1),
        (_random_mode(), 31, 0.0),
        (_random_mode(), 31, 0.1),
        (_random_mode(), 31, 0.7),
    ],
    ids=["w1-21", "w1-201", "random-leak0", "random-leak0.1", "random-leak0.7"],
)
def test_branching_map_matches_per_point_loop(mode, resolution, leak_fraction):
    xs, ys, b, bt = branching_map(mode, resolution=resolution, leak_fraction=leak_fraction)
    rxs, rys, rb, rbt = _reference_branching_map(mode, resolution, leak_fraction)
    assert np.array_equal(xs, rxs) and np.array_equal(ys, rys)
    cycling = np.isinf(rb)
    assert cycling.any() == (leak_fraction == 0.0)
    assert np.array_equal(np.isinf(b), cycling)
    assert np.allclose(b[~cycling], rb[~cycling], rtol=1e-14, atol=0.0)
    assert np.allclose(bt, rbt, rtol=1e-14, atol=0.0)


def test_branching_map_argmax_on_nodal_line():
    mode = synthetic_w1_mode(20.0)
    xs, ys, b, bt = branching_map(mode, resolution=21)
    i, j = np.unravel_index(np.argmax(b), b.shape)
    assert ys[j] == pytest.approx(0.0, abs=1e-12)
    assert b[i, j] == b.max()
    assert bt.max() <= 1.0
    with pytest.raises(ParamError):
        branching_map(mode, resolution=1)


@pytest.mark.parametrize("resolution", [4.9, 5.0, True, "5"])
def test_map_resolution_must_be_a_whole_number(resolution):
    with pytest.raises(ParamError, match="resolution"):
        branching_map(synthetic_w1_mode(20.0), resolution=resolution)


def test_branching_map_fully_cycling_is_inf():
    mode = synthetic_w1_mode(20.0, points=11)
    _, ys, b, _ = branching_map(mode, resolution=11, leak_fraction=0.0)
    j0 = int(np.argmin(np.abs(ys)))
    assert np.isinf(b[:, j0]).all()


def test_gamma_lookup():
    assert gamma_of_group_index(20.0) == (3.2, False)
    assert gamma_of_group_index(56.0) == (5.3, False)
    mid = gamma_of_group_index(35.0)
    assert not mid.extrapolated
    assert 3.2 < mid.value < 5.3
    out = gamma_of_group_index(100.0)
    assert out.extrapolated
    assert out.value > 5.3
    low = gamma_of_group_index(10.0)
    assert low.extrapolated
    assert low.value < 3.2
    with pytest.raises(ParamError):
        gamma_of_group_index(-1.0)
