import numpy as np
import pytest

from timebinsim.params import FULLY_CYCLING, ParamError
from timebinsim.waveguide import (
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
    assert c.branching is FULLY_CYCLING


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


def test_mode_field_validation():
    x = np.linspace(-0.5, 0.5, 5)
    good = np.zeros((5, 5, 3), dtype=complex)
    with pytest.raises(ModeFieldError):
        ModeField(x=x, y=x[::-1], field=good, n_g=20.0, a_nm=240.0, norm=1.0)
    with pytest.raises(ModeFieldError):
        ModeField(x=x, y=x, field=good[:4], n_g=20.0, a_nm=240.0, norm=1.0)
    with pytest.raises(ModeFieldError):
        ModeField(x=x, y=x, field=good, n_g=20.0, a_nm=240.0, norm=0.0)


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


def test_branching_map_argmax_on_nodal_line():
    mode = synthetic_w1_mode(20.0)
    xs, ys, b, bt = branching_map(mode, resolution=21)
    i, j = np.unravel_index(np.argmax(b), b.shape)
    assert ys[j] == pytest.approx(0.0, abs=1e-12)
    assert b[i, j] == b.max()
    assert bt.max() <= 1.0
    with pytest.raises(ParamError):
        branching_map(mode, resolution=1)


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
