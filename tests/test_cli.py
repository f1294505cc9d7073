import csv
import hashlib
import json
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from timebinsim import cli
from timebinsim.cli import (
    ConfigError,
    ScenarioConfig,
    SweepAxis,
    build_config,
    main,
    parse_config,
    run_scenario,
    write_result,
)
from timebinsim.waveguide import synthetic_w1_mode


def test_sweep_axis_validation():
    with pytest.raises(ConfigError):
        SweepAxis(name="delta", lo=10.0, hi=5.0, points=4)
    with pytest.raises(ConfigError):
        SweepAxis(name="delta", lo=1.0, hi=2.0, points=1)
    with pytest.raises(ConfigError):
        SweepAxis(name="delta", lo=1.0, hi=2.0, points=4, scale="cubic")
    with pytest.raises(ConfigError):
        SweepAxis(name="delta", lo=-1.0, hi=2.0, points=4, scale="log")
    for points in (2.5, "3"):
        with pytest.raises(ConfigError, match="^sweep_points must be an integer"):
            SweepAxis(name="delta", lo=1.0, hi=2.0, points=points)
    vals = SweepAxis(name="delta", lo=1.0, hi=8.0, points=4, scale="log").values()
    assert list(vals) == pytest.approx([1.0, 2.0, 4.0, 8.0])


def test_config_validation():
    with pytest.raises(ConfigError):
        ScenarioConfig(scenario="not_registered")
    with pytest.raises(ConfigError):
        ScenarioConfig(scenario="photon_scaling", photons=(0, 2))
    with pytest.raises(ConfigError):
        build_config({"scenario": "echo_demo"}, scenario="photon_scaling")
    with pytest.raises(ConfigError, match="scenario echo_demo: n_photon$"):
        build_config({"scenario": "echo_demo", "n_photon": 3})


@pytest.mark.parametrize(
    "photons, message",
    [
        ((2.7,), "photons must be an integer, got 2.7"),
        ((True,), "photons must be an integer, got True"),
        (("a",), "photons must be an integer, got 'a'"),
        ((3, 0), "photons must be >= 1, got 0"),
    ],
    ids=["float", "bool", "text", "zero"],
)
def test_photon_numbers_must_be_whole_numbers_of_at_least_one(photons, message):
    with pytest.raises(ConfigError, match=f"^{message}$"):
        ScenarioConfig(scenario="photon_scaling", photons=photons)


def test_parse_config_rejects_duplicate_key(tmp_path):
    cfg = tmp_path / "dup.cfg"
    cfg.write_text("scenario = photon_scaling\nphotons = 1,2\nseed = 3\nphotons = 4\n")
    with pytest.raises(ConfigError) as err:
        parse_config(cfg)
    msg = str(err.value)
    assert f"{cfg}:4:" in msg and "'photons'" in msg and "line 2" in msg


def test_parse_config_rejects_a_line_without_equals(tmp_path):
    cfg = tmp_path / "colon.cfg"
    cfg.write_text("scenario = photon_scaling\nphotons : 4\n")
    with pytest.raises(ConfigError, match=f"^{cfg}:2: expected 'key = value'"):
        parse_config(cfg)


def test_parse_config_counts_comment_lines_in_duplicate_key_errors(tmp_path):
    cfg = tmp_path / "dup.cfg"
    cfg.write_text("param.gamma = 4.0\n# comment\n\nparam.gamma = 5.0\n")
    with pytest.raises(ConfigError) as err:
        parse_config(cfg, scenario="photon_scaling")
    msg = str(err.value)
    assert f"{cfg}:4:" in msg and "'param.gamma'" in msg and "line 1" in msg


def test_parse_config_ignores_comments_and_blank_lines(tmp_path):
    cfg = tmp_path / "params.cfg"
    cfg.write_text("preset = improved\nparam.gamma = 4.0  # override\n\nparam.b_field = 1.5\n")
    p = parse_config(cfg, scenario="photon_scaling").params()
    assert p.gamma == 4.0
    assert p.b_field == 1.5
    assert p.branching == 140.0  # from the improved preset


def test_parse_config(tmp_path):
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text(
        "scenario = detuning_sweep\n"
        "preset = improved\n"
        "param.gamma = 4.5\n"
        "photons = 1,3\n"
        "seed = 7\n"
        "sweep_name = delta\nsweep_min = 8\nsweep_max = 64\nsweep_points = 3\nsweep_scale = log\n"
        "n_g_list = 20,56\n"
    )
    config = parse_config(cfg)
    assert config.preset_name == "improved"
    assert config.overrides == {"gamma": 4.5}
    assert config.photons == (1, 3)
    assert config.rng_seed == 7
    assert config.sweep.scale == "log"
    assert config.options["n_g_list"] == (20, 56)
    assert config.params().gamma == 4.5


def test_detuning_sweep_rows():
    config = build_config(
        {
            "scenario": "detuning_sweep",
            "preset": "improved",
            "photons": (1, 3),
            "sweep_name": "delta",
            "sweep_min": 8,
            "sweep_max": 64,
            "sweep_points": 4,
            "n_g_list": (20, 56),
        }
    )
    rows = run_scenario(config)
    assert len(rows) == 2 * 4 * 2
    for row in rows:
        assert row["total_first_order"] == pytest.approx(
            row["e_ph"] + row["e_exc"] + row["e_br"]
        )
        assert row["asymptote"] == pytest.approx(row["e_ph"] + row["e_br"])
    # total decreases monotonically with detuning at fixed (n_g, N)
    series = [
        r["total_first_order"]
        for r in rows
        if r["n_g"] == 56 and r["n_photons"] == 3
    ]
    assert series == sorted(series, reverse=True)


def test_detuning_sweep_rejects_group_index_outside_gamma_table():
    config = build_config({"scenario": "detuning_sweep", "n_g_list": (10, 80)})
    with pytest.raises(ConfigError, match="n_g_list entry 10.0"):
        run_scenario(config)


def test_detuning_sweep_rejects_bad_axis():
    config = build_config(
        {
            "scenario": "detuning_sweep",
            "sweep_name": "eta",
            "sweep_min": 0.1,
            "sweep_max": 0.9,
            "sweep_points": 3,
        }
    )
    with pytest.raises(ConfigError):
        run_scenario(config)


def test_photon_scaling_ideal_numeric():
    config = build_config(
        {"scenario": "photon_scaling", "preset": "ideal", "photons": (1, 2, 3)}
    )
    rows = run_scenario(config)
    for row in rows:
        assert row["numeric_infidelity"] < 1e-8
    config = build_config({"scenario": "photon_scaling", "photons": (1,), "numeric": False})
    assert "numeric_infidelity" not in run_scenario(config)[0]


def test_photon_scaling_runs_beyond_the_dense_cap(tmp_path):
    cfg = tmp_path / "c.cfg"
    cfg.write_text("photons = 11,100\nnumeric = true\nkind = cluster\n")
    out = tmp_path / "out.csv"
    assert main(["photon_scaling", "--config", str(cfg), "--out", str(out)]) == 0
    rows = list(csv.DictReader(out.read_text().splitlines()[2:]))
    assert [int(r["n_photons"]) for r in rows] == [11, 100]
    for r in rows:
        for key in ("numeric_infidelity", "success_probability"):
            assert 0.0 < float(r[key]) < 1.0, key


def test_echo_demo_columns():
    config = build_config(
        {
            "scenario": "echo_demo",
            "sigma_list": (0.0, 0.02),
            "n_photons": 2,
            "sample_count": 12,
        }
    )
    rows = run_scenario(config)
    assert rows[0]["fidelity_echo"] == rows[0]["fidelity_no_echo"]
    assert rows[1]["fidelity_echo"] == pytest.approx(
        rows[0]["fidelity_echo"], abs=1e-6
    )
    assert rows[1]["fidelity_no_echo"] < rows[1]["fidelity_echo"]


def test_echo_demo_default_rows_are_pinned(tmp_path):
    # rows of the default configuration (reference preset, 1 photon, 40
    # samples, seed 0); the no-echo column follows the shift stream, drawn
    # as one array, and the echo column is the noise-free value
    out = tmp_path / "echo.csv"
    assert main(["echo_demo", "--out", str(out)]) == 0
    assert out.read_text().splitlines()[2:] == [
        "sigma_overhauser,fidelity_echo,fidelity_no_echo",
        "0,0.94455184139,0.94455184139",
        "0.25,0.94455184139,0.497717751339",
        "0.5,0.94455184139,0.386345179063",
        "0.707106781187,0.94455184139,0.412704252493",
    ]


def test_photon_scaling_default_rows_are_pinned(tmp_path):
    # rows of the default configuration (reference preset, GHZ, N = 1, 2, 3),
    # fixed before noise-free preset runs moved onto the phase-split path
    out = tmp_path / "scaling.csv"
    assert main(["photon_scaling", "--out", str(out)]) == 0
    assert out.read_text().splitlines()[2:] == [
        "n_photons,e_ph,e_exc,e_br,total_first_order,rate_mhz,numeric_infidelity,"
        "success_probability",
        "1,0.02,0.0216506350946,0.015625,0.0572756350946,31.1111111111,0.0554481586095,"
        "0.966796875",
        "2,0.04,0.0433012701892,0.046875,0.130176270189,13.0666666667,0.120374346848,"
        "0.933837890625",
        "3,0.06,0.0649519052838,0.078125,0.203076905284,7.31733333333,0.179787899757,"
        "0.901222229004",
    ]


def test_pulse_optimization_default_rows_are_pinned(tmp_path):
    # rows of the default configuration (square pulse, delta/gamma = 30, 100,
    # 300), fixed before the optimizer shared one generator pair per run
    out = tmp_path / "pulse.csv"
    assert main(["pulse_optimization", "--out", str(out)]) == 0
    assert out.read_text().splitlines()[2:] == [
        "delta_over_gamma,duration_opt,error_min,coefficient",
        "30,0.180986393532,0.0176958992118,0.530876976354",
        "100,0.054381477559,0.00538650457896,0.538650457896",
        "300,0.0181359722994,0.0018029718868,0.540891566041",
    ]


def test_branching_map_default_rows_are_pinned(tmp_path):
    # rows of the default configuration (fixture at n_g = 20, 21 x 21 grid,
    # leak fraction 0.1), fixed before the map moved onto blocks of rows:
    # the diagonal, one row in 110, and a digest of all 442 lines
    out = tmp_path / "map.csv"
    assert main(["branching_map", "--out", str(out)]) == 0
    lines = out.read_text().splitlines()[2:]
    assert len(lines) == 442
    assert lines[0:2] + lines[111::110] == [
        "x,y,B,beta_total,branching_infidelity",
        "-0.5,-0.5,1,7.28883254374e-32,0.125",
        "-0.25,-0.25,1.21268656716,0.91568296796,0.112984822934",
        "0,0,49,0.96,0.005",
        "0.25,0.25,1.21268656716,0.91568296796,0.112984822934",
        "0.5,0.5,1,7.28883254374e-32,0.125",
    ]
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == "0efb7ccbbdfc4915531ff6bab05ab7f1d35d7263ca67ae2a2b3deadd559134dd"


def test_branching_map_scenario():
    config = build_config(
        {"scenario": "branching_map", "n_g": 20, "resolution": 11}
    )
    rows = run_scenario(config)
    assert len(rows) == 121
    center = [r for r in rows if r["x"] == 0.0 and r["y"] == 0.0][0]
    assert center["B"] == pytest.approx(49.0)
    assert center["branching_infidelity"] < 0.01


def test_write_result_determinism(tmp_path):
    config = build_config(
        {"scenario": "branching_map", "n_g": 20, "resolution": 5}
    )
    rows = run_scenario(config)
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    write_result(rows, config, a)
    write_result(run_scenario(config), config, b)
    assert a.read_bytes() == b.read_bytes()
    manifest = json.loads((tmp_path / "a.csv.manifest.json").read_text())
    assert manifest["n_rows"] == 25
    assert manifest["config"]["scenario"] == "branching_map"


def test_main_success_and_failure(tmp_path, capsys):
    cfg = tmp_path / "c.cfg"
    cfg.write_text("n_g = 20\nresolution = 5\n")
    out = tmp_path / "map.csv"
    code = main(["branching_map", "--config", str(cfg), "--out", str(out)])
    assert code == 0
    assert out.exists()
    header = out.read_text().splitlines()[2]
    assert header == "x,y,B,beta_total,branching_infidelity"

    code = main(["branching_map", "--config", str(tmp_path / "missing.cfg")])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err.startswith("error:")


def test_pulse_optimization_scenario():
    config = build_config(
        {"scenario": "pulse_optimization", "delta_over_gamma": (30,)}
    )
    rows = run_scenario(config)
    row = rows[0]
    assert 0.48 < row["coefficient"] < 0.88
    assert row["coefficient"] == pytest.approx(row["error_min"] * 30.0)


@pytest.mark.parametrize(
    "scenario, text, key",
    [
        ("detuning_sweep", "sweep_name = delta\nsweep_max = 64\nsweep_points = 3\n", "sweep_min"),
        ("photon_scaling", "param.foo = 1\n", "param.foo"),
        ("photon_scaling", "param.gamma = fast\n", "param.gamma"),
        ("photon_scaling", "kind = foo\n", "kind"),
        ("echo_demo", "n_photons = three\n", "n_photons"),
        ("echo_demo", "n_photon = 3\n", "n_photon"),
        ("photon_scaling", "numeric = no\n", "numeric"),
        (
            "photon_scaling",
            "sweep_name = delta\nsweep_min = 1\nsweep_max = 2\nsweep_points = 3\n",
            "sweep_name",
        ),
        ("branching_map", "photons = 7\n", "photons"),
        ("pulse_optimization", "preset = improved\n", "preset"),
        ("photon_scaling", "photons = ,\n", "photons"),
        ("detuning_sweep", "sweep_min = 1\n", "sweep_name"),
        ("photon_scaling", "photons = 2.7\nnumeric = false\n", "photons"),
        ("branching_map", "resolution = 4.9\n", "resolution"),
        ("branching_map", "resolution = true\n", "resolution"),
        ("echo_demo", "n_photons = 2.0\n", "n_photons"),
        ("echo_demo", "sample_count = 4.5\n", "sample_count"),
        ("photon_scaling", "seed = 1.5\nnumeric = false\n", "seed"),
        (
            "detuning_sweep",
            "sweep_name = delta\nsweep_min = 1\nsweep_max = 2\nsweep_points = 3.5\n",
            "sweep_points",
        ),
        (
            "detuning_sweep",
            "sweep_name = delta\nsweep_min = 1\nsweep_max = 2\nsweep_points = 1\n",
            "sweep_points",
        ),
        (
            "detuning_sweep",
            "sweep_name = delta\nsweep_min = 1\nsweep_max = 2\nsweep_points = 3\nsweep_scale = 7\n",
            "sweep_scale",
        ),
        (
            "detuning_sweep",
            "sweep_name = foo\nsweep_min = 1\nsweep_max = 2\nsweep_points = 3\n",
            "sweep_name",
        ),
        (
            "detuning_sweep",
            "sweep_name = delta\nsweep_min = 2\nsweep_max = 1\nsweep_points = 3\n",
            "sweep_min must be below sweep_max",
        ),
        (
            "detuning_sweep",
            "sweep_name = b_field\nsweep_min = 0\nsweep_max = 1\nsweep_points = 3\nsweep_scale = log\n",
            "sweep_min must be > 0",
        ),
        # echo_demo runs one photon number, read from n_photons only
        ("echo_demo", "photons = 2\n", "photons"),
        # text keys take text only: out = 1 would name file descriptor 1 (stdout),
        # mode_source = 0 stdin
        ("photon_scaling", "out = 1\n", "out"),
        ("branching_map", "mode_source = 0\n", "mode_source"),
        ("photon_scaling", "preset = 3\n", "preset"),
        ("pulse_optimization", "shape = 2\n", "shape"),
        (
            "detuning_sweep",
            "sweep_name = 5\nsweep_min = 1\nsweep_max = 2\nsweep_points = 3\n",
            "sweep_name",
        ),
        ("photon_scaling", "seed = -3\n", "seed"),
        # every option is checked before any work: a count no sigma reaches,
        # a bad value before the mode file is opened, n_g beside a mode file
        ("echo_demo", "sigma_list = 0.0\nsample_count = 0\n", "sample_count"),
        ("branching_map", "mode_source = missing.txt\nleak_fraction = abc\n", "leak_fraction"),
        ("branching_map", "mode_source = missing.txt\nn_g = 30\n", "n_g"),
        ("pulse_optimization", "delta_over_gamma = 30,-1\n", "delta_over_gamma"),
        ("echo_demo", "sigma_list = 0.1,nan\n", "sigma_list"),
    ],
    ids=[
        "missing-sweep_min", "unknown-param", "non-numeric-param", "bad-kind", "bad-n_photons",
        "unknown-key", "non-bool-numeric", "unread-sweep", "unread-photons",
        "unread-preset", "empty-list", "sweep-without-name", "fractional-photons",
        "fractional-resolution", "bool-resolution", "float-n_photons",
        "fractional-sample_count", "fractional-seed", "fractional-sweep_points",
        "one-sweep_point", "bad-sweep_scale", "bad-sweep_name", "unordered-sweep-bounds",
        "log-sweep-from-zero", "unread-echo-photons", "non-text-out", "non-text-mode_source",
        "non-text-preset", "non-text-shape", "non-text-sweep_name", "negative-seed",
        "zero-sample_count", "bad-leak-before-mode-file", "n_g-with-mode-file",
        "negative-delta_over_gamma", "nan-sigma",
    ],
)
def test_main_names_the_bad_key(tmp_path, capsys, scenario, text, key):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(text)
    code = main([scenario, "--config", str(cfg), "--out", str(tmp_path / "out.csv")])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err.startswith("error: ConfigError:")
    assert key in captured.err
    assert not (tmp_path / "out.csv").exists()


def test_main_rejects_non_finite_param(tmp_path, capsys):
    cfg = tmp_path / "nan.cfg"
    cfg.write_text("param.branching = nan\nnumeric = false\n")
    code = main(["photon_scaling", "--config", str(cfg), "--out", str(tmp_path / "out.csv")])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err.startswith("error: ParamError: branching must be finite")
    assert not (tmp_path / "out.csv").exists()


@pytest.mark.parametrize(
    "scenario, text, header",
    [
        (
            "detuning_sweep",
            "photons = 1\nsweep_name = delta\nsweep_min = 4\nsweep_max = 8\nsweep_points = 2\n",
            "n_g,delta,delta_rad_ns,n_photons,e_ph,e_exc,e_br,total_first_order,asymptote",
        ),
        (
            "detuning_sweep",
            "photons = 1\nsweep_name = b_field\nsweep_min = 0.5\nsweep_max = 1\nsweep_points = 2\n",
            "n_g,b_field,delta_rad_ns,n_photons,e_ph,e_exc,e_br,total_first_order,asymptote",
        ),
        (
            "photon_scaling",
            "photons = 1\nnumeric = true\n",
            "n_photons,e_ph,e_exc,e_br,total_first_order,rate_mhz,"
            "numeric_infidelity,success_probability",
        ),
        (
            "photon_scaling",
            "photons = 1\nnumeric = false\n",
            "n_photons,e_ph,e_exc,e_br,total_first_order,rate_mhz",
        ),
        (
            "pulse_optimization",
            "delta_over_gamma = 30\n",
            "delta_over_gamma,duration_opt,error_min,coefficient",
        ),
        (
            "echo_demo",
            "sigma_list = 0.0\nn_photons = 1\n",
            "sigma_overhauser,fidelity_echo,fidelity_no_echo",
        ),
        ("branching_map", "resolution = 2\n", "x,y,B,beta_total,branching_infidelity"),
    ],
    ids=[
        "detuning-delta", "detuning-b_field", "scaling-numeric", "scaling-budget-only",
        "pulse", "echo", "map",
    ],
)
def test_csv_column_header(tmp_path, scenario, text, header):
    cfg = tmp_path / "c.cfg"
    cfg.write_text(text)
    out = tmp_path / "out.csv"
    assert main([scenario, "--config", str(cfg), "--out", str(out)]) == 0
    assert out.read_text().splitlines()[2] == header
    manifest = json.loads((tmp_path / "out.csv.manifest.json").read_text())
    assert manifest["columns"] == header.split(",")


def test_consecutive_main_calls_share_no_state(tmp_path):
    # the parser is built once per process; what one call parses must not reach the next
    cfg = tmp_path / "map.cfg"
    cfg.write_text("resolution = 5\n")
    first, second = tmp_path / "map.csv", tmp_path / "echo.csv"
    assert main(["branching_map", "--config", str(cfg), "--seed", "7", "--out", str(first)]) == 0
    assert main(["echo_demo", "--out", str(second)]) == 0
    assert first.read_text().startswith("# scenario=branching_map seed=7 ")
    assert second.read_text().startswith("# scenario=echo_demo seed=0 ")
    manifest = json.loads((tmp_path / "echo.csv.manifest.json").read_text())
    assert manifest["config"]["overrides"] == {}


def test_parser_is_built_on_the_first_main_call_only():
    # importing the CLI must not build it: a one-shot run's start-up includes the import
    probe = (
        "from timebinsim import cli; assert cli._parser.cache_info().currsize == 0; "
        "cli.main(['echo_demo', '--help'])"
    )
    src = str(Path(cli.__file__).resolve().parents[1])
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""))
    run = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                         text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    assert run.stdout.startswith("usage: timebinsim echo_demo")
    assert cli._parser() is cli._parser()


@pytest.mark.parametrize("scenario", ["echo_demo", "photon_scaling"])
def test_main_refuses_a_negative_seed_option(tmp_path, capsys, scenario):
    # the README documents --seed <u64>; the override is checked as a config's seed is
    out = tmp_path / "out.csv"
    assert main([scenario, "--seed", "-3", "--out", str(out)]) == 1
    assert capsys.readouterr().err == "error: ConfigError: seed must be >= 0, got -3\n"
    assert not out.exists()


def test_a_config_built_directly_is_checked_on_construction():
    with pytest.raises(ConfigError, match="^sample_count must be >= 1, got 0$"):
        ScenarioConfig(scenario="echo_demo", options={"sample_count": 0})
    with pytest.raises(ConfigError, match="^unknown key\\(s\\) for scenario echo_demo: photon$"):
        ScenarioConfig(scenario="echo_demo", options={"photon": 2})
    with pytest.raises(ConfigError, match="^seed must be >= 0, got -1$"):
        replace(build_config({"scenario": "photon_scaling"}), rng_seed=-1)
    with pytest.raises(ConfigError, match="^out must be text, got 1$"):
        ScenarioConfig(scenario="branching_map", out=1)
    with pytest.raises(ConfigError, match="param.gamma must be a number"):
        ScenarioConfig(scenario="photon_scaling", overrides={"gamma": "fast"})
    with pytest.raises(ConfigError, match="param.foo"):
        ScenarioConfig(scenario="branching_map", overrides={"foo": 1.0})
    config = ScenarioConfig(scenario="photon_scaling", photons=2, overrides={"gamma": 4})
    assert config.photons == (2,) and config.overrides == {"gamma": 4.0}


class _Recording(dict):
    """A resolved-options mapping that records every key a runner reads."""

    def __init__(self, *args):
        super().__init__(*args)
        self.read = set()

    def __getitem__(self, key):
        self.read.add(key)
        return super().__getitem__(key)


def _mode_file(path, n_g):
    """The fixture mode at ``n_g`` in the mode-file text format."""
    mode = synthetic_w1_mode(n_g, points=5)
    lines = [f"# n_g={n_g} a_nm={mode.a_nm} norm={mode.norm}"]
    for i, x in enumerate(mode.x):
        for j, y in enumerate(mode.y):
            e = mode.field[i, j]
            lines.append(" ".join(str(v) for v in (x, y, *np.column_stack([e.real, e.imag]).ravel())))
    path.write_text("\n".join(lines) + "\n")
    return str(path)


# a config of each scenario that sets every key of its table to a value other than the default
NON_DEFAULT = {
    "detuning_sweep": {
        "preset": "improved", "param.gamma": 4.5, "photons": (1, 3), "n_g_list": (20, 56),
        "sweep_name": "b_field", "sweep_min": 0.5, "sweep_max": 1.0, "sweep_points": 3,
        "sweep_scale": "log",
    },
    "photon_scaling": {
        "preset": "ideal", "param.eta": 0.9, "photons": 2, "kind": "cluster", "numeric": False,
    },
    "pulse_optimization": {"delta_over_gamma": 50, "shape": "gaussian"},
    "echo_demo": {
        "preset": "improved", "param.eta": 0.9, "sigma_list": (0.0, 0.1), "n_photons": 2,
        "sample_count": 3, "kind": "cluster", "seed": 4,
    },
    "branching_map": {"mode_source": "MODE", "resolution": 3, "leak_fraction": 0.2},
}


@pytest.mark.parametrize("scenario", sorted(cli.SCENARIOS))
def test_each_runner_reads_exactly_its_declared_keys(tmp_path, scenario):
    runner, table = cli.SCENARIOS[scenario]
    raw = {k: _mode_file(tmp_path / "mode.txt", 30.0) if v == "MODE" else v
           for k, v in NON_DEFAULT[scenario].items()}
    default = cli._resolve(build_config({}, scenario=scenario))
    changed = cli._resolve(build_config(raw, scenario=scenario))
    # the non-default config does change every key it is meant to change
    assert all(changed[k] != default[k] for k in table if k != "n_g"), scenario
    for opts in (default, changed):
        record = _Recording(opts)
        rows = runner(record)
        assert rows
        # every key of the table is read, seed only by the scenario that draws noise
        assert record.read - {"seed"} == set(table)
        assert ("seed" in record.read) == (scenario == "echo_demo")


def test_manifest_adds_the_resolved_options(tmp_path):
    out = tmp_path / "map.csv"
    cfg = tmp_path / "c.cfg"
    cfg.write_text("resolution = 5\n")
    assert main(["branching_map", "--config", str(cfg), "--out", str(out)]) == 0
    manifest = json.loads((tmp_path / "map.csv.manifest.json").read_text())
    # defaults included; the echo of the config as given is unchanged
    assert manifest["resolved"] == {
        "mode_source": "fixture", "n_g": 20.0, "resolution": 5, "leak_fraction": 0.1, "seed": 0,
    }
    assert manifest["config"]["options"] == {"resolution": 5}
    assert set(manifest) == {"version", "config", "columns", "n_rows", "csv", "resolved"}
    out = tmp_path / "scaling.csv"
    assert main(["photon_scaling", "--out", str(out)]) == 0
    resolved = json.loads((tmp_path / "scaling.csv.manifest.json").read_text())["resolved"]
    assert resolved["kind"] == "ghz" and resolved["photons"] == [1, 2, 3]
