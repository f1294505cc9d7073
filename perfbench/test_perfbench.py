"""Tests of the benchmark harness itself (not of timebinsim).

Run with ``PYTHONPATH=src python -m pytest perfbench``.
"""
import json
from pathlib import Path

import pytest

import run
import tracing
import workloads
from tracing import Span, Tracer, layer_metrics, self_times

BENCHMARK = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())


def _span(sid, name, layer, start, end, parent=None):
    return Span(sid, name, layer, start, end, parent, 1)


def test_self_time_subtracts_union_of_children():
    spans = [
        _span(0, "run_protocol", "protocol", 0.0, 10.0),
        _span(1, "build_cycle_map", "cyclemap", 1.0, 4.0, parent=0),
        _span(2, "run_protocol_cycles", "protocol", 3.0, 6.0, parent=0),  # overlaps span 1
        _span(3, "rotation_matrix", "cyclemap", 2.0, 3.0, parent=1),
        _span(4, "hook", tracing.HOOK_LAYER, 7.0, 7.5, parent=0),
    ]
    selfs = self_times(spans)
    assert selfs == pytest.approx({0: 10.0 - 5.0 - 0.5, 1: 2.0, 2: 3.0, 3: 1.0, 4: 0.5})
    m = layer_metrics(spans, Tracer().counts, set())
    assert m["protocol.self_s"] == pytest.approx(4.5 + 3.0)
    assert m["cyclemap.self_s"] == pytest.approx(3.0)
    # calls count entries into a layer, not calls inside it
    assert m["protocol.calls"] == 1
    assert m["cyclemap.calls"] == 1
    assert m["protocol.runs"] == 1
    assert m["dynamics.self_s"] == 0.0


def _bindings():
    return {
        (mod.__name__, attr): value
        for mod in tracing.package_modules()
        for attr, value in vars(mod).items()
    }


def test_tracer_patches_every_binding_and_restores_them():
    import timebinsim
    from scipy.integrate import solve_ivp
    from timebinsim import cli, dynamics, protocol

    before = _bindings()
    original = protocol.run_protocol
    with pytest.raises(RuntimeError):
        with Tracer() as tr:
            assert protocol.run_protocol is not original
            assert cli.run_protocol is protocol.run_protocol
            assert timebinsim.run_protocol is protocol.run_protocol
            assert dynamics.solve_ivp is not solve_ivp
            timebinsim.budget.generation_rate(0.84, 27.0, 3)
            raise RuntimeError("leave the block early")
    after = _bindings()
    assert before.keys() == after.keys()
    assert all(after[key] is value for key, value in before.items())
    assert [s.name for s in tr.spans] == ["generation_rate"]


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_seed_changes_inputs(name, tmp_path):
    setup = workloads.WORKLOADS[name][0]

    def inputs(seed):
        work = tmp_path / str(seed)
        work.mkdir(exist_ok=True)
        made = setup(seed, str(work))
        files = sorted(p.read_text() for p in work.iterdir())
        return repr(made).replace(str(work), "") + repr(files)

    assert inputs(1) == inputs(1)
    assert inputs(1) != inputs(2)


def _fake_worker(argv, timeout):
    if "--setup-only" in argv:
        return 10.0, {"setup_done": 10.75}
    traced = argv[argv.index("--trace") + 1] == "1"
    counts = Tracer().counts
    layers = layer_metrics([_span(0, "run_protocol", "protocol", 0.0, 1.0)], counts, set())
    layers["trace.overhead_s"] = 0.01
    report = {
        "machine": {"nproc": 2},
        "attempted": 5,
        "failed": 0,
        "failures": [],
        "wall_rel": 3.0,
        "wall_s": 0.75,
        "probe_s": 0.25,
        "peak_rss_mb": 80.0,
    }
    if traced:
        report["layers"] = layers
    return 1.0, report


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
def test_every_declared_metric_is_printed_with_its_unit(trace, section, monkeypatch, capsys):
    monkeypatch.setattr(run, "run_worker", _fake_worker)
    code = run.main(["--workload", "noise", "--seed", "1", "--seconds", "1", "--trace", str(trace)])
    assert code == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    declared = {m["name"]: m["unit"] for m in BENCHMARK[section]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())
    if trace == 0:
        assert result["metrics"]["setup_s"]["value"] == pytest.approx(0.75)
        assert result["metrics"]["wall_rel"]["value"] == pytest.approx(3.0)


def test_run_refuses_a_tree_without_sources(monkeypatch, tmp_path, capsys):
    # a directory holding only BENCHMARK.json and the benchmark's own files
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(BENCHMARK))
    monkeypatch.setattr(run, "ROOT", tmp_path)
    code = run.main(["--workload", "noise", "--seed", "1", "--seconds", "1", "--trace", "0"])
    assert code != 0
    assert capsys.readouterr().out == ""
