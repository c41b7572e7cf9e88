"""Self-checks of the benchmark: span arithmetic, metric names, exact counts.

Run from the repository root:

    python3 -m pytest perfbench/tests
"""

import json

import pytest

import run
import spans
import workloads


def _span(name, start, end, parent=-1, counts=None):
    return {"name": name, "start": start, "end": end, "parent": parent,
            "run": "r", "counts": counts or {}}


def test_self_time_subtracts_only_direct_children():
    tree = [
        _span("cli.run_cli", 0.0, 10.0),
        _span("pipeline.run_subcase_experiment", 1.0, 9.0, parent=0),
        _span("net.train", 2.0, 5.0, parent=1),
        _span("net.elu", 3.0, 4.0, parent=2),
        _span("sh.acc", 6.0, 6.5, parent=1),
        _span("sh.acc", 7.0, 7.25, parent=1),
    ]
    assert spans.self_times(tree) == pytest.approx([2.0, 4.25, 2.0, 1.0, 0.5, 0.25])
    stats, _ = spans.aggregate(tree)
    assert stats["sh.acc"]["calls"] == 2
    assert stats["sh.acc"]["s"] == pytest.approx(0.75)
    assert stats["pipeline.run_subcase_experiment"]["self_s"] == pytest.approx(4.25)


def test_overlapping_children_are_covered_once():
    tree = [_span("a", 0.0, 10.0), _span("b", 1.0, 4.0, parent=0), _span("c", 3.0, 6.0, parent=0)]
    assert spans.self_times(tree)[0] == pytest.approx(5.0)


def test_busy_time_counts_nested_same_name_once():
    tree = [_span("io.write_container", 0.0, 4.0),
            _span("io.write_container", 1.0, 2.0, parent=0)]
    stats, _ = spans.aggregate(tree)
    assert stats["io.write_container"]["s"] == pytest.approx(4.0)
    assert stats["io.write_container"]["self_s"] == pytest.approx(4.0)


def test_derived_counts_use_the_span_tree():
    tree = [
        _span("io.write_bvals_bvecs", 0.0, 1.0, counts={"bytes": 100}),
        _span("io.write_directions_text", 0.5, 0.9, parent=0, counts={"bytes": 60}),
        _span("io.write_dataset", 1.0, 2.0, counts={"bytes": 1000}),
        _span("io.write_container", 1.1, 1.9, parent=2, counts={"bytes": 1000}),
        _span("shore.optimize_zeta", 2.0, 3.0),
        _span("shore.shore_design_matrix", 2.1, 2.2, parent=4),
        _span("shore.shore_design_matrix", 2.3, 2.4, parent=4),
        _span("shore.fit_shore_many", 3.0, 4.0),
        _span("shore.shore_design_matrix", 3.1, 3.2, parent=7),
    ]
    _, extra = spans.aggregate(tree)
    assert extra == {"io.bytes_written": 1100, "shore.optimize_zeta.evals": 2}


def test_tracer_records_parents_and_round_trips(tmp_path):
    ticks = iter(range(100))
    tracer = spans.Tracer("cmd", clock=lambda: float(next(ticks)))
    inner = tracer.wrap("m.inner", lambda x: x + 1)
    outer = tracer.wrap("m.outer", lambda x: inner(x) * 2)
    assert outer(1) == 4
    tracer.write(tmp_path / "s.npz")
    loaded = spans.load([tmp_path / "s.npz"])
    assert [(s["name"], s["start"], s["end"], s["parent"]) for s in loaded] == [
        ("m.outer", 0.0, 3.0, -1), ("m.inner", 1.0, 2.0, 0)]


def test_benchmark_json_matches_the_metrics_printed():
    with open(run.ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        bench = json.load(fh)
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == run.PER_LAYER
    assert tuple(w["name"] for w in bench["workloads"]) == workloads.NAMES


EXACT = ("net.train.row_epochs", "shore.optimize_zeta.evals", "sh.acc.calls",
         "sphere.generate_uniform_directions.calls", "io.bytes_written")


def _small_traced_run(tmp_path, tag):
    workload = workloads.Workload(
        "small",
        setups=[workloads.Command(["phantom", "--voxels", "10", "--rotations", "10",
                                   "--noiseless", "--seed", "3", "--out", "input.dsc"], 0)],
        commands=[[
            workloads.Command(
                ["crossval", "--in", "input.dsc", "--zeta0", "700", "--withhold-b", "6000",
                 "--eval-folds", "5", "--max-folds", "1", "--epochs", "2",
                 "--report", "report.json"], 0),
            workloads.Command(
                ["fit-shore", "--in", "input.dsc", "--optimize", "--log", "--out", "fit.dsc"], 0),
        ]],
    )
    workdir = tmp_path / tag
    workdir.mkdir()
    runner = run.Runner(workdir, run.Budget(run.TIME_BUDGET_S))
    metrics, _, _ = run.traced(runner, workload)
    assert runner.failed == 0, runner.problems
    return metrics


def test_exact_counts_repeat_across_traced_runs(tmp_path):
    first = _small_traced_run(tmp_path, "a")
    second = _small_traced_run(tmp_path, "b")
    assert set(run.PER_LAYER) == set(first)
    for name in EXACT:
        assert first[name] == second[name] > 0, name
