import json
import os
import re
import shlex
import signal
import struct
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from deepshore import cli, net, phantom, pipeline, shore
from deepshore.cli import build_parser, run_cli
from deepshore.io import (
    read_coeffs,
    read_container,
    read_dataset,
    read_model,
    read_report,
    write_coeffs,
    write_container,
    write_dataset,
)
from deepshore.nonneg import NonNegConfig, clamp_log


def make_phantom(tmp_path, name="d.dsc", voxels=6, rotations=8, seed=1, extra=()):
    path = tmp_path / name
    code = run_cli([
        "phantom", "--voxels", str(voxels), "--rotations", str(rotations),
        "--seed", str(seed), "--noiseless", "--out", str(path), *extra,
    ])
    assert code == 0
    return path


class TestPhantomCommand:
    def test_creates_dataset_and_gradient_files(self, tmp_path):
        path = make_phantom(tmp_path, voxels=5, rotations=100)
        data = read_dataset(path)
        assert len(data) == 505
        assert (tmp_path / "d.bval").exists()
        assert (tmp_path / "d.bvec").exists()
        bvals = (tmp_path / "d.bval").read_text().split()
        assert len(bvals) == len(data.samples)

    def test_rerun_is_byte_identical(self, tmp_path):
        a = make_phantom(tmp_path, name="a.dsc")
        b = make_phantom(tmp_path, name="b.dsc")
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize("out, base", [("./d", "d"), ("runs.v2/d", "runs.v2/d")])
    def test_gradient_files_take_the_name_of_the_out_file(self, tmp_path, monkeypatch,
                                                         out, base):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "runs.v2").mkdir()
        assert run_cli(["phantom", "--voxels", "2", "--rotations", "1", "--out", out]) == 0
        written = sorted(str(p.relative_to(tmp_path)) for p in tmp_path.rglob("*.bv*"))
        assert written == [base + ".bval", base + ".bvec"]

    def test_default_rotation_count(self, tmp_path):
        out = tmp_path / "five.dsc"
        code = run_cli(["phantom", "--voxels", "5", "--seed", "1", "--out", str(out)])
        assert code == 0
        assert len(read_dataset(out)) == 505  # 5 blocks of 1 + 100 rotations

    def test_negative_rotation_count_is_data_error(self, tmp_path, capsys):
        out = tmp_path / "neg.dsc"
        code = run_cli(["phantom", "--voxels", "2", "--rotations", "-1", "--out", str(out)])
        assert code == 2
        assert "-1" in capsys.readouterr().err
        assert not out.exists()


OUT_OF_RANGE_VALUES = [
    ("phantom", "--seed", "-1", "-1"),
    ("train", "--seed", "-1", "-1"),
    ("crossval", "--seed", "-1", "-1"),
    ("train", "--dirs-seed", "-1", "-1"),
    ("crossval", "--dirs-seed", "-1", "-1"),
    ("train", "--fod-b", "0", "fod_bvalue"),
    ("crossval", "--fod-b", "-2000", "fod_bvalue"),
    ("phantom", "--snr", "nan", "nan"),
    ("phantom", "--kappa", "1e6", "kappa_watson"),
]


@pytest.mark.parametrize("command, flag, value, named", OUT_OF_RANGE_VALUES,
                         ids=[" ".join(case[:3]) for case in OUT_OF_RANGE_VALUES])
def test_out_of_range_value_is_data_error(tmp_path, capsys, command, flag, value, named):
    # numpy rejected a negative seed with a raw ValueError; a FOD shell at
    # b = 0 gave targets without angular content; a NaN SNR and a kappa
    # that overflows the Watson normalization wrote NaN datasets
    argv = [command, flag, value]
    if command == "phantom":
        argv += ["--voxels", "2", "--rotations", "1", "--out", str(tmp_path / "o.dsc")]
    else:
        data = make_phantom(tmp_path)
        capsys.readouterr()
        argv += ["--in", str(data), "--epochs", "2", "--report", str(tmp_path / "r.json")]
        if command == "train":
            argv += ["--out", str(tmp_path / "o.dsc")]
        else:
            argv += ["--eval-folds", "3", "--max-folds", "1"]
    assert run_cli(argv) == 2
    err = capsys.readouterr().err
    assert named in err and "Traceback" not in err
    assert not (tmp_path / "o.dsc").exists() and not (tmp_path / "r.json").exists()


class TestFitShoreCommand:
    def test_fit_writes_coeffs(self, tmp_path):
        data = make_phantom(tmp_path)
        out = tmp_path / "c.dsc"
        code = run_cli(["fit-shore", "--in", str(data), "--zeta", "1500",
                        "--out", str(out)])
        assert code == 0
        coeffs, meta = read_coeffs(out)
        assert coeffs.shape == (54, 50)
        assert meta["zeta"] == 1500.0
        assert meta["representation"] == "shore"

    def test_missing_input_is_usage_error(self, tmp_path):
        code = run_cli(["fit-shore", "--in", str(tmp_path / "missing.dsc"),
                        "--zeta", "700", "--out", str(tmp_path / "c.dsc")])
        assert code == 1

    def test_numeric_failure_is_exit_two(self, tmp_path):
        data = make_phantom(tmp_path)
        # single-shell fit without regularization is singular
        code = run_cli(["fit-shore", "--in", str(data), "--zeta", "700",
                        "--shells", "6000", "--lambda-n", "0", "--lambda-l", "0",
                        "--out", str(tmp_path / "c.dsc")])
        assert code == 2

    def test_unknown_subcommand_is_usage_error(self):
        assert run_cli(["frobnicate"]) == 1

    def test_optimize_flag(self, tmp_path):
        data = make_phantom(tmp_path)
        out = tmp_path / "c.dsc"
        code = run_cli(["fit-shore", "--in", str(data), "--optimize", "--log",
                        "--out", str(out)])
        assert code == 0
        _, meta = read_coeffs(out)
        assert meta["zeta"] > 0
        assert meta["log_domain"] is True

    def test_loads_no_scipy(self, tmp_path):
        """Only `phantom` imports scipy, so the other commands start without
        paying for its import."""
        data = make_phantom(tmp_path)
        probe = (
            "import json, sys\n"
            "import deepshore.cli\n"
            "code = deepshore.cli.run_cli(sys.argv[1:])\n"
            "print(json.dumps([code, sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')]))\n"
        )
        src = os.path.dirname(os.path.dirname(cli.__file__))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        done = subprocess.run(
            [sys.executable, "-c", probe, "fit-shore", "--in", str(data), "--optimize", "--log",
             "--out", str(tmp_path / "c.dsc")],
            env=env, capture_output=True, text=True, check=True)
        assert json.loads(done.stdout.splitlines()[-1]) == [0, []]


class TestOptimizeZetaCommand:
    def test_prints_and_reports(self, tmp_path, capsys):
        data = make_phantom(tmp_path)
        report = tmp_path / "z.json"
        code = run_cli(["optimize-zeta", "--in", str(data), "--report", str(report)])
        assert code == 0
        zeta = float(capsys.readouterr().out.strip().splitlines()[-1])
        doc = read_report(report)
        assert doc["zeta"] == pytest.approx(zeta)
        assert "created_at" in doc

    def test_solver_refusal_names_its_cause(self, tmp_path, capsys):
        data = make_phantom(tmp_path, voxels=4, rotations=5)
        code = run_cli(["optimize-zeta", "--in", str(data), "--lambda-n", "0",
                        "--lambda-l", "0"])
        assert code == 2
        err = capsys.readouterr().err
        assert "objective not finite" in err and "normal equations condition" in err


class TestTrainPredictEvaluate:
    @pytest.fixture()
    def chain(self, tmp_path):
        """The README chain up to a trained model: (dataset, model) paths."""
        data = make_phantom(tmp_path, voxels=8, rotations=5, seed=3)
        model = tmp_path / "m.dsc"
        assert run_cli(["train", "--in", str(data),
                        "--epochs", "3", "--batch-size", "16", "--seed", "0",
                        "--out", str(model), "--report", str(tmp_path / "t.json")]) == 0
        return data, model

    def test_full_command_chain(self, tmp_path, chain):
        data, model = chain
        preds = tmp_path / "p.dsc"
        assert run_cli(["predict", "--model", str(model), "--in", str(data),
                        "--out", str(preds)]) == 0
        coeffs, meta = read_coeffs(preds)
        assert coeffs.shape == (48, 45)
        assert meta["representation"] == "sh" and meta["sh_order"] == 8
        history = read_report(tmp_path / "t.json")["loss_history"]
        assert len(history) == 3
        report = tmp_path / "acc.json"
        assert run_cli(["evaluate", "--pred", str(preds), "--truth", str(data),
                        "--report", str(report)]) == 0
        acc = np.array(read_report(report)["acc"])
        assert acc.shape == (48,) and np.all(np.isfinite(acc))

    def test_train_standardizes_and_predict_matches_the_regressor(self, tmp_path, chain):
        data, model = chain
        regressor = read_model(model)
        dataset = read_dataset(data)
        rows = np.arange(len(dataset))
        # the same fold body in memory, on every row, without a validation fold
        cfg = pipeline.PipelineConfig(train=net.TrainConfig(epochs=3, batch_size=16, seed=0),
                                      nested=False)
        in_memory, _, _ = pipeline.train_regressor(cfg, dataset, rows, 0)
        assert regressor.zeta == in_memory.zeta
        assert regressor.description() == in_memory.description()
        x = in_memory.input_coeffs(dataset.signals, dataset.samples)
        targets = pipeline.fod_targets(pipeline.fod_samples(dataset.fod_coeffs, 8, cfg),
                                       "shore", in_memory.zeta, cfg)
        # the standardizers are the training rows' own, to f32 round-off
        assert np.allclose(regressor.out_norm.mean, targets.mean(axis=0), rtol=1e-6, atol=1e-6)
        assert np.allclose(regressor.in_norm.mean, x.mean(axis=0), rtol=1e-6, atol=1e-6)

        # the in-memory regressor gives the container's FODs to f32 round-off
        preds = tmp_path / "p.dsc"
        assert run_cli(["predict", "--model", str(model), "--in", str(data),
                        "--out", str(preds)]) == 0
        fods, _ = read_coeffs(preds)
        expected = in_memory.predict_fod_sh(x)
        assert np.allclose(fods, expected, rtol=1e-5, atol=1e-6 * np.abs(expected).max())

    def test_predict_rejects_a_model_without_fod_targets(self, tmp_path, chain, capsys):
        """A model container of the former format holds no input map: without
        FOD targets, or with the FOD map alone, it names the missing key."""
        data, model = chain
        box = read_container(model)
        fod_map = {k: box.metadata["regressor"][k] for k in (
            "zeta", "radial_order", "out_sh_order", "fod_bvalue", "direction_seed",
            "n_fod_directions", "direction_iterations", "sh_order")}
        for target in (None, {"target_kind": "shore", **fod_map}):
            meta = {k: v for k, v in box.metadata.items() if k != "regressor"}
            write_container(model, "model", list(box.segments.items()),
                            {**meta, "target": target})
            code = run_cli(["predict", "--model", str(model), "--in", str(data),
                            "--out", str(tmp_path / "p.dsc")])
            assert code == 2
            err = capsys.readouterr().err
            assert str(model) in err and "'regressor'" in err
        assert not (tmp_path / "p.dsc").exists()

    def test_predict_rejects_a_model_without_standardizers(self, tmp_path, chain, capsys):
        data, model = chain
        box = read_container(model)
        kept = [(name, values) for name, values in box.segments.items()
                if not name.endswith(("_mean", "_scale"))]
        write_container(model, "model", kept, box.metadata)
        code = run_cli(["predict", "--model", str(model), "--in", str(data),
                        "--out", str(tmp_path / "p.dsc")])
        assert code == 2
        assert str(model) in capsys.readouterr().err

    def test_predict_refits_the_dataset_at_the_model_scale(self, tmp_path, chain):
        """A model trained on the default four shells predicts a three-shell
        scheme from fits at its own scale, not at that dataset's optimum."""
        _, model = chain
        other = make_phantom(tmp_path, name="three.dsc", voxels=4, rotations=5, seed=11,
                             extra=("--shells", "2000,5000,8000", "--dirs-per-shell", "30"))
        preds = tmp_path / "p.dsc"
        assert run_cli(["predict", "--model", str(model), "--in", str(other),
                        "--out", str(preds)]) == 0
        fods, _ = read_coeffs(preds)
        regressor = read_model(model)
        dataset = read_dataset(other)
        log_signals = clamp_log(dataset.signals, NonNegConfig())
        at_model = regressor.predict_fod_sh(shore.fit_shore_many(
            log_signals, dataset.samples, shore.ShoreFitConfig(), regressor.zeta))
        assert np.array_equal(fods, at_model.astype("<f4"))
        own = shore.optimize_zeta(dataset.signals, dataset.samples, shore.ShoreFitConfig(),
                                  shore.default_zeta0(dataset.samples))
        assert not np.isclose(own, regressor.zeta, rtol=0.01)
        at_own = regressor.predict_fod_sh(shore.fit_shore_many(
            log_signals, dataset.samples, shore.ShoreFitConfig(), own))
        assert not np.allclose(fods, at_own, rtol=1e-3)

    def test_predict_names_the_model_shells_a_dataset_lacks(self, tmp_path, capsys):
        data = make_phantom(tmp_path, voxels=6, rotations=5, seed=3)
        model = tmp_path / "m.dsc"
        assert run_cli(["train", "--in", str(data), "--shells", "3000,6000", "--epochs", "2",
                        "--out", str(model)]) == 0
        other = make_phantom(tmp_path, name="three.dsc", voxels=3, rotations=2, seed=11,
                             extra=("--shells", "2000,3000,8000"))
        code = run_cli(["predict", "--model", str(model), "--in", str(other),
                        "--out", str(tmp_path / "p.dsc")])
        assert code == 2
        assert "[6000.0]" in capsys.readouterr().err

    def test_train_records_the_scale_that_optimize_zeta_reports(self, tmp_path):
        data = make_phantom(tmp_path, voxels=6, rotations=5, seed=3)
        model, report = tmp_path / "m.dsc", tmp_path / "z.json"
        assert run_cli(["train", "--in", str(data), "--subcase", "opt-shore-to-shore",
                        "--withhold-b", "6000", "--epochs", "2", "--out", str(model)]) == 0
        assert run_cli(["optimize-zeta", "--in", str(data), "--withhold-b", "6000",
                        "--report", str(report)]) == 0
        assert read_model(model).zeta == read_report(report)["zeta"]

    def test_train_stops_early_with_a_validation_fold(self, tmp_path):
        data = make_phantom(tmp_path, voxels=10, rotations=5, seed=3)
        report = tmp_path / "t.json"
        assert run_cli(["train", "--in", str(data), "--epochs", "40", "--batch-size", "16",
                        "--learning-rate", "0.01", "--early-stop", "--patience", "1",
                        "--out", str(tmp_path / "m.dsc"), "--report", str(report)]) == 0
        doc = read_report(report)
        assert len(doc["loss_history"]) < 40
        assert doc["n_fit_rows"] < 60

    def test_evaluate_against_dataset_truth(self, tmp_path):
        data = make_phantom(tmp_path, voxels=6, rotations=4, seed=5)
        loaded = read_dataset(data)
        pred = tmp_path / "pred.dsc"
        from deepshore.io import write_coeffs

        write_coeffs(pred, loaded.fod_coeffs, {"representation": "sh", "sh_order": 8})
        report = tmp_path / "e.json"
        code = run_cli(["evaluate", "--pred", str(pred), "--truth", str(data),
                        "--report", str(report)])
        assert code == 0
        doc = read_report(report)
        assert doc["median"] == pytest.approx(1.0, abs=1e-9)

    def test_evaluate_rejects_a_malformed_truth_sh_order(self, tmp_path, capsys):
        data = make_phantom(tmp_path, voxels=3, rotations=2, seed=5)
        fods = read_dataset(data).fod_coeffs
        pred, truth = tmp_path / "pred.dsc", tmp_path / "truth.dsc"
        write_coeffs(pred, fods, {"representation": "sh", "sh_order": 8})
        write_coeffs(truth, fods, {"representation": "sh", "sh_order": "x"})
        code = run_cli(["evaluate", "--pred", str(pred), "--truth", str(truth)])
        assert code == 2
        err = capsys.readouterr().err
        assert str(truth) in err and "sh_order" in err
        # without the key the default degree applies
        write_coeffs(truth, fods, {"representation": "sh"})
        assert run_cli(["evaluate", "--pred", str(pred), "--truth", str(truth)]) == 0

    @pytest.mark.parametrize("value", [8.9, True])
    def test_evaluate_rejects_a_non_integral_truth_sh_order(self, tmp_path, capsys, value):
        data = make_phantom(tmp_path, voxels=3, rotations=2, seed=5)
        fods = read_dataset(data).fod_coeffs
        pred, truth = tmp_path / "pred.dsc", tmp_path / "truth.dsc"
        write_coeffs(pred, fods, {"representation": "sh", "sh_order": 8})
        write_coeffs(truth, fods, {"representation": "sh", "sh_order": value})
        code = run_cli(["evaluate", "--pred", str(pred), "--truth", str(truth)])
        assert code == 2
        err = capsys.readouterr().err
        assert str(truth) in err and "sh_order" in err


class TestCrossvalCommand:
    def test_two_subcases_with_report(self, tmp_path):
        data = make_phantom(tmp_path, voxels=9, rotations=8, seed=7)
        report = tmp_path / "cv.json"
        code = run_cli([
            "crossval", "--in", str(data),
            "--subcase", "opt-shore-to-shore", "--subcase", "unopt-shore-to-shore",
            "--eval-folds", "3", "--max-folds", "1", "--k-folds", "3",
            "--epochs", "4", "--batch-size", "32", "--seed", "0",
            "--report", str(report),
        ])
        assert code == 0
        doc = read_report(report)
        assert set(doc["methods"]) == {"opt-shore-to-shore", "unopt-shore-to-shore"}
        assert len(doc["comparisons"]) == 1
        assert "p_bonferroni" in doc["comparisons"][0]

    def test_report_container_flag_is_gone(self, tmp_path, capsys):
        code = run_cli(["crossval", "--in", str(tmp_path / "d.dsc"), "--out", "cv.dsc"])
        assert code == 1
        assert "--out" in capsys.readouterr().err

    def test_report_reproducible_modulo_timestamp(self, tmp_path):
        data = make_phantom(tmp_path, voxels=9, rotations=8, seed=7)
        docs = []
        for name in ("r1.json", "r2.json"):
            path = tmp_path / name
            code = run_cli([
                "crossval", "--in", str(data), "--subcase", "opt-shore-to-shore",
                "--eval-folds", "3", "--max-folds", "1", "--k-folds", "3",
                "--epochs", "3", "--batch-size", "32", "--seed", "0",
                "--report", str(path),
            ])
            assert code == 0
            doc = read_report(path)
            doc.pop("created_at")
            docs.append(doc)
        assert docs[0] == docs[1]

    def test_config_file_flags_and_overrides(self, tmp_path):
        data = make_phantom(tmp_path, voxels=9, rotations=8, seed=7)
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps({
            "eval-folds": 3, "max-folds": 1, "k-folds": 3,
            "epochs": 99, "batch-size": 32, "subcase": "opt-shore-to-shore",
        }))
        report = tmp_path / "r.json"
        code = run_cli(["--config", str(cfg_file), "crossval", "--in", str(data),
                        "--epochs", "3", "--report", str(report)])
        assert code == 0
        doc = read_report(report)
        # the command-line epochs value wins over the config file
        method = doc["methods"]["opt-shore-to-shore"]
        assert method["config"]["train"]["epochs"] == 3

    @pytest.mark.parametrize("value", ["0", "-1"])
    def test_fold_limit_below_one_is_data_error(self, tmp_path, capsys, value):
        data = make_phantom(tmp_path, voxels=9, rotations=8, seed=7)
        report = tmp_path / "r.json"
        code = run_cli(["crossval", "--in", str(data), "--eval-folds", "3",
                        "--max-folds", value, "--epochs", "2", "--report", str(report)])
        assert code == 2
        assert f"max_folds must be >= 1, got {value}" in capsys.readouterr().err
        assert not report.exists()

    def test_bad_shell_selection_is_data_error(self, tmp_path):
        data = make_phantom(tmp_path)
        code = run_cli(["crossval", "--in", str(data), "--shells", "1234",
                        "--eval-folds", "3", "--epochs", "2",
                        "--report", str(tmp_path / "r.json")])
        assert code == 2

    @pytest.mark.parametrize("argv, named", [
        # trained both copies and compared the subcase with itself
        (["--subcase", "opt-shore-to-shore", "--subcase", "opt-shore-to-shore"],
         ["opt-shore-to-shore"]),
        # without the inner fold, training never stopped early
        (["--flat", "--early-stop"], ["--flat", "--early-stop"]),
        # 2 subcases x 2 folds: the error of a task run in a worker process
        (["--subcase", "opt-shore-to-shore", "--subcase", "opt-shore-to-sh",
          "--zeta0", "1e-300"], ["zeta=1e-300"]),
    ], ids=["duplicate-subcase", "flat-early-stop", "worker-error"])
    def test_rejected_run_is_data_error(self, tmp_path, capsys, argv, named):
        data = make_phantom(tmp_path)
        capsys.readouterr()
        report = tmp_path / "r.json"
        code = run_cli(["crossval", "--in", str(data), *argv, "--eval-folds", "3",
                        "--max-folds", "2", "--epochs", "2", "--report", str(report)])
        assert code == 2
        err = capsys.readouterr().err
        assert all(name in err for name in named) and "Traceback" not in err
        assert not report.exists()

    def test_returns_without_leaving_a_child_process(self, tmp_path):
        data = make_phantom(tmp_path)
        code = run_cli(["crossval", "--in", str(data), "--subcase", "opt-shore-to-shore",
                        "--subcase", "unopt-shore-to-shore", "--eval-folds", "3",
                        "--max-folds", "2", "--k-folds", "3", "--epochs", "2"])
        assert code == 0
        assert _live_children(os.getpid()) == []

    @pytest.mark.skipif(not os.path.isdir("/proc") or len(os.sched_getaffinity(0)) < 2,
                        reason="needs /proc and two CPUs")
    def test_killed_run_leaves_no_worker(self, tmp_path):
        data = make_phantom(tmp_path)
        src = os.path.dirname(os.path.dirname(cli.__file__))
        env = dict(os.environ, OPENBLAS_NUM_THREADS="2",
                   PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        proc = subprocess.Popen(
            [sys.executable, "-m", "deepshore.cli", "crossval", "--in", str(data),
             "--subcase", "opt-shore-to-shore", "--subcase", "unopt-shore-to-shore",
             "--eval-folds", "3", "--max-folds", "2", "--k-folds", "3", "--epochs", "100000"],
            env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
        try:
            workers = []
            deadline = time.monotonic() + 60
            while len(workers) < 2 and proc.poll() is None and time.monotonic() < deadline:
                time.sleep(0.05)
                workers = _live_children(proc.pid)
            assert len(workers) == 2
        finally:
            proc.kill()
            proc.wait(timeout=60)
        deadline = time.monotonic() + 5
        while any(map(_is_live, workers)) and time.monotonic() < deadline:
            time.sleep(0.05)
        left = [pid for pid in workers if _is_live(pid)]
        for pid in left:
            os.kill(pid, signal.SIGKILL)
        assert left == []


def _process_state(pid):
    """(state letter, parent pid) of a process from /proc, or None once it is gone."""
    try:
        with open(f"/proc/{pid}/stat", encoding="utf-8") as fh:
            state, ppid = fh.read().rsplit(")", 1)[1].split()[:2]
    except OSError:
        return None
    return state, int(ppid)


def _is_live(pid):
    state = _process_state(pid)
    return state is not None and state[0] != "Z"


def _live_children(pid):
    """The pids of the processes that `pid` started and that have not ended."""
    pids = (int(entry) for entry in os.listdir("/proc") if entry.isdigit())
    return [child for child in pids
            if _is_live(child) and _process_state(child)[1] == pid]


@pytest.mark.parametrize("command, key, value", [
    ("optimize-zeta", "shells", [3000, 9000]),
    ("optimize-zeta", "withhold-b", "x"),
    ("optimize-zeta", "lambda-n", "x"),
    ("optimize-zeta", "zeta0", "abc"),
    ("crossval", "seed", "x"),
    ("crossval", "max-folds", "x"),
    ("crossval", "subcase", 5),
    ("crossval", "early-stop", "false"),
    ("crossval", "flat", "false"),
    ("crossval", "epochs", 2.5),
    ("crossval", "eval-folds", True),
    ("optimize-zeta", "log", 1),
], ids=str)
def test_config_value_of_wrong_type_is_usage_error(tmp_path, capsys, command, key, value):
    data = make_phantom(tmp_path)
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text(json.dumps({key: value}))
    code = run_cli(["--config", str(cfg_file), command, "--in", str(data)])
    assert code == 1
    assert repr(key) in capsys.readouterr().err


def test_train_takes_one_subcase_from_a_config_file(tmp_path, capsys):
    data = make_phantom(tmp_path)
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text(json.dumps({"subcase": ["opt-shore-to-shore"]}))
    code = run_cli(["--config", str(cfg_file), "train", "--in", str(data),
                    "--out", str(tmp_path / "m.dsc")])
    assert code == 1
    assert "'subcase'" in capsys.readouterr().err


@pytest.mark.parametrize("key", ["zeta-subsample", "subsample", "epoch"])
def test_config_key_that_no_command_takes_is_usage_error(tmp_path, capsys, key):
    data = make_phantom(tmp_path)
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text(json.dumps({key: 4}))
    code = run_cli(["--config", str(cfg_file), "optimize-zeta", "--in", str(data)])
    assert code == 1
    assert repr(key) in capsys.readouterr().err


def test_config_key_of_another_command_is_ignored(tmp_path):
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text(json.dumps({"epochs": 3}))
    assert run_cli(["--config", str(cfg_file), "phantom", "--voxels", "2", "--rotations", "1",
                    "--out", str(tmp_path / "d.dsc")]) == 0


def _write_header(path, header):
    blob = json.dumps(header).encode("utf-8")
    path.write_bytes(b"DSHORE01" + struct.pack("<I", len(blob)) + blob)


@pytest.mark.parametrize("case", ["dataset without sh_order", "segment without shape",
                                  "header is a list", "model without input_dim"])
def test_malformed_container_header_is_data_error(tmp_path, capsys, case):
    path = tmp_path / "bad.dsc"
    argv = ["optimize-zeta", "--in", str(path)]
    if case == "dataset without sh_order":
        box = read_container(make_phantom(tmp_path))
        del box.metadata["sh_order"]
        write_container(path, "dataset", list(box.segments.items()), box.metadata)
        key = "sh_order"
    elif case == "segment without shape":
        _write_header(path, {"kind": "dataset", "dtype": "f32le",
                             "segments": [{"name": "signals"}]})
        key = "shape"
    elif case == "header is a list":
        _write_header(path, ["dataset"])
        key = "list"
    else:
        write_container(path, "model", [], {"output_dim": 45})
        argv = ["predict", "--model", str(path), "--in", str(path),
                "--out", str(tmp_path / "p.dsc")]
        key = "input_dim"
    assert run_cli(argv) == 2
    err = capsys.readouterr().err
    assert str(path) in err and key in err


class TestNonFiniteVoxel:
    @pytest.fixture()
    def nan_data(self, tmp_path):
        path = make_phantom(tmp_path, voxels=6, rotations=8)
        dataset = read_dataset(path)
        dataset.signals[7, 3] = np.nan
        write_dataset(path, dataset)
        return path

    def test_fit_shore_is_data_error_naming_the_row(self, tmp_path, nan_data, capsys):
        code = run_cli(["fit-shore", "--in", str(nan_data), "--zeta", "700",
                        "--out", str(tmp_path / "c.dsc")])
        assert code == 2
        assert "row 7" in capsys.readouterr().err

    def test_crossval_is_data_error(self, tmp_path, nan_data):
        code = run_cli(["crossval", "--in", str(nan_data), "--subcase", "unopt-shore-to-shore",
                        "--eval-folds", "3", "--epochs", "2",
                        "--report", str(tmp_path / "r.json")])
        assert code == 2


class TestNonFiniteCoefficients:
    def test_train_rejects_an_infinite_input_row(self, tmp_path, capsys):
        data = make_phantom(tmp_path, voxels=3, rotations=2)
        dataset = read_dataset(data)
        dataset.signals[4, 9] = np.inf
        write_dataset(data, dataset)
        code = run_cli(["train", "--in", str(data), "--epochs", "2",
                        "--out", str(tmp_path / "m.dsc")])
        assert code == 2
        err = capsys.readouterr().err
        assert str(data) in err and "row 4" in err
        assert not (tmp_path / "m.dsc").exists()

    @pytest.mark.parametrize("side", ["pred", "truth"])
    def test_evaluate_rejects_a_nan_row(self, tmp_path, capsys, side):
        data = make_phantom(tmp_path, voxels=3, rotations=2)
        dataset = read_dataset(data)
        fods = dataset.fod_coeffs.copy()
        (fods if side == "pred" else dataset.fod_coeffs)[2] = np.nan
        pred = tmp_path / "pred.dsc"
        write_coeffs(pred, fods, {"representation": "sh", "sh_order": 8})
        write_dataset(data, dataset)
        report = tmp_path / "acc.json"
        code = run_cli(["evaluate", "--pred", str(pred), "--truth", str(data),
                        "--report", str(report)])
        assert code == 2
        err = capsys.readouterr().err
        assert str(pred if side == "pred" else data) in err and "row 2" in err
        assert not report.exists()


@pytest.mark.parametrize("command, zeta", [
    ("fit-shore", "nan"), ("fit-shore", "1e-300"),
])
def test_scale_without_a_finite_design_is_data_error(tmp_path, capsys, command, zeta):
    data = make_phantom(tmp_path, voxels=2, rotations=2)
    code = run_cli([command, "--in", str(data), "--zeta", zeta,
                    "--out", str(tmp_path / "c.dsc")])
    assert code == 2
    assert "zeta" in capsys.readouterr().err


class _Captured(Exception):
    pass


def capture(monkeypatch, module, name, index):
    """Replace module.name by a stub that stops the command and keeps its argument."""
    seen = []

    def stub(*args, **kwargs):
        seen.append(args[index])
        raise _Captured

    monkeypatch.setattr(module, name, stub)
    return seen


class TestDefaults:
    """A command run without optional flags uses the config dataclass defaults."""

    def test_phantom(self, tmp_path, monkeypatch):
        seen = capture(monkeypatch, phantom, "generate_dataset", 0)
        with pytest.raises(_Captured):
            run_cli(["phantom", "--out", str(tmp_path / "d.dsc")])
        assert seen == [phantom.PhantomConfig()]

    def test_fit_shore(self, tmp_path, monkeypatch):
        data = make_phantom(tmp_path)
        nonneg = capture(monkeypatch, cli, "clamp_log", 1)
        with pytest.raises(_Captured):
            run_cli(["fit-shore", "--in", str(data), "--log", "--zeta", "700",
                     "--out", str(tmp_path / "c.dsc")])
        assert nonneg == [NonNegConfig()]
        fit = capture(monkeypatch, shore, "fit_shore_many", 2)
        with pytest.raises(_Captured):
            run_cli(["fit-shore", "--in", str(data), "--zeta", "700",
                     "--out", str(tmp_path / "c.dsc")])
        assert fit == [shore.ShoreFitConfig()]

    def test_train(self, tmp_path, monkeypatch):
        data = make_phantom(tmp_path)
        seen = capture(monkeypatch, pipeline, "train_regressor", 0)
        with pytest.raises(_Captured):
            run_cli(["train", "--in", str(data), "--out", str(tmp_path / "m.dsc")])
        assert seen == [pipeline.PipelineConfig(nested=False)]

    def test_crossval(self, tmp_path, monkeypatch):
        data = make_phantom(tmp_path)
        seen = capture(monkeypatch, pipeline, "compare_subcases", 1)
        with pytest.raises(_Captured):
            run_cli(["crossval", "--in", str(data)])
        assert seen == [[pipeline.PipelineConfig()]]

    def test_config_file_switches_flags_on(self, tmp_path, monkeypatch):
        data = make_phantom(tmp_path)
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps({"early-stop": True, "flat": True}))
        seen = capture(monkeypatch, pipeline, "compare_subcases", 1)
        with pytest.raises(_Captured):
            run_cli(["--config", str(cfg_file), "crossval", "--in", str(data)])
        [[cfg]] = seen
        assert cfg.train.early_stop is True
        assert cfg.nested is False


def readme_commands():
    """Every `deepshore ...` line of the README's code blocks, continuations joined."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"^```[^\n]*\n(.*?)^```", text, flags=re.MULTILINE | re.DOTALL)
    lines = "\n".join(blocks).replace("\\\n", " ").splitlines()
    return [shlex.split(line)[1:] for line in lines if line.startswith("deepshore ")]


@pytest.mark.parametrize("argv", readme_commands(), ids=" ".join)
def test_readme_command_parses(argv):
    args = build_parser().parse_args(argv)
    assert args.command == argv[0]
