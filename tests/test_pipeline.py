import pickle

import numpy as np
import pytest

from deepshore import (
    InvalidArgumentError,
    OptimizationFailureError,
    PipelineConfig,
    TrainConfig,
    compare_subcases,
    run_subcase_experiment,
)
from deepshore import pipeline
from deepshore.phantom import PhantomConfig, generate_dataset
from deepshore.pipeline import SUBCASES, _Standardizer, shell_mask


@pytest.fixture(scope="module")
def tiny_dataset():
    """12 blocks of 11 rows: enough for folds, fast enough for tests."""
    return generate_dataset(
        PhantomConfig(n_voxels=12, rotations_per_voxel=10, snr=float("inf"), seed=31)
    )


def tiny_config(subcase="opt-shore-to-shore", **kw):
    train = TrainConfig(epochs=8, batch_size=32, seed=0,
                        learning_rate=1e-3, stabilizer=1e-6, momentum=0.9)
    defaults = dict(subcase=subcase, train=train, eval_folds=3, max_folds=1,
                    direction_iterations=100)
    defaults.update(kw)
    return PipelineConfig(**defaults)


class TestShellMask:
    def test_default_keeps_everything(self, tiny_dataset):
        assert shell_mask(tiny_dataset.samples).all()

    def test_withhold_removes_one_shell(self, tiny_dataset):
        mask = shell_mask(tiny_dataset.samples, withhold_b=6000.0)
        kept = np.unique(tiny_dataset.samples.bvalues[mask])
        assert 6000.0 not in kept
        assert kept.size == 3

    def test_explicit_shells(self, tiny_dataset):
        mask = shell_mask(tiny_dataset.samples, shells=(3000.0, 9000.0))
        assert set(np.unique(tiny_dataset.samples.bvalues[mask])) == {3000.0, 9000.0}

    def test_empty_selection_rejected(self, tiny_dataset):
        with pytest.raises(InvalidArgumentError):
            shell_mask(tiny_dataset.samples, shells=(1234.0,))


class TestStandardizer:
    def test_roundtrip(self):
        rng = np.random.default_rng(0)
        values = rng.standard_normal((40, 7)) * np.array([1e-3, 1, 10, 100, 1e3, 1e4, 5.0])
        norm = _Standardizer(values)
        assert np.allclose(norm.inverse(norm.forward(values)), values, rtol=1e-12)

    def test_floor_keeps_scales_positive(self):
        values = np.ones((10, 3))
        values[:, 1] = np.linspace(0, 1, 10)
        norm = _Standardizer(values)
        assert np.all(norm.scale > 0)


class TestRunSubcase:
    def test_unknown_subcase_rejected(self):
        with pytest.raises(InvalidArgumentError):
            PipelineConfig(subcase="nope")

    @pytest.mark.parametrize("subcase", sorted(SUBCASES))
    def test_produces_finite_acc_per_test_row(self, tiny_dataset, subcase):
        report = run_subcase_experiment(tiny_config(subcase), tiny_dataset)
        assert report.acc.size == report.row_index.size
        assert np.all(np.isfinite(report.acc))
        assert np.all(np.abs(report.acc) <= 1.0 + 1e-12)
        assert report.median == pytest.approx(float(np.median(report.acc)))

    def test_single_shell_mask_runs(self, tiny_dataset):
        report = run_subcase_experiment(
            tiny_config(shells=(6000.0,)), tiny_dataset
        )
        assert np.all(np.isfinite(report.acc))

    def test_withheld_shell_runs(self, tiny_dataset):
        report = run_subcase_experiment(
            tiny_config(withhold_b=6000.0), tiny_dataset
        )
        assert np.all(np.isfinite(report.acc))

    def test_block_audit_is_leak_free(self, tiny_dataset):
        report = run_subcase_experiment(tiny_config(), tiny_dataset)
        assert report.audit["leak_free"]
        for fold in report.audit["folds"]:
            assert not set(fold["train_blocks"]) & set(fold["test_blocks"])

    def test_test_rows_cover_all_blocks_across_folds(self, tiny_dataset):
        cfg = tiny_config(max_folds=None)
        report = run_subcase_experiment(cfg, tiny_dataset)
        tested_blocks = set(tiny_dataset.block_ids[report.row_index])
        assert tested_blocks == set(tiny_dataset.block_ids)

    def test_unopt_subcase_uses_fixed_scale(self, tiny_dataset):
        report = run_subcase_experiment(
            tiny_config("unopt-shore-to-shore", zeta0=700.0), tiny_dataset
        )
        assert all(f["zeta"] == 700.0 for f in report.folds)
        assert not report.folds[0]["optimized"]

    def test_deterministic_report(self, tiny_dataset):
        a = run_subcase_experiment(tiny_config(), tiny_dataset)
        b = run_subcase_experiment(tiny_config(), tiny_dataset)
        assert np.array_equal(a.acc, b.acc)
        assert a.to_dict() == b.to_dict()

    def test_flat_mode_trains_on_all_training_rows(self, tiny_dataset):
        nested = run_subcase_experiment(tiny_config(), tiny_dataset)
        flat = run_subcase_experiment(tiny_config(nested=False), tiny_dataset)
        assert flat.folds[0]["n_fit_rows"] > nested.folds[0]["n_fit_rows"]


class TestCompare:
    def test_pairwise_comparisons(self, tiny_dataset):
        cfgs = [tiny_config("opt-shore-to-shore"),
                tiny_config("unopt-shore-to-shore", zeta0=700.0)]
        reports, comparisons = compare_subcases(tiny_dataset, cfgs)
        assert len(reports) == 2
        assert len(comparisons) == 1
        row = comparisons[0]
        assert 0.0 <= row["p"] <= 1.0
        assert row["p_bonferroni"] == pytest.approx(min(1.0, row["p"]))
        assert np.array_equal(reports[0].row_index, reports[1].row_index)

    def test_direction_set_generated_once_for_two_subcases(self, tiny_dataset, monkeypatch):
        calls = []
        real = pipeline.generate_uniform_directions

        def counting(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(pipeline, "generate_uniform_directions", counting)
        pipeline._direction_set.cache_clear()
        compare_subcases(tiny_dataset, [tiny_config("opt-shore-to-shore"),
                                        tiny_config("unopt-shore-to-shore")])
        assert calls == [(100, 11, 100)]

    def test_empty_config_list_rejected(self, tiny_dataset):
        with pytest.raises(InvalidArgumentError):
            compare_subcases(tiny_dataset, [])


class TestWorkers:
    def _tasks(self, tiny_dataset, *configs):
        return [(cfg, fold)
                for cfg in configs for fold in pipeline._evaluation_folds(cfg, tiny_dataset)]

    def test_forked_workers_give_the_in_process_results(self, tiny_dataset):
        tasks = self._tasks(tiny_dataset, tiny_config(), tiny_config("opt-shore-to-sh"))
        forked = pipeline._run_tasks(tiny_dataset, tasks, 2)
        serial = pipeline._run_tasks(tiny_dataset, tasks, 1)
        for a, b in zip(forked, serial, strict=True):
            assert all(np.array_equal(x, y) for x, y in zip(a, b, strict=True))

    def test_first_error_in_task_order_is_raised(self, tiny_dataset):
        tasks = self._tasks(tiny_dataset, tiny_config("unopt-shore-to-shore", zeta0=700.0),
                            tiny_config(zeta0=1e-300), tiny_config("opt-shore-to-sh", zeta0=1e-250))
        with pytest.raises(OptimizationFailureError, match="zeta=1e-300"):
            pipeline._run_tasks(tiny_dataset, tasks, 2)

    def test_optimization_failure_keeps_its_fields_through_pickle(self):
        # a worker's error reaches the parent pickled
        error = pickle.loads(pickle.dumps(
            OptimizationFailureError("objective not finite", zeta=812.5, objective=0.25)))
        assert (str(error), error.zeta, error.objective) == ("objective not finite", 812.5, 0.25)
