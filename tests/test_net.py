import tracemalloc

import numpy as np
import pytest

from deepshore import (
    InvalidArgumentError,
    MlpModel,
    TrainConfig,
    VoxelDataset,
    build_model,
    forward,
    gradient_check,
    kfold_split,
    train,
)
from deepshore import net
from deepshore.net import HIDDEN_WIDTHS, SKIP_FROM, SKIP_INTO, _Workspace, _forward_pass, elu

# hidden-width doubles per batch row: a train step keeps the five
# activations (890), one widest-width buffer (400) and two skip-width
# gradient buffers (45 + 45); `forward` one widest-width activation buffer,
# the skip source and the widest-width pre-activation scratch
TRAIN_STEP_DOUBLES_PER_ROW = 1380
FORWARD_DOUBLES_PER_ROW = 845


def reference_elu(x):
    return np.where(x > 0, x, np.expm1(np.minimum(x, 0.0)))


def reference_elu_grad(pre, post):
    return np.where(pre > 0, 1.0, post + 1.0)


def reference_forward_trace(weights, biases, batch):
    """The allocating forward pass: a fresh array for every intermediate."""
    pre = []
    act = [batch]
    h = batch
    for layer in range(5):
        z = h @ weights[layer] + biases[layer]
        if layer + 1 == SKIP_INTO:
            z = z + act[SKIP_FROM]
        h = reference_elu(z)
        pre.append(z)
        act.append(h)
    return h @ weights[5] + biases[5], pre, act


def reference_gradients(weights, biases, batch, targets):
    out, pre, act = reference_forward_trace(weights, biases, batch)
    diff = out - targets
    loss = float(np.mean(diff * diff))
    grad_w = [None] * 6
    grad_b = [None] * 6
    delta = 2.0 * diff / diff.size
    grad_w[5] = act[5].T @ delta
    grad_b[5] = delta.sum(axis=0)
    upstream = delta @ weights[5].T
    skip_delta = None
    for layer in range(4, -1, -1):
        delta = upstream * reference_elu_grad(pre[layer], act[layer + 1])
        if layer + 1 == SKIP_INTO:
            skip_delta = delta
        grad_w[layer] = act[layer].T @ delta
        grad_b[layer] = delta.sum(axis=0)
        upstream = delta @ weights[layer].T
        if layer == SKIP_FROM:
            upstream = upstream + skip_delta
    return loss, grad_w, grad_b


def reference_train(model, data, cfg):
    """Mini-batch RMSProp with out-of-place updates, no early stopping."""
    params = [w.copy() for w in model.weights] + [b.copy() for b in model.biases]
    square_avg = [np.zeros_like(p) for p in params]
    step = [np.zeros_like(p) for p in params]
    rng = np.random.default_rng(cfg.seed)
    n_rows = len(data)
    history = []
    for _ in range(cfg.epochs):
        order = rng.permutation(n_rows)
        epoch_sse = 0.0
        for start in range(0, n_rows, cfg.batch_size):
            rows = order[start:start + cfg.batch_size]
            loss, grad_w, grad_b = reference_gradients(
                params[:6], params[6:], data.inputs[rows], data.targets[rows])
            epoch_sse += loss * rows.size
            for i, grad in enumerate(grad_w + grad_b):
                square_avg[i] = cfg.decay * square_avg[i] + (1 - cfg.decay) * grad ** 2
                step[i] = cfg.momentum * step[i] + grad / (np.sqrt(square_avg[i]) + cfg.stabilizer)
                params[i] = params[i] - cfg.learning_rate * step[i]
        history.append(epoch_sse / n_rows)
    return params, np.array(history)


def same_bits(a, b):
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))


def expected_parameter_count(input_dim, output_dim):
    dims = (input_dim,) + HIDDEN_WIDTHS + (output_dim,)
    return sum(a * b + b for a, b in zip(dims[:-1], dims[1:]))


def small_batch(seed, rows, input_dim, output_dim):
    rng = np.random.default_rng(seed)
    return rng.standard_normal((rows, input_dim)), rng.standard_normal((rows, output_dim))


class TestBuildModel:
    def test_shape_chain_and_parameter_count(self):
        model = build_model(50, 45, seed=0)
        dims = [w.shape for w in model.weights]
        assert dims == [(50, 400), (400, 45), (45, 200), (200, 45), (45, 200), (200, 45)]
        count = sum(w.size + b.size for w, b in zip(model.weights, model.biases))
        assert count == expected_parameter_count(50, 45)

    def test_output_width_fifty_variant(self):
        model = build_model(50, 50, seed=0)
        assert model.weights[-1].shape == (200, 50)

    def test_deterministic_per_seed(self):
        a = build_model(50, 45, seed=3)
        b = build_model(50, 45, seed=3)
        for wa, wb in zip(a.weights, b.weights):
            assert np.array_equal(wa, wb)

    def test_zero_dims_rejected(self):
        with pytest.raises(InvalidArgumentError):
            build_model(0, 45, seed=0)
        with pytest.raises(InvalidArgumentError):
            build_model(50, 0, seed=0)


class TestForward:
    def test_zero_model_maps_to_zero(self):
        model = build_model(50, 45, seed=0)
        for w in model.weights:
            w[:] = 0.0
        x, _ = small_batch(0, 6, 50, 45)
        assert np.all(forward(model, x) == 0.0)

    def test_output_shape(self):
        model = build_model(50, 45, seed=0)
        x, _ = small_batch(1, 17, 50, 45)
        assert forward(model, x).shape == (17, 45)

    def test_finite_for_large_inputs(self):
        model = build_model(50, 45, seed=0)
        rng = np.random.default_rng(2)
        x = rng.uniform(-1e3, 1e3, size=(8, 50))
        assert np.all(np.isfinite(forward(model, x)))

    def test_width_mismatch_rejected(self):
        model = build_model(50, 45, seed=0)
        with pytest.raises(InvalidArgumentError):
            forward(model, np.zeros((3, 49)))

    def test_residual_skip_alone_feeds_layer_four(self):
        model = build_model(50, 45, seed=1)
        model.weights[2][:] = 0.0
        model.weights[3][:] = 0.0
        model.biases[2][:] = 0.0
        model.biases[3][:] = 0.0
        x, _ = small_batch(3, 5, 50, 45)
        _, act = _forward_pass(model, x, _Workspace(model, len(x)))
        assert np.array_equal(act[4], elu(act[2]))

    def test_elu_edge_values_match_masked_form_bitwise(self):
        edges = [-0.0, 0.0, 5e-324, -5e-324, -1e-300, -800.0, 800.0,
                 np.inf, -np.inf, np.nan, -1.5, 1.5]
        # long enough for vectorized loops plus a scalar remainder, and alone
        x = np.array(edges * 7)
        assert same_bits(elu(x), reference_elu(x))
        for value in edges:
            assert same_bits(elu(np.array([value])), reference_elu(np.array([value])))

    def test_elu_out_argument(self):
        x = np.linspace(-3.0, 3.0, 13).reshape(1, 13)
        out = np.empty_like(x)
        assert elu(x, out=out) is out
        assert same_bits(out, reference_elu(x))

    def test_single_row_batch(self):
        model = build_model(50, 45, seed=4)
        assert forward(model, np.zeros((1, 50))).shape == (1, 45)


class TestGradientCheck:
    @pytest.mark.parametrize("seed", range(20))
    def test_fresh_models_pass(self, seed):
        model = build_model(13, 7, seed=seed)
        x, y = small_batch(seed + 100, 4, 13, 7)
        assert gradient_check(model, x, y, n_samples=120, seed=seed) < 1e-4

    def test_zero_model_output_bias_gradient_closed_form(self):
        model = build_model(10, 6, seed=0)
        for w in model.weights:
            w[:] = 0.0
        x, y = small_batch(7, 5, 10, 6)
        from deepshore.net import _gradients

        _, _, grad_b = _gradients(model, x, y)
        # with all weights zero the output is zero, so the bias gradient is
        # 2 * mean(out - target) / output_dim per coordinate
        expected = 2.0 * (0.0 - y).mean(axis=0) / 6.0
        assert np.allclose(grad_b[5], expected, atol=1e-12)
        assert gradient_check(model, x, y, n_samples=100, arrays=("b6",)) < 1e-4

    def test_residual_source_layer(self):
        model = build_model(12, 5, seed=9)
        x, y = small_batch(11, 4, 12, 5)
        assert gradient_check(model, x, y, n_samples=250, seed=1, arrays=("w2", "b2")) < 1e-4

    def test_unknown_array_rejected(self):
        model = build_model(12, 5, seed=9)
        x, y = small_batch(11, 4, 12, 5)
        with pytest.raises(InvalidArgumentError):
            gradient_check(model, x, y, arrays=("w9",))


class TestTrain:
    def test_history_length_and_decrease(self):
        x, y = small_batch(21, 60, 10, 8)
        data = VoxelDataset(x, y, np.arange(60))
        model = build_model(10, 8, seed=0)
        trained, history = train(model, data, TrainConfig(epochs=50, batch_size=20, seed=1))
        assert history.shape == (50,)
        assert history[-1] < history[0]

    def test_single_epoch_history(self):
        x, y = small_batch(22, 10, 10, 8)
        data = VoxelDataset(x, y, np.arange(10))
        _, history = train(build_model(10, 8, seed=0), data, TrainConfig(epochs=1, batch_size=5))
        assert history.shape == (1,)

    def test_zero_epochs_rejected(self):
        with pytest.raises(InvalidArgumentError):
            TrainConfig(epochs=0)

    @pytest.mark.parametrize("field, value", [
        ("learning_rate", -1.0), ("learning_rate", np.nan), ("stabilizer", 0.0),
        ("stabilizer", np.inf), ("decay", 1.0), ("momentum", -0.1),
    ])
    def test_optimizer_setting_out_of_range_rejected(self, field, value):
        with pytest.raises(InvalidArgumentError, match=field):
            TrainConfig(**{field: value})

    def test_deterministic_histories(self):
        x, y = small_batch(23, 40, 10, 8)
        data = VoxelDataset(x, y, np.arange(40))
        cfg = TrainConfig(epochs=20, batch_size=16, seed=5)
        _, h1 = train(build_model(10, 8, seed=2), data, cfg)
        _, h2 = train(build_model(10, 8, seed=2), data, cfg)
        assert np.array_equal(h1, h2)

    def test_input_model_untouched(self):
        x, y = small_batch(24, 30, 10, 8)
        data = VoxelDataset(x, y, np.arange(30))
        model = build_model(10, 8, seed=3)
        before = [w.copy() for w in model.weights]
        train(model, data, TrainConfig(epochs=3, batch_size=10))
        for w, b in zip(model.weights, before):
            assert np.array_equal(w, b)

    def test_width_mismatch_rejected(self):
        x, y = small_batch(25, 10, 10, 8)
        data = VoxelDataset(x, y, np.arange(10))
        with pytest.raises(InvalidArgumentError):
            train(build_model(11, 8, seed=0), data, TrainConfig(epochs=1))

    def test_bitwise_equal_to_allocating_reference(self):
        # 70 rows in batches of 32 leave a 6-row last batch; momentum is on
        # and the skip weights are random, so every path carries signal
        x, y = small_batch(28, 70, 12, 7)
        data = VoxelDataset(x, y, np.arange(70))
        model = build_model(12, 7, seed=6)
        cfg = TrainConfig(epochs=6, batch_size=32, seed=3, momentum=0.9,
                          learning_rate=3e-3, stabilizer=1e-6)
        trained, history = train(model, data, cfg)
        ref_params, ref_history = reference_train(model, data, cfg)
        assert same_bits(history, ref_history)
        for got, want in zip(trained.weights + trained.biases, ref_params):
            assert same_bits(got, want)
        ref_out, _, _ = reference_forward_trace(ref_params[:6], ref_params[6:], x)
        assert same_bits(forward(trained, x), ref_out)

    def test_gradients_bitwise_equal_to_allocating_reference(self):
        x, y = small_batch(29, 9, 12, 7)
        model = build_model(12, 7, seed=8)
        loss, grad_w, grad_b = net._gradients(model, x, y)
        ref_loss, ref_w, ref_b = reference_gradients(model.weights, model.biases, x, y)
        assert loss == ref_loss
        for got, want in zip(grad_w + grad_b, ref_w + ref_b):
            assert same_bits(got, want)

    def test_gradients_on_a_reused_workspace_bitwise_equal_to_reference(self):
        # a full batch, a short last batch and the full batch again through
        # one workspace: stale values left in shared buffers must not leak
        model = build_model(12, 7, seed=10)
        ws = _Workspace(model, 32)
        for rows, seed in ((32, 30), (6, 31), (32, 32)):
            x, y = small_batch(seed, rows, 12, 7)
            loss, grad_w, grad_b = net._gradients(model, x, y, ws)
            ref_loss, ref_w, ref_b = reference_gradients(model.weights, model.biases, x, y)
            assert loss == ref_loss
            for got, want in zip(grad_w + grad_b, ref_w + ref_b):
                assert same_bits(got, want)

    def test_skip_delta_reaches_the_source_layer_bitwise(self):
        # with layers 3 and 4 zeroed, the source layer's gradient arrives
        # only through the skip
        model = build_model(12, 7, seed=11)
        for i in (2, 3):
            model.weights[i][:] = 0.0
        x, y = small_batch(33, 10, 12, 7)
        _, grad_w, _ = net._gradients(model, x, y, _Workspace(model, 16))
        _, ref_w, _ = reference_gradients(model.weights, model.biases, x, y)
        assert np.any(ref_w[1] != 0.0)
        assert same_bits(grad_w[1], ref_w[1])

    def test_forward_bitwise_equal_to_training_forward_pass(self):
        model = build_model(12, 7, seed=12)
        ws = _Workspace(model, 20, backward=False)
        for rows, seed in ((20, 34), (3, 35)):
            x, _ = small_batch(seed, rows, 12, 7)
            train_out, _ = _forward_pass(model, x, _Workspace(model, rows))
            ref_out, _, _ = reference_forward_trace(model.weights, model.biases, x)
            assert same_bits(train_out, ref_out)
            assert same_bits(forward(model, x), train_out)
            assert same_bits(forward(model, x, ws), train_out)

    @pytest.mark.parametrize("step, doubles", [
        ("train", TRAIN_STEP_DOUBLES_PER_ROW), ("forward", FORWARD_DOUBLES_PER_ROW)])
    def test_doubles_allocated_per_row(self, step, doubles):
        # the peak allocation of one call grows with the batch by exactly the
        # hidden-width buffers plus the output-width ones (out, and for a
        # train step the output delta); per-layer buffers would show here
        model = build_model(6, 5, seed=0)
        calls = {"train": lambda x, y: net._gradients(model, x, y),
                 "forward": lambda x, y: forward(model, x)}
        out_buffers = {"train": 2, "forward": 1}[step]
        peaks = []
        # numpy's own scratch of a call still varies below about 300 rows
        for rows in (400, 800):
            x, y = small_batch(36, rows, 6, 5)
            tracemalloc.start()
            try:
                base = tracemalloc.get_traced_memory()[0]
                calls[step](x, y)
                peaks.append(tracemalloc.get_traced_memory()[1] - base)
            finally:
                tracemalloc.stop()
        per_row = (peaks[1] - peaks[0]) / 400 / 8
        assert round(per_row) == doubles + out_buffers * model.output_dim

    def test_validation_unused_without_early_stop(self, monkeypatch):
        x, y = small_batch(27, 50, 10, 8)
        data = VoxelDataset(x[:40], y[:40], np.arange(40))
        cfg = TrainConfig(epochs=5, batch_size=16, seed=2)
        plain, plain_history = train(build_model(10, 8, seed=1), data, cfg)
        calls = []
        real_forward = net.forward

        def counting_forward(*args):
            calls.append(args)
            return real_forward(*args)

        monkeypatch.setattr(net, "forward", counting_forward)
        checked, checked_history = train(build_model(10, 8, seed=1), data, cfg,
                                         validation=(x[40:], y[40:]))
        assert calls == []
        assert same_bits(checked_history, plain_history)
        for got, want in zip(checked.weights + checked.biases, plain.weights + plain.biases):
            assert same_bits(got, want)

    def test_early_stop_restores_best_validation_weights(self):
        x, y = small_batch(26, 80, 10, 8)
        data = VoxelDataset(x[:60], y[:60], np.arange(60))
        cfg = TrainConfig(epochs=120, batch_size=20, seed=0, early_stop=True, patience=10)
        trained, history = train(build_model(10, 8, seed=1), data, cfg,
                                 validation=(x[60:], y[60:]))
        assert len(history) <= 120

    def test_validation_reuses_one_workspace_bitwise(self, monkeypatch):
        x, y = small_batch(37, 80, 10, 8)
        data = VoxelDataset(x[:60], y[:60], np.arange(60))
        cfg = TrainConfig(epochs=40, batch_size=20, seed=0, early_stop=True, patience=5)
        real_forward = net.forward
        workspaces = []

        def recording_forward(model, batch, ws=None):
            workspaces.append(ws)
            return real_forward(model, batch, ws)

        monkeypatch.setattr(net, "forward", recording_forward)
        reused, reused_history = train(build_model(10, 8, seed=1), data, cfg,
                                       validation=(x[60:], y[60:]))
        assert len(workspaces) == len(reused_history) > 1
        assert workspaces[0] is not None and all(ws is workspaces[0] for ws in workspaces)

        monkeypatch.setattr(net, "forward", lambda model, batch, ws=None: real_forward(model, batch))
        fresh, fresh_history = train(build_model(10, 8, seed=1), data, cfg,
                                     validation=(x[60:], y[60:]))
        assert same_bits(reused_history, fresh_history)
        for got, want in zip(reused.weights + reused.biases, fresh.weights + fresh.biases):
            assert same_bits(got, want)


class TestKfoldSplit:
    @staticmethod
    def blocks_dataset(n_blocks, rows_per_block):
        rows = n_blocks * rows_per_block
        block_ids = np.repeat(np.arange(n_blocks), rows_per_block)
        return VoxelDataset(np.zeros((rows, 3)), np.zeros((rows, 2)), block_ids)

    def test_ten_blocks_five_folds(self):
        data = self.blocks_dataset(10, 4)
        splits = kfold_split(data, 5, seed=0)
        assert len(splits) == 5
        seen = []
        for train_rows, test_rows in splits:
            test_blocks = np.unique(data.block_ids[test_rows])
            assert test_blocks.size == 2
            seen.extend(test_blocks.tolist())
            assert np.intersect1d(
                np.unique(data.block_ids[train_rows]), test_blocks
            ).size == 0
        assert sorted(seen) == list(range(10))

    def test_rows_of_one_block_stay_together(self):
        data = self.blocks_dataset(12, 101)
        for train_rows, test_rows in kfold_split(data, 4, seed=3):
            train_blocks = set(data.block_ids[train_rows])
            test_blocks = set(data.block_ids[test_rows])
            assert not train_blocks & test_blocks
            assert len(train_rows) + len(test_rows) == len(data)

    def test_fold_sizes_for_567_blocks_8_folds(self):
        data = self.blocks_dataset(567, 1)
        splits = kfold_split(data, 8, seed=1)
        sizes = sorted(len(test) for _, test in splits)
        assert sizes == [70, 71, 71, 71, 71, 71, 71, 71]

    def test_fewer_blocks_than_folds_rejected(self):
        with pytest.raises(InvalidArgumentError):
            kfold_split(self.blocks_dataset(3, 2), 4, seed=0)

    def test_deterministic(self):
        data = self.blocks_dataset(20, 3)
        a = kfold_split(data, 5, seed=9)
        b = kfold_split(data, 5, seed=9)
        for (ta, sa), (tb, sb) in zip(a, b):
            assert np.array_equal(ta, tb) and np.array_equal(sa, sb)


class TestOverfit:
    def test_memorizes_small_phantom_dataset(self):
        # end-of-pipeline learning check lives in the acceptance suite; this
        # is the bare capacity check on a tiny synthetic regression task
        rng = np.random.default_rng(4)
        x = rng.standard_normal((100, 20))
        proj = rng.standard_normal((20, 9)) * 0.4
        y = np.tanh(x @ proj)
        data = VoxelDataset(x, y, np.arange(100))
        cfg = TrainConfig(epochs=500, batch_size=100, seed=0,
                          learning_rate=1e-3, stabilizer=1e-6, momentum=0.9)
        trained, history = train(build_model(20, 9, seed=1), data, cfg)
        assert history[-1] < history[0] * 1e-2
