"""Residual feed-forward regressor mapping signal coefficients to FOD coefficients.

Five hidden layers of widths 400, 45, 200, 45, 200 with elu activations
and a linear output projection. A skip connection adds the second hidden
activation into the fourth layer's pre-activation, which is why those two
widths match. Trained with mini-batch RMSProp on mean squared error;
everything is seeded and deterministic. Implemented directly in numpy so
the analytic gradients can be audited against finite differences.
"""

from dataclasses import dataclass

import numpy as np

from .errors import InvalidArgumentError

HIDDEN_WIDTHS = (400, 45, 200, 45, 200)
# which hidden activation feeds the skip, and which pre-activation receives it
SKIP_FROM = 2
SKIP_INTO = 4


def _layer_dims(input_dim, output_dim):
    """The widths of every layer, input and output included."""
    if input_dim < 1 or output_dim < 1:
        raise InvalidArgumentError("layer dimensions must be >= 1")
    return (input_dim,) + HIDDEN_WIDTHS + (output_dim,)


@dataclass(frozen=True)
class TrainConfig:
    """Mini-batch RMSProp settings (loss is always mean squared error).

    `momentum` accumulates the preconditioned step as in the common
    framework implementations of RMSProp; 0 disables it.
    """

    epochs: int = 200
    batch_size: int = 1000
    learning_rate: float = 1e-3
    decay: float = 0.9
    stabilizer: float = 1e-8
    momentum: float = 0.0
    seed: int = 0
    k_folds: int = 5
    early_stop: bool = False
    patience: int = 50

    def __post_init__(self):
        if self.batch_size < 1:
            raise InvalidArgumentError("batch_size must be >= 1")
        if self.epochs < 1:
            raise InvalidArgumentError("epochs must be >= 1")
        if self.k_folds < 2:
            raise InvalidArgumentError("k_folds must be >= 2")
        if self.seed < 0:
            raise InvalidArgumentError(f"seed must be >= 0, got {self.seed}")
        for name in ("learning_rate", "stabilizer"):
            value = getattr(self, name)
            if not 0 < value < np.inf:
                raise InvalidArgumentError(f"{name} must be positive and finite, got {value}")
        for name in ("decay", "momentum"):
            value = getattr(self, name)
            if not 0 <= value < 1:
                raise InvalidArgumentError(f"{name} must lie in [0, 1), got {value}")


class MlpModel:
    """Weight matrices and bias vectors for the fixed architecture.

    Weights are stored (fan_in, fan_out) so a batch maps through
    ``batch @ W + b``.
    """

    def __init__(self, input_dim, output_dim, weights, biases, seed=None):
        dims = _layer_dims(input_dim, output_dim)
        if len(weights) != len(dims) - 1 or len(biases) != len(dims) - 1:
            raise InvalidArgumentError("expected one weight/bias pair per layer")
        for i, (w, b) in enumerate(zip(weights, biases)):
            if w.shape != (dims[i], dims[i + 1]) or b.shape != (dims[i + 1],):
                raise InvalidArgumentError(
                    f"layer {i}: shapes {w.shape}/{b.shape} do not chain {dims[i]}->{dims[i + 1]}"
                )
        self.input_dim = input_dim
        self.output_dim = output_dim
        self.weights = [np.array(w, dtype=float) for w in weights]
        self.biases = [np.array(b, dtype=float) for b in biases]
        self.seed = seed

    @property
    def layer_dims(self):
        return _layer_dims(self.input_dim, self.output_dim)

    @property
    def architecture(self):
        """The model itself: the benchmark's tracer reads its layer widths as
        ``model.architecture.layer_dims``."""
        return self

    def copy(self):
        return MlpModel(
            self.input_dim,
            self.output_dim,
            [w.copy() for w in self.weights],
            [b.copy() for b in self.biases],
            seed=self.seed,
        )


def build_model(input_dim, output_dim, seed):
    """Seeded Gaussian initialization, std sqrt(2 / (fan_in + fan_out))."""
    rng = np.random.default_rng(seed)
    weights = []
    biases = []
    dims = _layer_dims(input_dim, output_dim)
    for fan_in, fan_out in zip(dims[:-1], dims[1:]):
        std = np.sqrt(2.0 / (fan_in + fan_out))
        weights.append(rng.standard_normal((fan_in, fan_out)) * std)
        biases.append(np.zeros(fan_out))
    return MlpModel(input_dim, output_dim, weights, biases, seed=seed)


def elu(x, out=None):
    """Exponential linear unit: x above zero, expm1(x) at or below it.

    Computed as maximum(x, expm1(minimum(x, 0))), which needs no mask
    because expm1(x) >= x everywhere; it rounds exactly as the masked
    form. `out` must not be `x` itself.
    """
    out = np.minimum(x, 0.0, out=out)
    np.expm1(out, out=out)
    return np.maximum(x, out, out=out)


def _rows(buf, n, width):
    """The leading `n` rows of flat `buf` as a C-contiguous (n, width) array."""
    return buf[:n * width].reshape(n, width)


class _Workspace:
    """Flat buffers for batches of up to `rows` rows, shared by liveness.

    One workspace serves every batch of a `train` call, or every
    `forward` call over the same rows; a shorter batch uses the leading
    rows. Each buffer holds one live value at a time:

    - `scratch` (widest layer): each forward pre-activation, from its
      matmul until elu reads it. In the backward pass up[4], then up[2],
      then up[0], each turned in place into its layer's delta.
    - `act[l]`: activation l + 1. With `backward` each has its own
      buffer, which the backward pass overwrites with the elu derivative
      once the weight gradient has read the activation. Without, the skip
      source act[SKIP_FROM - 1] has its own, read two layers later, and
      the others share one widest-width buffer: a layer's matmul has read
      the activation before elu overwrites it with the next.
    - `up[l]` (with `backward`): the gradient arriving at activation
      l + 1. Neighbours alternate between `scratch` and own buffers, as
      each is the matmul of the delta held in the one before; and
      up[SKIP_INTO - 1] still holds its delta when the skip adds it into
      up[SKIP_FROM - 1].
    - `out`: the output, then the residual; `delta_out`: the output
      delta; `grad_w`, `grad_b`: the parameter gradients.
    """

    def __init__(self, model, rows, backward=True):
        widest = max(HIDDEN_WIDTHS)
        self.scratch = np.empty(rows * widest)
        self.out = np.empty(rows * model.output_dim)
        if backward:
            self.act = [np.empty(rows * width) for width in HIDDEN_WIDTHS]
            self.up = [self.scratch if l % 2 == 0 else np.empty(rows * width)
                       for l, width in enumerate(HIDDEN_WIDTHS)]
            self.delta_out = np.empty(rows * model.output_dim)
            self.grad_w = [np.empty_like(w) for w in model.weights]
            self.grad_b = [np.empty_like(b) for b in model.biases]
        else:
            shared = np.empty(rows * widest)
            skip = np.empty(rows * HIDDEN_WIDTHS[SKIP_FROM - 1])
            self.act = [skip if l + 1 == SKIP_FROM else shared
                        for l in range(len(HIDDEN_WIDTHS))]


def _layer(h, weight, bias, pre, act=None, skip=None):
    """pre = h @ weight + bias (+ skip), then act = elu(pre) when given.

    Everything is written into the given buffers, in the same order of
    operations as the allocating expression, so the rounding is the same.
    """
    np.matmul(h, weight, out=pre)
    pre += bias
    if skip is not None:
        pre += skip
    if act is None:
        return pre
    return elu(pre, out=act)


def _forward_pass(model, batch, ws):
    """The output and activations [batch, act 1, ..., act 5] of a batch.

    Each pre-activation is computed in `ws.scratch`; the activations are
    views of `ws.act`, which for a forward-only workspace share a buffer,
    so there only the last one and act[SKIP_FROM] hold their values.
    """
    n = len(batch)
    act = [batch] + [_rows(buf, n, width) for buf, width in zip(ws.act, HIDDEN_WIDTHS)]
    for layer in range(5):
        skip = act[SKIP_FROM] if layer + 1 == SKIP_INTO else None
        pre = _rows(ws.scratch, n, HIDDEN_WIDTHS[layer])
        _layer(act[layer], model.weights[layer], model.biases[layer], pre, act[layer + 1], skip)
    out = _layer(act[5], model.weights[5], model.biases[5], _rows(ws.out, n, model.output_dim))
    return out, act


def forward(model, batch, ws=None):
    """Map a batch (rows = samples) through the network.

    `ws` is a forward-only workspace (`_Workspace(model, rows,
    backward=False)`) to reuse across calls; the result is then a view of
    its buffer, overwritten by the next call. Without one, a workspace
    sized to the batch is built.
    """
    batch = np.asarray(batch, dtype=float)
    if batch.ndim != 2 or batch.shape[1] != model.input_dim:
        raise InvalidArgumentError(
            f"batch width {batch.shape} does not match input_dim {model.input_dim}"
        )
    if ws is None:
        ws = _Workspace(model, len(batch), backward=False)
    out, _ = _forward_pass(model, batch, ws)
    return out


def mse(predictions, targets):
    diff = predictions - targets
    return float(np.mean(diff * diff))


def _gradients(model, batch, targets, ws=None):
    """Loss and analytic parameter gradients of the batch MSE.

    The gradients are the workspace's buffers: the next call with the
    same workspace overwrites them. Without a workspace, one sized to
    the batch is built.
    """
    n = len(batch)
    if ws is None:
        ws = _Workspace(model, n)
    out, act = _forward_pass(model, batch, ws)
    up = [_rows(buf, n, width) for buf, width in zip(ws.up, HIDDEN_WIDTHS)]
    grad_w, grad_b = ws.grad_w, ws.grad_b

    diff = np.subtract(out, targets, out=out)
    delta = np.multiply(diff, 2.0, out=_rows(ws.delta_out, n, model.output_dim))
    delta /= diff.size
    loss = float(np.mean(np.multiply(diff, diff, out=diff)))
    np.matmul(act[5].T, delta, out=grad_w[5])
    np.sum(delta, axis=0, out=grad_b[5])
    np.matmul(delta, model.weights[5].T, out=up[4])

    for layer in range(4, -1, -1):
        # elu'(z) is 1 above zero and elu(z) + 1 below, i.e. min(elu(z), 0) + 1;
        # it overwrites the activation it is read from, which is no longer
        # needed, and the delta overwrites up (up * elu' rounds as elu' * up)
        elu_grad = np.minimum(act[layer + 1], 0.0, out=act[layer + 1])
        elu_grad += 1.0
        delta = up[layer]
        delta *= elu_grad
        np.matmul(act[layer].T, delta, out=grad_w[layer])
        np.sum(delta, axis=0, out=grad_b[layer])
        if layer == 0:
            break
        np.matmul(delta, model.weights[layer].T, out=up[layer - 1])
        if layer == SKIP_FROM:
            # the skip feeds act[SKIP_FROM] straight into pre-activation SKIP_INTO
            up[layer - 1] += up[SKIP_INTO - 1]
    return loss, grad_w, grad_b


def _rmsprop_update(param, grad, square_avg, step, cfg, scratch):
    """One in-place RMSProp step with momentum; `scratch` has param's shape.

    Rounds exactly as the allocating form
        square_avg = decay * square_avg + (1 - decay) * grad ** 2
        step = momentum * step + grad / (sqrt(square_avg) + stabilizer)
        param -= learning_rate * step
    """
    square_avg *= cfg.decay
    np.multiply(grad, grad, out=scratch)
    scratch *= 1 - cfg.decay
    square_avg += scratch
    np.sqrt(square_avg, out=scratch)
    scratch += cfg.stabilizer
    np.divide(grad, scratch, out=scratch)
    step *= cfg.momentum
    step += scratch
    np.multiply(step, cfg.learning_rate, out=scratch)
    param -= scratch


class VoxelDataset:
    """Paired input/target coefficient rows with block grouping.

    A block groups a source voxel with its synthetic rotations so that
    fold splitting can keep them on one side.
    """

    def __init__(self, inputs, targets, block_ids):
        inputs = np.asarray(inputs, dtype=float)
        targets = np.asarray(targets, dtype=float)
        block_ids = np.asarray(block_ids)
        if inputs.ndim != 2 or targets.ndim != 2:
            raise InvalidArgumentError("inputs and targets must be 2-D")
        if not (inputs.shape[0] == targets.shape[0] == block_ids.shape[0]):
            raise InvalidArgumentError("row counts of inputs/targets/block_ids differ")
        if inputs.shape[0] == 0:
            raise InvalidArgumentError("dataset is empty")
        self.inputs = inputs
        self.targets = targets
        self.block_ids = block_ids

    def __len__(self):
        return self.inputs.shape[0]


def train(model, data, cfg, validation=None):
    """Mini-batch RMSProp on mean squared error.

    Returns a trained copy of the model and the per-epoch mean training
    loss. Shuffling is driven by cfg.seed, so identical (model, data,
    cfg) reproduce identical histories. When `validation` is given as an
    (inputs, targets) pair and cfg.early_stop is set, training stops
    after cfg.patience epochs without validation improvement and the
    best-validation weights are restored; without cfg.early_stop the
    validation pair is not used.
    """
    if not isinstance(data, VoxelDataset):
        raise InvalidArgumentError("data must be a VoxelDataset")
    if data.inputs.shape[1] != model.input_dim or data.targets.shape[1] != model.output_dim:
        raise InvalidArgumentError(
            f"dataset widths {data.inputs.shape[1]}/{data.targets.shape[1]} do not match "
            f"model dims {model.input_dim}/{model.output_dim}"
        )

    model = model.copy()
    params = model.weights + model.biases
    square_avg = [np.zeros_like(p) for p in params]
    step = [np.zeros_like(p) for p in params]
    scratch = np.empty(max(p.size for p in params))
    scratches = [scratch[:p.size].reshape(p.shape) for p in params]
    rng = np.random.default_rng(cfg.seed)
    n_rows = len(data)
    rows_max = min(cfg.batch_size, n_rows)
    ws = _Workspace(model, rows_max)
    val_ws = None
    if validation is not None and cfg.early_stop:
        val_inputs, val_targets = validation
        val_ws = _Workspace(model, len(val_inputs), backward=False)
    inputs = np.empty((rows_max, model.input_dim))
    targets = np.empty((rows_max, model.output_dim))
    history = []

    best_val = np.inf
    best_state = None
    stale = 0

    for _ in range(cfg.epochs):
        order = rng.permutation(n_rows)
        epoch_sse = 0.0
        for start in range(0, n_rows, cfg.batch_size):
            rows = order[start:start + cfg.batch_size]
            # rows come from a permutation, so "clip" never clips; the
            # default "raise" mode would copy through a temporary
            batch = np.take(data.inputs, rows, axis=0, out=inputs[:rows.size], mode="clip")
            batch_targets = np.take(data.targets, rows, axis=0,
                                    out=targets[:rows.size], mode="clip")
            loss, grad_w, grad_b = _gradients(model, batch, batch_targets, ws)
            epoch_sse += loss * rows.size
            grads = grad_w + grad_b
            for param, grad, avg, stp, tmp in zip(params, grads, square_avg, step, scratches):
                _rmsprop_update(param, grad, avg, stp, cfg, tmp)
        history.append(epoch_sse / n_rows)

        # only early stopping reads the validation loss
        if val_ws is not None:
            val_loss = mse(forward(model, val_inputs, val_ws), val_targets)
            if val_loss < best_val:
                best_val = val_loss
                stale = 0
                best_state = ([w.copy() for w in model.weights],
                              [b.copy() for b in model.biases])
            else:
                stale += 1
                if stale >= cfg.patience:
                    break
    if best_state is not None:
        model.weights, model.biases = best_state
    return model, np.array(history)


def gradient_check(model, batch, targets, *, n_samples=200, step=1e-5, seed=0,
                   arrays=None):
    """Max relative error of analytic vs central-difference gradients.

    Samples parameter coordinates at random (at least `n_samples`, or
    every coordinate of the arrays selected by `arrays`, e.g. ("w2",),
    when that is smaller). Intended for small batches.
    """
    batch = np.asarray(batch, dtype=float)
    targets = np.asarray(targets, dtype=float)
    _, grad_w, grad_b = _gradients(model, batch, targets)

    named = {}
    for i in range(6):
        named[f"w{i + 1}"] = (model.weights[i], grad_w[i])
        named[f"b{i + 1}"] = (model.biases[i], grad_b[i])
    if arrays is not None:
        unknown = set(arrays) - named.keys()
        if unknown:
            raise InvalidArgumentError(f"unknown parameter arrays: {sorted(unknown)}")
        named = {k: named[k] for k in arrays}

    flat = []
    for name, (param, grad) in named.items():
        for k in range(param.size):
            flat.append((param, grad, k))
    rng = np.random.default_rng(seed)
    if len(flat) > n_samples:
        picks = rng.choice(len(flat), size=n_samples, replace=False)
        flat = [flat[p] for p in picks]

    ws = _Workspace(model, len(batch), backward=False)
    worst = 0.0
    for param, grad, k in flat:
        view = param.reshape(-1)
        saved = view[k]
        view[k] = saved + step
        loss_plus = mse(forward(model, batch, ws), targets)
        view[k] = saved - step
        loss_minus = mse(forward(model, batch, ws), targets)
        view[k] = saved
        numeric = (loss_plus - loss_minus) / (2.0 * step)
        analytic = grad.reshape(-1)[k]
        scale = max(abs(numeric), abs(analytic), 1e-8)
        worst = max(worst, abs(numeric - analytic) / scale)
    return worst


def kfold_split(data, k, seed):
    """Block-aware k-fold partitions as (train_rows, test_rows) index pairs.

    Blocks, not rows, are shuffled and dealt into k near-equal folds, so
    all rotations of a source voxel stay on one side of every split.
    """
    if k < 2:
        raise InvalidArgumentError("k must be >= 2")
    blocks = np.unique(data.block_ids)
    if blocks.size < k:
        raise InvalidArgumentError(f"cannot split {blocks.size} blocks into {k} folds")
    rng = np.random.default_rng(seed)
    shuffled = blocks[rng.permutation(blocks.size)]
    fold_blocks = np.array_split(shuffled, k)

    splits = []
    all_rows = np.arange(len(data))
    for fold in fold_blocks:
        test_mask = np.isin(data.block_ids, fold)
        splits.append((all_rows[~test_mask], all_rows[test_mask]))
    return splits
