"""End-to-end experiment harness: fit, train, predict, score.

A subcase names the input/output representation pair of the learning
problem: signal coefficients at an optimized or unoptimized scale on the
input side, and spherical-harmonic or q-space-basis coefficients of the
FOD on the output side. Each evaluation fold runs `train_regressor` on
its training rows: the scale is optimized on training blocks only, and a
`FodRegressor` records it with the rest of its input map, standardizes
and trains, so the test rows are fitted at the frozen scale and no
information leaks across the split; the same block discipline applies
to the network folds. The regressor's predictions are mapped back to
sphere functions, exponentiated out of log space, refit as spherical
harmonics and scored with the angular correlation coefficient against
the ground truth. Every (subcase, fold) task runs on one BLAS thread,
in forked worker processes when the process may use several threads,
so a cross-validation report does not depend on the thread count. The
`train` command runs the same fold body on every row of a dataset, and
`predict` fits a dataset's signals at the model's own scale.
"""

import collections
import ctypes
import functools
import os
import signal
from dataclasses import asdict, dataclass, field

import numpy as np

from . import net, sh, shore, stats
from .errors import ContainerFormatError, InvalidArgumentError
from .net import TrainConfig
from .nonneg import NonNegConfig, clamp_log, exp_restore
from .shore import ShoreFitConfig
from .sphere import generate_uniform_directions

# subcase name -> (optimize scale on input side, target representation)
SUBCASES = {
    "opt-shore-to-sh": (True, "sh"),
    "unopt-shore-to-shore": (False, "shore"),
    "opt-shore-to-shore": (True, "shore"),
}


@dataclass
class PipelineConfig:
    subcase: str = "opt-shore-to-shore"
    shells: tuple = None            # None = every shell in the dataset
    withhold_b: float = None        # shell excluded from input fitting
    shore: ShoreFitConfig = field(default_factory=ShoreFitConfig)
    nonneg: NonNegConfig = field(default_factory=NonNegConfig)
    train: TrainConfig = field(default_factory=TrainConfig)
    direction_seed: int = 11
    n_fod_directions: int = 100
    direction_iterations: int = 500
    sh_order: int = 8
    fod_bvalue: float = 2000.0
    eval_folds: int = 8
    max_folds: int = None           # evaluate only the first folds when set
    nested: bool = True             # carve a validation fold out of training data
    zeta0: float = None             # None = median(b)/8 of the masked scheme

    def __post_init__(self):
        if self.subcase not in SUBCASES:
            raise InvalidArgumentError(
                f"unknown subcase {self.subcase!r}; expected one of {sorted(SUBCASES)}"
            )
        if self.eval_folds < 2:
            raise InvalidArgumentError("eval_folds must be >= 2")
        if self.max_folds is not None and self.max_folds < 1:
            raise InvalidArgumentError(f"max_folds must be >= 1, got {self.max_folds}")
        if self.direction_seed < 0:
            raise InvalidArgumentError(f"direction_seed must be >= 0, got {self.direction_seed}")
        # at b = 0 every SHORE column of degree >= 2 vanishes: the targets
        # would hold no angular content
        if not 0 < self.fod_bvalue < np.inf:
            raise InvalidArgumentError(
                f"fod_bvalue must be positive and finite, got {self.fod_bvalue}")

    def to_dict(self):
        out = asdict(self)
        out["nonneg_epsilon"] = out.pop("nonneg")["epsilon"]
        if self.shells is not None:
            out["shells"] = [float(s) for s in self.shells]
        return out


@dataclass
class EvalReport:
    subcase: str
    acc: np.ndarray
    median: float
    mean: float
    row_index: np.ndarray
    folds: list
    audit: dict
    config: dict

    def to_dict(self):
        return {
            "subcase": self.subcase,
            "acc": [float(v) for v in self.acc],
            "median": self.median,
            "mean": self.mean,
            "row_index": [int(r) for r in self.row_index],
            "folds": self.folds,
            "audit": self.audit,
            "config": self.config,
        }


def fod_directions(cfg):
    """The fixed sphere used for every FOD sampling and prediction step.

    Generated once per process for each (count, seed, iterations) and
    then shared, which is safe because a DirectionSet is read-only.
    """
    return _direction_set(cfg.n_fod_directions, cfg.direction_seed, cfg.direction_iterations)


@functools.cache
def _direction_set(n, seed, iterations):
    return generate_uniform_directions(n, seed, iterations)


# a sample belongs to a shell when its b-value is within this of the shell's
_SHELL_TOLERANCE = 0.5
_STANDARDIZER_FLOOR = 0.05


def shell_mask(samples, shells=None, withhold_b=None):
    """Boolean sample mask selecting the requested shells.

    `shells = None` keeps every shell; `withhold_b` then removes one. A
    requested shell that has no samples is an error naming it.
    """
    bvalues = samples.bvalues
    if shells is None:
        mask = np.ones(len(samples), dtype=bool)
    else:
        mask = np.zeros(len(samples), dtype=bool)
        missing = []
        for s in shells:
            on_shell = np.abs(bvalues - float(s)) <= _SHELL_TOLERANCE
            if not on_shell.any():
                missing.append(float(s))
            mask |= on_shell
        if missing:
            raise InvalidArgumentError(f"the scheme has no samples on shells {missing}")
    if withhold_b is not None:
        mask &= np.abs(bvalues - float(withhold_b)) > _SHELL_TOLERANCE
    if not mask.any():
        raise InvalidArgumentError("shell selection matches no samples")
    return mask


def _fold_seed(base, fold_index):
    return int(np.random.SeedSequence((base, fold_index)).generate_state(1)[0])


class _Standardizer:
    """Per-coefficient affine normalization frozen on training rows.

    Coefficient scales span several orders of magnitude, which RMSProp
    handles poorly; near-constant coefficients are floored at a fraction
    of the median spread so they are not amplified into noise.
    """

    def __init__(self, values):
        self.mean = values.mean(axis=0)
        spread = values.std(axis=0)
        # floor against the median spread: a few inflated coefficients must
        # not drag ordinary ones below the floor and out of the loss
        reference = float(np.median(spread))
        if reference <= 0.0:
            reference = float(spread.max())
        if reference <= 0.0:
            raise InvalidArgumentError("cannot standardize all-constant coefficients")
        self.scale = np.maximum(spread, _STANDARDIZER_FLOOR * reference)

    @classmethod
    def frozen(cls, mean, scale):
        """A standardizer with a stored mean and scale."""
        norm = cls.__new__(cls)
        norm.mean, norm.scale = mean, scale
        return norm

    def forward(self, values):
        return (values - self.mean) / self.scale

    def inverse(self, values):
        return values * self.scale + self.mean


def fod_samples(fod_coeffs, sh_order, cfg):
    """SH FODs of degree `sh_order` sampled on the fixed FOD direction set
    and clamp-logged, one row per FOD."""
    return clamp_log(fod_coeffs @ sh.eval_sh_basis(fod_directions(cfg), sh_order).T, cfg.nonneg)


def fod_targets(values, target_kind, zeta, cfg):
    """The network targets of `fod_samples` rows: fitted as SH at
    cfg.sh_order ("sh") or as a q-space series at scale `zeta` on the
    single shell cfg.fod_bvalue ("shore")."""
    dirs = fod_directions(cfg)
    if target_kind == "sh":
        return sh.fit_sh_many(values, dirs, cfg.sh_order)
    fod_scheme = shore.QSpaceSamples(np.full(len(dirs), cfg.fod_bvalue), dirs)
    return shore.fit_shore_many(values, fod_scheme, cfg.shore, zeta)


def _predicted_fod_sh(pred_coeffs, target_kind, dirs, cfg, zeta, out_degree):
    """Map predicted log-domain coefficients to linear-space SH series."""
    if target_kind == "shore":
        fod_scheme = shore.QSpaceSamples(
            np.full(len(dirs), cfg.fod_bvalue), dirs
        )
        design = shore.shore_design_matrix(fod_scheme, cfg.shore.radial_order, zeta)
        log_values = pred_coeffs @ design.T
    else:
        log_values = pred_coeffs @ sh.eval_sh_basis(dirs, cfg.sh_order).T
    amplitudes = exp_restore(log_values)
    if np.any(amplitudes <= 0):
        raise InvalidArgumentError("restored FOD amplitudes must be positive")
    return sh.fit_sh_many(amplitudes, dirs, out_degree)


# the PipelineConfig fields that the map from network outputs to FODs reads
_FOD_MAP_FIELDS = ("fod_bvalue", "direction_seed", "n_fod_directions",
                   "direction_iterations", "sh_order")


def _start_zeta(cfg, samples):
    """cfg.zeta0, or the default start for the shells that cfg selects of
    the scheme `samples`."""
    if cfg.zeta0 is not None:
        return cfg.zeta0
    return shore.default_zeta0(samples.subset(shell_mask(samples, cfg.shells, cfg.withhold_b)))


class FodRegressor:
    """A network from a dataset's signals to linear-space SH FODs.

    It holds the standardizers of its inputs and targets, the scale
    `zeta`, the SH order `out_degree` of the FODs returned, and from the
    PipelineConfig `cfg` the input map (subcase, shell selection, nonneg
    floor and the fit settings) and the FOD map (FOD shell, FOD direction
    set and SH order of "sh" targets).
    """

    def __init__(self, cfg, zeta, out_degree):
        self.cfg = cfg
        self.zeta = zeta
        self.out_degree = out_degree
        self.model = self.in_norm = self.out_norm = None

    def description(self):
        """The input and FOD maps as plain values."""
        values = self.cfg.to_dict()
        return {"zeta": float(self.zeta), "out_sh_order": self.out_degree,
                **values["shore"], **{name: values[name] for name in (
                    "subcase", "shells", "withhold_b", "nonneg_epsilon", *_FOD_MAP_FIELDS)}}

    @classmethod
    def from_description(cls, values, source):
        """An unfitted regressor with the maps of a `description` read from
        the file `source`, which a missing or malformed value names."""
        try:
            shells, withhold_b = values["shells"], values["withhold_b"]
            cfg = PipelineConfig(
                subcase=values["subcase"],
                shells=None if shells is None else tuple(float(s) for s in shells),
                withhold_b=None if withhold_b is None else float(withhold_b),
                shore=ShoreFitConfig(int(values["radial_order"]), float(values["lambda_n"]),
                                     float(values["lambda_l"])),
                nonneg=NonNegConfig(float(values["nonneg_epsilon"])),
                **{name: type(getattr(PipelineConfig, name))(values[name])
                   for name in _FOD_MAP_FIELDS},
            )
            return cls(cfg, float(values["zeta"]), int(values["out_sh_order"]))
        except (KeyError, TypeError, ValueError, InvalidArgumentError) as exc:
            raise ContainerFormatError(f"{source}: bad regressor description: {exc!r}") from exc

    def input_coeffs(self, signals, samples):
        """The network inputs of `signals` (rows of a dataset acquired on
        `samples`): the selected shells, clamp-logged and fitted at the
        regressor's scale."""
        mask = shell_mask(samples, self.cfg.shells, self.cfg.withhold_b)
        return shore.fit_shore_many(clamp_log(signals[:, mask], self.cfg.nonneg),
                                    samples.subset(mask), self.cfg.shore, self.zeta)

    def predict_fod_sh(self, inputs):
        """SH FOD coefficients (degree out_degree), one row per input row."""
        if inputs.shape[1:] != (self.model.input_dim,):
            raise InvalidArgumentError(
                f"got inputs of shape {inputs.shape} for a model of {self.model.input_dim} inputs"
            )
        predictions = self.out_norm.inverse(net.forward(self.model, self.in_norm.forward(inputs)))
        return _predicted_fod_sh(
            predictions, SUBCASES[self.cfg.subcase][1], fod_directions(self.cfg), self.cfg,
            self.zeta, self.out_degree,
        )


def train_regressor(cfg, dataset, rows, seed):
    """Train a FodRegressor of cfg.subcase on the given `rows` of `dataset`:
    the body of every cross-validation fold, and the `train` command.

    The scale lives on the signal representation: it is optimized from
    cfg.zeta0 on these rows' linear-space attenuations of the selected
    shells, or fixed there for an unoptimized subcase, and the inputs are
    the clamp-logged signals fitted at it. The regressor standardizes its inputs and targets on these
    rows and trains a network seeded by `seed`; with cfg.nested, the first
    of cfg.train.k_folds block-aware inner folds (split seed `seed` + 1)
    is the validation data. Returns the regressor, the per-epoch training
    loss and the number of rows fitted.
    """
    optimize_scale, target_kind = SUBCASES[cfg.subcase]
    signals = dataset.signals[rows]
    block_ids = dataset.block_ids[rows]
    zeta = _start_zeta(cfg, dataset.samples)
    if optimize_scale:
        mask = shell_mask(dataset.samples, cfg.shells, cfg.withhold_b)
        zeta = shore.optimize_zeta(signals[:, mask], dataset.samples.subset(mask), cfg.shore,
                                   zeta)
    regressor = FodRegressor(cfg, zeta, dataset.sh_order)
    inputs = regressor.input_coeffs(signals, dataset.samples)
    targets = fod_targets(fod_samples(dataset.fod_coeffs[rows], dataset.sh_order, cfg),
                          target_kind, zeta, cfg)
    regressor.in_norm = _Standardizer(inputs)
    regressor.out_norm = _Standardizer(targets)
    inputs_n = regressor.in_norm.forward(inputs)
    targets_n = regressor.out_norm.forward(targets)

    fit_rows = np.arange(len(inputs))
    validation = None
    if cfg.nested:
        data = net.VoxelDataset(inputs_n, targets_n, block_ids)
        fit_rows, val_rows = net.kfold_split(data, cfg.train.k_folds, seed=seed + 1)[0]
        validation = (inputs_n[val_rows], targets_n[val_rows])

    model = net.build_model(inputs.shape[1], targets.shape[1], seed=seed)
    regressor.model, history = net.train(
        model,
        net.VoxelDataset(inputs_n[fit_rows], targets_n[fit_rows], block_ids[fit_rows]),
        cfg.train,
        validation=validation,
    )
    return regressor, history, len(fit_rows)


def run_subcase_experiment(cfg, dataset):
    """Run one subcase with block-aware cross-validation.

    Returns an EvalReport with the per-test-voxel ACC values concatenated
    over folds, per-fold diagnostics (including the frozen scale), and a
    block audit proving that no block crossed its fold boundary.
    """
    return _cross_validate(dataset, [cfg])[0]


# an evaluation fold: the rows and the blocks on each side of its split
_Fold = collections.namedtuple("_Fold", "index train_rows test_rows train_blocks test_blocks")


def _evaluation_folds(cfg, dataset):
    """The `_Fold`s that cfg evaluates, none with a block on both sides."""
    splits = net.kfold_split(dataset, cfg.eval_folds, seed=cfg.train.seed)
    limit = len(splits) if cfg.max_folds is None else min(cfg.max_folds, len(splits))
    folds = []
    for fold_index, (train_rows, test_rows) in enumerate(splits[:limit]):
        train_blocks = np.unique(dataset.block_ids[train_rows])
        test_blocks = np.unique(dataset.block_ids[test_rows])
        overlap = np.intersect1d(train_blocks, test_blocks)
        if overlap.size:
            raise InvalidArgumentError(
                f"fold {fold_index}: blocks {overlap.tolist()} appear on both sides"
            )
        folds.append(_Fold(fold_index, train_rows, test_rows, train_blocks, test_blocks))
    return folds


def _fold_task(task, dataset):
    """One (subcase, fold) task on one BLAS thread: the fold body on the
    training rows, then ACC on the test rows. Returns the test rows' ACC,
    the scale, the loss history and the number of rows fitted."""
    cfg, fold = task
    with sh.one_blas_thread():
        regressor, history, n_fit_rows = train_regressor(
            cfg, dataset, fold.train_rows, _fold_seed(cfg.train.seed, fold.index))
        fold_acc = sh.acc(
            regressor.predict_fod_sh(
                regressor.input_coeffs(dataset.signals[fold.test_rows], dataset.samples)),
            dataset.fod_coeffs[fold.test_rows], dataset.sh_order,
        )
    return fold_acc, regressor.zeta, history, n_fit_rows


_PR_SET_PDEATHSIG = 1
_worker_dataset = None  # in a worker process: the dataset its tasks read


def _start_worker(parent, dataset):
    """Keep the dataset that a forked worker inherited, and have Linux
    SIGKILL the worker when `parent`, the process that forked it, ends."""
    global _worker_dataset
    _worker_dataset = dataset
    prctl = ctypes.CDLL(None).prctl
    prctl.argtypes, prctl.restype = [ctypes.c_int, ctypes.c_ulong], ctypes.c_int
    prctl(_PR_SET_PDEATHSIG, signal.SIGKILL)
    if os.getppid() != parent:  # the parent ended before the request
        os._exit(1)


def _worker_task(task):
    return _fold_task(task, _worker_dataset)


def _run_tasks(dataset, tasks, workers):
    """`_fold_task` of each task, in task order, on up to `workers` forked
    worker processes. The first error in task order is raised, as a serial
    run raises it. With one worker the tasks run in this process, as they
    do wherever no OpenBLAS build was found in /proc (`one_blas_thread`
    then yields 1), so workers fork only on Linux."""
    workers = min(workers, len(tasks))
    if workers <= 1:
        return [_fold_task(task, dataset) for task in tasks]
    # imported here: they cost every other command 2 MB and 15 ms at start
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    # forked, not spawned: the workers inherit the dataset and the FOD
    # direction sets instead of importing, unpickling and regenerating
    # them; the executor forks before it starts its own thread
    with ProcessPoolExecutor(workers, multiprocessing.get_context("fork"),
                             initializer=_start_worker,
                             initargs=(os.getpid(), dataset)) as pool:
        return list(pool.map(_worker_task, tasks))


def _cross_validate(dataset, configs):
    """The EvalReports of `configs` on `dataset`, one per config, in order.

    The splits and the block audit run here; each (subcase, fold) task
    trains, predicts and scores on one BLAS thread, in worker processes as
    many as the BLAS threads this process would use. So the reports are
    the same at any thread count.
    """
    names = [cfg.subcase for cfg in configs]
    for name in names:
        if names.count(name) > 1:
            raise InvalidArgumentError(f"subcase {name!r} is named more than once")
    if any(cfg.train.early_stop and not cfg.nested for cfg in configs):
        raise InvalidArgumentError(
            "--early-stop needs the inner validation fold that --flat drops")
    plans = [(cfg, _start_zeta(cfg, dataset.samples), _evaluation_folds(cfg, dataset))
             for cfg in configs]
    tasks = [(cfg, fold) for cfg, _, folds in plans for fold in folds]
    with sh.one_blas_thread() as threads:
        for cfg in configs:
            fod_directions(cfg)  # generated once, before any worker forks
        results = iter(_run_tasks(dataset, tasks, threads))
    return [_eval_report(cfg, zeta0, folds, [next(results) for _ in folds])
            for cfg, zeta0, folds in plans]


def _eval_report(cfg, zeta0, folds, results):
    """The EvalReport of cfg from its folds and their `_fold_task` results."""
    fold_rows = []
    for fold, (fold_acc, zeta, history, n_fit_rows) in zip(folds, results):
        median, mean = stats.summarize_report(fold_acc)
        fold_rows.append({
            "fold": fold.index,
            "zeta": float(zeta),
            "zeta0": float(zeta0),
            "optimized": SUBCASES[cfg.subcase][0],
            "n_train_blocks": int(fold.train_blocks.size),
            "n_test_blocks": int(fold.test_blocks.size),
            "n_fit_rows": n_fit_rows,
            "epochs_run": int(len(history)),
            "final_train_loss": float(history[-1]),
            "acc_median": median,
            "acc_mean": mean,
        })
    acc = np.concatenate([result[0] for result in results])
    median, mean = stats.summarize_report(acc)
    return EvalReport(
        subcase=cfg.subcase,
        acc=acc,
        median=median,
        mean=mean,
        row_index=np.concatenate([fold.test_rows for fold in folds]),
        folds=fold_rows,
        audit={"leak_free": True, "folds": [{
            "fold": fold.index,
            "train_blocks": [int(b) for b in fold.train_blocks],
            "test_blocks": [int(b) for b in fold.test_blocks],
        } for fold in folds]},
        config=cfg.to_dict(),
    )


def compare_subcases(dataset, configs):
    """Run several subcases and intercompare their ACC distributions.

    All configs should share seeds and fold settings so the per-voxel
    ACC values pair up row by row; a subcase named twice is an error.
    Pairwise two-sided signed-rank tests are Bonferroni-corrected as one
    family.
    """
    if len(configs) == 0:
        raise InvalidArgumentError("need at least one pipeline config")
    reports = _cross_validate(dataset, configs)

    comparisons = []
    raw_p = []
    for i in range(len(reports)):
        for j in range(i + 1, len(reports)):
            a, b = reports[i], reports[j]
            if a.acc.size != b.acc.size or not np.array_equal(a.row_index, b.row_index):
                raise InvalidArgumentError(
                    f"cannot pair {a.subcase} with {b.subcase}: different test rows"
                )
            statistic, p = stats.wilcoxon_signed_rank(a.acc, b.acc)
            comparisons.append({
                "a": a.subcase, "b": b.subcase,
                "statistic": float(statistic), "p": float(p),
                "median_a": a.median, "median_b": b.median,
            })
            raw_p.append(p)
    if comparisons:
        corrected = stats.bonferroni(raw_p)
        for row, adjusted in zip(comparisons, corrected):
            row["p_bonferroni"] = float(adjusted)
    return reports, comparisons
