"""Batch command-line pipeline.

Subcommands: phantom, fit-shore, optimize-zeta, train, predict,
evaluate, crossval. The chain phantom -> train -> predict -> evaluate
runs the code that crossval runs on each fold: `train` runs its fold
body (`pipeline.train_regressor`) on every row of a dataset, holding
out a validation fold only for early stopping, and writes the
`pipeline.FodRegressor` (input map, standardizers, network and FOD map
in one model container); `predict` fits a dataset's signals at the
model's scale and writes its SH FODs. `fit-shore` and `optimize-zeta`
are tools for the signal basis alone.
Exit code 0 on success, 1 on usage errors (bad flags, missing
files, config-file values of the wrong type), 2 on data or numeric
errors. Every command that writes a report or container echoes its
resolved configuration and seeds so runs can be reproduced. A JSON
config file can pre-set any flag; explicit flags win over the file.
One file may serve every command, so a key of another command's flag is
ignored, but a key that no command takes is a usage error.
No output depends on the BLAS thread count: every SHORE and SH solve,
the scale (zeta) search, and the network's training and forward passes
run on one BLAS thread, because a product split over threads can round
differently. They run in numpy's OpenBLAS build, and only `phantom`
imports scipy, for the Watson normalization. `crossval` runs its
(subcase, fold) tasks in as many forked worker processes as the BLAS
threads the process would use, set by the BLAS library's own environment
variables (OPENBLAS_NUM_THREADS or OMP_NUM_THREADS) before the process
starts, so OPENBLAS_NUM_THREADS=1 runs the tasks one after another in
the process.
"""

import argparse
import dataclasses
import datetime
import json
import os
import sys

import numpy as np

from . import io, net, phantom, pipeline, sh, shore, stats
from .errors import DeepShoreError, InvalidArgumentError
from .nonneg import NonNegConfig, clamp_log


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse that raises instead of exiting, so we control exit codes."""

    def error(self, message):
        raise _UsageError(message)


def _timestamp():
    return datetime.datetime.now(datetime.timezone.utc).isoformat()


def _parse_shells(text):
    if not isinstance(text, str):
        raise TypeError("expected a comma-separated string of b-values")
    return tuple(float(tok) for tok in text.replace(",", " ").split())


def _as_list(value):
    return [value] if isinstance(value, str) else list(value)


def _config_keys(parser):
    """The keys a config file may set: the long options of `parser` and its
    subcommands, without dashes."""
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return {opt[2:] for p in (parser, *sub.choices.values()) for a in p._actions
            for opt in a.option_strings if opt.startswith("--") and a.dest != "help"}


def _load_config_file(path, known_keys):
    if path is None:
        return {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            cfg = json.load(fh)
    except FileNotFoundError:
        raise _UsageError(f"config file not found: {path}")
    except json.JSONDecodeError as exc:
        raise _UsageError(f"config file {path} is not valid JSON: {exc}")
    if not isinstance(cfg, dict):
        raise _UsageError("config file must hold a JSON object")
    unknown = sorted(set(cfg) - known_keys)
    if unknown:
        raise _UsageError(f"config file {path} sets {unknown}, which no command takes")
    return cfg


def _is_kind(value, kind):
    """Whether a flag or config-file value may fill a field of type `kind`:
    a str field takes only a string, a bool field only true or false, an
    int field only an integral number, a float field any number, and a
    bool is no number here."""
    if kind is str:
        return isinstance(value, str)
    if kind not in (bool, int, float):
        return True
    if kind is bool or isinstance(value, bool):
        return kind is bool and isinstance(value, bool)
    if kind is int:
        return isinstance(value, int) or (isinstance(value, float) and value.is_integer())
    return isinstance(value, (int, float))


def _resolve(args, file_cfg, key, default, cast=None):
    """Flag > config file > default. A flag or file value is passed
    through `cast`, which for bool, int and float first checks `_is_kind`;
    a value that `cast` rejects is a usage error naming the key."""
    value = getattr(args, key.replace("-", "_"), None)
    if value is None:
        value = file_cfg.get(key)
    if value is None:
        return default
    if cast is None:
        return value
    try:
        if not _is_kind(value, cast):
            raise TypeError(f"expected {cast.__name__}")
        return cast(value)
    except (TypeError, ValueError) as exc:
        raise _UsageError(f"bad value {value!r} for {key!r}: {exc}")


def _from_flags(cls, args, file_cfg, flags=None, **values):
    """A `cls` config with the given `values`, and each other field named
    in `flags` (field name -> flag name) taken from its flag, else from
    the config file. `flags` defaults to every field, each under its own
    name with dashes for underscores.

    A field set by none of these keeps its dataclass default: defaults
    are written down only there. A value read for a flag is cast to the
    type of the field's default.
    """
    default = cls()
    if flags is None:
        flags = {f.name: f.name.replace("_", "-") for f in dataclasses.fields(cls)}
    for name, flag in flags.items():
        value = _resolve(args, file_cfg, flag, None, type(getattr(default, name)))
        if name not in values and value is not None:
            values[name] = value
    return dataclasses.replace(default, **values)


def _require_input(path):
    if not os.path.exists(path):
        raise _UsageError(f"input file not found: {path}")
    return path


def _add_common_shore_flags(parser):
    parser.add_argument("--radial-order", type=int, default=None)
    parser.add_argument("--lambda-n", type=float, default=None)
    parser.add_argument("--lambda-l", type=float, default=None)
    parser.add_argument("--shells", type=str, default=None,
                        help="comma-separated b-values to keep")
    parser.add_argument("--withhold-b", type=float, default=None,
                        help="shell to drop from input fitting")


def _add_pipeline_flags(parser):
    """The flags of the fold body that `train` and `crossval` run."""
    parser.add_argument("--in", dest="infile", type=str, required=True)
    parser.add_argument("--k-folds", type=int, default=None)
    parser.add_argument("--epochs", type=int, default=None)
    parser.add_argument("--batch-size", type=int, default=None)
    parser.add_argument("--learning-rate", type=float, default=None)
    parser.add_argument("--momentum", type=float, default=None)
    parser.add_argument("--stabilizer", type=float, default=None)
    parser.add_argument("--decay", type=float, default=None)
    parser.add_argument("--early-stop", action="store_true", default=None)
    parser.add_argument("--patience", type=int, default=None)
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--nonneg-epsilon", type=float, default=None)
    parser.add_argument("--zeta0", type=float, default=None)
    parser.add_argument("--dirs-seed", type=int, default=None)
    parser.add_argument("--fod-b", type=float, default=None)
    parser.add_argument("--sh-order", type=int, default=None)
    _add_common_shore_flags(parser)
    parser.add_argument("--report", type=str, default=None)


def _shore_config(args, file_cfg):
    return _from_flags(shore.ShoreFitConfig, args, file_cfg)


def _nonneg_config(args, file_cfg):
    return _from_flags(NonNegConfig, args, file_cfg, {"epsilon": "nonneg-epsilon"})


def _pipeline_config(args, file_cfg, flags=None, **values):
    """The PipelineConfig of the fold-body flags, plus the fields named in
    `flags` (field name -> flag name) and the given `values`."""
    flags = {"direction_seed": "dirs-seed", "sh_order": "sh-order", "fod_bvalue": "fod-b",
             **(flags or {})}
    return _from_flags(
        pipeline.PipelineConfig, args, file_cfg, flags,
        shells=_resolve(args, file_cfg, "shells", None, _parse_shells),
        withhold_b=_resolve(args, file_cfg, "withhold-b", None, float),
        shore=_shore_config(args, file_cfg),
        nonneg=_nonneg_config(args, file_cfg),
        train=_from_flags(net.TrainConfig, args, file_cfg),
        zeta0=_resolve(args, file_cfg, "zeta0", None, float),
        **values,
    )


def _log_domain(args, file_cfg):
    return _resolve(args, file_cfg, "log", False, bool)


def build_parser():
    parser = _Parser(prog="deepshore", description=__doc__)
    parser.add_argument("--config", type=str, default=None,
                        help="JSON file of default option values")
    sub = parser.add_subparsers(dest="command")

    p = sub.add_parser("phantom", help="generate a synthetic dataset")
    p.add_argument("--voxels", type=int, default=None)
    p.add_argument("--rotations", type=int, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--shells", type=str, default=None)
    p.add_argument("--dirs-per-shell", type=int, default=None)
    p.add_argument("--snr", type=float, default=None)
    p.add_argument("--noiseless", action="store_true", default=None)
    p.add_argument("--kappa", type=float, default=None)
    p.add_argument("--max-fibers", type=int, default=None)
    p.add_argument("--out", type=str, required=True)

    p = sub.add_parser("fit-shore", help="fit signal coefficients")
    p.add_argument("--in", dest="infile", type=str, required=True)
    p.add_argument("--zeta", type=float, default=None)
    p.add_argument("--optimize", action="store_true", default=None,
                   help="optimize the scale on the input data first")
    p.add_argument("--zeta0", type=float, default=None)
    p.add_argument("--log", action="store_true", default=None,
                   help="clamp-log the signals before fitting")
    p.add_argument("--nonneg-epsilon", type=float, default=None)
    _add_common_shore_flags(p)
    p.add_argument("--out", type=str, required=True)

    p = sub.add_parser("optimize-zeta", help="data-optimize the scale parameter")
    p.add_argument("--in", dest="infile", type=str, required=True)
    p.add_argument("--zeta0", type=float, default=None)
    p.add_argument("--log", action="store_true", default=None)
    p.add_argument("--nonneg-epsilon", type=float, default=None)
    _add_common_shore_flags(p)
    p.add_argument("--report", type=str, default=None)

    p = sub.add_parser("train", help="train a model on every row of a dataset")
    p.add_argument("--subcase", type=str, default=None, choices=sorted(pipeline.SUBCASES))
    _add_pipeline_flags(p)
    p.add_argument("--out", type=str, required=True)

    p = sub.add_parser("predict", help="predict SH FODs of a dataset with a saved model")
    p.add_argument("--model", type=str, required=True)
    p.add_argument("--in", dest="infile", type=str, required=True)
    p.add_argument("--out", type=str, required=True)

    p = sub.add_parser("evaluate", help="angular correlation of predictions vs truth")
    p.add_argument("--pred", type=str, required=True)
    p.add_argument("--truth", type=str, required=True)
    p.add_argument("--report", type=str, default=None)

    p = sub.add_parser("crossval", help="cross-validated subcase experiment")
    p.add_argument("--subcase", action="append", default=None,
                   choices=sorted(pipeline.SUBCASES),
                   help="repeatable; runs and compares all named subcases")
    p.add_argument("--eval-folds", type=int, default=None)
    p.add_argument("--max-folds", type=int, default=None)
    p.add_argument("--flat", action="store_true", default=None,
                   help="train on all training rows, no inner validation fold")
    _add_pipeline_flags(p)
    return parser


def _cmd_phantom(args, file_cfg):
    fixed = {}
    shells = _resolve(args, file_cfg, "shells", None, _parse_shells)
    if shells:
        fixed["shell_bvalues"] = shells
    if _resolve(args, file_cfg, "noiseless", False, bool):
        fixed["snr"] = float("inf")
    cfg = _from_flags(phantom.PhantomConfig, args, file_cfg, {
        "directions_per_shell": "dirs-per-shell", "kappa_watson": "kappa", "snr": "snr",
        "n_voxels": "voxels", "rotations_per_voxel": "rotations", "max_fibers": "max-fibers",
        "seed": "seed",
    }, **fixed)
    dataset = phantom.generate_dataset(cfg)
    io.write_dataset(args.out, dataset)
    base = os.path.splitext(args.out)[0]
    io.write_bvals_bvecs(base + ".bval", base + ".bvec", dataset.samples)
    print(f"wrote {len(dataset)} rows ({cfg.n_voxels} blocks) to {args.out}")
    return 0


def _signal_inputs(args, file_cfg):
    """The dataset, its shell-masked scheme and signals (clamp-logged with --log)."""
    dataset = io.read_dataset(_require_input(args.infile))
    mask = pipeline.shell_mask(
        dataset.samples,
        _resolve(args, file_cfg, "shells", None, _parse_shells),
        _resolve(args, file_cfg, "withhold-b", None, float),
    )
    signals = dataset.signals[:, mask]
    if _log_domain(args, file_cfg):
        signals = clamp_log(signals, _nonneg_config(args, file_cfg))
    return dataset, dataset.samples.subset(mask), signals


def _zeta0(args, file_cfg, samples):
    zeta0 = _resolve(args, file_cfg, "zeta0", None, float)
    return zeta0 if zeta0 is not None else shore.default_zeta0(samples)


def _cmd_fit_shore(args, file_cfg):
    dataset, samples, signals = _signal_inputs(args, file_cfg)
    cfg = _shore_config(args, file_cfg)
    zeta = _resolve(args, file_cfg, "zeta", None, float)
    # an explicit scale wins over "optimize" in the config file
    optimize = _resolve(args, file_cfg, "optimize", False, bool)
    if args.optimize or (zeta is None and optimize):
        zeta = shore.optimize_zeta(signals, samples, cfg, _zeta0(args, file_cfg, samples))
    if zeta is None:
        raise _UsageError("fit-shore needs --zeta or --optimize")
    coeffs = shore.fit_shore_many(signals, samples, cfg, float(zeta))
    io.write_coeffs(args.out, coeffs, {
        "representation": "shore",
        **dataclasses.asdict(cfg),
        "zeta": float(zeta),
        "log_domain": _log_domain(args, file_cfg),
        "shells": [float(s) for s in samples.shells()],
        "source": args.infile,
        "block_ids": dataset.block_ids,
    })
    print(f"fit {coeffs.shape[0]} voxels x {coeffs.shape[1]} coefficients at zeta={zeta:.6g}")
    return 0


def _cmd_optimize_zeta(args, file_cfg):
    _, samples, signals = _signal_inputs(args, file_cfg)
    cfg = _shore_config(args, file_cfg)
    zeta0 = _zeta0(args, file_cfg, samples)
    zeta = shore.optimize_zeta(signals, samples, cfg, zeta0)
    print(f"{zeta:.10g}")
    if args.report:
        io.write_report(args.report, {
            "kind": "report",
            "command": "optimize-zeta",
            "created_at": _timestamp(),
            "zeta0": zeta0,
            "zeta": zeta,
            "shells": [float(s) for s in samples.shells()],
            **dataclasses.asdict(cfg),
            "log_domain": _log_domain(args, file_cfg),
            "source": args.infile,
        })
    return 0


def _cmd_train(args, file_cfg):
    dataset = io.read_dataset(_require_input(args.infile))
    cfg = _pipeline_config(args, file_cfg, {"subcase": "subcase"})
    # only early stopping reads a validation fold
    cfg = dataclasses.replace(cfg, nested=cfg.train.early_stop)
    with sh.one_blas_thread():
        regressor, history, n_fit_rows = pipeline.train_regressor(
            cfg, dataset, np.arange(len(dataset)), cfg.train.seed)
    io.write_model(args.out, regressor)
    print(f"trained {cfg.subcase} at zeta={regressor.zeta:.6g} on {n_fit_rows} rows: "
          f"{len(history)} epochs, final loss {history[-1]:.6e}")
    if args.report:
        io.write_report(args.report, {
            "kind": "report",
            "command": "train",
            "created_at": _timestamp(),
            "source": args.infile,
            "zeta": float(regressor.zeta),
            "n_fit_rows": n_fit_rows,
            "loss_history": [float(v) for v in history],
            "config": cfg.to_dict(),
        })
    return 0


def _cmd_predict(args, file_cfg):
    regressor = io.read_model(_require_input(args.model))
    dataset = io.read_dataset(_require_input(args.infile))
    with sh.one_blas_thread():
        fods = regressor.predict_fod_sh(regressor.input_coeffs(dataset.signals, dataset.samples))
    io.write_coeffs(args.out, fods, {
        "representation": "sh",
        "sh_order": regressor.out_degree,
        "model": args.model,
        "source": args.infile,
        "block_ids": dataset.block_ids,
    })
    print(f"predicted {fods.shape[0]} FODs x {fods.shape[1]} SH coefficients "
          f"at the model's zeta={regressor.zeta:.6g}")
    return 0


def _cmd_evaluate(args, file_cfg):
    pred, pred_meta = io.read_coeffs(_require_input(args.pred))
    truth_path = _require_input(args.truth)
    box = io.read_container(truth_path)
    if box.kind == "dataset":
        dataset = io.read_dataset(truth_path)
        truth = dataset.fod_coeffs
        order = dataset.sh_order
    else:
        truth, truth_meta = io.read_coeffs(truth_path)
        order = (io._field(truth_meta, "sh_order", truth_path, "meta", io._integral)
                 if "sh_order" in truth_meta else pipeline.PipelineConfig().sh_order)
    if pred.shape != truth.shape:
        raise InvalidArgumentError(
            f"prediction shape {pred.shape} does not match truth {truth.shape}"
        )
    acc = sh.acc(pred, truth, order)
    median, mean = stats.summarize_report(acc)
    print(f"ACC over {acc.size} voxels: median {median:.4f}, mean {mean:.4f}")
    if args.report:
        io.write_report(args.report, {
            "kind": "report",
            "command": "evaluate",
            "created_at": _timestamp(),
            "acc": [float(v) for v in acc],
            "median": median,
            "mean": mean,
            "pred": args.pred,
            "truth": args.truth,
            "pred_meta": {k: v for k, v in pred_meta.items() if k != "block_ids"},
        })
    return 0


def _cmd_crossval(args, file_cfg):
    dataset = io.read_dataset(_require_input(args.infile))
    subcases = (_resolve(args, file_cfg, "subcase", None, _as_list)
                or [pipeline.PipelineConfig().subcase])
    base = _pipeline_config(
        args, file_cfg, {"eval_folds": "eval-folds"},
        max_folds=_resolve(args, file_cfg, "max-folds", None, int),
        nested=not _resolve(args, file_cfg, "flat", False, bool),
    )
    configs = [dataclasses.replace(base, subcase=name) for name in subcases]
    reports, comparisons = pipeline.compare_subcases(dataset, configs)
    for report in reports:
        print(f"{report.subcase}: median ACC {report.median:.4f}, mean {report.mean:.4f} "
              f"over {report.acc.size} held-out voxels")
    for row in comparisons:
        print(f"{row['a']} vs {row['b']}: W+={row['statistic']:.1f}, "
              f"p={row['p']:.3e} (bonferroni {row['p_bonferroni']:.3e})")

    document = {
        "kind": "report",
        "command": "crossval",
        "created_at": _timestamp(),
        "source": args.infile,
        "methods": {r.subcase: r.to_dict() for r in reports},
        "comparisons": comparisons,
    }
    if args.report:
        io.write_report(args.report, document)
    return 0


_HANDLERS = {
    "phantom": _cmd_phantom,
    "fit-shore": _cmd_fit_shore,
    "optimize-zeta": _cmd_optimize_zeta,
    "train": _cmd_train,
    "predict": _cmd_predict,
    "evaluate": _cmd_evaluate,
    "crossval": _cmd_crossval,
}


def run_cli(argv):
    """Dispatch a command line; returns the process exit code."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command is None:
            parser.print_help(sys.stderr)
            return 1
        file_cfg = _load_config_file(args.config, _config_keys(parser))
        return _HANDLERS[args.command](args, file_cfg)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (DeepShoreError, np.linalg.LinAlgError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main():
    sys.exit(run_cli(sys.argv[1:]))


if __name__ == "__main__":
    main()
