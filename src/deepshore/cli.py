"""Batch command-line pipeline.

Subcommands: phantom, fit-shore, optimize-zeta, fod-to-shore, train,
predict, evaluate, crossval. Exit code 0 on success, 1 on usage errors
(bad flags, missing files), 2 on data or numeric errors. Every command
that writes a report or container echoes its resolved configuration and
seeds so runs can be reproduced. A JSON config file can pre-set any
flag; explicit flags win over the file. Numeric-library parallelism
follows the BLAS library's own environment variables, such as
OPENBLAS_NUM_THREADS or OMP_NUM_THREADS, set before the process starts.
"""

import argparse
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
    if text is None:
        return None
    try:
        return tuple(float(tok) for tok in text.replace(",", " ").split())
    except ValueError:
        raise _UsageError(f"cannot parse shell list {text!r}")


def _load_config_file(path):
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
    return cfg


def _resolve(args, file_cfg, key, default):
    """Flag > config file > default."""
    value = getattr(args, key.replace("-", "_"), None)
    if value is not None:
        return value
    if key in file_cfg:
        return file_cfg[key]
    return default


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


def _shore_config(args, file_cfg):
    return shore.ShoreFitConfig(
        radial_order=int(_resolve(args, file_cfg, "radial-order", 6)),
        lambda_n=float(_resolve(args, file_cfg, "lambda-n", 1e-8)),
        lambda_l=float(_resolve(args, file_cfg, "lambda-l", 1e-8)),
    )


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
    p.add_argument("--noiseless", action="store_true")
    p.add_argument("--kappa", type=float, default=None)
    p.add_argument("--max-fibers", type=int, default=None)
    p.add_argument("--out", type=str, required=True)

    p = sub.add_parser("fit-shore", help="fit signal coefficients")
    p.add_argument("--in", dest="infile", type=str, required=True)
    p.add_argument("--zeta", type=float, default=None)
    p.add_argument("--optimize", action="store_true",
                   help="optimize the scale on the input data first")
    p.add_argument("--zeta0", type=float, default=None)
    p.add_argument("--log", action="store_true",
                   help="clamp-log the signals before fitting")
    p.add_argument("--nonneg-epsilon", type=float, default=None)
    _add_common_shore_flags(p)
    p.add_argument("--out", type=str, required=True)

    p = sub.add_parser("optimize-zeta", help="data-optimize the scale parameter")
    p.add_argument("--in", dest="infile", type=str, required=True)
    p.add_argument("--zeta0", type=float, default=None)
    p.add_argument("--log", action="store_true")
    p.add_argument("--nonneg-epsilon", type=float, default=None)
    p.add_argument("--subsample", type=int, default=None)
    p.add_argument("--seed", type=int, default=None)
    _add_common_shore_flags(p)
    p.add_argument("--report", type=str, default=None)

    p = sub.add_parser("fod-to-shore", help="re-express ground-truth FODs in the signal basis")
    p.add_argument("--in", dest="infile", type=str, required=True)
    p.add_argument("--zeta", type=float, required=True)
    p.add_argument("--fod-b", type=float, default=None)
    p.add_argument("--dirs-seed", type=int, default=None)
    p.add_argument("--n-dirs", type=int, default=None)
    p.add_argument("--log", action="store_true")
    p.add_argument("--nonneg-epsilon", type=float, default=None)
    _add_common_shore_flags(p)
    p.add_argument("--out", type=str, required=True)

    p = sub.add_parser("train", help="train the residual network on coefficient pairs")
    p.add_argument("--inputs", type=str, required=True)
    p.add_argument("--targets", type=str, required=True)
    p.add_argument("--epochs", type=int, default=None)
    p.add_argument("--batch-size", type=int, default=None)
    p.add_argument("--learning-rate", type=float, default=None)
    p.add_argument("--momentum", type=float, default=None)
    p.add_argument("--stabilizer", type=float, default=None)
    p.add_argument("--decay", type=float, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", type=str, required=True)
    p.add_argument("--report", type=str, default=None)

    p = sub.add_parser("predict", help="run a saved model over coefficients")
    p.add_argument("--model", type=str, required=True)
    p.add_argument("--inputs", type=str, required=True)
    p.add_argument("--out", type=str, required=True)

    p = sub.add_parser("evaluate", help="angular correlation of predictions vs truth")
    p.add_argument("--pred", type=str, required=True)
    p.add_argument("--truth", type=str, required=True)
    p.add_argument("--report", type=str, default=None)

    p = sub.add_parser("crossval", help="cross-validated subcase experiment")
    p.add_argument("--in", dest="infile", type=str, required=True)
    p.add_argument("--subcase", action="append", default=None,
                   choices=sorted(pipeline.SUBCASES),
                   help="repeatable; runs and compares all named subcases")
    p.add_argument("--eval-folds", type=int, default=None)
    p.add_argument("--max-folds", type=int, default=None)
    p.add_argument("--k-folds", type=int, default=None)
    p.add_argument("--epochs", type=int, default=None)
    p.add_argument("--batch-size", type=int, default=None)
    p.add_argument("--learning-rate", type=float, default=None)
    p.add_argument("--momentum", type=float, default=None)
    p.add_argument("--stabilizer", type=float, default=None)
    p.add_argument("--decay", type=float, default=None)
    p.add_argument("--early-stop", action="store_true")
    p.add_argument("--patience", type=int, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--nonneg-epsilon", type=float, default=None)
    p.add_argument("--zeta0", type=float, default=None)
    p.add_argument("--zeta-subsample", type=int, default=None)
    p.add_argument("--dirs-seed", type=int, default=None)
    p.add_argument("--fod-b", type=float, default=None)
    p.add_argument("--sh-order", type=int, default=None)
    p.add_argument("--flat", action="store_true",
                   help="train on all training rows, no inner validation fold")
    _add_common_shore_flags(p)
    p.add_argument("--report", type=str, default=None)
    p.add_argument("--out", type=str, default=None,
                   help="also write the report as a container file")
    return parser


def _cmd_phantom(args, file_cfg):
    snr = _resolve(args, file_cfg, "snr", 30.0)
    if args.noiseless or file_cfg.get("noiseless"):
        snr = float("inf")
    cfg = phantom.PhantomConfig(
        shell_bvalues=_parse_shells(_resolve(args, file_cfg, "shells", None))
        or (3000.0, 6000.0, 9000.0, 12000.0),
        directions_per_shell=int(_resolve(args, file_cfg, "dirs-per-shell", 25)),
        kappa_watson=float(_resolve(args, file_cfg, "kappa", 20.0)),
        snr=float(snr),
        n_voxels=int(_resolve(args, file_cfg, "voxels", 10)),
        rotations_per_voxel=int(_resolve(args, file_cfg, "rotations", 100)),
        max_fibers=int(_resolve(args, file_cfg, "max-fibers", 3)),
        seed=int(_resolve(args, file_cfg, "seed", 0)),
    )
    dataset = phantom.generate_dataset(cfg)
    io.write_dataset(args.out, dataset)
    base = args.out.rsplit(".", 1)[0]
    io.write_bvals_bvecs(base + ".bval", base + ".bvec", dataset.samples)
    print(f"wrote {len(dataset)} rows ({cfg.n_voxels} blocks) to {args.out}")
    return 0


def _masked(dataset, args, file_cfg):
    mask = pipeline.shell_mask(
        dataset.samples,
        _parse_shells(_resolve(args, file_cfg, "shells", None)),
        _resolve(args, file_cfg, "withhold-b", None),
    )
    return dataset.samples.subset(mask), dataset.signals[:, mask]


def _cmd_fit_shore(args, file_cfg):
    dataset = io.read_dataset(_require_input(args.infile))
    cfg = _shore_config(args, file_cfg)
    samples, signals = _masked(dataset, args, file_cfg)
    if args.log or file_cfg.get("log"):
        eps = float(_resolve(args, file_cfg, "nonneg-epsilon", 0.005))
        signals = clamp_log(signals, NonNegConfig(eps))
    zeta = args.zeta if args.zeta is not None else file_cfg.get("zeta")
    if args.optimize or (zeta is None and file_cfg.get("optimize")):
        zeta0 = _resolve(args, file_cfg, "zeta0", None)
        zeta0 = float(zeta0) if zeta0 is not None else shore.default_zeta0(samples)
        zeta = shore.optimize_zeta(signals, samples, cfg, zeta0)
    if zeta is None:
        raise _UsageError("fit-shore needs --zeta or --optimize")
    coeffs = shore.fit_shore_many(signals, samples, cfg, float(zeta))
    io.write_coeffs(args.out, coeffs, {
        "representation": "shore",
        "radial_order": cfg.radial_order,
        "zeta": float(zeta),
        "lambda_n": cfg.lambda_n,
        "lambda_l": cfg.lambda_l,
        "log_domain": bool(args.log or file_cfg.get("log")),
        "shells": [float(s) for s in samples.shells()],
        "source": args.infile,
        "block_ids": dataset.block_ids,
    })
    print(f"fit {coeffs.shape[0]} voxels x {coeffs.shape[1]} coefficients at zeta={zeta:.6g}")
    return 0


def _cmd_optimize_zeta(args, file_cfg):
    dataset = io.read_dataset(_require_input(args.infile))
    cfg = _shore_config(args, file_cfg)
    samples, signals = _masked(dataset, args, file_cfg)
    if args.log or file_cfg.get("log"):
        eps = float(_resolve(args, file_cfg, "nonneg-epsilon", 0.005))
        signals = clamp_log(signals, NonNegConfig(eps))
    zeta0 = _resolve(args, file_cfg, "zeta0", None)
    zeta0 = float(zeta0) if zeta0 is not None else shore.default_zeta0(samples)
    zeta = shore.optimize_zeta(
        signals, samples, cfg, zeta0,
        subsample=_resolve(args, file_cfg, "subsample", None),
        subsample_seed=int(_resolve(args, file_cfg, "seed", 0)),
    )
    print(f"{zeta:.10g}")
    if args.report:
        io.write_report(args.report, {
            "kind": "report",
            "command": "optimize-zeta",
            "created_at": _timestamp(),
            "zeta0": zeta0,
            "zeta": zeta,
            "shells": [float(s) for s in samples.shells()],
            "radial_order": cfg.radial_order,
            "lambda_n": cfg.lambda_n,
            "lambda_l": cfg.lambda_l,
            "log_domain": bool(args.log or file_cfg.get("log")),
            "source": args.infile,
        })
    return 0


def _cmd_fod_to_shore(args, file_cfg):
    dataset = io.read_dataset(_require_input(args.infile))
    cfg = _shore_config(args, file_cfg)
    dirs = pipeline.fod_directions(pipeline.PipelineConfig(
        direction_seed=int(_resolve(args, file_cfg, "dirs-seed", 11)),
        n_fod_directions=int(_resolve(args, file_cfg, "n-dirs", 100)),
    ))
    bvalue = float(_resolve(args, file_cfg, "fod-b", 2000.0))
    values = dataset.fod_coeffs @ sh.eval_sh_basis(dirs, dataset.sh_order).T
    log_domain = bool(args.log or file_cfg.get("log"))
    if log_domain:
        eps = float(_resolve(args, file_cfg, "nonneg-epsilon", 0.005))
        values = clamp_log(values, NonNegConfig(eps))
    scheme = shore.QSpaceSamples(np.full(len(dirs), bvalue), dirs)
    coeffs = shore.fit_shore_many(values, scheme, cfg, args.zeta)
    io.write_coeffs(args.out, coeffs, {
        "representation": "shore",
        "radial_order": cfg.radial_order,
        "zeta": float(args.zeta),
        "fod_bvalue": bvalue,
        "log_domain": log_domain,
        "dirs_seed": int(_resolve(args, file_cfg, "dirs-seed", 11)),
        "n_dirs": len(dirs),
        "source": args.infile,
        "block_ids": dataset.block_ids,
    })
    print(f"re-expressed {coeffs.shape[0]} FODs at b={bvalue:g}, zeta={args.zeta:g}")
    return 0


def _cmd_train(args, file_cfg):
    inputs, in_meta = io.read_coeffs(_require_input(args.inputs))
    targets, tgt_meta = io.read_coeffs(_require_input(args.targets))
    if inputs.shape[0] != targets.shape[0]:
        raise InvalidArgumentError(
            f"row mismatch: {inputs.shape[0]} inputs vs {targets.shape[0]} targets"
        )
    block_ids = in_meta.get("block_ids")
    if block_ids is None:
        block_ids = np.arange(inputs.shape[0])
    cfg = net.TrainConfig(
        epochs=int(_resolve(args, file_cfg, "epochs", 200)),
        batch_size=int(_resolve(args, file_cfg, "batch-size", 1000)),
        learning_rate=float(_resolve(args, file_cfg, "learning-rate", 1e-3)),
        momentum=float(_resolve(args, file_cfg, "momentum", 0.0)),
        stabilizer=float(_resolve(args, file_cfg, "stabilizer", 1e-8)),
        decay=float(_resolve(args, file_cfg, "decay", 0.9)),
        seed=int(_resolve(args, file_cfg, "seed", 0)),
    )
    model = net.build_model(inputs.shape[1], targets.shape[1], seed=cfg.seed)
    trained, history = net.train(model, net.VoxelDataset(inputs, targets, block_ids), cfg)
    io.write_model(args.out, trained)
    print(f"trained {cfg.epochs} epochs, final loss {history[-1]:.6e}")
    if args.report:
        io.write_report(args.report, {
            "kind": "report",
            "command": "train",
            "created_at": _timestamp(),
            "epochs": cfg.epochs,
            "batch_size": cfg.batch_size,
            "learning_rate": cfg.learning_rate,
            "seed": cfg.seed,
            "loss_history": [float(v) for v in history],
            "inputs": args.inputs,
            "targets": args.targets,
            "input_meta": {k: v for k, v in in_meta.items() if k != "block_ids"},
            "target_meta": {k: v for k, v in tgt_meta.items() if k != "block_ids"},
        })
    return 0


def _cmd_predict(args, file_cfg):
    model = io.read_model(_require_input(args.model))
    inputs, in_meta = io.read_coeffs(_require_input(args.inputs))
    outputs = net.predict(model, inputs)
    meta = {
        "representation": "prediction",
        "model": args.model,
        "source": args.inputs,
    }
    if "block_ids" in in_meta:
        meta["block_ids"] = in_meta["block_ids"]
    io.write_coeffs(args.out, outputs, meta)
    print(f"predicted {outputs.shape[0]} rows x {outputs.shape[1]} coefficients")
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
        order = int(truth_meta.get("sh_order", 8))
    if pred.shape != truth.shape:
        raise InvalidArgumentError(
            f"prediction shape {pred.shape} does not match truth {truth.shape}"
        )
    acc = np.array([
        sh.acc(sh.ShSeries(order, pred[i]), sh.ShSeries(order, truth[i]))
        for i in range(pred.shape[0])
    ])
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
    subcases = args.subcase or file_cfg.get("subcase") or ["opt-shore-to-shore"]
    if isinstance(subcases, str):
        subcases = [subcases]
    train_cfg = net.TrainConfig(
        epochs=int(_resolve(args, file_cfg, "epochs", 200)),
        batch_size=int(_resolve(args, file_cfg, "batch-size", 1000)),
        learning_rate=float(_resolve(args, file_cfg, "learning-rate", 1e-3)),
        momentum=float(_resolve(args, file_cfg, "momentum", 0.0)),
        stabilizer=float(_resolve(args, file_cfg, "stabilizer", 1e-8)),
        decay=float(_resolve(args, file_cfg, "decay", 0.9)),
        early_stop=bool(args.early_stop or file_cfg.get("early-stop", False)),
        patience=int(_resolve(args, file_cfg, "patience", 50)),
        seed=int(_resolve(args, file_cfg, "seed", 0)),
        k_folds=int(_resolve(args, file_cfg, "k-folds", 5)),
    )
    zeta0 = _resolve(args, file_cfg, "zeta0", None)
    configs = [
        pipeline.PipelineConfig(
            subcase=name,
            shells=_parse_shells(_resolve(args, file_cfg, "shells", None)),
            withhold_b=_resolve(args, file_cfg, "withhold-b", None),
            shore=_shore_config(args, file_cfg),
            nonneg=NonNegConfig(float(_resolve(args, file_cfg, "nonneg-epsilon", 0.005))),
            train=train_cfg,
            direction_seed=int(_resolve(args, file_cfg, "dirs-seed", 11)),
            sh_order=int(_resolve(args, file_cfg, "sh-order", 8)),
            fod_bvalue=float(_resolve(args, file_cfg, "fod-b", 2000.0)),
            eval_folds=int(_resolve(args, file_cfg, "eval-folds", 8)),
            max_folds=_resolve(args, file_cfg, "max-folds", None),
            nested=not (args.flat or file_cfg.get("flat", False)),
            zeta0=float(zeta0) if zeta0 is not None else None,
            zeta_subsample=_resolve(args, file_cfg, "zeta-subsample", None),
        )
        for name in subcases
    ]
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
    if args.out:
        slim = json.loads(json.dumps(document))
        acc_arrays = []
        for name, method in slim["methods"].items():
            acc_arrays.append((f"acc_{name}", np.array(method.pop("acc"))))
        slim.pop("created_at")
        io.write_report_container(args.out, slim, acc_arrays)
    return 0


_HANDLERS = {
    "phantom": _cmd_phantom,
    "fit-shore": _cmd_fit_shore,
    "optimize-zeta": _cmd_optimize_zeta,
    "fod-to-shore": _cmd_fod_to_shore,
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
        file_cfg = _load_config_file(args.config)
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
