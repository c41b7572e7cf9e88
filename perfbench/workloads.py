"""Workloads of the deepshore benchmark and the checks on their outputs.

A workload has INPUTS inputs, each made by one setup command (a
`phantom` run) from a seed derived from the workload seed, and for
each input the timed commands that run on it. Every command is a
`deepshore` CLI argument list run in the workload's working directory
with relative paths, so reruns at one seed see byte-identical inputs. A check reads
a command's outputs and returns the problems it found plus the values
it measured; a command that exits non-zero or has a problem counts as
failed. Why each workload exists is written in NOTES.md.
"""

import json
import math
import struct
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

REFERENCE = Path(__file__).resolve().parent / "reference"
ACC_SUBCASE = "opt-shore-to-shore"
SAMPLES = 100           # 4 shells x 25 directions, the phantom default
SH_COEFFS = 45          # FOD degree 8
SHORE_COEFFS = 50       # radial order 6
# crossval scores 2 folds of 8 test blocks x 101 rows, once per subcase
CROSSVAL_ROWS = 2 * 2 * 8 * 101
NONNEG_EPSILON = 0.005  # the CLI's default clamp floor for --log
# float32 round-off: a few units in the last place of the stored values
F32_RTOL = 4 * np.finfo(np.float32).eps
# phantom sources (101 rows each): sized so that 3 setups and a few
# repetitions fit one run; NOTES.md gives the measurements behind them
CROSSVAL_SOURCES = 40
ZETA_FIT_SOURCES = 100
# inputs per run, one per setup; a repetition covers all of them, so the
# seed-dependent work (fiber counts, zeta optimizer steps) averages out
INPUTS = 3
GOLDEN_ARGS = ["phantom", "--voxels", "3", "--rotations", "4", "--snr", "30",
               "--seed", "7", "--out", "golden.dsc"]


def _limits():
    with open(REFERENCE / "limits.json", encoding="utf-8") as fh:
        return json.load(fh)


def read_container(path):
    """(header, segments) of a DSHORE01 container; raises ValueError if malformed."""
    raw = Path(path).read_bytes()
    if raw[:8] != b"DSHORE01":
        raise ValueError(f"{path}: bad magic")
    (size,) = struct.unpack("<I", raw[8:12])
    header = json.loads(raw[12:12 + size])
    payload = memoryview(raw)[12 + size:]
    segments = {}
    offset = 0
    for entry in header["segments"]:
        shape = tuple(entry["shape"])
        count = math.prod(shape)
        segments[entry["name"]] = np.frombuffer(
            payload, dtype="<f4", count=count, offset=offset).reshape(shape)
        offset += 4 * count
    if offset != len(payload):
        raise ValueError(f"{path}: payload is {len(payload)} bytes, header declares {offset}")
    return header, segments


@dataclass
class Command:
    args: list
    rows: int                       # input rows this command completes
    check: object = None            # check(workdir, stdout) -> (problems, values)


@dataclass
class Workload:
    name: str
    setups: list                    # per input: the Command making it
    commands: list                  # per input: Command objects, timed together as one repetition
    extra_checks: list = field(default_factory=list)  # untimed Commands, once per run


def input_seed(seed, index):
    """The phantom seed of input `index` of a run at workload seed `seed`."""
    return seed * INPUTS + index


def _phantom_setup(voxels, seed, snr, out):
    noise = ["--noiseless"] if snr is None else ["--snr", str(snr)]
    return Command(["phantom", "--voxels", str(voxels), "--rotations", "100", *noise,
                    "--seed", str(seed), "--out", out],
                   voxels * 101, _phantom_checker(out, voxels))


def _check_crossval(workdir, stdout):
    report = json.loads((workdir / "report.json").read_text(encoding="utf-8"))
    problems = []
    rows = 0
    for name, method in report["methods"].items():
        if method["audit"].get("leak_free") is not True:
            problems.append(f"{name}: audit.leak_free is not true")
        acc = np.asarray(method["acc"], dtype=float)
        if acc.size == 0 or not np.all(np.isfinite(acc)):
            problems.append(f"{name}: ACC values missing or not finite")
        rows += acc.size
    if rows != CROSSVAL_ROWS:
        problems.append(f"{rows} held-out rows scored, expected {CROSSVAL_ROWS}")
    acc_median = float(report["methods"][ACC_SUBCASE]["median"])
    floor = _limits()["crossval_acc_median_floor"]
    if not acc_median >= floor:
        problems.append(f"acc_median {acc_median:.6f} is below the recorded {floor}")
    return problems, {"acc_median": acc_median}


def _check_zeta(workdir, stdout):
    zeta = json.loads((workdir / "zeta.json").read_text(encoding="utf-8"))["zeta"]
    printed = float(stdout.split()[-1])
    problems = []
    if not (math.isfinite(zeta) and zeta > 0):
        problems.append(f"optimize-zeta reported zeta={zeta}")
    if not math.isclose(printed, zeta, rel_tol=1e-9):
        problems.append(f"printed zeta {printed} differs from the report's {zeta}")
    return problems, {}


def _fit_checker(source, out, withhold_b):
    def check(workdir, stdout):
        from deepshore.shore import QSpaceSamples, shore_design_matrix
        from deepshore.sphere import DirectionSet

        header, seg = read_container(workdir / out)
        meta = header["meta"]
        coeffs = seg["coeffs"].astype(float)
        zeta = meta["zeta"]
        problems = []
        if not (math.isfinite(zeta) and zeta > 0):
            problems.append(f"{out}: zeta={zeta}")
            return problems, {}
        if not np.all(np.isfinite(coeffs)):
            problems.append(f"{out}: coefficients are not finite")
        _, data = read_container(workdir / source)
        bvalues = data["bvalues"].astype(float)
        keep = np.ones(bvalues.size, dtype=bool)
        if withhold_b is not None:
            keep = np.abs(bvalues - withhold_b) > 0.5
        samples = QSpaceSamples(
            bvalues[keep], DirectionSet.normalized(data["directions"].astype(float)[keep]))
        signals = data["signals"].astype(float)[:, keep]
        if meta["log_domain"]:
            signals = np.log(np.maximum(signals, NONNEG_EPSILON))
        if coeffs.shape != (signals.shape[0], SHORE_COEFFS):
            problems.append(f"{out}: coefficient shape {coeffs.shape}")
            return problems, {}
        fitted = coeffs @ shore_design_matrix(samples, meta["radial_order"], zeta).T
        rel_rmse = float(np.sqrt(np.mean((fitted - signals) ** 2) / np.mean(signals ** 2)))
        ceiling = _limits()["zeta_fit_rel_rmse_ceiling"]
        if not rel_rmse <= ceiling:
            problems.append(f"{out}: relative RMSE {rel_rmse:.6g} is above the recorded {ceiling}")
        return problems, {"fit_rel_rmse": rel_rmse}
    return check


def _dataset_problems(path, rows, blocks):
    """Declared shapes, row count and ground-truth invariants of a phantom container."""
    header, seg = read_container(path)
    problems = []
    expected = {
        "signals": (rows, SAMPLES), "bvalues": (SAMPLES,), "directions": (SAMPLES, 3),
        "fod_coeffs": (rows, SH_COEFFS), "block_ids": (rows,),
    }
    declared = {s["name"]: tuple(s["shape"]) for s in header["segments"]}
    if header["kind"] != "dataset" or declared != expected:
        return [f"{path.name}: kind {header['kind']!r}, shapes {declared}"], seg
    for name, values in seg.items():
        if not np.all(np.isfinite(values)):
            problems.append(f"{path.name}: {name} has non-finite values")
    if not np.array_equal(seg["block_ids"], np.repeat(np.arange(blocks), rows // blocks)):
        problems.append(f"{path.name}: block ids are not {blocks} runs of {rows // blocks}")
    # every FOD integrates to one, so its degree-0 coefficient is 1/sqrt(4 pi)
    c00 = 1.0 / math.sqrt(4.0 * math.pi)
    if not np.allclose(seg["fod_coeffs"][:, 0], c00, rtol=F32_RTOL, atol=0):
        problems.append(f"{path.name}: FOD degree-0 coefficients differ from 1/sqrt(4 pi)")
    return problems, seg


def _phantom_checker(out, voxels):
    def check(workdir, stdout):
        rows = voxels * 101
        path = workdir / out
        problems, _ = _dataset_problems(path, rows, voxels)
        bval = path.with_suffix(".bval").read_text().split()
        bvec = [line.split() for line in path.with_suffix(".bvec").read_text().splitlines()]
        if len(bval) != SAMPLES or [len(line) for line in bvec] != [SAMPLES] * 3:
            problems.append("gradient table does not hold 100 b-values and 3 x 100 components")
        return problems, {}
    return check


def _check_golden(workdir, stdout):
    """The fixed-seed phantom must match this commit's output within float32 round-off."""
    problems, seg = _dataset_problems(workdir / "golden.dsc", 15, 3)
    _, ref = read_container(REFERENCE / "phantom_golden.dsc")
    for name, want in ref.items():
        got = seg.get(name)
        if got is None or got.shape != want.shape or not np.allclose(
                got, want, rtol=F32_RTOL, atol=F32_RTOL * float(np.abs(want).max())):
            problems.append(f"golden phantom: {name} differs from the reference")
    return problems, {}


def _crossval_commands(source):
    return [Command(
        ["crossval", "--in", source,
         "--subcase", "opt-shore-to-shore", "--subcase", "unopt-shore-to-shore",
         "--zeta0", "700", "--withhold-b", "6000", "--eval-folds", "5",
         "--max-folds", "2", "--epochs", "20", "--momentum", "0.9",
         "--stabilizer", "1e-6", "--report", "report.json"],
        CROSSVAL_ROWS, _check_crossval)]


def _zeta_fit_commands(source):
    rows = ZETA_FIT_SOURCES * 101
    return [
        Command(["optimize-zeta", "--in", source, "--report", "zeta.json"], rows, _check_zeta),
        Command(["fit-shore", "--in", source, "--optimize", "--log", "--out", "fit_log.dsc"],
                rows, _fit_checker(source, "fit_log.dsc", None)),
        Command(["fit-shore", "--in", source, "--optimize", "--log",
                 "--withhold-b", "6000", "--out", "fit_withheld.dsc"],
                rows, _fit_checker(source, "fit_withheld.dsc", 6000.0)),
    ]


def build(name, seed):
    """The named workload at one seed; raises KeyError for an unknown name."""
    seeds = [input_seed(seed, i) for i in range(INPUTS)]
    sources = [f"input{i}.dsc" for i in range(INPUTS)]
    golden = [Command(GOLDEN_ARGS, 0, _check_golden)]
    if name == "crossval":
        return Workload(
            name,
            setups=[_phantom_setup(CROSSVAL_SOURCES, s, None, src) for s, src in zip(seeds, sources)],
            commands=[_crossval_commands(src) for src in sources],
            extra_checks=golden,
        )
    if name == "zeta-fit":
        return Workload(
            name,
            setups=[_phantom_setup(ZETA_FIT_SOURCES, s, 30, src) for s, src in zip(seeds, sources)],
            commands=[_zeta_fit_commands(src) for src in sources],
            extra_checks=golden,
        )
    raise KeyError(name)


NAMES = ("crossval", "zeta-fit")
