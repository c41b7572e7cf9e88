"""deepshore benchmark: one workload at one seed, one result line.

    python3 perfbench/run.py --workload crossval --seed 1 --seconds 35 --trace 0

Run from the root of a source checkout; the program is taken from
``src/``. The seed makes the workload's inputs, one per setup. With
``--trace 0`` a repetition runs the timed commands once on every
input. Repetitions go on as long as the next should end within
``--seconds`` of timed time (at least one); each input is set up just
before its commands in the first. The end-to-end metrics are medians
over the repetitions and over the setups. With ``--trace 1`` the first
input is set up, the timed commands run on it once untraced and once
under perfbench/spans.py, and the per-layer metrics come from the
spans. Every command's output is checked. Human readable lines come
first on stdout; the last line is the JSON result. Exit code 0 when
every check passed, 1 when one failed, 2 when the program is missing
or a command could not finish in time.
"""

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path


def _blas_thread_cap():
    """Cap BLAS threads at the CPUs this process may use, lower caps kept."""
    nproc = len(os.sched_getaffinity(0))
    caps = {}
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        current = os.environ.get(var, "")
        value = min(int(current), nproc) if current.isdigit() and int(current) > 0 else nproc
        os.environ[var] = caps[var] = str(value)
    return nproc, caps


# before numpy loads, so this process and every child share the cap
NPROC, THREAD_CAPS = _blas_thread_cap()

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import spans  # noqa: E402
import workloads  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SPANS_SCRIPT = Path(__file__).resolve().parent / "spans.py"
TIME_BUDGET_S = 170.0   # the whole run, setup and checks included

END_TO_END = {  # name -> unit
    "wall_s": "s", "rows_per_s": "1/s", "setup_s": "s", "peak_rss_mb": "MB",
}
# name -> unit; times are busy seconds (.s) or self seconds (.self_s)
PER_LAYER = {
    "net.train.s": "s", "net.train.row_epochs": "count", "net.train.gflop_per_s": "GFLOP/s",
    "net.elu.s": "s", "net.elu.calls": "count", "net.forward.s": "s", "net.forward.calls": "count",
    "sphere.generate_uniform_directions.s": "s",
    "sphere.generate_uniform_directions.calls": "count",
    "sphere.haar_rotation.s": "s",
    "shore.optimize_zeta.s": "s", "shore.optimize_zeta.evals": "count",
    "shore.shore_design_matrix.s": "s", "shore.fit_shore_many.s": "s",
    "shore.fit_shore_many.rows": "count",
    "sh.acc.s": "s", "sh.acc.calls": "count", "sh.fit_sh_many.s": "s",
    "nonneg.clamp_log.s": "s", "nonneg.exp_restore.s": "s",
    "stats.wilcoxon_signed_rank.s": "s", "pipeline.run_subcase_experiment.self_s": "s",
    "phantom.generate_dataset.s": "s", "phantom.generate_dataset.rows": "count",
    "phantom.simulate_signal.s": "s", "phantom.FodProjector.project.s": "s",
    "phantom.add_rician_noise.s": "s",
    "io.read_dataset.s": "s", "io.write_dataset.s": "s", "io.write_coeffs.s": "s",
    "io.bytes_written": "count",
    "cli.run_cli.self_s": "s", "cli.cpu_s": "s", "cli.cpu_per_wall": "ratio",
    "trace.overhead_s": "s", "trace.spans": "count",
}


class Budget:
    def __init__(self, seconds):
        self.deadline = time.perf_counter() + seconds

    def left(self):
        return self.deadline - time.perf_counter()


class Runner:
    """Runs child commands in one working directory and keeps their records."""

    def __init__(self, workdir, budget):
        self.workdir = workdir
        self.budget = budget
        self.env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        self.count = 0
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.values = {}

    def spawn(self, argv, label):
        """Run `python3 argv...`; returns (exit code, wall s, rusage, stdout)."""
        self.count += 1
        out_path = self.workdir / f"{self.count:03d}.out"
        err_path = self.workdir / f"{self.count:03d}.err"
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen([sys.executable, *argv], cwd=self.workdir,
                                    env=self.env, stdout=out, stderr=err)
            timer = threading.Timer(max(self.budget.left(), 0.0), proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:   # interrupted or terminated: end the child first
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        if proc.returncode != 0:
            tail = err_path.read_text(errors="replace").strip().splitlines()[-3:]
            self.problems.append(f"{label}: exit code {proc.returncode}: {' | '.join(tail)}")
        return proc.returncode, wall, usage, out_path.read_text(errors="replace")

    def cli(self, command, label, spans_file=None):
        """Run one workload command, optionally traced, and check its outputs."""
        if spans_file is None:
            argv = ["-m", "deepshore.cli", *command.args]
        else:
            argv = [str(SPANS_SCRIPT), spans_file, label, "--", *command.args]
        code, wall, usage, stdout = self.spawn(argv, label)
        self.attempted += 1
        ok = code == 0
        if ok and command.check is not None:
            try:
                problems, values = command.check(self.workdir, stdout)
            except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
                problems, values = [f"output unreadable: {exc!r}"], {}
            self.problems += [f"{label}: {p}" for p in problems]
            for key, value in values.items():
                self.values.setdefault(key, []).append(value)
            ok = not problems
        if not ok:
            self.failed += 1
        return wall, usage

    def setup(self, workload, index, spans_prefix=None):
        """Set up one input: interpreter start, imports and input generation; (wall s, cpu s)."""
        label = f"setup{index}"
        spans_file = None if spans_prefix is None else f"{spans_prefix}-{label}.npz"
        wall, usage = self.cli(workload.setups[index], label, spans_file)
        return wall, usage.ru_utime + usage.ru_stime

    def repetition(self, workload, rep, inputs, spans_prefix=None, setups=None):
        """The timed commands once on each of `inputs`: (wall s, rows, peak RSS MB, cpu s).

        Given a `setups` list, each input is first set up, just before
        its commands, and the setup's wall time is appended to the list.
        """
        wall = cpu = 0.0
        rows = 0
        peak_kb = 0
        for index in inputs:
            if setups is not None:
                setups.append(self.setup(workload, index)[0])
            for i, command in enumerate(workload.commands[index]):
                label = f"rep{rep}-input{index}-{command.args[0]}{i}"
                spans_file = None if spans_prefix is None else f"{spans_prefix}-{label}.npz"
                seconds, usage = self.cli(command, label, spans_file)
                wall += seconds
                cpu += usage.ru_utime + usage.ru_stime
                rows += command.rows
                peak_kb = max(peak_kb, usage.ru_maxrss)
        return wall, rows, peak_kb / 1024.0, cpu


def measure(runner, workload, seconds):
    """End-to-end metrics, the repetition walls and the setup walls.

    A repetition runs the timed commands once on every input, so each
    one does the same work, however much the seeds gave each input. In
    the first, each input is set up just before its commands, which
    spreads the setup samples over the run. The window counts only the
    timed commands.
    """
    inputs = range(len(workload.setups))
    setups = []
    reps = [runner.repetition(workload, 0, inputs, setups=setups)]
    # start another repetition only if it should end within the window
    while (sum(r[0] for r in reps) + max(r[0] for r in reps) <= seconds
           and 1.5 * max(r[0] for r in reps) <= runner.budget.left()):
        reps.append(runner.repetition(workload, len(reps), inputs))
    return {
        "wall_s": statistics.median(r[0] for r in reps),
        "rows_per_s": statistics.median(r[1] / r[0] for r in reps),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": statistics.median(r[2] for r in reps),
    }, [r[0] for r in reps], setups


def layer_metrics(span_list, cpu_s, cpu_wall, traced_wall, untraced_wall):
    """Per-layer metrics from the spans of every traced command of a run.

    cpu_s and cpu_wall cover the same traced commands as the spans;
    traced_wall and untraced_wall are the timed commands with and
    without tracing, whose difference is the tracing overhead.
    """
    stats, extra = spans.aggregate(span_list)

    def stat(name, key):
        return stats.get(name, {}).get(key, 0)

    def count(name, key):
        return stats.get(name, {}).get("counts", {}).get(key, 0)

    train_s = stat("net.train", "s")
    out = {}
    for metric in PER_LAYER:
        layer, key = metric.rsplit(".", 1)
        if metric in extra:
            out[metric] = extra[metric]
        elif key in ("s", "self_s", "calls"):
            out[metric] = stat(layer, key)
        elif key in ("row_epochs", "rows"):
            out[metric] = count(layer, key)
    out["net.train.gflop_per_s"] = count("net.train", "flop") / train_s / 1e9 if train_s else 0.0
    out["cli.cpu_s"] = cpu_s
    out["cli.cpu_per_wall"] = cpu_s / cpu_wall
    out["trace.overhead_s"] = traced_wall - untraced_wall
    out["trace.spans"] = len(span_list)
    return {name: out[name] for name in PER_LAYER}


def traced(runner, workload):
    """Per-layer metrics, the repetition walls and the setup walls.

    The first input is set up traced, then its timed commands run once
    untraced and once traced.
    """
    prefix = "spans"
    setup_wall, setup_cpu = runner.setup(workload, 0, spans_prefix=prefix)
    untraced_wall = runner.repetition(workload, 0, [0])[0]
    wall, _, _, cpu = runner.repetition(workload, 1, [0], spans_prefix=prefix)
    span_list = spans.load(sorted(runner.workdir.glob(f"{prefix}-*.npz")))
    metrics = layer_metrics(span_list, setup_cpu + cpu, setup_wall + wall, wall, untraced_wall)
    return metrics, [untraced_wall, wall], [setup_wall]


def machine_info():
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    model = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            model = next(line.split(":", 1)[1].strip() for line in fh
                         if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {
        "nproc": NPROC, "cpu_model": model, "python": platform.python_version(),
        "numpy": np.__version__, "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}", "blas_threads": THREAD_CAPS,
    }


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    budget = Budget(TIME_BUDGET_S)

    if not (ROOT / "src" / "deepshore" / "cli.py").is_file():
        print(f"error: no deepshore sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    workload = workloads.build(args.workload, args.seed)
    workdir = ROOT / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    runner = Runner(workdir, budget)
    try:
        if args.trace:
            (metrics, walls, setups), units = traced(runner, workload), PER_LAYER
        else:
            (metrics, walls, setups), units = measure(runner, workload, args.seconds), END_TO_END
        for extra in workload.extra_checks:
            runner.cli(extra, "check")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if budget.left() < 0:
        print("error: the run did not finish within its time budget", file=sys.stderr)
        return 2

    print("machine", json.dumps(machine_info(), sort_keys=True))
    print(f"workload {args.workload} seed {args.seed}: {len(walls)} repetition(s), "
          f"{runner.attempted} command(s), {runner.failed} failed")
    print("  repetition wall s:", " ".join(f"{w:.3f}" for w in walls))
    print("  setup s:", " ".join(f"{w:.3f}" for w in setups))
    print(f"  error_rate {runner.failed / runner.attempted:.4f} ratio")
    for name, values in runner.values.items():
        unit = "ACC" if name == "acc_median" else "ratio"
        print(f"  {name} {max(values) if name == 'fit_rel_rmse' else statistics.median(values):.6g} {unit}")
    for name, value in metrics.items():
        print(f"  {name} {value:.6g} {units[name]}")
    for problem in runner.problems:
        print(f"  FAILED {problem}")
    correct = runner.failed == 0
    print(json.dumps({
        "correct": correct, "attempted": runner.attempted, "failed": runner.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    # a terminated run unwinds: the running child is killed and the work dir removed
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    sys.exit(main(sys.argv[1:]))
