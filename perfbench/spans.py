"""Span tracing of the deepshore CLI from outside the package.

A traced command runs in its own process. Before the command starts,
every public function of the traced modules (and the few methods named
in METHODS) is replaced by a wrapper that records one span per call:
name, start, end, parent span and the run id of the command. Callers
that imported a function by name (``from .sphere import haar_rotation``)
hold their own reference, so the wrapper is installed under every name
in every deepshore module that points at the original function. Spans
stay in memory and are written as one ``.npz`` file when the command
ends.

The split of ``net.train`` into backward pass and RMSProp update is not
reachable through public functions; it needs tracing inside the program.

Run one traced command (arguments after ``--`` go to ``cli.run_cli``)::

    python3 perfbench/spans.py spans.npz cmd0 -- crossval --in d.dsc ...
"""

import functools
import importlib
import inspect
import json
import os
import sys
import time

import numpy as np

MODULES = ("sphere", "sh", "shore", "nonneg", "net", "phantom", "pipeline",
           "stats", "io", "cli")
METHODS = (("phantom", "FodProjector", "project"),)


def _train_counts(args, kwargs, result):
    model, data = args[0], args[1]
    epochs = len(result[1])
    validation = args[3] if len(args) > 3 else kwargs.get("validation")
    val_rows = 0 if validation is None else len(validation[0])
    dims = model.architecture.layer_dims
    macs = sum(a * b for a, b in zip(dims[:-1], dims[1:]))
    row_epochs = len(data) * epochs
    # matmul FLOPs from the layer dims: forward 2, weight gradient 2 and
    # upstream gradient 2 per multiply-add and row; validation is forward only
    flop = 6 * macs * row_epochs + 2 * macs * val_rows * epochs
    return {"row_epochs": row_epochs, "flop": flop}


def _file_bytes(args, kwargs, result):
    paths = [a for a in list(args) + list(kwargs.values())
             if isinstance(a, str) and os.path.isfile(a)]
    return {"bytes": sum(os.path.getsize(p) for p in paths)}


COUNTERS = {
    "net.train": _train_counts,
    "shore.fit_shore_many": lambda a, k, r: {"rows": len(a[0])},
    "phantom.generate_dataset": lambda a, k, r: {"rows": len(r)},
}


def _counter(name):
    if name.startswith("io.write_"):
        return _file_bytes
    return COUNTERS.get(name)


class Tracer:
    """In-memory span recorder for one command (one run id)."""

    def __init__(self, run_id, clock=time.perf_counter):
        self.run_id = run_id
        self.clock = clock
        self.spans = []     # [name, start, end, parent index or -1]
        self.counts = {}    # span index -> {count name: value}
        self._stack = []

    def wrap(self, name, fn):
        count = _counter(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(self.spans)
            span = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1]
            self.spans.append(span)
            self._stack.append(index)
            span[1] = self.clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = self.clock()
                self._stack.pop()
            if count is not None:
                self.counts[index] = count(args, kwargs, result)
            return result

        return traced

    def install(self):
        """Wrap the traced functions wherever deepshore modules refer to them."""
        wrappers = {}
        for short in MODULES:
            module = importlib.import_module(f"deepshore.{short}")
            for attr, value in vars(module).items():
                if (not attr.startswith("_") and inspect.isfunction(value)
                        and value.__module__ == module.__name__):
                    wrappers[value] = self.wrap(f"{short}.{attr}", value)
        for module in [m for n, m in sys.modules.items()
                       if n == "deepshore" or n.startswith("deepshore.")]:
            for attr, value in list(vars(module).items()):
                if inspect.isfunction(value) and value in wrappers:
                    setattr(module, attr, wrappers[value])
        for short, cls_name, attr in METHODS:
            cls = getattr(importlib.import_module(f"deepshore.{short}"), cls_name)
            setattr(cls, attr, self.wrap(f"{short}.{cls_name}.{attr}", getattr(cls, attr)))

    def write(self, path):
        names = sorted({span[0] for span in self.spans})
        index = {name: i for i, name in enumerate(names)}
        columns = list(zip(*self.spans)) or [(), (), (), ()]
        np.savez(
            path,
            names=np.array(names, dtype=str),
            name=np.array([index[n] for n in columns[0]], dtype=np.int32),
            start=np.array(columns[1], dtype=float),
            end=np.array(columns[2], dtype=float),
            parent=np.array(columns[3], dtype=np.int64),
            meta=np.array(json.dumps({"run": self.run_id, "counts": self.counts})),
        )


def load(paths):
    """Read span files into one flat list of dicts with global parent indices."""
    spans = []
    for path in paths:
        with np.load(path) as doc:
            names = doc["names"].tolist()
            meta = json.loads(str(doc["meta"]))
            columns = zip(doc["name"].tolist(), doc["start"].tolist(),
                          doc["end"].tolist(), doc["parent"].tolist())
        base = len(spans)
        for i, (name, start, end, parent) in enumerate(columns):
            spans.append({
                "name": names[name], "start": start, "end": end, "run": meta["run"],
                "parent": -1 if parent < 0 else base + parent,
                "counts": meta["counts"].get(str(i), {}),
            })
    return spans


def _covered(intervals):
    """Length of the union of (start, end) intervals."""
    total = 0.0
    reach = None
    for start, end in sorted(intervals):
        if reach is None or start > reach:
            total += end - start
            reach = end
        elif end > reach:
            total += end - reach
            reach = end
    return total


def self_times(spans):
    """Per span: duration minus the part of it that its child spans cover."""
    children = [[] for _ in spans]
    for i, span in enumerate(spans):
        if span["parent"] >= 0:
            children[span["parent"]].append(i)
    out = []
    for i, span in enumerate(spans):
        kids = [(max(spans[k]["start"], span["start"]), min(spans[k]["end"], span["end"]))
                for k in children[i]]
        out.append(span["end"] - span["start"] - _covered([k for k in kids if k[1] > k[0]]))
    return out


def _ancestors(spans, i):
    parent = spans[i]["parent"]
    while parent >= 0:
        yield spans[parent]["name"]
        parent = spans[parent]["parent"]


def aggregate(spans):
    """Per span name: calls, busy time (outermost spans only), self time, counts.

    Busy time counts a call nested inside a call of the same name once.
    Count values of outermost ``io.write_*`` spans are summed under
    ``io.bytes_written``; the design builds nested in each
    ``shore.optimize_zeta`` span under ``shore.optimize_zeta.evals``.
    """
    selfs = self_times(spans)
    stats = {}
    written = 0
    evals = 0
    for i, span in enumerate(spans):
        name = span["name"]
        lineage = list(_ancestors(spans, i))
        entry = stats.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0, "counts": {}})
        entry["calls"] += 1
        entry["self_s"] += selfs[i]
        if name not in lineage:
            entry["s"] += span["end"] - span["start"]
        for key, value in span["counts"].items():
            entry["counts"][key] = entry["counts"].get(key, 0) + value
        if name.startswith("io.write_") and not any(n.startswith("io.write_") for n in lineage):
            written += span["counts"].get("bytes", 0)
        if name == "shore.shore_design_matrix" and "shore.optimize_zeta" in lineage:
            evals += 1
    return stats, {"io.bytes_written": written, "shore.optimize_zeta.evals": evals}


def main(argv):
    if len(argv) < 3 or argv[2] != "--":
        print("usage: spans.py SPANS_OUT RUN_ID -- CLI_ARGS...", file=sys.stderr)
        return 1
    out_path, run_id, cli_args = argv[0], argv[1], argv[3:]
    tracer = Tracer(run_id)
    tracer.install()
    from deepshore import cli
    try:
        return cli.run_cli(cli_args)
    finally:
        tracer.write(out_path)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
