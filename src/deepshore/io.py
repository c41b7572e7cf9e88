"""File formats: the binary container, FSL bval/bvec text, and reports.

Container layout: 8 magic bytes ``DSHORE01``, an unsigned little-endian
32-bit header length, a UTF-8 JSON header, then the payload as
little-endian 32-bit floats, row-major, segment by segment in header
order. The header declares the kind (dataset, coeffs or model), the
dtype tag ``f32le``, every segment's name and shape, and free-form
metadata (scale, orders, seeds, config echo). Headers are serialized
with sorted keys so identical content produces identical bytes.
"""

import json
import math
import struct
from dataclasses import asdict, dataclass

import numpy as np

from .errors import ContainerFormatError, InvalidArgumentError
from .net import HIDDEN_WIDTHS, MlpModel
from .phantom import PhantomDataset
from .pipeline import FodRegressor, _Standardizer
from .sh import _check_finite_rows
from .shore import QSpaceSamples
from .sphere import DirectionSet

MAGIC = b"DSHORE01"
KINDS = ("dataset", "coeffs", "model")


@dataclass
class Container:
    kind: str
    metadata: dict
    segments: dict  # name -> float32 ndarray


def _canonical_json(obj):
    return json.dumps(obj, sort_keys=True, separators=(",", ":")).encode("utf-8")


def write_container(path, kind, segments, metadata=None):
    """Write a container; `segments` is an ordered list of (name, array)."""
    if kind not in KINDS:
        raise InvalidArgumentError(f"unknown container kind {kind!r}")
    header = {
        "kind": kind,
        "dtype": "f32le",
        "segments": [
            {"name": name, "shape": list(np.asarray(arr).shape)}
            for name, arr in segments
        ],
        "meta": metadata or {},
    }
    blob = _canonical_json(header)
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<I", len(blob)))
        fh.write(blob)
        for _, arr in segments:
            fh.write(np.ascontiguousarray(arr, dtype="<f4").tobytes())


def _integral(value):
    """`value` as an int: only an integral number is one, and a JSON
    true or false is none (the rule `cli` applies to config values)."""
    if isinstance(value, bool) or not (
            isinstance(value, int) or (isinstance(value, float) and value.is_integer())):
        raise TypeError(f"expected an integer, got {value!r}")
    return int(value)


def _size(value):
    """`value` as a dimension: an integral number >= 0."""
    size = _integral(value)
    if size < 0:
        raise ValueError(f"expected a dimension >= 0, got {size}")
    return size


def _field(mapping, key, path, where, cast):
    """`cast(mapping[key])`; a missing or malformed value is a
    ContainerFormatError naming the file and the key."""
    try:
        return cast(mapping[key])
    except (KeyError, TypeError, ValueError) as exc:
        raise ContainerFormatError(f"{path}: {where} has no valid {key!r}: {exc!r}") from exc


def read_container(path):
    """Read and validate a container file."""
    with open(path, "rb") as fh:
        magic = fh.read(8)
        if magic != MAGIC:
            raise ContainerFormatError(f"bad magic {magic!r} in {path}")
        raw_len = fh.read(4)
        if len(raw_len) != 4:
            raise ContainerFormatError("truncated header length")
        (header_len,) = struct.unpack("<I", raw_len)
        blob = fh.read(header_len)
        if len(blob) != header_len:
            raise ContainerFormatError("truncated header")
        try:
            header = json.loads(blob.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise ContainerFormatError(f"invalid header JSON: {exc}") from exc
        if not isinstance(header, dict):
            raise ContainerFormatError(f"{path}: header is a JSON {type(header).__name__}")
        kind = header.get("kind")
        if kind not in KINDS:
            raise ContainerFormatError(f"unknown container kind {kind!r}")
        if header.get("dtype") != "f32le":
            raise ContainerFormatError(f"unsupported dtype {header.get('dtype')!r}")
        payload = fh.read()

    metadata = header.get("meta", {})
    entries = header.get("segments", [])
    if not isinstance(metadata, dict) or not isinstance(entries, list):
        raise ContainerFormatError(f"{path}: bad header 'meta' or 'segments'")
    segments = {}
    offset = 0
    for index, entry in enumerate(entries):
        name = _field(entry, "name", path, f"segment {index}", str)
        shape = _field(entry, "shape", path, f"segment {index}", lambda v: tuple(map(_size, v)))
        nbytes = math.prod(shape) * 4
        chunk = payload[offset:offset + nbytes]
        if len(chunk) != nbytes:
            raise ContainerFormatError(
                f"{path}: segment {name!r} declares {nbytes} bytes, "
                f"only {len(chunk)} available"
            )
        segments[name] = np.frombuffer(chunk, dtype="<f4").reshape(shape)
        offset += nbytes
    if offset != len(payload):
        raise ContainerFormatError(
            f"{path}: payload has {len(payload) - offset} undeclared trailing bytes"
        )
    return Container(kind=kind, metadata=metadata, segments=segments)


def _block_id_segment(block_ids, path):
    """Block ids as a payload segment; rejects ids that float32 cannot hold exactly."""
    ids = np.asarray(block_ids)
    bad = ids.astype("<f4") != ids
    if bad.any():
        raise InvalidArgumentError(
            f"block id {ids[bad][0]} does not round-trip through the float32 payload "
            f"of {path}"
        )
    return ("block_ids", ids.astype(float))


def write_dataset(path, dataset):
    """Persist a phantom dataset (kind ``dataset``)."""
    meta = {
        "sh_order": dataset.sh_order,
        "n_blocks": int(np.unique(dataset.block_ids).size),
    }
    if dataset.config is not None:
        config = asdict(dataset.config)
        if np.isinf(config["snr"]):
            config["snr"] = "inf"
        meta["phantom_config"] = config
    segments = [
        ("signals", dataset.signals),
        ("bvalues", dataset.samples.bvalues),
        ("directions", dataset.samples.directions.vectors),
        ("fod_coeffs", dataset.fod_coeffs),
        _block_id_segment(dataset.block_ids, path),
    ]
    write_container(path, "dataset", segments, meta)


def read_dataset(path):
    box = read_container(path)
    if box.kind != "dataset":
        raise ContainerFormatError(f"expected a dataset container, got {box.kind!r}")
    needed = {"signals", "bvalues", "directions", "fod_coeffs", "block_ids"}
    missing = needed - box.segments.keys()
    if missing:
        raise ContainerFormatError(f"dataset container missing segments {sorted(missing)}")
    samples = QSpaceSamples(
        box.segments["bvalues"].astype(float),
        DirectionSet.normalized(box.segments["directions"].astype(float)),
    )
    signals = box.segments["signals"].astype(float)
    _check_finite_rows(signals, f"{path}: signals")
    fod_coeffs = box.segments["fod_coeffs"].astype(float)
    _check_finite_rows(fod_coeffs, f"{path}: fod_coeffs")
    return PhantomDataset(
        signals=signals,
        samples=samples,
        fod_coeffs=fod_coeffs,
        sh_order=_field(box.metadata, "sh_order", path, "meta", _integral),
        block_ids=np.rint(box.segments["block_ids"]).astype(int),
        config=None,
    )


def write_coeffs(path, coeffs, metadata):
    """Persist a coefficient matrix (kind ``coeffs``).

    The metadata records what the rows are: representation ("shore" or
    "sh"), radial_order and zeta for shore, sh_order for sh, plus any
    block ids needed to keep fold bookkeeping with the coefficients.
    """
    coeffs = np.asarray(coeffs, dtype=float)
    if coeffs.ndim != 2:
        raise InvalidArgumentError("coefficient payload must be 2-D")
    segments = [("coeffs", coeffs)]
    meta = dict(metadata)
    block_ids = meta.pop("block_ids", None)
    if block_ids is not None:
        segments.append(_block_id_segment(block_ids, path))
    write_container(path, "coeffs", segments, meta)


def read_coeffs(path):
    box = read_container(path)
    if box.kind != "coeffs":
        raise ContainerFormatError(f"expected a coeffs container, got {box.kind!r}")
    if "coeffs" not in box.segments:
        raise ContainerFormatError("coeffs container has no 'coeffs' segment")
    coeffs = box.segments["coeffs"].astype(float)
    if coeffs.ndim != 2:
        raise ContainerFormatError(f"{path}: 'coeffs' segment has shape {coeffs.shape}, not 2-D")
    _check_finite_rows(coeffs, f"{path}: coefficient")
    meta = dict(box.metadata)
    if "block_ids" in box.segments:
        meta["block_ids"] = np.rint(box.segments["block_ids"]).astype(int)
    return coeffs, meta


def write_model(path, regressor):
    """Persist a fitted FodRegressor (kind ``model``): weights layer-major,
    each bias after its matrix, then the input and target standardizers'
    means and scales; the metadata holds the input and FOD maps as
    ``regressor``."""
    model = regressor.model
    meta = {
        "input_dim": model.input_dim,
        "output_dim": model.output_dim,
        "hidden": list(HIDDEN_WIDTHS),
        "activation": "elu",
        "residual": {"from_hidden": 2, "into_hidden": 4},
        "init_seed": model.seed,
        "layer_shapes": [list(w.shape) for w in model.weights],
        "regressor": regressor.description(),
    }
    segments = []
    for i, (w, b) in enumerate(zip(model.weights, model.biases)):
        segments.append((f"w{i + 1}", w))
        segments.append((f"b{i + 1}", b))
    for side, norm in (("in", regressor.in_norm), ("out", regressor.out_norm)):
        segments.append((f"{side}_mean", norm.mean))
        segments.append((f"{side}_scale", norm.scale))
    write_container(path, "model", segments, meta)


def read_model(path):
    """The FodRegressor that `write_model` stored."""
    box = read_container(path)
    if box.kind != "model":
        raise ContainerFormatError(f"expected a model container, got {box.kind!r}")
    input_dim, output_dim = (_field(box.metadata, key, path, "meta", _integral)
                             for key in ("input_dim", "output_dim"))
    seg = {name: values.astype(float) for name, values in box.segments.items()}
    regressor = FodRegressor.from_description(
        _field(box.metadata, "regressor", path, "meta", dict), path)
    try:
        weights = [seg[f"w{i + 1}"] for i in range(6)]
        biases = [seg[f"b{i + 1}"] for i in range(6)]
        regressor.in_norm, regressor.out_norm = (
            _Standardizer.frozen(seg[f"{side}_mean"], seg[f"{side}_scale"])
            for side in ("in", "out")
        )
    except KeyError as exc:
        raise ContainerFormatError(f"model container {path} has no segment {exc}") from exc
    regressor.model = MlpModel(input_dim, output_dim, weights, biases,
                               seed=box.metadata.get("init_seed"))
    return regressor


def write_report(path, report):
    """Write a report as canonical JSON (sorted keys, 2-space indent).

    Reruns with identical inputs produce identical files except for the
    separate ``created_at`` field.
    """
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(report, fh, sort_keys=True, indent=2)
        fh.write("\n")


def read_report(path):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def write_bvals_bvecs(bval_path, bvec_path, samples):
    """FSL-style gradient table: b-values on one line, vectors on three."""
    with open(bval_path, "w", encoding="utf-8") as fh:
        fh.write(" ".join(f"{b:.17g}" for b in samples.bvalues) + "\n")
    write_directions_text(bvec_path, samples.directions)


def read_bvals_bvecs(bval_path, bvec_path):
    bvalues = np.loadtxt(bval_path).reshape(-1)
    directions = read_directions_text(bvec_path)
    return QSpaceSamples(bvalues, directions)


def write_directions_text(path, dirs):
    """Three whitespace-separated lines (x, y, z), one column per direction."""
    with open(path, "w", encoding="utf-8") as fh:
        for axis in range(3):
            fh.write(" ".join(f"{v:.17g}" for v in dirs.vectors[:, axis]) + "\n")


def read_directions_text(path):
    rows = np.loadtxt(path)
    if rows.ndim == 1:
        rows = rows.reshape(3, -1)
    if rows.shape[0] != 3:
        raise ContainerFormatError(
            f"direction text must have three rows (x, y, z), got {rows.shape}"
        )
    return DirectionSet.normalized(rows.T)
