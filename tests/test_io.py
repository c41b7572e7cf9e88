import json
import struct

import numpy as np
import pytest

from deepshore import build_model, generate_dataset
from deepshore.errors import ContainerFormatError, InvalidArgumentError
from deepshore.io import (
    MAGIC,
    read_bvals_bvecs,
    read_coeffs,
    read_container,
    read_dataset,
    read_directions_text,
    read_model,
    read_report,
    write_bvals_bvecs,
    write_coeffs,
    write_container,
    write_dataset,
    write_directions_text,
    write_model,
    write_report,
)
from deepshore.nonneg import NonNegConfig
from deepshore.phantom import PhantomConfig
from deepshore.pipeline import FodRegressor, PipelineConfig, _Standardizer
from deepshore.shore import QSpaceSamples


@pytest.fixture()
def small_dataset():
    return generate_dataset(PhantomConfig(n_voxels=3, rotations_per_voxel=2, snr=30.0, seed=4))


class TestContainer:
    def test_layout(self, tmp_path):
        path = tmp_path / "x.dsc"
        write_container(path, "coeffs", [("coeffs", np.arange(6.0).reshape(2, 3))], {"k": 1})
        raw = path.read_bytes()
        assert raw[:8] == MAGIC
        header_len = int.from_bytes(raw[8:12], "little")
        header = raw[12:12 + header_len].decode("utf-8")
        assert '"kind":"coeffs"' in header
        payload = raw[12 + header_len:]
        assert len(payload) == 6 * 4
        assert np.frombuffer(payload, dtype="<f4").tolist() == [0, 1, 2, 3, 4, 5]

    def test_write_read_bit_identical(self, tmp_path):
        path_a = tmp_path / "a.dsc"
        path_b = tmp_path / "b.dsc"
        rng = np.random.default_rng(0)
        segments = [("m", rng.standard_normal((4, 5))), ("v", rng.standard_normal(7))]
        write_container(path_a, "coeffs", segments, {"zeta": 700.0})
        box = read_container(path_a)
        write_container(path_b, box.kind, list(box.segments.items()), box.metadata)
        assert path_a.read_bytes() == path_b.read_bytes()

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "bad.dsc"
        path.write_bytes(b"NOTMAGIC" + b"\x00" * 16)
        with pytest.raises(ContainerFormatError):
            read_container(path)

    def test_truncated_payload_rejected(self, tmp_path):
        path = tmp_path / "t.dsc"
        write_container(path, "coeffs", [("coeffs", np.zeros((4, 4)))], {})
        raw = path.read_bytes()
        path.write_bytes(raw[:-8])
        with pytest.raises(ContainerFormatError):
            read_container(path)

    def test_trailing_bytes_rejected(self, tmp_path):
        path = tmp_path / "t.dsc"
        write_container(path, "coeffs", [("coeffs", np.zeros((2, 2)))], {})
        path.write_bytes(path.read_bytes() + b"\x00\x00\x00\x00")
        with pytest.raises(ContainerFormatError):
            read_container(path)

    def test_unknown_kind_rejected(self, tmp_path):
        with pytest.raises(InvalidArgumentError):
            write_container(tmp_path / "k.dsc", "mystery", [], {})

    @pytest.mark.parametrize("shape", [[-2, -2], [2**32, 2**32]], ids=str)
    def test_negative_or_overflowing_dimensions_rejected(self, tmp_path, shape):
        # [-2, -2] declares 4 floats that the payload holds; 2**32 * 2**32
        # floats wrap to 0 in 64-bit integers
        path = tmp_path / "s.dsc"
        blob = json.dumps({"kind": "coeffs", "dtype": "f32le", "meta": {},
                           "segments": [{"name": "coeffs", "shape": shape}]}).encode()
        path.write_bytes(MAGIC + struct.pack("<I", len(blob)) + blob + bytes(16))
        with pytest.raises(ContainerFormatError) as err:
            read_container(path)
        assert str(path) in str(err.value)


class TestDatasetRoundTrip:
    def test_roundtrip_values(self, tmp_path, small_dataset):
        path = tmp_path / "d.dsc"
        write_dataset(path, small_dataset)
        loaded = read_dataset(path)
        assert loaded.signals.shape == small_dataset.signals.shape
        assert np.allclose(loaded.signals, small_dataset.signals, atol=1e-6)
        assert np.array_equal(loaded.block_ids, small_dataset.block_ids)
        assert loaded.sh_order == small_dataset.sh_order

    def test_rewrite_bit_identical(self, tmp_path, small_dataset):
        a, b = tmp_path / "a.dsc", tmp_path / "b.dsc"
        write_dataset(a, small_dataset)
        write_dataset(b, small_dataset)
        assert a.read_bytes() == b.read_bytes()


class TestBlockIds:
    # 2**24 + 1 is the smallest positive integer that float32 rounds
    def test_dataset_rejects_id_float32_cannot_hold(self, tmp_path, small_dataset):
        small_dataset.block_ids[-1] = 2**24 + 1
        path = tmp_path / "d.dsc"
        with pytest.raises(InvalidArgumentError, match=f"16777217.*{path.name}"):
            write_dataset(path, small_dataset)
        assert not path.exists()

    def test_coeffs_rejects_id_float32_cannot_hold(self, tmp_path):
        path = tmp_path / "c.dsc"
        with pytest.raises(InvalidArgumentError, match=f"16777217.*{path.name}"):
            write_coeffs(path, np.zeros((2, 3)), {"block_ids": np.array([0, 2**24 + 1])})

    def test_largest_exact_id_roundtrips(self, tmp_path, small_dataset):
        small_dataset.block_ids[-1] = 2**24
        path = tmp_path / "d.dsc"
        write_dataset(path, small_dataset)
        assert read_dataset(path).block_ids[-1] == 2**24


class TestCoeffsModel:
    def test_coeffs_roundtrip_with_blocks(self, tmp_path):
        path = tmp_path / "c.dsc"
        coeffs = np.random.default_rng(1).standard_normal((6, 50))
        write_coeffs(path, coeffs, {"representation": "shore", "zeta": 700.0,
                                    "radial_order": 6, "block_ids": np.arange(6)})
        loaded, meta = read_coeffs(path)
        assert np.allclose(loaded, coeffs, atol=1e-6)
        assert meta["zeta"] == 700.0
        assert np.array_equal(meta["block_ids"], np.arange(6))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_coeffs_with_a_non_finite_row_name_the_file_and_row(self, tmp_path, bad):
        path = tmp_path / "c.dsc"
        coeffs = np.ones((6, 50))
        coeffs[[2, 4], 7] = bad
        write_coeffs(path, coeffs, {"representation": "shore"})
        with pytest.raises(InvalidArgumentError, match="row 2 .*2 of 6 rows") as err:
            read_coeffs(path)
        assert str(path) in str(err.value)

    def test_coeffs_segment_must_be_a_matrix(self, tmp_path):
        path = tmp_path / "c.dsc"
        write_container(path, "coeffs", [("coeffs", np.ones(5))], {})
        with pytest.raises(ContainerFormatError, match="2-D"):
            read_coeffs(path)

    def test_model_roundtrip_predictions_match(self, tmp_path):
        path = tmp_path / "m.dsc"
        regressor = small_regressor()
        write_model(path, regressor)
        loaded = read_model(path)
        x = np.random.default_rng(2).standard_normal((3, 50))
        from deepshore import forward

        # weights and standardizers survive the f32 payload, predictions
        # agree to f32 precision
        assert np.allclose(forward(loaded.model, x), forward(regressor.model, x), atol=1e-4)
        for side in ("in_norm", "out_norm"):
            want, got = getattr(regressor, side), getattr(loaded, side)
            assert np.allclose(got.mean, want.mean, rtol=1e-6)
            assert np.allclose(got.scale, want.scale, rtol=1e-6)
        assert loaded.model.seed == regressor.model.seed
        assert loaded.description() == regressor.description()
        assert loaded.cfg.shore.radial_order == 6 and loaded.zeta == 700.0
        # the input map comes back with the FOD map
        assert loaded.cfg.subcase == "opt-shore-to-sh" and loaded.cfg.shells == (3000.0, 9000.0)
        assert loaded.cfg.nonneg.epsilon == 0.01 and loaded.cfg.withhold_b is None

    def test_model_with_incomplete_fod_map_names_the_file(self, tmp_path):
        path = tmp_path / "m.dsc"
        write_model(path, small_regressor())
        box = read_container(path)
        del box.metadata["regressor"]["zeta"]
        write_container(path, "model", list(box.segments.items()), box.metadata)
        with pytest.raises(ContainerFormatError, match="zeta") as err:
            read_model(path)
        assert str(path) in str(err.value)

    @pytest.mark.parametrize("value", [50.5, True])
    def test_model_rejects_a_non_integral_input_dim(self, tmp_path, value):
        path = tmp_path / "m.dsc"
        write_model(path, small_regressor())
        box = read_container(path)
        box.metadata["input_dim"] = value
        write_container(path, "model", list(box.segments.items()), box.metadata)
        with pytest.raises(ContainerFormatError, match="input_dim") as err:
            read_model(path)
        assert str(path) in str(err.value)

    @pytest.mark.parametrize("value", [8.9, True])
    def test_dataset_rejects_a_non_integral_sh_order(self, tmp_path, small_dataset, value):
        path = tmp_path / "d.dsc"
        write_dataset(path, small_dataset)
        box = read_container(path)
        box.metadata["sh_order"] = value
        write_container(path, "dataset", list(box.segments.items()), box.metadata)
        with pytest.raises(ContainerFormatError, match="sh_order") as err:
            read_dataset(path)
        assert str(path) in str(err.value)

    def test_model_rewrite_bit_identical(self, tmp_path):
        a, b = tmp_path / "a.dsc", tmp_path / "b.dsc"
        regressor = small_regressor()
        write_model(a, regressor)
        write_model(b, regressor)
        assert a.read_bytes() == b.read_bytes()


def small_regressor():
    """An untrained regressor with standardizers and the default maps."""
    cfg = PipelineConfig(subcase="opt-shore-to-sh", shells=(3000.0, 9000.0),
                         nonneg=NonNegConfig(0.01))
    regressor = FodRegressor(cfg, 700.0, 8)
    rng = np.random.default_rng(3)
    regressor.model = build_model(50, 50, seed=5)
    regressor.in_norm = _Standardizer(rng.standard_normal((20, 50)))
    regressor.out_norm = _Standardizer(rng.standard_normal((20, 50)) * 3.0 + 1.0)
    return regressor


class TestReports:
    def test_json_report_roundtrip(self, tmp_path):
        path = tmp_path / "r.json"
        report = {"kind": "report", "median": 0.85, "acc": [0.1, 0.9], "created_at": "t"}
        write_report(path, report)
        assert read_report(path) == report

    def test_identical_reports_byte_identical_minus_timestamp(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        doc = {"kind": "report", "median": 0.7, "config": {"seed": 3}}
        write_report(a, dict(doc, created_at="2025-01-01T00:00:00"))
        write_report(b, dict(doc, created_at="2026-01-01T00:00:00"))
        ra, rb = read_report(a), read_report(b)
        ra.pop("created_at"), rb.pop("created_at")
        assert ra == rb


class TestFslText:
    def test_bval_bvec_roundtrip(self, tmp_path, small_dataset):
        bval, bvec = tmp_path / "g.bval", tmp_path / "g.bvec"
        write_bvals_bvecs(bval, bvec, small_dataset.samples)
        loaded = read_bvals_bvecs(bval, bvec)
        assert np.allclose(loaded.bvalues, small_dataset.samples.bvalues)
        assert np.allclose(
            loaded.directions.vectors, small_dataset.samples.directions.vectors, atol=1e-12
        )

    def test_bvals_read_back_exactly(self, tmp_path, dirs100):
        bvalues = np.repeat([12000.25, 3000.0, 1234.5678901234567], [40, 40, 20])
        bval, bvec = tmp_path / "g.bval", tmp_path / "g.bvec"
        write_bvals_bvecs(bval, bvec, QSpaceSamples(bvalues, dirs100))
        assert read_bvals_bvecs(bval, bvec).bvalues.tobytes() == bvalues.tobytes()
        # integral b-values keep their short form
        assert bval.read_text().split()[40] == "3000"

    def test_bvec_file_has_three_lines(self, tmp_path, small_dataset):
        bvec = tmp_path / "g.bvec"
        write_directions_text(bvec, small_dataset.samples.directions)
        lines = bvec.read_text().strip().split("\n")
        assert len(lines) == 3
        assert all(len(line.split()) == len(small_dataset.samples) for line in lines)

    def test_directions_text_roundtrip(self, tmp_path, dirs100):
        path = tmp_path / "dirs.txt"
        write_directions_text(path, dirs100)
        loaded = read_directions_text(path)
        assert np.allclose(loaded.vectors, dirs100.vectors, atol=1e-12)

    def test_malformed_direction_text_rejected(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("1 0\n0 1\n0 0\n1 1\n")
        with pytest.raises(ContainerFormatError):
            read_directions_text(path)
