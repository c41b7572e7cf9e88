import numpy as np
import pytest
from scipy.special import hyp1f1

from deepshore import (
    DirectionSet,
    InvalidArgumentError,
    QSpaceSamples,
    acc,
    generate_dataset,
)
from deepshore import phantom
from deepshore.phantom import PhantomConfig, _draw_compartments, build_acquisition
from deepshore.sh import eval_sh_basis, fit_sh_many
from deepshore.sphere import _haar_matrices, gauss_sphere_quadrature


@pytest.fixture(scope="module")
def projector():
    return phantom.FodProjector(gauss_sphere_quadrature(40, 81), 8)


def unit(axis):
    axis = np.asarray(axis, dtype=float)
    return axis / np.linalg.norm(axis)


def project(projector, axes, fractions, kappa=20.0):
    """SH coefficients (coeffs,) of one Watson mixture with the given
    axes (C, 3) and fractions (C,)."""
    axes = np.array([unit(a) for a in axes])
    return projector.project(axes[None], np.asarray(fractions, dtype=float), kappa)[0]


# a single fiber's eigenvalues (1, 3) and fraction (1,), for phantom._signals
FIBER = np.array([[1.7e-3, 0.3e-3, 0.3e-3]]), np.array([1.0])


def fiber_signals(axes, samples):
    """Signals (rows, samples) of single fibers along unit axes (rows, 3)."""
    return phantom._signals(np.asarray(axes, dtype=float)[:, None], *FIBER, samples)


class TestSimulateSignal:
    def test_closed_form_axial(self):
        samples = QSpaceSamples([1000.0], DirectionSet([[0.0, 0.0, 1.0]]))
        signal = fiber_signals([[0.0, 0.0, 1.0]], samples)
        assert signal[0, 0] == pytest.approx(np.exp(-1.7), rel=1e-12)

    def test_closed_form_radial(self):
        samples = QSpaceSamples([1000.0], DirectionSet([[1.0, 0.0, 0.0]]))
        signal = fiber_signals([[0.0, 0.0, 1.0]], samples)
        assert signal[0, 0] == pytest.approx(np.exp(-0.3), rel=1e-12)

    def test_b0_normalization(self):
        samples = QSpaceSamples([0.0], DirectionSet([[1.0, 0.0, 0.0]]))
        assert fiber_signals([[0.0, 1.0, 0.0]], samples)[0, 0] == 1.0

    def test_fraction_sum_enforced(self):
        axes = np.array([[[0.0, 0.0, 1.0], [1.0, 0.0, 0.0]]])
        eigenvalues = np.array([[1e-3, 1e-4, 1e-4]] * 2)
        samples = QSpaceSamples([1000.0], DirectionSet([[0.0, 0.0, 1.0]]))
        with pytest.raises(InvalidArgumentError):
            phantom._signals(axes, eigenvalues, np.array([0.5, 0.4]), samples)

    def test_rotation_equivariance(self):
        # turning the fiber by R equals pulling the gradients back by R^T
        cfg = PhantomConfig(n_voxels=1, rotations_per_voxel=0, snr=float("inf"))
        samples = build_acquisition(cfg)
        axis = unit([0.37, -0.61, 0.70])
        rot = _haar_matrices(np.random.default_rng(8), 1)[0]
        direct = fiber_signals([phantom._rotate(rot, axis)], samples)
        pulled_back = QSpaceSamples(samples.bvalues, DirectionSet(samples.directions.vectors @ rot))
        assert np.max(np.abs(direct - fiber_signals([axis], pulled_back))) < 1e-12

    def test_monotone_attenuation_in_b(self):
        g = np.array([0.5, -0.5, np.sqrt(0.5)])
        g /= np.linalg.norm(g)
        bvals = np.array([0.0, 1000.0, 3000.0, 6000.0, 12000.0])
        samples = QSpaceSamples(bvals, DirectionSet(np.tile(g, (5, 1))))
        signal = fiber_signals([unit([0.2, 0.5, 0.84])], samples)[0]
        assert np.all(np.diff(signal) < 0)


class TestCross:
    def test_matches_np_cross_on_random_vectors(self):
        rng = np.random.default_rng(0)
        for a, b in zip(rng.standard_normal((500, 3)), rng.standard_normal((500, 3)) * 1e3):
            assert phantom._cross(a, b).tobytes() == np.cross(a, b).tobytes()

    @pytest.mark.parametrize("helper", [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
    def test_matches_np_cross_on_helper_axes(self, helper):
        rng = np.random.default_rng(1)
        helper = np.array(helper)
        for e1 in rng.standard_normal((200, 3)):
            e1 /= np.linalg.norm(e1)
            e2 = np.cross(e1, helper)
            e2 /= np.linalg.norm(e2)
            assert phantom._cross(e1, helper).tobytes() == np.cross(e1, helper).tobytes()
            assert phantom._cross(e1, e2).tobytes() == np.cross(e1, e2).tobytes()

    @pytest.mark.parametrize("axis", [[0.2, 0.5, 0.84], [0.95, 0.1, -0.3]])
    def test_tensor_matches_np_cross_frame(self, axis):
        e1 = unit(axis)
        helper = np.array([1.0, 0.0, 0.0]) if abs(e1[0]) < 0.9 else np.array([0.0, 1.0, 0.0])
        e2 = np.cross(e1, helper)
        e2 /= np.linalg.norm(e2)
        e3 = np.cross(e1, e2)
        ev = FIBER[0][0]
        expected = ev[0] * np.outer(e1, e1) + ev[1] * np.outer(e2, e2) + ev[2] * np.outer(e3, e3)
        assert phantom._tensors(e1, ev).tobytes() == expected.tobytes()


class TestGroundTruthFod:
    def test_axially_symmetric_fiber_kills_m_terms(self, projector):
        fod = project(projector, [[0.0, 0.0, 1.0]], [1.0])
        from deepshore.sh import sh_degree_order_table

        _, orders = sh_degree_order_table(8)
        assert np.max(np.abs(fod[orders != 0])) < 1e-10

    def test_unit_mass(self, projector):
        fod = project(projector, [[0.0, 0.0, 1.0], [1.0, 0.0, 0.0]], [0.6, 0.4])
        assert fod[0] == pytest.approx(1.0 / (2.0 * np.sqrt(np.pi)), abs=1e-8)

    def test_compartment_permutation_invariance(self, projector):
        a, b = [0.0, 0.0, 1.0], [0.0, 1.0, 0.0]
        fod_ab = project(projector, [a, b], [0.5, 0.5])
        fod_ba = project(projector, [b, a], [0.5, 0.5])
        assert acc(fod_ab[None], fod_ba[None], 8)[0] == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("kappa", [10.0, 20.0, 50.0])
    def test_ringing_bounded_relative_to_peak(self, projector, kappa):
        # a degree-8 projection of a sharp lobe rings; the undershoot stays a
        # small fraction of the peak for the concentrations in use
        dense = gauss_sphere_quadrature(60, 121)
        fod = project(projector, [[0.0, 0.3, 0.95], [0.9, 0.1, 0.4]], [0.7, 0.3], kappa)
        values = eval_sh_basis(dense.nodes, 8) @ fod
        assert values.min() > -0.2 * values.max()


class TestRicianNoise:
    def test_infinite_snr_is_identity(self):
        values = np.linspace(0.0, 1.0, 32).reshape(2, 16)
        assert np.array_equal(phantom._rician(values, float("inf"), [0, 1]), values)

    def test_output_nonnegative(self):
        rng = np.random.default_rng(0)
        values = rng.random((4, 500))
        assert np.all(phantom._rician(values, 5.0, [1, 2, 3, 4]) >= 0.0)

    def test_rayleigh_mean_at_zero_signal(self):
        # oracle: magnitude of pure complex noise has mean sigma * sqrt(pi/2)
        sigma = 1.0 / 25.0
        noisy = phantom._rician(np.zeros((1, 100_000)), 25.0, [2])
        expected = sigma * np.sqrt(np.pi / 2.0)
        assert noisy.mean() == pytest.approx(expected, rel=0.02)

    def test_deterministic(self):
        values = np.linspace(0.0, 1.0, 10).reshape(2, 5)
        first = phantom._rician(values, 10.0, [3, 4])
        assert np.array_equal(first, phantom._rician(values, 10.0, [3, 4]))
        # each row draws from its own seed only
        assert np.array_equal(first[1], phantom._rician(values[1:], 10.0, [4])[0])


class TestGenerateDataset:
    def test_block_structure(self):
        cfg = PhantomConfig(n_voxels=5, rotations_per_voxel=100, snr=float("inf"), seed=1)
        data = generate_dataset(cfg)
        assert len(data) == 505
        ids, counts = np.unique(data.block_ids, return_counts=True)
        assert ids.tolist() == [0, 1, 2, 3, 4]
        assert np.all(counts == 101)

    def test_deterministic(self):
        cfg = PhantomConfig(n_voxels=3, rotations_per_voxel=5, snr=30.0, seed=7)
        a = generate_dataset(cfg)
        b = generate_dataset(cfg)
        assert np.array_equal(a.signals, b.signals)
        assert np.array_equal(a.fod_coeffs, b.fod_coeffs)

    def test_rotated_copies_match_rotate_sh(self, dirs200):
        # oracle: the stored FOD of a rotated copy must agree with rotating
        # the base FOD by resampling, f_R(d) = f(R^T d), and refitting
        cfg = PhantomConfig(n_voxels=2, rotations_per_voxel=3, snr=float("inf"), seed=11)
        data = generate_dataset(cfg)
        order = data.sh_order
        for voxel, stream in enumerate(np.random.SeedSequence(cfg.seed).spawn(cfg.n_voxels)):
            rng = np.random.default_rng(stream)
            _draw_compartments(rng, cfg)
            base = data.fod_coeffs[voxel * 4]
            values = np.array([eval_sh_basis(DirectionSet(dirs200.vectors @ rot), order) @ base
                               for rot in _haar_matrices(rng, cfg.rotations_per_voxel)])
            expected = fit_sh_many(values, dirs200, order)
            stored = data.fod_coeffs[voxel * 4 + 1:voxel * 4 + 4]
            assert np.all(acc(expected, stored, order) >= 0.999)

    def test_noiseless_signals_bounded_by_one(self):
        cfg = PhantomConfig(n_voxels=4, rotations_per_voxel=2, snr=float("inf"), seed=2)
        data = generate_dataset(cfg)
        assert np.all(data.signals <= 1.0 + 1e-12)
        assert np.all(data.signals > 0.0)


def _ref_generate_dataset(cfg):
    """The generator one row and one compartment at a time, in plain
    numpy/scipy calls: the draws, rotations, tensors, signals, noise and
    Watson-mixture projections of every row. The acquisition scheme and
    the quadrature basis are the package's."""
    samples = build_acquisition(cfg)
    quad = gauss_sphere_quadrature(40, 81)
    weighted_basis = eval_sh_basis(quad.nodes, cfg.sh_order).T * quad.weights
    g, b, nodes = samples.directions.vectors, samples.bvalues, quad.nodes.vectors
    kappa = cfg.kappa_watson
    signals, fods, block_ids = [], [], []
    for voxel, stream in enumerate(np.random.SeedSequence(cfg.seed).spawn(cfg.n_voxels)):
        rng = np.random.default_rng(stream)
        source, eigenvalues, fractions = _draw_compartments(rng, cfg)
        variants = [source]
        for _ in range(cfg.rotations_per_voxel):
            q = rng.standard_normal(4)
            q /= np.linalg.norm(q)
            w, x, y, z = q
            m = np.array([
                [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
                [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
                [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)],
            ])
            variants.append([m @ axis for axis in source])
        for raw_axes in variants:
            signal = np.zeros(len(samples))
            density = np.zeros(len(nodes))
            for ev, fraction, raw in zip(eigenvalues, fractions, raw_axes):
                e1 = raw / np.linalg.norm(raw)
                helper = np.array([1.0, 0.0, 0.0]) if abs(e1[0]) < 0.9 else np.array([0.0, 1.0, 0.0])
                e2 = np.cross(e1, helper)
                e2 /= np.linalg.norm(e2)
                e3 = np.cross(e1, e2)
                tensor = (ev[0] * np.outer(e1, e1) + ev[1] * np.outer(e2, e2)
                          + ev[2] * np.outer(e3, e3))
                signal += fraction * np.exp(-b * np.einsum("ij,jk,ik->i", g, tensor, g))
                t = nodes @ (e1 / np.linalg.norm(e1))
                norm = 1.0 / (4.0 * np.pi * hyp1f1(0.5, 1.5, kappa))
                density += fraction * (norm * np.exp(kappa * t * t))
            noise_rng = np.random.default_rng(int(rng.integers(0, 2**63 - 1)))
            if np.isfinite(cfg.snr):
                n1 = noise_rng.standard_normal(signal.shape) * (1.0 / cfg.snr)
                n2 = noise_rng.standard_normal(signal.shape) * (1.0 / cfg.snr)
                signal = np.sqrt((signal + n1) ** 2 + n2**2)
            signals.append(signal)
            fods.append(weighted_basis @ density)
            block_ids.append(voxel)
    return np.array(signals), np.array(fods), np.array(block_ids)


@pytest.mark.parametrize("overrides", [
    {"snr": 30.0},
    {"snr": float("inf")},
    {"snr": 30.0, "rotations_per_voxel": 0},
    {"snr": 30.0, "max_fibers": 1},
], ids=["snr30", "noiseless", "no-rotations", "one-fiber"])
def test_generate_dataset_is_bitwise_the_per_row_reference(overrides):
    cfg = PhantomConfig(**{"n_voxels": 4, "rotations_per_voxel": 5, "seed": 21, **overrides})
    data = generate_dataset(cfg)
    signals, fods, block_ids = _ref_generate_dataset(cfg)
    assert np.array_equal(data.signals, signals)
    assert np.array_equal(data.fod_coeffs, fods)
    assert np.array_equal(data.block_ids, block_ids)
