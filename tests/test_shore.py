import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import gamma as gamma_fn

from deepshore import (
    DirectionSet,
    InvalidArgumentError,
    QSpaceSamples,
    ShoreFitConfig,
    SingularSystemError,
    generate_uniform_directions,
    laguerre,
    optimize_zeta,
    radial_basis_g,
    shore_coeff_count,
    shore_design_matrix,
)
from deepshore import phantom, sh, shore
from deepshore.nonneg import clamp_log
from deepshore.pipeline import (
    PipelineConfig,
    _predicted_fod_sh,
    fod_directions,
    fod_samples,
    fod_targets,
)
from deepshore.shore import (
    default_zeta0,
    fit_shore_many,
    radial_normalization,
    shore_index_set,
)


def laguerre_series_oracle(k, alpha, x):
    """Brute-force series expansion: sum_i (-1)^i C(k+a, k-i) x^i / i!."""
    total = 0.0
    for i in range(k + 1):
        binom = gamma_fn(k + alpha + 1) / (gamma_fn(alpha + i + 1) * gamma_fn(k - i + 1))
        total += (-1) ** i * binom * x**i / gamma_fn(i + 1)
    return total


class TestCoeffCount:
    @pytest.mark.parametrize("order,count", [(0, 1), (2, 7), (4, 22), (6, 50), (8, 95)])
    def test_enumeration_matches_closed_form(self, order, count):
        assert shore_coeff_count(order) == count
        closed = (order + 2) * (order + 4) * (2 * order + 3) // 24
        assert shore_coeff_count(order) == closed

    def test_radial_order_two_index_set(self):
        assert shore_index_set(2) == [
            (0, 0, 0), (2, 0, 0),
            (2, 2, -2), (2, 2, -1), (2, 2, 0), (2, 2, 1), (2, 2, 2),
        ]

    def test_odd_order_rejected(self):
        with pytest.raises(InvalidArgumentError):
            shore_coeff_count(5)


class TestLaguerre:
    def test_degree_zero_is_one(self):
        assert laguerre(0, 2.7, 13.4) == 1.0

    def test_degree_one_closed_form(self):
        x = 0.73
        assert laguerre(1, 0.5, x) == pytest.approx(1.5 - x, abs=1e-15)

    @pytest.mark.parametrize("k", range(7))
    @pytest.mark.parametrize("alpha", [0.5, 2.5, 6.5])
    def test_against_series_expansion(self, k, alpha):
        for x in (0.0, 0.37, 1.2, 4.9, 11.0):
            assert laguerre(k, alpha, x) == pytest.approx(
                laguerre_series_oracle(k, alpha, x), rel=1e-12, abs=1e-12
            )

    def test_negative_degree_rejected(self):
        with pytest.raises(InvalidArgumentError):
            laguerre(-1, 0.5, 1.0)


class TestRadialBasis:
    def test_kappa00_fixed_by_orthonormality(self):
        # oracle: the unit L2 norm of G00 under the q^2 dq measure
        norm, _ = quad(lambda q: radial_basis_g(0, 0, q, 1.0) ** 2 * q * q, 0, np.inf)
        assert abs(norm - 1.0) < 1e-10
        assert radial_basis_g(0, 0, 0.0, 1.0) == pytest.approx(1.50225, abs=1e-5)

    def test_l_positive_vanishes_at_origin(self):
        for n, l in ((2, 2), (4, 2), (6, 4)):
            assert radial_basis_g(n, l, 0.0, 700.0) == 0.0

    @pytest.mark.parametrize("zeta", [200.0, 700.0, 2000.0])
    def test_radial_orthonormality(self, zeta):
        for l in (0, 2, 4, 6):
            ns = range(l, 7, 2)
            for a in ns:
                for b in ns:
                    value, _ = quad(
                        lambda q: radial_basis_g(a, l, q, zeta)
                        * radial_basis_g(b, l, q, zeta) * q * q,
                        0, np.inf, limit=200,
                    )
                    expected = 1.0 if a == b else 0.0
                    assert abs(value - expected) < 1e-8

    def test_invalid_indices_rejected(self):
        with pytest.raises(InvalidArgumentError):
            radial_basis_g(2, 4, 1.0, 700.0)  # l > n
        with pytest.raises(InvalidArgumentError):
            radial_basis_g(3, 1, 1.0, 700.0)  # odd
        with pytest.raises(InvalidArgumentError):
            radial_basis_g(2, 0, 1.0, -1.0)


class TestDesignMatrix:
    def test_column_count(self, four_shell_scheme):
        m = shore_design_matrix(four_shell_scheme, 6, 700.0)
        assert m.shape == (len(four_shell_scheme), 50)

    def test_b0_sample_hits_only_l0_columns(self):
        samples = QSpaceSamples([0.0], DirectionSet([[0.0, 0.0, 1.0]]))
        m = shore_design_matrix(samples, 6, 700.0)
        nonzero = {
            (n, l) for (n, l, _), v in zip(shore_index_set(6), m[0]) if abs(v) > 1e-15
        }
        assert nonzero == {(0, 0), (2, 0), (4, 0), (6, 0)}

    def test_antipodal_rows_equal(self):
        g = np.array([0.3, -0.5, 0.81])
        g /= np.linalg.norm(g)
        samples = QSpaceSamples([3000.0, 3000.0], DirectionSet([g, -g]))
        m = shore_design_matrix(samples, 6, 700.0)
        assert np.allclose(m[0], m[1], atol=1e-12)

    @pytest.mark.parametrize("zeta", [0.0, -1.0, np.nan, np.inf, 1e-300])
    def test_scale_without_a_finite_design_rejected(self, four_shell_scheme, zeta):
        with pytest.raises(InvalidArgumentError, match="zeta"):
            shore_design_matrix(four_shell_scheme, 6, zeta)


class TestFitShore:
    def test_unregularized_roundtrip_recovers_coefficients(self, four_shell_scheme):
        rng = np.random.default_rng(0)
        zeta = 1200.0
        truth = rng.standard_normal((3, 50))
        signals = truth @ shore_design_matrix(four_shell_scheme, 6, zeta).T
        cfg = ShoreFitConfig(lambda_n=0.0, lambda_l=0.0)
        fitted = fit_shore_many(signals, four_shell_scheme, cfg, zeta)
        rel = np.linalg.norm(fitted - truth) / np.linalg.norm(truth)
        assert rel < 1e-6

    def test_default_lambda_roundtrip(self, noiseless_voxels):
        # synthesis series come from fits of physical phantom signals, at the
        # scale the optimizer itself picks for them
        cfg = ShoreFitConfig()
        scheme = noiseless_voxels.samples
        zeta = optimize_zeta(
            noiseless_voxels.signals, scheme, cfg, default_zeta0(scheme)
        )
        base = fit_shore_many(noiseless_voxels.signals, scheme, cfg, zeta)
        design = shore_design_matrix(scheme, 6, zeta)
        forward = base @ design.T
        refit = fit_shore_many(forward, scheme, cfg, zeta)
        recon = refit @ design.T
        rel_rmse = np.sqrt(np.mean((recon - forward) ** 2) / np.mean(forward**2))
        assert rel_rmse < 1e-4
        rel_coeff = np.linalg.norm(refit - base) / np.linalg.norm(base)
        assert rel_coeff < 1e-4

    def test_isotropic_gaussian_signal_hits_single_function(self, four_shell_scheme):
        # closed form: exp(-q^2/2z) = (2 sqrt(pi) / kappa00) * G00 * Y00,
        # so only the (0,0,0) coefficient survives, at that amplitude
        zeta = 700.0
        signal = np.exp(-four_shell_scheme.q**2 / (2.0 * zeta))
        fitted = fit_shore_many(signal[None], four_shell_scheme, ShoreFitConfig(), zeta)[0]
        expected = 2.0 * np.sqrt(np.pi) / radial_normalization(0, 0, zeta)
        assert fitted[0] == pytest.approx(expected, rel=1e-6)
        assert np.max(np.abs(fitted[1:])) < 1e-6 * abs(expected)

    def test_length_mismatch_rejected(self, four_shell_scheme):
        with pytest.raises(InvalidArgumentError):
            fit_shore_many(np.ones((1, 7)), four_shell_scheme, ShoreFitConfig(), 700.0)

    def test_signal_scaling_is_exactly_linear(self, four_shell_scheme, noiseless_voxels):
        cfg = ShoreFitConfig()
        one = fit_shore_many(noiseless_voxels.signals[:3], four_shell_scheme, cfg, 900.0)
        scaled = fit_shore_many(4.0 * noiseless_voxels.signals[:3], four_shell_scheme, cfg, 900.0)
        assert np.allclose(scaled, 4.0 * one, rtol=1e-12, atol=0.0)


class TestReconstruct:
    def test_zero_coefficients_give_zeros(self, four_shell_scheme):
        design = shore_design_matrix(four_shell_scheme, 6, 700.0)
        assert np.all(design @ np.zeros(50) == 0.0)

    def test_fit_reconstruct_roundtrip_on_phantom(self, noiseless_voxels):
        cfg = ShoreFitConfig()
        scheme = noiseless_voxels.samples
        zeta = optimize_zeta(
            noiseless_voxels.signals, scheme, cfg, default_zeta0(scheme)
        )
        coeffs = fit_shore_many(noiseless_voxels.signals, scheme, cfg, zeta)
        recon = coeffs @ shore_design_matrix(scheme, 6, zeta).T
        rel = np.sqrt(
            np.mean((recon - noiseless_voxels.signals) ** 2)
            / np.mean(noiseless_voxels.signals**2)
        )
        assert rel < 5e-2  # physical signals are not exactly in the basis

    def test_withheld_shell_generalization(self, noiseless_voxels):
        samples = noiseless_voxels.samples
        keep = np.abs(samples.bvalues - 6000.0) > 0.5
        train = samples.subset(keep)
        held = samples.subset(~keep)
        cfg = ShoreFitConfig()
        zeta = optimize_zeta(
            noiseless_voxels.signals[:, keep], train, cfg, default_zeta0(train)
        )
        coeffs = fit_shore_many(noiseless_voxels.signals[:, keep], train, cfg, zeta)
        predicted = coeffs @ shore_design_matrix(held, 6, zeta).T
        truth = noiseless_voxels.signals[:, ~keep]
        rel_rmse = np.sqrt(np.mean((predicted - truth) ** 2) / np.mean(truth**2))
        assert rel_rmse < 5e-2


class TestOptimizeZeta:
    def test_recovers_true_scale(self, four_shell_scheme):
        # radial order 2 keeps the basis from absorbing a wrong scale,
        # which makes the recovery problem well posed
        cfg = ShoreFitConfig(radial_order=2)
        for zeta_true, zeta0 in ((700.0, 1500.0), (2000.0, 900.0), (400.0, 1125.0)):
            amplitudes = np.array([[1.0], [0.7], [1.3]])
            signals = amplitudes * np.exp(-four_shell_scheme.q**2 / (2.0 * zeta_true))
            found = optimize_zeta(signals, four_shell_scheme, cfg, zeta0)
            assert abs(found - zeta_true) / zeta_true < 0.05

    def test_objective_never_increases(self, four_shell_scheme, noiseless_voxels):
        cfg = ShoreFitConfig()
        zeta0 = default_zeta0(four_shell_scheme)
        found = optimize_zeta(noiseless_voxels.signals, four_shell_scheme, cfg, zeta0)
        pen = shore._penalty_diag(cfg)

        def objective(z):
            design = shore_design_matrix(four_shell_scheme, 6, z)
            return _factored_residual(noiseless_voxels.signals, design, pen)

        assert objective(found) <= objective(zeta0) + 1e-12

    def test_already_optimal_start(self, four_shell_scheme):
        cfg = ShoreFitConfig(radial_order=2)
        signals = np.exp(-four_shell_scheme.q**2 / (2.0 * 700.0))[None, :]
        found = optimize_zeta(signals, four_shell_scheme, cfg, 700.0)
        assert abs(found - 700.0) / 700.0 < 0.05

    def test_empty_signals_rejected(self, four_shell_scheme):
        with pytest.raises(InvalidArgumentError):
            optimize_zeta(np.zeros((0, len(four_shell_scheme))), four_shell_scheme,
                          ShoreFitConfig(), 700.0)

    def test_non_finite_objective_reports_last_valid(self, four_shell_scheme):
        from deepshore import OptimizationFailureError

        signals = np.ones((2, len(four_shell_scheme)))
        signals[1, 3] = np.nan
        with pytest.raises(OptimizationFailureError) as info:
            optimize_zeta(signals, four_shell_scheme, ShoreFitConfig(), 700.0)
        assert info.value.zeta is None  # already non-finite at the start

    def test_non_positive_zeta0_rejected(self, four_shell_scheme):
        with pytest.raises(InvalidArgumentError):
            optimize_zeta(np.ones((1, len(four_shell_scheme))), four_shell_scheme,
                          ShoreFitConfig(), 0.0)

    @pytest.mark.parametrize("zeta0", [np.nan, np.inf])
    def test_non_finite_zeta0_rejected(self, four_shell_scheme, zeta0):
        with pytest.raises(InvalidArgumentError, match="zeta0"):
            optimize_zeta(np.ones((1, len(four_shell_scheme))), four_shell_scheme,
                          ShoreFitConfig(), zeta0)

    def test_scales_whose_design_overflows_fail_the_search(self, four_shell_scheme):
        from deepshore import OptimizationFailureError

        with pytest.raises(OptimizationFailureError):
            optimize_zeta(np.ones((1, len(four_shell_scheme))), four_shell_scheme,
                          ShoreFitConfig(), 1e-300)


_THREAD_PROBE = """
import hashlib, sys
from deepshore import io, pipeline, shore
from deepshore.nonneg import NonNegConfig, clamp_log
dataset = io.read_dataset(sys.argv[1])
mask = pipeline.shell_mask(dataset.samples, None, 6000.0)
samples = dataset.samples.subset(mask)
signals = clamp_log(dataset.signals[:, mask], NonNegConfig())
cfg = shore.ShoreFitConfig()
zeta = shore.optimize_zeta(signals, samples, cfg, shore.default_zeta0(samples))
coeffs = shore.fit_shore_many(signals, samples, cfg, zeta)
print(zeta.hex(), hashlib.sha256(coeffs.tobytes()).hexdigest())
"""


def test_scale_search_and_fit_do_not_depend_on_blas_threads(tmp_path):
    """The all-voxel scale and fit of a noisy log-domain phantom are the same
    bits at one, two and three BLAS threads (where the host has two CPUs, an
    unpinned gemm of 3,030 columns splits and rounds differently; three
    threads exceed the CPU count of such a host)."""
    import os
    import subprocess
    import sys

    from deepshore.cli import run_cli

    data = tmp_path / "d.dsc"
    assert run_cli(["phantom", "--voxels", "30", "--rotations", "100", "--snr", "30",
                    "--seed", "3", "--out", str(data)]) == 0
    src = os.path.dirname(os.path.dirname(shore.__file__))
    outputs = []
    for threads in ("1", "2", "3"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        done = subprocess.run([sys.executable, "-c", _THREAD_PROBE, str(data)], env=env,
                              capture_output=True, text=True, check=True)
        outputs.append(done.stdout)
    assert outputs[0] == outputs[1] == outputs[2]


def _explicit_residual(signals, design, penalty):
    """Mean squared residual of refitting every signal row on `design`."""
    coeffs = sh._solve_regularized(design, penalty, signals.T)
    return float(np.mean((design @ coeffs - signals.T) ** 2))


def _factored_residual(signals, design, penalty):
    """The search's objective: the same residual, refit over the signals' QR
    factor."""
    factor = shore._signal_factor(signals)
    return shore._mean_refit_residual(factor, design, penalty, signals.size)


def _ref_optimize_zeta(signals, samples, cfg, zeta0, residual, max_iterations=100,
                       gradient_step=1e-4, tolerance=1e-6, probe_spread=1.5):
    """The line search that recomputes the gradient at every accepted point,
    minimizing ``residual(signals, design, penalty)``.

    Returns the scale, the number of objective evaluations, the number of
    accepted steps and why the search stopped.
    """
    penalty = shore._penalty_diag(cfg)
    evals = [0]

    def objective(log_zeta):
        evals[0] += 1
        design = shore_design_matrix(samples, cfg.radial_order, float(np.exp(log_zeta)))
        return residual(signals, design, penalty)

    t = float(np.log(zeta0))
    f = objective(t)
    best_t, best_f = t, f
    for step_count in (1, 2, 3, 4):
        offset = probe_spread * step_count / 4.0
        for signed in (-offset, offset):
            f_probe = objective(t + signed)
            if f_probe < best_f:
                best_t, best_f = t + signed, f_probe
    t, f = best_t, best_f
    curvature = None

    def gradient(point, value):
        f_plus = objective(point + gradient_step)
        f_minus = objective(point - gradient_step)
        g = (f_plus - f_minus) / (2.0 * gradient_step)
        h = (f_plus - 2.0 * value + f_minus) / gradient_step**2
        return g, h

    steps, reason = 0, "iterations"
    for _ in range(max_iterations):
        g, h = gradient(t, f)
        if g == 0.0:
            reason = "flat"
            break
        scale = curvature if curvature is not None and curvature > 0 else None
        if scale is None:
            scale = h if h > 0 else abs(g)
        step = float(np.clip(-g / scale, -1.0, 1.0))
        accepted = False
        alpha = 1.0
        for _ in range(30):
            t_new = t + alpha * step
            f_new = objective(t_new)
            if f_new <= f + 1e-4 * alpha * step * g:
                accepted = True
                break
            alpha *= 0.5
        if not accepted:
            reason = "line search"
            break
        steps += 1
        g_new, _ = gradient(t_new, f_new)
        s = t_new - t
        y = g_new - g
        if s * y > 1e-16:
            curvature = y / s
        t, f = t_new, f_new
        if f < best_f:
            best_t, best_f = t, f
        if abs(s) < tolerance:
            reason = "tolerance"
            break
    return float(np.exp(best_t)), evals[0], steps, reason


@pytest.fixture(scope="module")
def noisy_signals(noiseless_voxels):
    return phantom._rician(noiseless_voxels.signals[None], 30.0, [4])[0]


@pytest.fixture(scope="module")
def many_noisy_signals(noiseless_voxels):
    """200 noisy rows, more than the 100 samples."""
    blocks = np.tile(noiseless_voxels.signals[None], (10, 1, 1))
    return phantom._rician(blocks, 30.0, range(10)).reshape(200, -1)


class TestOptimizeZetaBitExact:
    @pytest.mark.parametrize("noisy", [False, True])
    def test_matches_reference_loop(self, noisy, four_shell_scheme, noiseless_voxels,
                                    noisy_signals):
        signals = noisy_signals if noisy else noiseless_voxels.signals
        cfg = ShoreFitConfig()
        zeta0 = default_zeta0(four_shell_scheme)
        found = optimize_zeta(signals, four_shell_scheme, cfg, zeta0)
        expected, *_ = _ref_optimize_zeta(signals, four_shell_scheme, cfg, zeta0,
                                          _factored_residual)
        assert found.hex() == expected.hex()
        explicit, *_ = _ref_optimize_zeta(signals, four_shell_scheme, cfg, zeta0,
                                          _explicit_residual)
        assert abs(found - explicit) <= 1e-6 * explicit

    def test_refit_residual_matches_reference(self, four_shell_scheme, noiseless_voxels,
                                              many_noisy_signals):
        """The residual over the QR factor equals the residual over the
        signals, linear or clamp-logged, whether R has fewer rows than
        there are samples or is square, and for noiseless rows repeated
        ten times, where R is rank-deficient."""
        pen = shore._penalty_diag(ShoreFitConfig())
        designs = [shore_design_matrix(four_shell_scheme, 6, zeta)
                   for zeta in np.geomspace(300.0, 20000.0, 12)]
        noiseless = np.tile(noiseless_voxels.signals, (10, 1))
        for signals in (noiseless, many_noisy_signals):
            for rows in (1, 3, 20, 200):
                for values in (signals[:rows], clamp_log(signals[:rows])):
                    for design in designs:
                        expected = _explicit_residual(values, design, pen)
                        found = _factored_residual(values, design, pen)
                        assert abs(found - expected) <= 1e-10 * expected

    def test_no_scale_is_evaluated_twice(self, monkeypatch, four_shell_scheme,
                                         noisy_signals):
        cfg = ShoreFitConfig()
        zeta0 = default_zeta0(four_shell_scheme)
        _, reference_evals, _, _ = _ref_optimize_zeta(noisy_signals, four_shell_scheme,
                                                      cfg, zeta0, _factored_residual)
        scales = _built_scales(monkeypatch, noisy_signals, four_shell_scheme, cfg, zeta0)
        assert len(set(scales)) == len(scales)
        assert len(scales) < reference_evals

    def test_tolerance_stop_builds_no_final_gradient(self, monkeypatch, four_shell_scheme,
                                                     noisy_signals):
        cfg = ShoreFitConfig()
        zeta0 = default_zeta0(four_shell_scheme)
        _, reference_evals, steps, reason = _ref_optimize_zeta(
            noisy_signals, four_shell_scheme, cfg, zeta0, _factored_residual)
        assert reason == "tolerance" and steps > 1
        scales = _built_scales(monkeypatch, noisy_signals, four_shell_scheme, cfg, zeta0)
        # the reference builds a gradient pair at every accepted point twice;
        # the search carries one over at the steps - 1 points before the last
        # and builds none at the last: 2 builds fewer than carrying it over
        assert len(scales) == reference_evals - 2 * (steps - 1) - 2


def _built_scales(monkeypatch, signals, samples, cfg, zeta0):
    """The scales of the design matrices that one optimize_zeta call builds."""
    scales = []
    build = shore.shore_design_matrix

    def counting(samples, radial_order, zeta):
        scales.append(zeta)
        return build(samples, radial_order, zeta)

    monkeypatch.setattr(shore, "shore_design_matrix", counting)
    optimize_zeta(signals, samples, cfg, zeta0)
    return scales


def watson_fod(kappa, seed, max_degree=8):
    """SH coefficients (coeffs,) of one Watson lobe along a random axis."""
    from deepshore.sphere import gauss_sphere_quadrature

    rng = np.random.default_rng(seed)
    axis = rng.standard_normal(3)
    quad = gauss_sphere_quadrature(40, 81)
    projector = phantom.FodProjector(quad, max_degree)
    return projector.project((axis / np.linalg.norm(axis))[None, None], np.ones(1), kappa)[0]


class TestFodConversions:
    """SH FODs to network targets (`fod_samples`, `fod_targets`) and back
    (`_predicted_fod_sh`)."""

    # the fixed direction set of these tests is the dirs200 fixture
    cfg = PipelineConfig(n_fod_directions=200, direction_seed=3, direction_iterations=300)

    def round_trip(self, coeffs, dirs):
        targets = fod_targets(fod_samples(coeffs[None], 8, self.cfg), "shore", 700.0, self.cfg)
        return _predicted_fod_sh(targets, "shore", dirs, self.cfg, 700.0, 8)[0]

    def test_roundtrip_on_representable_fod(self, quad_16_33):
        # a Watson density's log is a degree-2 function, which the log-domain
        # targets hold exactly; kappa 2 keeps its degree-8 truncation positive
        axis = np.array([1.0, 2.0, 2.0]) / 3.0
        density = np.exp(2.0 * (quad_16_33.nodes.vectors @ axis) ** 2)
        density /= density @ quad_16_33.weights
        coeffs = (sh.eval_sh_basis(quad_16_33.nodes, 8) * quad_16_33.weights[:, None]).T @ density
        back = self.round_trip(coeffs, fod_directions(self.cfg))
        assert sh.acc(back[None], coeffs[None], 8)[0] >= 0.9999
        assert np.max(np.abs(back - coeffs)) < 1e-3 * np.max(np.abs(coeffs))

    def test_roundtrip_hits_degree_truncation_ceiling(self, dirs200):
        # linear-domain targets: a radial-order-6 series on one shell keeps
        # exactly the SH content of degree <= 6
        fod = watson_fod(20.0, seed=2)
        degrees, _ = sh.sh_degree_order_table(8)
        energy = fod**2
        aniso = energy[degrees >= 2].sum()
        ceiling = np.sqrt(1.0 - energy[degrees == 8].sum() / aniso)
        samples = fod[None] @ sh.eval_sh_basis(dirs200, 8).T
        targets = fod_targets(samples, "shore", 700.0, self.cfg)
        fod_scheme = QSpaceSamples(np.full(len(dirs200), 2000.0), dirs200)
        values = targets @ shore_design_matrix(fod_scheme, 6, 700.0).T
        back = sh.fit_sh_many(values, dirs200, 8)
        assert sh.acc(back, fod[None], 8)[0] == pytest.approx(ceiling, abs=1e-3)

    def test_isotropic_fod_stays_constant(self, dirs200):
        coeffs = np.zeros(45)
        coeffs[0] = 1.0 / (2.0 * np.sqrt(np.pi))
        back = self.round_trip(coeffs, dirs200)
        assert back[0] == pytest.approx(coeffs[0], rel=1e-9)
        assert np.max(np.abs(back[1:])) < 1e-9

    def test_underdetermined_single_shell_without_regularization(self):
        cfg = PipelineConfig(n_fod_directions=40, direction_seed=4, direction_iterations=100,
                             shore=ShoreFitConfig(lambda_n=0.0, lambda_l=0.0))
        fod = watson_fod(20.0, seed=3)
        with pytest.raises(SingularSystemError):
            fod_targets(fod_samples(fod[None], 8, cfg), "shore", 700.0, cfg)

    def test_zero_series_converts_to_zero_sh(self, dirs200):
        # a zero log-domain series is the FOD of amplitude one everywhere:
        # no SH content above degree 0
        back = _predicted_fod_sh(np.zeros((1, 50)), "shore", dirs200, self.cfg, 700.0, 8)[0]
        assert back[0] == pytest.approx(2.0 * np.sqrt(np.pi), rel=1e-12)
        assert np.max(np.abs(back[1:])) < 1e-12

    def test_direction_set_invariance(self, dirs200):
        other = generate_uniform_directions(200, seed=77, iterations=300)
        fod = watson_fod(20.0, seed=5)
        a = self.round_trip(fod, dirs200)
        b = self.round_trip(fod, other)
        assert sh.acc(a[None], b[None], 8)[0] >= 0.999


class TestQSpaceSamples:
    def test_q_is_sqrt_b(self, four_shell_scheme):
        assert np.max(np.abs(four_shell_scheme.q**2 - four_shell_scheme.bvalues)) < 1e-9

    def test_negative_b_rejected(self):
        with pytest.raises(InvalidArgumentError):
            QSpaceSamples([-1.0], DirectionSet([[0.0, 0.0, 1.0]]))

    def test_length_mismatch_rejected(self):
        with pytest.raises(InvalidArgumentError):
            QSpaceSamples([1.0, 2.0], DirectionSet([[0.0, 0.0, 1.0]]))
