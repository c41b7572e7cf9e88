import numpy as np
import pytest

from deepshore import (
    InvalidArgumentError,
    OptimizationFailureError,
    SingularSystemError,
    UndefinedCorrelationError,
    acc,
    eval_sh_basis,
    generate_uniform_directions,
    sh_coeff_count,
)
from deepshore import sh, shore
from deepshore.sh import fit_sh_many, sh_degree_order_table


def random_series(max_degree, seed, scale=1.0):
    """One random coefficient row (1, coeffs) of degree max_degree."""
    rng = np.random.default_rng(seed)
    return scale * rng.standard_normal((1, sh_coeff_count(max_degree)))


def acc1(u, v, max_degree=8):
    """ACC of two single coefficient rows, as a float."""
    return float(acc(u, v, max_degree)[0])


class TestCoeffCount:
    @pytest.mark.parametrize("degree,count", [(0, 1), (2, 6), (4, 15), (6, 28), (8, 45)])
    def test_closed_form(self, degree, count):
        assert sh_coeff_count(degree) == count

    def test_odd_degree_rejected(self):
        with pytest.raises(InvalidArgumentError):
            sh_coeff_count(3)


class TestBasis:
    def test_constant_harmonic_value(self, dirs100):
        basis = eval_sh_basis(dirs100, 8)
        assert np.allclose(basis[:, 0], 1.0 / (2.0 * np.sqrt(np.pi)), atol=1e-14)

    def test_antipodal_symmetry(self, dirs100):
        flipped = type(dirs100)(-dirs100.vectors)
        assert np.allclose(
            eval_sh_basis(dirs100, 8), eval_sh_basis(flipped, 8), atol=1e-12
        )

    def test_orthonormality_on_gauss_grid(self, quad_16_33):
        basis = eval_sh_basis(quad_16_33.nodes, 8)
        gram = (basis * quad_16_33.weights[:, None]).T @ basis
        assert np.max(np.abs(gram - np.eye(45))) < 1e-10

    def test_odd_degree_rejected(self, dirs100):
        with pytest.raises(InvalidArgumentError):
            eval_sh_basis(dirs100, 5)


class TestScipyPorts:
    """The Legendre and log-gamma ports give scipy's bits."""

    def test_legendre_matches_lpmv(self):
        from scipy.special import lpmv

        x = np.concatenate([np.linspace(-1.0, 1.0, 4001), [-1.0, -0.0, 0.0, 1.0],
                            np.random.default_rng(0).uniform(-1.0, 1.0, 1000)])
        for l in range(17):
            for m in range(l + 1):
                got = sh._legendre(l, m, x)
                assert got.shape == x.shape
                assert got.tobytes() == lpmv(m, l, x).tobytes(), (l, m)

    def test_gammaln_matches_scipy(self):
        from scipy.special import gammaln

        x = np.concatenate([np.arange(0.5, 200.5, 0.5),
                            np.random.default_rng(1).uniform(0.0, 1000.0, 20000),
                            [1e-300, 13.0, 1000.0, 2e3, 1e8, 3e8]])
        got = np.array([sh._gammaln(v) for v in x])
        assert got.tobytes() == gammaln(x).tobytes()


class TestFitSample:
    def test_forward_synthesize_then_fit(self, dirs100):
        truth = np.random.default_rng(0).standard_normal((4, 45))
        values = truth @ eval_sh_basis(dirs100, 8).T
        fitted = fit_sh_many(values, dirs100, 8)
        assert np.max(np.abs(fitted - truth)) < 1e-8

    def test_constant_values_hit_only_c00(self, dirs100):
        fitted = fit_sh_many(np.full((1, len(dirs100)), 0.75), dirs100, 8)[0]
        assert abs(fitted[0] - 0.75 * 2.0 * np.sqrt(np.pi)) < 1e-10
        assert np.max(np.abs(fitted[1:])) < 1e-10

    def test_underdetermined_rejected(self):
        few = generate_uniform_directions(10, seed=1, iterations=50)
        with pytest.raises(SingularSystemError):
            fit_sh_many(np.ones((1, 10)), few, 8)

    def test_length_mismatch_rejected(self, dirs100):
        with pytest.raises(InvalidArgumentError):
            fit_sh_many(np.ones((1, 99)), dirs100, 8)

    def test_sample_of_zero_series_is_zero(self, dirs100):
        assert np.all(eval_sh_basis(dirs100, 8) @ np.zeros(45) == 0.0)

    def test_pure_c00_samples_to_ones(self, dirs100):
        coeffs = np.zeros(45)
        coeffs[0] = 2.0 * np.sqrt(np.pi)
        assert np.allclose(eval_sh_basis(dirs100, 8) @ coeffs, 1.0, atol=1e-14)


def _three_shells(dirs):
    return shore.QSpaceSamples(np.repeat([1000.0, 2000.0, 3000.0], len(dirs)),
                               np.tile(dirs.vectors, (3, 1)))


class TestCholeskySolve:
    """`sh._cholesky_solve` gives the bits of scipy's cho_factor/cho_solve,
    on numpy's OpenBLAS build and on the scipy fallback alike."""

    @pytest.fixture
    def systems(self):
        samples = _three_shells(generate_uniform_directions(30, seed=1, iterations=50))
        pen = shore._penalty_diag(shore.ShoreFitConfig())
        signals = np.random.default_rng(0).random((200, len(samples)))
        out = []
        for zeta in (300.0, 700.0, 2000.0):
            design = shore.shore_design_matrix(samples, 6, zeta)
            normal = design.T @ design
            normal = normal + float(np.mean(np.diag(normal))) * np.diag(pen)
            out.append((normal, design.T @ signals.T))
        return out

    @pytest.fixture(params=["lapack", "fallback"])
    def path(self, request, monkeypatch):
        if request.param == "fallback":
            monkeypatch.setattr(sh, "_lapack_cholesky", lambda: None)
        elif sh._lapack_cholesky() is None:
            pytest.skip("no loaded OpenBLAS build exports dpotrf/dpotrs with 64-bit integers")
        return request.param

    def test_matches_scipy(self, systems, path):
        from scipy.linalg import cho_factor, cho_solve

        for normal, xty in systems:
            got = sh._cholesky_solve(normal, xty)
            assert got.flags.f_contiguous
            assert got.tobytes("A") == cho_solve(cho_factor(normal), xty).tobytes("A")

    def test_not_positive_definite(self, path):
        with pytest.raises(SingularSystemError):
            sh._cholesky_solve(np.diag([1.0, -1.0, 1.0]), np.ones((3, 2)))

    def test_mismatched_shapes_rejected_before_lapack(self):
        if sh._lapack_cholesky() is None:
            pytest.skip("no loaded OpenBLAS build exports dpotrf/dpotrs with 64-bit integers")
        with pytest.raises(InvalidArgumentError):
            sh._cholesky_solve(np.eye(3), np.ones((2, 2)))

    def test_non_finite_rhs(self, systems, path):
        normal, xty = systems[0]
        xty = xty.copy()
        xty[3, 5] = np.nan
        with pytest.raises(ValueError):
            sh._cholesky_solve(normal, xty)

    def test_nan_signal_fails_the_scale_search(self, path):
        samples = _three_shells(generate_uniform_directions(30, seed=1, iterations=50))
        signals = np.exp(-samples.bvalues / 2000.0) * np.ones((3, 1))
        signals[1, 4] = np.nan
        with pytest.raises(OptimizationFailureError):
            shore.optimize_zeta(signals, samples, shore.ShoreFitConfig(), 700.0)


def _blas_threads(lib):
    """An OpenBLAS build's thread count, read through its setter."""
    count = lib.openblas_set_num_threads_local(1)
    lib.openblas_set_num_threads_local(count)
    return count


class TestOneBlasThread:
    def test_finds_the_loaded_openblas(self):
        if "openblas" not in np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]:
            pytest.skip("numpy is not built on OpenBLAS")
        assert sh._openblas_builds()

    def test_restores_the_callers_count_after_an_error(self):
        builds = sh._openblas_builds()
        if not builds:
            pytest.skip("no OpenBLAS loaded")
        saved = [lib.openblas_set_num_threads_local(2) for lib in builds]
        try:
            with pytest.raises(SingularSystemError):
                with sh.one_blas_thread():
                    assert [_blas_threads(lib) for lib in builds] == [1] * len(builds)
                    few = generate_uniform_directions(10, seed=1, iterations=50)
                    fit_sh_many(np.ones((1, 10)), few, 8)
            assert [_blas_threads(lib) for lib in builds] == [2] * len(builds)
        finally:
            for lib, count in zip(builds, saved):
                lib.openblas_set_num_threads_local(count)

    def test_every_product_and_solve_runs_on_one_thread(self, monkeypatch):
        """At each product, the search's QR and each ``_cholesky_solve`` call,
        record every loaded build's thread count: in a scale search and in
        one-off SHORE and SH fits all run on one thread, and the caller's
        count is back afterwards."""
        builds = sh._openblas_builds()
        if not builds:
            pytest.skip("no OpenBLAS loaded")
        log = []

        class Recording(np.ndarray):
            def __matmul__(self, other):
                log.append(("product", [_blas_threads(lib) for lib in builds]))
                return np.matmul(np.asarray(self), np.asarray(other))

        def recording(function, kind=None):
            def call(*args, **kwargs):
                if kind:
                    log.append((kind, [_blas_threads(lib) for lib in builds]))
                    return function(*args, **kwargs)
                return function(*args, **kwargs).view(Recording)
            return call

        monkeypatch.setattr(sh, "_cholesky_solve", recording(sh._cholesky_solve, "solve"))
        monkeypatch.setattr(np.linalg, "qr", recording(np.linalg.qr, "qr"))
        monkeypatch.setattr(shore, "shore_design_matrix", recording(shore.shore_design_matrix))
        monkeypatch.setattr(sh, "eval_sh_basis", recording(sh.eval_sh_basis))
        dirs = generate_uniform_directions(30, seed=1, iterations=50)
        samples = _three_shells(dirs)
        signals = np.random.default_rng(0).random((5, len(samples)))
        cfg = shore.ShoreFitConfig()
        one, caller = [1] * len(builds), [2] * len(builds)
        saved = [lib.openblas_set_num_threads_local(2) for lib in builds]
        try:
            shore.optimize_zeta(signals, samples, cfg, 700.0)
            assert log[0] == ("qr", one)
            assert {kind for kind, _ in log} == {"qr", "product", "solve"}
            assert all(threads == one for _, threads in log)
            log.clear()
            shore.fit_shore_many(signals, samples, cfg, 700.0)
            assert log == [("product", one)] * 2 + [("solve", one)]
            log.clear()
            fit_sh_many(signals[:, :30], dirs, 4)
            assert log == [("product", one)] * 2 + [("solve", one)]
            assert [_blas_threads(lib) for lib in builds] == caller
        finally:
            for lib, count in zip(builds, saved):
                lib.openblas_set_num_threads_local(count)


class TestAcc:
    def test_self_correlation(self):
        u = random_series(8, seed=1)
        assert abs(acc1(u, u) - 1.0) < 1e-12

    def test_positive_scale_invariance(self):
        u = random_series(8, seed=2)
        assert abs(acc1(u, 3.0 * u) - 1.0) < 1e-12

    def test_negation(self):
        u = random_series(8, seed=3)
        assert abs(acc1(u, -u) + 1.0) < 1e-12

    def test_cross_degree_orthogonality(self):
        degrees, _ = sh_degree_order_table(8)
        c2 = np.where(degrees == 2, 1.0, 0.0)[None]
        c4 = np.where(degrees == 4, 1.0, 0.0)[None]
        assert abs(acc1(c2, c4)) < 1e-12

    def test_degree_zero_excluded(self):
        u = random_series(8, seed=4)
        v = random_series(8, seed=5)
        base = acc1(u, v)
        cu, cv = u.copy(), v.copy()
        cu[0, 0] += 17.0
        cv[0, 0] -= 4.2
        assert abs(acc1(cu, cv) - base) < 1e-12

    def test_symmetry(self):
        u = random_series(8, seed=6)
        v = random_series(8, seed=7)
        assert acc1(u, v) == pytest.approx(acc1(v, u), abs=1e-15)

    def test_isotropic_side_rejected(self):
        iso = np.zeros((1, 45))
        iso[0, 0] = 1.0
        with pytest.raises(UndefinedCorrelationError):
            acc(iso, random_series(8, seed=8), 8)

    def test_degree_mismatch_rejected(self):
        with pytest.raises(InvalidArgumentError):
            acc(random_series(8, seed=9), random_series(4, seed=9), 8)


def reference_acc(u, v, max_degree=8):
    """ACC of one pair of coefficient vectors as computed before `acc` took
    coefficient matrices: a masked copy of each vector, one dot and two
    norms."""
    degrees, _ = sh_degree_order_table(max_degree)
    uu = u[degrees >= 2]
    vv = v[degrees >= 2]
    nu = np.linalg.norm(uu)
    nv = np.linalg.norm(vv)
    if nu == 0.0 or nv == 0.0:
        raise UndefinedCorrelationError("no coefficients of degree >= 2")
    return float(uu @ vv / (nu * nv))


class TestAccOfMatrices:
    @pytest.fixture()
    def pairs(self):
        rng = np.random.default_rng(11)
        pred = rng.standard_normal((500, 45)) * rng.uniform(1e-3, 1e3, (500, 1))
        truth = rng.standard_normal((500, 45))
        return pred, truth

    def test_bitwise_equal_to_per_row_acc(self, pairs):
        pred, truth = pairs
        expected = np.array([reference_acc(p, t) for p, t in zip(pred, truth)])
        assert acc(pred, truth, 8).tobytes() == expected.tobytes()
        # fit_sh_many returns a transposed (column-major) matrix
        assert acc(np.asfortranarray(pred), truth, 8).tobytes() == expected.tobytes()
        single = np.array([acc1(p[None], t[None]) for p, t in zip(pred, truth)])
        assert single.tobytes() == expected.tobytes()

    def test_row_without_anisotropy_is_named(self, pairs):
        pred, truth = pairs
        truth[7, 1:] = 0.0
        with pytest.raises(UndefinedCorrelationError):
            reference_acc(pred[7], truth[7])
        with pytest.raises(UndefinedCorrelationError, match="row 7"):
            acc(pred, truth, 8)

    def test_shape_mismatch_rejected(self, pairs):
        pred, truth = pairs
        with pytest.raises(InvalidArgumentError):
            acc(pred[:, :28], truth[:, :28], 8)
        with pytest.raises(InvalidArgumentError):
            acc(pred, truth[:10], 8)
