import numpy as np
import pytest

from deepshore import (
    DirectionSet,
    InvalidArgumentError,
    gauss_sphere_quadrature,
    generate_uniform_directions,
)
from deepshore import phantom, sphere
from deepshore.sphere import repulsion_energy


def min_symmetric_angle(dirs):
    """Smallest antipodally symmetrized pairwise angle, in radians."""
    v = dirs.vectors
    dots = np.abs(v @ v.T)
    np.fill_diagonal(dots, -1.0)
    return float(np.arccos(np.clip(dots.max(), -1.0, 1.0)))


class TestDirectionSet:
    def test_rejects_non_unit(self):
        with pytest.raises(InvalidArgumentError):
            DirectionSet([[1.0, 1.0, 0.0]])

    def test_rejects_empty(self):
        with pytest.raises(InvalidArgumentError):
            DirectionSet(np.zeros((0, 3)))

    def test_normalized_constructor(self):
        d = DirectionSet.normalized([[2.0, 0.0, 0.0], [0.0, 0.0, -3.0]])
        assert np.allclose(np.linalg.norm(d.vectors, axis=1), 1.0)


class TestGenerateUniformDirections:
    def test_single_direction_is_unit(self):
        d = generate_uniform_directions(1, seed=4, iterations=100)
        assert len(d) == 1
        assert abs(np.linalg.norm(d.vectors[0]) - 1.0) < 1e-12

    def test_zero_directions_rejected(self):
        with pytest.raises(InvalidArgumentError):
            generate_uniform_directions(0, seed=7, iterations=100)

    def test_improves_on_random_start(self):
        # oracle: the unoptimized seeded start (iterations=0)
        start = generate_uniform_directions(100, seed=7, iterations=0)
        done = generate_uniform_directions(100, seed=7, iterations=1000)
        assert repulsion_energy(done.vectors) < repulsion_energy(start.vectors)
        assert min_symmetric_angle(done) > min_symmetric_angle(start)

    def test_deterministic(self):
        a = generate_uniform_directions(30, seed=9, iterations=50)
        b = generate_uniform_directions(30, seed=9, iterations=50)
        assert np.array_equal(a.vectors, b.vectors)

    def test_energy_never_increases_over_iterations(self):
        budgets = [0, 5, 20, 80, 200]
        energies = [
            repulsion_energy(generate_uniform_directions(40, seed=2, iterations=k).vectors)
            for k in budgets
        ]
        assert all(e2 <= e1 + 1e-12 for e1, e2 in zip(energies, energies[1:]))


# Reference forms of the repulsion kernels: rows of (pairs, 3) arrays,
# np.linalg.norm(axis=1) and two np.add.at scatters. The kernels in
# `sphere` must round exactly like these.
def _ref_pair_terms(points):
    i, j = np.triu_indices(points.shape[0], k=1)
    return i, j, points[i] - points[j], points[i] + points[j]


def _ref_energy(points):
    if points.shape[0] < 2:
        return 0.0
    _, _, diff, summ = _ref_pair_terms(points)
    dm = np.linalg.norm(diff, axis=1)
    dp = np.linalg.norm(summ, axis=1)
    return float(np.sum(1.0 / dm) + np.sum(1.0 / dp))


def _ref_gradient(points):
    grad = np.zeros_like(points)
    i, j, diff, summ = _ref_pair_terms(points)
    dm = np.linalg.norm(diff, axis=1)[:, None]
    dp = np.linalg.norm(summ, axis=1)[:, None]
    gm = -diff / dm**3
    gp = -summ / dp**3
    np.add.at(grad, i, gm + gp)
    np.add.at(grad, j, -gm + gp)
    return grad


def _ref_jitter(points, rng, tol=1e-8):
    for _ in range(100):
        if points.shape[0] < 2:
            return points
        _, _, diff, summ = _ref_pair_terms(points)
        dmin = min(np.linalg.norm(diff, axis=1).min(),
                   np.linalg.norm(summ, axis=1).min())
        if dmin > tol:
            return points
        points = points + 1e-6 * rng.standard_normal(points.shape)
        points /= np.linalg.norm(points, axis=1, keepdims=True)
    raise AssertionError("reference jitter did not resolve the start")


def _ref_generate(n, seed, iterations):
    rng = np.random.default_rng(seed)
    points = rng.standard_normal((n, 3))
    points /= np.linalg.norm(points, axis=1, keepdims=True)
    points = _ref_jitter(points, rng)
    if n == 1:
        return points
    energy = _ref_energy(points)
    step = 0.1
    for _ in range(iterations):
        grad = _ref_gradient(points)
        grad -= np.sum(grad * points, axis=1, keepdims=True) * points
        moved = False
        for _ in range(40):
            cand = points - step * grad
            cand /= np.linalg.norm(cand, axis=1, keepdims=True)
            cand_energy = _ref_energy(cand)
            if cand_energy < energy:
                points, energy = cand, cand_energy
                step *= 1.5
                moved = True
                break
            step *= 0.5
        if not moved:
            break
    return points


_default_rng = np.random.default_rng


class _DegenerateStart:
    """A generator whose first draw puts point 1 on point 0 and point 3 on -point 2."""

    def __init__(self, seed):
        self._rng = _default_rng(seed)
        self._first = True

    def standard_normal(self, shape):
        draw = self._rng.standard_normal(shape)
        if self._first:
            self._first = False
            draw[1] = draw[0]
            draw[3] = -draw[2]
        return draw


def _random_points(n, seed):
    points = np.random.default_rng(seed).standard_normal((n, 3))
    return points / np.linalg.norm(points, axis=1, keepdims=True)


class TestRepulsionBitExact:
    @pytest.mark.parametrize("n", [2, 3, 17, 100])
    def test_kernels_match_reference(self, n):
        points = _random_points(n, seed=n)
        got = sphere._repulsion_gradient(points, sphere._pair_terms(points))
        assert got.tobytes() == _ref_gradient(points).tobytes()
        assert repulsion_energy(points).hex() == _ref_energy(points).hex()

    # the reference loop computes the pair terms of every accepted
    # configuration again for its gradient; the package reuses them
    @pytest.mark.parametrize("n, seed, iterations",
                             [(2, 0, 50), (3, 1, 100), (40, 2, 200), (100, 11, 150),
                              (100, 11, 500), (25, 1003, 200), (25, 4001, 200),
                              (60, 5, 1000)])
    def test_directions_match_reference(self, n, seed, iterations):
        got = generate_uniform_directions(n, seed, iterations).vectors
        assert got.tobytes() == _ref_generate(n, seed, iterations).tobytes()

    def test_degenerate_start_matches_reference(self, monkeypatch):
        start = _DegenerateStart(5).standard_normal((12, 3))
        start /= np.linalg.norm(start, axis=1, keepdims=True)
        _, _, diff, summ = _ref_pair_terms(start)
        assert not np.linalg.norm(diff, axis=1).all() and not np.linalg.norm(summ, axis=1).all()
        monkeypatch.setattr(sphere.np.random, "default_rng", _DegenerateStart)
        got = generate_uniform_directions(12, 5, 60).vectors
        assert got.tobytes() == _ref_generate(12, 5, 60).tobytes()
        assert np.isfinite(got).all()


def haar(seed, count=1):
    return sphere._haar_matrices(np.random.default_rng(seed), count)


class TestRandomRotation:
    def test_deterministic(self):
        assert haar(0, 3).tobytes() == haar(0, 3).tobytes()

    @pytest.mark.parametrize("seed", range(25))
    def test_group_membership(self, seed):
        m = haar(seed)[0]
        assert np.max(np.abs(m.T @ m - np.eye(3))) < 1e-12
        assert abs(np.linalg.det(m) - 1.0) < 1e-12

    def test_haar_uniformity_monte_carlo(self):
        # mean of a rotated fixed vector must shrink toward zero under Haar
        z = np.array([0.0, 0.0, 1.0])
        assert np.linalg.norm(np.mean(haar(0, 10_000) @ z, axis=0)) < 0.05


class TestRotateDirections:
    """``phantom._rotate``, which turns the compartment axes of the
    phantom's rotated copies."""

    def test_identity(self, dirs100):
        out = phantom._rotate(np.eye(3), dirs100.vectors)
        assert np.allclose(out, dirs100.vectors, atol=1e-15)

    def test_quarter_turn_about_x(self):
        r = np.array([[1.0, 0, 0], [0, 0, -1], [0, 1, 0]])  # +pi/2 about x
        out = phantom._rotate(r, np.array([0.0, 0.0, 1.0]))
        assert np.allclose(out, [0.0, -1.0, 0.0], atol=1e-12)

    def test_pairwise_angles_preserved(self, dirs100):
        before = dirs100.vectors @ dirs100.vectors.T
        after = phantom._rotate(haar(5)[0], dirs100.vectors)
        assert np.max(np.abs(before - after @ after.T)) < 1e-12


class TestGaussSphereQuadrature:
    def test_integrates_constant(self):
        quad = gauss_sphere_quadrature(4, 5)
        assert abs(np.ones(len(quad.nodes)) @ quad.weights - 4 * np.pi) < 1e-12

    def test_weights_positive_and_sum(self, quad_16_33):
        assert np.all(quad_16_33.weights > 0)
        assert abs(quad_16_33.weights.sum() - 4 * np.pi) < 1e-10

    def test_zero_counts_rejected(self):
        with pytest.raises(InvalidArgumentError):
            gauss_sphere_quadrature(0, 8)
        with pytest.raises(InvalidArgumentError):
            gauss_sphere_quadrature(8, 0)

    def test_y00_normalization(self, quad_16_33):
        y00 = np.full(len(quad_16_33.nodes), 1.0 / (2.0 * np.sqrt(np.pi)))
        assert abs((y00 * y00) @ quad_16_33.weights - 1.0) < 1e-10

    def test_y42_normalization(self, quad_16_33):
        # integrand degree 8 in both factors: exact for the 16 x 33 grid
        from deepshore.sh import eval_sh_basis, sh_degree_order_table

        basis = eval_sh_basis(quad_16_33.nodes, 4)
        degrees, orders = sh_degree_order_table(4)
        col = int(np.flatnonzero((degrees == 4) & (orders == 2))[0])
        y42 = basis[:, col]
        assert abs((y42 * y42) @ quad_16_33.weights - 1.0) < 1e-10
