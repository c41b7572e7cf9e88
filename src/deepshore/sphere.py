"""Direction sets, rotations and quadrature grids on the unit sphere.

Gradient direction sets are generated by minimizing an antipodally
symmetrized Coulomb energy, matching the diffusion-MRI convention that
+g and -g probe the same signal.
"""

import functools

import numpy as np

from .errors import InvalidArgumentError

_UNIT_TOL = 1e-12


class DirectionSet:
    """An ordered, non-empty set of unit 3-vectors.

    Parameters
    ----------
    vectors : array_like, shape (n, 3)
        Unit vectors; every row must have Euclidean norm 1 within 1e-12.
    """

    def __init__(self, vectors):
        v = np.array(vectors, dtype=float)
        if v.ndim != 2 or v.shape[1] != 3:
            raise InvalidArgumentError(f"expected shape (n, 3), got {v.shape}")
        if v.shape[0] == 0:
            raise InvalidArgumentError("direction set must be non-empty")
        norms = np.linalg.norm(v, axis=1)
        bad = np.abs(norms - 1.0) > _UNIT_TOL
        if np.any(bad):
            raise InvalidArgumentError(
                f"{int(bad.sum())} direction(s) are not unit vectors "
                f"(worst |norm-1| = {np.abs(norms - 1.0).max():.3e})"
            )
        v.flags.writeable = False
        self.vectors = v

    @classmethod
    def normalized(cls, vectors):
        """Build a set from arbitrary non-zero vectors by normalizing rows."""
        v = np.asarray(vectors, dtype=float)
        norms = np.linalg.norm(v, axis=-1, keepdims=True)
        if np.any(norms == 0.0):
            raise InvalidArgumentError("cannot normalize a zero vector")
        return cls(v / norms)

    def __len__(self):
        return self.vectors.shape[0]

    def __repr__(self):
        return f"DirectionSet(n={len(self)})"


def _row_dots(a, b):
    """Dot product of each pair of vectors along the last axis of `a` and
    `b`, each through one BLAS ddot, as ``np.dot`` and ``np.linalg.norm``
    compute a single vector's, so a stack rounds like its vectors one at
    a time. Each vector must have unit stride: BLAS can round the dot of
    a strided vector differently."""
    return np.matmul(a[..., None, :], b[..., :, None])[..., 0, 0]


def _unit(vectors):
    """Each vector along the last axis divided by its norm, rounded as
    ``v / np.linalg.norm(v)`` rounds one vector."""
    return vectors / np.sqrt(_row_dots(vectors, vectors))[..., None]


def _check_rotations(matrices):
    """Raise unless every matrix of the stack (..., 3, 3) is orthonormal
    with determinant +1."""
    gram = np.swapaxes(matrices, -1, -2) @ matrices
    if not np.all(np.abs(gram - np.eye(3)) <= _UNIT_TOL):
        raise InvalidArgumentError("matrix is not orthonormal")
    if not np.all(np.abs(np.linalg.det(matrices) - 1.0) <= _UNIT_TOL):
        raise InvalidArgumentError("matrix is not a proper rotation (det != +1)")


class SphereQuadrature:
    """Nodes and positive weights integrating functions over the sphere."""

    def __init__(self, nodes, weights):
        w = np.array(weights, dtype=float)
        if not isinstance(nodes, DirectionSet):
            nodes = DirectionSet(nodes)
        if w.shape != (len(nodes),):
            raise InvalidArgumentError("weights must match node count")
        if np.any(w <= 0.0):
            raise InvalidArgumentError("quadrature weights must be positive")
        if abs(w.sum() - 4.0 * np.pi) > 1e-10:
            raise InvalidArgumentError(
                f"weights must sum to 4*pi, got {w.sum():.12f}"
            )
        w.flags.writeable = False
        self.nodes = nodes
        self.weights = w


@functools.cache
def _pair_indices(n):
    """(i, j) of all i < j pairs of n points, and the two concatenated."""
    i, j = np.triu_indices(n, k=1)
    ij = np.concatenate([i, j])
    for index in (i, j, ij):
        index.flags.writeable = False
    return i, j, ij


def _norms(vectors):
    """Column norms of a (3, m) array.

    Adds the squares left to right, as ``np.linalg.norm(axis=1)`` does on
    the (m, 3) transpose, so both round identically.
    """
    x, y, z = vectors
    return np.sqrt((x * x + y * y) + z * z)


def _pair_terms(points):
    """Differences and sums of all i < j pairs as (3, pairs) arrays, with norms."""
    i, j, _ = _pair_indices(points.shape[0])
    coords = np.ascontiguousarray(points.T)
    first = coords.take(i, axis=1)
    second = coords.take(j, axis=1)
    diff = first - second
    summ = first + second
    return diff, summ, _norms(diff), _norms(summ)


def _energy(terms):
    """Repulsion energy from the ``_pair_terms`` of a configuration."""
    _, _, dm, dp = terms
    return float(np.sum(1.0 / dm) + np.sum(1.0 / dp))


def repulsion_energy(points):
    """Antipodally symmetrized Coulomb energy of a point configuration."""
    points = np.asarray(points, dtype=float)
    if points.shape[0] < 2:
        return 0.0
    return _energy(_pair_terms(points))


def _repulsion_gradient(points, terms):
    """Energy gradient at `points`, whose ``_pair_terms`` are `terms`."""
    n = points.shape[0]
    _, _, ij = _pair_indices(n)
    diff, summ, dm, dp = terms
    gm = -diff / dm**3
    gp = -summ / dp**3
    # the terms of point i of each pair, then those of point j; one
    # bincount per coordinate adds them in that order
    terms = np.concatenate([gm + gp, -gm + gp], axis=1)
    grad = np.empty_like(points)
    for axis in range(3):
        grad[:, axis] = np.bincount(ij, weights=terms[axis], minlength=n)
    return grad


def _jitter_degenerate(points, rng, tol=1e-8):
    """Perturb configurations with (near-)coincident or antipodal points."""
    for _ in range(100):
        if points.shape[0] < 2:
            return points
        _, _, dm, dp = _pair_terms(points)
        dmin = min(dm.min(), dp.min())
        if dmin > tol:
            return points
        points = points + 1e-6 * rng.standard_normal(points.shape)
        points /= np.linalg.norm(points, axis=1, keepdims=True)
    raise InvalidArgumentError("could not resolve a degenerate start configuration")


def generate_uniform_directions(n, seed, iterations=1000):
    """Spread n directions over the sphere by electrostatic repulsion.

    Starts from a seeded random configuration and runs projected gradient
    descent with step halving on the pairwise energy
    ``sum_{i<j} 1/|d_i - d_j| + 1/|d_i + d_j|``; the antipodal term makes
    +d and -d equivalent. Energy never increases over iterations, and the
    result is deterministic for fixed (n, seed, iterations).

    Parameters
    ----------
    n : int
        Number of directions, >= 1.
    seed : int
        Seed for the starting configuration.
    iterations : int
        Maximum descent iterations; 0 returns the seeded random start.

    Returns
    -------
    DirectionSet
    """
    if n < 1:
        raise InvalidArgumentError("need at least one direction")
    if iterations < 0:
        raise InvalidArgumentError("iterations must be >= 0")
    rng = np.random.default_rng(seed)
    points = rng.standard_normal((n, 3))
    points /= np.linalg.norm(points, axis=1, keepdims=True)
    points = _jitter_degenerate(points, rng)
    if n == 1:
        return DirectionSet(points)

    # the pair terms of an accepted candidate serve the next gradient
    terms = _pair_terms(points)
    energy = _energy(terms)
    step = 0.1
    for _ in range(iterations):
        grad = _repulsion_gradient(points, terms)
        # project onto the tangent plane of each point
        grad -= np.sum(grad * points, axis=1, keepdims=True) * points
        moved = False
        for _ in range(40):
            cand = points - step * grad
            cand /= np.linalg.norm(cand, axis=1, keepdims=True)
            cand_terms = _pair_terms(cand)
            cand_energy = _energy(cand_terms)
            if cand_energy < energy:
                points, terms, energy = cand, cand_terms, cand_energy
                step *= 1.5
                moved = True
                break
            step *= 0.5
        if not moved:
            break
    return DirectionSet(points)


def _rotation_from_quaternion(q):
    """Rotation matrices (..., 3, 3) of unit quaternions (..., 4)."""
    w, x, y, z = np.moveaxis(q, -1, 0)
    rows = [
        [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
        [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
        [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)],
    ]
    return np.stack([np.stack(row, axis=-1) for row in rows], axis=-2)


def _haar_matrices(rng, count):
    """Draw `count` Haar-uniform rotation matrices (count, 3, 3) from `rng`.

    Each is the rotation of a unit quaternion, four standard normal draws
    divided by their norm, which is uniform on SO(3). The quaternions come
    from one ``rng.standard_normal((count, 4))``, which takes the same
    values from the stream as `count` draws of four. Every matrix is
    checked to be a proper rotation.
    """
    q = rng.standard_normal((count, 4))
    matrices = _rotation_from_quaternion(_unit(q))
    _check_rotations(matrices)
    return matrices


def gauss_sphere_quadrature(n_polar, n_azimuth):
    """Product quadrature: Gauss-Legendre in cos(theta) x uniform azimuth.

    Exactly integrates spherical polynomials with polar degree up to
    2*n_polar - 1 and azimuthal frequency up to n_azimuth - 1.

    Parameters
    ----------
    n_polar, n_azimuth : int
        Node counts along each factor, both >= 1.

    Returns
    -------
    SphereQuadrature
    """
    if n_polar < 1 or n_azimuth < 1:
        raise InvalidArgumentError("node counts must be >= 1")
    x, wx = np.polynomial.legendre.leggauss(n_polar)
    phi = 2.0 * np.pi * np.arange(n_azimuth) / n_azimuth

    ct, pp = np.meshgrid(x, phi, indexing="ij")
    st = np.sqrt(1.0 - ct**2)
    nodes = np.stack(
        [st * np.cos(pp), st * np.sin(pp), ct], axis=-1
    ).reshape(-1, 3)
    nodes /= np.linalg.norm(nodes, axis=1, keepdims=True)
    weights = np.repeat(wx, n_azimuth) * (2.0 * np.pi / n_azimuth)
    return SphereQuadrature(DirectionSet(nodes), weights)
