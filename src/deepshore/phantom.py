"""Synthetic multi-shell diffusion data with paired ground-truth FODs.

Voxels are mixtures of one to three Gaussian tensor compartments; the
matching orientation distribution is a Watson mixture projected onto
even spherical harmonics. Each source voxel is augmented with jointly
rotated copies: the rotation is applied to the compartment orientations
and both the signal and the FOD are regenerated from the rotated model,
keeping the pair exactly consistent. Rows that share a source voxel
carry one block id so cross-validation can split at the source level.
"""

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidArgumentError
from .sh import _check_finite_rows, eval_sh_basis, sh_coeff_count
from .shore import QSpaceSamples
from .sphere import (
    DirectionSet,
    _haar_matrices,
    _unit,
    gauss_sphere_quadrature,
    generate_uniform_directions,
)

_FRACTION_TOL = 1e-9
# rows per pass of the FOD projection. Each (rows, nodes) temporary stays
# near 200 kB, in cache and in heap memory that the allocator reuses; the
# 2.6 MB temporaries of a whole 101-row block went back to the system and
# were page-faulted in again on every block
_FOD_ROWS = 8
# every compartment's (axial, radial, radial) diffusivities in mm^2/s,
# ex-vivo-scaled white matter: the shell defaults span the ex-vivo range,
# where tissue diffusivity is roughly a third of in-vivo
EIGENVALUES = (0.57e-3, 0.1e-3, 0.1e-3)
# range of the angle in degrees between the first fiber and each other one
CROSSING_ANGLE_RANGE = (30.0, 90.0)
# range of the raw fraction draws, which are then normalized to sum to 1
FRACTION_RANGE = (0.3, 1.0)


def _cross(a, b):
    """``np.cross`` along the last axis: the same products and differences,
    without its per-call axis handling, so the result is bitwise equal."""
    a0, a1, a2 = np.moveaxis(a, -1, 0)
    b0, b1, b2 = np.moveaxis(b, -1, 0)
    return np.stack([a1 * b2 - a2 * b1, a2 * b0 - a0 * b2, a0 * b1 - a1 * b0], axis=-1)


def _tensors(axes, eigenvalues):
    """Diffusion tensors (..., 3, 3) of unit axes (..., 3) and their
    (axial, radial, radial) eigenvalues (..., 3), each with a
    deterministic transverse frame."""
    helper = np.where((np.abs(axes[..., 0]) < 0.9)[..., None],
                      [1.0, 0.0, 0.0], [0.0, 1.0, 0.0])
    e2 = _unit(_cross(axes, helper))
    e3 = _cross(axes, e2)
    terms = [eigenvalues[..., k, None, None] * (e[..., :, None] * e[..., None, :])
             for k, e in enumerate((axes, e2, e3))]
    return terms[0] + terms[1] + terms[2]


def _rotate(matrices, axes):
    """``matrix @ axis`` for matrices (..., 3, 3) and axes (..., 3), one
    BLAS gemv each."""
    return np.matmul(matrices, axes[..., None])[..., 0]


@dataclass(frozen=True)
class PhantomConfig:
    shell_bvalues: tuple = (3000.0, 6000.0, 9000.0, 12000.0)
    directions_per_shell: int = 25
    kappa_watson: float = 20.0
    snr: float = 30.0  # math.inf for noiseless data
    n_voxels: int = 10
    rotations_per_voxel: int = 100
    max_fibers: int = 3
    sh_order: int = 8
    seed: int = 0

    def __post_init__(self):
        if len(self.shell_bvalues) == 0:
            raise InvalidArgumentError("need at least one shell")
        if self.n_voxels < 1:
            raise InvalidArgumentError("n_voxels must be >= 1")
        if self.rotations_per_voxel < 0:
            raise InvalidArgumentError(
                f"rotations_per_voxel must be >= 0, got {self.rotations_per_voxel}"
            )
        if not (self.kappa_watson > 0 and self.snr > 0):
            raise InvalidArgumentError(
                f"kappa_watson and snr must be positive, got {self.kappa_watson} and {self.snr}")
        if not 1 <= self.max_fibers <= 3:
            raise InvalidArgumentError("max_fibers must be 1..3")
        if self.seed < 0:
            raise InvalidArgumentError(f"seed must be >= 0, got {self.seed}")


def _signals(axes, eigenvalues, fractions, samples):
    """Multi-tensor forward model, normalized to 1 at b = 0, of rows of
    compartments that differ only in their unit axes (rows, C, 3); the
    eigenvalues (C, 3) and fractions (C,) are shared.

    Row r holds S_i = sum_c f_c exp(-b_i g_i' D_rc g_i); the fractions must
    sum to 1.
    """
    if abs(fractions.sum() - 1.0) > _FRACTION_TOL:
        raise InvalidArgumentError(
            f"compartment fractions must sum to 1, got {fractions.sum():.12f}"
        )
    g = samples.directions.vectors
    tensors = _tensors(axes, eigenvalues).reshape(-1, 3, 3)
    # per tensor, the same sums as einsum("ij,jk,ik->i", g, tensor, g)
    quad_form = np.einsum("ij,vjk,ik->vi", g, tensors, g).reshape(*axes.shape[:2], -1)
    signal = np.zeros((axes.shape[0], len(samples)))
    for c, fraction in enumerate(fractions):
        signal += fraction * np.exp(-samples.bvalues * quad_form[:, c])
    return signal


def watson_density(points, mean_axis, kappa):
    """Antipodally symmetric Watson density, unit integral over the sphere.

    A stack of axes (..., 3) gives one density per axis, (..., points).
    """
    mean_axis = _unit(np.asarray(mean_axis, dtype=float))
    t = np.matmul(points, mean_axis[..., None])[..., 0]
    return _watson_norm(kappa) * np.exp(kappa * t * t)


@functools.cache
def _watson_norm(kappa):
    """1 / (4 pi 1F1(1/2; 3/2; kappa)), which gives the Watson density unit
    integral. scipy is imported here, so only the phantom generator loads it."""
    from scipy.special import hyp1f1

    return 1.0 / (4.0 * np.pi * hyp1f1(0.5, 1.5, kappa))


class FodProjector:
    """Quadrature projection of Watson mixtures onto even harmonics, with
    the basis cached. A mixture integrates to 1 and is antipodally
    symmetric, so its odd-degree terms, which the basis leaves out, are
    zero."""

    def __init__(self, quad, max_degree):
        self.quad = quad
        self._weighted_basis = eval_sh_basis(quad.nodes, max_degree).T * quad.weights

    def project(self, axes, fractions, kappa):
        """Coefficients (rows, coeffs) of the Watson mixtures of rows of
        compartments that differ only in their unit axes (rows, C, 3); the
        fractions (C,) and the concentration `kappa` are shared."""
        nodes = self.quad.nodes.vectors
        coeffs = np.empty((len(axes), len(self._weighted_basis)))
        for start in range(0, len(axes), _FOD_ROWS):
            chunk = axes[start:start + _FOD_ROWS]
            density = np.zeros((len(chunk), len(nodes)))
            for c, fraction in enumerate(fractions):
                density += fraction * watson_density(nodes, chunk[:, c], kappa)
            coeffs[start:start + len(chunk)] = np.matmul(
                self._weighted_basis, density[:, :, None])[:, :, 0]
        return coeffs


def _rician(values, snr, seeds):
    """Magnitude-MRI noise on each row: sqrt((v + n1)^2 + n2^2) with
    sigma = 1/snr, both noise draws from a generator seeded by seeds[k]
    for row k. An infinite snr returns a copy of the values."""
    if snr <= 0:
        raise InvalidArgumentError("snr must be positive")
    if math.isinf(snr):
        return values.copy()
    sigma = 1.0 / snr
    n1 = np.empty_like(values)
    n2 = np.empty_like(values)
    for row, seed in enumerate(seeds):
        rng = np.random.default_rng(seed)
        n1[row] = rng.standard_normal(values.shape[1:])
        n2[row] = rng.standard_normal(values.shape[1:])
    return np.sqrt((values + n1 * sigma) ** 2 + (n2 * sigma) ** 2)


def build_acquisition(cfg):
    """Repulsion-spread directions per shell, concatenated shell by shell."""
    bvalues = []
    vectors = []
    for shell_index, b in enumerate(cfg.shell_bvalues):
        dirs = generate_uniform_directions(
            cfg.directions_per_shell, seed=1000 * (cfg.seed + 1) + shell_index,
            iterations=200,
        )
        vectors.append(dirs.vectors)
        bvalues.append(np.full(cfg.directions_per_shell, float(b)))
    return QSpaceSamples(np.concatenate(bvalues), DirectionSet(np.vstack(vectors)))


@dataclass
class PhantomDataset:
    """Signals, acquisition scheme, ground-truth FODs and block grouping."""

    signals: np.ndarray            # (rows, samples)
    samples: QSpaceSamples
    fod_coeffs: np.ndarray         # (rows, sh coefficients)
    sh_order: int
    block_ids: np.ndarray          # (rows,)
    config: PhantomConfig = field(repr=False, default=None)

    def __len__(self):
        return self.signals.shape[0]


def _draw_compartments(rng, cfg):
    """Unit axes (C, 3), eigenvalues (C, 3) and fractions (C,) of one to
    cfg.max_fibers compartments drawn from `rng`."""
    n_fibers = int(rng.integers(1, cfg.max_fibers + 1))
    first = rng.standard_normal(3)
    first /= np.linalg.norm(first)
    axes = [first]
    lo, hi = np.deg2rad(CROSSING_ANGLE_RANGE[0]), np.deg2rad(CROSSING_ANGLE_RANGE[1])
    for _ in range(n_fibers - 1):
        angle = rng.uniform(lo, hi)
        azimuth = rng.uniform(0.0, 2.0 * np.pi)
        helper = np.array([1.0, 0.0, 0.0]) if abs(first[0]) < 0.9 else np.array([0.0, 1.0, 0.0])
        u = np.cross(first, helper)
        u /= np.linalg.norm(u)
        v = np.cross(first, u)
        tilted = (
            np.cos(angle) * first
            + np.sin(angle) * (np.cos(azimuth) * u + np.sin(azimuth) * v)
        )
        axes.append(tilted / np.linalg.norm(tilted))
    raw = rng.uniform(FRACTION_RANGE[0], FRACTION_RANGE[1], size=n_fibers)
    fractions = raw / raw.sum()
    # nudge the rounding remainder into the first fraction so the sum is exact
    fractions[0] += 1.0 - fractions.sum()
    return _unit(np.array(axes)), np.tile(EIGENVALUES, (n_fibers, 1)), fractions


def generate_dataset(cfg):
    """Generate the phantom: base voxels plus jointly rotated copies.

    Every source voxel contributes a block of 1 + rotations_per_voxel
    rows sharing one block id: the source and its rotated copies.
    Per-voxel generator streams are spawned from the seed, so the output
    is deterministic and independent of generation order. Each stream
    draws the compartments, then all the block's quaternions, then one
    noise seed per row.

    A block is built with array operations over its rows, and its values
    are bitwise those of the generator one row and one compartment at a
    time (``tests/test_phantom.py::_ref_generate_dataset``) at any BLAS
    thread count. Elementwise arithmetic is batched as written. Every
    reduction that the per-row reference makes through BLAS stays the
    same call, once per row, by stacked ``np.matmul``: a vector norm or
    dot is one ddot, a matrix-vector product one gemv. Norms by
    ``norm(axis=1)``, summed squares or ``einsum("ij,ij->i")``, and one
    gemm in place of a block's gemvs, round differently.
    """
    projector = FodProjector(gauss_sphere_quadrature(40, 81), cfg.sh_order)
    samples = build_acquisition(cfg)
    streams = np.random.SeedSequence(cfg.seed).spawn(cfg.n_voxels)

    rows_per_block = 1 + cfg.rotations_per_voxel
    total = cfg.n_voxels * rows_per_block
    signals = np.empty((total, len(samples)))
    fods = np.empty((total, sh_coeff_count(cfg.sh_order)))

    for voxel, stream in enumerate(streams):
        rng = np.random.default_rng(stream)
        source, eigenvalues, fractions = _draw_compartments(rng, cfg)
        rotations = _haar_matrices(rng, cfg.rotations_per_voxel)
        noise_seeds = rng.integers(0, 2**63 - 1, size=rows_per_block).tolist()
        # row axes (rows, C, 3): the source's, then each rotated copy's
        axes = np.concatenate([source[None], _unit(_rotate(rotations[:, None], source))])
        block = slice(voxel * rows_per_block, (voxel + 1) * rows_per_block)
        clean = _signals(axes, eigenvalues, fractions, samples)
        signals[block] = _rician(clean, cfg.snr, noise_seeds)
        # a kappa too large for the Watson normalization is reported below,
        # once, in place of numpy's overflow warnings
        with np.errstate(over="ignore", invalid="ignore"):
            fods[block] = projector.project(axes, fractions, cfg.kappa_watson)
    _check_finite_rows(fods, f"FOD at kappa_watson={cfg.kappa_watson:g}")
    block_ids = np.repeat(np.arange(cfg.n_voxels), rows_per_block)
    return PhantomDataset(signals, samples, fods, cfg.sh_order, block_ids, cfg)
