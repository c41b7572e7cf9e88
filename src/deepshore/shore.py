"""Gaussian-Laguerre x spherical harmonic signal basis over q-space.

The basis expands a multi-shell diffusion signal as

    E(q) = sum_nlm c_nlm G_nl(q, zeta) Y_lm(u)

with radial functions

    G_nl(q, zeta) = kappa_nl(zeta) (q^2/zeta)^(l/2) exp(-q^2/(2 zeta))
                    * L_{(n-l)/2}^{(l+1/2)}(q^2/zeta)

where kappa_nl makes the radial family orthonormal under
``int_0^inf G_nl G_n'l q^2 dq = delta``. Valid indices are n even up to
the radial order, l even up to n, |m| <= l; a radial order of 6 yields
50 coefficients. The q radius is taken as sqrt(b): the scale parameter
zeta is optimized per dataset, so any fixed physical proportionality
constant between q^2 and b would be unidentifiable and is absorbed
into zeta.
"""

from dataclasses import dataclass

import numpy as np

from . import sh
from .errors import (
    InvalidArgumentError,
    OptimizationFailureError,
    SingularSystemError,
)
from .sh import _check_even, _check_finite_rows, _gammaln, _solve_regularized
from .sphere import DirectionSet

_MAX_ITERATIONS = 100
_GRADIENT_STEP = 1e-4
_TOLERANCE = 1e-6
_PROBE_SPREAD = 1.5


class QSpaceSamples:
    """A paired (b-value, direction) acquisition scheme.

    The q radius of each sample is derived as sqrt(b), so q^2 equals the
    b-value exactly.
    """

    def __init__(self, bvalues, directions):
        b = np.array(bvalues, dtype=float)
        if not isinstance(directions, DirectionSet):
            directions = DirectionSet(directions)
        if b.ndim != 1 or b.shape[0] != len(directions):
            raise InvalidArgumentError(
                f"got {b.shape} b-values for {len(directions)} directions"
            )
        if np.any(b < 0):
            raise InvalidArgumentError("b-values must be non-negative")
        b.flags.writeable = False
        self.bvalues = b
        self.directions = directions
        q = np.sqrt(b)
        q.flags.writeable = False
        self.q = q
        self._sh_bases = {}

    def __len__(self):
        return self.bvalues.shape[0]

    def subset(self, index):
        """Scheme restricted to the given sample indices / boolean mask."""
        idx = np.asarray(index)
        return QSpaceSamples(self.bvalues[idx], DirectionSet(self.directions.vectors[idx]))

    def _sh_basis(self, max_degree):
        """``sh.eval_sh_basis`` of the directions, evaluated once per degree."""
        if max_degree not in self._sh_bases:
            basis = sh.eval_sh_basis(self.directions, max_degree)
            basis.flags.writeable = False
            self._sh_bases[max_degree] = basis
        return self._sh_bases[max_degree]

    def shells(self):
        """Distinct b-values in ascending order."""
        return np.unique(self.bvalues)

    def __repr__(self):
        return f"QSpaceSamples(n={len(self)}, shells={self.shells().tolist()})"


@dataclass(frozen=True)
class ShoreFitConfig:
    """Fit settings: radial order and the two regularization constants."""

    radial_order: int = 6
    lambda_n: float = 1e-8
    lambda_l: float = 1e-8

    def __post_init__(self):
        _check_even(self.radial_order, "radial_order")
        if self.lambda_n < 0 or self.lambda_l < 0:
            raise InvalidArgumentError("regularization constants must be non-negative")


def shore_index_set(radial_order):
    """(n, l, m) triples in coefficient order: n, then l, then m ascending."""
    _check_even(radial_order, "radial_order")
    triples = []
    for n in range(0, radial_order + 1, 2):
        for l in range(0, n + 1, 2):
            for m in range(-l, l + 1):
                triples.append((n, l, m))
    return triples


def shore_coeff_count(radial_order):
    """Size of the index set; equals (N+2)(N+4)(2N+3)/24."""
    return len(shore_index_set(radial_order))


def laguerre(k, alpha, x):
    """Associated Laguerre polynomial L_k^(alpha)(x) by the stable recurrence.

    Vectorized over x.
    """
    if k < 0:
        raise InvalidArgumentError("polynomial degree must be >= 0")
    x = np.asarray(x, dtype=float)
    prev = np.ones_like(x)
    if k == 0:
        return prev
    cur = 1.0 + alpha - x
    for i in range(2, k + 1):
        prev, cur = cur, ((2 * i - 1 + alpha - x) * cur - (i - 1 + alpha) * prev) / i
    return cur


def _check_radial_index(n, l):
    if n < 0 or n % 2 != 0 or l < 0 or l % 2 != 0 or l > n:
        raise InvalidArgumentError(
            f"invalid radial index (n={n}, l={l}): need n, l even with 0 <= l <= n"
        )


def radial_normalization(n, l, zeta):
    """kappa_nl(zeta), fixed by radial orthonormality of the G_nl family."""
    _check_radial_index(n, l)
    if zeta <= 0:
        raise InvalidArgumentError("zeta must be positive")
    k = (n - l) // 2
    log_k2 = (
        np.log(2.0)
        + _gammaln(k + 1)
        - 1.5 * np.log(zeta)
        - _gammaln((n + l) / 2.0 + 1.5)
    )
    return float(np.exp(0.5 * log_k2))


def radial_basis_g(n, l, q, zeta):
    """Radial basis value G_nl(q, zeta); vectorized over q."""
    _check_radial_index(n, l)
    if zeta <= 0:
        raise InvalidArgumentError("zeta must be positive")
    q = np.asarray(q, dtype=float)
    x = q**2 / zeta
    kappa = radial_normalization(n, l, zeta)
    value = kappa * x ** (l / 2.0) * np.exp(-x / 2.0) * laguerre((n - l) // 2, l + 0.5, x)
    return value if value.ndim else float(value)


def shore_design_matrix(samples, radial_order, zeta):
    """Design matrix with one row per sample and one column per (n, l, m).

    The angular part does not depend on zeta; the scheme keeps it, so a
    scale search evaluates it once. A scale so small that the radial
    functions overflow is rejected like a non-positive one.
    """
    if not zeta > 0 or not np.isfinite(zeta):
        raise InvalidArgumentError(f"zeta must be positive and finite, got {zeta}")
    triples = shore_index_set(radial_order)
    sh_basis = samples._sh_basis(radial_order)
    sh_degrees, sh_orders = sh.sh_degree_order_table(radial_order)
    sh_col = {(l, m): i for i, (l, m) in enumerate(zip(sh_degrees, sh_orders))}

    matrix = np.empty((len(samples), len(triples)))
    radial_cache = {}
    with np.errstate(over="ignore", invalid="ignore"):
        for col, (n, l, m) in enumerate(triples):
            if (n, l) not in radial_cache:
                radial_cache[(n, l)] = radial_basis_g(n, l, samples.q, zeta)
            matrix[:, col] = radial_cache[(n, l)] * sh_basis[:, sh_col[(l, m)]]
    if not np.isfinite(matrix).all():
        raise InvalidArgumentError(f"SHORE design matrix is not finite at zeta={zeta:g}")
    return matrix


def _penalty_diag(cfg):
    triples = shore_index_set(cfg.radial_order)
    n = np.array([t[0] for t in triples], dtype=float)
    l = np.array([t[1] for t in triples], dtype=float)
    diag = cfg.lambda_n * (n * (n + 1)) ** 2 + cfg.lambda_l * (l * (l + 1)) ** 2
    return diag if diag.any() else None


def fit_shore_many(signals, samples, cfg, zeta):
    """Fit one series per row of `signals`; returns the coefficient matrix."""
    signals = np.asarray(signals, dtype=float)
    if signals.ndim != 2 or signals.shape[1] != len(samples):
        raise InvalidArgumentError("signals must have shape (n_voxels, n_samples)")
    _check_finite_rows(signals, "signal")
    design = shore_design_matrix(samples, cfg.radial_order, zeta)
    return _solve_regularized(design, _penalty_diag(cfg), signals.T).T


def default_zeta0(samples):
    """Dimensionally sensible starting scale: median b-value over 8."""
    start = float(np.median(samples.bvalues)) / 8.0
    if start <= 0:
        raise InvalidArgumentError("median b-value must be positive to seed zeta")
    return start


def _signal_factor(signals):
    """The triangular factor R of the signals' QR factorization, of shape
    (min(n_voxels, n_samples), n_samples), computed on one BLAS thread.

    RᵀR equals SᵀS, so refitting R's rows leaves the same sum of squared
    residuals as refitting the signals' (`_mean_refit_residual`).
    """
    with sh.one_blas_thread():
        return np.linalg.qr(signals, mode="r")


def _mean_refit_residual(factor, design, penalty, count):
    """Mean squared residual of refitting, on `design`, the `count` signal
    values whose `_signal_factor` is `factor`.

    For any fit linear in the signals, ‖(H − I)Sᵀ‖ = ‖(H − I)Rᵀ‖ with H
    the regularized hat matrix, so the squared residual sums over R's few
    rows in place of the signals' many.
    """
    with sh.one_blas_thread():
        residual = design @ _solve_regularized(design, penalty, factor.T)
    residual -= factor.T
    residual *= residual
    return float(np.sum(residual) / count)


def optimize_zeta(signals, samples, cfg, zeta0):
    """Data-optimized scale: minimize the mean squared refit residual.

    Every objective evaluation refits all coefficients at the candidate
    scale. It refits the rows of the signals' triangular QR factor R
    (`_signal_factor`), at most n_samples of them, in place of the
    signals: the mean residual is the same in exact arithmetic and
    within 1e-10 relative in floating point. Every product, QR and solve
    runs on one BLAS thread, so the scale does not depend on the thread
    count. A small deterministic probe grid around `zeta0` (out to 1.5
    e-folds either way) picks the starting point, then the search runs
    over log(zeta) with a quasi-Newton (secant curvature) update,
    central-difference gradients of step 1e-4 in log zeta, and a
    backtracking line search that only ever accepts descent. The
    returned scale therefore never has a worse objective than `zeta0`.
    The gradient and curvature at an accepted point feed the secant
    update and are reused as the next iteration's, so no scale is
    evaluated twice. The local phase stops when the log-scale step
    drops below 1e-6 or after 100 iterations. Every voxel takes part.
    A solver refusal ends the search with OptimizationFailureError,
    whose message names the refusal.

    The step that stops the search on the 1e-6 tolerance builds no
    gradient at its point, which nothing would use. So a non-finite
    objective at that point plus or minus the gradient step, which would
    raise OptimizationFailureError there, goes unnoticed, and the search
    returns its best scale.

    Parameters
    ----------
    signals : array_like, shape (n_voxels, n_samples)
        One signal per row; a single 1-D signal is also accepted.

    Returns
    -------
    float
        The optimized scale, strictly positive.
    """
    signals = np.atleast_2d(np.asarray(signals, dtype=float))
    if signals.size == 0:
        raise InvalidArgumentError("need at least one signal to optimize zeta")
    if signals.shape[1] != len(samples):
        raise InvalidArgumentError("signal length does not match sample count")
    if not zeta0 > 0 or not np.isfinite(zeta0):
        raise InvalidArgumentError(f"zeta0 must be positive and finite, got {zeta0}")

    factor = _signal_factor(signals)
    penalty = _penalty_diag(cfg)
    last_valid = [None, None]

    def objective(log_zeta):
        cause = ""
        try:
            design = shore_design_matrix(samples, cfg.radial_order, float(np.exp(log_zeta)))
            value = _mean_refit_residual(factor, design, penalty, signals.size)
        except (SingularSystemError, ValueError, np.linalg.LinAlgError) as exc:
            # solver refusals and a non-finite design or data count as
            # a non-finite objective
            value, cause = np.inf, f": {exc}"
        if not np.isfinite(value):
            raise OptimizationFailureError(
                f"objective not finite at zeta={np.exp(log_zeta):.6g}{cause}",
                zeta=last_valid[0], objective=last_valid[1],
            )
        last_valid[0], last_valid[1] = float(np.exp(log_zeta)), value
        return value

    t = float(np.log(zeta0))
    f = objective(t)
    best_t, best_f = t, f
    # the refit residual can be nearly flat in zeta with shallow local
    # bumps; a coarse bracket around the start picks the right basin
    for step_count in (1, 2, 3, 4):
        offset = _PROBE_SPREAD * step_count / 4.0
        for signed in (-offset, offset):
            f_probe = objective(t + signed)
            if f_probe < best_f:
                best_t, best_f = t + signed, f_probe
    t, f = best_t, best_f
    curvature = None

    def gradient(point, value):
        f_plus = objective(point + _GRADIENT_STEP)
        f_minus = objective(point - _GRADIENT_STEP)
        g = (f_plus - f_minus) / (2.0 * _GRADIENT_STEP)
        # second difference doubles as a free curvature estimate
        h = (f_plus - 2.0 * value + f_minus) / _GRADIENT_STEP**2
        return g, h

    slope = None  # (g, h) at t, carried over from the previous iteration
    for _ in range(_MAX_ITERATIONS):
        g, h = slope if slope is not None else gradient(t, f)
        if g == 0.0:
            break
        scale = curvature if curvature is not None and curvature > 0 else None
        if scale is None:
            scale = h if h > 0 else abs(g)
        step = -g / scale
        # keep single steps within one e-fold of scale change
        step = float(np.clip(step, -1.0, 1.0))

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
            break
        s = t_new - t
        if f_new < best_f:
            best_t, best_f = t_new, f_new
        if abs(s) < _TOLERANCE:
            break
        slope = gradient(t_new, f_new)
        y = slope[0] - g
        if s * y > 1e-16:
            curvature = y / s
        t, f = t_new, f_new

    return float(np.exp(best_t))

