"""Real even-order spherical harmonic basis and the angular correlation metric.

Basis convention (fixed throughout the package): orthonormal real
harmonics over even degrees only, ordered by ascending degree l and,
within each degree, by order m from -l to +l. For m > 0 the function is
sqrt(2) times the real part of the complex harmonic, for m < 0 sqrt(2)
times the imaginary part of the |m| harmonic, and for m = 0 the complex
harmonic itself (which is already real).
"""

import contextlib
import ctypes
import functools

import numpy as np
from scipy.linalg import cho_factor, cho_solve
from scipy.special import gammaln, lpmv

from .errors import (
    InvalidArgumentError,
    SingularSystemError,
    UndefinedCorrelationError,
)
from .sphere import _row_dots

CONDITION_LIMIT = 1e12


def _check_even(value, name):
    if value < 0 or value % 2 != 0:
        raise InvalidArgumentError(f"{name} must be a non-negative even integer, got {value}")


def sh_coeff_count(max_degree):
    """Number of real even-degree harmonics up to max_degree: (L+1)(L+2)/2."""
    _check_even(max_degree, "max_degree")
    return (max_degree + 1) * (max_degree + 2) // 2


def sh_degree_order_table(max_degree):
    """Arrays of degree l and order m for each basis column, in basis order."""
    _check_even(max_degree, "max_degree")
    degrees = []
    orders = []
    for l in range(0, max_degree + 1, 2):
        for m in range(-l, l + 1):
            degrees.append(l)
            orders.append(m)
    return np.array(degrees), np.array(orders)


class ShSeries:
    """Coefficients of a real, even-degree spherical harmonic expansion."""

    def __init__(self, max_degree, coeffs):
        _check_even(max_degree, "max_degree")
        c = np.array(coeffs, dtype=float)
        expected = sh_coeff_count(max_degree)
        if c.shape != (expected,):
            raise InvalidArgumentError(
                f"expected {expected} coefficients for degree {max_degree}, got shape {c.shape}"
            )
        c.flags.writeable = False
        self.max_degree = max_degree
        self.coeffs = c

    def __repr__(self):
        return f"ShSeries(max_degree={self.max_degree})"


def eval_sh_basis(dirs, max_degree):
    """Evaluate the real even-degree basis at each direction.

    Returns the design matrix with one row per direction and one column
    per (l, m) in basis order. Built from associated Legendre values
    (scipy's `lpmv`, Condon-Shortley phase included) with the orthonormal
    normalization, so the columns form an orthonormal family under the
    sphere's surface measure.
    """
    _check_even(max_degree, "max_degree")
    v = dirs.vectors
    cos_theta = np.clip(v[:, 2], -1.0, 1.0)
    phi = np.arctan2(v[:, 1], v[:, 0])

    cols = []
    for l in range(0, max_degree + 1, 2):
        for m in range(-l, l + 1):
            am = abs(m)
            norm = np.sqrt(
                (2 * l + 1) / (4.0 * np.pi)
                * np.exp(gammaln(l - am + 1) - gammaln(l + am + 1))
            )
            plm = lpmv(am, l, cos_theta)
            if m == 0:
                cols.append(norm * plm)
            elif m > 0:
                cols.append(np.sqrt(2.0) * norm * plm * np.cos(m * phi))
            else:
                cols.append(np.sqrt(2.0) * norm * plm * np.sin(am * phi))
    return np.stack(cols, axis=1)


@functools.cache
def _openblas_builds():
    """The loaded OpenBLAS libraries that export
    ``openblas_set_num_threads_local``: numpy's build, which serves
    ``matmul``, and scipy's, which serves ``cho_factor``/``cho_solve``."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            paths = {line.split()[-1] for line in fh if "openblas" in line}
    except OSError:
        return ()
    builds = (ctypes.CDLL(path) for path in sorted(paths) if ".so" in path)
    return tuple(lib for lib in builds if hasattr(lib, "openblas_set_num_threads_local"))


@contextlib.contextmanager
def one_blas_thread():
    """Run the block on one BLAS thread, then restore the caller's count.

    OpenBLAS may split a product over threads in an order that changes
    its last bits, so the solves pin their matrix products to one thread:
    the results then do not depend on the thread count. One-off fits pin
    their whole solve (see `shore.fit_shore_many`); the scale search's
    Cholesky solves run at the process's count, and the search then
    calls `_stop_blas_workers`. The pin nests.
    The setting is the library's, not the calling thread's, so concurrent
    callers would share it. Without a loaded OpenBLAS this does nothing.
    """
    builds = _openblas_builds()
    previous = [lib.openblas_set_num_threads_local(1) for lib in builds]
    try:
        yield
    finally:
        for lib, count in zip(builds, previous):
            lib.openblas_set_num_threads_local(count)


def _stop_blas_workers():
    """Stop the worker threads of the loaded OpenBLAS builds.

    After a call on several threads the workers spin for about 0.1 s
    waiting for more work, and meanwhile slow the products that follow.
    OpenBLAS starts them again at its next call on several threads.
    """
    for lib in _openblas_builds():
        if hasattr(lib, "blas_thread_shutdown_"):
            lib.blas_thread_shutdown_()


def _solve_regularized(design, penalty_diag, rhs):
    """Solve (X'X + s * diag(penalty)) c = X' rhs for one or many rhs columns.

    The penalty is scaled by the mean diagonal of X'X, which makes the
    regularization constants dimensionless: a constant of 1e-8 always
    means "1e-8 relative to the data term" regardless of how the basis
    normalization or the sampling scheme size the design columns.
    Without a penalty the normal equations must be well conditioned
    (condition number at most CONDITION_LIMIT).

    The products X'X and X' rhs run on one BLAS thread, because their
    bits depend on the thread count. The Cholesky factor and the
    triangular solves run at the caller's count: they split the rhs
    columns over threads and run every column through the same kernel,
    so their bits do not depend on it.
    """
    with one_blas_thread():
        normal = design.T @ design
        xty = design.T @ rhs
    if penalty_diag is None:
        cond = np.linalg.cond(normal)
        if not np.isfinite(cond) or cond > CONDITION_LIMIT:
            raise SingularSystemError(
                f"normal equations condition {cond:.3e} exceeds {CONDITION_LIMIT:.0e}; "
                "add regularization or more samples"
            )
    else:
        normal = normal + float(np.mean(np.diag(normal))) * np.diag(penalty_diag)
    try:
        factor = cho_factor(normal)
    except np.linalg.LinAlgError as exc:
        raise SingularSystemError(f"normal equations not positive definite: {exc}") from exc
    return cho_solve(factor, xty)


def _check_finite_rows(values, what):
    """Reject a matrix with NaN or Inf entries, naming the first bad row."""
    bad = ~np.isfinite(values).all(axis=1)
    if bad.any():
        raise InvalidArgumentError(
            f"{what} row {int(np.argmax(bad))} holds NaN or Inf "
            f"({int(bad.sum())} of {bad.size} rows are not finite)"
        )


def fit_sh_many(values, dirs, max_degree):
    """Fit one series per row of `values`; returns the coefficient matrix.

    The whole solve runs on one BLAS thread, as in `shore.fit_shore_many`.
    """
    values = np.asarray(values, dtype=float)
    if values.ndim != 2 or values.shape[1] != len(dirs):
        raise InvalidArgumentError("values must have shape (n_series, n_directions)")
    _check_finite_rows(values, "values")
    with one_blas_thread():
        return _solve_regularized(eval_sh_basis(dirs, max_degree), None, values.T).T


def acc(u, v, max_degree=None):
    """Angular correlation coefficient of two expansions, in [-1, 1].

    Normalized inner product of the coefficients with the isotropic
    (degree-0) term excluded, so adding a constant to either function
    does not change the result. Both series must carry some anisotropic
    content or the correlation is undefined.

    `u` and `v` are two ShSeries. With `max_degree` they are instead two
    coefficient matrices holding one series of that degree per row, and
    the result holds the correlation of each row pair, bitwise equal to
    that of the rows taken one at a time as series.
    """
    if max_degree is None:
        if u.max_degree != v.max_degree:
            raise InvalidArgumentError(
                f"degree mismatch: {u.max_degree} vs {v.max_degree}"
            )
        return float(_row_acc(u.coeffs[None], v.coeffs[None], u.max_degree)[0])
    return _row_acc(np.asarray(u), np.asarray(v), max_degree)


def _row_acc(pred, truth, max_degree):
    """ACC of each row pair of two coefficient matrices. The rows are
    copied C-contiguous, because BLAS can round the dot of a strided row
    differently."""
    if pred.shape != truth.shape or pred.shape[1:] != (sh_coeff_count(max_degree),):
        raise InvalidArgumentError(
            f"coefficient shapes {pred.shape} and {truth.shape} do not fit degree {max_degree}"
        )
    aniso = sh_degree_order_table(max_degree)[0] >= 2
    u, v = (np.ascontiguousarray(m[:, aniso], dtype=float) for m in (pred, truth))
    nu, nv = np.sqrt(_row_dots(u, u)), np.sqrt(_row_dots(v, v))
    flat = (nu == 0.0) | (nv == 0.0)
    if flat.any():
        raise UndefinedCorrelationError(
            f"angular correlation undefined: row {int(np.argmax(flat))} has no "
            "coefficients of degree >= 2"
        )
    return _row_dots(u, v) / (nu * nv)
