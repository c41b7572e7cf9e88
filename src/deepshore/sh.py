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
import math

import numpy as np

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


# Cephes lgam's coefficients: Stirling's series (A) and the rational
# approximation on [2, 3) (B over C, leading 1 of C included)
_LGAM_A = (8.11614167470508450300e-4, -5.95061904284301438324e-4,
           7.93650340457716943945e-4, -2.77777777730099687205e-3,
           8.33333333333331927722e-2)
_LGAM_B = (-1.37825152569120859100e3, -3.88016315134637840924e4,
           -3.31612992738871184744e5, -1.16237097492762307383e6,
           -1.72173700820839662146e6, -8.53555664245765465627e5)
_LGAM_C = (1.0, -3.51815701436523470549e2, -1.70642106651881159223e4,
           -2.20528590553854454839e5, -1.13933444367982507207e6,
           -2.53252307177582951285e6, -2.01889141433532773231e6)
_LOG_SQRT_2PI = 0.91893853320467274178


def _horner(coeffs, x):
    """The polynomial with `coeffs`, highest power first, at x."""
    value = coeffs[0]
    for c in coeffs[1:]:
        value = value * x + c
    return value


def _gammaln(x):
    """log Gamma(x) of a scalar x > 0, as a float.

    A port of Cephes ``lgam`` (Moshier), which ``scipy.special.gammaln``
    runs, with the same operations in the same order, so the values are
    bitwise scipy's. Below 13 the argument is shifted into [2, 3) for a
    rational approximation, above it Stirling's series is summed.
    """
    x = float(x)
    if x < 13.0:
        z, p, u = 1.0, 0.0, x
        while u >= 3.0:
            p -= 1.0
            u = x + p
            z *= u
        while u < 2.0:
            z /= u
            p += 1.0
            u = x + p
        if u == 2.0:
            return math.log(z)
        p -= 2.0
        x = x + p
        return math.log(z) + x * _horner(_LGAM_B, x) / _horner(_LGAM_C, x)
    q = (x - 0.5) * math.log(x) - x + _LOG_SQRT_2PI
    if x > 1.0e8:
        return q
    p = 1.0 / (x * x)
    if x >= 1000.0:
        p = ((7.9365079365079365079365e-4 * p - 2.7777777777777777777778e-3) * p
             + 0.0833333333333333333333)
    else:
        p = _horner(_LGAM_A, p)
    return q + p / x


def _legendre_series(l, m, x):
    """P_l^m(x) by the terminating hypergeometric sum in 1 + x (Zhang & Jin's
    ``LPMV0``; DLMF 14.3.4, 15.2.4), for integers 0 <= m <= l."""
    c0 = 1.0
    if m != 0:
        v = float(l)
        rg = v * (v + m)
        for j in range(1, m):
            rg = rg * (v * v - j * j)
        xq = np.sqrt(1.0 - x * x)
        r0 = 1.0
        for j in range(1, m + 1):
            r0 = 0.5 * r0 * xq / j
        c0 = r0 * rg
    total = np.ones_like(x)
    r = 1.0
    for k in range(1, l - m + 1):
        r = 0.5 * r * (-l + m + k - 1.0) * (l + m + k) / (k * (k + m)) * (1.0 + x)
        total = total + r
    return (-1.0) ** l * c0 * total


def _legendre(l, m, x):
    """Associated Legendre function P_l^m(x), Condon-Shortley phase included,
    for integers 0 <= m <= l; vectorized over x in [-1, 1].

    A port of Zhang & Jin's ``LPMV`` (Computation of Special Functions,
    1996), which ``scipy.special.lpmv`` runs, with the same operations in
    the same order, so the values are bitwise scipy's: above degree 2 the
    sum gives degrees m and m + 1 and upward recursion in degree
    (DLMF 14.10.3) the rest.
    """
    if l <= 2 or l <= m:
        return _legendre_series(l, m, x)
    p0, p1 = _legendre_series(m, m, x), _legendre_series(m + 1, m, x)
    for v in range(m + 2, l + 1):
        p0, p1 = p1, ((2 * v - 1) * x * p1 - (v - 1 + m) * p0) / (v - m)
    return p1


def eval_sh_basis(dirs, max_degree):
    """Evaluate the real even-degree basis at each direction.

    Returns the design matrix with one row per direction and one column
    per (l, m) in basis order. Built from associated Legendre values
    (Condon-Shortley phase included) with the orthonormal normalization,
    so the columns form an orthonormal family under the sphere's surface
    measure.
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
                * np.exp(_gammaln(l - am + 1) - _gammaln(l + am + 1))
            )
            plm = _legendre(l, am, cos_theta)
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
    ``openblas_set_num_threads_local``. Every command but `phantom` loads
    only numpy's, which serves both ``matmul`` and the Cholesky solves
    (`_cholesky_solve`); scipy's is listed too where scipy was imported."""
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
    its last bits, so every SHORE/SH solve (`_solve_regularized`) and
    the scale search's QR and products run on one thread: the results
    then do not depend on the thread count. The pin nests and covers
    every loaded build, which in a command is numpy's alone: it serves
    the products and the solves.
    The setting is the library's, not the calling thread's, so concurrent
    callers would share it. Without a loaded OpenBLAS this does nothing.
    The block receives the count it replaced: the threads OpenBLAS
    resolved from OPENBLAS_NUM_THREADS or OMP_NUM_THREADS and the CPUs,
    or 1 without OpenBLAS or inside another pin.
    """
    builds = _openblas_builds()
    previous = [lib.openblas_set_num_threads_local(1) for lib in builds]
    try:
        yield max(previous, default=1)
    finally:
        for lib, count in zip(builds, previous):
            lib.openblas_set_num_threads_local(count)


def _solve_regularized(design, penalty_diag, rhs):
    """Solve (X'X + s * diag(penalty)) c = X' rhs for one or many rhs columns.

    The penalty is scaled by the mean diagonal of X'X, which makes the
    regularization constants dimensionless: a constant of 1e-8 always
    means "1e-8 relative to the data term" regardless of how the basis
    normalization or the sampling scheme size the design columns.
    Without a penalty the normal equations must be well conditioned
    (condition number at most CONDITION_LIMIT).

    The whole solve, products and Cholesky solve, runs on one BLAS
    thread, so its bits do not depend on the thread count.
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
        return _cholesky_solve(normal, xty)


@functools.cache
def _lapack_cholesky():
    """LAPACK's ``dpotrf`` and ``dpotrs`` with 64-bit integers, from the
    loaded OpenBLAS build that exports them (numpy's), or None."""
    for lib in _openblas_builds():
        if hasattr(lib, "scipy_dpotrf_64_") and hasattr(lib, "scipy_dpotrs_64_"):
            potrf, potrs = lib.scipy_dpotrf_64_, lib.scipy_dpotrs_64_
            break
    else:
        return None
    int64 = ctypes.POINTER(ctypes.c_int64)
    matrix = np.ctypeslib.ndpointer(np.float64, ndim=2, flags=("F_CONTIGUOUS", "WRITEABLE"))
    # uplo, n, (nrhs), a, lda, (b, ldb), info, then the length Fortran
    # passes for the string uplo
    potrf.argtypes = [ctypes.c_char_p, int64, matrix, int64, int64, ctypes.c_size_t]
    potrs.argtypes = [ctypes.c_char_p, int64, int64, matrix, int64, matrix, int64, int64,
                      ctypes.c_size_t]
    potrf.restype = potrs.restype = None
    return potrf, potrs


def _cholesky_solve(normal, rhs):
    """Solve ``normal @ x = rhs`` for a symmetric positive definite `normal`
    and a 2-D `rhs`; returns x in Fortran order.

    LAPACK's dpotrf factors the upper triangle and dpotrs solves, the
    calls that scipy's ``cho_factor``/``cho_solve`` make and with the same
    bits, but on numpy's OpenBLAS build, so no command imports scipy.
    Without that build it calls scipy's two functions, importing them at
    first use. Raises SingularSystemError if the factorization fails and
    ValueError, as scipy's finite check does, on NaN or Inf input.
    """
    if not (np.isfinite(normal).all() and np.isfinite(rhs).all()):
        raise ValueError("array must not contain infs or NaNs")
    lapack = _lapack_cholesky()
    if lapack is None:
        from scipy.linalg import cho_factor, cho_solve

        _openblas_builds.cache_clear()  # so the pins reach scipy's build
        try:
            factor = cho_factor(normal)
        except np.linalg.LinAlgError as exc:
            raise SingularSystemError(f"normal equations not positive definite: {exc}") from exc
        return cho_solve(factor, rhs)
    potrf, potrs = lapack
    factor = np.array(normal, dtype=np.float64, order="F")
    solution = np.array(rhs, dtype=np.float64, order="F")
    if factor.shape != (len(factor), len(factor)) or len(solution) != len(factor):
        raise InvalidArgumentError(f"cannot solve {factor.shape} against {solution.shape}")
    n, nrhs, info = (ctypes.c_int64(v) for v in (*solution.shape, 0))
    potrf(b"U", n, factor, n, info, 1)
    if info.value != 0:
        raise SingularSystemError(
            f"normal equations not positive definite: {info.value}-th leading minor "
            "of the array is not positive definite"
        )
    potrs(b"U", n, nrhs, factor, n, solution, n, info, 1)
    return solution


def _check_finite_rows(values, what):
    """Reject a matrix with NaN or Inf entries, naming the first bad row."""
    bad = ~np.isfinite(values).all(axis=1)
    if bad.any():
        raise InvalidArgumentError(
            f"{what} row {int(np.argmax(bad))} holds NaN or Inf "
            f"({int(bad.sum())} of {bad.size} rows are not finite)"
        )


def fit_sh_many(values, dirs, max_degree):
    """Fit one series per row of `values`; returns the coefficient matrix."""
    values = np.asarray(values, dtype=float)
    if values.ndim != 2 or values.shape[1] != len(dirs):
        raise InvalidArgumentError("values must have shape (n_series, n_directions)")
    _check_finite_rows(values, "values")
    return _solve_regularized(eval_sh_basis(dirs, max_degree), None, values.T).T


def acc(pred, truth, max_degree):
    """Angular correlation coefficient of each row pair of two coefficient
    matrices, one series of degree `max_degree` per row, in [-1, 1].

    Normalized inner product of the coefficients with the isotropic
    (degree-0) term excluded, so adding a constant to either function
    does not change the result. Both rows must carry some anisotropic
    content or the correlation is undefined. The rows are copied
    C-contiguous, because BLAS can round the dot of a strided row
    differently.
    """
    pred, truth = np.asarray(pred), np.asarray(truth)
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
