"""Shared numerical kernels: the chain inverse's end entries, and fits.

The nanoparticle-chain coupling matrix has unit diagonal and one constant
complex off-diagonal value.  The inverse of such a matrix has a closed
form in terms of continuants (the three-term determinant recurrence);
`chain_end_response` evaluates from it, in O(n), the three entries that
the dots read.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exceptions import DomainError, NumericalError

__all__ = [
    "continuants",
    "chain_end_response",
    "FitResult",
    "fit_exponential_decay",
    "fit_quadratic",
]


def continuants(n: int, offdiag) -> np.ndarray:
    """Leading principal minors D_0..D_n of the n x n matrix I + x*T.

    T is the path-graph adjacency matrix and x the constant off-diagonal,
    a scalar or an array of them; D_k sits on the last axis, so the result
    has shape x.shape + (n + 1,).  D_k = D_{k-1} - x^2 D_{k-2},
    D_0 = D_1 = 1; D_n is det(A).
    """
    x = np.asarray(offdiag, dtype=complex)
    d = np.empty(x.shape + (n + 1,), dtype=complex)
    d[..., 0] = 1.0
    if n >= 1:
        d[..., 1] = 1.0
    x2 = x * x
    for k in range(2, n + 1):
        d[..., k] = d[..., k - 1] - x2 * d[..., k - 2]
    return d


def chain_end_response(n: int, offdiag):
    """K_11, the corner K_1n and the row sum sum_j K_1j of K = A^-1.

    For A = I + x*T (T the nearest-neighbor adjacency of a chain of n
    sites) the first row of the inverse has the closed form

        K_1j = (-x)^(j-1) * D_{n-j} / D_n,

    with D_k the continuants above, so the cost is O(n).  The corner
    K_1n = (-x)^(n-1)/D_n is obtained without cancellation, which keeps
    its exact parity structure (purely real or purely imaginary
    off-diagonal x stays exactly so).  A is persymmetric, so K_nn = K_11
    and row n sums to the same value as row 1.

    x may be a scalar or an array (one chain per element, e.g. one per
    driving frequency); each entry has the shape of x.

    Raises
    ------
    NumericalError
        If det(A) is below 1e-14 of the continuant scale (near-singular)
        for any element, with a condition report of the first such
        element in the message.
    """
    if n < 1:
        raise DomainError(f"matrix size must be >= 1, got {n}")
    x = np.asarray(offdiag, dtype=complex)
    d = continuants(n, x)
    det = np.abs(d[..., n])
    scale = np.max(np.abs(d), axis=-1)
    singular = np.flatnonzero(det < 1e-14 * scale)
    if singular.size:
        i = singular[0]
        det_i, scale_i = det.flat[i], scale.flat[i]
        raise NumericalError(
            f"coupling matrix is numerically singular: |det| = {det_i:.3e}, "
            f"continuant scale = {scale_i:.3e} (ratio {det_i / scale_i:.3e})"
        )
    # powers of (-x) up to n-1, along the last axis like the continuants
    powers = np.empty(x.shape + (n,), dtype=complex)
    powers[..., 0] = 1.0
    for p in range(1, n):
        powers[..., p] = powers[..., p - 1] * (-x)
    row = powers * d[..., n - 1::-1] / d[..., n:]
    return row[..., 0][()], row[..., n - 1][()], row.sum(axis=-1)[()]


@dataclass(frozen=True)
class FitResult:
    """Least-squares fit summary.

    For an exponential fit the coefficients are (c0, tau) of
    c = c0 * exp(-tau * n) and the residual is the rms in log space.
    For a quadratic fit the coefficients are (a0, a1, a2) of
    y = a0 + a1 x + a2 x^2 and the residual is the rms in y.
    """

    coefficients: tuple
    rms_residual: float


def fit_exponential_decay(n_values, c_values) -> FitResult:
    """Fit c = c0 * exp(-tau * n) by linear least squares on (n, ln c)."""
    n_arr = np.asarray(n_values, dtype=float)
    c_arr = np.asarray(c_values, dtype=float)
    if n_arr.size != c_arr.size or n_arr.size < 2:
        raise DomainError("need at least 2 (n, c) points")
    if np.any(c_arr <= 0):
        raise DomainError("exponential fit requires all-positive ordinates")
    design = np.vstack([np.ones_like(n_arr), -n_arr]).T
    coef, _, _, _ = np.linalg.lstsq(design, np.log(c_arr), rcond=None)
    log_c0, tau = coef
    resid = design @ coef - np.log(c_arr)
    rms = float(np.sqrt(np.mean(resid**2)))
    return FitResult((float(np.exp(log_c0)), float(tau)), rms)


def fit_quadratic(x_values, y_values) -> FitResult:
    """Least-squares quadratic y = a0 + a1 x + a2 x^2."""
    x = np.asarray(x_values, dtype=float)
    y = np.asarray(y_values, dtype=float)
    if x.size != y.size or x.size < 3:
        raise DomainError("need at least 3 (x, y) points")
    design = np.vstack([np.ones_like(x), x, x * x]).T
    if np.linalg.matrix_rank(design) < 3:
        raise NumericalError("rank-deficient design matrix (degenerate abscissae)")
    coef, _, _, _ = np.linalg.lstsq(design, y, rcond=None)
    resid = design @ coef - y
    rms = float(np.sqrt(np.mean(resid**2)))
    return FitResult(tuple(float(c) for c in coef), rms)
