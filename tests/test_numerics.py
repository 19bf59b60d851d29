"""Numerical kernels: the chain inverse's end entries, fits."""

import numpy as np
import pytest

from plasmarray import DomainError, NumericalError, fit_exponential_decay, fit_quadratic
from plasmarray.numerics import chain_end_response, continuants


def test_continuants_match_determinants():
    rng = np.random.default_rng(11)
    for n in (1, 2, 3, 7, 12):
        x = 0.4 * (rng.normal() + 1j * rng.normal())
        a = np.eye(n, dtype=complex)
        idx = np.arange(n - 1)
        a[idx, idx + 1] = x
        a[idx + 1, idx] = x
        d = continuants(n, x)
        assert abs(d[n] - np.linalg.det(a)) < 1e-10 * max(1.0, abs(d[n]))


@pytest.mark.parametrize("n", [1, 2, 3, 5, 9, 17, 40])
def test_uniform_inverse_matches_dense_lu(n):
    # dense LU inversion is the independent cross-check of the continuant form
    rng = np.random.default_rng(n)
    x = 0.5 * (rng.normal() + 1j * rng.normal())
    a = np.eye(n, dtype=complex)
    idx = np.arange(n - 1)
    a[idx, idx + 1] = x
    a[idx + 1, idx] = x
    k = np.linalg.inv(a)
    assert np.allclose(k @ a, np.eye(n), atol=1e-11)
    k11, k1n, row_sum = chain_end_response(n, x)
    assert abs(k11 - k[0, 0]) < 1e-11
    assert abs(k1n - k[0, n - 1]) < 1e-11
    assert abs(row_sum - k[0].sum()) < 1e-11


@pytest.mark.parametrize("n", [1, 2, 3, 9, 17, 40])
def test_array_inverse_matches_dense_lu_per_element(n):
    """An array of off-diagonals gives, element by element, the entries of
    the dense inverse and exactly the entries of a scalar call."""
    rng = np.random.default_rng(100 + n)
    xs = 0.5 * (rng.normal(size=5) + 1j * rng.normal(size=5))
    k11, k1n, row_sum = chain_end_response(n, xs)
    assert k11.shape == k1n.shape == row_sum.shape == xs.shape
    idx = np.arange(n - 1)
    for i, x in enumerate(xs):
        a = np.eye(n, dtype=complex)
        a[idx, idx + 1] = x
        a[idx + 1, idx] = x
        k = np.linalg.inv(a)
        assert abs(k11[i] - k[0, 0]) < 1e-11
        assert abs(k1n[i] - k[0, n - 1]) < 1e-11
        assert abs(row_sum[i] - k[0].sum()) < 1e-11
        assert (k11[i], k1n[i], row_sum[i]) == chain_end_response(n, x)


def test_uniform_inverse_two_by_two_closed_form():
    x = 0.3 - 0.7j
    det = 1.0 - x * x
    k11, k1n, row_sum = chain_end_response(2, x)
    assert abs(k11 - 1.0 / det) < 1e-14
    assert abs(k1n + x / det) < 1e-14
    assert abs(row_sum - (1.0 - x) / det) < 1e-14


def test_uniform_inverse_detects_singularity():
    # A = I + x T is singular when -1/x hits an adjacency eigenvalue
    n = 4
    lam = 2.0 * np.cos(np.pi / (n + 1))
    with pytest.raises(NumericalError):
        chain_end_response(n, -1.0 / lam)


def test_exponential_fit_exact_recovery():
    ns = np.array([2, 6, 10, 14])
    cs = 0.8 * np.exp(-0.1 * ns)
    fit = fit_exponential_decay(ns, cs)
    c0, tau = fit.coefficients
    assert abs(c0 - 0.8) < 1e-10
    assert abs(tau - 0.1) < 1e-10
    assert fit.rms_residual < 1e-12


def test_exponential_fit_two_points_interpolates():
    fit = fit_exponential_decay([1, 3], [0.5, 0.2])
    assert fit.rms_residual < 1e-12


def test_exponential_fit_rejects_nonpositive():
    with pytest.raises(DomainError):
        fit_exponential_decay([1, 2, 3], [0.5, 0.0, 0.1])
    with pytest.raises(DomainError):
        fit_exponential_decay([1], [0.5])


def test_quadratic_fit_exact_recovery():
    x = np.linspace(0, 2, 9)
    y = 1.5 - 0.3 * x + 0.7 * x * x
    fit = fit_quadratic(x, y)
    assert np.allclose(fit.coefficients, (1.5, -0.3, 0.7), atol=1e-10)
    assert fit.rms_residual < 1e-12


def test_quadratic_fit_three_points_interpolates():
    fit = fit_quadratic([0.0, 1.0, 2.0], [1.0, 0.0, 3.0])
    assert fit.rms_residual < 1e-10


def test_quadratic_fit_rank_deficient():
    with pytest.raises(NumericalError):
        fit_quadratic([1.0, 1.0, 1.0], [1.0, 2.0, 3.0])
    with pytest.raises(DomainError):
        fit_quadratic([1.0, 2.0], [1.0, 2.0])
