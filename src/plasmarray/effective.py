"""Adiabatic elimination of the nanoparticle chain.

The chain response to the two dots and the drive is encoded by the n x n
coupling matrix A with unit diagonal and nearest-neighbor entries
-i*kappa/delta, where delta = i(omega_0 - omega) + gamma_0/2 is the
complex pole of a driven damped particle.  Its inverse K folds the chain
back onto the dots.  Each dot couples only to its end particle, so the
dots read K only through K_11 (= K_nn), the corner K_1n and the end row
sum, which are computed in O(n) without forming A or K.  They yield

* plasmon-induced single-dot terms: exciton shift, Purcell-broadened
  emission rate and enhanced excitation rate,
* dot-dot mediated couplings: the coherent rate G12 (Hamiltonian
  exchange) and the dissipative rate Gamma12 (collective decay).

`mediated_params` is the one entry point: it eliminates the chain once
per call and broadcasts every rate over the drive, so a whole intensity
column or frequency grid is one call with array-valued fields.  The
laser intensity enters only as sqrt(I) on the drives; the chain response
depends on the geometry and the driving frequency alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .exceptions import ContractError, DomainError
from .numerics import chain_end_response
from .plasmonics import (
    ArrayGeometry,
    DriveField,
    MaterialSystem,
    QdParams,
    bare_couplings,
    drive_rates,
)

__all__ = [
    "ComplexPole",
    "MediatedParams",
    "DickeParams",
    "complex_pole",
    "mediated_params",
    "dicke_params",
    "DecaySpectrum",
    "decay_spectrum",
]

SQRT2 = math.sqrt(2.0)


@dataclass(frozen=True)
class ComplexPole:
    """Rotating-frame complex pole of the particles and detunings of
    particles and dots.

    Each field has the shape of the driving frequency omega: a scalar or
    one entry per frequency.
    """

    delta: np.ndarray        # i*(omega_0 - omega) + gamma_0/2
    detuning_0: np.ndarray   # omega_0 - omega
    detuning_1: np.ndarray   # omega_1 - omega
    detuning_2: np.ndarray


def complex_pole(mat: MaterialSystem, qd: QdParams, omega) -> ComplexPole:
    """Complex pole and detunings at driving frequency omega (a scalar or
    an array)."""
    omega = np.asarray(omega, dtype=float)
    if np.any(omega <= 0):
        raise DomainError(f"driving frequency must be positive, got {omega.min()}")
    d0 = mat.omega_0 - omega
    d1 = qd.omega_1 - omega
    d2 = qd.omega_2 - omega
    return ComplexPole(
        delta=mat.gamma_0 / 2.0 + 1j * d0,
        detuning_0=d0,
        detuning_1=d1,
        detuning_2=d2,
    )


@dataclass(frozen=True)
class MediatedParams:
    """Plasmon-induced single-dot terms and dot-dot mediated couplings.

    All rates rad/s.  lambda_tilde_i are complex; the imaginary part is the
    chain-funnelled drive component.  Every field but n is a scalar or a
    (B,) array: a single point, or one point per drive intensity or
    frequency, with the fields that do not depend on that axis left
    scalar.
    """

    n: int
    delta_omega_tilde_1: np.ndarray
    delta_omega_tilde_2: np.ndarray
    gamma_tilde_1: np.ndarray
    gamma_tilde_2: np.ndarray
    lambda_tilde_1: np.ndarray
    lambda_tilde_2: np.ndarray
    g_coh: np.ndarray          # coherent coupling G12 = G21
    gamma_diss: np.ndarray     # dissipative coupling Gamma12 = Gamma21


def mediated_params(
    geom: ArrayGeometry,
    mat: MaterialSystem,
    qd: QdParams,
    drive: DriveField,
    phi_mode: str = "effective",
) -> MediatedParams:
    """Mediated parameters of the two dots for a given drive.

    The chain is eliminated here, once per call: the pole and the bare
    couplings give the coupling matrix A = I - i(kappa/delta) T, and the
    dots read its inverse K only through K_11, the corner K_1n and the
    end row sum.  Dot i couples with rate g to its end particle only, so
    the chain dresses it to g*K (K_11 for its own end, K_1n for the
    other) and the uniform particle drive reaches it as Omega_m times the
    end row sum of K.  With the quadratures V = d0*Re(g K) -
    (gamma_0/2) Im(g K) and U = d0*Im(g K) + (gamma_0/2) Re(g K), the
    shifts and rates are g*V and 2 g*U over |delta|^2.  The chain is
    mirror symmetric, so both dots read the same K_11 and row sum, and
    G12 = G21, Gamma12 = Gamma21.

    Every rate broadcasts over the drive: an intensity array gives one
    point per intensity, a frequency array one point per frequency.

    Parameters
    ----------
    phi_mode : {"effective", "bare"}
        Where the inter-laser phase is applied.  "effective" sets
        lambda~_2 = lambda~_1 * e^{i phi} after the chain dressing;
        "bare" phases only the bare dot-2 rate before dressing (the
        full-model convention).

    Raises
    ------
    NumericalError
        If the chain's coupling matrix is numerically singular at one of
        the driving frequencies.
    DomainError
        If a rate or its square overflows (huge but finite inputs).
    """
    if phi_mode not in ("effective", "bare"):
        raise DomainError(f"unknown phi_mode {phi_mode!r}")
    couplings = bare_couplings(geom, qd, mat)
    pole = complex_pole(mat, qd, drive.omega)
    delta = pole.delta
    g = couplings.g
    d0 = pole.detuning_0
    half_gamma_0 = 0.5 * mat.gamma_0
    abs_delta_sq = np.abs(delta) ** 2

    def g_quadratures(k):
        re, im = g * k.real, g * k.imag
        return g * (d0 * re - half_gamma_0 * im), g * (d0 * im + half_gamma_0 * re)

    # huge but finite couplings overflow here; the rates are checked below
    with np.errstate(over="ignore", invalid="ignore"):
        k11, k1n, row_sum = chain_end_response(geom.n, -1j * couplings.kappa / delta)
        v_self, u_self = g_quadratures(k11)
        v_cross, u_cross = g_quadratures(k1n)
        gamma_tilde = qd.gamma_i + 2.0 * u_self / abs_delta_sq
        funnelled = 1j * (g * (row_sum * drive.omega_m)) / delta

        lt1 = drive.lambda_1 + funnelled
        if phi_mode == "effective":
            lt2 = lt1 * complex(math.cos(drive.phi), math.sin(drive.phi))
        else:
            lt2 = drive.lambda_2 + funnelled

        mp = MediatedParams(
            n=geom.n,
            delta_omega_tilde_1=pole.detuning_1 - v_self / abs_delta_sq,
            delta_omega_tilde_2=pole.detuning_2 - v_self / abs_delta_sq,
            gamma_tilde_1=gamma_tilde,
            gamma_tilde_2=gamma_tilde,
            lambda_tilde_1=lt1,
            lambda_tilde_2=lt2,
            g_coh=v_cross / abs_delta_sq,
            gamma_diss=2.0 * u_cross / abs_delta_sq,
        )
        # the steady-state solve squares the rates (generator norm); a NaN
        # rate makes the largest magnitude NaN
        largest = np.abs(np.concatenate([np.ravel(rate) for rate in (
            mp.delta_omega_tilde_1, mp.delta_omega_tilde_2, gamma_tilde,
            lt1, lt2, mp.g_coh, mp.gamma_diss)])).max()
        finite = bool(np.isfinite(largest * largest))
    if not finite:
        raise DomainError(
            f"inputs overflow the mediated rates or their squares: n={geom.n}, "
            f"g={g} rad/s, kappa={couplings.kappa} rad/s, s_z={geom.s_z}, "
            f"gamma_0={mat.gamma_0} rad/s"
        )
    return mp


@dataclass(frozen=True)
class DickeParams:
    """Collective (Dicke-basis) parameters of the mediated two-dot system.

    e_plus/e_minus are the diagonal energies of the symmetric and
    antisymmetric single-excitation states, (dw1+dw2)/2 -/+ g_coh (the
    coupling term enters with a minus sign for the symmetric state).
    gamma_s/gamma_a = gamma~ +/- Gamma12 are the collective decay rates
    and omega_s/omega_a = (lambda~_1 +/- lambda~_2)/sqrt(2) the collective
    drive rates.  Fields broadcast like those of MediatedParams.
    """

    e_plus: float
    e_minus: float
    delta_minus: float
    omega_s: complex
    omega_a: complex
    gamma_s: float
    gamma_a: float
    gamma_tilde: float


def dicke_params(mp: MediatedParams) -> DickeParams:
    """Transform mediated parameters to the Dicke basis."""
    davg = 0.5 * (mp.delta_omega_tilde_1 + mp.delta_omega_tilde_2)
    dmin = 0.5 * (mp.delta_omega_tilde_1 - mp.delta_omega_tilde_2)
    gavg = 0.5 * (mp.gamma_tilde_1 + mp.gamma_tilde_2)
    return DickeParams(
        e_plus=davg - mp.g_coh,
        e_minus=davg + mp.g_coh,
        delta_minus=dmin,
        omega_s=(mp.lambda_tilde_1 + mp.lambda_tilde_2) / SQRT2,
        omega_a=(mp.lambda_tilde_1 - mp.lambda_tilde_2) / SQRT2,
        gamma_s=gavg + mp.gamma_diss,
        gamma_a=gavg - mp.gamma_diss,
        gamma_tilde=gavg,
    )


@dataclass(frozen=True)
class DecaySpectrum:
    """Decay rates and mediated couplings over a frequency grid.

    Every field is a (B,) array, one entry per grid frequency.
    """

    omega: np.ndarray
    gamma_s: np.ndarray
    gamma_a: np.ndarray
    gamma_tilde: np.ndarray
    g_coh: np.ndarray
    gamma_diss: np.ndarray


def decay_spectrum(
    omega_grid,
    geom: ArrayGeometry,
    mat: MaterialSystem,
    qd: QdParams,
) -> DecaySpectrum:
    """Collective decay rates and mediated couplings across a frequency grid.

    The mediated rates are independent of the drive intensity, so the
    spectrum is computed at zero drive, in one mediated-parameter call over
    the whole grid.  The grid must be non-empty and strictly increasing.
    """
    omegas = np.asarray(omega_grid, dtype=float)
    if omegas.size == 0:
        raise ContractError("frequency grid is empty")
    if omegas.size > 1 and not np.all(np.diff(omegas) > 0):
        raise ContractError("frequency grid must be strictly increasing")
    mp = mediated_params(geom, mat, qd, drive_rates(0.0, mat, qd, omegas))
    dk = dicke_params(mp)
    return DecaySpectrum(
        omega=omegas,
        gamma_s=dk.gamma_s,
        gamma_a=dk.gamma_a,
        gamma_tilde=dk.gamma_tilde,
        g_coh=mp.g_coh,
        gamma_diss=mp.gamma_diss,
    )
