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

Everything here is a pure function of its inputs; sweeps over frequency
or particle number are embarrassingly parallel.
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
    "CouplingMatrix",
    "MediatedParams",
    "DickeParams",
    "complex_pole",
    "build_coupling_matrix",
    "mediated_params",
    "dicke_params",
    "SpectrumPoint",
    "decay_spectrum",
]

SQRT2 = math.sqrt(2.0)


@dataclass(frozen=True)
class ComplexPole:
    """Rotating-frame complex rates of the particle and dot responses."""

    delta: complex       # i*(omega_0 - omega) + gamma_0/2
    delta_1: complex     # i*(omega_1 - omega) + gamma_i/2
    delta_2: complex
    detuning_0: float    # omega_0 - omega
    detuning_1: float    # omega_1 - omega
    detuning_2: float


def complex_pole(mat: MaterialSystem, qd: QdParams, omega: float) -> ComplexPole:
    """Complex poles at driving frequency omega."""
    if omega <= 0:
        raise DomainError(f"driving frequency must be positive, got {omega}")
    d0 = mat.omega_0 - omega
    d1 = qd.omega_1 - omega
    d2 = qd.omega_2 - omega
    return ComplexPole(
        delta=complex(mat.gamma_0 / 2.0, d0),
        delta_1=complex(qd.gamma_i / 2.0, d1),
        delta_2=complex(qd.gamma_i / 2.0, d2),
        detuning_0=d0,
        detuning_1=d1,
        detuning_2=d2,
    )


@dataclass(frozen=True)
class CouplingMatrix:
    """End-to-end response of the chain coupling matrix A.

    A is symmetric tridiagonal with unit diagonal and off-diagonal
    -i*kappa/delta.  The dots couple only to the end particles, so they
    read K = A^-1 only through K_11 (= K_nn), the corner K_1n and the end
    row sum, sum_j K_1j (= sum_j K_nj).  All three come from the
    continuant closed form.
    """

    n: int
    kappa: float
    delta: complex
    k11: complex
    k1n: complex
    row_sum: complex


def build_coupling_matrix(n: int, kappa: float, delta: complex) -> CouplingMatrix:
    """End entries of K = A^-1 for an n-particle chain."""
    if n < 1:
        raise DomainError(f"particle count must be >= 1, got {n}")
    if delta.real <= 0:
        raise DomainError(f"Re(delta) must be positive, got {delta}")
    k11, k1n, row_sum = chain_end_response(n, -1j * kappa / delta)
    return CouplingMatrix(n=n, kappa=kappa, delta=delta, k11=k11, k1n=k1n, row_sum=row_sum)


@dataclass(frozen=True)
class MediatedParams:
    """Plasmon-induced single-dot terms and dot-dot mediated couplings.

    All rates rad/s.  lambda_tilde_i are complex; the imaginary part is the
    chain-funnelled drive component.
    """

    n: int
    omega: float
    delta_omega_tilde_1: float
    delta_omega_tilde_2: float
    gamma_tilde_1: float
    gamma_tilde_2: float
    lambda_tilde_1: complex
    lambda_tilde_2: complex
    g_coh: float          # coherent coupling G12 = G21
    gamma_diss: float     # dissipative coupling Gamma12 = Gamma21


def mediated_params(
    geom: ArrayGeometry,
    mat: MaterialSystem,
    qd: QdParams,
    drive: DriveField,
    cm: CouplingMatrix,
    phi_mode: str = "effective",
) -> MediatedParams:
    """Mediated parameters of the two dots for a given drive.

    Dot i couples with rate g to its end particle only, so the chain
    dresses it to g*K (K_11 for its own end, K_1n for the other) and the
    uniform particle drive reaches it as Omega_m times the end row sum of
    K.  With the quadratures V = d0*Re(g K) - (gamma_0/2) Im(g K) and
    U = d0*Im(g K) + (gamma_0/2) Re(g K), the shifts and rates are g*V and
    2 g*U over |delta|^2.  The chain is mirror symmetric, so both dots
    read the same K_11 and row sum, and G12 = G21, Gamma12 = Gamma21.

    Parameters
    ----------
    phi_mode : {"effective", "bare"}
        Where the inter-laser phase is applied.  "effective" sets
        lambda~_2 = lambda~_1 * e^{i phi} after the chain dressing;
        "bare" phases only the bare dot-2 rate before dressing (the
        full-model convention).

    Raises
    ------
    ContractError
        If the coupling matrix was built for a different chain size or for
        inconsistent kappa/delta.
    """
    if cm.n != geom.n:
        raise ContractError(f"coupling matrix is for n={cm.n}, geometry has n={geom.n}")
    if phi_mode not in ("effective", "bare"):
        raise DomainError(f"unknown phi_mode {phi_mode!r}")
    couplings = bare_couplings(geom, qd, mat)
    pole = complex_pole(mat, qd, drive.omega)
    if abs(cm.delta - pole.delta) > 1e-9 * abs(pole.delta):
        raise ContractError(
            f"coupling matrix delta {cm.delta} does not match system delta {pole.delta}"
        )
    if abs(cm.kappa - couplings.kappa) > 1e-9 * abs(couplings.kappa):
        raise ContractError(
            f"coupling matrix kappa {cm.kappa} does not match system kappa {couplings.kappa}"
        )

    g = couplings.g
    d0 = pole.detuning_0
    half_gamma_0 = 0.5 * mat.gamma_0
    delta = pole.delta
    abs_delta_sq = abs(delta) ** 2

    def g_quadratures(k: complex) -> tuple[float, float]:
        re, im = g * k.real, g * k.imag
        return g * (d0 * re - half_gamma_0 * im), g * (d0 * im + half_gamma_0 * re)

    v_self, u_self = g_quadratures(cm.k11)
    v_cross, u_cross = g_quadratures(cm.k1n)
    gamma_tilde = qd.gamma_i + 2.0 * u_self / abs_delta_sq
    funnelled = 1j * (g * (cm.row_sum * drive.omega_m)) / delta

    lt1 = drive.lambda_1 + funnelled
    if phi_mode == "effective":
        lt2 = lt1 * complex(math.cos(drive.phi), math.sin(drive.phi))
    else:
        lt2 = drive.lambda_2 + funnelled

    return MediatedParams(
        n=geom.n,
        omega=drive.omega,
        delta_omega_tilde_1=pole.detuning_1 - v_self / abs_delta_sq,
        delta_omega_tilde_2=pole.detuning_2 - v_self / abs_delta_sq,
        gamma_tilde_1=gamma_tilde,
        gamma_tilde_2=gamma_tilde,
        lambda_tilde_1=complex(lt1),
        lambda_tilde_2=complex(lt2),
        g_coh=v_cross / abs_delta_sq,
        gamma_diss=2.0 * u_cross / abs_delta_sq,
    )


@dataclass(frozen=True)
class DickeParams:
    """Collective (Dicke-basis) parameters of the mediated two-dot system.

    e_plus/e_minus are the diagonal energies of the symmetric and
    antisymmetric single-excitation states, (dw1+dw2)/2 -/+ g_coh (the
    coupling term enters with a minus sign for the symmetric state).
    gamma_s/gamma_a = gamma~ +/- Gamma12 are the collective decay rates
    and omega_s/omega_a = (lambda~_1 +/- lambda~_2)/sqrt(2) the collective
    drive rates.
    """

    e_plus: float
    e_minus: float
    delta_plus: float
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
        delta_plus=davg,
        delta_minus=dmin,
        omega_s=(mp.lambda_tilde_1 + mp.lambda_tilde_2) / SQRT2,
        omega_a=(mp.lambda_tilde_1 - mp.lambda_tilde_2) / SQRT2,
        gamma_s=gavg + mp.gamma_diss,
        gamma_a=gavg - mp.gamma_diss,
        gamma_tilde=gavg,
    )


@dataclass(frozen=True)
class SpectrumPoint:
    """One row of a decay-rate spectrum."""

    omega: float
    gamma_s: float
    gamma_a: float
    gamma_tilde: float
    g_coh: float
    gamma_diss: float


def decay_spectrum(
    omega_grid,
    geom: ArrayGeometry,
    mat: MaterialSystem,
    qd: QdParams,
) -> list[SpectrumPoint]:
    """Collective decay rates and mediated couplings across a frequency grid.

    The mediated rates are independent of the drive intensity, so the
    spectrum is computed at zero drive.  The grid must be non-empty and
    strictly increasing.
    """
    omegas = np.asarray(omega_grid, dtype=float)
    if omegas.size == 0:
        raise ContractError("frequency grid is empty")
    if omegas.size > 1 and not np.all(np.diff(omegas) > 0):
        raise ContractError("frequency grid must be strictly increasing")
    couplings = bare_couplings(geom, qd, mat)
    rows = []
    for omega in omegas:
        pole = complex_pole(mat, qd, float(omega))
        cm = build_coupling_matrix(geom.n, couplings.kappa, pole.delta)
        drive = drive_rates(0.0, mat, qd, float(omega))
        mp = mediated_params(geom, mat, qd, drive, cm)
        dk = dicke_params(mp)
        rows.append(
            SpectrumPoint(
                omega=float(omega),
                gamma_s=dk.gamma_s,
                gamma_a=dk.gamma_a,
                gamma_tilde=dk.gamma_tilde,
                g_coh=mp.g_coh,
                gamma_diss=mp.gamma_diss,
            )
        )
    return rows
