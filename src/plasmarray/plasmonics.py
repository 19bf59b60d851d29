"""Physical inputs: Drude metal, geometry, quantum dots and the drive field.

Converts laboratory parameters into the bare model rates (all SI, rad/s):

* single-particle resonance  omega_0 = omega_p / sqrt(eps_inf + 2 eps_m)
* oscillator factor          eta = omega_0 / (2 (eps_inf + 2 eps_m))
* nanoparticle dipole moment mu_mnp = 2 eps_m sqrt(3 pi eps0 hbar eta r^3)
* damping                    gamma_0 = gamma_nr + gamma_r with
      gamma_nr = gamma_p (1 + (gamma_p/omega_0)^2)
      gamma_r  = mu_mnp^2 sqrt(eps_m) omega_0^3 / (3 pi eps0 hbar c^3)
* dot-particle coupling      g = s_z mu_qd / d_qn^3 * sqrt(3 r^3 eta / (4 pi eps0 hbar))
* particle-particle coupling kappa = 3 s_z eps_m eta (r / d_nn)^3

kappa has the equivalent form s_z mu_mnp / d_nn^3 * sqrt(3 r^3 eta /
(4 pi eps0 hbar)); the two agree to machine precision and the identity is
kept as a unit test.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .constants import C_LIGHT, E_CHARGE, EPS_0, HBAR, ev_to_rad_per_s
from .exceptions import DomainError

__all__ = [
    "DrudeMetal",
    "HostMedium",
    "MaterialSystem",
    "ArrayGeometry",
    "QdParams",
    "BareCouplings",
    "DriveField",
    "derive_material",
    "bare_couplings",
    "qd_dipole_from_radius",
    "drive_rates",
]


@dataclass(frozen=True)
class DrudeMetal:
    """Drude-model metal: plasma frequency, background permittivity, damping.

    Frequencies are angular (rad/s); use `from_ev` for eV inputs.
    """

    omega_p: float
    eps_inf: float
    gamma_p: float

    def __post_init__(self):
        if self.omega_p <= 0:
            raise DomainError(f"omega_p must be positive, got {self.omega_p}")
        if self.eps_inf < 1:
            raise DomainError(f"eps_inf must be >= 1, got {self.eps_inf}")
        if self.gamma_p < 0:
            raise DomainError(f"gamma_p must be >= 0, got {self.gamma_p}")

    @classmethod
    def from_ev(cls, omega_p_ev: float, eps_inf: float, gamma_p_ev: float) -> "DrudeMetal":
        return cls(ev_to_rad_per_s(omega_p_ev), eps_inf, ev_to_rad_per_s(gamma_p_ev))


@dataclass(frozen=True)
class HostMedium:
    """Non-dispersive host with dielectric constant eps_m >= 1."""

    eps_m: float

    def __post_init__(self):
        if self.eps_m < 1:
            raise DomainError(f"eps_m must be >= 1, got {self.eps_m}")


@dataclass(frozen=True)
class MaterialSystem:
    """Metal + medium + the derived single-particle quantities."""

    metal: DrudeMetal
    medium: HostMedium
    r: float                 # nanoparticle radius used in the derivation (m)
    omega_0: float           # dipole plasmon resonance (rad/s)
    eta: float               # oscillator factor (rad/s)
    mu_mnp: float            # plasmon transition dipole moment (C m)
    gamma_nr: float          # non-radiative damping (rad/s)
    gamma_r: float           # radiative damping (rad/s)
    gamma_0: float           # total plasmon damping (rad/s)

    @property
    def lspr_wavelength_nm(self) -> float:
        return 2.0 * math.pi * C_LIGHT / self.omega_0 / 1e-9


def derive_material(
    metal: DrudeMetal,
    medium: HostMedium,
    r: float,
    include_radiative: bool = True,
) -> MaterialSystem:
    """Derive the single-nanoparticle quantities from metal, medium and radius.

    Parameters
    ----------
    metal, medium : DrudeMetal, HostMedium
    r : float
        Nanoparticle radius in meters.
    include_radiative : bool
        When False the radiative channel is excluded from the model
        (gamma_r = 0, so gamma_0 = gamma_nr).  The radiative channel grows
        as r^3 and dominates for tens-of-nm particles; excluding it gives
        the narrow-linewidth regime sometimes used for small particles.

    Returns
    -------
    MaterialSystem
    """
    if r <= 0:
        raise DomainError(f"radius must be positive, got {r}")
    overflow = DomainError(
        f"material inputs overflow the particle dipole moment or damping: "
        f"r={r} m, omega_p={metal.omega_p} rad/s, gamma_p={metal.gamma_p} rad/s"
    )
    denom = metal.eps_inf + 2.0 * medium.eps_m
    omega_0 = metal.omega_p / math.sqrt(denom)
    eta = omega_0 / (2.0 * denom)
    try:
        mu_mnp = 2.0 * medium.eps_m * math.sqrt(3.0 * math.pi * EPS_0 * HBAR * eta * r**3)
        gamma_nr = metal.gamma_p * (1.0 + (metal.gamma_p / omega_0) ** 2)
        gamma_r = 0.0
        if include_radiative:
            gamma_r = (
                mu_mnp**2 * math.sqrt(medium.eps_m) * omega_0**3
                / (3.0 * math.pi * EPS_0 * HBAR * C_LIGHT**3)
            )
    except OverflowError:
        raise overflow from None
    gamma_0 = gamma_nr + gamma_r
    # a float product overflows to inf silently; inf rates give NaN downstream
    if not all(map(math.isfinite, (eta, mu_mnp, gamma_0))):
        raise overflow
    if gamma_0 == 0.0:
        # an undamped particle has no steady response: delta and the chain
        # inverse diverge at the resonance
        raise DomainError(
            "plasmon damping gamma_0 is zero (gamma_p = 0 without the "
            "radiative channel); the chain response has no steady state"
        )
    return MaterialSystem(
        metal=metal,
        medium=medium,
        r=r,
        omega_0=omega_0,
        eta=eta,
        mu_mnp=mu_mnp,
        gamma_nr=gamma_nr,
        gamma_r=gamma_r,
        gamma_0=gamma_0,
    )


@dataclass(frozen=True)
class ArrayGeometry:
    """Collinear chain of n nanoparticles sandwiched by two quantum dots.

    r, r0 and s are the particle radius, dot radius and surface-to-surface
    gap (m).  s_z is the dipole orientation factor, within [-2, 2]; +2
    corresponds to longitudinal (head-to-tail) coupling along the chain
    axis.
    """

    r: float
    r0: float
    s: float
    n: int
    s_z: float = 2.0

    def __post_init__(self):
        if self.r <= 0 or self.r0 <= 0 or self.s < 0:
            raise DomainError(
                f"invalid geometry: r={self.r}, r0={self.r0}, s={self.s}"
            )
        if not isinstance(self.n, int) or self.n < 1:
            raise DomainError(f"particle count must be an integer >= 1, got {self.n}")
        if not abs(self.s_z) <= 2.0:
            raise DomainError(
                f"dipole orientation factor s_z must satisfy |s_z| <= 2, got {self.s_z}"
            )

    @property
    def d_qn(self) -> float:
        """Dot to nearest-particle center distance."""
        return self.r0 + self.s + self.r

    @property
    def d_nn(self) -> float:
        """Neighboring particle center distance."""
        return self.s + 2.0 * self.r

    @property
    def d_qq(self) -> float:
        """Dot to dot center distance across the chain."""
        return 2.0 * (self.r * self.n + self.r0) + self.s * (self.n + 1)

    @property
    def qd_point_dipole_ok(self) -> bool:
        return self.d_qn >= 2.0 * self.r

    @property
    def nn_point_dipole_ok(self) -> bool:
        return self.d_nn >= 3.0 * self.r

    @property
    def point_dipole_ok(self) -> bool:
        """Both point-dipole validity conditions: d_qn >= 2r and d_nn >= 3r."""
        return self.qd_point_dipole_ok and self.nn_point_dipole_ok


def qd_dipole_from_radius(r0: float) -> float:
    """Quantum-dot transition dipole moment mu_qd = e * r0 (C m)."""
    if r0 <= 0:
        raise DomainError(f"dot radius must be positive, got {r0}")
    return E_CHARGE * r0


@dataclass(frozen=True)
class QdParams:
    """Two identical-dipole quantum dots with individual transition frequencies."""

    mu_qd: float     # transition dipole moment (C m)
    gamma_i: float   # spontaneous emission rate of each dot (rad/s)
    omega_1: float   # transition frequency of dot 1 (rad/s)
    omega_2: float   # transition frequency of dot 2 (rad/s)

    def __post_init__(self):
        if self.mu_qd <= 0:
            raise DomainError(f"mu_qd must be positive, got {self.mu_qd}")
        if self.gamma_i <= 0:
            raise DomainError(f"gamma_i must be positive, got {self.gamma_i}")

    @classmethod
    def at_resonance(
        cls,
        mat: MaterialSystem,
        r0: float,
        gamma_i: float,
        detuning_1: float = 0.0,
        detuning_2: float = 0.0,
    ) -> "QdParams":
        """Dots with mu_qd = e*r0 and omega_i = omega_0 + detuning_i."""
        return cls(
            mu_qd=qd_dipole_from_radius(r0),
            gamma_i=gamma_i,
            omega_1=mat.omega_0 + detuning_1,
            omega_2=mat.omega_0 + detuning_2,
        )


@dataclass(frozen=True)
class BareCouplings:
    """Nearest-neighbor dipole-dipole coupling rates (rad/s)."""

    g: float        # dot to nearest particle
    kappa: float    # particle to particle


def bare_couplings(geom: ArrayGeometry, qd: QdParams, mat: MaterialSystem) -> BareCouplings:
    """Bare coupling rates g and kappa for the given geometry and materials."""
    if geom.d_qn <= 0 or geom.d_nn <= 0:
        raise DomainError("geometry produced non-positive distances")
    overflow = DomainError(
        f"geometry overflows the coupling rates: r={geom.r} m, "
        f"d_qn={geom.d_qn} m, d_nn={geom.d_nn} m, s_z={geom.s_z}"
    )
    try:
        root = math.sqrt(3.0 * geom.r**3 * mat.eta / (4.0 * math.pi * EPS_0 * HBAR))
        g = geom.s_z * qd.mu_qd / geom.d_qn**3 * root
        kappa = 3.0 * geom.s_z * mat.medium.eps_m * mat.eta * (geom.r / geom.d_nn) ** 3
    except OverflowError:
        raise overflow from None
    if not (math.isfinite(g) and math.isfinite(kappa)):
        raise overflow
    return BareCouplings(g=g, kappa=kappa)


@dataclass(frozen=True)
class DriveField:
    """A z-polarized laser drive and the excitation rates it induces.

    The drive intensity and omega are each a scalar or a 1-D array; every
    rate has their broadcast shape, so one DriveField describes a whole
    intensity column or frequency grid.  lambda_2 carries the inter-laser phase:
    lambda_2 = lambda_1 * e^{i phi}.  weak_excitation_ratio =
    omega_m / gamma_0 is the diagnostic for the weak-excitation regime of
    the adiabatic elimination.
    """

    omega: np.ndarray            # driving frequency (rad/s)
    e0: np.ndarray               # field amplitude (V/m)
    phi: float                   # inter-laser phase (rad)
    lambda_1: np.ndarray         # dot-1 excitation rate (rad/s), complex
    lambda_2: np.ndarray         # dot-2 excitation rate (rad/s), complex
    omega_m: np.ndarray          # particle excitation rate (rad/s)
    weak_excitation_ratio: np.ndarray


def drive_rates(
    intensity,
    mat: MaterialSystem,
    qd: QdParams,
    omega,
    phi: float = 0.0,
) -> DriveField:
    """Field amplitude and excitation rates for a drive of given intensity.

    Parameters
    ----------
    intensity : float or 1-D array
        Driving intensity in W/m^2 (SI; multiply W/cm^2 by 1e4).
    omega : float or 1-D array
        Driving frequency in rad/s.
    phi : float
        Phase of the second laser relative to the first (rad).
    """
    intensity = np.asarray(intensity, dtype=float)
    if np.any(intensity < 0):
        raise DomainError(f"intensity must be >= 0, got {intensity.min()}")
    with np.errstate(over="ignore"):
        e0 = np.sqrt(2.0 * intensity / (C_LIGHT * math.sqrt(mat.medium.eps_m) * EPS_0))
        lambda_1 = e0 * qd.mu_qd / HBAR + 0j
        omega_m = e0 * mat.mu_mnp / HBAR
    if not (np.all(np.isfinite(lambda_1)) and np.all(np.isfinite(omega_m))):
        raise DomainError(
            f"drive overflows the excitation rates: intensity up to "
            f"{intensity.max()} W/m^2, mu_qd={qd.mu_qd} C m, mu_mnp={mat.mu_mnp} C m"
        )
    return DriveField(
        omega=np.asarray(omega, dtype=float)[()],
        e0=e0,
        phi=phi,
        lambda_1=lambda_1,
        lambda_2=lambda_1 * complex(math.cos(phi), math.sin(phi)),
        omega_m=omega_m,
        weak_excitation_ratio=omega_m / mat.gamma_0,
    )
