"""Physical constants and unit conversions.

All internal computation uses SI units: rad/s for rates and frequencies,
meters for lengths, C*m for dipole moments, W/m^2 for intensities.  Inputs
in common laboratory units (eV, nm, W/cm^2, Debye) are converted here and
nowhere else, so the conversion factors below are the single source of
truth for the whole package.
"""

import math

# SI-exact and CODATA 2022 values, written as scipy.constants derives them
HBAR = 6.62607015e-34 / (2 * math.pi)   # J s
E_CHARGE = 1.602176634e-19              # C
C_LIGHT = 299792458.0                   # m/s
EPS_0 = 8.8541878188e-12                # F/m

# 1 eV of angular frequency: omega = E/hbar
EV_TO_RAD_PER_S = E_CHARGE / HBAR

# 1 Debye in C m (CODATA: 1 D = 1e-21/c C m ~ 3.33564e-30)
DEBYE = 1e-21 / C_LIGHT

NM = 1e-9
W_CM2_TO_W_M2 = 1e4


def ev_to_rad_per_s(energy_ev: float) -> float:
    return energy_ev * EV_TO_RAD_PER_S


def wavelength_nm_to_omega(wavelength_nm: float) -> float:
    """Vacuum wavelength in nm to angular frequency in rad/s."""
    return 2.0 * math.pi * C_LIGHT / (wavelength_nm * NM)


def omega_to_wavelength_nm(omega: float) -> float:
    """Angular frequency in rad/s to vacuum wavelength in nm."""
    return 2.0 * math.pi * C_LIGHT / omega / NM


def cm_to_debye(mu: float) -> float:
    return mu / DEBYE
