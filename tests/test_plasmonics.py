"""Material derivation, geometry bookkeeping and drive rates.

Golden values were recorded from an independent evaluation of the
closed-form expressions (scipy.constants, separate script) and are
asserted here at 1e-9 relative.
"""

import math

import numpy as np
import pytest

from plasmarray import (
    ArrayGeometry,
    DomainError,
    DrudeMetal,
    HostMedium,
    QdParams,
    bare_couplings,
    derive_material,
    drive_rates,
    qd_dipole_from_radius,
)
from plasmarray.constants import (
    DEBYE,
    EPS_0,
    HBAR,
    NM,
    W_CM2_TO_W_M2,
    cm_to_debye,
)

from conftest import EPS_INF, EPS_M, GAMMA_I, GAMMA_P_EV, OMEGA_P_EV, R_MNP, R_QD

# frozen golden values (independent evaluation, reference inputs)
GOLD = {
    "omega_0": 3.9224085050287355e15,
    "eta": 1.7894199384255178e14,
    "mu_mnp": 3.886263889408359e-26,
    "gamma_nr": 2.734814333599648e13,
    "gamma_r": 6.63549069953564e14,
    "gamma_0": 6.908972132895605e14,
    "lambda_0_nm": 480.2282997535601,
    "mu_qd": 3.204353268e-28,
    "g": 2.9886605049512104e12,
    "kappa": 1.184993648112898e14,
    "e0_at_80": 1.8686209290617386e4,
    "omega_m_at_80": 6.8861635766204e12,
    "lambda_1_at_80": 5.6778698998964294e10,
    "weak_ratio_at_80": 9.966987048382194e-3,
}


def rel(a, b):
    return abs(a - b) / abs(b)


def test_material_golden_values(material):
    assert rel(material.omega_0, GOLD["omega_0"]) < 1e-9
    assert rel(material.eta, GOLD["eta"]) < 1e-9
    assert rel(material.mu_mnp, GOLD["mu_mnp"]) < 1e-9
    assert rel(material.gamma_nr, GOLD["gamma_nr"]) < 1e-9
    assert rel(material.gamma_r, GOLD["gamma_r"]) < 1e-9
    assert rel(material.gamma_0, GOLD["gamma_0"]) < 1e-9


def test_lspr_wavelength_in_visible_band(material):
    assert 478.0 <= material.lspr_wavelength_nm <= 482.0
    assert rel(material.lspr_wavelength_nm, GOLD["lambda_0_nm"]) < 1e-9


def test_omega0_consistency_identity(material):
    expected = material.metal.omega_p / math.sqrt(EPS_INF + 2.0 * EPS_M)
    assert rel(material.omega_0, expected) < 1e-12


def test_total_damping_is_sum(material):
    assert material.gamma_0 == material.gamma_nr + material.gamma_r


def test_zero_electron_damping_gives_zero_nonradiative():
    metal = DrudeMetal.from_ev(OMEGA_P_EV, EPS_INF, 0.0)
    mat = derive_material(metal, HostMedium(EPS_M), R_MNP)
    assert mat.gamma_nr == 0.0
    assert mat.gamma_0 == mat.gamma_r


def test_radiative_channel_can_be_excluded(material):
    mat = derive_material(material.metal, material.medium, R_MNP, include_radiative=False)
    assert mat.gamma_r == 0.0
    assert mat.gamma_0 == mat.gamma_nr
    assert rel(mat.omega_0, material.omega_0) < 1e-15


def test_omega0_decreases_with_eps_m():
    metal = DrudeMetal.from_ev(OMEGA_P_EV, EPS_INF, GAMMA_P_EV)
    omegas = [
        derive_material(metal, HostMedium(eps), R_MNP).omega_0
        for eps in (1.0, 2.0, 2.98, 4.0, 6.0)
    ]
    assert all(a > b for a, b in zip(omegas, omegas[1:]))


def test_qd_dipole_values():
    mu = qd_dipole_from_radius(R_QD)
    assert rel(mu, GOLD["mu_qd"]) < 1e-12
    assert abs(cm_to_debye(mu) - 96.0) < 0.5
    # linear in the radius: doubling the radius doubles the moment
    assert rel(qd_dipole_from_radius(2 * R_QD), 2 * mu) < 1e-12
    assert abs(cm_to_debye(qd_dipole_from_radius(4 * NM)) - 192.0) < 1.0
    assert qd_dipole_from_radius(1e-15) == pytest.approx(1e-15 * mu / R_QD)


def test_geometry_distances(geometry):
    geom = geometry(1)
    assert geom.d_qn == pytest.approx(62 * NM)
    assert geom.d_nn == pytest.approx(90 * NM)
    assert geom.d_qq - 2 * geom.r0 == pytest.approx(0.12e-6)


def test_dqq_increment_is_90nm(geometry):
    dists = [geometry(n).d_qq for n in range(1, 18)]
    for a, b in zip(dists, dists[1:]):
        assert b - a == pytest.approx(90 * NM, rel=1e-12)


def test_point_dipole_flags_true_at_reference_geometry(geometry):
    for n in (1, 2, 5, 17):
        geom = geometry(n)
        assert geom.qd_point_dipole_ok
        assert geom.nn_point_dipole_ok
        assert geom.point_dipole_ok


def test_point_dipole_flags_fail_when_too_close():
    geom = ArrayGeometry(r=30 * NM, r0=2 * NM, s=1 * NM, n=2)
    assert not geom.point_dipole_ok


def test_bare_coupling_golden_values(material, qd_resonant, geometry):
    bc = bare_couplings(geometry(2), qd_resonant, material)
    assert rel(bc.g, GOLD["g"]) < 1e-9
    assert rel(bc.kappa, GOLD["kappa"]) < 1e-9


def test_kappa_two_forms_agree(material, qd_resonant, geometry):
    # second form: s_z * mu_mnp / d_nn^3 * sqrt(3 r^3 eta / (4 pi eps0 hbar))
    geom = geometry(3)
    bc = bare_couplings(geom, qd_resonant, material)
    root = math.sqrt(3.0 * geom.r**3 * material.eta / (4.0 * math.pi * EPS_0 * HBAR))
    kappa_second = geom.s_z * material.mu_mnp / geom.d_nn**3 * root
    assert rel(bc.kappa, kappa_second) < 1e-12


def test_kappa_inverse_cube_law(material, qd_resonant, geometry):
    geom = geometry(2)
    bc = bare_couplings(geom, qd_resonant, material)
    # gap chosen so that d_nn grows exactly tenfold
    far = ArrayGeometry(r=geom.r, r0=geom.r0, s=10 * geom.d_nn - 2 * geom.r, n=2)
    bc_far = bare_couplings(far, qd_resonant, material)
    assert rel(bc_far.kappa, bc.kappa / 1000.0) < 1e-12


def test_couplings_far_below_resonance(material, qd_resonant, geometry):
    # g/omega_0 ~ 7.6e-4; kappa/omega_0 ~ 3.0e-2 (both << 1, g below 1e-2)
    bc = bare_couplings(geometry(2), qd_resonant, material)
    assert bc.g / material.omega_0 < 1e-2
    assert bc.kappa / material.omega_0 < 5e-2


def test_coupling_sign_follows_orientation_factor(material, qd_resonant):
    geom = ArrayGeometry(r=R_MNP, r0=R_QD, s=30 * NM, n=2, s_z=-2.0)
    bc = bare_couplings(geom, qd_resonant, material)
    assert bc.g < 0
    assert bc.kappa < 0


@pytest.mark.parametrize("s_z", [2.0000001, -2.5, 1e20, float("inf"), float("nan")])
def test_orientation_factor_outside_its_range_is_rejected(s_z):
    with pytest.raises(DomainError, match="s_z"):
        ArrayGeometry(r=R_MNP, r0=R_QD, s=30 * NM, n=2, s_z=s_z)
    for inside in (-2.0, 0.0, 2.0):
        assert ArrayGeometry(r=R_MNP, r0=R_QD, s=30 * NM, n=2, s_z=inside).s_z == inside


def test_drive_golden_values(material, qd_resonant):
    drv = drive_rates(80 * W_CM2_TO_W_M2, material, qd_resonant, material.omega_0)
    assert rel(drv.e0, GOLD["e0_at_80"]) < 1e-9
    assert rel(drv.omega_m, GOLD["omega_m_at_80"]) < 1e-9
    assert rel(drv.lambda_1.real, GOLD["lambda_1_at_80"]) < 1e-9
    assert drv.lambda_1.imag == 0.0
    assert rel(drv.weak_excitation_ratio, GOLD["weak_ratio_at_80"]) < 1e-9


def test_weak_excitation_ratio_band(material, qd_resonant):
    ratios = [
        drive_rates(i * W_CM2_TO_W_M2, material, qd_resonant, material.omega_0).weak_excitation_ratio
        for i in np.arange(0.0, 80.5, 0.5)
    ]
    assert min(ratios) == 0.0
    assert 0.0 <= max(ratios) <= 0.097


def test_zero_intensity_zeroes_everything(material, qd_resonant):
    drv = drive_rates(0.0, material, qd_resonant, material.omega_0)
    assert drv.e0 == 0.0
    assert drv.lambda_1 == 0.0
    assert drv.lambda_2 == 0.0
    assert drv.omega_m == 0.0


def test_sqrt_intensity_scaling(material, qd_resonant):
    d1 = drive_rates(5 * W_CM2_TO_W_M2, material, qd_resonant, material.omega_0)
    d4 = drive_rates(20 * W_CM2_TO_W_M2, material, qd_resonant, material.omega_0)
    assert rel(d4.e0, 2 * d1.e0) < 1e-12
    assert rel(abs(d4.lambda_1), 2 * abs(d1.lambda_1)) < 1e-12
    assert rel(d4.omega_m, 2 * d1.omega_m) < 1e-12


def test_phase_pi_flips_second_drive(material, qd_resonant):
    drv = drive_rates(10 * W_CM2_TO_W_M2, material, qd_resonant, material.omega_0, phi=math.pi)
    assert abs(drv.lambda_2 + drv.lambda_1) < 1e-12 * abs(drv.lambda_1)


def test_mnp_moment_in_debye(material):
    # plasmon transition moment is thousands of Debye, dot moment ~1e2
    assert 1e3 < material.mu_mnp / DEBYE < 1e5


@pytest.mark.parametrize(
    "exc_args",
    [
        lambda: DrudeMetal.from_ev(-1.0, EPS_INF, GAMMA_P_EV),
        lambda: DrudeMetal.from_ev(OMEGA_P_EV, 0.5, GAMMA_P_EV),
        lambda: DrudeMetal.from_ev(OMEGA_P_EV, EPS_INF, -0.1),
        lambda: HostMedium(0.9),
        lambda: ArrayGeometry(r=-1.0, r0=R_QD, s=0.0, n=1),
        lambda: ArrayGeometry(r=R_MNP, r0=R_QD, s=0.0, n=0),
        lambda: qd_dipole_from_radius(0.0),
    ],
)
def test_domain_errors(exc_args):
    with pytest.raises(DomainError):
        exc_args()


def test_negative_radius_rejected(material):
    with pytest.raises(DomainError):
        derive_material(material.metal, material.medium, -1e-9)


def test_negative_intensity_rejected(material, qd_resonant):
    with pytest.raises(DomainError):
        drive_rates(-1.0, material, qd_resonant, material.omega_0)


def test_qd_params_validation(material):
    with pytest.raises(DomainError):
        QdParams(mu_qd=0.0, gamma_i=GAMMA_I, omega_1=1.0, omega_2=1.0)
    with pytest.raises(DomainError):
        QdParams.at_resonance(material, R_QD, 0.0)
