"""Chain elimination: chain inverse, mediated rates, Dicke parameters.

Coupling golden values were recorded from an independent evaluation
script (continuant closed form cross-checked against dense inversion).
"""

import dataclasses
import math

import numpy as np
import pytest

from plasmarray import (
    ContractError,
    DomainError,
    NumericalError,
    bare_couplings,
    complex_pole,
    decay_spectrum,
    derive_material,
    dicke_params,
    drive_rates,
    mediated_params,
)
from plasmarray.constants import W_CM2_TO_W_M2, wavelength_nm_to_omega
from plasmarray.numerics import chain_end_response

from conftest import GAMMA_I

# frozen mediated couplings at the resonance (rad/s)
GOLD_G_COH_N2 = -7.935764472188095e9
GOLD_GAMMA_DISS_N3 = -4.925819385690692e9
GOLD_GAMMA_DISS_N1 = 5.1712998356597595e10


def _mediated_at_lspr(material, qd, geometry, n, intensity_w_cm2=0.0, phi=0.0,
                      phi_mode="effective"):
    drive = drive_rates(intensity_w_cm2 * W_CM2_TO_W_M2, material, qd,
                        material.omega_0, phi)
    return mediated_params(geometry(n), material, qd, drive, phi_mode=phi_mode)


def _end_entries(n, kappa, delta):
    """K_11, K_1n and the end row sum of the chain with pole delta."""
    return chain_end_response(n, -1j * kappa / delta)


def _dense_chain(n, kappa, delta):
    """Dense A = I + x T and its LU inverse, the oracle for the end entries."""
    x = -1j * kappa / delta
    a = np.eye(n, dtype=complex)
    idx = np.arange(n - 1)
    a[idx, idx + 1] = x
    a[idx + 1, idx] = x
    return a, np.linalg.inv(a)


def _assert_end_entries_match(entries, k):
    """K_11, K_1n and the row sum equal row 1 of the dense inverse k."""
    k11, k1n, row_sum = entries
    n = k.shape[0]
    tol = 1e-12 * np.abs(k).max()
    assert abs(k11 - k[0, 0]) <= tol
    assert abs(k1n - k[0, n - 1]) <= tol
    assert abs(row_sum - k[0].sum()) <= n * tol


# --------------------------------------------------------------------------
# chain inverse
# --------------------------------------------------------------------------

def test_complex_pole_fields(material, qd_resonant):
    omega = wavelength_nm_to_omega(500.0)
    pole = complex_pole(material, qd_resonant, omega)
    assert pole.delta.real == pytest.approx(material.gamma_0 / 2.0, rel=1e-15)
    assert pole.delta.imag == pytest.approx(material.omega_0 - omega, rel=1e-12)
    assert pole.detuning_1 == pytest.approx(qd_resonant.omega_1 - omega, rel=1e-12)
    with pytest.raises(DomainError):
        complex_pole(material, qd_resonant, 0.0)


def test_single_particle_matrix_is_identity(material, qd_resonant, geometry):
    bc = bare_couplings(geometry(1), qd_resonant, material)
    pole = complex_pole(material, qd_resonant, material.omega_0)
    k11, k1n, row_sum = _end_entries(1, bc.kappa, pole.delta)
    a, k = _dense_chain(1, bc.kappa, pole.delta)
    assert a[0, 0] == 1.0
    assert k11 == k1n == row_sum == k[0, 0] == 1.0


def test_two_particle_inverse_matches_symbolic(material, qd_resonant, geometry):
    bc = bare_couplings(geometry(2), qd_resonant, material)
    pole = complex_pole(material, qd_resonant, material.omega_0)
    entries = _end_entries(2, bc.kappa, pole.delta)
    x = -1j * bc.kappa / pole.delta
    expected = np.array([[1.0, -x], [-x, 1.0]]) / (1.0 - x * x)
    assert entries[0] == pytest.approx(expected[0, 0], rel=1e-12)
    assert entries[1] == pytest.approx(expected[0, 1], rel=1e-12)
    assert entries[2] == pytest.approx(expected[0].sum(), rel=1e-12)
    # independent dense-inversion oracle
    _assert_end_entries_match(entries, _dense_chain(2, bc.kappa, pole.delta)[1])


@pytest.mark.parametrize("n", list(range(1, 18)))
def test_inverse_defining_property(n, material, qd_resonant, geometry):
    bc = bare_couplings(geometry(n), qd_resonant, material)
    pole = complex_pole(material, qd_resonant, material.omega_0)
    a, k = _dense_chain(n, bc.kappa, pole.delta)
    assert np.linalg.norm(k @ a - np.eye(n)) / math.sqrt(n) < 1e-12
    _assert_end_entries_match(_end_entries(n, bc.kappa, pole.delta), k)


def test_inverse_matches_dense_off_resonance(material, qd_resonant, geometry):
    bc = bare_couplings(geometry(7), qd_resonant, material)
    omega = wavelength_nm_to_omega(455.0)
    pole = complex_pole(material, qd_resonant, omega)
    _assert_end_entries_match(_end_entries(7, bc.kappa, pole.delta),
                              _dense_chain(7, bc.kappa, pole.delta)[1])


@pytest.mark.parametrize("n", list(range(1, 18)))
def test_array_inverse_matches_dense_per_frequency(n, material, qd_resonant, geometry):
    """One chain_end_response call over a frequency array equals the dense
    inverse at each frequency, and keeps the exact corner parity at the
    resonance element."""
    bc = bare_couplings(geometry(n), qd_resonant, material)
    omegas = np.array([wavelength_nm_to_omega(540.0), material.omega_0,
                       wavelength_nm_to_omega(455.0)])
    pole = complex_pole(material, qd_resonant, omegas)
    k11, k1n, row_sum = _end_entries(n, bc.kappa, pole.delta)
    assert k11.shape == k1n.shape == row_sum.shape == omegas.shape
    for i, delta in enumerate(pole.delta):
        _assert_end_entries_match((k11[i], k1n[i], row_sum[i]),
                                  _dense_chain(n, bc.kappa, delta)[1])
    if n % 2 == 1:
        assert k1n[1].imag == 0.0
    else:
        assert k1n[1].real == 0.0


def test_coupling_matrix_preconditions(material):
    """A needs n >= 1 and Re(delta) = gamma_0/2 > 0; an undamped particle
    is refused where gamma_0 is derived."""
    with pytest.raises(DomainError):
        chain_end_response(0, 0.1j)
    undamped = dataclasses.replace(material.metal, gamma_p=0.0)
    with pytest.raises(DomainError, match="gamma_0 is zero"):
        derive_material(undamped, material.medium, material.r, include_radiative=False)


# --------------------------------------------------------------------------
# parity and sign structure at the resonance
# --------------------------------------------------------------------------

@pytest.mark.parametrize("n", list(range(1, 18)))
def test_corner_element_parity(n, material, qd_resonant, geometry):
    """Odd chains give a purely real end-to-end response, even chains a
    purely imaginary one, when driven exactly at the single-particle
    resonance."""
    bc = bare_couplings(geometry(n), qd_resonant, material)
    pole = complex_pole(material, qd_resonant, material.omega_0)
    entries = _end_entries(n, bc.kappa, pole.delta)
    _assert_end_entries_match(entries, _dense_chain(n, bc.kappa, pole.delta)[1])
    corner = entries[1]
    if n % 2 == 1:
        assert abs(corner.imag) <= 1e-10 * abs(corner.real)
    else:
        assert abs(corner.real) <= 1e-10 * abs(corner.imag)


@pytest.mark.parametrize("n", list(range(1, 18)))
def test_coupling_parity_law(n, material, qd_resonant, geometry):
    mp = _mediated_at_lspr(material, qd_resonant, geometry, n)
    if n % 2 == 1:
        assert abs(mp.g_coh) <= 1e-10 * abs(mp.gamma_diss)
    else:
        assert abs(mp.gamma_diss) <= 1e-10 * abs(mp.g_coh)
    assert abs(mp.g_coh * mp.gamma_diss) <= 1e-10 * max(mp.g_coh**2, mp.gamma_diss**2)


def test_sign_sequences(material, qd_resonant, geometry):
    for n in (2, 6, 10, 14):
        assert _mediated_at_lspr(material, qd_resonant, geometry, n).g_coh < 0
    for n in (4, 8, 12, 16):
        assert _mediated_at_lspr(material, qd_resonant, geometry, n).g_coh > 0
    for n in (3, 7, 11, 15):
        assert _mediated_at_lspr(material, qd_resonant, geometry, n).gamma_diss < 0
    for n in (1, 5, 9, 13, 17):
        assert _mediated_at_lspr(material, qd_resonant, geometry, n).gamma_diss > 0


def test_mediated_golden_values(material, qd_resonant, geometry):
    assert _mediated_at_lspr(material, qd_resonant, geometry, 2).g_coh == pytest.approx(
        GOLD_G_COH_N2, rel=1e-9
    )
    assert _mediated_at_lspr(material, qd_resonant, geometry, 3).gamma_diss == pytest.approx(
        GOLD_GAMMA_DISS_N3, rel=1e-9
    )
    assert _mediated_at_lspr(material, qd_resonant, geometry, 1).gamma_diss == pytest.approx(
        GOLD_GAMMA_DISS_N1, rel=1e-9
    )


def test_two_chain_coherent_coupling_order_of_magnitude(material, qd_resonant, geometry):
    # |G12| ~ 1e10 rad/s for the two-particle chain
    g_coh = _mediated_at_lspr(material, qd_resonant, geometry, 2).g_coh
    assert 3e9 < abs(g_coh) < 3e10


def test_magnitude_ratio_odd_vs_even(material, qd_resonant, geometry):
    """Measured |Gamma(3)|/|G(2)| with the full damping model.

    With the radiative channel included the chain response is overdamped
    (2 kappa / gamma_0 ~ 0.69) and the odd-chain dissipative coupling sits
    BELOW the adjacent even-chain coherent coupling; the ratio is frozen
    here as computed.
    """
    g2 = _mediated_at_lspr(material, qd_resonant, geometry, 2).g_coh
    gam3 = _mediated_at_lspr(material, qd_resonant, geometry, 3).gamma_diss
    assert abs(gam3) / abs(g2) == pytest.approx(0.620691, rel=1e-4)


@pytest.mark.parametrize("start", [2, 3, 4, 5])
def test_distance_decay_along_sequences(start, material, qd_resonant, geometry):
    seq = [start + 4 * k for k in range(4)]
    vals = []
    for n in seq:
        mp = _mediated_at_lspr(material, qd_resonant, geometry, n)
        vals.append(abs(mp.g_coh) if start % 2 == 0 else abs(mp.gamma_diss))
    assert all(a > b for a, b in zip(vals, vals[1:]))


# --------------------------------------------------------------------------
# effective couplings and symmetry
# --------------------------------------------------------------------------

def test_single_particle_couples_both_dots(material, qd_resonant, geometry):
    """Both dots dress through the one particle, K_11 = K_1n = 1, so the
    dot-dot rates equal each dot's own plasmon-induced terms."""
    mp = _mediated_at_lspr(material, qd_resonant, geometry, 1)
    pole = complex_pole(material, qd_resonant, material.omega_0)
    assert mp.gamma_diss == pytest.approx(mp.gamma_tilde_1 - qd_resonant.gamma_i, rel=1e-12)
    assert mp.g_coh == pytest.approx(pole.detuning_1 - mp.delta_omega_tilde_1,
                                     abs=1e-12 * abs(mp.gamma_diss))
    assert mp.gamma_tilde_2 == mp.gamma_tilde_1


@pytest.mark.parametrize("n", [2, 3, 6, 9])
def test_mirror_symmetry_of_dressed_couplings(n, material, qd_resonant, geometry):
    """K is persymmetric: dot 2's entries K_nn, K_n1 and the row-n sum
    equal dot 1's, so the stored row-1 entries serve both dots."""
    bc = bare_couplings(geometry(n), qd_resonant, material)
    pole = complex_pole(material, qd_resonant, material.omega_0)
    k = _dense_chain(n, bc.kappa, pole.delta)[1]
    tol = 1e-12 * np.abs(k).max()
    assert abs(k[n - 1, n - 1] - k[0, 0]) <= tol
    assert abs(k[n - 1, 0] - k[0, n - 1]) <= tol
    assert abs(k[n - 1].sum() - k[0].sum()) <= n * tol
    assert np.allclose(k[::-1, ::-1], k, rtol=0.0, atol=tol)
    _assert_end_entries_match(_end_entries(n, bc.kappa, pole.delta), k[::-1, ::-1])


@pytest.mark.parametrize("n", [1, 2, 3, 5, 8])
def test_exchange_symmetry_of_mediated_couplings(n, material, qd_resonant, geometry):
    """G12 = G21 and Gamma12 = Gamma21 for the mirror-symmetric chain;
    dot 2's rates and drive, from row n of the dense inverse, equal dot 1's."""
    geom = geometry(n)
    bc = bare_couplings(geom, qd_resonant, material)
    pole = complex_pole(material, qd_resonant, material.omega_0)
    drive = drive_rates(10.0 * W_CM2_TO_W_M2, material, qd_resonant, material.omega_0)
    k = _dense_chain(n, bc.kappa, pole.delta)[1]
    abs_d2 = abs(pole.delta) ** 2
    d0, half_gamma_0 = pole.detuning_0, 0.5 * material.gamma_0

    def rates(k_entry):
        gk = bc.g * k_entry
        v = d0 * gk.real - half_gamma_0 * gk.imag
        u = d0 * gk.imag + half_gamma_0 * gk.real
        return bc.g * v / abs_d2, 2.0 * bc.g * u / abs_d2

    g21, gamma21 = rates(k[n - 1, 0])
    shift_2, broadening_2 = rates(k[n - 1, n - 1])
    lambda_2 = drive.lambda_2 + 1j * bc.g * drive.omega_m * k[n - 1].sum() / pole.delta
    for phi_mode in ("effective", "bare"):
        mp = _mediated_at_lspr(material, qd_resonant, geometry, n, intensity_w_cm2=10.0,
                               phi_mode=phi_mode)
        assert mp.g_coh == pytest.approx(
            g21, abs=1e-10 * max(abs(mp.g_coh), abs(mp.gamma_diss)))
        assert mp.gamma_diss == pytest.approx(gamma21, rel=1e-10)
        assert mp.delta_omega_tilde_2 == pytest.approx(
            pole.detuning_2 - shift_2, abs=1e-10 * broadening_2)
        assert mp.gamma_tilde_2 == pytest.approx(qd_resonant.gamma_i + broadening_2, rel=1e-10)
        assert mp.lambda_tilde_2 == pytest.approx(lambda_2, rel=1e-10)
        # identical dots driven in phase acquire identical effective drives
        assert mp.lambda_tilde_1 == pytest.approx(mp.lambda_tilde_2, rel=1e-10)


def test_effective_detuning_unshifted_at_resonance(material, qd_resonant, geometry):
    # the chain self-response is purely dissipative at the resonance
    mp = _mediated_at_lspr(material, qd_resonant, geometry, 4)
    assert abs(mp.delta_omega_tilde_1) < 1e-6 * material.gamma_0
    assert mp.gamma_tilde_1 > qd_resonant.gamma_i


def test_contract_checks(material, qd_resonant, geometry):
    drive = drive_rates(0.0, material, qd_resonant, material.omega_0)
    with pytest.raises(DomainError):
        mediated_params(geometry(3), material, qd_resonant, drive, phi_mode="sideways")


# --------------------------------------------------------------------------
# broadcasting over the drive
# --------------------------------------------------------------------------

RATE_FIELDS = ("delta_omega_tilde_1", "delta_omega_tilde_2", "gamma_tilde_1",
               "gamma_tilde_2", "lambda_tilde_1", "lambda_tilde_2", "g_coh", "gamma_diss")


def _assert_stack_matches_points(stacked, points):
    """Entry i of every field of stacked equals the field of points[i],
    within 1e-12 of that point's largest rate."""
    for i, mp in enumerate(points):
        scale = max(abs(getattr(mp, name)) for name in RATE_FIELDS)
        for name in RATE_FIELDS:
            value = np.broadcast_to(getattr(stacked, name), (len(points),))[i]
            assert abs(value - getattr(mp, name)) <= 1e-12 * scale, (i, name)
        assert np.ndim(mp.g_coh) == 0


@pytest.mark.parametrize("phi_mode", ["effective", "bare"])
@pytest.mark.parametrize("n", [1, 2, 3, 6])
def test_intensity_stack_equals_scalar_calls(n, phi_mode, material, geometry):
    from plasmarray import QdParams

    qd = QdParams.at_resonance(material, geometry(n).r0, GAMMA_I, 35.0 * GAMMA_I,
                               -20.0 * GAMMA_I)
    intensities = np.array([0.0, 0.5, 7.5, 40.0, 80.0]) * W_CM2_TO_W_M2
    phi = 0.3 * math.pi
    stacked = mediated_params(
        geometry(n), material, qd,
        drive_rates(intensities, material, qd, material.omega_0, phi), phi_mode=phi_mode)
    assert np.shape(stacked.lambda_tilde_1) == intensities.shape
    points = [
        mediated_params(geometry(n), material, qd,
                        drive_rates(i, material, qd, material.omega_0, phi),
                        phi_mode=phi_mode)
        for i in intensities
    ]
    _assert_stack_matches_points(stacked, points)


@pytest.mark.parametrize("n", [1, 2, 5, 17])
def test_frequency_stack_equals_scalar_calls(n, material, qd_resonant, geometry):
    omegas = wavelength_nm_to_omega(np.linspace(560.0, 420.0, 9))
    intensity = 20.0 * W_CM2_TO_W_M2
    stacked = mediated_params(geometry(n), material, qd_resonant,
                              drive_rates(intensity, material, qd_resonant, omegas))
    assert np.shape(stacked.g_coh) == omegas.shape
    points = [
        mediated_params(geometry(n), material, qd_resonant,
                        drive_rates(intensity, material, qd_resonant, omega))
        for omega in omegas
    ]
    _assert_stack_matches_points(stacked, points)


def test_singular_chain_in_a_frequency_array_is_refused(material, qd_resonant, geometry):
    """A near-singular element among well-posed ones raises, with the
    condition report a scalar call gives for that element."""
    n = 4
    bc = bare_couplings(geometry(n), qd_resonant, material)
    pole = complex_pole(material, qd_resonant, material.omega_0)
    x = -1j * bc.kappa / pole.delta
    singular = -1.0 / (2.0 * math.cos(math.pi / (n + 1)))
    with pytest.raises(NumericalError) as scalar_err:
        chain_end_response(n, singular)
    with pytest.raises(NumericalError) as array_err:
        chain_end_response(n, np.array([x, singular, 0.5 * x]))
    assert str(array_err.value) == str(scalar_err.value)
    assert str(array_err.value).startswith(
        "coupling matrix is numerically singular: |det| = ")


# --------------------------------------------------------------------------
# Dicke parameters
# --------------------------------------------------------------------------

def test_collective_rates_identities(material, qd_resonant, geometry):
    mp = _mediated_at_lspr(material, qd_resonant, geometry, 3, intensity_w_cm2=20.0)
    dk = dicke_params(mp)
    gavg = 0.5 * (mp.gamma_tilde_1 + mp.gamma_tilde_2)
    assert dk.gamma_s == gavg + mp.gamma_diss
    assert dk.gamma_a == gavg - mp.gamma_diss
    assert dk.gamma_s + dk.gamma_a == pytest.approx(2.0 * gavg, rel=1e-15)
    assert abs(dk.gamma_a - dk.gamma_s) == pytest.approx(2.0 * abs(mp.gamma_diss), rel=1e-12)


def test_even_chain_rates_coincide_at_resonance(material, qd_resonant, geometry):
    for n in (2, 4, 6, 8):
        dk = dicke_params(_mediated_at_lspr(material, qd_resonant, geometry, n))
        assert dk.gamma_s == pytest.approx(dk.gamma_a, rel=1e-10)
        assert dk.gamma_s == pytest.approx(dk.gamma_tilde, rel=1e-10)


def test_symmetric_drive_kills_antisymmetric_rate(material, qd_resonant, geometry):
    dk = dicke_params(_mediated_at_lspr(material, qd_resonant, geometry, 2,
                                        intensity_w_cm2=10.0, phi=0.0))
    assert abs(dk.omega_a) <= 1e-12 * abs(dk.omega_s)


def test_pi_phase_drive_kills_symmetric_rate(material, qd_resonant, geometry):
    dk = dicke_params(_mediated_at_lspr(material, qd_resonant, geometry, 5,
                                        intensity_w_cm2=10.0, phi=math.pi))
    assert abs(dk.omega_s) <= 1e-12 * abs(dk.omega_a)


def test_level_splitting_for_detuned_even_chain(material, geometry):
    from plasmarray import QdParams

    delta = 80.0 * GAMMA_I
    qd = QdParams.at_resonance(material, geometry(4).r0, GAMMA_I, delta, delta)
    mp = _mediated_at_lspr(material, qd, geometry, 4, intensity_w_cm2=10.0)
    dk = dicke_params(mp)
    davg = 0.5 * (mp.delta_omega_tilde_1 + mp.delta_omega_tilde_2)
    # symmetric/antisymmetric levels sit at davg -/+ g_coh; as a set they
    # are davg +/- |g_coh| and their gap is 2 |g_coh|
    assert {dk.e_plus, dk.e_minus} == {davg - mp.g_coh, davg + mp.g_coh}
    assert abs(dk.e_minus - dk.e_plus) == pytest.approx(2.0 * abs(mp.g_coh), rel=1e-12)
    assert dk.delta_minus == pytest.approx(0.0, abs=1e-3 * abs(davg))


def test_degenerate_levels_for_odd_chain_at_resonance(material, qd_resonant, geometry):
    dk = dicke_params(_mediated_at_lspr(material, qd_resonant, geometry, 3))
    assert dk.e_plus == pytest.approx(dk.e_minus, abs=1e-6 * material.gamma_0)


# --------------------------------------------------------------------------
# decay spectra
# --------------------------------------------------------------------------

@pytest.fixture(scope="module")
def spectrum_grid():
    return wavelength_nm_to_omega(np.linspace(560.0, 420.0, 601))


def test_spectrum_identities_every_point(material, qd_resonant, geometry, spectrum_grid):
    for n in (2, 3):
        spec = decay_spectrum(spectrum_grid, geometry(n), material, qd_resonant)
        assert spec.gamma_s.shape == spec.gamma_a.shape == spectrum_grid.shape
        assert np.array_equal(spec.omega, spectrum_grid)
        assert np.all(spec.gamma_s >= 0.0)
        assert np.all(spec.gamma_a >= 0.0)
        np.testing.assert_allclose(spec.gamma_s + spec.gamma_a, 2.0 * spec.gamma_tilde,
                                   rtol=1e-12, atol=0.0)
        np.testing.assert_allclose(np.abs(spec.gamma_a - spec.gamma_s),
                                   2.0 * np.abs(spec.gamma_diss),
                                   rtol=1e-9, atol=1e-12 * spec.gamma_tilde.min())


def test_two_chain_modes_flank_the_resonance(material, qd_resonant, geometry, spectrum_grid):
    """The two hybrid modes sit at omega_0 -/+ kappa.  The in-phase
    (bonding) mode is redshifted for longitudinal coupling and feeds the
    symmetric channel, so gamma_s peaks below omega_0 and gamma_a above."""
    geom = geometry(2)
    spec = decay_spectrum(spectrum_grid, geom, material, qd_resonant)
    omegas, gs, ga = spec.omega, spec.gamma_s, spec.gamma_a
    bc = bare_couplings(geom, qd_resonant, material)
    peak_s = omegas[gs.argmax()]
    peak_a = omegas[ga.argmax()]
    assert peak_s < material.omega_0 < peak_a
    assert peak_s == pytest.approx(material.omega_0 - bc.kappa, abs=3e12)
    assert peak_a == pytest.approx(material.omega_0 + bc.kappa, abs=3e12)


def test_odd_chain_orderings_at_resonance(material, qd_resonant, geometry):
    spec3 = decay_spectrum([material.omega_0], geometry(3), material, qd_resonant)
    assert spec3.gamma_a[0] > spec3.gamma_s[0]
    spec5 = decay_spectrum([material.omega_0], geometry(5), material, qd_resonant)
    assert spec5.gamma_s[0] > spec5.gamma_a[0]


def test_decay_splitting_shrinks_along_odd_sequences(material, qd_resonant, geometry):
    for seq in ((3, 7, 11, 15), (5, 9, 13, 17)):
        splits = []
        for n in seq:
            spec = decay_spectrum([material.omega_0], geometry(n), material, qd_resonant)
            splits.append(abs(spec.gamma_a[0] - spec.gamma_s[0]))
        assert all(a > b for a, b in zip(splits, splits[1:]))


def test_spectrum_grid_contract(material, qd_resonant, geometry):
    with pytest.raises(ContractError):
        decay_spectrum([], geometry(2), material, qd_resonant)
    with pytest.raises(ContractError):
        decay_spectrum([2e15, 1e15], geometry(2), material, qd_resonant)
