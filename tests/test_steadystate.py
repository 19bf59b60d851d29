"""Steady-state solve, concurrence and Dicke-basis views.

The concurrence is cross-checked against an independent brute-force
evaluation through the matrix square root, sqrt(sqrt(rho) rho~ sqrt(rho)),
which never shares code with the production eigensolve path.

The batched production path (one MediatedParams with (B,) array fields,
precomputed generator terms, stacked solve and eigensolves) is checked
against a per-point reference kept here: the generator applied to each of
the 16 real basis matrices in turn, one solve and one eigensolve per
parameter set.
"""

import dataclasses
import logging
import math

import numpy as np
import pytest
import scipy.linalg
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from plasmarray import (
    DomainError,
    MediatedParams,
    NumericalError,
    QdParams,
    concurrence,
    dicke_populations,
    drive_rates,
    mediated_params,
    steady_state,
)
from plasmarray.constants import W_CM2_TO_W_M2
from plasmarray.steadystate import (
    SIGMA_1,
    SIGMA_2,
    TwoQubitState,
    _stationarity_matrices,
)

from conftest import GAMMA_I, R_QD

_YY = np.zeros((4, 4))
_YY[0, 3] = -1.0
_YY[1, 2] = 1.0
_YY[2, 1] = 1.0
_YY[3, 0] = -1.0

SWAP = np.array(
    [[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], dtype=complex
)

BELL_S = np.zeros((4, 4), dtype=complex)
BELL_S[1:3, 1:3] = 0.5


def wootters_bruteforce(rho: np.ndarray) -> float:
    """Independent oracle: C from the Hermitian square-root construction."""
    rho_t = _YY @ rho.conj() @ _YY
    sq = scipy.linalg.sqrtm(rho)
    inner = scipy.linalg.sqrtm(sq @ rho_t @ sq)
    lam = np.sort(np.linalg.eigvals(inner).real)[::-1]
    return max(0.0, lam[0] - lam[1] - lam[2] - lam[3])


# --------------------------------------------------------------------------
# per-point reference
# --------------------------------------------------------------------------

PAIRS = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]
DICKE = np.array(
    [[1, 0, 0, 0],
     [0, 1 / math.sqrt(2), 1 / math.sqrt(2), 0],
     [0, 1 / math.sqrt(2), -1 / math.sqrt(2), 0],
     [0, 0, 0, 1]],
    dtype=complex,
)


def reference_basis():
    basis = []
    for i in range(4):
        b = np.zeros((4, 4), dtype=complex)
        b[i, i] = 1.0
        basis.append(b)
    for (i, j) in PAIRS:
        b = np.zeros((4, 4), dtype=complex)
        b[i, j] = 1.0
        b[j, i] = 1.0
        basis.append(b)
    for (i, j) in PAIRS:
        b = np.zeros((4, 4), dtype=complex)
        b[i, j] = 1.0j
        b[j, i] = -1.0j
        basis.append(b)
    return basis


def reference_coords(rho):
    x = np.empty(16)
    for i in range(4):
        x[i] = rho[i, i].real
    for k, (i, j) in enumerate(PAIRS):
        x[4 + k] = rho[i, j].real
        x[10 + k] = rho[i, j].imag
    return x


def reference_from_coords(x):
    rho = np.zeros((4, 4), dtype=complex)
    for i in range(4):
        rho[i, i] = x[i]
    for k, (i, j) in enumerate(PAIRS):
        rho[i, j] = x[4 + k] + 1j * x[10 + k]
        rho[j, i] = x[4 + k] - 1j * x[10 + k]
    return rho


def reference_generator_apply(mp, rho):
    n1 = SIGMA_1.conj().T @ SIGMA_1
    n2 = SIGMA_2.conj().T @ SIGMA_2
    h = mp.delta_omega_tilde_1 * n1 + mp.delta_omega_tilde_2 * n2
    h = h - (mp.lambda_tilde_1 * SIGMA_1.conj().T + np.conj(mp.lambda_tilde_1) * SIGMA_1)
    h = h - (mp.lambda_tilde_2 * SIGMA_2.conj().T + np.conj(mp.lambda_tilde_2) * SIGMA_2)
    h = h - mp.g_coh * (SIGMA_1.conj().T @ SIGMA_2 + SIGMA_2.conj().T @ SIGMA_1)
    out = -1j * (h @ rho - rho @ h)
    rates = ((mp.gamma_tilde_1, 0, 0), (mp.gamma_diss, 0, 1),
             (mp.gamma_diss, 1, 0), (mp.gamma_tilde_2, 1, 1))
    sig = (SIGMA_1, SIGMA_2)
    for rate, i, j in rates:
        sd_i = sig[i].conj().T
        out = out + 0.5 * rate * (
            2.0 * sig[j] @ rho @ sd_i - sd_i @ sig[j] @ rho - rho @ sd_i @ sig[j]
        )
    return out


def reference_m_raw(mp):
    m_raw = np.empty((16, 16))
    for k, basis_el in enumerate(reference_basis()):
        m_raw[:, k] = reference_coords(reference_generator_apply(mp, basis_el))
    return m_raw


def reference_steady_rho(mp):
    m = reference_m_raw(mp)
    m[0, :] = 0.0
    m[0, :4] = 1.0
    b = np.zeros(16)
    b[0] = 1.0
    return reference_from_coords(np.linalg.solve(m, b))


def reference_concurrence(rho):
    evals = np.linalg.eigvals(rho @ (_YY @ rho.conj() @ _YY))
    lam = np.sort(np.sqrt(np.clip(evals.real, 0.0, None)))[::-1]
    return max(0.0, lam[0] - lam[1] - lam[2] - lam[3])


def reference_dicke(rho):
    rd = DICKE @ rho @ DICKE.conj().T
    return np.array([rd[0, 0].real, rd[1, 1].real, rd[2, 2].real, rd[3, 3].real])


def steady_for(material, qd, geometry, n, intensity_w_cm2, phi=0.0):
    """Mediated parameters at the resonance; an intensity array gives a
    column with (B,) array fields."""
    drive = drive_rates(intensity_w_cm2 * W_CM2_TO_W_M2, material, qd,
                        material.omega_0, phi)
    return mediated_params(geometry(n), material, qd, drive)


RATE_FIELDS = ("delta_omega_tilde_1", "delta_omega_tilde_2", "gamma_tilde_1",
               "gamma_tilde_2", "lambda_tilde_1", "lambda_tilde_2", "g_coh", "gamma_diss")


def stack(points):
    """One MediatedParams whose fields are (B,) arrays of the points'
    fields: a heterogeneous stack that no single sweep call produces."""
    return MediatedParams(
        n=points[0].n,
        **{name: np.array([getattr(mp, name) for mp in points]) for name in RATE_FIELDS},
    )


@pytest.fixture(scope="module")
def qd_antisym_35(material):
    from plasmarray import QdParams

    return QdParams.at_resonance(
        material, 2e-9, GAMMA_I, -35.0 * GAMMA_I, 35.0 * GAMMA_I
    )


# --------------------------------------------------------------------------
# generator and solve
# --------------------------------------------------------------------------

def test_zero_drive_decays_to_ground(material, qd_resonant, geometry):
    state = steady_state(steady_for(material, qd_resonant, geometry, 2, 0.0))
    expected = np.zeros((4, 4), dtype=complex)
    expected[0, 0] = 1.0
    assert np.allclose(state.rho, expected, atol=1e-13)
    assert concurrence(state) == 0.0


def test_trace_fixed_by_construction(material, qd_resonant, geometry):
    state = steady_state(steady_for(material, qd_resonant, geometry, 3, 40.0))
    assert abs(np.trace(state.rho) - 1.0) < 1e-12


def test_stationarity_residual(material, qd_resonant, geometry):
    mp = steady_for(material, qd_resonant, geometry, 2, 25.0)
    _, m_raw = _stationarity_matrices(mp)
    state = steady_state(mp)
    assert m_raw.shape == (1, 16, 16) and state.rho.shape == (4, 4)
    x = reference_coords(state.rho)
    assert np.linalg.norm(m_raw[0] @ x) <= 1e-10 * np.linalg.norm(m_raw[0])


def test_hermiticity_and_positivity_across_sweep(material, qd_antisym_35, geometry):
    for intensity in (0.5, 4.0, 16.0, 64.0):
        state = steady_state(steady_for(material, qd_antisym_35, geometry, 1, intensity))
        state.validate()
        evals = np.linalg.eigvalsh(state.rho)
        assert evals.min() > -1e-9
        assert abs(evals.sum() - 1.0) < 1e-10


RATE = st.floats(min_value=1e7, max_value=1e12)
FREQ = st.floats(min_value=-1e12, max_value=1e12)


@st.composite
def admissible_params(draw):
    """Mediated parameters with a positive semidefinite rate matrix."""
    gamma_1, gamma_2 = draw(RATE), draw(RATE)
    mixing = draw(st.floats(min_value=-1.0, max_value=1.0))
    return MediatedParams(
        n=1,
        delta_omega_tilde_1=draw(FREQ), delta_omega_tilde_2=draw(FREQ),
        gamma_tilde_1=gamma_1, gamma_tilde_2=gamma_2,
        lambda_tilde_1=complex(draw(FREQ), draw(FREQ)),
        lambda_tilde_2=complex(draw(FREQ), draw(FREQ)),
        g_coh=draw(FREQ), gamma_diss=mixing * math.sqrt(gamma_1 * gamma_2),
    )


@settings(max_examples=60, deadline=None)
@given(st.lists(admissible_params(), min_size=1, max_size=6))
def test_batched_generator_matches_reference(params):
    rows, m_raw = _stationarity_matrices(stack(params))
    assert rows.shape == (len(params), 10) and m_raw.shape == (len(params), 16, 16)
    for mp, m in zip(params, m_raw):
        ref = reference_m_raw(mp)
        assert np.linalg.norm(m - ref) <= 1e-12 * np.linalg.norm(ref)


def test_batched_states_match_per_point_reference(material, qd_resonant, qd_antisym_35,
                                                  geometry):
    mp = steady_for(material, qd_resonant, geometry, 1, 10.0)
    points = [
        steady_for(material, qd_resonant, geometry, 2, 0.0),
        dataclasses.replace(
            mp, gamma_diss=mp.gamma_tilde_1, lambda_tilde_2=-mp.lambda_tilde_1
        ),
    ]
    for n in (1, 2, 3):
        for qd in (qd_resonant, qd_antisym_35):
            for intensity in (0.5, 4.0, 16.0, 64.0):
                points.append(steady_for(material, qd, geometry, n, intensity))
    state = steady_state(stack(points))
    conc = concurrence(state)
    pops = dicke_populations(state)
    assert state.rho.shape == (len(points), 4, 4) and conc.shape == (len(points),)
    assert conc.max() > 0.1
    for k, mp in enumerate(points):
        rho = reference_steady_rho(mp)
        assert abs(conc[k] - reference_concurrence(rho)) <= 1e-12
        batched = [pops.rho_gg[k], pops.rho_ss[k], pops.rho_aa[k], pops.rho_ee[k]]
        assert np.max(np.abs(np.array(batched) - reference_dicke(rho))) <= 1e-12


def test_single_params_is_the_stack_of_one(material, qd_antisym_35, geometry):
    mp = steady_for(material, qd_antisym_35, geometry, 1, 16.0)
    single = steady_state(mp)
    stacked = steady_state(stack([mp]))
    assert single.rho.shape == (4, 4)
    assert np.array_equal(single.rho, stacked.rho[0])
    assert concurrence(single) == concurrence(stacked)[0]
    assert isinstance(concurrence(single), float)
    assert dicke_populations(single).rho_ss == dicke_populations(stacked).rho_ss[0]


def test_dark_point_in_a_stack_names_its_rates(material, qd_resonant, geometry):
    """One degenerate point refuses the whole stack, and the error carries
    that point's collective rates, not its neighbours'."""
    column = steady_for(material, qd_resonant, geometry, 1, np.array([5.0, 10.0, 20.0]))
    middle = np.arange(3) == 1
    dark = dataclasses.replace(
        column, gamma_diss=np.where(middle, column.gamma_tilde_1, column.gamma_diss))
    with pytest.raises(NumericalError) as err:
        steady_state(dark)
    message = str(err.value)
    omega_s = np.abs(dark.lambda_tilde_1 + dark.lambda_tilde_2) / math.sqrt(2)
    assert f"gamma_a={0.0:.6e}" in message
    assert f"|omega_s|={omega_s[1]:.6e}" in message
    assert f"|omega_a|={0.0:.6e}" in message
    for neighbour in (0, 2):
        assert f"|omega_s|={omega_s[neighbour]:.6e}" not in message


def test_round_off_eigenvalues_give_one_warning_per_stack(caplog):
    rho = np.zeros((3, 4, 4), dtype=complex)
    for k, eps in enumerate((2e-12, 0.0, 5e-11)):
        rho[k] = np.diag([1.0 + eps, -eps, 0.0, 0.0])
    with caplog.at_level(logging.WARNING, logger="plasmarray.steadystate"):
        TwoQubitState(rho=rho).validate()
    records = [r for r in caplog.records if r.name == "plasmarray.steadystate"]
    assert len(records) == 1
    assert "2 of 3 states" in records[0].getMessage()
    assert f"{-5e-11:.3e}" in records[0].getMessage()


def test_stacked_validation_names_the_first_failing_state():
    """The error is the one a per-state loop would raise: the lowest
    failing index, even when a later state fails an earlier check."""
    rho = np.zeros((4, 4, 4), dtype=complex)
    rho[:, 0, 0] = 1.0
    rho[1, 0, 1] = 0.1  # not Hermitian
    rho[2] = np.diag([1.1, -0.1, 0.0, 0.0])
    with pytest.raises(NumericalError, match=r"not Hermitian: .* \(state 1\)"):
        TwoQubitState(rho=rho).validate()


def test_dark_channel_without_drive_is_rejected(material, qd_resonant, geometry):
    """gamma_a = 0 with purely symmetric drive leaves the antisymmetric
    population unconstrained; the solver must refuse rather than return
    garbage, and the error names the degenerate rates."""
    mp = steady_for(material, qd_resonant, geometry, 1, 10.0)
    dark = dataclasses.replace(mp, gamma_diss=mp.gamma_tilde_1)
    with pytest.raises(NumericalError) as err:
        steady_state(dark)
    assert "gamma_a" in str(err.value)


def test_zeroed_channel_with_antisymmetric_drive_is_well_posed(
    material, qd_resonant, geometry
):
    mp = steady_for(material, qd_resonant, geometry, 1, 10.0)
    dark_but_driven = dataclasses.replace(
        mp, gamma_diss=mp.gamma_tilde_1, lambda_tilde_2=-mp.lambda_tilde_1
    )
    state = steady_state(dark_but_driven)
    state.validate()


def test_interior_intensity_maximum(material, qd_antisym_35, geometry):
    intensities = np.arange(0.5, 80.1, 0.5)
    curve = [
        concurrence(steady_state(steady_for(material, qd_antisym_35, geometry, 1, i)))
        for i in intensities
    ]
    peak = int(np.argmax(curve))
    assert 0 < peak < len(curve) - 1
    assert curve[peak] > 0.7


# --------------------------------------------------------------------------
# concurrence unit suite
# --------------------------------------------------------------------------

def test_bell_state_concurrence_is_one():
    assert concurrence(BELL_S) == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("index", [0, 1, 2, 3])
def test_product_states_are_separable(index):
    rho = np.zeros((4, 4), dtype=complex)
    rho[index, index] = 1.0
    assert concurrence(rho) == 0.0


@pytest.mark.parametrize("p,expected", [(0.5, 0.25), (1.0 / 3.0, 0.0), (1.0, 1.0)])
def test_werner_family_analytic(p, expected):
    rho = p * BELL_S + (1.0 - p) * np.eye(4) / 4.0
    assert concurrence(rho) == pytest.approx(expected, abs=1e-10)


def test_werner_family_matches_bruteforce_oracle():
    for p in np.linspace(0.05, 0.95, 10):
        rho = p * BELL_S + (1.0 - p) * np.eye(4) / 4.0
        assert concurrence(rho) == pytest.approx(wootters_bruteforce(rho), abs=1e-10)


def test_random_states_match_bruteforce_oracle():
    rng = np.random.default_rng(42)
    for _ in range(20):
        a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        rho = a @ a.conj().T
        rho /= np.trace(rho)
        assert concurrence(rho) == pytest.approx(wootters_bruteforce(rho), abs=1e-10)


def test_steady_states_match_bruteforce_oracle(material, qd_antisym_35, geometry):
    for intensity in (2.0, 16.0, 64.0):
        state = steady_state(steady_for(material, qd_antisym_35, geometry, 1, intensity))
        assert concurrence(state) == pytest.approx(
            wootters_bruteforce(state.rho), abs=1e-10
        )


def test_swap_invariance(material, qd_antisym_35, geometry):
    state = steady_state(steady_for(material, qd_antisym_35, geometry, 1, 16.0))
    swapped = SWAP @ state.rho @ SWAP
    assert concurrence(state) == pytest.approx(concurrence(swapped), abs=1e-12)


def _exchanged(mp: MediatedParams) -> MediatedParams:
    """The same parameters with dot 1 and dot 2 relabelled."""
    return dataclasses.replace(
        mp,
        delta_omega_tilde_1=mp.delta_omega_tilde_2, delta_omega_tilde_2=mp.delta_omega_tilde_1,
        gamma_tilde_1=mp.gamma_tilde_2, gamma_tilde_2=mp.gamma_tilde_1,
        lambda_tilde_1=mp.lambda_tilde_2, lambda_tilde_2=mp.lambda_tilde_1,
    )


# the geometry fixture is a stateless factory, safe to share across examples
@settings(max_examples=80, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(n=st.integers(min_value=1, max_value=17),
       detunings=st.tuples(st.floats(-100.0, 100.0), st.floats(-100.0, 100.0)),
       log_intensity=st.floats(-2.0, 3.0), phi=st.floats(0.0, 2.0 * math.pi),
       purcell_2=st.floats(0.5, 2.0))
def test_exchanging_the_dots_swaps_the_state(material, geometry, n, detunings, log_intensity,
                                             phi, purcell_2):
    """Chain-mediated parameters with unequal detunings, a phased drive and
    unequal Purcell rates: relabelling the dots (detunings, dressed
    drives, Purcell rates) maps rho to SWAP rho SWAP and leaves the Dicke
    populations unchanged within 1e-12.  C is compared at 1e-11: its
    general eigensolve of rho rho~ turns the ~1e-15 difference between the
    two states into up to ~1e-12 near small eigenvalues."""
    qd = QdParams.at_resonance(material, R_QD, GAMMA_I, detunings[0] * GAMMA_I,
                               detunings[1] * GAMMA_I)
    mp = steady_for(material, qd, geometry, n, 10.0**log_intensity, phi)
    # gamma_diss^2 / (gamma~_1 gamma~_2) is kept, so the rate matrix stays admissible
    mp = dataclasses.replace(mp, gamma_tilde_2=purcell_2 * mp.gamma_tilde_2,
                             gamma_diss=math.sqrt(purcell_2) * mp.gamma_diss)
    state = steady_state(mp)
    exchanged = steady_state(_exchanged(mp))
    assert np.max(np.abs(exchanged.rho - SWAP @ state.rho @ SWAP)) <= 1e-12
    assert abs(concurrence(exchanged) - concurrence(state)) <= 1e-11
    pops, pops_x = dicke_populations(state), dicke_populations(exchanged)
    for field in ("rho_gg", "rho_ss", "rho_aa", "rho_ee"):
        assert abs(getattr(pops_x, field) - getattr(pops, field)) <= 1e-12


def test_global_drive_phase_invariance(material, qd_antisym_35, geometry):
    mp = steady_for(material, qd_antisym_35, geometry, 1, 16.0)
    c_ref = concurrence(steady_state(mp))
    for theta in (0.3, 1.2, 2.9):
        rot = complex(math.cos(theta), math.sin(theta))
        mp_rot = dataclasses.replace(
            mp,
            lambda_tilde_1=mp.lambda_tilde_1 * rot,
            lambda_tilde_2=mp.lambda_tilde_2 * rot,
        )
        assert concurrence(steady_state(mp_rot)) == pytest.approx(c_ref, abs=1e-12)


def test_concurrence_input_validation():
    with pytest.raises(DomainError):
        concurrence(np.eye(3))


# --------------------------------------------------------------------------
# Dicke populations and the X-state closed form
# --------------------------------------------------------------------------

def test_single_excitation_decomposition():
    rho = np.zeros((4, 4), dtype=complex)
    rho[1, 1] = 1.0
    pops = dicke_populations(TwoQubitState(rho=rho))
    assert pops.rho_ss == pytest.approx(0.5, abs=1e-12)
    assert pops.rho_aa == pytest.approx(0.5, abs=1e-12)
    assert pops.rho_sa == pytest.approx(0.5 + 0j, abs=1e-12)


def test_bell_state_population():
    pops = dicke_populations(TwoQubitState(rho=BELL_S))
    assert pops.rho_ss == pytest.approx(1.0, abs=1e-12)
    assert pops.rho_gg == pops.rho_aa == pops.rho_ee == pytest.approx(0.0, abs=1e-12)


def test_population_sum_preserved(material, qd_antisym_35, geometry):
    state = steady_state(steady_for(material, qd_antisym_35, geometry, 1, 30.0))
    pops = dicke_populations(state)
    total = pops.rho_gg + pops.rho_ss + pops.rho_aa + pops.rho_ee
    assert total == pytest.approx(1.0, abs=1e-10)
    for p in (pops.rho_gg, pops.rho_ss, pops.rho_aa, pops.rho_ee):
        assert -1e-9 <= p <= 1.0 + 1e-9


def test_symmetric_drive_leaves_sa_coherence_real(material, qd_resonant, geometry):
    # swap symmetry forces rho_sa to vanish entirely for identical dots
    state = steady_state(steady_for(material, qd_resonant, geometry, 3, 40.0))
    pops = dicke_populations(state)
    assert abs(pops.rho_sa.imag) < 1e-12
    assert abs(pops.rho_sa) < 1e-10


def test_dicke_rotation_is_unitary():
    from plasmarray.steadystate import _DICKE_ROTATION

    assert np.allclose(
        _DICKE_ROTATION @ _DICKE_ROTATION.conj().T, np.eye(4), atol=1e-14
    )


def test_lowering_operators_have_computational_ordering():
    # |1> = dot 1 excited, |2> = dot 2 excited
    ket1 = np.zeros(4)
    ket1[1] = 1.0
    assert np.allclose(SIGMA_1 @ ket1, [1, 0, 0, 0])
    assert np.allclose(SIGMA_2 @ ket1, 0.0)
    ket2 = np.zeros(4)
    ket2[2] = 1.0
    assert np.allclose(SIGMA_2 @ ket2, [1, 0, 0, 0])
