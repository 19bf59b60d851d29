"""Explicit-mode (Fock space) simulation and its agreement with the
effective model."""

import dataclasses
import tracemalloc

import numpy as np
import pytest
import scipy.sparse.linalg as spla

from plasmarray import (
    ArrayGeometry,
    DomainError,
    FockConfig,
    MemoryBudgetError,
    QdParams,
    concurrence,
    drive_rates,
    validate_against_effective,
)
from plasmarray import fullmodel
from plasmarray.constants import W_CM2_TO_W_M2
from plasmarray.effective import complex_pole
from plasmarray.fullmodel import (
    _site_operator,
    build_full_system,
    liouvillian,
    reduce_to_qubits,
    steady_state_full,
)
from plasmarray.plasmonics import bare_couplings

from conftest import GAMMA_I, GAP, R_MNP, R_QD


def _drive(material, qd, intensity_w_cm2, phi=0.0):
    return drive_rates(np.asarray(intensity_w_cm2) * W_CM2_TO_W_M2, material, qd,
                       material.omega_0, phi)


def _hamiltonian(system):
    """The Hamiltonian of a system built at a single intensity."""
    return system.h0 + float(system.e0) * system.h1


def _generator(system):
    """The Lindblad generator of a system built at a single intensity."""
    return liouvillian(_hamiltonian(system), system.collapse)


def trace_preservation_defect(l_op, dim: int) -> float:
    """Norm of vec(I)^T L relative to ||L||; zero for a trace-preserving map."""
    tr_vec = np.zeros(dim * dim)
    tr_vec[np.arange(dim) * (dim + 1)] = 1.0
    defect = np.abs(tr_vec @ l_op)
    return float(defect.max() / max(spla.norm(l_op), 1.0))


def mean_mode_occupation(rho_full, cfg: FockConfig, mode: int = 0) -> float:
    """<a_m^+ a_m> in the full steady state."""
    number = np.diag(np.arange(cfg.fock_levels)).astype(complex)
    op = _site_operator(number, 2 + mode, cfg.dims)
    return float(np.trace(op @ rho_full).real)


def _reference_hamiltonian(geom, material, qd, drive, cfg):
    """The full Hamiltonian written out at one drive, term by term."""
    lower = np.array([[0, 1], [0, 0]], dtype=complex)
    annihilate = np.diag(np.sqrt(np.arange(1, cfg.fock_levels)), k=1).astype(complex)
    s1 = _site_operator(lower, 0, cfg.dims)
    s2 = _site_operator(lower, 1, cfg.dims)
    modes = [_site_operator(annihilate, 2 + m, cfg.dims) for m in range(cfg.n)]
    bc = bare_couplings(geom, qd, material)
    pole = complex_pole(material, qd, drive.omega)
    h = pole.detuning_1 * (s1.getH() @ s1) + pole.detuning_2 * (s2.getH() @ s2)
    h = h - (drive.lambda_1 * s1.getH() + np.conj(drive.lambda_1) * s1)
    h = h - (drive.lambda_2 * s2.getH() + np.conj(drive.lambda_2) * s2)
    for a_m in modes:
        h = h + pole.detuning_0 * (a_m.getH() @ a_m)
        h = h - (drive.omega_m * a_m.getH() + np.conj(drive.omega_m) * a_m)
    for m in range(cfg.n - 1):
        h = h - bc.kappa * (modes[m].getH() @ modes[m + 1] + modes[m] @ modes[m + 1].getH())
    h = h - bc.g * (s1.getH() @ modes[0] + s1 @ modes[0].getH())
    h = h - bc.g * (s2.getH() @ modes[-1] + s2 @ modes[-1].getH())
    return h.tocsr()


class _CountingSolvers:
    """Stands in for scipy.sparse.linalg inside fullmodel and counts calls.

    fail_lgmres(k) decides whether the k-th LGMRES call (from 1) reports
    non-convergence (info = 1) instead of running.  fail_spilu(k) decides
    whether the k-th spilu call raises RuntimeError, as SuperLU does for an
    exactly singular factor.
    """

    def __init__(self, fail_lgmres=lambda k: False, fail_spilu=lambda k: False):
        self.calls = {"spilu": 0, "lgmres": 0, "spsolve": 0}
        self._fail_lgmres = fail_lgmres
        self._fail_spilu = fail_spilu

    def __getattr__(self, name):
        return getattr(spla, name)

    def spilu(self, *args, **kwargs):
        self.calls["spilu"] += 1
        if self._fail_spilu(self.calls["spilu"]):
            raise RuntimeError("Factor is exactly singular")
        return spla.spilu(*args, **kwargs)

    def spsolve(self, *args, **kwargs):
        self.calls["spsolve"] += 1
        return spla.spsolve(*args, **kwargs)

    def lgmres(self, a, b, **kwargs):
        self.calls["lgmres"] += 1
        if self._fail_lgmres(self.calls["lgmres"]):
            return np.zeros_like(b), 1
        return spla.lgmres(a, b, **kwargs)


NO_SOLVER_CALLS = {"spilu": 0, "lgmres": 0, "spsolve": 0}


# --------------------------------------------------------------------------
# dimensions and operator algebra
# --------------------------------------------------------------------------

def test_dimension_formula():
    assert FockConfig(n=1, fock_levels=2).dim == 8
    assert FockConfig(n=3, fock_levels=4).dim == 256
    assert FockConfig(n=3, fock_levels=4).dim ** 2 == 65536
    assert FockConfig(n=4, fock_levels=4).dims == (2, 2, 4, 4, 4, 4)


def test_fock_levels_validation():
    with pytest.raises(DomainError):
        FockConfig(n=1, fock_levels=1)
    with pytest.raises(DomainError):
        FockConfig(n=0, fock_levels=4)


def test_truncated_ladder_algebra():
    """[a, a^+] = 1 on every level below the truncation edge."""
    nlev = 4
    a = np.diag(np.sqrt(np.arange(1, nlev)), k=1)
    comm = a @ a.T - a.T @ a
    assert np.allclose(np.diag(comm)[: nlev - 1], 1.0, atol=1e-14)


def test_distinct_modes_commute():
    dims = (2, 2, 3, 3)
    lower = np.diag(np.sqrt(np.arange(1, 3)), k=1)
    a1 = _site_operator(lower, 2, dims)
    a2 = _site_operator(lower, 3, dims)
    comm = a1 @ a2.getH() - a2.getH() @ a1
    assert abs(comm).max() < 1e-14


def test_operator_shapes_and_embedding(material, qd_resonant, geometry):
    cfg = FockConfig(n=2, fock_levels=3)
    system = build_full_system(
        geometry(2), material, qd_resonant, _drive(material, qd_resonant, 1.0), cfg
    )
    assert system.h0.shape == system.h1.shape == (cfg.dim, cfg.dim)
    for _, op in system.collapse:
        assert op.shape == (cfg.dim, cfg.dim)
    assert liouvillian(system.h0, system.collapse).shape == (cfg.dim**2, cfg.dim**2)
    assert liouvillian(system.h1).shape == (cfg.dim**2, cfg.dim**2)


def test_kron_ordering_is_dot1_dot2_modes():
    dims = (2, 2, 3)
    number = np.diag([0.0, 1.0, 2.0])
    op = _site_operator(number, 2, dims).toarray()
    # acting on |g g 2>: eigenvalue 2 at raveled index 2
    ket = np.zeros(12)
    ket[2] = 1.0
    assert np.allclose(op @ ket, 2.0 * ket)


def test_hamiltonian_is_hermitian(material, qd_resonant, geometry):
    cfg = FockConfig(n=2, fock_levels=3)
    system = build_full_system(
        geometry(2), material, qd_resonant,
        _drive(material, qd_resonant, 10.0, phi=0.7), cfg,
    )
    for h in (system.h0, system.h1, _hamiltonian(system)):
        assert (h - h.getH()).nnz == 0 or np.max(np.abs((h - h.getH()).data)) < 1e-6


def test_memory_budget_refusal(material, qd_resonant, geometry):
    cfg = FockConfig(n=3, fock_levels=4, memory_budget_bytes=1 << 20)
    with pytest.raises(MemoryBudgetError) as err:
        build_full_system(
            geometry(3), material, qd_resonant, _drive(material, qd_resonant, 1.0), cfg
        )
    assert "GiB" in str(err.value)


@pytest.mark.parametrize("n, nlev", [(1, 4), (2, 4), (3, 3), (3, 4)])
def test_memory_estimate_bounds_the_assembled_solve(material, qd_resonant, geometry,
                                                    n, nlev):
    """The budget estimate for one held state covers the tracemalloc peak
    of iter_steady_states over a case: assembly, the sector inverse, the
    Arnoldi vectors and the checked states."""
    cfg = FockConfig(n=n, fock_levels=nlev)
    system = build_full_system(geometry(n), material, qd_resonant,
                               _drive(material, qd_resonant, [0.5, 20.0, 80.0]), cfg)
    tracemalloc.start()
    try:
        for _ in fullmodel.iter_steady_states(system):
            pass
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= cfg.estimated_solve_bytes(states=1)


def test_level_sizes_count_the_basis():
    for n, nlev in [(1, 2), (2, 4), (3, 3)]:
        levels = np.indices(FockConfig(n=n, fock_levels=nlev).dims).sum(0).ravel()
        assert fullmodel._level_sizes(n, nlev).tolist() == np.bincount(levels).tolist()


def test_config_geometry_mismatch(material, qd_resonant, geometry):
    cfg = FockConfig(n=2, fock_levels=3)
    with pytest.raises(DomainError):
        build_full_system(
            geometry(3), material, qd_resonant, _drive(material, qd_resonant, 1.0), cfg
        )


# --------------------------------------------------------------------------
# steady states
# --------------------------------------------------------------------------

def test_undriven_system_relaxes_to_vacuum(material, qd_resonant, geometry):
    cfg = FockConfig(n=1, fock_levels=3)
    system = build_full_system(
        geometry(1), material, qd_resonant, _drive(material, qd_resonant, 0.0), cfg
    )
    rho = steady_state_full(system)
    expected = np.zeros((cfg.dim, cfg.dim), dtype=complex)
    expected[0, 0] = 1.0
    assert np.allclose(rho, expected, atol=1e-12)


def test_decoupled_system_relaxes_to_vacuum(material, qd_resonant):
    # s_z = 0 switches off every dipole coupling; block-diagonal decay
    geom = ArrayGeometry(r=R_MNP, r0=R_QD, s=GAP, n=2, s_z=0.0)
    cfg = FockConfig(n=2, fock_levels=2)
    system = build_full_system(
        geom, material, qd_resonant, _drive(material, qd_resonant, 0.0), cfg
    )
    rho = steady_state_full(system)
    assert rho[0, 0].real == pytest.approx(1.0, abs=1e-12)


def test_trace_one_and_hermitian(material, qd_resonant, geometry):
    cfg = FockConfig(n=2, fock_levels=3)
    system = build_full_system(
        geometry(2), material, qd_resonant, _drive(material, qd_resonant, 40.0), cfg
    )
    rho = steady_state_full(system)
    assert abs(np.trace(rho).real - 1.0) < 1e-10
    assert np.max(np.abs(rho - rho.conj().T)) < 1e-12


def test_superoperator_preserves_trace(material, qd_resonant, geometry):
    cfg = FockConfig(n=2, fock_levels=3)
    system = build_full_system(
        geometry(2), material, qd_resonant, _drive(material, qd_resonant, 20.0), cfg
    )
    assert trace_preservation_defect(_generator(system), cfg.dim) < 1e-10


def test_weak_drive_keeps_modes_barely_occupied(material, qd_resonant, geometry):
    cfg = FockConfig(n=1, fock_levels=4)
    system = build_full_system(
        geometry(1), material, qd_resonant, _drive(material, qd_resonant, 80.0), cfg
    )
    rho = steady_state_full(system)
    assert mean_mode_occupation(rho, cfg, 0) < 0.05


# --------------------------------------------------------------------------
# reduction to the two dots
# --------------------------------------------------------------------------

def test_partial_trace_of_product_state():
    cfg = FockConfig(n=1, fock_levels=3)
    # |e_1 g_2> x |vacuum>: raveled index (1,0,0) -> 1*2*3 + 0*3 + 0 = 6
    psi = np.zeros(cfg.dim, dtype=complex)
    psi[6] = 1.0
    state = reduce_to_qubits(np.outer(psi, psi.conj()), cfg)
    # computational label |1> = dot 1 excited
    assert state.rho[1, 1].real == pytest.approx(1.0, abs=1e-14)
    assert abs(np.trace(state.rho) - 1.0) < 1e-14


def test_partial_trace_preserves_trace(material, qd_resonant, geometry):
    cfg = FockConfig(n=2, fock_levels=3)
    system = build_full_system(
        geometry(2), material, qd_resonant, _drive(material, qd_resonant, 40.0), cfg
    )
    rho = steady_state_full(system)
    state = reduce_to_qubits(rho, cfg).validate()
    assert abs(np.trace(state.rho) - 1.0) < 1e-10


def test_entangled_dot_mode_state_reduces_to_mixed():
    cfg = FockConfig(n=1, fock_levels=3)
    # (|e g 0> + |g g 1>)/sqrt(2): dot 1 entangled with the mode
    psi = np.zeros(cfg.dim, dtype=complex)
    psi[6] = 1.0 / np.sqrt(2.0)   # (1,0,0)
    psi[1] = 1.0 / np.sqrt(2.0)   # (0,0,1)
    state = reduce_to_qubits(np.outer(psi, psi.conj()), cfg)
    purity = float(np.trace(state.rho @ state.rho).real)
    assert purity < 1.0 - 1e-6


# --------------------------------------------------------------------------
# agreement with the effective model
# --------------------------------------------------------------------------

def test_agreement_single_particle(material, geometry):
    qd = QdParams.at_resonance(
        material, R_QD, GAMMA_I, 80.0 * GAMMA_I, -80.0 * GAMMA_I
    )
    cfg = FockConfig(n=1, fock_levels=4)
    table = validate_against_effective(
        geometry(1), material, qd, cfg,
        [i * W_CM2_TO_W_M2 for i in (0.0, 20.0, 80.0)],
    )
    assert table.rows[0].c_eff == 0.0
    assert table.rows[0].c_full == 0.0
    assert table.rows[-1].c_full > 0.5
    assert table.max_abs_diff < 1e-3


def test_agreement_two_particles_nonzero_concurrence(material, geometry):
    qd = QdParams.at_resonance(
        material, R_QD, GAMMA_I, -10.0 * GAMMA_I, -10.0 * GAMMA_I
    )
    cfg = FockConfig(n=2, fock_levels=4)
    table = validate_against_effective(
        geometry(2), material, qd, cfg, [1.5 * W_CM2_TO_W_M2]
    )
    assert table.rows[0].c_full > 0.02
    assert table.max_abs_diff < 1e-3


def test_truncation_convergence_single_particle(material, geometry):
    qd = QdParams.at_resonance(
        material, R_QD, GAMMA_I, 80.0 * GAMMA_I, -80.0 * GAMMA_I
    )
    geom = geometry(1)
    concs = {}
    for nlev in (3, 4):
        cfg = FockConfig(n=1, fock_levels=nlev)
        system = build_full_system(geom, material, qd, _drive(material, qd, 80.0), cfg)
        rho = steady_state_full(system)
        concs[nlev] = concurrence(reduce_to_qubits(rho, cfg))
    assert abs(concs[3] - concs[4]) < 0.01



# --------------------------------------------------------------------------
# one case: L(e0) = L_0 + e0 L_1, the exact inverse of the undriven
# generator and one shifted Arnoldi run for all its intensities
# --------------------------------------------------------------------------

@pytest.mark.parametrize("n, nlev", [(1, 3), (2, 3), (3, 2)])
def test_case_generator_matches_direct_assembly(material, geometry, n, nlev):
    """L_0 + e0 L_1 equals the generator assembled at each intensity."""
    qd = QdParams.at_resonance(material, R_QD, GAMMA_I, 10.0 * GAMMA_I, -10.0 * GAMMA_I)
    cfg = FockConfig(n=n, fock_levels=nlev)
    intensities = [0.0, 0.5, 3.0, 80.0]
    drive = _drive(material, qd, intensities, phi=0.7)
    system = build_full_system(geometry(n), material, qd, drive, cfg)
    l_0 = liouvillian(system.h0, system.collapse)
    l_1 = liouvillian(system.h1)
    assert np.all(l_1.data != 0)
    for k, intensity in enumerate(intensities):
        one = _drive(material, qd, intensity, phi=0.7)
        assert one.e0 == system.e0[k]
        ref = liouvillian(_reference_hamiltonian(geometry(n), material, qd, one, cfg),
                          system.collapse)
        case = l_0 + system.e0[k] * l_1
        assert spla.norm(case - ref) <= 1e-14 * spla.norm(ref)
        assert case.nnz == ref.nnz
        single = build_full_system(geometry(n), material, qd, one, cfg)
        assert spla.norm(_generator(single) - ref) <= 1e-14 * spla.norm(ref)


def _detuned_pair(material):
    return QdParams.at_resonance(material, R_QD, GAMMA_I, -10.0 * GAMMA_I, -10.0 * GAMMA_I)


def _scale(l_0) -> float:
    return float(np.max(np.abs(l_0.data)))


@pytest.mark.parametrize("n, nlev", [(1, 4), (2, 3), (2, 4), (3, 3)])
def test_sector_inverse_reproduces_v(material, geometry, n, nlev):
    """A_0 z = v for a random complex v (Hermitian and anti-Hermitian parts
    both present) and for its Hermitian part, to a normwise backward error
    ||A_0 z - v|| / (||A_0|| ||z|| + ||v||) within 1e-13.  A random v
    excites the slowest decays, so ||z|| reaches ~1e7 ||v|| and even a
    dense LU leaves ||A_0 z - v|| ~ 1e-10 ||v|| at (1, 4)."""
    qd = _detuned_pair(material)
    cfg = FockConfig(n=n, fock_levels=nlev)
    system = build_full_system(geometry(n), material, qd, _drive(material, qd, 1.5), cfg)
    l_0 = liouvillian(system.h0, system.collapse)
    inverse = fullmodel._SectorInverse.of(system, _scale(l_0))
    a_0 = fullmodel._trace_constrained(l_0, cfg.dim, _scale(l_0))
    rng = np.random.default_rng(n * 10 + nlev)
    v = rng.standard_normal(cfg.dim**2) + 1j * rng.standard_normal(cfg.dim**2)
    m = v.reshape(cfg.dim, cfg.dim)
    for rhs in (v, (m + m.conj().T).ravel()):
        z = inverse.solve(rhs)
        scale = spla.norm(a_0) * np.linalg.norm(z) + np.linalg.norm(rhs)
        assert np.linalg.norm(a_0 @ z - rhs) <= 1e-13 * scale
        if cfg.dim**2 <= 1296:
            ref = np.linalg.solve(a_0.toarray(), rhs)
            assert np.linalg.norm(z - ref) <= 1e-10 * np.linalg.norm(ref)


def test_frobenius_parts_give_the_generator_norm(material, geometry):
    qd = _detuned_pair(material)
    cfg = FockConfig(n=2, fock_levels=3)
    drive = _drive(material, qd, [0.0, 0.5, 3.0, 80.0])
    system = build_full_system(geometry(2), material, qd, drive, cfg)
    l_0 = liouvillian(system.h0, system.collapse)
    l_1 = liouvillian(system.h1)
    n0, cross, n1 = fullmodel._frobenius_parts(l_0, l_1)
    for e0 in system.e0:
        ref = spla.norm(l_0 + e0 * l_1)
        assert abs(np.sqrt(n0 + e0 * (cross + e0 * n1)) - ref) <= 1e-12 * ref


def _fresh_c_full(material, geometry, qd, cfg, intensity_w_cm2):
    system = build_full_system(geometry(cfg.n), material, qd,
                               _drive(material, qd, intensity_w_cm2), cfg)
    return concurrence(reduce_to_qubits(steady_state_full(system), cfg))


def test_multi_intensity_case_matches_fresh_solves(material, geometry, monkeypatch):
    """One case over four intensities: no sparse solver call at all, and
    the same concurrence as a separate solve (own assembly, own run) per
    point."""
    qd = _detuned_pair(material)
    cfg = FockConfig(n=2, fock_levels=4)
    intensities = (0.0, 0.5, 1.5, 3.0)
    solvers = _CountingSolvers()
    monkeypatch.setattr(fullmodel, "spla", solvers)
    table = validate_against_effective(
        geometry(2), material, qd, cfg, [i * W_CM2_TO_W_M2 for i in intensities]
    )
    assert solvers.calls == NO_SOLVER_CALLS
    for intensity, row in zip(intensities, table.rows):
        fresh = _fresh_c_full(material, geometry, qd, cfg, intensity)
        assert abs(row.c_full - fresh) <= 1e-10
        if intensity > 0:
            assert row.c_full > 0.01


def _assert_solves_case(system, states, clean, cfg):
    """Each state passes its own residual check and matches the clean
    solve's concurrence within 1e-10."""
    l_0 = liouvillian(system.h0, system.collapse)
    l_1 = liouvillian(system.h1)
    for e0, rho, ref in zip(system.e0, states, clean):
        l_op = l_0 + e0 * l_1
        assert np.linalg.norm(l_op @ rho.ravel()) <= 1e-8 * spla.norm(l_op)
        assert abs(concurrence(reduce_to_qubits(rho, cfg))
                   - concurrence(reduce_to_qubits(ref, cfg))) <= 1e-10


def _three_point_case(material, geometry, intensities=(0.5, 1.5, 3.0)):
    qd = _detuned_pair(material)
    cfg = FockConfig(n=2, fock_levels=3)
    system = build_full_system(geometry(2), material, qd,
                               _drive(material, qd, intensities), cfg)
    return system, cfg


@pytest.mark.parametrize("constant, value", [
    # the run stops before any intensity converges
    ("ARNOLDI_MAX_STEPS", 2),
    # every intensity stops at the first step, and its state then fails
    # the residual check
    ("ARNOLDI_RTOL", 1.0),
], ids=["max-steps-2", "loose-arnoldi-tolerance"])
def test_unsolved_amplitudes_fall_back_per_point(material, geometry, monkeypatch,
                                                 constant, value):
    """Each point the Arnoldi run leaves unsolved or wrong is solved on its
    own: one LGMRES call preconditioned by the exact inverse."""
    system, cfg = _three_point_case(material, geometry)
    clean = steady_state_full(system)
    solvers = _CountingSolvers()
    monkeypatch.setattr(fullmodel, "spla", solvers)
    monkeypatch.setattr(fullmodel, constant, value)
    states = steady_state_full(system)
    assert solvers.calls == {"spilu": 0, "lgmres": 3, "spsolve": 0}
    _assert_solves_case(system, states, clean, cfg)


@pytest.mark.parametrize("fail, expected", [
    # LGMRES with the case's exact inverse fails from the second point on:
    # each of those points gets its own ILU, and no point hands its factor on
    (lambda k: k > 1 and k % 2 == 0, {"spilu": 2, "lgmres": 5, "spsolve": 0}),
    # LGMRES never converges: every point runs the whole chain (the exact
    # inverse, its own ILU 1e-2 and 1e-4, then a sparse LU)
    (lambda k: True, {"spilu": 6, "lgmres": 9, "spsolve": 3}),
], ids=["first-factor-goes-stale", "lgmres-never-converges"])
def test_failed_shared_factor_escalates(material, geometry, monkeypatch, fail, expected):
    system, cfg = _three_point_case(material, geometry)
    clean = steady_state_full(system)
    solvers = _CountingSolvers(fail)
    monkeypatch.setattr(fullmodel, "spla", solvers)
    monkeypatch.setattr(fullmodel, "ARNOLDI_MAX_STEPS", 2)
    states = steady_state_full(system)
    assert solvers.calls == expected
    _assert_solves_case(system, states, clean, cfg)


def test_singular_undriven_factor_falls_back_per_point(material, geometry, monkeypatch):
    """Without the exact inverse every point runs its own chain from its
    own ILU, and a singular ILU 1e-2 moves on to ILU 1e-4."""
    system, cfg = _three_point_case(material, geometry)
    clean = steady_state_full(system)
    solvers = _CountingSolvers(fail_spilu=lambda k: k == 1)
    monkeypatch.setattr(fullmodel, "spla", solvers)
    monkeypatch.setattr(fullmodel._SectorInverse, "of", classmethod(lambda cls, *args: None))
    states = steady_state_full(system)
    assert solvers.calls == {"spilu": 4, "lgmres": 3, "spsolve": 0}
    _assert_solves_case(system, states, clean, cfg)


def test_counter_rotating_term_falls_back_per_point(material, geometry, monkeypatch):
    """A counter-rotating exchange g (s_1^+ a^+ + s_1 a) breaks the
    excitation-number structure: the case has no exact inverse, and each
    point is solved by its own chain and passes its checks."""
    system, cfg = _three_point_case(material, geometry)
    lower = np.array([[0, 1], [0, 0]], dtype=complex)
    annihilate = np.diag(np.sqrt(np.arange(1, cfg.fock_levels)), k=1).astype(complex)
    s1 = _site_operator(lower, 0, cfg.dims)
    a_1 = _site_operator(annihilate, 2, cfg.dims)
    g = bare_couplings(geometry(2), _detuned_pair(material), material).g
    system.h0 = (system.h0 + 0.1 * g * (s1.getH() @ a_1.getH() + s1 @ a_1)).tocsr()
    l_0 = liouvillian(system.h0, system.collapse)
    assert fullmodel._SectorInverse.of(system, _scale(l_0)) is None
    solvers = _CountingSolvers()
    monkeypatch.setattr(fullmodel, "spla", solvers)
    states = steady_state_full(system)
    assert solvers.calls["spilu"] >= 3 and solvers.calls["lgmres"] >= 3
    l_1 = liouvillian(system.h1)
    for e0, rho in zip(system.e0, states):
        l_op = l_0 + e0 * l_1
        assert np.linalg.norm(l_op @ rho.ravel()) <= 1e-8 * spla.norm(l_op)
        assert abs(np.trace(rho).real - 1.0) <= 1e-10


def test_state_does_not_depend_on_the_intensity_grid(material, geometry):
    """Within one case (the same h0, h1 and collapse channels), each
    amplitude's state is bit-identical whether it is solved alone, in the
    grid or in the reversed grid."""
    system, _ = _three_point_case(material, geometry, (0.0, 0.5, 1.5, 3.0, 80.0))
    grid = steady_state_full(system)
    reverse = steady_state_full(dataclasses.replace(system, e0=system.e0[::-1]))
    assert np.array_equal(grid, reverse[::-1])
    for k, rho in enumerate(grid):
        alone = dataclasses.replace(system, e0=system.e0[k:k + 1])
        assert np.array_equal(steady_state_full(alone)[0], rho)


def test_validator_budget_counts_one_held_state(material, geometry):
    """The validator reduces each full state before the next is solved, so
    its budget counts one held state; the stack of steady_state_full counts
    one per intensity.  Both give the same states."""
    qd = _detuned_pair(material)
    intensities = (0.5, 1.5, 3.0)
    roomy = FockConfig(n=2, fock_levels=3)
    one, stack = roomy.estimated_solve_bytes(1), roomy.estimated_solve_bytes(3)
    tight = FockConfig(n=2, fock_levels=3, memory_budget_bytes=(one + stack) // 2)
    table = validate_against_effective(geometry(2), material, qd, tight,
                                       [i * W_CM2_TO_W_M2 for i in intensities])
    drive = _drive(material, qd, intensities)
    with pytest.raises(MemoryBudgetError):
        steady_state_full(build_full_system(geometry(2), material, qd, drive, tight))
    states = steady_state_full(build_full_system(geometry(2), material, qd, drive, roomy))
    assert [row.c_full for row in table.rows] == [
        concurrence(reduce_to_qubits(rho, roomy)) for rho in states]


def test_empty_intensity_grid_gives_an_empty_table(material, qd_resonant, geometry):
    table = validate_against_effective(geometry(1), material, qd_resonant,
                                       FockConfig(n=1, fock_levels=3), [])
    assert table.rows == []

