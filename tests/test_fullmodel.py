"""Explicit-mode (Fock space) simulation and its agreement with the
effective model."""

import numpy as np
import pytest

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
from plasmarray.constants import W_CM2_TO_W_M2
from plasmarray.fullmodel import (
    _site_operator,
    build_full_system,
    liouvillian,
    mean_mode_occupation,
    reduce_to_qubits,
    steady_state_full,
    trace_preservation_defect,
)

from conftest import GAMMA_I, GAP, R_MNP, R_QD


def _drive(material, qd, intensity_w_cm2, phi=0.0):
    return drive_rates(intensity_w_cm2 * W_CM2_TO_W_M2, material, qd,
                       material.omega_0, phi)


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
    assert system.h.shape == (cfg.dim, cfg.dim)
    for _, op in system.collapse:
        assert op.shape == (cfg.dim, cfg.dim)
    l_op = liouvillian(system)
    assert l_op.shape == (cfg.dim**2, cfg.dim**2)


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
    assert (system.h - system.h.getH()).nnz == 0 or np.max(
        np.abs((system.h - system.h.getH()).data)
    ) < 1e-6


def test_memory_budget_refusal(material, qd_resonant, geometry):
    cfg = FockConfig(n=3, fock_levels=4, memory_budget_bytes=1 << 20)
    with pytest.raises(MemoryBudgetError) as err:
        build_full_system(
            geometry(3), material, qd_resonant, _drive(material, qd_resonant, 1.0), cfg
        )
    assert "GiB" in str(err.value)


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
    rho = steady_state_full(liouvillian(system), cfg.dim)
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
    rho = steady_state_full(liouvillian(system), cfg.dim)
    assert rho[0, 0].real == pytest.approx(1.0, abs=1e-12)


def test_trace_one_and_hermitian(material, qd_resonant, geometry):
    cfg = FockConfig(n=2, fock_levels=3)
    system = build_full_system(
        geometry(2), material, qd_resonant, _drive(material, qd_resonant, 40.0), cfg
    )
    rho = steady_state_full(liouvillian(system), cfg.dim)
    assert abs(np.trace(rho).real - 1.0) < 1e-10
    assert np.max(np.abs(rho - rho.conj().T)) < 1e-12


def test_superoperator_preserves_trace(material, qd_resonant, geometry):
    cfg = FockConfig(n=2, fock_levels=3)
    system = build_full_system(
        geometry(2), material, qd_resonant, _drive(material, qd_resonant, 20.0), cfg
    )
    assert trace_preservation_defect(liouvillian(system), cfg.dim) < 1e-10


def test_weak_drive_keeps_modes_barely_occupied(material, qd_resonant, geometry):
    cfg = FockConfig(n=1, fock_levels=4)
    system = build_full_system(
        geometry(1), material, qd_resonant, _drive(material, qd_resonant, 80.0), cfg
    )
    rho = steady_state_full(liouvillian(system), cfg.dim)
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
    rho = steady_state_full(liouvillian(system), cfg.dim)
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
        rho = steady_state_full(liouvillian(system), cfg.dim)
        concs[nlev] = concurrence(reduce_to_qubits(rho, cfg))
    assert abs(concs[3] - concs[4]) < 0.01

