"""Explicit-mode (Fock space) simulation and its agreement with the
effective model."""

import re
import tracemalloc

import numpy as np
import pytest
import scipy.sparse
import scipy.sparse.linalg as spla

from plasmarray import (
    ArrayGeometry,
    DomainError,
    DrudeMetal,
    FockConfig,
    HostMedium,
    MemoryBudgetError,
    QdParams,
    check_states,
    concurrence,
    derive_material,
    drive_rates,
    validate_against_effective,
)
from plasmarray import NumericalError, fullmodel
from plasmarray.constants import W_CM2_TO_W_M2
from plasmarray.effective import complex_pole
from plasmarray.fullmodel import build_full_system, reduce_to_qubits
from plasmarray.plasmonics import bare_couplings

from _lindblad import (
    bands,
    case_generators,
    collapse_operators,
    dense,
    hamiltonians,
    liouvillian,
    lowering,
    site_operator,
    steady_state_full,
    trace_constrained,
)
from conftest import EPS_INF, EPS_M, GAMMA_I, GAMMA_P_EV, GAP, OMEGA_P_EV, R_MNP, R_QD


def _drive(material, qd, intensity_w_cm2, phi=0.0):
    return drive_rates(np.asarray(intensity_w_cm2) * W_CM2_TO_W_M2, material, qd,
                       material.omega_0, phi)


def _hermitian_parts(x):
    """H and K, both Hermitian, with x = H + i K."""
    return 0.5 * (x + x.conj().T), 0.5j * (x.conj().T - x)


@pytest.fixture(scope="session")
def narrow_material():
    """The reference particles without radiative damping (gamma_0 =
    gamma_nr): the narrow-linewidth regime, where the Arnoldi run is
    longest."""
    metal = DrudeMetal.from_ev(OMEGA_P_EV, EPS_INF, GAMMA_P_EV)
    return derive_material(metal, HostMedium(EPS_M), R_MNP, include_radiative=False)


def _hamiltonian(system):
    """The Hamiltonian of a system built at a single intensity."""
    return scipy.sparse.csr_matrix(dense(system.h0) + float(system.e0) * dense(system.h1))


def _generator(system):
    """The Lindblad generator of a system built at a single intensity."""
    return liouvillian(_hamiltonian(system), collapse_operators(system))


def trace_preservation_defect(l_op, dim: int) -> float:
    """Norm of vec(I)^T L relative to ||L||; zero for a trace-preserving map."""
    tr_vec = np.zeros(dim * dim)
    tr_vec[np.arange(dim) * (dim + 1)] = 1.0
    defect = np.abs(tr_vec @ l_op)
    return float(defect.max() / max(spla.norm(l_op), 1.0))


def mean_mode_occupation(rho_full, cfg: FockConfig, mode: int = 0) -> float:
    """<a_m^+ a_m> in the full steady state."""
    number = np.diag(np.arange(cfg.fock_levels)).astype(complex)
    op = site_operator(number, 2 + mode, cfg.dims)
    return float(np.trace(op @ rho_full).real)


def _reference_hamiltonian(geom, material, qd, drive, cfg):
    """The full Hamiltonian written out at one drive, term by term."""
    lower = np.array([[0, 1], [0, 0]], dtype=complex)
    annihilate = np.diag(np.sqrt(np.arange(1, cfg.fock_levels)), k=1).astype(complex)
    s1 = site_operator(lower, 0, cfg.dims)
    s2 = site_operator(lower, 1, cfg.dims)
    modes = [site_operator(annihilate, 2 + m, cfg.dims) for m in range(cfg.n)]
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
    a1 = site_operator(lower, 2, dims)
    a2 = site_operator(lower, 3, dims)
    comm = a1 @ a2.getH() - a2.getH() @ a1
    assert abs(comm).max() < 1e-14


def test_operator_shapes_and_embedding(material, qd_resonant, geometry):
    cfg = FockConfig(n=2, fock_levels=3)
    system = build_full_system(
        geometry(2), material, qd_resonant, _drive(material, qd_resonant, 1.0), cfg
    )
    assert dense(system.h0).shape == dense(system.h1).shape == (cfg.dim, cfg.dim)
    assert [site for _, site in system.collapse] == list(range(cfg.n + 2))
    for _, op in collapse_operators(system):
        assert op.shape == (cfg.dim, cfg.dim)
    l_0, l_1 = case_generators(system)
    assert l_0.shape == l_1.shape == (cfg.dim**2, cfg.dim**2)


def test_kron_ordering_is_dot1_dot2_modes():
    dims = (2, 2, 3)
    number = np.diag([0.0, 1.0, 2.0])
    op = site_operator(number, 2, dims).toarray()
    # acting on |g g 2>: eigenvalue 2 at raveled index 2
    ket = np.zeros(12)
    ket[2] = 1.0
    assert np.allclose(op @ ket, 2.0 * ket)


def test_index_built_lowering_operators_equal_the_kron_built_ones():
    for n, nlev in [(1, 4), (2, 3), (3, 3)]:
        dims = FockConfig(n=n, fock_levels=nlev).dims
        for site, d in enumerate(dims):
            index_built = fullmodel._lowering(dims, site)
            kron_built = bands(site_operator(lowering(d), site, dims))
            assert index_built.keys() == kron_built.keys()
            for offset, weights in index_built.items():
                assert weights.dtype == kron_built[offset].dtype
                assert np.array_equal(weights, kron_built[offset])


def test_index_built_hamiltonians_equal_the_kron_built_ones(material, geometry):
    """h0 and h1, built by index arithmetic, equal the kron-built ones
    entry for entry, with detuned dots and a drive phase."""
    qd = QdParams.at_resonance(material, R_QD, GAMMA_I, 80.0 * GAMMA_I, -30.0 * GAMMA_I)
    for n, nlev in [(1, 4), (2, 3), (3, 3)]:
        cfg = FockConfig(n=n, fock_levels=nlev)
        drive = _drive(material, qd, [0.5, 20.0], phi=0.7)
        system = build_full_system(geometry(n), material, qd, drive, cfg)
        h0, h1 = hamiltonians(geometry(n), material, qd, drive, cfg)
        assert np.array_equal(dense(system.h0), h0.toarray())
        assert np.array_equal(dense(system.h1), h1.toarray())


def test_hamiltonian_is_hermitian(material, qd_resonant, geometry):
    cfg = FockConfig(n=2, fock_levels=3)
    system = build_full_system(
        geometry(2), material, qd_resonant,
        _drive(material, qd_resonant, 10.0, phi=0.7), cfg,
    )
    for h in (scipy.sparse.csr_matrix(dense(system.h0)),
              scipy.sparse.csr_matrix(dense(system.h1)), _hamiltonian(system)):
        assert (h - h.getH()).nnz == 0 or np.max(np.abs((h - h.getH()).data)) < 1e-6


def test_memory_budget_refusal(material, qd_resonant, geometry):
    cfg = FockConfig(n=3, fock_levels=4, memory_budget_bytes=1 << 20)
    with pytest.raises(MemoryBudgetError) as err:
        build_full_system(
            geometry(3), material, qd_resonant, _drive(material, qd_resonant, 1.0), cfg
        )
    assert "GiB" in str(err.value)


@pytest.mark.parametrize("n, nlev, radiative", [
    (1, 4, True), (2, 4, True), (3, 3, True), (3, 4, True),
    # the longest Arnoldi run of the default intensity range
    (1, 4, False),
], ids=["1-4", "2-4", "3-3", "3-4", "1-4-without-radiative-damping"])
def test_memory_estimate_bounds_the_assembled_solve(material, narrow_material, geometry,
                                                    n, nlev, radiative):
    """The budget estimate for one held state covers the tracemalloc peak
    of iter_steady_states over a case: the generator, the sector inverse,
    the Arnoldi vectors, the least-squares fits and the checked states."""
    mat = material if radiative else narrow_material
    qd = QdParams.at_resonance(mat, R_QD, GAMMA_I)
    cfg = FockConfig(n=n, fock_levels=nlev)
    system = build_full_system(geometry(n), mat, qd, _drive(mat, qd, [0.5, 20.0, 80.0]), cfg)
    tracemalloc.start()
    try:
        for _ in fullmodel.iter_steady_states(system):
            pass
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= cfg.estimated_solve_bytes(states=1, amplitudes=3)


def test_level_sizes_count_the_basis():
    for n, nlev in [(1, 2), (2, 4), (3, 3)]:
        levels = np.indices(FockConfig(n=n, fock_levels=nlev).dims).sum(0).ravel()
        assert fullmodel._level_sizes(n, nlev).tolist() == np.bincount(levels).tolist()
    # exact integers to chains far past any budget: int64 overflows from n = 16
    for nlev in (2, 4):
        previous = 0
        for n in range(1, 41):
            cfg = FockConfig(n=n, fock_levels=nlev)
            assert sum(fullmodel._level_sizes(n, nlev)) == cfg.dim
            estimate = cfg.estimated_solve_bytes(states=1, amplitudes=160)
            assert estimate > previous
            previous = estimate


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
    state = reduce_to_qubits(np.outer(psi, psi.conj()))
    # computational label |1> = dot 1 excited
    assert state[1, 1].real == pytest.approx(1.0, abs=1e-14)
    assert abs(np.trace(state) - 1.0) < 1e-14


def test_partial_trace_preserves_trace(material, qd_resonant, geometry):
    cfg = FockConfig(n=2, fock_levels=3)
    system = build_full_system(
        geometry(2), material, qd_resonant, _drive(material, qd_resonant, 40.0), cfg
    )
    rho = steady_state_full(system)
    state = reduce_to_qubits(rho)
    check_states(state)
    assert abs(np.trace(state) - 1.0) < 1e-10


def test_entangled_dot_mode_state_reduces_to_mixed():
    cfg = FockConfig(n=1, fock_levels=3)
    # (|e g 0> + |g g 1>)/sqrt(2): dot 1 entangled with the mode
    psi = np.zeros(cfg.dim, dtype=complex)
    psi[6] = 1.0 / np.sqrt(2.0)   # (1,0,0)
    psi[1] = 1.0 / np.sqrt(2.0)   # (0,0,1)
    state = reduce_to_qubits(np.outer(psi, psi.conj()))
    purity = float(np.trace(state @ state).real)
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
        concs[nlev] = concurrence(reduce_to_qubits(rho))
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
    l_0, l_1 = case_generators(system)
    assert np.all(l_1.data != 0)
    for k, intensity in enumerate(intensities):
        one = _drive(material, qd, intensity, phi=0.7)
        assert one.e0 == system.e0[k]
        ref = liouvillian(_reference_hamiltonian(geometry(n), material, qd, one, cfg),
                          collapse_operators(system))
        case = l_0 + system.e0[k] * l_1
        assert spla.norm(case - ref) <= 1e-14 * spla.norm(ref)
        assert case.nnz == ref.nnz
        single = build_full_system(geometry(n), material, qd, one, cfg)
        assert spla.norm(_generator(single) - ref) <= 1e-14 * spla.norm(ref)


def _detuned_pair(material):
    return QdParams.at_resonance(material, R_QD, GAMMA_I, -10.0 * GAMMA_I, -10.0 * GAMMA_I)


@pytest.mark.parametrize("n, nlev", [(1, 4), (2, 3), (3, 3)])
def test_operator_form_matches_the_superoperator(material, geometry, n, nlev):
    """The matrix-free L_0 and L_1, applied to the Hermitian and
    anti-Hermitian parts of a random non-Hermitian rho, equal the assembled
    superoperators' products, and the scale of the trace-constrained
    systems is L_0's largest entry.  The band products A rho and D rho
    under them equal the dense products."""
    qd = _detuned_pair(material)
    cfg = FockConfig(n=n, fock_levels=nlev)
    system = build_full_system(geometry(n), material, qd, _drive(material, qd, 1.5, 0.7), cfg)
    generator = fullmodel._Generator(system)
    l_0, l_1 = case_generators(system)
    rng = np.random.default_rng(n * 10 + nlev)
    rho = rng.standard_normal((cfg.dim, cfg.dim)) + 1j * rng.standard_normal((cfg.dim, cfg.dim))
    h, k = _hermitian_parts(rho)
    for apply, l_op in ((lambda x: generator.apply(x, 0.0), l_0), (generator.drive, l_1)):
        ref = l_op @ rho.ravel()
        out = (apply(h) + 1j * apply(k)).ravel()
        assert np.linalg.norm(out - ref) <= 1e-13 * np.linalg.norm(ref)
    for op in (generator.a, generator.d):
        product = np.zeros_like(rho)
        fullmodel._product(op, rho, product)
        ref = dense(op) @ rho
        assert np.linalg.norm(product - ref) <= 1e-14 * np.linalg.norm(ref)
    assert generator.scale == pytest.approx(float(np.max(np.abs(l_0.data))), rel=1e-15)


@pytest.mark.parametrize("n, nlev", [(1, 4), (2, 3), (2, 4), (3, 3)])
def test_sector_inverse_reproduces_v(material, geometry, n, nlev):
    """A_0 z = v for a random complex v (solved as its Hermitian and
    anti-Hermitian parts) and for its Hermitian part, to a normwise backward error
    ||A_0 z - v|| / (||A_0|| ||z|| + ||v||) within 1e-13.  A random v
    excites the slowest decays, so ||z|| reaches ~1e7 ||v|| and even a
    dense LU leaves ||A_0 z - v|| ~ 1e-10 ||v|| at (1, 4)."""
    qd = _detuned_pair(material)
    cfg = FockConfig(n=n, fock_levels=nlev)
    system = build_full_system(geometry(n), material, qd, _drive(material, qd, 1.5), cfg)
    generator = fullmodel._Generator(system)
    inverse = fullmodel._SectorInverse.of(generator)
    a_0 = trace_constrained(case_generators(system)[0], cfg.dim, generator.scale)
    rng = np.random.default_rng(n * 10 + nlev)
    v = rng.standard_normal(cfg.dim**2) + 1j * rng.standard_normal(cfg.dim**2)
    m = v.reshape(cfg.dim, cfg.dim)
    h, k = _hermitian_parts(m)
    for rhs, z in ((v, inverse.solve(h) + 1j * inverse.solve(k)),
                   ((m + m.conj().T).ravel(), inverse.solve(m + m.conj().T))):
        z = z.ravel()
        scale = spla.norm(a_0) * np.linalg.norm(z) + np.linalg.norm(rhs)
        assert np.linalg.norm(a_0 @ z - rhs) <= 1e-13 * scale
        if cfg.dim**2 <= 1296:
            ref = np.linalg.solve(a_0.toarray(), rhs)
            assert np.linalg.norm(z - ref) <= 1e-10 * np.linalg.norm(ref)


def test_operator_trace_norm_gives_the_generator_norm(material, geometry):
    qd = _detuned_pair(material)
    cfg = FockConfig(n=2, fock_levels=3)
    drive = _drive(material, qd, [0.0, 0.5, 3.0, 80.0], phi=0.7)
    system = build_full_system(geometry(2), material, qd, drive, cfg)
    generator = fullmodel._Generator(system)
    l_0, l_1 = case_generators(system)
    for e0 in system.e0:
        ref = spla.norm(l_0 + e0 * l_1)
        assert abs(generator.norm(e0) - ref) <= 1e-12 * ref


def _fresh_c_full(material, geometry, qd, cfg, intensity_w_cm2):
    system = build_full_system(geometry(cfg.n), material, qd,
                               _drive(material, qd, intensity_w_cm2), cfg)
    return concurrence(reduce_to_qubits(steady_state_full(system)))


def test_multi_intensity_case_matches_fresh_solves(material, geometry):
    """One case over four intensities gives the same concurrence as a
    separate solve (own system, own run) per point.  That the solve
    assembles no superoperator follows from fullmodel importing no scipy
    (test_cold_start.py::test_validate_never_loads_scipy)."""
    qd = _detuned_pair(material)
    cfg = FockConfig(n=2, fock_levels=4)
    intensities = (0.0, 0.5, 1.5, 3.0)
    table = validate_against_effective(
        geometry(2), material, qd, cfg, [i * W_CM2_TO_W_M2 for i in intensities]
    )
    for intensity, row in zip(intensities, table.rows):
        fresh = _fresh_c_full(material, geometry, qd, cfg, intensity)
        assert abs(row.c_full - fresh) <= 1e-10
        if intensity > 0:
            assert row.c_full > 0.01


def _three_point_case(material, geometry):
    qd = _detuned_pair(material)
    cfg = FockConfig(n=2, fock_levels=3)
    system = build_full_system(geometry(2), material, qd,
                               _drive(material, qd, (0.5, 1.5, 3.0)), cfg)
    return system, cfg


@pytest.mark.parametrize("constant, value, message", [
    # the run stops before any intensity converges
    ("ARNOLDI_MAX_STEPS", 2, "unsolved after 2 of at most 2 steps"),
    # every intensity stops at the first step, and its state then fails
    # the residual check
    ("ARNOLDI_RTOL", 1.0, "steady-state residual"),
], ids=["max-steps-2", "loose-arnoldi-tolerance"])
def test_unsolved_amplitude_raises(material, geometry, monkeypatch, constant, value,
                                   message):
    """An amplitude the Arnoldi run leaves unsolved, or whose state fails
    the residual check, raises NumericalError naming its e0 (the first
    of the grid)."""
    system, _ = _three_point_case(material, geometry)
    monkeypatch.setattr(fullmodel, constant, value)
    with pytest.raises(NumericalError, match=re.escape(message)) as err:
        steady_state_full(system)
    assert f"e0 = {system.e0[0]:.6e} V/m" in str(err.value)


def test_singular_shifted_system_is_left_unsolved():
    """I + e0 H singular at the first column (h_00 = 1, h_10 = 0, e0 = -1):
    the amplitude is done with no coefficients."""
    fit = fullmodel._ShiftedLeastSquares(-1.0)
    assert fit.add([1.0, 0.0])
    assert fit.y is None
    assert (fit.steps, fit.residual) == (1, 1.0)


def test_narrow_linewidth_case_is_solved_by_one_arnoldi_run(narrow_material, geometry):
    """Without radiative damping the n = 1, N = 4 case at +/-80 gamma_i
    needs more Arnoldi steps from ~50 W/cm^2 on; the one run still solves
    every fourth intensity of the default grid, each c_full within 1e-10
    of a dense solve of the assembled trace-constrained system.  The
    Arnoldi run is fullmodel's only solver, and fullmodel imports no scipy
    (test_cold_start.py::test_validate_never_loads_scipy)."""
    mat = narrow_material
    qd = QdParams.at_resonance(mat, R_QD, GAMMA_I, 80.0 * GAMMA_I, -80.0 * GAMMA_I)
    cfg = FockConfig(n=1, fock_levels=4)
    intensities = np.arange(1, 161)[::4] * 0.5
    table = validate_against_effective(geometry(1), mat, qd, cfg,
                                       (intensities * W_CM2_TO_W_M2).tolist())
    system = build_full_system(geometry(1), mat, qd, _drive(mat, qd, intensities), cfg)
    l_0, l_1 = case_generators(system)
    scale = float(np.max(np.abs(l_0.data)))
    rhs = np.zeros(cfg.dim**2, dtype=complex)
    rhs[0] = 1.0
    assert len(table.rows) == 40 and intensities[-1] == 78.5
    for e0, row in zip(system.e0, table.rows):
        a = trace_constrained(l_0 + e0 * l_1, cfg.dim, scale).toarray()
        rho = np.linalg.solve(a, rhs).reshape(cfg.dim, cfg.dim)
        ref = concurrence(reduce_to_qubits(0.5 * (rho + rho.conj().T)))
        assert abs(row.c_full - ref) <= 1e-10


def test_counter_rotating_term_raises(material, geometry):
    """A counter-rotating exchange g (s_1^+ a^+ + s_1 a) breaks the
    excitation-number structure: the case has no exact inverse, and the
    solve raises NumericalError."""
    system, cfg = _three_point_case(material, geometry)
    s1 = site_operator(lowering(2), 0, cfg.dims)
    a_1 = site_operator(lowering(cfg.fock_levels), 2, cfg.dims)
    g = bare_couplings(geometry(2), _detuned_pair(material), material).g
    system.h0 = bands(dense(system.h0)
                      + 0.1 * g * (s1.getH() @ a_1.getH() + s1 @ a_1).toarray())
    assert fullmodel._SectorInverse.of(fullmodel._Generator(system)) is None
    with pytest.raises(NumericalError, match="excitation number"):
        steady_state_full(system)


def test_defective_level_raises():
    """A dot and a mode exchanging at g = (gamma_0 - gamma_i) / 4 sit at an
    exceptional point: the level-1 block of A is defective, so its
    eigenbasis is singular to working accuracy.  The sector inverse refuses
    the case, and the solve raises NumericalError naming that cause."""
    cfg = FockConfig(n=1, fock_levels=2)
    gamma_i, gamma_0 = 1.0, 5.0
    s1 = site_operator(lowering(2), 0, cfg.dims)
    a_1 = site_operator(lowering(2), 2, cfg.dims)
    h0 = -(gamma_0 - gamma_i) / 4 * (s1.getH() @ a_1 + s1 @ a_1.getH())
    system = fullmodel.FullSystem(cfg=cfg, h0=bands(h0), h1=bands(-(s1 + s1.getH())),
                                  e0=np.array([0.1]),
                                  collapse=[(gamma_i, 0), (gamma_i, 1), (gamma_0, 2)])
    assert fullmodel._SectorInverse.of(fullmodel._Generator(system)) is None
    with pytest.raises(NumericalError, match="not diagonalisable to working accuracy"):
        steady_state_full(system)


def test_state_does_not_depend_on_the_intensity_grid(material, geometry):
    """Each amplitude's state is bit-identical whether its system is built
    for it alone, for the grid or for the reversed grid: h1 holds the
    unit-amplitude rates whatever the intensities, and each amplitude's
    Arnoldi coefficients depend on its own e0 alone."""
    qd = _detuned_pair(material)
    cfg = FockConfig(n=2, fock_levels=3)
    intensities = [0.0, 0.5, 1.5, 3.0, 80.0]

    def states(grid):
        return steady_state_full(build_full_system(geometry(2), material, qd,
                                                   _drive(material, qd, grid), cfg))

    grid = states(intensities)
    assert np.array_equal(grid, states(intensities[::-1])[::-1])
    for intensity, rho in zip(intensities, grid):
        assert np.array_equal(states(intensity), rho)


def test_validator_budget_counts_one_held_state(material, geometry):
    """The validator reduces each full state before the next is solved, so
    its budget counts one held state; the stack of steady_state_full counts
    one per intensity.  Both give the same states."""
    qd = _detuned_pair(material)
    intensities = (0.5, 1.5, 3.0)
    roomy = FockConfig(n=2, fock_levels=3)
    one, stack = roomy.estimated_solve_bytes(1, 3), roomy.estimated_solve_bytes(3, 3)
    tight = FockConfig(n=2, fock_levels=3, memory_budget_bytes=(one + stack) // 2)
    table = validate_against_effective(geometry(2), material, qd, tight,
                                       [i * W_CM2_TO_W_M2 for i in intensities])
    drive = _drive(material, qd, intensities)
    with pytest.raises(MemoryBudgetError):
        steady_state_full(build_full_system(geometry(2), material, qd, drive, tight))
    states = steady_state_full(build_full_system(geometry(2), material, qd, drive, roomy))
    assert [row.c_full for row in table.rows] == [
        concurrence(reduce_to_qubits(rho)) for rho in states]


def test_empty_intensity_grid_gives_an_empty_table(material, qd_resonant, geometry):
    table = validate_against_effective(geometry(1), material, qd_resonant,
                                       FockConfig(n=1, fock_levels=3), [])
    assert table.rows == []



def test_reduced_states_are_checked_in_one_call(monkeypatch, material, qd_resonant, geometry):
    """validate_against_effective checks a case's reduced states with one
    check_states call, which names a failing state by its index in the
    intensity grid."""
    reduce, check = fullmodel.reduce_to_qubits, fullmodel.check_states
    reduced, checked = [], []

    def reduce_second_off_trace(rho_full):
        reduced.append(reduce(rho_full))
        return reduced[-1] + (np.diag([0.0, 0.0, 0.0, 1e-6]) if len(reduced) == 2 else 0.0)

    monkeypatch.setattr(fullmodel, "reduce_to_qubits", reduce_second_off_trace)
    monkeypatch.setattr(fullmodel, "check_states", lambda rho: checked.append(rho) or check(rho))
    with pytest.raises(NumericalError, match=r"state trace deviates from 1 by .* \(state 1\)$"):
        validate_against_effective(geometry(1), material, qd_resonant,
                                   FockConfig(n=1, fock_levels=3), [1e4, 2e4, 4e4])
    assert len(reduced) == 3
    assert [rho.shape for rho in checked] == [(3, 4, 4)]
