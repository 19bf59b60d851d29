"""Brute-force validator: the dots and every particle as explicit modes.

Each nanoparticle is a truncated harmonic oscillator with N levels, so the
Hilbert space is qubit_1 (x) qubit_2 (x) mode_1 (x) ... (x) mode_n with
dimension 4 N^n.  The Lindblad generator is vectorized row-major
(vec(A rho B) = (A kron B^T) vec(rho)) into a sparse dim^2 x dim^2
superoperator, one row is replaced by the trace constraint and the steady
state is obtained from a sparse linear solve.  Reduction to the two dots
is a partial trace over all modes.

Every drive rate is proportional to the field amplitude e0, so at fixed
geometry, dots, truncation and frequency the generator is
L(e0) = L_0 + e0 L_1: L_0 holds the detunings, hopping, dot-mode exchange
and dissipators, L_1 the commutator with the unit-amplitude drive.  One
validation case assembles both once and solves its intensities in turn,
with one natural-order ILU of L_0 per case as the LGMRES preconditioner of
every intensity.  The row-major Fock ordering keeps the superoperator
near-banded, which a fill-reducing column permutation would destroy, and
L_0 does not depend on the intensity grid.  A point that does not
converge with that factor escalates to its own ILU and then to a full
sparse LU.

This path scales exponentially in n and exists to validate the effective
model on small chains; construction refuses up front when the estimated
memory of the solve (FockConfig.estimated_solve_bytes) exceeds the budget.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .effective import complex_pole, mediated_params
from .exceptions import DomainError, MemoryBudgetError, NumericalError
from .plasmonics import (
    ArrayGeometry,
    DriveField,
    MaterialSystem,
    QdParams,
    bare_couplings,
    drive_rates,
)
from .steadystate import TwoQubitState, concurrence, steady_state

__all__ = [
    "FockConfig",
    "FullSystem",
    "build_full_system",
    "liouvillian",
    "iter_steady_states",
    "steady_state_full",
    "reduce_to_qubits",
    "ValidationRow",
    "ValidationTable",
    "validate_against_effective",
]

# direct sparse factorization only for tiny systems; beyond this the
# ILU-preconditioned Krylov path is both faster and equally accurate
# (superoperator LU fill-in grows brutally with Hilbert dimension)
DIRECT_SOLVE_MAX_DIM = 32
# a full-model steady state is accepted when ||L vec(rho)|| <= RESIDUAL_TOL ||L||
RESIDUAL_TOL = 1e-8
# the one ILU of the undriven generator L_0 that preconditions a whole case
SHARED_DROP_TOL = 3e-3
SHARED_FILL_FACTOR = 5.0

_BYTES_PER_NNZ = 28  # complex128 value + int32 index + row-pointer share
_BYTES_PER_VALUE = 16  # complex128
# LGMRES restart length and kept correction vectors (scipy's defaults);
# it holds inner_m + outer_k + 1 Arnoldi vectors, as many preconditioned
# ones and outer_k stored pairs
_LGMRES_INNER_M = 30
_LGMRES_OUTER_K = 3
_LGMRES_VECTORS = 2 * (_LGMRES_INNER_M + _LGMRES_OUTER_K) + 1 + 2 * _LGMRES_OUTER_K


@dataclass(frozen=True)
class FockConfig:
    """Truncation and budget for the explicit-mode simulation."""

    n: int
    fock_levels: int = 4
    memory_budget_bytes: int = 8 << 30

    def __post_init__(self):
        if self.n < 1:
            raise DomainError(f"particle count must be >= 1, got {self.n}")
        if self.fock_levels < 2:
            raise DomainError(
                f"each mode needs at least 2 levels, got {self.fock_levels}"
            )

    @property
    def dims(self) -> tuple:
        return (2, 2) + (self.fock_levels,) * self.n

    @property
    def dim(self) -> int:
        return 4 * self.fock_levels**self.n

    def estimated_solve_bytes(self, states: int) -> int:
        """An upper bound on what the explicit-mode solve holds at once
        while it keeps `states` solved dim x dim states.

        Per superoperator row the Hamiltonian has at most 2n + 1 entries
        (diagonal, n - 1 hopping pairs, one exchange term per dot), so its
        commutator has at most 4n + 1; the n + 2 collapse channels add one
        off-diagonal entry each, giving 5n + 3 for L_0.  The drive puts
        2n + 2 entries in a Hamiltonian row, 4n + 4 in L_1.  Held together:
        L_0, L_1, one trace-constrained generator (9n + 7 per row, plus the
        dim-entry trace row), the shared ILU of L_0 (at most
        SHARED_FILL_FACTOR times its entries), the LGMRES basis and the
        held states: one for iter_steady_states, whose caller reduces each
        state before the next is solved, and one per drive amplitude for
        the stack of steady_state_full.  A point that escalates holds its
        own ILU on top of this.
        """
        rows = self.dim**2
        nnz_l0 = (5 * self.n + 3) * rows + self.dim
        nnz = (nnz_l0 + (4 * self.n + 4) * rows + (9 * self.n + 7) * rows + self.dim
               + SHARED_FILL_FACTOR * nnz_l0)
        vectors = _LGMRES_VECTORS + states
        return int(_BYTES_PER_NNZ * nnz + _BYTES_PER_VALUE * vectors * rows)

    def check_budget(self, states: int) -> None:
        est = self.estimated_solve_bytes(states)
        if est > self.memory_budget_bytes:
            raise MemoryBudgetError(
                f"explicit-mode solve for n={self.n}, N={self.fock_levels} "
                f"(dim {self.dim}) needs ~{est / 2**30:.2f} GiB, over the "
                f"budget of {self.memory_budget_bytes / 2**30:.2f} GiB"
            )


@dataclass
class FullSystem:
    """Sparse Hamiltonian and collapse channels of the explicit model.

    The Hamiltonian is h0 + e0 h1.  h0 holds the detunings, the mode
    hopping and the dot-mode exchange; h1 is the drive at unit field
    amplitude (1 V/m), since every drive rate is proportional to e0.  e0
    is the drive's field amplitude (V/m): a scalar, or one per intensity.
    """

    cfg: FockConfig
    h0: sp.csr_matrix
    h1: sp.csr_matrix
    e0: np.ndarray
    collapse: list  # (rate, operator) pairs


def _site_operator(op: np.ndarray, site: int, dims: tuple) -> sp.csr_matrix:
    """Embed a single-site operator at `site` in the ordered product space."""
    out = sp.identity(1, format="csr", dtype=complex)
    for k, d in enumerate(dims):
        block = sp.csr_matrix(op) if k == site else sp.identity(d, format="csr", dtype=complex)
        out = sp.kron(out, block, format="csr")
    return out


def _unit_amplitude_rates(drive: DriveField) -> tuple:
    """lambda_1, lambda_2 and omega_m at e0 = 1 V/m, read off the drive's
    strongest entry (all zero when nothing is driven)."""
    e0 = np.ravel(drive.e0)
    if not np.any(e0 > 0):
        return 0j, 0j, 0j
    k = int(np.argmax(e0))
    return tuple(complex(np.ravel(rate)[k]) / e0[k]
                 for rate in (drive.lambda_1, drive.lambda_2, drive.omega_m))


def build_full_system(
    geom: ArrayGeometry,
    mat: MaterialSystem,
    qd: QdParams,
    drive: DriveField,
    cfg: FockConfig,
) -> FullSystem:
    """Hamiltonian and collapse operators in the rotating frame of the drive.

    Includes per-dot detuning and drive, per-mode detuning and drive,
    nearest-neighbor mode hopping -kappa(a_m^+ a_v + h.c.) and end-only
    dot-mode exchange -g(s_i^+ a_m + h.c.).  Collapse channels are
    sqrt(gamma_i) s_i and sqrt(gamma_0) a_m.  The inter-laser phase
    e^{i phi} is carried by the dot-2 drive only.  The drive may hold one
    intensity or several at a single frequency.  The budget check here
    counts one held state (iter_steady_states); steady_state_full checks
    its stack again.
    """
    if cfg.n != geom.n:
        raise DomainError(f"Fock config n={cfg.n} does not match geometry n={geom.n}")
    cfg.check_budget(1)
    dims = cfg.dims
    nlev = cfg.fock_levels

    lower = np.array([[0, 1], [0, 0]], dtype=complex)
    annihilate = np.diag(np.sqrt(np.arange(1, nlev)), k=1).astype(complex)

    s1 = _site_operator(lower, 0, dims)
    s2 = _site_operator(lower, 1, dims)
    modes = [_site_operator(annihilate, 2 + m, dims) for m in range(cfg.n)]

    couplings = bare_couplings(geom, qd, mat)
    pole = complex_pole(mat, qd, drive.omega)

    h0 = pole.detuning_1 * (s1.getH() @ s1) + pole.detuning_2 * (s2.getH() @ s2)
    for a_m in modes:
        h0 = h0 + pole.detuning_0 * (a_m.getH() @ a_m)
    for m in range(cfg.n - 1):
        h0 = h0 - couplings.kappa * (
            modes[m].getH() @ modes[m + 1] + modes[m] @ modes[m + 1].getH()
        )
    h0 = h0 - couplings.g * (s1.getH() @ modes[0] + s1 @ modes[0].getH())
    h0 = h0 - couplings.g * (s2.getH() @ modes[-1] + s2 @ modes[-1].getH())

    lambda_1, lambda_2, omega_m = _unit_amplitude_rates(drive)
    h1 = -(lambda_1 * s1.getH() + np.conj(lambda_1) * s1)
    h1 = h1 - (lambda_2 * s2.getH() + np.conj(lambda_2) * s2)
    for a_m in modes:
        h1 = h1 - (omega_m * a_m.getH() + np.conj(omega_m) * a_m)

    collapse = [(qd.gamma_i, s1), (qd.gamma_i, s2)]
    collapse += [(mat.gamma_0, a_m) for a_m in modes]
    return FullSystem(cfg=cfg, h0=h0.tocsr(), h1=h1.tocsr(), e0=drive.e0,
                      collapse=collapse)


def liouvillian(h: sp.spmatrix, collapse=()) -> sp.csr_matrix:
    """Vectorized Lindblad generator -i[h, .] + sum D[c] (row-major vec).

    collapse holds (rate, operator) pairs; without any this is the bare
    commutator with h.
    """
    dim = h.shape[0]
    ident = sp.identity(dim, format="csr", dtype=complex)
    l_op = -1j * (sp.kron(h, ident, format="csr") - sp.kron(ident, h.T, format="csr"))
    for rate, c_op in collapse:
        cdc = (c_op.getH() @ c_op).tocsr()
        l_op = l_op + 0.5 * rate * (
            2.0 * sp.kron(c_op, c_op.conj(), format="csr")
            - sp.kron(cdc, ident, format="csr")
            - sp.kron(ident, cdc.T, format="csr")
        )
    return l_op.tocsr()


def _trace_constrained(l_op: sp.csr_matrix, dim: int) -> sp.csr_matrix:
    """l_op scaled to O(1) entries, its first row replaced by the trace."""
    scale = float(np.max(np.abs(l_op.data))) if l_op.nnz else 1.0
    start = l_op.indptr[1]
    data = np.empty(l_op.nnz - start + dim, dtype=complex)
    data[:dim] = 1.0
    np.multiply(l_op.data[start:], 1.0 / scale, out=data[dim:])
    indices = np.concatenate([np.arange(dim) * (dim + 1), l_op.indices[start:]])
    indptr = np.concatenate([[0], l_op.indptr[1:] - start + dim])
    return sp.csr_matrix((data, indices, indptr), shape=l_op.shape)


def _lgmres(a: sp.csr_matrix, b: np.ndarray, precond) -> tuple:
    op = spla.LinearOperator(a.shape, precond.solve)
    # lgmres divides by a zero Krylov norm when the preconditioner is
    # already exact (undriven systems); the residual check governs
    with np.errstate(divide="ignore", invalid="ignore"):
        return spla.lgmres(a, b, M=op, rtol=1e-13, atol=1e-16, maxiter=500,
                           inner_m=_LGMRES_INNER_M, outer_k=_LGMRES_OUTER_K)


def _natural_ilu(a: sp.csr_matrix, drop_tol: float, fill_factor: float):
    """Incomplete LU of `a` in its own (natural) row and column order."""
    return spla.spilu(a.tocsc(), drop_tol=drop_tol, fill_factor=fill_factor,
                      permc_spec="NATURAL")


def _solve_trace_constrained(a: sp.csr_matrix, b: np.ndarray, dim: int, shared) -> np.ndarray:
    """Solve the trace-constrained system, escalating through solvers.

    The generator entries are pre-scaled to O(1), so an incomplete LU is an
    excellent preconditioner.  Within one case the generators differ from
    L_0 only in the drive term, so `shared`, the case's one natural-order
    ILU of L_0 (None when that factorisation failed), is tried first.  If
    LGMRES does not converge with it, this system is factored on its own
    (ILU 1e-2, then ILU 1e-4) and, failing both, solved by a full sparse
    LU.  Nothing is handed on to the next generator.
    """
    if dim <= DIRECT_SOLVE_MAX_DIM:
        return spla.spsolve(a.tocsc(), b)
    if shared is not None:
        v, info = _lgmres(a, b, shared)
        if info == 0:
            return v
    for drop_tol, fill_factor in ((1e-2, 5.0), (1e-4, 15.0)):
        try:
            factor = _natural_ilu(a, drop_tol, fill_factor)
        except RuntimeError:
            continue
        v, info = _lgmres(a, b, factor)
        if info == 0:
            return v
    try:
        return spla.spsolve(a.tocsc(), b)
    except (RuntimeError, MemoryError) as exc:
        raise NumericalError(f"all steady-state solvers failed: {exc}") from exc


def _checked_steady_state(l_0, l_1, e0: float, dim: int, shared) -> np.ndarray:
    """Steady state of the generator L_0 + e0 L_1, validated against it."""
    l_op = l_0 + e0 * l_1
    l_norm = spla.norm(l_op)
    a = _trace_constrained(l_op, dim)
    del l_op  # not held through the solve; L v is formed from the parts
    b = np.zeros(dim * dim, dtype=complex)
    b[0] = 1.0
    v = _solve_trace_constrained(a, b, dim, shared)
    residual = float(np.linalg.norm(l_0 @ v + e0 * (l_1 @ v))) / max(l_norm, 1.0)
    if residual > RESIDUAL_TOL:
        raise NumericalError(
            f"steady-state residual {residual:.3e} exceeds {RESIDUAL_TOL:.1e} "
            f"(generator norm {l_norm:.3e})"
        )
    rho = v.reshape(dim, dim)
    rho = 0.5 * (rho + rho.conj().T)
    tr = float(np.trace(rho).real)
    if abs(tr - 1.0) > 1e-10:
        raise NumericalError(f"steady-state trace deviates from 1 by {abs(tr - 1.0):.3e}")
    return rho


def _undriven_factor(l_0: sp.csr_matrix, dim: int):
    """The case's shared preconditioner: one natural-order ILU of the
    trace-constrained L_0, or None when the system is solved directly or
    the factorisation fails."""
    if dim <= DIRECT_SOLVE_MAX_DIM:
        return None
    try:
        return _natural_ilu(_trace_constrained(l_0, dim), SHARED_DROP_TOL, SHARED_FILL_FACTOR)
    except RuntimeError:
        return None


def iter_steady_states(system: FullSystem):
    """Steady-state density matrix of the explicit model at each drive
    amplitude, yielded one (dim, dim) state at a time.

    The generator is L(e0) = L_0 + e0 L_1, with L_0 = liouvillian(h0,
    collapse) and L_1 = liouvillian(h1) assembled once.  Each amplitude's
    generator is formed and solved in turn, so one is held at a time: it
    is scaled to O(1) entries, its first row replaced by the trace
    constraint and the sparse system solved (directly for tiny
    dimensions, otherwise by LGMRES preconditioned with one natural-order
    ILU of L_0 per case, factored before the first amplitude).  Each
    result is validated against its own generator: ||L vec(rho)|| <=
    RESIDUAL_TOL * ||L||, Hermitised and trace-checked.
    """
    dim = system.cfg.dim
    l_0 = liouvillian(system.h0, system.collapse)
    l_1 = liouvillian(system.h1)
    shared = _undriven_factor(l_0, dim)
    for e0 in np.ravel(system.e0).tolist():
        yield _checked_steady_state(l_0, l_1, e0, dim, shared)


def steady_state_full(system: FullSystem) -> np.ndarray:
    """The states of iter_steady_states, stacked: one (dim, dim) state for
    a scalar e0 and a (B, dim, dim) stack otherwise.  The budget check
    counts the B held states."""
    count = np.size(system.e0)
    system.cfg.check_budget(count)
    states = np.empty((count, system.cfg.dim, system.cfg.dim), dtype=complex)
    for k, rho in enumerate(iter_steady_states(system)):
        states[k] = rho
    return states if np.ndim(system.e0) else states[0]


# computational relabeling (q1,q2)-major {gg, ge, eg, ee} -> {gg, eg, ge, ee}
_PAPER_ORDER = np.array([0, 2, 1, 3])


def reduce_to_qubits(rho_full: np.ndarray, cfg: FockConfig) -> TwoQubitState:
    """Partial trace over all modes, returning the two-dot state."""
    mode_dim = cfg.fock_levels**cfg.n
    r6 = rho_full.reshape(2, 2, mode_dim, 2, 2, mode_dim)
    red = np.trace(r6, axis1=2, axis2=5).reshape(4, 4)
    red = red[np.ix_(_PAPER_ORDER, _PAPER_ORDER)]
    return TwoQubitState(rho=red)


@dataclass(frozen=True)
class ValidationRow:
    intensity_w_m2: float
    c_eff: float
    c_full: float
    abs_diff: float


@dataclass(frozen=True)
class ValidationTable:
    n: int
    fock_levels: int
    rows: list

    @property
    def max_abs_diff(self) -> float:
        return max((r.abs_diff for r in self.rows), default=0.0)


def validate_against_effective(
    geom: ArrayGeometry,
    mat: MaterialSystem,
    qd: QdParams,
    cfg: FockConfig,
    intensity_grid,
    omega: float | None = None,
    phi: float = 0.0,
) -> ValidationTable:
    """Compare full and effective steady-state concurrence over intensities.

    intensity_grid is in W/m^2.  Both models see identical physical inputs;
    the drive phase is applied to the bare dot-2 rate on both sides so the
    comparison is like for like.  The full model solves the grid as one
    case: one assembly and one natural-order ILU of L_0 serve every intensity
    (iter_steady_states), and each full state is reduced to the dots before
    the next is solved.
    """
    if omega is None:
        omega = mat.omega_0
    intensities = np.asarray(intensity_grid, dtype=float)
    drive = drive_rates(intensities, mat, qd, omega, phi)
    c_effs = concurrence(steady_state(
        mediated_params(geom, mat, qd, drive, phi_mode="bare"))).tolist()
    rho_fulls = iter_steady_states(build_full_system(geom, mat, qd, drive, cfg))
    rows = []
    for intensity, c_eff, rho_full in zip(intensities.tolist(), c_effs, rho_fulls):
        c_full = concurrence(reduce_to_qubits(rho_full, cfg).validate())
        rows.append(
            ValidationRow(
                intensity_w_m2=intensity,
                c_eff=c_eff,
                c_full=c_full,
                abs_diff=abs(c_full - c_eff),
            )
        )
    return ValidationTable(n=geom.n, fock_levels=cfg.fock_levels, rows=rows)
