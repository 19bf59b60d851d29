"""Brute-force validator: the dots and every particle as explicit modes.

Each nanoparticle is a truncated harmonic oscillator with N levels, so the
Hilbert space is qubit_1 (x) qubit_2 (x) mode_1 (x) ... (x) mode_n with
dimension 4 N^n.  The Lindblad generator is vectorized row-major
(vec(A rho B) = (A kron B^T) vec(rho)) into a sparse dim^2 x dim^2
superoperator, one row is replaced by the trace constraint and the steady
state is obtained from a sparse linear solve.  Reduction to the two dots
is a partial trace over all modes.

This path scales exponentially in n and exists to validate the effective
model on small chains; construction refuses up front when the estimated
superoperator exceeds the memory budget.
"""

from __future__ import annotations

from dataclasses import dataclass, field

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
    "steady_state_full",
    "reduce_to_qubits",
    "mean_mode_occupation",
    "trace_preservation_defect",
    "ValidationRow",
    "ValidationTable",
    "validate_against_effective",
]

# direct sparse factorization only for tiny systems; beyond this the
# ILU-preconditioned Krylov path is both faster and equally accurate
# (superoperator LU fill-in grows brutally with Hilbert dimension)
DIRECT_SOLVE_MAX_DIM = 32

_BYTES_PER_NNZ = 28  # complex128 value + int32 index + row-pointer share


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

    def estimated_superop_bytes(self) -> int:
        # ~(7n + 20) stored entries per superoperator row, 28 bytes each
        return _BYTES_PER_NNZ * (7 * self.n + 20) * self.dim**2

    def check_budget(self) -> None:
        est = self.estimated_superop_bytes()
        if est > self.memory_budget_bytes:
            raise MemoryBudgetError(
                f"superoperator for n={self.n}, N={self.fock_levels} "
                f"(dim {self.dim}) needs ~{est / 2**30:.2f} GiB, over the "
                f"budget of {self.memory_budget_bytes / 2**30:.2f} GiB"
            )


@dataclass
class FullSystem:
    """Sparse Hamiltonian and collapse channels of the explicit model."""

    cfg: FockConfig
    h: sp.spmatrix
    collapse: list = field(default_factory=list)  # (rate, operator) pairs
    labels: list = field(default_factory=list)


def _site_operator(op: np.ndarray, site: int, dims: tuple) -> sp.csr_matrix:
    """Embed a single-site operator at `site` in the ordered product space."""
    out = sp.identity(1, format="csr", dtype=complex)
    for k, d in enumerate(dims):
        block = sp.csr_matrix(op) if k == site else sp.identity(d, format="csr", dtype=complex)
        out = sp.kron(out, block, format="csr")
    return out


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
    e^{i phi} is carried by the dot-2 drive only.
    """
    if cfg.n != geom.n:
        raise DomainError(f"Fock config n={cfg.n} does not match geometry n={geom.n}")
    cfg.check_budget()
    dims = cfg.dims
    nlev = cfg.fock_levels

    lower = np.array([[0, 1], [0, 0]], dtype=complex)
    annihilate = np.diag(np.sqrt(np.arange(1, nlev)), k=1).astype(complex)

    s1 = _site_operator(lower, 0, dims)
    s2 = _site_operator(lower, 1, dims)
    modes = [_site_operator(annihilate, 2 + m, dims) for m in range(cfg.n)]

    couplings = bare_couplings(geom, qd, mat)
    pole = complex_pole(mat, qd, drive.omega)

    h = pole.detuning_1 * (s1.getH() @ s1) + pole.detuning_2 * (s2.getH() @ s2)
    h = h - (drive.lambda_1 * s1.getH() + np.conj(drive.lambda_1) * s1)
    h = h - (drive.lambda_2 * s2.getH() + np.conj(drive.lambda_2) * s2)
    for a_m in modes:
        h = h + pole.detuning_0 * (a_m.getH() @ a_m)
        h = h - (drive.omega_m * a_m.getH() + np.conj(drive.omega_m) * a_m)
    for m in range(cfg.n - 1):
        h = h - couplings.kappa * (
            modes[m].getH() @ modes[m + 1] + modes[m] @ modes[m + 1].getH()
        )
    h = h - couplings.g * (s1.getH() @ modes[0] + s1 @ modes[0].getH())
    h = h - couplings.g * (s2.getH() @ modes[-1] + s2 @ modes[-1].getH())

    collapse = [(qd.gamma_i, s1), (qd.gamma_i, s2)]
    collapse += [(mat.gamma_0, a_m) for a_m in modes]
    labels = ["sigma_1", "sigma_2"] + [f"a_{m + 1}" for m in range(cfg.n)]
    return FullSystem(cfg=cfg, h=h.tocsr(), collapse=collapse, labels=labels)


def liouvillian(system: FullSystem) -> sp.csr_matrix:
    """Vectorized Lindblad generator (row-major vec convention)."""
    dim = system.cfg.dim
    ident = sp.identity(dim, format="csr", dtype=complex)
    h = system.h
    l_op = -1j * (sp.kron(h, ident, format="csr") - sp.kron(ident, h.T, format="csr"))
    for rate, c_op in system.collapse:
        cdc = (c_op.getH() @ c_op).tocsr()
        l_op = l_op + 0.5 * rate * (
            2.0 * sp.kron(c_op, c_op.conj(), format="csr")
            - sp.kron(cdc, ident, format="csr")
            - sp.kron(ident, cdc.T, format="csr")
        )
    return l_op.tocsr()


def trace_preservation_defect(l_op: sp.spmatrix, dim: int) -> float:
    """Norm of vec(I)^T L relative to ||L||; zero for a trace-preserving map."""
    tr_vec = np.zeros(dim * dim)
    tr_vec[np.arange(dim) * (dim + 1)] = 1.0
    defect = np.abs(tr_vec @ l_op)
    norm = spla.norm(l_op)
    return float(defect.max() / max(norm, 1.0))


def _replace_trace_row(l_op: sp.spmatrix, dim: int) -> sp.csc_matrix:
    coo = l_op.tocoo()
    keep = coo.row != 0
    rows = np.concatenate([coo.row[keep], np.zeros(dim, dtype=coo.row.dtype)])
    cols = np.concatenate([coo.col[keep], np.arange(dim) * (dim + 1)])
    data = np.concatenate([coo.data[keep], np.ones(dim, dtype=complex)])
    return sp.coo_matrix((data, (rows, cols)), shape=l_op.shape).tocsc()


def _solve_trace_constrained(a: sp.csc_matrix, b: np.ndarray, dim: int) -> np.ndarray:
    """Solve the trace-constrained system, escalating through solvers.

    The generator entries are pre-scaled to O(1), so an aggressive
    incomplete LU is an excellent preconditioner; a tighter ILU and a full
    sparse LU remain as fallbacks for awkward parameter sets.
    """
    if dim <= DIRECT_SOLVE_MAX_DIM:
        return spla.spsolve(a, b)
    for drop_tol, fill_factor in ((1e-2, 5.0), (1e-4, 15.0)):
        try:
            precond = spla.spilu(a, drop_tol=drop_tol, fill_factor=fill_factor)
        except RuntimeError:
            continue
        op = spla.LinearOperator(a.shape, precond.solve)
        # lgmres divides by a zero Krylov norm when the preconditioner is
        # already exact (undriven systems); the residual check below governs
        with np.errstate(divide="ignore", invalid="ignore"):
            v, info = spla.lgmres(a, b, M=op, rtol=1e-13, atol=1e-16, maxiter=500)
        if info == 0:
            return v
    try:
        return spla.spsolve(a, b)
    except (RuntimeError, MemoryError) as exc:
        raise NumericalError(f"all steady-state solvers failed: {exc}") from exc


def steady_state_full(
    l_op: sp.spmatrix,
    dim: int,
    residual_tol: float = 1e-8,
) -> np.ndarray:
    """Steady-state density matrix of a vectorized Lindblad generator.

    The generator is scaled to O(1) entries, its first row replaced by the
    trace constraint and the sparse system solved (directly for tiny
    dimensions, ILU-preconditioned LGMRES otherwise).  The result is
    validated against the original generator:
    ||L vec(rho)|| <= residual_tol * ||L||.
    """
    data = l_op.tocoo().data
    scale = float(np.max(np.abs(data))) if data.size else 1.0
    a = _replace_trace_row(l_op.multiply(1.0 / scale).tocsr(), dim)
    b = np.zeros(dim * dim, dtype=complex)
    b[0] = 1.0
    v = _solve_trace_constrained(a, b, dim)
    l_norm = spla.norm(l_op)
    residual = float(np.linalg.norm(l_op @ v)) / max(l_norm, 1.0)
    if residual > residual_tol:
        raise NumericalError(
            f"steady-state residual {residual:.3e} exceeds {residual_tol:.1e} "
            f"(generator norm {l_norm:.3e})"
        )
    rho = v.reshape(dim, dim)
    rho = 0.5 * (rho + rho.conj().T)
    tr = float(np.trace(rho).real)
    if abs(tr - 1.0) > 1e-10:
        raise NumericalError(f"steady-state trace deviates from 1 by {abs(tr - 1.0):.3e}")
    return rho


# computational relabeling (q1,q2)-major {gg, ge, eg, ee} -> {gg, eg, ge, ee}
_PAPER_ORDER = np.array([0, 2, 1, 3])


def reduce_to_qubits(rho_full: np.ndarray, cfg: FockConfig) -> TwoQubitState:
    """Partial trace over all modes, returning the two-dot state."""
    mode_dim = cfg.fock_levels**cfg.n
    r6 = rho_full.reshape(2, 2, mode_dim, 2, 2, mode_dim)
    red = np.trace(r6, axis1=2, axis2=5).reshape(4, 4)
    red = red[np.ix_(_PAPER_ORDER, _PAPER_ORDER)]
    return TwoQubitState(rho=red)


def mean_mode_occupation(rho_full: np.ndarray, cfg: FockConfig, mode: int = 0) -> float:
    """<a_m^+ a_m> in the full steady state."""
    nlev = cfg.fock_levels
    number = np.diag(np.arange(nlev)).astype(complex)
    op = _site_operator(number, 2 + mode, cfg.dims)
    return float(np.trace(op @ rho_full).real)


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
    comparison is like for like.
    """
    if omega is None:
        omega = mat.omega_0
    intensities = np.asarray(intensity_grid, dtype=float)
    grid_drive = drive_rates(intensities, mat, qd, omega, phi)
    c_effs = concurrence(steady_state(
        mediated_params(geom, mat, qd, grid_drive, phi_mode="bare"))).tolist()
    rows = []
    for intensity, c_eff in zip(intensities.tolist(), c_effs):
        drive = drive_rates(intensity, mat, qd, omega, phi)
        system = build_full_system(geom, mat, qd, drive, cfg)
        rho_full = steady_state_full(liouvillian(system), cfg.dim)
        state = reduce_to_qubits(rho_full, cfg).validate()
        c_full = concurrence(state)
        rows.append(
            ValidationRow(
                intensity_w_m2=intensity,
                c_eff=c_eff,
                c_full=c_full,
                abs_diff=abs(c_full - c_eff),
            )
        )
    return ValidationTable(n=geom.n, fock_levels=cfg.fock_levels, rows=rows)
