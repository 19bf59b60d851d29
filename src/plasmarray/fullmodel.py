"""Brute-force validator: the dots and every particle as explicit modes.

Each nanoparticle is a truncated harmonic oscillator with N levels, so the
Hilbert space is qubit_1 (x) qubit_2 (x) mode_1 (x) ... (x) mode_n with
dimension 4 N^n.  The Lindblad generator is vectorized row-major
(vec(A rho B) = (A kron B^T) vec(rho)) into a sparse dim^2 x dim^2
superoperator, one row is replaced by the trace constraint and the steady
state is the solution of that linear system.  Reduction to the two dots
is a partial trace over all modes.

Every drive rate is proportional to the field amplitude e0, so at fixed
geometry, dots, truncation and frequency the generator is
L(e0) = L_0 + e0 L_1: L_0 holds the detunings, hopping, dot-mode exchange
and dissipators, L_1 the commutator with the unit-amplitude drive.  One
validation case assembles both once and solves all its intensities in two
stages.  First, the undriven generator has an exact and cheap inverse:
h0 and every c^+ c conserve the total excitation number and each collapse
operator lowers it by one, so in a basis sorted by that number the
trace-constrained L_0 is block triangular, with one small Sylvester
equation per pair of excitation levels (_SectorInverse).  Second, the
shifted systems L_0 + e0 L_1 share one Krylov space of L_1 L_0^-1, so one
Arnoldi run of ~10-20 steps solves every intensity of the case at once
(Frommer & Glaessner, SIAM J. Sci. Comput. 19, 1998).  A point that does
not converge there, or fails a check, is solved on its own by LGMRES
preconditioned with the exact inverse, then with its own natural-order ILU
(after Nation, arXiv:1504.06768), then by a full sparse LU.

This path scales exponentially in n and exists to validate the effective
model on small chains; construction refuses up front when the estimated
memory of the solve (FockConfig.estimated_solve_bytes) exceeds the budget.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.linalg.lapack import ztrsyl

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

# a full-model steady state is accepted when ||L vec(rho)|| <= RESIDUAL_TOL ||L||
RESIDUAL_TOL = 1e-8
# the shifted Arnoldi run: an amplitude is solved once its least-squares
# residual is within ARNOLDI_RTOL (|e_0| = 1); the run ends by
# ARNOLDI_MAX_STEPS at the latest
ARNOLDI_RTOL = 1e-15
ARNOLDI_MAX_STEPS = 40

_BYTES_PER_NNZ = 28  # complex128 value + int32 index + row-pointer share
_BYTES_PER_VALUE = 16  # complex128
# LGMRES restart length and kept correction vectors (scipy's defaults);
# it holds inner_m + outer_k + 1 Arnoldi vectors, as many preconditioned
# ones and outer_k stored pairs
_LGMRES_INNER_M = 30
_LGMRES_OUTER_K = 3
_LGMRES_VECTORS = 2 * (_LGMRES_INNER_M + _LGMRES_OUTER_K) + 1 + 2 * _LGMRES_OUTER_K
# the fallback's ILU stages as (drop tolerance, fill factor)
_FALLBACK_ILU = ((1e-2, 5.0), (1e-4, 15.0))
# dim^2-sized temporaries of one inverse application, one residual check
# and one Hermitisation
_WORK_VECTORS = 8


def _level_sizes(n: int, fock_levels: int) -> np.ndarray:
    """How many basis states hold each total excitation number 0, 1, ...
    (both dots plus all n modes)."""
    sizes = np.array([1, 2, 1])
    for _ in range(n):
        sizes = np.convolve(sizes, np.ones(fock_levels, dtype=np.int64))
    return sizes


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
        L_0 and L_1; the dense blocks of the sector inverse (per excitation
        level of size d_k the Schur form, its basis and their adjoints and
        a dense block of A; per level pair and channel the jump block in
        three layouts); the 2 ARNOLDI_MAX_STEPS + 1 Arnoldi vectors; the
        working vectors of the inverse, the residual check and the
        Hermitisation (with the n + 3 dense dim x dim operators the inverse
        is built from); and the held states: one for iter_steady_states,
        whose caller reduces each state before the next is solved, and one
        per drive amplitude for the stack of steady_state_full.  On top of
        that, a point that escalates holds its trace-constrained generator
        (9n + 7 per row plus the dim-entry trace row), an ILU of it at the
        first stage's fill factor and the LGMRES basis; the later ILU
        1e-4 and sparse-LU stages are not bounded here.
        """
        rows = self.dim**2
        sizes = _level_sizes(self.n, self.fock_levels)
        channels = self.n + 2
        nnz_point = (9 * self.n + 7) * rows + self.dim
        nnz = ((5 * self.n + 3) * rows + self.dim + (4 * self.n + 4) * rows
               + (1 + _FALLBACK_ILU[0][1]) * nnz_point)
        blocks = (4 * int(np.sum(sizes**2))
                  + 3 * channels * int(np.sum(sizes[:-1] * sizes[1:]))
                  + (channels + 1) * self.dim**2)
        vectors = (2 * ARNOLDI_MAX_STEPS + 1 + _WORK_VECTORS + _LGMRES_VECTORS
                   + states)
        return int(_BYTES_PER_NNZ * nnz + _BYTES_PER_VALUE * (blocks + vectors * rows))

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


def _trace_constrained(l_op: sp.csr_matrix, dim: int, scale: float) -> sp.csr_matrix:
    """l_op divided by `scale`, its first row replaced by the trace."""
    start = l_op.indptr[1]
    data = np.empty(l_op.nnz - start + dim, dtype=complex)
    data[:dim] = 1.0
    np.multiply(l_op.data[start:], 1.0 / scale, out=data[dim:])
    indices = np.concatenate([np.arange(dim) * (dim + 1), l_op.indices[start:]])
    indptr = np.concatenate([[0], l_op.indptr[1:] - start + dim])
    return sp.csr_matrix((data, indices, indptr), shape=l_op.shape)


class _SectorInverse:
    """Exact inverse of A_0, the undriven generator L_0 / scale with its
    first row replaced by the trace.

    h0 and every c^+ c conserve the total excitation number (both dots
    plus all modes) and each collapse operator lowers it by exactly one.
    In a basis sorted by excitation number, L_0 therefore maps the (k, l)
    block of rho onto itself as A_k X + X A_l^+, with
    A = -i h0 - 1/2 sum gamma c^+ c, and onto the (k-1, l-1) block through
    the jumps.  A_0 z = v is solved block by block in order of decreasing
    k + l: one triangular Sylvester solve (ztrsyl) per block in the Schur
    bases of the A_k, after subtracting the jumps out of the solved
    (k+1, l+1) block.  The (0, 0) entry, whose Sylvester block is exactly
    0, comes from the trace row.  A_0 maps Hermitian matrices to Hermitian
    ones, so a Hermitian v needs only the blocks with k >= l; any other v
    is solved as its Hermitian and anti-Hermitian parts.  `solve` is also
    the preconditioner interface of _lgmres.
    """

    def __init__(self, order, level, schur_t, schur_q, jumps, scale):
        self._dim = len(order)
        self._sorted = np.ix_(order, order)
        self._upper = level[:, None] < level
        bounds = np.searchsorted(level, np.arange(level[-1] + 2))
        self._slices = [slice(lo, hi) for lo, hi in zip(bounds[:-1], bounds[1:])]
        self._t = schur_t
        self._q = schur_q
        self._qh = [q.conj().T for q in schur_q]
        # the jumps out of level k + 1 into level k, in the Schur bases, as
        # (vcat_c B_c, vcat_c B_c^+) with B_c = Q_k^+ sqrt(gamma_c) c Q_k+1
        self._down = [np.concatenate(b) for b in jumps]
        self._up = [np.concatenate([b_c.conj().T for b_c in b]) for b in jumps]
        self._channels = len(jumps[0]) if jumps else 0
        self._scale = scale

    @classmethod
    def of(cls, system: FullSystem, scale: float):
        """The inverse for `system`'s undriven generator, or None when h0 or
        a collapse operator breaks the excitation-number structure or a
        level above the ground state has an undamped mode."""
        levels = np.indices(system.cfg.dims).sum(0).ravel()
        order = np.argsort(levels, kind="stable")
        level = levels[order]
        basis = np.ix_(order, order)

        def dense(op, shift):
            """op in the sorted basis, or None unless every entry maps
            level k + shift to level k."""
            op = op.toarray()[basis]
            return None if np.any(op[level[:, None] + shift != level]) else op

        a_op = dense(-1j * system.h0 - 0.5 * sum(rate * (c.getH() @ c)
                                                 for rate, c in system.collapse), 0)
        channels = [dense(np.sqrt(rate) * c, 1) for rate, c in system.collapse]
        if a_op is None or any(c is None for c in channels):
            return None
        bounds = np.searchsorted(level, np.arange(level[-1] + 2))
        schur_t, schur_q = [], []
        for k, (lo, hi) in enumerate(zip(bounds[:-1], bounds[1:])):
            t, q = sla.schur(a_op[lo:hi, lo:hi], output="complex")
            if k and np.max(t.diagonal().real) >= 0.0:
                return None
            schur_t.append(t)
            schur_q.append(q)
        jumps = [[schur_q[k].conj().T @ c[lo:mid, mid:hi] @ schur_q[k + 1]
                  for c in channels]
                 for k, (lo, mid, hi) in enumerate(zip(bounds[:-2], bounds[1:-1],
                                                       bounds[2:]))]
        return cls(order, level, schur_t, schur_q, jumps, scale)

    def solve(self, v: np.ndarray) -> np.ndarray:
        """z with A_0 z = v."""
        x = np.asarray(v, dtype=complex).reshape(self._dim, self._dim)
        z = self._solve_hermitian(0.5 * (x + x.conj().T))
        anti = 0.5j * (x.conj().T - x)
        if np.any(anti):
            z = z + 1j * self._solve_hermitian(anti)
        return z.ravel()

    def _solve_hermitian(self, v: np.ndarray) -> np.ndarray:
        """Z with A_0 vec(Z) = vec(V) for a Hermitian dim x dim V."""
        x = v[self._sorted] * self._scale
        slices, q, qh = self._slices, self._q, self._qh
        for s, qh_k in zip(slices, qh):
            x[s] = qh_k @ x[s]
        for s, q_l in zip(slices, q):
            x[:, s] = x[:, s] @ q_l
        top, channels = len(slices) - 1, self._channels
        for total in range(2 * top, 0, -1):
            for k in range((total + 1) // 2, min(top, total) + 1):
                l = total - k
                rows, cols = slices[k], slices[l]
                rhs = x[rows, cols]
                if k < top:
                    inner = self._down[k] @ x[slices[k + 1], slices[l + 1]]
                    inner = inner.reshape(channels, -1, inner.shape[1]).transpose(1, 0, 2)
                    rhs = rhs - inner.reshape(rhs.shape[0], -1) @ self._up[l]
                y, sc, _ = ztrsyl(self._t[k], self._t[l], rhs, tranb="C")
                x[rows, cols] = y if sc == 1.0 else y / sc
        x[0, 0] = v[0, 0] - np.trace(x[1:, 1:])
        np.copyto(x, x.conj().T, where=self._upper)
        for s, q_k in zip(slices, q):
            x[s] = q_k @ x[s]
        for s, qh_l in zip(slices, qh):
            x[:, s] = x[:, s] @ qh_l
        z = np.empty_like(x)
        z[self._sorted] = x
        return z


class _ShiftedLeastSquares:
    """min || e_1 - (I + e0 H) y || for one drive amplitude, kept by Givens
    rotations as the shared Arnoldi run adds columns of its (real)
    Hessenberg matrix H.  Plain Python arithmetic, so an amplitude's y
    depends on e0 and the columns alone, never on the rest of the grid."""

    def __init__(self, e0: float):
        self.e0 = e0
        self.rotations = []
        self.r_columns = []  # of the triangular factor
        self.g = [1.0]
        self.y = None

    def add(self, column: list) -> bool:
        """Take Arnoldi column j (h_0j .. h_j+1,j).  True once this amplitude
        is done: y then holds its coefficients, or None when I + e0 H is
        singular."""
        e0, j = self.e0, len(self.r_columns)
        col = [e0 * h for h in column[:-1]]
        col[j] += 1.0
        for i, (c, s) in enumerate(self.rotations):
            col[i], col[i + 1] = c * col[i] + s * col[i + 1], c * col[i + 1] - s * col[i]
        rho = math.hypot(col[j], e0 * column[-1])
        if rho == 0.0:
            return True
        c, s = col[j] / rho, e0 * column[-1] / rho
        self.rotations.append((c, s))
        col[j] = rho
        self.r_columns.append(col)
        self.g.append(-s * self.g[j])
        self.g[j] *= c
        if abs(self.g[-1]) > ARNOLDI_RTOL:
            return False
        y = [0.0] * (j + 1)
        for i in range(j, -1, -1):
            tail = sum(self.r_columns[m][i] * y[m] for m in range(i + 1, j + 1))
            y[i] = (self.g[i] - tail) / self.r_columns[i][i]
        self.y = y
        return True


def _shifted_arnoldi(inverse: _SectorInverse, a_1: sp.csr_matrix, amplitudes: list):
    """Coefficients y (or None) per amplitude and the vectors Z with
    (A_0 + e0 A_1) (Z y) = e_0.

    Since the shifted systems share the Krylov space of A_1 A_0^-1 from
    e_0, one Arnoldi run serves every amplitude (Frommer & Glaessner, SIAM
    J. Sci. Comput. 19, 1998); it keeps Z_j = A_0^-1 v_j.  Classical
    Gram-Schmidt with one reorthogonalisation; an exactly zero new vector
    (the undriven case at once) ends the run.  Both generators map
    Hermitian matrices to Hermitian ones and e_0 is one, so the run stays
    among them: each new vector is Hermitised, its coefficients are real
    and every v_j needs only the Hermitian half of the inverse.  Each
    amplitude keeps its y from the first step where its own residual is
    within ARNOLDI_RTOL; one that has not converged by ARNOLDI_MAX_STEPS
    gets None.
    """
    size = a_1.shape[0]
    dim = math.isqrt(size)
    basis = np.empty((ARNOLDI_MAX_STEPS + 1, size), dtype=complex)
    solved = np.empty((ARNOLDI_MAX_STEPS, size), dtype=complex)
    basis[0] = 0.0
    basis[0, 0] = 1.0
    coeffs = [None] * len(amplitudes)
    pending = {k: _ShiftedLeastSquares(e0) for k, e0 in enumerate(amplitudes)}
    for j in range(ARNOLDI_MAX_STEPS):
        if not pending:
            break
        solved[j] = inverse.solve(basis[j])
        w = (a_1 @ solved[j]).reshape(dim, dim)
        w = (0.5 * (w + w.conj().T)).ravel()
        v = basis[: j + 1]
        h = (v @ w.conj()).real
        w -= h @ v
        again = (v @ w.conj()).real
        w -= again @ v
        h += again
        beta = float(np.linalg.norm(w))
        column = h.tolist() + [beta]
        for k in list(pending):
            if pending[k].add(column):
                coeffs[k] = pending.pop(k).y
        if beta == 0.0:
            break
        basis[j + 1] = w / beta
    return coeffs, solved


def _frobenius_parts(l_0: sp.csr_matrix, l_1: sp.csr_matrix) -> tuple:
    """||L_0||^2, 2 Re<L_0, L_1> and ||L_1||^2: ||L_0 + e0 L_1||_F^2 is
    their polynomial in e0."""
    cross = l_0.multiply(l_1.conj()).sum()
    return spla.norm(l_0) ** 2, 2.0 * float(np.real(cross)), spla.norm(l_1) ** 2


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


def _solve_point(l_0, l_1, e0: float, dim: int, scale: float, inverse) -> np.ndarray:
    """The fallback for one amplitude: its own trace-constrained generator,
    escalating through solvers.

    LGMRES preconditioned by the exact undriven inverse (when the case has
    one), then by this system's own natural-order ILU (1e-2, then 1e-4),
    then a full sparse LU.
    """
    a = _trace_constrained(l_0 + e0 * l_1, dim, scale)
    b = np.zeros(dim * dim, dtype=complex)
    b[0] = 1.0
    if inverse is not None:
        v, info = _lgmres(a, b, inverse)
        if info == 0:
            return v
    for drop_tol, fill_factor in _FALLBACK_ILU:
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


def _checked_state(v: np.ndarray, l_0, l_1, e0: float, dim: int, l_norm: float) -> np.ndarray:
    """v as a density matrix once it passes the checks against its generator
    L_0 + e0 L_1: ||L v|| <= RESIDUAL_TOL ||L||, then Hermitised and
    trace-checked."""
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


def iter_steady_states(system: FullSystem):
    """Steady-state density matrix of the explicit model at each drive
    amplitude, yielded one (dim, dim) state at a time.

    The generator is L(e0) = L_0 + e0 L_1, with L_0 = liouvillian(h0,
    collapse) and L_1 = liouvillian(h1) assembled once.  Every amplitude
    solves (A_0 + e0 A_1) x = e_0, where A_0 is L_0 / max|L_0| with its
    first row replaced by the trace and A_1 is L_1 on the same scale with
    its first row zeroed.  A_0 has an exact block inverse
    (_SectorInverse), and one shifted Arnoldi run on A_1 A_0^-1 solves
    every amplitude at once; each state is formed from the shared vectors
    as it is yielded.  Each state is validated against its own generator
    (||L vec(rho)|| <= RESIDUAL_TOL ||L||, with ||L||_F from the parts of
    _frobenius_parts), Hermitised and trace-checked.  An amplitude that
    does not converge or fails a check, and every amplitude of a system
    without the excitation-number structure, is solved on its own by
    _solve_point and checked again.
    """
    dim = system.cfg.dim
    l_0 = liouvillian(system.h0, system.collapse)
    l_1 = liouvillian(system.h1)
    scale = float(np.max(np.abs(l_0.data)))
    n0, cross, n1 = _frobenius_parts(l_0, l_1)
    amplitudes = np.ravel(system.e0).tolist()
    inverse = _SectorInverse.of(system, scale)
    coeffs, solved = [None] * len(amplitudes), None
    if inverse is not None and amplitudes:
        a_1 = l_1 * (1.0 / scale)
        a_1.data[: a_1.indptr[1]] = 0.0
        coeffs, solved = _shifted_arnoldi(inverse, a_1, amplitudes)
    for e0, y in zip(amplitudes, coeffs):
        l_norm = math.sqrt(max(n0 + e0 * (cross + e0 * n1), 0.0))
        if y is not None:
            try:
                yield _checked_state(np.asarray(y) @ solved[: len(y)], l_0, l_1, e0, dim,
                                     l_norm)
                continue
            except NumericalError:
                pass
        v = _solve_point(l_0, l_1, e0, dim, scale, inverse)
        yield _checked_state(v, l_0, l_1, e0, dim, l_norm)


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
    case: one assembly, one exact inverse of the undriven generator and one
    shifted Arnoldi run serve every intensity (iter_steady_states), and each
    full state is reduced to the dots before the next is formed.
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
