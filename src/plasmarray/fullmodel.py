"""Brute-force validator: the dots and every particle as explicit modes.

Each nanoparticle is a truncated harmonic oscillator with N levels, so the
Hilbert space is qubit_1 (x) qubit_2 (x) mode_1 (x) ... (x) mode_n with
dimension 4 N^n.  The steady state rho solves L rho = 0 with tr rho = 1,
and reduction to the two dots is a partial trace over all modes.

Every drive rate is proportional to the field amplitude e0, so at fixed
geometry, dots, truncation and frequency the generator is
L(e0) = L_0 + e0 L_1: L_0 holds the detunings, hopping, dot-mode exchange
and dissipators, L_1 the commutator with the unit-amplitude drive.  Both
are applied to dim x dim matrices (_Generator), never assembled as
dim^2 x dim^2 superoperators: L_0(rho) = A rho + rho A^+ + sum gamma c rho
c^+ with A = -i h0 - 1/2 sum gamma c^+ c, and L_1(rho) = -i [h1, rho].
Every operator is a handful of constant-offset bands of the product basis
(h0: the diagonal and one pair per exchange; h1 and each lowering
operator: the site strides), held as {offset: weights} with entry
(i, i + offset) = weights[i], so the model runs on numpy alone.
Vectors are dim x dim matrices read row-major, so the trace constraint
replaces the (0, 0) entry.  One validation case solves all its intensities
in two stages.  First, the undriven generator has an exact and cheap
inverse: h0 and every c^+ c conserve the total excitation number and each
collapse operator lowers it by one, so in a basis sorted by that number the
trace-constrained L_0 is block triangular.  In the eigenbases of the
per-level blocks of A each pair of excitation levels is then solved by one
elementwise product (_SectorInverse).  Second, the
shifted systems L_0 + e0 L_1 share one Krylov space of L_1 L_0^-1, so one
Arnoldi run of ~10-50 steps solves every intensity of the case at once
(Frommer & Glaessner, SIAM J. Sci. Comput. 19, 1998).  An intensity that
the run leaves unsolved, or whose state fails a check, raises
NumericalError.

This path scales exponentially in n and exists to validate the effective
model on small chains; construction refuses up front when the estimated
memory of the solve (FockConfig.estimated_solve_bytes) exceeds the budget.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .constants import HBAR
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
from .steadystate import check_states, concurrence, steady_state

__all__ = [
    "FockConfig",
    "FullSystem",
    "build_full_system",
    "iter_steady_states",
    "reduce_to_qubits",
    "ValidationRow",
    "ValidationTable",
    "validate_against_effective",
]

# no sparse solver runs here; perfbench's tracer looks its solvers up on
# this name and reports them absent
spla = None

# a full-model steady state is accepted when ||L vec(rho)|| <= RESIDUAL_TOL ||L||
RESIDUAL_TOL = 1e-8
# the sector inverse works in per-level eigenbases V_k, which amplify
# rounding by up to cond(V_k)^2; a level with ||V_k||_1 ||V_k^-1||_1 above
# this bound, where cond^2 eps would reach RESIDUAL_TOL, is refused
MAX_EIGENBASIS_COND = math.sqrt(RESIDUAL_TOL / np.finfo(float).eps)
# the shifted Arnoldi run: an amplitude is solved once its least-squares
# residual is within ARNOLDI_RTOL (|e_0| = 1); the run ends by
# ARNOLDI_MAX_STEPS at the latest
ARNOLDI_RTOL = 1e-15
ARNOLDI_MAX_STEPS = 128

_BYTES_PER_VALUE = 16  # complex128
# dim x dim temporaries of one inverse application, one application of
# L_0 + e0 L_1 (residual check) and one Hermitisation
_WORK_VECTORS = 10
# a Python float and its list slot; one shifted least-squares fit of m
# steps holds m (m + 1) / 2 of them in its triangular factor and about 8 m
# more in its rotations, right-hand side, coefficients and list headers
_BYTES_PER_PY_FLOAT = 32


def _level_sizes(n: int, fock_levels: int) -> np.ndarray:
    """How many basis states hold each total excitation number 0, 1, ...
    (both dots plus all n modes), as exact Python ints: the budget
    estimate squares them, which overflows int64 for long chains."""
    sizes = np.array([1, 2, 1], dtype=object)
    for _ in range(n):
        sizes = np.convolve(sizes, np.ones(fock_levels, dtype=object))
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

    def estimated_solve_bytes(self, states: int, amplitudes: int) -> int:
        """An upper bound on what the explicit-mode solve of `amplitudes`
        drive amplitudes holds at once while it keeps `states` solved
        dim x dim states.

        The generator is applied to dim x dim matrices, so the solve holds
        dim x dim arrays and a few band operators of dim weights per band:
        the n + 2 lowering operators (one band each), h0 and A (2n + 3
        each: the diagonal and two per hopping pair and per dot), h1 and
        D = -i h1 (two per site each).  The sector inverse keeps, per
        excitation level of size d_k, its eigenbasis V_k, V_k^-1 and their
        adjoints; per level pair k >= l the d_k d_l inverse diagonal; per
        adjacent level pair and channel the jump block in two layouts; and
        a one-byte dim x dim mask.  Beside these, the solve runs in two
        phases, and the larger one is counted.  While the inverse is built
        (_SectorInverse.of) it holds the level blocks A_k and a third
        layout of the jump blocks, all cut from the bands.  These are freed
        before the shifted Arnoldi run, which holds its 2 ARNOLDI_MAX_STEPS
        + 1 vectors, the working matrices of the inverse, of one
        application of the generator and of the Hermitisation, the held
        states (one for iter_steady_states, whose caller reduces each state
        before the next is solved) and, per amplitude, a least-squares fit
        of up to ARNOLDI_MAX_STEPS steps in Python floats
        (_ShiftedLeastSquares).
        """
        rows = self.dim**2
        sizes = _level_sizes(self.n, self.fock_levels)
        channels = self.n + 2
        bands = 9 * self.n + 16
        blocks = int(np.sum(sizes**2))
        pairs = int(np.sum(sizes[:-1] * sizes[1:]))
        inverse = (4 * blocks + (rows + blocks) // 2
                   + 2 * channels * pairs + rows // _BYTES_PER_VALUE)
        build = blocks + channels * pairs
        m = ARNOLDI_MAX_STEPS
        fits = amplitudes * (m * (m + 1) // 2 + 8 * m)
        run = ((2 * m + 1 + _WORK_VECTORS + states) * rows * _BYTES_PER_VALUE
               + _BYTES_PER_PY_FLOAT * fits)
        return int(_BYTES_PER_VALUE * (bands * self.dim + inverse)
                   + max(_BYTES_PER_VALUE * build, run))

    def check_budget(self, states: int, amplitudes: int) -> None:
        est = self.estimated_solve_bytes(states, amplitudes)
        if est > self.memory_budget_bytes:
            raise MemoryBudgetError(
                f"explicit-mode solve for n={self.n}, N={self.fock_levels} "
                f"(dim {self.dim}) needs ~{est / 2**30:.2f} GiB, over the "
                f"budget of {self.memory_budget_bytes / 2**30:.2f} GiB"
            )


@dataclass
class FullSystem:
    """Hamiltonian and collapse channels of the explicit model.

    The Hamiltonian is h0 + e0 h1, each a band operator {offset: (dim,)
    complex weights} with entry (i, i + offset) = weights[i].  h0 holds
    the detunings, the mode hopping and the dot-mode exchange; h1 is the
    drive at unit field amplitude (1 V/m), since every drive rate is
    proportional to e0.  e0 is the drive's field amplitude (V/m): a
    scalar, or one per intensity.  Each collapse channel is sqrt(rate)
    times the lowering operator of one site of cfg.dims (_lowering).
    """

    cfg: FockConfig
    h0: dict
    h1: dict
    e0: np.ndarray
    collapse: list  # (rate, site) pairs


def _occupation(dims: tuple, site: int) -> np.ndarray:
    """The occupation number of `site` in each state of the ordered
    product basis."""
    return np.arange(math.prod(dims)) // math.prod(dims[site + 1:]) % dims[site]


def _lowering(dims: tuple, site: int) -> dict:
    """The lowering operator of `site` in the ordered product space,
    c |.., m, ..> = sqrt(m) |.., m - 1, ..>: one band at the site's stride."""
    stride = math.prod(dims[site + 1:])
    weights = np.zeros(math.prod(dims), dtype=complex)
    weights[:-stride] = np.sqrt(_occupation(dims, site)[stride:])
    return {stride: weights}


def _add_band(bands: dict, dim: int, offset: int, rows: np.ndarray, values) -> None:
    """Add `values` at entries (rows, rows + offset) of a dim x dim band
    operator."""
    bands.setdefault(offset, np.zeros(dim, dtype=complex))[rows] += values


def _product(bands: dict, h: np.ndarray, out: np.ndarray, scale: complex = 1.0) -> None:
    """out += scale B H for the band operator B: one sliced multiply-add
    per band."""
    dim = len(h)
    for offset, weights in bands.items():
        lo, hi = max(0, -offset), min(dim, dim - offset)
        out[lo:hi] += (scale * weights[lo:hi])[:, None] * h[lo + offset:hi + offset]


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
    intensity or several at a single frequency; h1 takes its rates at
    e0 = 1 V/m from the dipoles, as drive_rates does, so it does not depend
    on the intensities.  The budget check counts one held state
    (iter_steady_states) and one least-squares fit per intensity.
    """
    if cfg.n != geom.n:
        raise DomainError(f"Fock config n={cfg.n} does not match geometry n={geom.n}")
    cfg.check_budget(1, np.size(drive.e0))
    dims, sites = cfg.dims, range(cfg.n + 2)
    occupation = [_occupation(dims, site) for site in sites]
    stride = [math.prod(dims[site + 1:]) for site in sites]

    couplings = bare_couplings(geom, qd, mat)
    pole = complex_pole(mat, qd, drive.omega)

    detuning = [pole.detuning_1, pole.detuning_2] + [pole.detuning_0] * cfg.n
    h0 = {0: sum(d * m for d, m in zip(detuning, occupation)).astype(complex)}
    # (rate, k, l): -rate (c_k^+ c_l + h.c.) between neighbouring modes and
    # between each dot and its end mode; c_k^+ c_l moves state j, with
    # m_l > 0 and m_k below the cut-off, to i = j - (stride_l - stride_k)
    exchange = [(couplings.kappa, 2 + m, 3 + m) for m in range(cfg.n - 1)]
    exchange += [(couplings.g, 0, 2), (couplings.g, 1, cfg.n + 1)]
    for rate, k, l in exchange:
        offset = stride[l] - stride[k]
        j = np.flatnonzero((occupation[l] > 0) & (occupation[k] < dims[k] - 1))
        hop = -rate * (np.sqrt(occupation[k][j] + 1) * np.sqrt(occupation[l][j]))
        _add_band(h0, cfg.dim, offset, j - offset, hop)
        _add_band(h0, cfg.dim, -offset, j, hop)

    lambda_1 = qd.mu_qd / HBAR
    rates = [lambda_1, lambda_1 * complex(math.cos(drive.phi), math.sin(drive.phi))]
    rates += [mat.mu_mnp / HBAR] * cfg.n
    # -(rate c^+ + conj(rate) c), with c j = sqrt(m) (j - stride)
    h1 = {}
    for rate, m, s in zip(rates, occupation, stride):
        j = np.flatnonzero(m)
        root = np.sqrt(m[j])
        _add_band(h1, cfg.dim, -s, j, -(rate * root))
        _add_band(h1, cfg.dim, s, j - s, -(np.conj(rate) * root))

    collapse = [(qd.gamma_i, 0), (qd.gamma_i, 1)]
    collapse += [(mat.gamma_0, 2 + m) for m in range(cfg.n)]
    return FullSystem(cfg=cfg, h0=h0, h1=h1, e0=drive.e0, collapse=collapse)


class _Generator:
    """L(e0) = L_0 + e0 L_1 of one case, applied to Hermitian dim x dim
    matrices H.

    L_0(H) = A H + H A^+ + sum gamma c H c^+ with A = -i h0 - 1/2 sum gamma
    c^+ c, and L_1(H) = -i [h1, H] = D H + H D^+ with D = -i h1; H B^+ is
    (B H)^+, so each term costs one band product (_product).  A lowering
    operator of stride s makes c H c^+ a weighted view of H: with H as
    (before, d, after) x (before, d, after), its entry at occupations
    (m, m') is sqrt((m + 1)(m' + 1)) H at (m + 1, m' + 1).  Every result
    is exactly Hermitian.  `scale` is the per-case constant of the
    trace-constrained systems: the largest diagonal entry of L_0 in
    modulus, |A_ii + conj(A_jj)|.
    """

    def __init__(self, system: FullSystem):
        dims = system.cfg.dims
        self.dims = dims
        self.dim = system.cfg.dim
        self.collapse = system.collapse
        decay = sum(rate * _occupation(dims, site) for rate, site in system.collapse)
        self.a = {offset: -1j * w for offset, w in system.h0.items()}
        self.a[0] = self.a.get(0, 0j) - 0.5 * decay
        self.d = {offset: -1j * w for offset, w in system.h1.items()}
        self.jumps = []
        for rate, site in system.collapse:
            root = np.sqrt(np.arange(1, dims[site]))
            shape = (math.prod(dims[:site]), dims[site], math.prod(dims[site + 1:])) * 2
            self.jumps.append((shape, rate * np.outer(root, root)[:, None, None, :, None]))
        diag = self.a[0]
        self.scale = float(np.max(np.abs(diag[:, None] + diag.conj())))
        self._norm_parts = self._frobenius_parts()

    def apply(self, h: np.ndarray, e0: float) -> np.ndarray:
        """L_0(H) + e0 L_1(H)."""
        y = np.zeros_like(h)
        _product(self.a, h, y)
        _product(self.d, h, y, e0)
        out = y + y.conj().T
        for shape, weight in self.jumps:
            out.reshape(shape)[:, :-1, :, :, :-1] += weight * h.reshape(shape)[:, 1:, :, :, 1:]
        return out

    def drive(self, h: np.ndarray) -> np.ndarray:
        """L_1(H)."""
        y = np.zeros_like(h)
        _product(self.d, h, y)
        return y + y.conj().T

    def _frobenius_parts(self) -> tuple:
        """||L_0||^2 and ||L_1||^2 (Frobenius), from traces.

        Row-major, L(e0) = B (x) I + I (x) conj(B) + sum gamma c (x) conj(c)
        with B = A + e0 D, D = -i h1, and <X (x) Y, P (x) Q> =
        tr(X^+ P) tr(Y^+ Q).  A lowering operator has zero trace and two on
        different sites are trace-orthogonal, so every jump term is
        orthogonal to the others and to the B terms:
        ||L||^2 = 2 dim ||B||^2 + 2 Re tr(B)^2 + sum gamma^2 ||c||^4.
        The diagonal band gives each trace, and only bands at the same
        offset meet in an inner product.  L_0 and L_1 are orthogonal, so
        ||L(e0)||^2 = ||L_0||^2 + e0^2 ||L_1||^2: A conserves the total
        excitation number and D changes it by one, so no entry of A meets
        one of D, and D has no diagonal, so tr(D) = 0.  The first holds for
        every h0 the solve accepts: _SectorInverse.of refuses an h0 that
        breaks it before any norm is taken.
        """
        a, d, dim = self.a, self.d, self.dim
        tr_a = a[0].sum()
        a_a = sum(np.vdot(w, w).real for w in a.values())
        d_d = sum(np.vdot(w, w).real for w in d.values())
        jumps = sum((rate * _occupation(self.dims, site).sum()) ** 2
                    for rate, site in self.collapse)
        return 2 * dim * a_a + 2 * (tr_a * tr_a).real + jumps, 2 * dim * d_d

    def norm(self, e0: float) -> float:
        """||L_0 + e0 L_1||_F."""
        n0, n1 = self._norm_parts
        return math.sqrt(max(n0 + e0 * e0 * n1, 0.0))


def _block(bands: dict, rows: np.ndarray, position: np.ndarray, width: int) -> np.ndarray:
    """The rows `rows` of a band operator whose nonzero entries in them
    all lie in one excitation level of `width` states, as a dense
    len(rows) x width block: column j of the operator lands at position[j]."""
    block = np.zeros((len(rows), width), dtype=complex)
    for offset, w in bands.items():
        weights = w[rows]
        hit = np.flatnonzero(weights)
        block[hit, position[rows[hit] + offset]] = weights[hit]
    return block


class _SectorInverse:
    """Exact inverse of A_0, the undriven generator L_0 / scale with its
    first row replaced by the trace.

    h0 and every c^+ c conserve the total excitation number (both dots
    plus all modes) and each collapse operator lowers it by exactly one.
    In a basis sorted by excitation number, L_0 therefore maps the (k, l)
    block of rho onto itself as A_k X + X A_l^+, with
    A = -i h0 - 1/2 sum gamma c^+ c, and onto the (k-1, l-1) block through
    the jumps.  Each level block is diagonalised,
    A_k = V_k diag(lambda_k) V_k^-1, and rho is written as X = V Y V^+
    with V = diag(V_k): this congruence keeps Hermitian matrices Hermitian
    and maps each jump c to V_k^-1 c V_k+1.  There the (k, l) block map is
    Y -> Y * (lambda_k,i + conj(lambda_l,j)) elementwise, so A_0 z = v is
    solved one row of blocks (k, 0..k) at a time from the top level down:
    subtract the jumps out of the solved blocks (k+1, l+1), then one
    elementwise product by the precomputed inverse of that factor.  A_0 maps
    Hermitian matrices to Hermitian ones, and `solve` takes Hermitian ones
    alone (the Arnoldi vectors), so it solves only the blocks with k >= l
    and mirrors the rest.  The (0, 0) entry, whose block equation is
    exactly 0, comes from the trace row once X is back in the sorted
    basis; the ground level is one state with V_0 = 1, so that is exact.

    V is not unitary, so each level's eigenbasis must be well conditioned:
    `of` refuses a level whose ||V_k||_1 ||V_k^-1||_1 exceeds
    MAX_EIGENBASIS_COND (a defective or nearly defective A_k, such as an
    exceptional point of a dot and a mode).
    """

    def __init__(self, order, level, eigenvalues, bases, inverses, jumps, scale):
        self._sorted = np.ix_(order, order)
        self._upper = level[:, None] < level
        bounds = np.searchsorted(level, np.arange(level[-1] + 2))
        slices = [slice(lo, hi) for lo, hi in zip(bounds[:-1], bounds[1:])]
        # the congruence touches only the blocks with k >= l: for each
        # excited level its row strip and column strip of that half
        strips = [((s, slice(0, s.stop)), (slice(s.start, None), s)) for s in slices[1:]]
        self._into = [(rows, w, cols, w.conj().T) for (rows, cols), w in zip(strips, inverses[1:])]
        self._out = [(rows, b, cols, b.conj().T) for (rows, cols), b in zip(strips, bases[1:])]
        # one entry per excited level k, from the top down: (row k of the
        # k >= l half, jump, 1 / (lambda_k,i + conj(lambda_j)) over it).
        # The jumps into row k come out of row k + 1: with B_c,k =
        # V_k^-1 sqrt(gamma_c) c V_k+1, one product vcat_c B_c,k @ row k+1
        # gives every B_c,k Y_k+1,l+1; regrouped so that each level l + 1
        # spans all channels, one product per block with B_c,l^+ stacked to
        # match sums them.  jump is None on the top level and otherwise
        # (source row, vcat_c B_c,k, [(columns of level l, span, up_l)]).
        channels = len(jumps[0])
        ups = [np.stack([b_c.conj().T for b_c in b], axis=1).reshape(-1, b[0].shape[0])
               for b in jumps]
        lam = np.concatenate(eigenvalues)
        top, first = len(slices) - 1, slices[1].start
        self._rows = []
        for k in range(top, 0, -1):
            row = (slices[k], slice(0, slices[k].stop))
            den = 1.0 / (eigenvalues[k][:, None] + lam[: slices[k].stop].conj())
            jump = None
            if k < top:
                blocks = [(slices[l], slice(channels * (slices[l + 1].start - first),
                                            channels * (slices[l + 1].stop - first)), ups[l])
                          for l in range(k + 1)]
                jump = ((slices[k + 1], slice(first, slices[k + 1].stop)),
                        np.concatenate(jumps[k]), blocks)
            self._rows.append((row, jump, den))
        self._channels = channels
        self._scale = scale

    @classmethod
    def of(cls, generator: _Generator):
        """The inverse of `generator`'s trace-constrained L_0, or None when
        h0 breaks the excitation-number structure, or a level above the
        ground state has an undamped mode or is not diagonalisable to
        working accuracy."""
        levels = np.indices(generator.dims).sum(0).ravel()
        for offset, w in generator.a.items():
            rows = np.flatnonzero(w)
            if np.any(levels[rows + offset] != levels[rows]):
                return None
        order = np.argsort(levels, kind="stable")
        level = levels[order]
        bounds = np.searchsorted(level, np.arange(level[-1] + 2))
        # each state's position within its excitation level
        position = np.empty_like(order)
        position[order] = np.arange(len(order)) - bounds[level]
        channels = [{offset: np.sqrt(rate) * w for offset, w in
                     _lowering(generator.dims, site).items()}
                    for rate, site in generator.collapse]
        one = np.ones((1, 1), dtype=complex)
        eigenvalues, bases, inverses = [np.zeros(1, dtype=complex)], [one], [one]
        for lo, hi in zip(bounds[1:-1], bounds[2:]):
            lam, v = np.linalg.eig(_block(generator.a, order[lo:hi], position, hi - lo))
            try:
                w = np.linalg.inv(v)
            except np.linalg.LinAlgError:
                return None
            cond = np.abs(v).sum(0).max() * np.abs(w).sum(0).max()
            if np.max(lam.real) >= 0.0 or not cond <= MAX_EIGENBASIS_COND:
                return None
            eigenvalues.append(lam)
            bases.append(v)
            inverses.append(w)
        jumps = [[inverses[k] @ _block(c, order[lo:mid], position, hi - mid) @ bases[k + 1]
                  for c in channels]
                 for k, (lo, mid, hi) in enumerate(zip(bounds[:-2], bounds[1:-1],
                                                       bounds[2:]))]
        return cls(order, level, eigenvalues, bases, inverses, jumps, generator.scale)

    def solve(self, v: np.ndarray) -> np.ndarray:
        """Z with A_0 vec(Z) = vec(V) for a Hermitian dim x dim V."""
        x = v[self._sorted] * self._scale
        for rows, w, cols, w_h in self._into:
            x[rows] = w @ x[rows]
            x[cols] = x[cols] @ w_h
        for row, jump, den in self._rows:
            y = x[row]
            if jump is not None:
                source, down, blocks = jump
                p = (down @ x[source]).reshape(self._channels, len(y), -1)
                p = p.transpose(1, 2, 0).reshape(len(y), -1)
                for cols, span, up in blocks:
                    y[:, cols] -= p[:, span] @ up
            y *= den
        for rows, b, cols, b_h in self._out:
            x[rows] = b @ x[rows]
            x[cols] = x[cols] @ b_h
        np.copyto(x, x.conj().T, where=self._upper)
        x[0, 0] = v[0, 0] - np.trace(x[1:, 1:])
        z = np.empty_like(x)
        z[self._sorted] = x
        return z


class _ShiftedLeastSquares:
    """min || e_1 - (I + e0 H) y || for one drive amplitude, kept by Givens
    rotations as the shared Arnoldi run adds columns of its (real)
    Hessenberg matrix H.  Plain Python arithmetic, so an amplitude's y
    depends on e0 and the columns alone, never on the rest of the grid.
    Once the amplitude is done the factor is dropped, and only `steps`,
    `residual` and `y` are kept."""

    def __init__(self, e0: float):
        self.e0 = e0
        self.rotations = []
        self.r_columns = []  # of the triangular factor
        self.g = [1.0]
        self.y = None
        self.steps = 0  # columns taken
        self.residual = 1.0  # of the least squares, after the last column solved

    def add(self, column: list) -> bool:
        """Take Arnoldi column j (h_0j .. h_j+1,j).  True once this amplitude
        is done: y then holds its coefficients, or stays None when I + e0 H
        is singular."""
        e0, j = self.e0, len(self.r_columns)
        self.steps += 1
        col = [e0 * h for h in column[:-1]]
        col[j] += 1.0
        for i, (c, s) in enumerate(self.rotations):
            col[i], col[i + 1] = c * col[i] + s * col[i + 1], c * col[i + 1] - s * col[i]
        rho = math.hypot(col[j], e0 * column[-1])
        if rho == 0.0:
            return self._done(None)
        c, s = col[j] / rho, e0 * column[-1] / rho
        self.rotations.append((c, s))
        col[j] = rho
        self.r_columns.append(col)
        self.g.append(-s * self.g[j])
        self.g[j] *= c
        self.residual = abs(self.g[-1])
        if self.residual > ARNOLDI_RTOL:
            return False
        y = [0.0] * (j + 1)
        for i in range(j, -1, -1):
            tail = sum(self.r_columns[m][i] * y[m] for m in range(i + 1, j + 1))
            y[i] = (self.g[i] - tail) / self.r_columns[i][i]
        return self._done(y)

    def _done(self, y) -> bool:
        self.y = y
        self.rotations = self.r_columns = self.g = None
        return True


def _shifted_arnoldi(generator: _Generator, inverse: _SectorInverse, amplitudes: list):
    """The least-squares fit of each amplitude (_ShiftedLeastSquares, whose
    y stays None when unsolved) and the vectors Z with
    (A_0 + e0 A_1) (Z y) = e_0, where A_1 Z is L_1(Z) / scale with its
    (0, 0) entry zeroed (the trace row).

    Since the shifted systems share the Krylov space of A_1 A_0^-1 from
    e_0, one Arnoldi run serves every amplitude (Frommer & Glaessner, SIAM
    J. Sci. Comput. 19, 1998); it keeps Z_j = A_0^-1 v_j.  Classical
    Gram-Schmidt with one reorthogonalisation; an exactly zero new vector
    ends the run.  Both generators map Hermitian matrices to Hermitian ones
    and e_0 is one, so the run stays among them: the inverse and
    _Generator.drive return exactly Hermitian matrices, the coefficients
    are real and every v_j needs only the Hermitian half of the inverse.
    Each amplitude keeps its y from the first step where its own residual
    is within ARNOLDI_RTOL; the run ends once every amplitude is done, or
    after ARNOLDI_MAX_STEPS.
    """
    dim = generator.dim
    basis = np.empty((ARNOLDI_MAX_STEPS + 1, dim * dim), dtype=complex)
    solved = np.empty((ARNOLDI_MAX_STEPS, dim * dim), dtype=complex)
    basis[0] = 0.0
    basis[0, 0] = 1.0
    fits = [_ShiftedLeastSquares(e0) for e0 in amplitudes]
    pending = fits
    for j in range(ARNOLDI_MAX_STEPS):
        if not pending:
            break
        solved[j] = inverse.solve(basis[j].reshape(dim, dim)).ravel()
        w = generator.drive(solved[j].reshape(dim, dim)) * (1.0 / generator.scale)
        w[0, 0] = 0.0
        w = w.ravel()
        v = basis[: j + 1]
        h = (v @ w.conj()).real
        w -= h @ v
        again = (v @ w.conj()).real
        w -= again @ v
        h += again
        beta = float(np.linalg.norm(w))
        column = h.tolist() + [beta]
        pending = [fit for fit in pending if not fit.add(column)]
        if beta == 0.0:
            break
        basis[j + 1] = w / beta
    return fits, solved


def _checked_state(v: np.ndarray, generator: _Generator, e0: float) -> np.ndarray:
    """The Hermitian part rho of v, once v passes the checks against its
    generator L = L_0 + e0 L_1: ||L v|| <= RESIDUAL_TOL ||L||, then the
    trace.

    L maps rho and the anti-Hermitian part v - rho to a Hermitian and an
    anti-Hermitian matrix, which are orthogonal, and ||L (v - rho)|| <=
    ||L||_F ||v - rho||_F; so hypot(||L rho||, ||L|| ||v - rho||), the
    residual checked, bounds ||L v|| from above.  The Arnoldi states are
    Hermitian up to rounding, and for them it is ||L rho||.
    """
    x = v.reshape(generator.dim, generator.dim)
    rho = 0.5 * (x + x.conj().T)
    l_norm = generator.norm(e0)
    residual = math.hypot(float(np.linalg.norm(generator.apply(rho, e0))),
                          l_norm * float(np.linalg.norm(x - rho))) / max(l_norm, 1.0)
    if residual > RESIDUAL_TOL:
        raise NumericalError(
            f"steady-state residual {residual:.3e} exceeds {RESIDUAL_TOL:.1e} "
            f"at e0 = {e0:.6e} V/m (generator norm {l_norm:.3e})"
        )
    tr = float(np.trace(rho).real)
    if abs(tr - 1.0) > 1e-10:
        raise NumericalError(f"steady-state trace deviates from 1 by {abs(tr - 1.0):.3e}")
    return rho


def iter_steady_states(system: FullSystem):
    """Steady-state density matrix of the explicit model at each drive
    amplitude, yielded one (dim, dim) state at a time.

    The generator L(e0) = L_0 + e0 L_1 is applied at the operator level
    (_Generator).  Every amplitude solves (A_0 + e0 A_1) x = e_0, where A_0
    is L_0 / scale with its (0, 0) row replaced by the trace and A_1 is L_1
    on the same scale with that row zeroed.  A_0 has an exact block inverse
    (_SectorInverse), and one shifted Arnoldi run on A_1 A_0^-1 solves
    every amplitude at once; each state is formed from the shared vectors
    as it is yielded.  Each state is validated against its own generator
    (||L vec(rho)|| <= RESIDUAL_TOL ||L||, through the bound of
    _checked_state and with ||L||_F from operator traces), Hermitised and
    trace-checked.  Raises NumericalError when A_0 has no exact inverse
    (h0 breaks the excitation-number structure, or an excited level has
    an undamped mode or is not diagonalisable to working accuracy), when
    the run leaves an amplitude unsolved (ARNOLDI_MAX_STEPS reached, or
    I + e0 H singular), or when a state fails a check.
    """
    generator = _Generator(system)
    inverse = _SectorInverse.of(generator)
    if inverse is None:
        raise NumericalError(
            "the undriven generator has no exact inverse: h0 does not conserve "
            "the total excitation number, or an excited level has an undamped mode, "
            "or an excited level is not diagonalisable to working accuracy "
            f"(eigenbasis condition number over {MAX_EIGENBASIS_COND:.1e})"
        )
    fits, solved = _shifted_arnoldi(generator, inverse, np.ravel(system.e0).tolist())
    for fit in fits:
        if fit.y is None:
            raise NumericalError(
                f"the shifted Arnoldi run left e0 = {fit.e0:.6e} V/m unsolved after "
                f"{fit.steps} of at most {ARNOLDI_MAX_STEPS} steps: least-squares "
                f"residual {fit.residual:.3e}, tolerance {ARNOLDI_RTOL:.0e}"
            )
        yield _checked_state(np.asarray(fit.y) @ solved[: len(fit.y)], generator, fit.e0)


# computational relabeling (q1,q2)-major {gg, ge, eg, ee} -> {gg, eg, ge, ee}
_PAPER_ORDER = np.array([0, 2, 1, 3])


def reduce_to_qubits(rho_full: np.ndarray) -> np.ndarray:
    """Partial trace of a (4 M, 4 M) state over its modes (dimension M),
    returning the 4 x 4 two-dot state."""
    mode_dim = rho_full.shape[0] // 4
    r6 = rho_full.reshape(2, 2, mode_dim, 2, 2, mode_dim)
    red = np.trace(r6, axis1=2, axis2=5).reshape(4, 4)
    return red[np.ix_(_PAPER_ORDER, _PAPER_ORDER)]


@dataclass(frozen=True)
class ValidationRow:
    c_eff: float
    c_full: float
    abs_diff: float


@dataclass(frozen=True)
class ValidationTable:
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
    phi: float = 0.0,
) -> ValidationTable:
    """Compare full and effective steady-state concurrence over intensities.

    intensity_grid is in W/m^2, and the dots are driven at the
    single-particle resonance omega_0.  Both models see identical physical
    inputs; the drive phase is applied to the bare dot-2 rate on both sides
    so the comparison is like for like.  The full model solves the grid as one
    case: one generator, one exact inverse of the undriven generator and
    one shifted Arnoldi run serve every intensity (iter_steady_states), and
    each full state is reduced to the dots before the next is formed.  The
    reduced states are checked by one check_states call, which names a
    failing one by its index in the grid, and their concurrence is one
    stacked call, like the effective model's.
    """
    intensities = np.asarray(intensity_grid, dtype=float)
    drive = drive_rates(intensities, mat, qd, mat.omega_0, phi)
    c_effs = concurrence(steady_state(
        mediated_params(geom, mat, qd, drive, phi_mode="bare"))).tolist()
    rho_fulls = iter_steady_states(build_full_system(geom, mat, qd, drive, cfg))
    reduced = np.array([reduce_to_qubits(rho) for rho in rho_fulls]).reshape(-1, 4, 4)
    check_states(reduced)
    rows = [
        ValidationRow(c_eff=c_eff, c_full=c_full, abs_diff=abs(c_full - c_eff))
        for c_eff, c_full in zip(c_effs, concurrence(reduced).tolist())
    ]
    return ValidationTable(rows=rows)
