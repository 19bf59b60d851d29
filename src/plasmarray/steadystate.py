"""Effective two-dot master equation: steady state and entanglement.

The density matrix lives in the computational basis {|0> = gg, |1> = eg,
|2> = ge, |3> = ee}.  The generator combines the effective Hamiltonian
(detunings, complex drives, coherent coupling G12) with a collective
dissipator whose rate matrix has the Purcell-broadened rates gamma~_i on
the diagonal and the mediated rate Gamma12 off-diagonal:

    L rho = sum_ij Gamma_ij/2 (2 s_j rho s_i^+ - {s_i^+ s_j, rho}).

The stationarity condition is solved as a 16 x 16 real linear system over
x = [rho_ii (4), Re rho_ij (6), Im rho_ij (6)]; the redundant rho_00 row
is replaced by the trace constraint, giving rhs b = e_0.

The generator is linear in ten real parameters (dw1, dw2, Re/Im lambda~_1,
Re/Im lambda~_2, G12, gamma~_1, gamma~_2, Gamma12), so its 16 x 16 matrix
is a fixed combination of ten precomputed term matrices.  Every function
here works on a stack of B parameter sets at once.  `steady_state` is the
one call from mediated parameters to checked states: the fields of one
MediatedParams (scalars or (B,) arrays, e.g. one entry per intensity of a
sweep column) broadcast into B parameter rows, one einsum assembles the B
systems, one batched solve gives the B states, and the state checks
(Hermiticity, trace, positivity, stationarity residual) run on the whole
stack.  A state is a plain complex array, (4, 4) or a (B, 4, 4) stack;
check_states runs the first three checks on any such array.  The Dicke
populations are one stacked numpy call too.  The concurrence first
certifies the separable states of a stack, those whose partial transpose
is positive definite, and runs one stacked eigensolve on the rest only.
All-scalar fields are the stack of one.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from .effective import MediatedParams
from .exceptions import DomainError, NumericalError

__all__ = [
    "SIGMA_1",
    "SIGMA_2",
    "DickePopulations",
    "check_states",
    "steady_state",
    "concurrence",
    "dicke_populations",
]

logger = logging.getLogger(__name__)

# lowering operators in the computational ordering {gg, eg, ge, ee}
SIGMA_1 = np.zeros((4, 4), dtype=complex)
SIGMA_1[0, 1] = 1.0
SIGMA_1[2, 3] = 1.0
SIGMA_2 = np.zeros((4, 4), dtype=complex)
SIGMA_2[0, 2] = 1.0
SIGMA_2[1, 3] = 1.0

# rows are the Dicke bras <g|, <s|, <a|, <e| in the computational basis
_DICKE_ROTATION = np.array(
    [
        [1, 0, 0, 0],
        [0, 1 / math.sqrt(2), 1 / math.sqrt(2), 0],
        [0, 1 / math.sqrt(2), -1 / math.sqrt(2), 0],
        [0, 0, 0, 1],
    ],
    dtype=complex,
)

# (sigma_y x sigma_y) in the computational ordering; invariant under the
# eg <-> ge relabeling, so the standard anti-diagonal form applies
_YY = np.zeros((4, 4))
_YY[0, 3] = -1.0
_YY[1, 2] = 1.0
_YY[2, 1] = 1.0
_YY[3, 0] = -1.0

# off-diagonal pairs (0,1), (0,2), (0,3), (1,2), (1,3), (2,3) of the
# real coordinates x[4:10] (real parts) and x[10:16] (imaginary parts)
_DIAG = np.arange(4)
_UPPER_I, _UPPER_J = np.triu_indices(4, 1)


def _dagger(a: np.ndarray) -> np.ndarray:
    return a.conj().swapaxes(-1, -2)


def _pack(rho: np.ndarray) -> np.ndarray:
    """Real coordinates (..., 16) of Hermitian matrices (..., 4, 4)."""
    upper = rho[..., _UPPER_I, _UPPER_J]
    return np.concatenate([rho[..., _DIAG, _DIAG].real, upper.real, upper.imag], axis=-1)


def _unpack(x: np.ndarray) -> np.ndarray:
    """Hermitian matrices (B, 4, 4) from real coordinates (B, 16)."""
    rho = np.zeros((x.shape[0], 4, 4), dtype=complex)
    rho[:, _DIAG, _DIAG] = x[:, :4]
    rho[:, _UPPER_I, _UPPER_J] = x[:, 4:10] + 1j * x[:, 10:]
    rho[:, _UPPER_J, _UPPER_I] = x[:, 4:10] - 1j * x[:, 10:]
    return rho


def _generator_terms() -> np.ndarray:
    """(10, 16, 16) real matrices of the generator, one per unit parameter.

    Column k of term p holds the coordinates of L_p applied to the k-th
    real basis matrix, in the parameter order of _parameter_rows.
    """
    unit = _unpack(np.eye(16))
    s = (SIGMA_1, SIGMA_2)
    s_dag = (_dagger(SIGMA_1), _dagger(SIGMA_2))
    h = np.stack([
        s_dag[0] @ s[0],
        s_dag[1] @ s[1],
        -(s_dag[0] + s[0]),
        -(1j * s_dag[0] - 1j * s[0]),
        -(s_dag[1] + s[1]),
        -(1j * s_dag[1] - 1j * s[1]),
        -(s_dag[0] @ s[1] + s_dag[1] @ s[0]),
    ])[:, None]
    coherent = -1j * (h @ unit - unit @ h)

    def dissipator(i, j):
        jump = s_dag[i] @ s[j]
        return 0.5 * (2.0 * s[j] @ unit @ s_dag[i] - jump @ unit - unit @ jump)

    incoherent = np.stack([
        dissipator(0, 0),
        dissipator(1, 1),
        dissipator(0, 1) + dissipator(1, 0),
    ])
    return _pack(np.concatenate([coherent, incoherent])).swapaxes(1, 2).copy()


_GENERATOR_TERMS = _generator_terms()


def _parameter_rows(mp: MediatedParams) -> np.ndarray:
    """Real parameters in the order of _GENERATOR_TERMS: (10,) when every
    field of mp is a scalar, (B, 10) when some are (B,) arrays."""
    lt1, lt2 = np.asarray(mp.lambda_tilde_1), np.asarray(mp.lambda_tilde_2)
    return np.stack(np.broadcast_arrays(
        mp.delta_omega_tilde_1, mp.delta_omega_tilde_2,
        lt1.real, lt1.imag, lt2.real, lt2.imag,
        mp.g_coh, mp.gamma_tilde_1, mp.gamma_tilde_2, mp.gamma_diss,
    ), axis=-1)


# positivity tolerance: eigenvalues in [-POSITIVITY_TOL, 0) are tolerated
# as round-off with one logged warning per stack, anything below is a hard
# error
POSITIVITY_TOL = 1e-9


def _state_checks(rho: np.ndarray):
    """Per-state invariant checks of a (B, 4, 4) stack.

    Returns the checks as (failure mask, message for state i) pairs in
    check order, and the lowest eigenvalue of each state.
    """
    finite = np.isfinite(rho).all(axis=(1, 2))
    rho = np.where(finite[:, None, None], rho, 0.0)
    herm = np.max(np.abs(rho - _dagger(rho)), axis=(1, 2))
    tr_err = np.abs(np.trace(rho, axis1=1, axis2=2) - 1.0)
    emin = np.linalg.eigvalsh(0.5 * (rho + _dagger(rho)))[:, 0]
    checks = [
        (~finite, lambda i: "state is not finite"),
        (herm > 1e-10, lambda i: f"state is not Hermitian: max asymmetry {herm[i]:.3e}"),
        (tr_err > 1e-10, lambda i: f"state trace deviates from 1 by {tr_err[i]:.3e}"),
        (emin < -POSITIVITY_TOL, lambda i: (
            f"state has negative eigenvalue {emin[i]:.3e} "
            f"below tolerance {POSITIVITY_TOL:.1e}")),
    ]
    return checks, emin


def _first_failure(checks):
    """(index, message) of the first failing state, or None.

    The lowest failing index wins, and at that index the earliest check:
    the error a per-state loop over the stack would raise.
    """
    first = None
    for mask, message in checks:
        bad = np.flatnonzero(mask)
        if bad.size and (first is None or bad[0] < first[0]):
            first = (int(bad[0]), message)
    return None if first is None else (first[0], first[1](first[0]))


def _log_round_off(emin: np.ndarray) -> None:
    negative = emin < 0
    if negative.any():
        logger.warning(
            "%d of %d states have a round-off negative eigenvalue "
            "(most negative %.3e, tolerance %.1e)",
            int(negative.sum()), emin.size, emin.min(), POSITIVITY_TOL,
        )


def check_states(rho: np.ndarray) -> None:
    """Check that rho, one 4 x 4 matrix or a (B, 4, 4) stack of them, holds
    two-dot states: finite, Hermitian, unit trace and positive (up to
    tolerance).

    Raises
    ------
    NumericalError
        Naming the first failing check of the first failing state, with its
        index in a stack.
    """
    stacked = rho.ndim == 3
    checks, emin = _state_checks(rho.reshape(-1, 4, 4))
    failure = _first_failure(checks)
    if failure is not None:
        i, message = failure
        raise NumericalError(f"{message} (state {i})" if stacked else message)
    _log_round_off(emin)


def _stationarity_matrices(mp: MediatedParams) -> tuple:
    """Parameter rows of mp, (10,) or (B, 10), and the (B, 16, 16)
    generators assembled from them, before the trace-row replacement."""
    rows = _parameter_rows(mp)
    m_raw = np.einsum("bp,pij->bij", rows.reshape(-1, rows.shape[-1]), _GENERATOR_TERMS)
    return rows, m_raw


def _context(n: int, row: np.ndarray) -> str:
    """Collective rates of one parameter row, for error messages."""
    _, _, re1, im1, re2, im2, _, gamma_1, gamma_2, gamma_diss = row
    lt1, lt2 = complex(re1, im1), complex(re2, im2)
    gavg = 0.5 * (gamma_1 + gamma_2)
    return (
        f"n={n}, gamma_s={gavg + gamma_diss:.6e}, "
        f"gamma_a={gavg - gamma_diss:.6e}, "
        f"|omega_s|={abs(lt1 + lt2) / math.sqrt(2):.6e}, "
        f"|omega_a|={abs(lt1 - lt2) / math.sqrt(2):.6e}"
    )


def steady_state(mp: MediatedParams) -> np.ndarray:
    """Steady state of mediated parameters: a 4 x 4 state when every field
    is a scalar, a (B, 4, 4) stack when some are (B,) arrays.

    One call assembles the B stationarity systems, replaces their rho_00
    rows by the trace, solves them in one batch and checks every state:
    the check_states invariants and the residual against the generator
    (a steady state satisfies m_raw @ x = 0).  If one state fails, the
    whole stack is refused.

    Raises
    ------
    NumericalError
        Naming the first failing parameter set, if its system is singular
        (for example a dark collective channel that is neither decaying
        nor driven) or its state violates an invariant.
    """
    rows, m_raw = _stationarity_matrices(mp)
    stack = rows.reshape(-1, rows.shape[-1])
    m = m_raw.copy()
    m[:, 0, :] = 0.0
    m[:, 0, :4] = 1.0
    rhs = np.zeros(16)
    rhs[0] = 1.0
    try:
        x = np.linalg.solve(m, rhs)
    except np.linalg.LinAlgError as exc:
        # LU breaks down on an exactly zero pivot, which slogdet reports as
        # sign 0 for the same matrices
        singular = np.flatnonzero(np.linalg.slogdet(m)[0] == 0)
        where = _context(mp.n, stack[singular[0]]) if singular.size else "unknown point"
        raise NumericalError(
            "stationarity system is singular (a collective channel is "
            f"neither decaying nor driven): {where}"
        ) from exc
    rho = _unpack(x)
    checks, emin = _state_checks(rho)
    residual = np.linalg.norm(np.einsum("bij,bj->bi", m_raw, x), axis=1)
    norm = np.linalg.norm(m_raw, axis=(1, 2))
    checks.append((
        residual > 1e-10 * np.maximum(norm, 1.0),
        lambda i: (f"steady state violates stationarity: residual "
                   f"{residual[i]:.3e} vs generator norm {norm[i]:.3e}"),
    ))
    failure = _first_failure(checks)
    if failure is not None:
        i, message = failure
        raise NumericalError(f"{message}; degenerate parameter set: {_context(mp.n, stack[i])}")
    _log_round_off(emin)
    return rho.reshape(rows.shape[:-1] + (4, 4))


# separability margin of the concurrence certificate, relative to the trace.
# - Soundness: an elimination without pivoting that runs to completion
#   with positive pivots is exact for a perturbation |dA| <= gamma_5 |L||D||L^H|
#   (Higham, Accuracy and Stability of Numerical Algorithms, Thm 10.3),
#   whose norm is a few 1e-15 times the trace here.  The partial transpose
#   itself is formed exactly.  So a certified rho^T2 is positive definite
#   in exact arithmetic, with a factor of ~100 to spare.
# - Why not zero: near the separable boundary the lowest eigenvalue of
#   rho^T2 can be as small as -C^2/4 (p|Psi+><Psi+| + (1-p)|gg><gg| has
#   C = p), so at a round-off margin states with C ~ 1e-7 would be decided
#   by rounding.  And the Wootters eigensolve itself reports C > 0 on
#   separable states close to the boundary: of ~5.5e5 random states of
#   rank 1..4 mixed towards I/4 until that eigenvalue sat at a given
#   level, 4 got C > 0 at 1e-13 and 1 at 3e-13 (up to 6.8e-13), and none
#   at 1e-12.  Above the margin the certificate agrees with the eigensolve.
_PPT_MARGIN = 1e-12


def _certified_separable(rho: np.ndarray) -> np.ndarray:
    """(B,) mask of states in a (B, 4, 4) stack whose partial transpose
    exceeds _PPT_MARGIN times the trace, hence PPT, separable and C = 0.

    Only exactly Hermitian, finite matrices are certified.  The test is an
    LDL^H elimination of rho^T2 - margin * trace * I without pivoting, over
    the whole stack at once: by Sylvester's criterion that matrix is
    positive definite iff its four pivots, left on the diagonal, are
    positive.
    """
    # a refused matrix may run into inf or NaN; its pivots then fail the test
    with np.errstate(all="ignore"):
        # rho - rho^+ is zero entrywise only where rho is finite and Hermitian
        ok = (rho - _dagger(rho) == 0.0).all(axis=(1, 2))
        # the basis index is q1 + 2 q2, so rho reshapes to [b, a2, a1, b2, b1]
        # and swapping a2 with b2 transposes the second dot
        a = rho.reshape(-1, 2, 2, 2, 2).swapaxes(1, 3).copy().reshape(-1, 4, 4)
        a[:, _DIAG, _DIAG] -= _PPT_MARGIN * np.trace(a, axis1=1, axis2=2).real[:, None]
        for k in range(3):
            a[:, k + 1:, k + 1:] -= (a[:, k + 1:, k, None]
                                     * (a[:, None, k, k + 1:] / a[:, k, k, None, None].real))
        return ok & (a[:, _DIAG, _DIAG].real > 0.0).all(axis=1)


def concurrence(rho):
    """Two-qubit concurrence of a 4 x 4 density matrix or a (B, 4, 4) stack.

    Separable states are certified first and get C = 0.0 exactly: for two
    qubits a state is separable iff its partial transpose rho^T2 is
    positive semidefinite (Peres, PRL 77, 1413 (1996); Horodecki et al.,
    PLA 223, 1 (1996)), and a separable state has zero concurrence.  A
    state is certified when it is finite and exactly Hermitian and the
    pivots of rho^T2 - 1e-12 tr(rho) I are all positive, i.e. rho^T2 is
    positive definite with a margin far above the round-off of the test
    (see _PPT_MARGIN).  No eigensolve runs for a certified state.  The
    certificate reads rho as a state; steady_state and check_states
    check that it is one.

    Every other state must be finite (else NumericalError) and takes the
    Wootters path: eigenvalues of
    rho * (Y x Y) rho^* (Y x Y) from a general complex eigensolver, clipped
    at zero, square-rooted and sorted in descending order;
    C = max(0, l1 - l2 - l3 - l4).  A float for one state, a (B,) array
    for a stack.
    """
    rho = np.asarray(rho, dtype=complex)
    if rho.ndim not in (2, 3) or rho.shape[-2:] != (4, 4):
        raise DomainError(
            f"expected a 4x4 density matrix or a stack of them, got shape {rho.shape}"
        )
    single = rho.ndim == 2
    rho = rho.reshape(-1, 4, 4)
    c = np.zeros(rho.shape[0])
    todo = np.flatnonzero(~_certified_separable(rho))
    if todo.size:
        rest = rho[todo]
        if not np.isfinite(rest).all():
            raise NumericalError("concurrence eigensolve failed: state is not finite")
        rho_tilde = _YY @ rest.conj() @ _YY
        try:
            evals = np.linalg.eigvals(rest @ rho_tilde)
        except np.linalg.LinAlgError as exc:
            raise NumericalError(f"concurrence eigensolve failed: {exc}") from exc
        lam = np.sort(np.sqrt(np.clip(evals.real, 0.0, None)), axis=1)[:, ::-1]
        c[todo] = np.maximum(0.0, lam[:, 0] - lam[:, 1] - lam[:, 2] - lam[:, 3])
    return float(c[0]) if single else c


@dataclass(frozen=True)
class DickePopulations:
    """Populations in the Dicke basis plus the s-a coherence.

    Scalars for one state, (B,) arrays for a stack.
    """

    rho_gg: float
    rho_ss: float
    rho_aa: float
    rho_ee: float
    rho_sa: complex


def dicke_populations(rho: np.ndarray) -> DickePopulations:
    """Rotate a 4 x 4 state or a (B, 4, 4) stack to the Dicke basis and
    read off populations and rho_sa."""
    rd = _DICKE_ROTATION @ rho @ _DICKE_ROTATION.conj().T
    single = rd.ndim == 2
    rd = rd.reshape(-1, 4, 4)

    def out(values):
        return values[0].item() if single else values

    return DickePopulations(
        rho_gg=out(rd[:, 0, 0].real),
        rho_ss=out(rd[:, 1, 1].real),
        rho_aa=out(rd[:, 2, 2].real),
        rho_ee=out(rd[:, 3, 3].real),
        rho_sa=out(rd[:, 1, 2]),
    )
