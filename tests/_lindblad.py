"""Reference explicit-mode Lindblad model for the tests.

The assembled form of what plasmarray.fullmodel applies matrix-free: site
operators as chains of scipy.sparse.kron and the dim^2 x dim^2
superoperator, vectorized row-major (vec(A rho B) = (A kron B^T) vec(rho)).
fullmodel holds its operators as bands {offset: weights} with entry
(i, i + offset) = weights[i]; `bands` and `dense` convert to and from them.
"""

import math

import numpy as np
import scipy.sparse as sp

from plasmarray import fullmodel
from plasmarray.constants import HBAR
from plasmarray.effective import complex_pole
from plasmarray.plasmonics import bare_couplings


def site_operator(op: np.ndarray, site: int, dims: tuple) -> sp.csr_matrix:
    """Embed a single-site operator at `site` in the ordered product space."""
    out = sp.identity(1, format="csr", dtype=complex)
    for k, d in enumerate(dims):
        block = sp.csr_matrix(op) if k == site else sp.identity(d, format="csr", dtype=complex)
        out = sp.kron(out, block, format="csr")
    return out


def bands(op) -> dict:
    """A scipy sparse (or dense) matrix as a band operator of fullmodel."""
    coo = sp.coo_matrix(op)
    coo.sum_duplicates()
    offsets = coo.col - coo.row
    out = {}
    for offset in np.unique(offsets):
        pick = offsets == offset
        out[int(offset)] = np.zeros(coo.shape[0], dtype=complex)
        out[int(offset)][coo.row[pick]] = coo.data[pick]
    return out


def dense(op: dict) -> np.ndarray:
    """A band operator of fullmodel as a dense matrix; a weight whose
    entry falls outside the matrix must be zero."""
    dim = len(next(iter(op.values())))
    out = np.zeros((dim, dim), dtype=complex)
    rows = np.arange(dim)
    for offset, weights in op.items():
        inside = (rows + offset >= 0) & (rows + offset < dim)
        assert not np.any(weights[~inside]), f"band {offset} reaches outside the matrix"
        out[rows[inside], rows[inside] + offset] = weights[inside]
    return out


def lowering(d: int) -> np.ndarray:
    """The lowering operator of one site with d levels."""
    return np.diag(np.sqrt(np.arange(1, d)), k=1).astype(complex)


def hamiltonians(geom, mat, qd, drive, cfg) -> tuple:
    """h0 and h1 of fullmodel.build_full_system from kron-built site
    operators: the detunings on number operators, -rate (c_k^+ c_l + h.c.)
    for each hopping and dot-mode pair, and -(rate c^+ + conj(rate) c) for
    each site's drive at unit field amplitude."""
    dims = cfg.dims
    lower = [site_operator(lowering(d), site, dims) for site, d in enumerate(dims)]
    number = [site_operator(np.diag(np.arange(d, dtype=float)), site, dims)
              for site, d in enumerate(dims)]
    pole = complex_pole(mat, qd, drive.omega)
    detuning = [pole.detuning_1, pole.detuning_2] + [pole.detuning_0] * cfg.n
    h0 = sum(d * op for d, op in zip(detuning, number))
    couplings = bare_couplings(geom, qd, mat)
    exchange = [(couplings.kappa, 2 + m, 3 + m) for m in range(cfg.n - 1)]
    exchange += [(couplings.g, 0, 2), (couplings.g, 1, cfg.n + 1)]
    for rate, k, l in exchange:
        h0 = h0 - rate * (lower[k].getH() @ lower[l] + lower[l].getH() @ lower[k])
    lambda_1 = qd.mu_qd / HBAR
    rates = [lambda_1, lambda_1 * complex(math.cos(drive.phi), math.sin(drive.phi))]
    rates += [mat.mu_mnp / HBAR] * cfg.n
    h1 = sum(-(rate * c.getH() + np.conj(rate) * c) for rate, c in zip(rates, lower))
    return h0.tocsr(), h1.tocsr()


def collapse_operators(system) -> list:
    """The system's collapse channels as (rate, kron-built operator) pairs."""
    dims = system.cfg.dims
    return [(rate, site_operator(lowering(dims[site]), site, dims))
            for rate, site in system.collapse]


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


def case_generators(system) -> tuple:
    """The assembled L_0 and L_1 of a case: L(e0) = L_0 + e0 L_1."""
    return (liouvillian(sp.csr_matrix(dense(system.h0)), collapse_operators(system)),
            liouvillian(sp.csr_matrix(dense(system.h1))))


def trace_constrained(l_op: sp.csr_matrix, dim: int, scale: float) -> sp.csr_matrix:
    """l_op divided by `scale`, its first row replaced by the trace."""
    trace = sp.csr_matrix((np.ones(dim), (np.zeros(dim, dtype=int), np.arange(dim) * (dim + 1))),
                          shape=(1, dim * dim))
    return sp.vstack([trace, l_op[1:] * (1.0 / scale)], format="csr")


def steady_state_full(system) -> np.ndarray:
    """The states of fullmodel.iter_steady_states, stacked: one (dim, dim)
    state for a scalar e0 and a (B, dim, dim) stack otherwise.  The budget
    check counts the B held states."""
    count = np.size(system.e0)
    system.cfg.check_budget(count, count)
    states = np.empty((count, system.cfg.dim, system.cfg.dim), dtype=complex)
    for k, rho in enumerate(fullmodel.iter_steady_states(system)):
        states[k] = rho
    return states if np.ndim(system.e0) else states[0]
