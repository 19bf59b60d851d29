"""Reference physics and output checks for the benchmark workloads.

Nothing here imports plasmarray.  The reference path re-derives every
sampled CSV row from the physical inputs with plain dense linear algebra:

* the chain coupling matrix A = I + x T is inverted with np.linalg.inv
  (the program uses the continuant closed form);
* the mediated rates use the compact form i g^2 K_ij / delta
  (the program goes through the V/U quadrature matrices);
* the two-dot Lindblad generator is a 16 x 16 complex superoperator built
  from Kronecker products, and its steady state is the SVD null vector
  (the program solves a 16 x 16 real system with a trace row);
* the concurrence is Wootters' sqrt(sqrt(rho) rho~ sqrt(rho)) form with
  Hermitian matrix square roots (the program uses the eigenvalues of
  rho rho~).

Every check returns a list of problems; an empty list means it passed.
"""

from __future__ import annotations

import csv
import math

import numpy as np
from scipy import constants as sc

# ---------------------------------------------------------------------------
# reference physics
# ---------------------------------------------------------------------------

NM = 1e-9
W_CM2 = 1e4

SIGMA_LOWER = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
I2 = np.eye(2, dtype=complex)
# basis order {gg, eg, ge, ee}: dot 1 is the least significant factor
S1 = np.kron(I2, SIGMA_LOWER)
S2 = np.kron(SIGMA_LOWER, I2)
SIGMA_Y = np.array([[0.0, -1j], [1j, 0.0]])
YY = np.kron(SIGMA_Y, SIGMA_Y)
# Dicke kets |g>, |s>, |a>, |e> as columns in the computational basis
DICKE = np.array(
    [[1, 0, 0, 0],
     [0, 1, 1, 0],
     [0, 1, -1, 0],
     [0, 0, 0, 1]], dtype=complex,
) / np.array([1, math.sqrt(2), math.sqrt(2), 1])


class Reference:
    """Rates of the dot-chain-dot system from the physical inputs.

    `phys` holds the same keys the benchmark writes into the config file:
    omega_p_ev, eps_inf, gamma_p_ev, eps_m, r_nm, r0_nm, s_nm, s_z,
    gamma_i.  The radiative channel is always included.
    """

    def __init__(self, phys: dict):
        ev = sc.elementary_charge / sc.hbar
        omega_p = phys["omega_p_ev"] * ev
        gamma_p = phys["gamma_p_ev"] * ev
        eps_m = phys["eps_m"]
        r = phys["r_nm"] * NM
        r0 = phys["r0_nm"] * NM
        s = phys["s_nm"] * NM
        denom = phys["eps_inf"] + 2.0 * eps_m
        self.omega_0 = omega_p / math.sqrt(denom)
        eta = self.omega_0 / (2.0 * denom)
        self.mu_mnp = 2.0 * eps_m * math.sqrt(3.0 * math.pi * sc.epsilon_0 * sc.hbar * eta * r**3)
        gamma_nr = gamma_p * (1.0 + (gamma_p / self.omega_0) ** 2)
        gamma_r = (self.mu_mnp**2 * math.sqrt(eps_m) * self.omega_0**3
                   / (3.0 * math.pi * sc.epsilon_0 * sc.hbar * sc.c**3))
        self.gamma_0 = gamma_nr + gamma_r
        self.gamma_i = phys["gamma_i"]
        self.eps_m = eps_m
        self.mu_qd = sc.elementary_charge * r0
        d_qn = r0 + s + r
        d_nn = s + 2.0 * r
        self.g = (phys["s_z"] * self.mu_qd / d_qn**3
                  * math.sqrt(3.0 * r**3 * eta / (4.0 * math.pi * sc.epsilon_0 * sc.hbar)))
        self.kappa = 3.0 * phys["s_z"] * eps_m * eta * (r / d_nn) ** 3

    def mediated(self, n: int, omega: float, intensity_w_cm2: float = 0.0,
                 det1: float = 0.0, det2: float = 0.0) -> dict:
        """Mediated two-dot rates; det1/det2 are the dot detunings in rad/s."""
        delta = complex(self.gamma_0 / 2.0, self.omega_0 - omega)
        x = -1j * self.kappa / delta
        a = np.eye(n, dtype=complex) + x * (np.eye(n, k=1) + np.eye(n, k=-1))
        k = np.linalg.inv(a)
        e0 = math.sqrt(2.0 * intensity_w_cm2 * W_CM2
                       / (sc.c * math.sqrt(self.eps_m) * sc.epsilon_0))
        lam = e0 * self.mu_qd / sc.hbar
        omega_tilde = k @ np.full(n, e0 * self.mu_mnp / sc.hbar)
        g2 = self.g * self.g
        self_1 = 1j * g2 * k[0, 0] / delta
        self_2 = 1j * g2 * k[n - 1, n - 1] / delta
        cross = 1j * g2 * k[0, n - 1] / delta
        return {
            "dw1": self.omega_0 + det1 - omega - self_1.real,
            "dw2": self.omega_0 + det2 - omega - self_2.real,
            "gt1": self.gamma_i + 2.0 * self_1.imag,
            "gt2": self.gamma_i + 2.0 * self_2.imag,
            "lt1": lam + 1j * self.g * omega_tilde[0] / delta,
            "lt2": lam + 1j * self.g * omega_tilde[n - 1] / delta,
            "g_coh": cross.real,
            "gamma_diss": 2.0 * cross.imag,
            "delta": delta,
        }


def liouvillian_4x4(mp: dict) -> np.ndarray:
    """Column-stacked superoperator of the mediated two-dot master equation."""
    s = (S1, S2)
    h = (mp["dw1"] * S1.conj().T @ S1 + mp["dw2"] * S2.conj().T @ S2
         - (mp["lt1"] * S1.conj().T + np.conj(mp["lt1"]) * S1)
         - (mp["lt2"] * S2.conj().T + np.conj(mp["lt2"]) * S2)
         - mp["g_coh"] * (S1.conj().T @ S2 + S2.conj().T @ S1))
    eye = np.eye(4)
    sup = -1j * (np.kron(eye, h) - np.kron(h.T, eye))
    rates = ((mp["gt1"], 0, 0), (mp["gamma_diss"], 0, 1),
             (mp["gamma_diss"], 1, 0), (mp["gt2"], 1, 1))
    for rate, i, j in rates:
        sdi_sj = s[i].conj().T @ s[j]
        sup += 0.5 * rate * (2.0 * np.kron(s[i].conj(), s[j])
                             - np.kron(eye, sdi_sj) - np.kron(sdi_sj.T, eye))
    return sup


def null_state(sup: np.ndarray) -> np.ndarray:
    """Unit-trace Hermitian density matrix spanning the kernel of sup."""
    _, _, vh = np.linalg.svd(sup)
    rho = vh[-1].conj().reshape(4, 4, order="F")
    rho = rho / np.trace(rho)
    return 0.5 * (rho + rho.conj().T)


def _psd_sqrt(m: np.ndarray) -> np.ndarray:
    w, v = np.linalg.eigh(0.5 * (m + m.conj().T))
    return (v * np.sqrt(np.clip(w, 0.0, None))) @ v.conj().T


def wootters(rho: np.ndarray) -> float:
    """C = max(0, l1 - l2 - l3 - l4), l the eigenvalues of sqrt(sqrt(rho) rho~ sqrt(rho))."""
    root = _psd_sqrt(rho)
    rho_tilde = YY @ rho.conj() @ YY
    lam = np.sort(np.linalg.eigvalsh(_psd_sqrt(root @ rho_tilde @ root)))[::-1]
    return max(0.0, float(lam[0] - lam[1] - lam[2] - lam[3]))


def dicke_pops(rho: np.ndarray) -> tuple:
    """Populations (gg, ss, aa, ee) in the Dicke basis."""
    return tuple(float((DICKE[:, k].conj() @ rho @ DICKE[:, k]).real) for k in range(4))


def reference_point(ref: Reference, n: int, intensity_w_cm2: float,
                    delta_over_gamma: float) -> tuple:
    """(C, rho_gg, rho_ss, rho_aa, rho_ee) for antisymmetric dot detuning at the LSPR."""
    det = delta_over_gamma * ref.gamma_i
    mp = ref.mediated(n, ref.omega_0, intensity_w_cm2, det, -det)
    rho = null_state(liouvillian_4x4(mp))
    return (wootters(rho),) + dicke_pops(rho)


# ---------------------------------------------------------------------------
# CSV input
# ---------------------------------------------------------------------------

def read_rows(path: str) -> list:
    """Data rows of a CSV, every non-empty cell as float."""
    with open(path, encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        next(reader)
        return [[float(c) if c else None for c in row] for row in reader]


# ---------------------------------------------------------------------------
# checks
# ---------------------------------------------------------------------------

# CSV floats carry 12 significant digits (relative rounding 5e-12); the
# reference and the program agree to ~1e-11 in absolute concurrence, so
# 1e-8 leaves a wide margin and still rejects a 1e-6 perturbation.
POINT_TOL = 1e-8
# exact dot-exchange symmetry, measured to 8e-13
SYMMETRY_TOL = 1e-10
# populations may dip below zero by the program's positivity tolerance
POP_TOL = 1e-9
# mediated rates: the program and the reference agree to ~1e-14 relative
RATE_RTOL = 1e-9


def check_identical(digests) -> list:
    """All passes must have written the same bytes."""
    if len(set(digests)) > 1:
        return [f"passes wrote differing CSVs: {len(set(digests))} distinct digests"]
    return []


def check_concurrence_complete(rows, ns, deltas, intensities) -> list:
    expect = {(n, i, d) for n in ns for d in deltas for i in intensities}
    got = {(int(r[0]), r[1], r[2]) for r in rows}
    if len(rows) != len(expect) or got != expect:
        return [f"concurrence CSV has {len(rows)} rows / {len(got & expect)} expected keys, "
                f"want {len(expect)}"]
    return []


def check_concurrence_bounds(rows) -> list:
    problems = []
    for r in rows:
        c, pops = r[3], r[4:8]
        if not 0.0 <= c <= 1.0:
            problems.append(f"row {r[:3]}: concurrence {c} outside [0, 1]")
        if min(pops) < -POP_TOL or max(pops) > 1.0 + POP_TOL:
            problems.append(f"row {r[:3]}: Dicke population outside [0, 1]: {pops}")
        if abs(sum(pops) - 1.0) > POP_TOL:
            problems.append(f"row {r[:3]}: Dicke populations sum to {sum(pops)!r}")
    return problems[:10]


def check_exchange_symmetry(rows) -> list:
    """Antisymmetric detuning: the +delta row equals the -delta row."""
    by_key = {(int(r[0]), r[1], r[2]): r for r in rows}
    problems = []
    for (n, i, d), r in by_key.items():
        if d <= 0:
            continue
        mirror = by_key.get((n, i, -d))
        if mirror is None:
            problems.append(f"no -delta partner for n={n}, I={i}, delta={d}")
            continue
        diff = max(abs(a - b) for a, b in zip(r[3:8], mirror[3:8]))
        if diff > SYMMETRY_TOL:
            problems.append(f"n={n}, I={i}: +/-{d} rows differ by {diff:.3e}")
    return problems[:10]


def sample_concurrence_rows(rows, rng, per_n: int = 3) -> list:
    """Seeded sample: per n, `per_n` rows with C > 0 (where any) and `per_n` others."""
    picked = []
    for n in sorted({int(r[0]) for r in rows}):
        of_n = [r for r in rows if int(r[0]) == n]
        positive = [r for r in of_n if r[3] > 0.0]
        picked += rng.sample(positive, min(per_n, len(positive)))
        picked += rng.sample(of_n, min(per_n, len(of_n)))
    return picked


def check_concurrence_reference(ref: Reference, sample) -> list:
    problems = []
    for r in sample:
        want = reference_point(ref, int(r[0]), r[1], r[2])
        diff = max(abs(a - b) for a, b in zip(r[3:8], want))
        if diff > POINT_TOL:
            problems.append(f"row n={int(r[0])}, I={r[1]}, delta={r[2]}: differs from "
                            f"the reference by {diff:.3e} (tol {POINT_TOL:.0e})")
    return problems


def check_spectra_complete(rows, ns, lambdas) -> list:
    problems = []
    want = len(ns) * len(lambdas)
    if len(rows) != want:
        problems.append(f"spectra CSV has {len(rows)} rows, want {want}")
    for n in ns:
        got = [r[2] for r in rows if int(r[0]) == n]
        if len(got) != len(lambdas) or any(
            abs(a - b) > 1e-10 * b for a, b in zip(got, lambdas)
        ):
            problems.append(f"n={n}: wavelength column differs from the requested grid")
    return problems


def check_spectra_rates(rows) -> list:
    """|Gamma12| <= gamma~, hence gamma_s >= 0 and gamma_a >= 0."""
    problems = []
    for r in rows:
        gamma_s, gamma_a, gamma_t, gamma_diss = r[3], r[4], r[5], r[7]
        slack = 1e-12 * gamma_t
        if abs(gamma_diss) > gamma_t + slack or min(gamma_s, gamma_a) < -slack:
            problems.append(f"n={int(r[0])}, lambda={r[2]}: |Gamma12|={abs(gamma_diss):.6e} "
                            f"exceeds gamma~={gamma_t:.6e}")
    return problems[:10]


def lambda_to_omega(lambda_nm: float) -> float:
    return 2.0 * math.pi * sc.c / (lambda_nm * NM)


def check_spectra_reference(ref: Reference, sample) -> list:
    """sample: (row, requested wavelength in nm) pairs.

    The reference is evaluated at the requested frequency, not at the CSV's
    12-digit omega: near a zero of Gamma12 that rounding alone moves the
    rate by more than the tolerance.
    """
    problems = []
    for r, lambda_nm in sample:
        n, omega = int(r[0]), lambda_to_omega(lambda_nm)
        if abs(r[1] - omega) > 1e-11 * omega:
            problems.append(f"n={n}, lambda={lambda_nm}: omega {r[1]!r} vs requested {omega!r}")
        mp = ref.mediated(n, omega)
        gt = 0.5 * (mp["gt1"] + mp["gt2"])
        want = (gt + mp["gamma_diss"], gt - mp["gamma_diss"], gt, mp["g_coh"],
                mp["gamma_diss"], ref.omega_0)
        for name, got, exp in zip(
            ("gamma_s", "gamma_a", "gamma_tilde", "g_coh", "gamma_diss", "omega_0"),
            r[3:9], want,
        ):
            if abs(got - exp) > RATE_RTOL * abs(exp) + 1e-12 * gt:
                problems.append(f"n={n}, lambda={lambda_nm}: {name} {got!r} "
                                f"vs reference {float(exp)!r}")
    return problems


def adiabatic_tolerance(ref: Reference, n: int, det1: float, det2: float,
                        intensities_w_cm2) -> float:
    """Adiabatic-elimination small parameter of one validate case.

    It is the largest slow two-dot rate (detuning, Purcell rate, dressed
    drive, mediated coupling) over |delta|, the decay rate of the
    eliminated chain modes.  The effective model is first order in it.
    """
    eps = 0.0
    for i in intensities_w_cm2:
        mp = ref.mediated(n, ref.omega_0, i, det1, det2)
        slow = max(abs(mp["dw1"]), abs(mp["dw2"]), mp["gt1"], mp["gt2"],
                   abs(mp["lt1"]), abs(mp["lt2"]), abs(mp["g_coh"]), abs(mp["gamma_diss"]))
        eps = max(eps, slow / abs(mp["delta"]))
    return eps


def check_validate(rows, tolerances) -> list:
    """rows: (n, N, I, c_eff, c_full, abs_diff); tolerances: n -> tol."""
    problems = []
    for n, tol in tolerances.items():
        of_n = [r for r in rows if int(r[0]) == n]
        if not of_n:
            problems.append(f"validate table has no rows for n={n}")
            continue
        if not any(r[3] > 0.0 and r[4] > 0.0 for r in of_n):
            problems.append(f"n={n}: no row with C > 0 in both models; the comparison is vacuous")
        for r in of_n:
            diff = abs(r[4] - r[3])
            if diff > tol:
                problems.append(f"n={n}, I={r[2]}: |C_full - C_eff| = {diff:.3e} "
                                f"exceeds the adiabatic tolerance {tol:.3e}")
    return problems
