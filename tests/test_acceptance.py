"""Acceptance suite: one test per criterion, at its stated tolerance.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion
PASS/FAIL lines.  Criteria marked FAIL are reported with the measured
values so the gap is quantified, not hidden; see the README for the
damping-model context.

Grid searches follow the default optimization grids: intensity 0.5 to 80
W/cm^2 in 0.5 steps, detuning -200 to 200 gamma_i in steps of 5.
"""

import math

import numpy as np
import pytest
import scipy.linalg

from plasmarray import (
    FockConfig,
    QdParams,
    concurrence,
    decay_spectrum,
    dicke_params,
    drive_rates,
    mediated_params,
    steady_state,
    validate_against_effective,
)
from plasmarray.config import parse_config_text
from plasmarray.constants import W_CM2_TO_W_M2, wavelength_nm_to_omega
from plasmarray.experiments import run_concurrence_sweep, run_decay

from conftest import GAMMA_I, R_QD


def report(num: int, name: str, ok: bool, detail: str) -> None:
    print(f"\nACCEPTANCE {num:02d} {name}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num} ({name}): {detail}"


def mediated_at_lspr(material, qd, geometry, n):
    drive = drive_rates(0.0, material, qd, material.omega_0)
    return mediated_params(geometry(n), material, qd, drive)


@pytest.fixture(scope="module")
def sweep_optimum(material):
    """Exhaustive grid search (I, Delta) -> (I*, Delta*, C*) per request."""
    cache = {}

    def _search(n: int, detuning_mode: str):
        key = (n, detuning_mode)
        if key not in cache:
            cfg = parse_config_text(
                f"geometry.n = {n}\nqd.detuning_mode = {detuning_mode}\n"
            )
            _, optima = run_concurrence_sweep(cfg)
            cache[key] = optima[n]
        return cache[key]

    return _search


# --------------------------------------------------------------------------

def test_criterion_01_lspr_reproduction(material):
    lam = material.lspr_wavelength_nm
    report(1, "lspr-reproduction", 478.0 <= lam <= 482.0,
           f"2 pi c / omega_0 = {lam:.4f} nm, band [478, 482]")


def test_criterion_02_parity_law(material, qd_resonant, geometry):
    worst = 0.0
    for n in range(1, 18):
        mp = mediated_at_lspr(material, qd_resonant, geometry, n)
        big = max(abs(mp.g_coh), abs(mp.gamma_diss))
        small = min(abs(mp.g_coh), abs(mp.gamma_diss))
        odd_ok = n % 2 == 1 and abs(mp.g_coh) <= abs(mp.gamma_diss)
        even_ok = n % 2 == 0 and abs(mp.gamma_diss) <= abs(mp.g_coh)
        worst = max(worst, small / big)
        if not (odd_ok or even_ok):
            report(2, "parity-law", False, f"wrong dominant coupling at n={n}")
    report(2, "parity-law", worst <= 1e-10,
           f"worst |suppressed|/|dominant| = {worst:.2e} over n = 1..17 (tol 1e-10)")


def test_criterion_03_sign_sequences(material, qd_resonant, geometry):
    bad = []
    for n in (2, 6, 10, 14):
        if not mediated_at_lspr(material, qd_resonant, geometry, n).g_coh < 0:
            bad.append(n)
    for n in (4, 8, 12, 16):
        if not mediated_at_lspr(material, qd_resonant, geometry, n).g_coh > 0:
            bad.append(n)
    for n in (3, 7, 11, 15):
        if not mediated_at_lspr(material, qd_resonant, geometry, n).gamma_diss < 0:
            bad.append(n)
    for n in (5, 9, 13, 17):
        if not mediated_at_lspr(material, qd_resonant, geometry, n).gamma_diss > 0:
            bad.append(n)
    report(3, "sign-sequences", not bad,
           "all four sequences carry the expected signs" if not bad
           else f"wrong sign at n = {bad}")


def test_criterion_04_magnitude_ordering(material, qd_resonant, geometry):
    g2 = mediated_at_lspr(material, qd_resonant, geometry, 2).g_coh
    gam3 = mediated_at_lspr(material, qd_resonant, geometry, 3).gamma_diss
    ratio = abs(gam3) / abs(g2)
    report(4, "magnitude-ordering", 3.0 <= ratio <= 30.0,
           f"|Gamma(3)|/|G(2)| = {ratio:.4f}, band [3, 30]")


def test_criterion_05_decay_rate_spectra(material, qd_resonant, geometry):
    problems = []
    for n in (2, 4, 6, 8):
        pt = decay_spectrum([material.omega_0], geometry(n), material, qd_resonant)
        if abs(pt.gamma_s[0] - pt.gamma_a[0]) > 1e-10 * pt.gamma_s[0]:
            problems.append(f"gamma_s != gamma_a at n={n}")
    pt3 = decay_spectrum([material.omega_0], geometry(3), material, qd_resonant)
    if not pt3.gamma_a[0] > pt3.gamma_s[0]:
        problems.append("n=3 ordering")
    pt5 = decay_spectrum([material.omega_0], geometry(5), material, qd_resonant)
    if not pt5.gamma_s[0] > pt5.gamma_a[0]:
        problems.append("n=5 ordering")
    grid = wavelength_nm_to_omega(np.linspace(560, 420, 301))
    for n in (2, 3, 5, 8):
        spec = decay_spectrum(grid, geometry(n), material, qd_resonant)
        lhs = np.abs(spec.gamma_a - spec.gamma_s)
        rhs = 2.0 * np.abs(spec.gamma_diss)
        broken = np.abs(lhs - rhs) > 1e-9 * np.maximum(rhs, spec.gamma_tilde * 1e-3)
        if broken.any():
            omega = spec.omega[np.argmax(broken)]
            problems.append(f"splitting identity at n={n}, omega={omega:.3e}")
    report(5, "decay-rate-spectra", not problems,
           "even-n coincidence, odd-n orderings and the splitting identity hold"
           if not problems else "; ".join(problems))


def test_criterion_06_weak_excitation_bound(material, qd_resonant):
    ratios = [
        drive_rates(i * W_CM2_TO_W_M2, material, qd_resonant,
                    material.omega_0).weak_excitation_ratio
        for i in np.arange(0.0, 80.5, 0.5)
    ]
    ok = min(ratios) >= 0.0 and max(ratios) <= 0.097
    report(6, "weak-excitation-bound", ok,
           f"Omega_m/gamma_0 spans [{min(ratios):.6f}, {max(ratios):.6f}], cap 0.097")


def test_criterion_07_detuning_optimum_bands(sweep_optimum):
    _, d2, c2 = sweep_optimum(2, "symmetric")
    _, d4, c4 = sweep_optimum(4, "symmetric")
    ok2 = -100.0 <= d2 <= -70.0
    ok4 = 70.0 <= d4 <= 100.0
    report(7, "detuning-optimum-bands", ok2 and ok4,
           f"argmax Delta*: n=2 -> {d2:g} gamma_i (C*={c2:.4f}, band [-100, -70]); "
           f"n=4 -> {d4:g} gamma_i (C*={c4:.4f}, band [70, 100])")


def test_criterion_08_single_particle_benchmark(material, sweep_optimum, geometry):
    i_opt, d_opt, c_opt = sweep_optimum(1, "antisymmetric")
    dist_um = (geometry(1).d_qq - 2 * R_QD) / 1e-6
    ok = abs(c_opt - 0.85) <= 0.05 and abs(dist_um - 0.12) < 1e-9
    report(8, "single-particle-benchmark", ok,
           f"C* = {c_opt:.4f} at I = {i_opt:g} W/cm^2, Delta = {d_opt:g} gamma_i, "
           f"d_qq - 2 r0 = {dist_um:.4f} um (target 0.85 +/- 0.05 at 0.12 um)")


def test_criterion_09_decay_trends():
    cfg = parse_config_text("geometry.n = 1:17:1\n")
    rows, fits = run_decay(cfg)
    c_by_n = {row[1]: row[2] for row in rows}
    nonpositive = [n for n, c in sorted(c_by_n.items()) if c <= 0.0]
    problems = []
    if nonpositive:
        problems.append(f"optimal concurrence vanishes for n = {nonpositive}")
    for odd, even in (("3-7-11-15", "2-6-10-14"), ("5-9-13-17", "4-8-12-16")):
        if odd not in fits or even not in fits:
            problems.append(f"missing decay fit for {odd} or {even} "
                            "(too few positive optima)")
            continue
        c0_odd, tau_odd = fits[odd].coefficients
        c0_even, tau_even = fits[even].coefficients
        if not (c0_odd > c0_even and tau_odd < tau_even):
            problems.append(
                f"{odd} vs {even}: C0 {c0_odd:.4f} vs {c0_even:.4f}, "
                f"tau {tau_odd:.4f} vs {tau_even:.4f}"
            )
    report(9, "decay-trends", not problems,
           "positivity through n=17 and fitted orderings hold"
           if not problems else "; ".join(problems))


def test_criterion_10_effective_vs_full(material, geometry):
    # each case sits where both models give C > 0, so agreement is not 0 = 0
    details = []
    ok = True
    cases = (
        (1, 4, 80, -80, range(0, 81, 10)),
        (2, 4, -10, -10, (0.5, 1.0, 1.5, 2.0, 2.5, 3.0)),
        (3, 3, 0, 0, (0.25, 0.5, 0.75, 1.0)),
    )
    for n, nlev, d1, d2, grid in cases:
        qd = QdParams.at_resonance(material, R_QD, GAMMA_I, d1 * GAMMA_I, d2 * GAMMA_I)
        table = validate_against_effective(
            geometry(n), material, qd, FockConfig(n=n, fock_levels=nlev),
            [i * W_CM2_TO_W_M2 for i in grid],
        )
        entangled = any(r.c_eff > 0.0 and r.c_full > 0.0 for r in table.rows)
        c_max = max(r.c_full for r in table.rows)
        details.append(f"n={n} (N={nlev}): max diff {table.max_abs_diff:.2e}, "
                       f"max C_full {c_max:.4f}")
        ok = ok and entangled and table.max_abs_diff <= 0.05
    report(10, "effective-vs-full", ok, "; ".join(details) + " (tol 0.05)")


def test_criterion_11_concurrence_unit_suite(material, geometry):
    yy = np.zeros((4, 4))
    yy[0, 3] = -1.0
    yy[1, 2] = 1.0
    yy[2, 1] = 1.0
    yy[3, 0] = -1.0

    def oracle(rho):
        sq = scipy.linalg.sqrtm(rho)
        inner = scipy.linalg.sqrtm(sq @ (yy @ rho.conj() @ yy) @ sq)
        lam = np.sort(np.linalg.eigvals(inner).real)[::-1]
        return max(0.0, lam[0] - lam[1] - lam[2] - lam[3])

    bell = np.zeros((4, 4), dtype=complex)
    bell[1:3, 1:3] = 0.5
    problems = []
    if abs(concurrence(bell) - 1.0) > 1e-12:
        problems.append("Bell state")
    for idx in range(4):
        product = np.zeros((4, 4), dtype=complex)
        product[idx, idx] = 1.0
        if concurrence(product) != 0.0:
            problems.append(f"product state |{idx}>")
    for p in np.linspace(0.05, 1.0, 12):
        rho = p * bell + (1 - p) * np.eye(4) / 4.0
        if abs(concurrence(rho) - oracle(rho)) > 1e-10:
            problems.append(f"Werner p={p:.2f}")
    qd = QdParams.at_resonance(material, R_QD, GAMMA_I, -35 * GAMMA_I, 35 * GAMMA_I)
    geom = geometry(1)
    drive = drive_rates(16 * W_CM2_TO_W_M2, material, qd, material.omega_0)
    state = steady_state(mediated_params(geom, material, qd, drive))
    swap = np.array([[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]])
    if abs(concurrence(state) - concurrence(swap @ state.rho @ swap)) > 1e-12:
        problems.append("swap invariance")
    import dataclasses

    mp = mediated_params(geom, material, qd, drive)
    c_ref = concurrence(steady_state(mp))
    rot = complex(math.cos(1.1), math.sin(1.1))
    mp_rot = dataclasses.replace(mp, lambda_tilde_1=mp.lambda_tilde_1 * rot,
                                 lambda_tilde_2=mp.lambda_tilde_2 * rot)
    if abs(concurrence(steady_state(mp_rot)) - c_ref) > 1e-12:
        problems.append("global drive phase invariance")
    report(11, "concurrence-unit-suite", not problems,
           "Bell/product/Werner/swap/phase all within tolerance"
           if not problems else "; ".join(problems))


def test_criterion_12_truncation_convergence(material, geometry):
    from plasmarray.fullmodel import build_full_system, reduce_to_qubits

    from _lindblad import steady_state_full

    qd = QdParams.at_resonance(material, R_QD, GAMMA_I, 80 * GAMMA_I, -80 * GAMMA_I)
    geom = geometry(1)
    worst = 0.0
    for intensity in range(0, 81, 10):
        concs = {}
        for nlev in (3, 4):
            cfg = FockConfig(n=1, fock_levels=nlev)
            system = build_full_system(
                geom, material, qd,
                drive_rates(intensity * W_CM2_TO_W_M2, material, qd, material.omega_0),
                cfg,
            )
            rho = steady_state_full(system)
            concs[nlev] = concurrence(reduce_to_qubits(rho, cfg))
        worst = max(worst, abs(concs[3] - concs[4]))
    report(12, "truncation-convergence", worst < 0.01,
           f"max |C(N=3) - C(N=4)| = {worst:.2e} over I in [0, 80] W/cm^2 (tol 0.01)")
