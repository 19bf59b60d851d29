"""Tests of the benchmark itself: every check accepts the program's real
output and rejects a perturbed copy of it.

    python3 -m pytest perfbench/test_checks.py -q
"""

from __future__ import annotations

import json
import os
import random
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(HERE, "..", "src"))

import checks  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workload  # noqa: E402
from plasmarray import experiments  # noqa: E402
from plasmarray.config import ExperimentConfig, apply_overrides  # noqa: E402

REF = checks.Reference(workload.PHYS)
PHYS_OVERRIDES = [f"{workload._CONFIG_KEYS[k]}={v!r}" for k, v in workload.PHYS.items()]
NS = (1, 2, 3)
INTENSITIES = (0.5, 3.0, 20.0, 80.0)


@pytest.fixture(scope="module")
def conc_rows():
    cfg = apply_overrides(ExperimentConfig(), PHYS_OVERRIDES + [
        "geometry.n=1,2,3", "qd.detuning_mode=antisymmetric",
        "qd.delta_over_gamma=-80,80", "drive.intensity_w_cm2=0.5,3,20,80",
    ])
    rows, _ = experiments.run_concurrence_sweep(cfg)
    return [list(r) for r in rows]


@pytest.fixture(scope="module")
def spectra_rows():
    cfg = apply_overrides(ExperimentConfig(), PHYS_OVERRIDES + [
        "geometry.n=1,2,3", "drive.omega_mode=grid", "drive.lambda_points=21",
    ])
    rows = [list(r) for r in experiments.run_spectra(cfg)]
    step = (560.0 - 420.0) / 20
    lambdas = [560.0 - k * step for k in range(21)]
    return rows, lambdas


def _copy(rows):
    return [list(r) for r in rows]


def test_concurrence_checks_accept_program_output(conc_rows):
    assert checks.check_concurrence_complete(conc_rows, NS, (-80.0, 80.0), INTENSITIES) == []
    assert checks.check_concurrence_bounds(conc_rows) == []
    assert checks.check_exchange_symmetry(conc_rows) == []
    assert checks.check_concurrence_reference(REF, conc_rows) == []
    assert any(r[3] > 0.0 for r in conc_rows)


def test_reference_rejects_one_perturbed_concurrence_cell(conc_rows):
    rows = _copy(conc_rows)
    target = next(r for r in rows if r[3] > 0.1)
    target[3] += 1e-6
    assert len(checks.check_concurrence_reference(REF, rows)) == 1


def test_reference_rejects_a_perturbed_population(conc_rows):
    rows = _copy(conc_rows)
    rows[5][6] -= 1e-6
    assert len(checks.check_concurrence_reference(REF, rows)) == 1


def test_symmetry_rejects_differing_pair(conc_rows):
    rows = _copy(conc_rows)
    plus = next(r for r in rows if r[2] > 0 and r[3] > 0.0)
    plus[3] += 1e-9
    assert len(checks.check_exchange_symmetry(rows)) == 1


def test_symmetry_rejects_missing_partner(conc_rows):
    rows = [r for r in conc_rows if not (r[0] == 2 and r[1] == 3.0 and r[2] < 0)]
    assert checks.check_exchange_symmetry(rows)
    assert checks.check_concurrence_complete(rows, NS, (-80.0, 80.0), INTENSITIES)


@pytest.mark.parametrize("column, value", [(3, 1.2), (3, -1e-3), (4, 1.01), (6, -1e-6)])
def test_bounds_reject_out_of_range_cells(conc_rows, column, value):
    rows = _copy(conc_rows)
    rows[0][column] = value
    assert checks.check_concurrence_bounds(rows)


def test_sample_covers_positive_rows_of_every_n(conc_rows):
    sample = checks.sample_concurrence_rows(conc_rows, random.Random(0), per_n=2)
    for n in NS:
        if any(r[0] == n and r[3] > 0 for r in conc_rows):
            assert any(r[0] == n and r[3] > 0 for r in sample)


def test_identical_rejects_differing_passes():
    assert checks.check_identical(["a", "a"]) == []
    assert checks.check_identical(["a", "b"])


def test_spectra_checks_accept_program_output(spectra_rows):
    rows, lambdas = spectra_rows
    assert checks.check_spectra_complete(rows, NS, lambdas) == []
    assert checks.check_spectra_rates(rows) == []
    sample = [(r, lambdas[k % len(lambdas)]) for k, r in enumerate(rows)]
    assert checks.check_spectra_reference(REF, sample) == []


def test_spectra_reference_rejects_perturbed_coupling(spectra_rows):
    rows, lambdas = spectra_rows
    rows = _copy(rows)
    rows[30][7] *= 1.0 + 1e-7  # gamma_diss of n = 2
    sample = [(r, lambdas[k % len(lambdas)]) for k, r in enumerate(rows)]
    assert len(checks.check_spectra_reference(REF, sample)) == 1


def test_spectra_rates_reject_gamma12_above_gamma_tilde(spectra_rows):
    rows = _copy(spectra_rows[0])
    r = rows[10]
    r[7] = 1.5 * r[5]
    r[3], r[4] = r[5] + r[7], r[5] - r[7]
    assert len(checks.check_spectra_rates(rows)) == 1


def test_spectra_complete_rejects_shifted_grid(spectra_rows):
    rows, lambdas = spectra_rows
    assert checks.check_spectra_complete(rows, NS, [x + 0.01 for x in lambdas])


def _validate_rows(c_eff, c_full):
    return [[n, 4, i, c_eff, c_full, abs(c_full - c_eff)] for n in NS for i in (0.5, 1.0)]


def test_validate_accepts_agreeing_table():
    assert checks.check_validate(_validate_rows(0.02, 0.02 + 1e-6), {n: 1e-4 for n in NS}) == []


def test_validate_rejects_all_zero_table():
    problems = checks.check_validate(_validate_rows(0.0, 0.0), {n: 1e-4 for n in NS})
    assert len(problems) == len(NS)


def test_validate_rejects_difference_above_tolerance():
    assert checks.check_validate(_validate_rows(0.02, 0.021), {n: 1e-4 for n in NS})


def test_validate_rejects_missing_chain():
    rows = [r for r in _validate_rows(0.02, 0.02) if r[0] != 3]
    assert checks.check_validate(rows, {n: 1e-4 for n in NS})


def test_adiabatic_tolerance_is_small_but_above_real_discrepancy():
    import plasmarray as pa

    mat = experiments.material_from(apply_overrides(ExperimentConfig(), PHYS_OVERRIDES))
    gamma_i = workload.PHYS["gamma_i"]
    qd = pa.QdParams.at_resonance(mat, 2e-9, gamma_i, 80 * gamma_i, -80 * gamma_i)
    geom = pa.ArrayGeometry(r=30e-9, r0=2e-9, s=30e-9, n=1)
    table = pa.validate_against_effective(geom, mat, qd, pa.FockConfig(n=1), [20e4, 80e4])
    tol = checks.adiabatic_tolerance(REF, 1, 80 * gamma_i, -80 * gamma_i, (20.0, 80.0))
    assert tol < 1e-3
    assert table.max_abs_diff < tol


def test_tracer_restores_functions_and_reports_absent(monkeypatch):
    import plasmarray
    from plasmarray import effective, fullmodel

    before = (effective.mediated_params, plasmarray.mediated_params, fullmodel.spla)
    monkeypatch.setitem(tracing.LAYERS, "effective.removed_function",
                        ("effective", "removed_function"))
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert effective.mediated_params is not before[0]
        assert plasmarray.mediated_params is effective.mediated_params
        assert "effective.removed_function" in tracer.absent
    finally:
        tracer.uninstall()
    assert (effective.mediated_params, plasmarray.mediated_params, fullmodel.spla) == before


def test_self_time_excludes_children():
    tracer = tracing.Tracer()
    tracer.spans = [["effective.mediated_params", 0.0, 1.0, -1],
                    ["plasmonics.bare_couplings", 0.1, 0.3, 0],
                    ["effective.complex_pole", 0.4, 0.5, 0]]
    layers = tracer.layer_metrics()
    assert layers["effective.mediated_params.self_s"] == pytest.approx(0.7)
    assert layers["plasmonics.bare_couplings.calls"] == 1


def test_benchmark_json_matches_reported_metrics():
    with open(os.path.join(HERE, "..", "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(workload.WORKLOADS)
    result = {"rounds": [1.0, 1.1], "points_per_round": 3, "failed": 0, "problems": 0,
              "peak_rss_mb": 50.0, "import_s": 0.5,
              "layers": tracing.Tracer().layer_metrics()}
    traced = run.per_layer(result)
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {
        k: v["unit"] for k, v in traced.items()}
    untraced = run.end_to_end(result, 0.7)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == {
        k: v["unit"] for k, v in untraced.items()}
