"""Config parsing, CSV output and the CLI front end."""

import dataclasses
import math
import warnings
from pathlib import Path

import pytest

from plasmarray import ConfigError, NumericalError, parse_config_text
from plasmarray.cli import EXIT_CONFIG, EXIT_NUMERICAL, EXIT_OK, main
from plasmarray.config import ExperimentConfig, apply_overrides
from plasmarray.experiments import (
    run_concurrence_sweep,
    run_couplings,
    run_spectra,
    run_validate,
)


# --------------------------------------------------------------------------
# parsing
# --------------------------------------------------------------------------

def test_defaults_reproduce_reference_system():
    cfg = ExperimentConfig()
    assert cfg.metal.omega_p_ev == 8.5472
    assert cfg.medium.eps_m == 2.98
    assert cfg.geometry.r_nm == 30.0
    assert cfg.qd.gamma_i == pytest.approx(2 * math.pi * 1e8)
    assert len(cfg.drive.intensity_w_cm2) == 160
    assert cfg.drive.intensity_w_cm2[0] == 0.5
    assert cfg.drive.intensity_w_cm2[-1] == 80.0
    assert len(cfg.qd.delta_over_gamma) == 81
    assert cfg.qd.delta_over_gamma[0] == -200.0
    assert cfg.qd.delta_over_gamma[-1] == 200.0


def test_parse_basic_assignments():
    cfg = parse_config_text(
        """
        # comment line
        geometry.n = 1,2,3
        medium.eps_m = 2.5   # trailing comment
        drive.omega_mode = lspr
        metal.radiative_damping = false
        qd.delta_over_gamma = -200:200:5
        """
    )
    assert cfg.geometry.n == (1, 2, 3)
    assert cfg.medium.eps_m == 2.5
    assert cfg.metal.radiative_damping is False
    assert len(cfg.qd.delta_over_gamma) == 81
    assert cfg.qd.delta_over_gamma[0] == -200.0


def test_unknown_key_rejected_with_line_number():
    with pytest.raises(ConfigError) as err:
        parse_config_text("geometry.r_nm = 30\nmystery.key = 1\n")
    assert "line 2" in str(err.value)
    assert "mystery.key" in str(err.value)


def test_malformed_line_rejected():
    with pytest.raises(ConfigError):
        parse_config_text("geometry.r_nm 30")


@pytest.mark.parametrize(
    "line",
    [
        "geometry.r_nm = -1",
        "geometry.n = 0",
        "medium.eps_m = 0.5",
        "metal.eps_inf = 0.2",
        "drive.intensity_w_cm2 = -5",
        "qd.detuning_mode = diagonal",
        "solver.fock_levels = 1",
        "drive.omega_mode = chirped",
        "geometry.r_nm = thirty",
        "drive.intensity_w_cm2 = 10:5:1",
        "metal.radiative_damping = maybe",
        "metal.eps_inf = nan",
        "geometry.r_nm = inf",
        "geometry.s_z = nan",
        "drive.intensity_w_cm2 = 0:inf:1",
        "drive.intensity_w_cm2 = 0:1:nan",
        "qd.delta_over_gamma = ",
    ],
)
def test_range_and_type_checks(line):
    with pytest.raises(ConfigError):
        parse_config_text(line)


def test_overrides_and_bad_override():
    cfg = apply_overrides(ExperimentConfig(), ["geometry.n=4", "drive.phi_over_pi=1"])
    assert cfg.geometry.n == (4,)
    assert cfg.drive.phi_over_pi == 1.0
    with pytest.raises(ConfigError):
        apply_overrides(ExperimentConfig(), ["geometry.n"])


def _readme_config_block() -> str:
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Configuration\n", 1)[1]
    return section.split("```\n", 2)[1]


def _config_entries(cfg: ExperimentConfig) -> dict:
    return {
        f"{section.name}.{item.name}": getattr(getattr(cfg, section.name), item.name)
        for section in dataclasses.fields(cfg)
        for item in dataclasses.fields(getattr(cfg, section.name))
    }


def test_readme_configuration_block_is_the_defaults():
    """README's configuration block names every key once and parses to the
    defaults (floats within 1e-9 relative)."""
    block = _readme_config_block()
    keys = [line.split("=", 1)[0].strip() for line in block.splitlines() if "=" in line]
    defaults = _config_entries(ExperimentConfig())
    assert sorted(keys) == sorted(defaults) and len(keys) == 24
    parsed = _config_entries(parse_config_text(block))
    for key, default in defaults.items():
        if isinstance(default, (float, tuple)):
            assert parsed[key] == pytest.approx(default, rel=1e-9, abs=0.0), key
        else:
            assert parsed[key] == default, key


def test_grid_syntax_inclusive_endpoints():
    cfg = parse_config_text("drive.intensity_w_cm2 = 0.5:80:0.5")
    grid = cfg.drive.intensity_w_cm2
    assert len(grid) == 160
    assert grid[0] == 0.5
    assert grid[-1] == pytest.approx(80.0)


# --------------------------------------------------------------------------
# experiment preconditions
# --------------------------------------------------------------------------

def test_couplings_requires_lspr_mode():
    cfg = parse_config_text("drive.omega_mode = grid")
    with pytest.raises(ConfigError):
        run_couplings(cfg)


def test_spectra_requires_grid_mode():
    with pytest.raises(ConfigError):
        run_spectra(ExperimentConfig())


@pytest.mark.parametrize("command,mode,jobs", [
    pytest.param("couplings", "grid", (), id="couplings"),
    pytest.param("spectra", "lspr", (), id="spectra"),
    pytest.param("concurrence", "grid", ("--jobs", "2"), id="concurrence"),
    pytest.param("decay", "grid", ("--jobs", "2"), id="decay"),
    pytest.param("validate", "grid", (), id="validate"),
])
def test_wrong_omega_mode_exits_2_without_csv(command, mode, jobs, tmp_path, capsys):
    """spectra needs drive.omega_mode = grid and every other subcommand
    lspr; the pooled sweeps refuse before any worker starts."""
    out = tmp_path / "m.csv"
    code = main([command, *jobs, "--set", f"drive.omega_mode={mode}",
                 "--set", "geometry.n=1,2", "--set", "drive.intensity_w_cm2=1",
                 "--set", "qd.delta_over_gamma=40", "--out", str(out)])
    assert code == EXIT_CONFIG
    assert "drive.omega_mode" in capsys.readouterr().err
    assert not out.exists()


def test_off_resonance_drive_is_not_a_config(capsys):
    assert main(["concurrence", "--set", "drive.wavelength_nm=480"]) == EXIT_CONFIG
    assert "unknown key 'drive.wavelength_nm'" in capsys.readouterr().err
    with pytest.raises(ConfigError, match="drive.omega_mode must be one of lspr, grid"):
        parse_config_text("drive.omega_mode = wavelength_nm")


def test_override_errors_name_the_override(capsys):
    assert main(["concurrence", "--set", "geometry.r_nm=-1",
                 "--set", "geometry.n=1"]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "override 1: geometry.r_nm" in err and "line 0" not in err


def test_solver_backend_is_an_unknown_key(capsys):
    assert main(["concurrence", "--set", "solver.backend=effective"]) == EXIT_CONFIG
    assert "unknown key 'solver.backend'" in capsys.readouterr().err


def test_validate_max_n_is_an_unknown_key(capsys):
    """The memory budget is validate's only limit on the chain length."""
    assert main(["validate", "--set", "solver.validate_max_n=3"]) == EXIT_CONFIG
    assert "unknown key 'solver.validate_max_n'" in capsys.readouterr().err


def test_validate_requires_single_detuning():
    cfg = parse_config_text("qd.delta_over_gamma = 1,2\nqd.detuning_mode = symmetric")
    with pytest.raises(ConfigError):
        run_validate(cfg)


# --------------------------------------------------------------------------
# CSV output and determinism
# --------------------------------------------------------------------------

def _couplings_config(tmp_path, name="out.csv"):
    return parse_config_text(
        f"""
        geometry.n = 1:8:1
        output.csv = {tmp_path / name}
        """
    )


def test_couplings_csv_schema_and_parity(tmp_path):
    cfg = _couplings_config(tmp_path)
    rows = run_couplings(cfg)
    text = (tmp_path / "out.csv").read_text()
    lines = text.splitlines()
    assert lines[0] == "n,d_qq_minus_2r0_um,g_coh_rad_s,gamma_diss_rad_s,sequence,fit_a0,fit_a1,fit_a2,fit_rms"
    assert len(lines) == 1 + 8
    assert "\r" not in text
    for row in rows:
        n, _, g_coh, gamma_diss = row[0], row[1], row[2], row[3]
        if n % 2 == 0:
            assert abs(gamma_diss) <= 1e-10 * abs(g_coh)
        else:
            assert abs(g_coh) <= 1e-10 * abs(gamma_diss)
    # n = 1 sits 0.12 um from dot to dot (surface to surface)
    assert rows[0][1] == pytest.approx(0.12, rel=1e-12)
    # neighbouring chain lengths differ by 0.09 um
    dists = [row[1] for row in rows]
    for a, b in zip(dists, dists[1:]):
        assert b - a == pytest.approx(0.09, rel=1e-9)


def test_couplings_csv_determinism(tmp_path):
    cfg_a = _couplings_config(tmp_path, "a.csv")
    cfg_b = _couplings_config(tmp_path, "b.csv")
    run_couplings(cfg_a)
    run_couplings(cfg_b)
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()


def test_csv_floats_carry_twelve_significant_digits(tmp_path):
    cfg = _couplings_config(tmp_path)
    run_couplings(cfg)
    body = (tmp_path / "out.csv").read_text().splitlines()[1]
    float_cell = body.split(",")[1]
    mantissa = float_cell.split("e")[0].replace("-", "").replace(".", "")
    assert len(mantissa) == 12


def test_spectra_rows_and_resonance_column(tmp_path):
    cfg = parse_config_text(
        f"""
        geometry.n = 2
        drive.omega_mode = grid
        drive.lambda_points = 11
        output.csv = {tmp_path / 's.csv'}
        """
    )
    rows = run_spectra(cfg)
    assert len(rows) == 11
    omegas = [row[1] for row in rows]
    assert all(a < b for a, b in zip(omegas, omegas[1:]))
    omega_0 = rows[0][8]
    assert all(row[8] == omega_0 for row in rows)
    header = (tmp_path / "s.csv").read_text().splitlines()[0]
    assert header.startswith("n,omega_rad_s,lambda_nm,gamma_s_rad_s,gamma_a_rad_s")


def test_concurrence_sweep_rows_and_optima(tmp_path):
    cfg = parse_config_text(
        f"""
        geometry.n = 1
        qd.detuning_mode = antisymmetric
        qd.delta_over_gamma = -35
        drive.intensity_w_cm2 = 10,20,30
        output.csv = {tmp_path / 'c.csv'}
        """
    )
    rows, optima = run_concurrence_sweep(cfg)
    assert len(rows) == 3
    pops_sum = rows[0][4] + rows[0][5] + rows[0][6] + rows[0][7]
    assert pops_sum == pytest.approx(1.0, abs=1e-9)
    best_i, best_d, best_c = optima[1]
    assert best_c == max(row[3] for row in rows)
    assert best_d == -35.0


def test_validate_rows_cover_every_chain_length(tmp_path):
    """Every chain length within the memory budget is computed; n = 4 at
    two levels per mode is a dim-64 explicit model."""
    cfg = parse_config_text(
        f"""
        geometry.n = 1,4
        solver.fock_levels = 2
        qd.detuning_mode = antisymmetric
        qd.delta_over_gamma = 80
        drive.intensity_w_cm2 = 0, 40
        output.csv = {tmp_path / 'v.csv'}
        """
    )
    rows, summaries = run_validate(cfg)
    assert [(r[0], r[2]) for r in rows] == [(1, 0.0), (1, 40.0), (4, 0.0), (4, 40.0)]
    assert all(r[6] == "" and r[4] is not None for r in rows)
    assert rows[0][5] == pytest.approx(0.0, abs=1e-12)  # zero drive agrees exactly
    assert rows[2][5] == pytest.approx(0.0, abs=1e-12)
    assert sorted(summaries) == [1, 4]
    assert summaries[1] < 0.05
    lines = (tmp_path / "v.csv").read_text().splitlines()
    assert len(lines) == 5 and all(line.endswith(",") for line in lines[1:])


def test_validate_memory_refusal_becomes_error_row():
    cfg = parse_config_text(
        """
        geometry.n = 3
        solver.fock_levels = 4
        solver.memory_budget_gb = 0.001
        drive.intensity_w_cm2 = 0
        """
    )
    rows, summaries = run_validate(cfg)
    assert len(rows) == 1
    assert "budget" in rows[0][6]
    assert summaries == {}


# --------------------------------------------------------------------------
# CLI
# --------------------------------------------------------------------------

def test_cli_couplings_end_to_end(tmp_path, capsys):
    out = tmp_path / "cli.csv"
    code = main(["couplings", "--set", "geometry.n=1:6:1", "--out", str(out)])
    assert code == EXIT_OK
    assert out.exists()
    assert "couplings: 6 rows" in capsys.readouterr().out


def test_cli_validate_runs_on_the_configured_intensities(tmp_path, capsys):
    out = tmp_path / "v.csv"
    code = main([
        "validate",
        "--set", "geometry.n=1,2",
        "--set", "solver.fock_levels=3",
        "--set", "drive.intensity_w_cm2=0,40",
        "--out", str(out),
    ])
    assert code == EXIT_OK
    assert "validate: 4 rows" in capsys.readouterr().out
    rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
    for n in ("1", "2"):
        assert [float(r[2]) for r in rows if r[0] == n] == [0.0, 40.0]


def test_cli_reports_config_error(tmp_path, capsys):
    code = main(["couplings", "--set", "geometry.r_nm=-3"])
    assert code == EXIT_CONFIG
    assert "config error" in capsys.readouterr().err


@pytest.mark.parametrize("override", [
    # a float power overflows (OverflowError)
    pytest.param("geometry.r_nm=1e300", id="geometry.r_nm"),
    pytest.param("geometry.s_nm=1e300", id="geometry.s_nm"),
    # a float product overflows to inf, which would reach the solver as NaN
    pytest.param("geometry.r_nm=1e102", id="geometry.r_nm=1e102"),
    pytest.param("metal.omega_p_ev=1e300", id="metal.omega_p_ev"),
    pytest.param("geometry.r0_nm=1e300", id="geometry.r0_nm"),
])
def test_cli_reports_overflowing_geometry_as_domain_error(override, capsys):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(["concurrence", "--set", "geometry.n=1,2",
                     "--set", "drive.intensity_w_cm2=1,2", "--set", override])
    assert code == EXIT_CONFIG
    assert [str(w.message) for w in caught] == []
    err = capsys.readouterr().err
    assert err.startswith("error:") and "overflow" in err


@pytest.mark.parametrize("s_z", ["2.5", "-2.5", "1e20", "1e60", "1e72", "1e100", "1e150",
                                 "1e300"], ids=lambda s_z: f"geometry.s_z={s_z}")
def test_cli_rejects_out_of_range_s_z(s_z, capsys):
    """|s_z| > 2 is no dipole orientation factor; it used to reach the solver
    and exit 3 (singular system, trace off by 1e-2) or overflow."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(["concurrence", "--set", "geometry.n=1,2",
                     "--set", "drive.intensity_w_cm2=1,2", "--set", f"geometry.s_z={s_z}"])
    assert code == EXIT_CONFIG
    assert [str(w.message) for w in caught] == []
    err = capsys.readouterr().err
    assert err.startswith("error:") and "s_z" in err


def test_cli_rejects_unreadable_config(tmp_path):
    assert main(["couplings", "--config", str(tmp_path / "missing.cfg")]) == EXIT_CONFIG


def test_cli_maps_numerical_failure_to_exit_3(monkeypatch, capsys):
    import plasmarray.cli as cli_mod

    def boom(cfg):
        raise NumericalError("synthetic failure")

    monkeypatch.setattr(cli_mod, "run_couplings", boom)
    assert main(["couplings"]) == EXIT_NUMERICAL
    assert "numerical failure" in capsys.readouterr().err


def test_cli_concurrence_prints_argmax(tmp_path, capsys):
    out = tmp_path / "c.csv"
    code = main([
        "concurrence",
        "--set", "geometry.n=1",
        "--set", "qd.detuning_mode=antisymmetric",
        "--set", "qd.delta_over_gamma=-35",
        "--set", "drive.intensity_w_cm2=10,20",
        "--out", str(out),
    ])
    assert code == EXIT_OK
    assert "argmax" in capsys.readouterr().out


def test_cli_jobs_flag_gives_identical_csv(tmp_path):
    args = [
        "decay",
        "--set", "geometry.n=1,2,3",
        "--set", "qd.delta_over_gamma=-40,40",
        "--set", "drive.intensity_w_cm2=1,5,20",
    ]
    out1, out2 = tmp_path / "j1.csv", tmp_path / "j2.csv"
    assert main(args + ["--out", str(out1)]) == EXIT_OK
    assert main(args + ["--out", str(out2), "--jobs", "2"]) == EXIT_OK
    assert out1.read_bytes() == out2.read_bytes()


@pytest.mark.parametrize("command", ["couplings", "spectra", "validate"])
def test_jobs_is_rejected_where_no_pool_runs(command, capsys):
    with pytest.raises(SystemExit) as exc:
        main([command, "--jobs", "2"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --jobs 2" in capsys.readouterr().err


def test_cli_degenerate_point_in_a_column_exits_3_without_csv(tmp_path, monkeypatch, capsys):
    """A dark point in the middle of an intensity column refuses the run:
    exit code 3, its rates in the message, and no CSV at all."""
    import dataclasses

    import numpy as np

    import plasmarray.experiments as exp_mod

    original = exp_mod.mediated_params
    calls = []

    def dark_second_point(*args, **kwargs):
        mp = original(*args, **kwargs)
        calls.append(mp)
        second = np.arange(np.size(mp.lambda_tilde_1)) == 1
        return dataclasses.replace(
            mp, gamma_diss=np.where(second, mp.gamma_tilde_1, mp.gamma_diss))

    monkeypatch.setattr(exp_mod, "mediated_params", dark_second_point)
    out = tmp_path / "c.csv"
    code = main([
        "concurrence",
        "--set", "geometry.n=1",
        "--set", "drive.intensity_w_cm2=5,10,20",
        "--out", str(out),
    ])
    assert code == EXIT_NUMERICAL
    # one call for the whole column, one entry per intensity
    assert len(calls) == 1
    assert np.shape(calls[0].lambda_tilde_1) == (3,)
    assert f"gamma_a={0.0:.6e}" in capsys.readouterr().err
    assert not out.exists()


def _concurrence_csv(tmp_path, name, *overrides):
    out = tmp_path / name
    code = main([
        "concurrence",
        "--set", "geometry.n=2",
        "--set", "qd.detuning_mode=symmetric",
        "--set", "qd.delta_over_gamma=-80",
        "--set", "drive.intensity_w_cm2=1,5,20",
        *[arg for item in overrides for arg in ("--set", item)],
        "--out", str(out),
    ])
    assert code == EXIT_OK
    return out.read_bytes()


def test_phase_keys_each_change_the_concurrence_csv(tmp_path):
    """drive.phi_over_pi and drive.phi_mode are the two phase knobs, and
    each one changes the output."""
    phased = _concurrence_csv(tmp_path, "phased.csv", "drive.phi_over_pi=0.5")
    in_phase = _concurrence_csv(tmp_path, "in_phase.csv", "drive.phi_over_pi=0")
    bare = _concurrence_csv(tmp_path, "bare.csv", "drive.phi_over_pi=0.5",
                            "drive.phi_mode=bare")
    assert phased != in_phase
    assert phased != bare
    # the bare convention phases the dot-2 drive too
    assert bare != in_phase


_NEAR_UNDAMPED = ("metal.gamma_p_ev=1e-9", "geometry.n=1:17:1", "drive.intensity_w_cm2=0.5,80")


@pytest.mark.parametrize("command,overrides,code,message", [
    pytest.param("concurrence", ("metal.gamma_p_ev=0", "geometry.n=1,2"), EXIT_CONFIG,
                 "gamma_0 is zero", id="concurrence"),
    pytest.param("spectra", ("metal.gamma_p_ev=0", "geometry.n=1,2"), EXIT_CONFIG,
                 "gamma_0 is zero", id="spectra"),
    pytest.param("concurrence", _NEAR_UNDAMPED, EXIT_NUMERICAL,
                 "state trace deviates from 1", id="concurrence-near-undamped"),
    pytest.param("spectra", _NEAR_UNDAMPED, EXIT_OK, None, id="spectra-near-undamped"),
])
def test_undamped_particles_exit_2_without_csv_or_warning(command, overrides, code, message,
                                                          tmp_path, capsys):
    """gamma_p = 0 without the radiative channel gives gamma_0 = 0; the run
    is refused before any rate is formed.  A near-undamped chain (gamma_p =
    1e-9 eV) is no crash either: no RuntimeWarning escapes, the concurrence
    sweep refuses the state it cannot solve to working accuracy (at n = 3)
    and writes no CSV, and spectra writes only finite numbers."""
    out = tmp_path / "u.csv"
    args = [command, "--set", "metal.radiative_damping=false", "--out", str(out)]
    args += [arg for item in overrides for arg in ("--set", item)]
    if command == "spectra":
        args += ["--set", "drive.omega_mode=grid", "--set", "drive.lambda_points=11"]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(args) == code
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    if message is not None:
        assert message in capsys.readouterr().err
        assert not out.exists()
        return
    header, *rows = out.read_text().splitlines()
    assert len(rows) == 11 * 17
    assert all(math.isfinite(float(cell)) for row in rows for cell in row.split(","))
