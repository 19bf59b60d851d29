"""plasmarray runs on numpy alone: no subcommand, the explicit-mode
validator included, loads scipy."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from scipy import constants as sc

import plasmarray
from plasmarray import constants, fullmodel

SRC = str(Path(plasmarray.__file__).resolve().parents[1])


def _run_fresh(code: str) -> dict:
    """Run `code` in a new interpreter and return the JSON it prints last."""
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, check=True)
    return json.loads(proc.stdout.splitlines()[-1])


_LOADED = ("json.dumps(sorted(m for m in sys.modules "
           "if m.split('.')[0] in ('scipy', 'multiprocessing')))")


def test_effective_subcommands_never_load_scipy(tmp_path):
    out = str(tmp_path / "out.csv")
    loaded = _run_fresh(f"""
import json, sys
import plasmarray, plasmarray.cli, plasmarray.experiments
for argv in (
    ["concurrence", "--set", "geometry.n=1,2", "--set", "drive.intensity_w_cm2=1,2,3"],
    ["decay", "--set", "geometry.n=1,2", "--set", "drive.intensity_w_cm2=1,2",
     "--set", "qd.delta_over_gamma=-10,10"],
    ["couplings", "--set", "geometry.n=1,2"],
    ["spectra", "--set", "geometry.n=1,2", "--set", "drive.omega_mode=grid",
     "--set", "drive.lambda_points=11"],
):
    assert plasmarray.cli.main(argv + ["--out", {out!r}]) == 0, argv
print({_LOADED})
""")
    assert loaded == []


def test_validate_never_loads_scipy(tmp_path):
    out = str(tmp_path / "v.csv")
    loaded = _run_fresh(f"""
import json, sys
import plasmarray.cli
assert "scipy" not in sys.modules
code = plasmarray.cli.main(["validate", "--set", "geometry.n=1",
                            "--set", "solver.fock_levels=3",
                            "--set", "drive.intensity_w_cm2=0,20", "--out", {out!r}])
assert code == 0, code
print({_LOADED})
""")
    assert loaded == []
    assert len(Path(out).read_text().splitlines()) == 3


def test_constants_match_scipy():
    assert constants.HBAR == sc.hbar
    assert constants.E_CHARGE == sc.elementary_charge
    assert constants.C_LIGHT == sc.c
    assert constants.EPS_0 == sc.epsilon_0


def test_package_serves_fullmodel_names_lazily():
    assert plasmarray.FockConfig is fullmodel.FockConfig
    assert plasmarray.validate_against_effective is fullmodel.validate_against_effective
    with pytest.raises(AttributeError, match="no_such_name"):
        plasmarray.no_such_name
