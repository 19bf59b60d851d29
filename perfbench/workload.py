"""One benchmark workload in a fresh process (started by run.py).

Protocol on stdout: a line `PERFBENCH READY` once set-up is done (import
plasmarray, write and parse the config, derive the material), then one
line `PERFBENCH RESULT <json>` at the end.  In between, the workload runs
whole passes ("rounds") of its sweep: at least two, and more while the
next one is expected to end within --seconds.  With --trace 1 it runs
exactly two: one untraced, one traced, so their difference is the
tracing overhead.  Checks run on the outputs after the timed rounds.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib
import json
import os
import random
import resource
import sys
import time
import traceback

from tracing import Tracer

OUT_DIR = ".perfbench_out"

# the reference system of the paper; written into every config file and
# handed to the reference path in checks.py
PHYS = {
    "omega_p_ev": 8.5472,
    "eps_inf": 5.0,
    "gamma_p_ev": 0.018,
    "eps_m": 2.98,
    "r_nm": 30.0,
    "r0_nm": 2.0,
    "s_nm": 30.0,
    "s_z": 2.0,
    "gamma_i": 6.283185307e8,
}
_CONFIG_KEYS = {
    "omega_p_ev": "metal.omega_p_ev", "eps_inf": "metal.eps_inf",
    "gamma_p_ev": "metal.gamma_p_ev", "eps_m": "medium.eps_m",
    "r_nm": "geometry.r_nm", "r0_nm": "geometry.r0_nm", "s_nm": "geometry.s_nm",
    "s_z": "geometry.s_z", "gamma_i": "qd.gamma_i",
}
CHAIN_LENGTHS = tuple(range(1, 18))


class Workload:
    """Seeded inputs, one sweep pass, and the checks on its output."""

    points = 0

    def __init__(self, seed: int, out_dir: str):
        self.rng = random.Random(seed)
        self.config_path = os.path.join(out_dir, "input.cfg")
        self.csv_path = os.path.join(out_dir, "output.csv")

    def config_lines(self) -> list:
        raise NotImplementedError

    def setup(self, plasmarray):
        lines = [f"{_CONFIG_KEYS[k]} = {v!r}" for k, v in PHYS.items()]
        lines += ["metal.radiative_damping = true"] + self.config_lines()
        with open(self.config_path, "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + "\n")
        self.cfg = plasmarray.config.parse_config(self.config_path)
        self.mat = plasmarray.experiments.material_from(self.cfg)
        self.pa = plasmarray

    def cli(self, command: str):
        with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
            code = self.pa.cli.main([command, "--config", self.config_path,
                                     "--out", self.csv_path])
        if code != 0:
            raise RuntimeError(f"plasmarray {command} exited with {code}")


class ConcurrenceGrid(Workload):
    """`plasmarray concurrence`: n = 1..17, antisymmetric detuning -m, +m,
    160 intensities 0.5..80 W/cm^2; the seed draws m."""

    def __init__(self, seed, out_dir):
        super().__init__(seed, out_dir)
        self.m = float(self.rng.randrange(40, 201, 5))
        self.intensities = tuple(0.5 * (k + 1) for k in range(160))
        self.points = len(CHAIN_LENGTHS) * 2 * len(self.intensities)

    def config_lines(self):
        return ["geometry.n = 1:17:1", "drive.omega_mode = lspr",
                "qd.detuning_mode = antisymmetric",
                f"qd.delta_over_gamma = {-self.m!r}, {self.m!r}",
                "drive.intensity_w_cm2 = 0.5:80:0.5"]

    def run_round(self):
        self.cli("concurrence")

    def check(self):
        import checks  # numpy and scipy: kept out of the timed import of plasmarray
        rows = checks.read_rows(self.csv_path)
        ref = checks.Reference(PHYS)
        sample = checks.sample_concurrence_rows(rows, self.rng)
        return (checks.check_concurrence_complete(rows, CHAIN_LENGTHS, (-self.m, self.m),
                                                  self.intensities)
                + checks.check_concurrence_bounds(rows)
                + checks.check_exchange_symmetry(rows)
                + checks.check_concurrence_reference(ref, sample))


class SpectraScan(Workload):
    """`plasmarray spectra`: n = 1..17 on a 601-point wavelength grid whose
    ends the seed draws from [410, 430] and [550, 570] nm."""

    def __init__(self, seed, out_dir):
        super().__init__(seed, out_dir)
        self.lam_lo = 410.0 + self.rng.randrange(0, 201) / 10.0
        self.lam_hi = 550.0 + self.rng.randrange(0, 201) / 10.0
        self.npts = 601
        self.points = len(CHAIN_LENGTHS) * self.npts

    def config_lines(self):
        return ["geometry.n = 1:17:1", "drive.omega_mode = grid",
                f"drive.lambda_min_nm = {self.lam_lo!r}",
                f"drive.lambda_max_nm = {self.lam_hi!r}",
                f"drive.lambda_points = {self.npts}"]

    def run_round(self):
        self.cli("spectra")

    def check(self):
        import checks
        rows = checks.read_rows(self.csv_path)
        step = (self.lam_hi - self.lam_lo) / (self.npts - 1)
        lambdas = [self.lam_hi - k * step for k in range(self.npts)]
        sample = []
        for n in CHAIN_LENGTHS:
            of_n = list(zip([r for r in rows if int(r[0]) == n], lambdas))
            sample += self.rng.sample(of_n, min(10, len(of_n)))
        return (checks.check_spectra_complete(rows, CHAIN_LENGTHS, lambdas)
                + checks.check_spectra_rates(rows)
                + checks.check_spectra_reference(checks.Reference(PHYS), sample))


class ValidateSmall(Workload):
    """`validate_against_effective` on three small chains; the seed draws
    the intensities inside each case's range."""

    HEADER = ("n", "fock_levels", "intensity_w_cm2", "c_eff", "c_full", "abs_diff")

    def __init__(self, seed, out_dir):
        super().__init__(seed, out_dir)

        def draw(lo, hi, count):
            return sorted(round(self.rng.uniform(lo, hi), 3) for _ in range(count))

        # (n, Fock levels, detuning of dot 1 and dot 2 / gamma_i, W/cm^2)
        self.cases = (
            (1, 4, 80.0, -80.0, [0.0] + draw(1.0, 80.0, 8)),
            (2, 4, -10.0, -10.0, draw(0.5, 3.0, 6)),
            (3, 3, 0.0, 0.0, draw(0.25, 1.0, 4)),
        )
        self.points = sum(len(c[4]) for c in self.cases)

    def config_lines(self):
        return ["geometry.n = 1, 2, 3", "drive.omega_mode = lspr"]

    def run_round(self):
        pa, cfg = self.pa, self.cfg
        gamma_i = cfg.qd.gamma_i
        rows = []
        for n, nlev, d1, d2, intensities in self.cases:
            qd = pa.QdParams.at_resonance(self.mat, cfg.geometry.r0_nm * 1e-9, gamma_i,
                                          d1 * gamma_i, d2 * gamma_i)
            table = pa.validate_against_effective(
                pa.experiments.geometry_from(cfg, n), self.mat, qd,
                pa.FockConfig(n=n, fock_levels=nlev),
                [i * 1e4 for i in intensities],
            )
            rows += [(n, nlev, i, r.c_eff, r.c_full, r.abs_diff)
                     for i, r in zip(intensities, table.rows)]
        pa.experiments.write_csv(self.csv_path, self.HEADER, rows, cfg.output.precision)

    def check(self):
        import checks
        rows = checks.read_rows(self.csv_path)
        ref = checks.Reference(PHYS)
        tolerances = {
            n: checks.adiabatic_tolerance(ref, n, d1 * PHYS["gamma_i"],
                                          d2 * PHYS["gamma_i"], intensities)
            for n, _, d1, d2, intensities in self.cases
        }
        return checks.check_validate(rows, tolerances)


WORKLOADS = {
    "concurrence_grid": ConcurrenceGrid,
    "spectra_scan": SpectraScan,
    "validate_small": ValidateSmall,
}


def _digest(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    src = os.path.join(root, "src")
    sys.path.insert(0, src)
    out_dir = os.path.join(root, OUT_DIR, args.workload)
    os.makedirs(out_dir, exist_ok=True)

    t_import = time.perf_counter()
    plasmarray = importlib.import_module("plasmarray")
    importlib.import_module("plasmarray.cli")
    importlib.import_module("plasmarray.experiments")
    import_s = time.perf_counter() - t_import

    tracer = Tracer() if args.trace else None
    if tracer:
        tracer.install()
    workload = WORKLOADS[args.workload](args.seed, out_dir)
    workload.setup(plasmarray)
    print("PERFBENCH READY", flush=True)

    rounds, digests, failed = [], [], 0
    start = time.perf_counter()
    while True:
        if tracer and not rounds:
            tracer.uninstall()  # round 0 untraced
        elif tracer:
            tracer.install()  # round 1 traced
        t0 = time.perf_counter()
        try:
            workload.run_round()
        except Exception:
            traceback.print_exc()
            failed = workload.points
            rounds.append(time.perf_counter() - t0)
            break
        dt = time.perf_counter() - t0
        rounds.append(dt)
        digests.append(_digest(workload.csv_path))
        if tracer:
            if len(rounds) == 2:
                tracer.uninstall()
                break
        elif len(rounds) >= 2 and time.perf_counter() - start + dt > args.seconds:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    import checks
    problems = [] if failed else checks.check_identical(digests) + workload.check()
    for p in problems:
        print(f"check failed: {p}", file=sys.stderr)
    result = {
        "rounds": rounds,
        "points_per_round": workload.points,
        "failed": failed,
        "problems": len(problems),
        "peak_rss_mb": peak_rss_mb,
        "import_s": import_s,
    }
    if tracer:
        result["layers"] = tracer.layer_metrics()
        result["absent"] = tracer.absent
        tracer.dump(os.path.join(out_dir, "trace.json"))
    print("PERFBENCH RESULT " + json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
