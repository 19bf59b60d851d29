"""Command-line front end.

Subcommands map one-to-one to the named experiments:

    plasmarray couplings   --config sys.cfg --out couplings.csv
    plasmarray spectra     --config sys.cfg --out spectra.csv
    plasmarray concurrence --config sys.cfg --out sweep.csv --jobs 4
    plasmarray decay       --config sys.cfg --out decay.csv --jobs 4
    plasmarray validate    --config sys.cfg --out validate.csv

`--jobs k` (concurrence and decay only) spreads the chain lengths over k
worker processes; the CSV does not depend on k.

Exit codes: 0 success, 2 configuration error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import sys

from .config import ExperimentConfig, apply_overrides, parse_config
from .exceptions import ConfigError, NumericalError, PlasmarrayError
from .experiments import (
    run_concurrence_sweep,
    run_couplings,
    run_decay,
    run_spectra,
    run_validate,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="plasmarray",
        description="Steady-state entanglement mediated by a nanoparticle chain",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    # the sweeps that dispatch chain lengths to a process pool take --jobs
    for name, doc, pooled in (
        ("couplings", "mediated coupling rates vs chain length", False),
        ("spectra", "collective decay rates vs driving frequency", False),
        ("concurrence", "stationary concurrence over intensity/detuning grids", True),
        ("decay", "optimal concurrence per chain length with decay fits", True),
        ("validate", "effective model vs explicit-mode simulation", False),
    ):
        cmd = sub.add_parser(name, help=doc)
        cmd.add_argument("--config", help="configuration file (defaults used if omitted)")
        cmd.add_argument("--out", help="output CSV path (overrides output.csv)")
        if pooled:
            cmd.add_argument("--jobs", type=int, default=1, help="worker processes")
        cmd.add_argument(
            "--set", dest="overrides", action="append", default=[],
            metavar="KEY=VALUE", help="override a config entry (repeatable)",
        )
    return parser


def _load_config(args: argparse.Namespace) -> ExperimentConfig:
    cfg = parse_config(args.config) if args.config else ExperimentConfig()
    cfg = apply_overrides(cfg, args.overrides)
    if args.out:
        cfg = apply_overrides(cfg, [f"output.csv={args.out}"])
    return cfg


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = _load_config(args)
        if args.command == "couplings":
            rows = run_couplings(cfg)
            print(f"couplings: {len(rows)} rows -> {cfg.output.csv or '(no csv)'}")
        elif args.command == "spectra":
            rows = run_spectra(cfg)
            print(f"spectra: {len(rows)} rows -> {cfg.output.csv or '(no csv)'}")
        elif args.command == "concurrence":
            rows, optima = run_concurrence_sweep(cfg, jobs=args.jobs)
            print(f"concurrence: {len(rows)} rows -> {cfg.output.csv or '(no csv)'}")
            for n in sorted(optima):
                i_opt, d_opt, c_opt = optima[n]
                print(f"  n={n}: argmax I={i_opt:g} W/cm^2, "
                      f"delta={d_opt:g} gamma_i, C={c_opt:.6f}")
        elif args.command == "decay":
            rows, fits = run_decay(cfg, jobs=args.jobs)
            print(f"decay: {len(rows)} rows -> {cfg.output.csv or '(no csv)'}")
            for label in sorted(fits):
                c0, tau = fits[label].coefficients
                print(f"  sequence {label}: C0={c0:.6f}, tau={tau:.6f}")
        elif args.command == "validate":
            rows, summaries = run_validate(cfg)
            print(f"validate: {len(rows)} rows -> {cfg.output.csv or '(no csv)'}")
            for n in sorted(summaries):
                print(f"  n={n}: max |C_full - C_eff| = {summaries[n]:.6f}")
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except PlasmarrayError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
