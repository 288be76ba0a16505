"""Command-line harness for the step-size experiments.

Subcommands:

* ``bounds-table``   theoretical vs empirical positivity thresholds (CSV)
* ``simulate``       one integration with property verdicts and a trajectory CSV
* ``convergence``    error-vs-step study against the fine reference (CSV)
* ``counterexample`` the oscillating-recruitment non-convergence demo
* ``check``          randomized guarantee sweep over the builtin methods

All outputs are deterministic: the same config yields byte-identical files.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Optional, Sequence

from .config import DEFAULT_CONFIG_TEXT, ConfigError, load_config
from .experiments import (
    bounds_table,
    convergence_study,
    counterexample_report,
    property_sweep,
    run_simulation,
    write_bounds_table_csv,
    write_convergence_csv,
    write_slopes_csv,
)
from .shu_osher import builtin_method
from .stepping import trajectory_to_csv

__all__ = ["main"]


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ssp-seir",
        description="Positivity-preserving SSP integration experiments for the "
        "generalized SEIR model.",
    )
    parser.add_argument(
        "--config", type=Path, default=None,
        help="key=value config file (defaults to the embedded experiment values)",
    )
    parser.add_argument(
        "--out", type=Path, default=Path("."), help="output directory for CSV files"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("bounds-table", help="compute tau_t and tau_r for every "
                   "recruitment choice and method")

    sim = sub.add_parser("simulate", help="integrate one setup and report verdicts")
    sim.add_argument("--method", required=True, help="method key (e.g. ssprk22)")
    sim.add_argument("--tau", type=float, required=True, help="step size")
    sim.add_argument("--tf", type=float, default=30.0, help="final time (default 30)")
    sim.add_argument(
        "--pi", default="choiceC", help="recruitment catalog key (default choiceC)"
    )
    sim.add_argument(
        "--stages", action="store_true", help="include internal stages in the check"
    )
    sim.add_argument(
        "--strict", action="store_true",
        help="exit nonzero when a property verdict fails",
    )

    conv = sub.add_parser("convergence", help="order study against the fine reference")
    conv.add_argument(
        "--pi", default="choiceA", help="recruitment catalog key (default choiceA)"
    )
    conv.add_argument("--tf", type=float, default=None, help="override the config horizon")

    sub.add_parser(
        "counterexample",
        help="oscillating recruitment demo: N^n does not converge to pi/mu",
    )

    chk = sub.add_parser("check", help="randomized theorem-guarantee sweep")
    chk.add_argument("--configs", type=int, default=200, help="number of random setups")
    chk.add_argument("--seed", type=int, default=20240501)

    dump = sub.add_parser("default-config", help="print the embedded default config")
    del dump
    return parser


def _cmd_bounds_table(args, config) -> int:
    rows = bounds_table(config)
    args.out.mkdir(parents=True, exist_ok=True)
    path = args.out / "bounds_table.csv"
    with path.open("w") as out:
        write_bounds_table_csv(rows, out)
    print(f"{'pi':8s} {'method':9s} {'tau_t':>10s} {'tau_r':>10s} {'ratio':>8s}")
    for row in rows:
        print(
            f"{row.recruitment:8s} {row.method:9s} {row.tau_t:10.4f} "
            f"{row.tau_r:10.4f} {row.ratio:8.4f}"
        )
    print(f"wrote {path}")
    return 0


def _cmd_simulate(args, config) -> int:
    setup = config.setup(args.pi)
    method = builtin_method(args.method)
    result = run_simulation(setup, method, args.tau, args.tf, args.stages)
    args.out.mkdir(parents=True, exist_ok=True)
    traj_path = args.out / "trajectory.csv"
    with traj_path.open("w") as out:
        trajectory_to_csv(result.trajectory, out)
    verdict_path = args.out / "verdict.txt"
    verdict_path.write_text(result.as_text() + "\n")
    print(result.as_text())
    print(f"wrote {traj_path} and {verdict_path}")
    if args.strict and not result.passed:
        return 1
    return 0


def _cmd_convergence(args, config) -> int:
    if args.tf is not None:
        from dataclasses import replace

        config = replace(config, tf=args.tf)
    results = convergence_study(config, recruitment_key=args.pi)
    args.out.mkdir(parents=True, exist_ok=True)
    errors_path = args.out / "convergence.csv"
    with errors_path.open("w") as out:
        write_convergence_csv(results, out)
    slopes_path = args.out / "convergence_slopes.csv"
    with slopes_path.open("w") as out:
        write_slopes_csv(results, out)
    for res in results:
        print(f"{res.method:9s} fitted order {res.slope:6.3f}")
    print(f"wrote {errors_path} and {slopes_path}")
    return 0


def _cmd_counterexample(args) -> int:
    report = counterexample_report()
    args.out.mkdir(parents=True, exist_ok=True)
    path = args.out / "counterexample.csv"
    with path.open("w") as out:
        trajectory_to_csv(report.trajectory, out)
    print(report.as_text())
    print(f"wrote {path}")
    return 0


def _cmd_check(args) -> int:
    report = property_sweep(n_configs=args.configs, seed=args.seed)
    print(
        f"ran {report.n_runs} integrations over {report.n_configs} random setups: "
        f"{'all guarantees held' if report.passed else f'{len(report.failures)} failures'}"
    )
    for failure in report.failures:
        print(f"  {failure}")
    return 0 if report.passed else 1


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.command == "default-config":
        print(DEFAULT_CONFIG_TEXT, end="")
        return 0
    try:
        config = load_config(args.config)
    except (ConfigError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        if args.command == "bounds-table":
            return _cmd_bounds_table(args, config)
        if args.command == "simulate":
            return _cmd_simulate(args, config)
        if args.command == "convergence":
            return _cmd_convergence(args, config)
        if args.command == "counterexample":
            return _cmd_counterexample(args)
        if args.command == "check":
            return _cmd_check(args)
    except (KeyError, ValueError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    parser.error(f"unknown command {args.command!r}")
    return 2


if __name__ == "__main__":
    raise SystemExit(main())
