"""Command-line harness for the step-size experiments.

Commands:

* ``bounds-table``   theoretical vs empirical positivity thresholds (CSV)
* ``simulate``       one integration with property verdicts and a trajectory CSV
* ``convergence``    error-vs-step study against the fine reference (CSV)
* ``counterexample`` the oscillating-recruitment non-convergence demo
* ``check``          randomized guarantee sweep over the builtin methods
* ``default-config`` print the embedded default config

One table, :data:`COMMANDS`, drives parsing: each command's name, its
one-line help, the function adding its options and its handler.  :func:`main`
parses the global options and the command name with the top-level parser,
whose help lists the table, and the rest of the line with a parser built for
the invoked command alone, so a run never builds the other commands' parsers.

All outputs are deterministic: the same config yields byte-identical files.
"""

import argparse
import os
import sys
from pathlib import Path
from typing import IO, Any, Callable, Optional, Sequence

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


def _simulate_options(sim: argparse.ArgumentParser) -> None:
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


def _convergence_options(conv: argparse.ArgumentParser) -> None:
    conv.add_argument(
        "--pi", default="choiceA", help="recruitment catalog key (default choiceA)"
    )
    conv.add_argument("--tf", type=float, default=None, help="override the config horizon")


def _check_options(chk: argparse.ArgumentParser) -> None:
    chk.add_argument("--configs", type=int, default=200, help="number of random setups")
    chk.add_argument("--seed", type=int, default=20240501)


def _write(out: Path, name: str, writer: Callable[[Any, IO[str]], None], data: Any) -> Path:
    """Write ``data`` with ``writer`` to the file ``name`` in ``out``, made if missing."""
    out.mkdir(parents=True, exist_ok=True)
    path = out / name
    with path.open("w") as stream:
        writer(data, stream)
    return path


def _cmd_bounds_table(args, config) -> int:
    rows = bounds_table(config)
    path = _write(args.out, "bounds_table.csv", write_bounds_table_csv, rows)
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
    traj_path = _write(args.out, "trajectory.csv", trajectory_to_csv, result.trajectory)
    verdict_path = args.out / "verdict.txt"
    verdict_path.write_text(result.as_text() + "\n")
    print(result.as_text())
    print(f"wrote {traj_path} and {verdict_path}")
    if args.strict and not result.passed:
        return 1
    return 0


def _cmd_convergence(args, config) -> int:
    if args.tf is not None:
        config = config._replace(tf=args.tf)
    results = convergence_study(config, recruitment_key=args.pi)
    errors_path = _write(args.out, "convergence.csv", write_convergence_csv, results)
    slopes_path = _write(args.out, "convergence_slopes.csv", write_slopes_csv, results)
    for res in results:
        print(f"{res.method:9s} fitted order {res.slope:6.3f}")
    print(f"wrote {errors_path} and {slopes_path}")
    return 0


def _cmd_counterexample(args, config) -> int:
    report = counterexample_report()
    path = _write(args.out, "counterexample.csv", trajectory_to_csv, report.trajectory)
    print(report.as_text())
    print(f"wrote {path}")
    return 0


def _cmd_check(args, config) -> int:
    report = property_sweep(n_configs=args.configs, seed=args.seed)
    print(
        f"ran {report.n_runs} integrations over {report.n_configs} random setups: "
        f"{'all guarantees held' if report.passed else f'{len(report.failures)} failures'}"
    )
    for failure in report.failures:
        print(f"  {failure}")
    return 0 if report.passed else 1


# name -> (one-line help, option adder or None, handler).  default-config's
# handler is None: it needs no config, so a bad one cannot stop it.
COMMANDS: dict[str, tuple[str, Optional[Callable], Optional[Callable]]] = {
    "bounds-table": (
        "compute tau_t and tau_r for every recruitment choice and method",
        None, _cmd_bounds_table,
    ),
    "simulate": ("integrate one setup and report verdicts", _simulate_options, _cmd_simulate),
    "convergence": (
        "order study against the fine reference", _convergence_options, _cmd_convergence,
    ),
    "counterexample": (
        "oscillating recruitment demo: N^n does not converge to pi/mu",
        None, _cmd_counterexample,
    ),
    "check": ("randomized theorem-guarantee sweep", _check_options, _cmd_check),
    "default-config": ("print the embedded default config", None, None),
}


def _parse(argv: Optional[Sequence[str]]) -> argparse.Namespace:
    """Parse ``argv``: the global options and the command name, then the
    command's own options with a parser built for that command alone.  The
    namespace's ``run`` is the command's handler."""
    parser = argparse.ArgumentParser(
        prog="ssp-seir",
        description="Positivity-preserving SSP integration experiments for the "
        "generalized SEIR model.",
        epilog="commands:\n" + "\n".join(
            f"  {name:16s}{entry[0]}" for name, entry in COMMANDS.items()
        ),
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument(
        "--config", type=Path, default=None,
        help="key=value config file (defaults to the embedded experiment values)",
    )
    parser.add_argument(
        "--out", type=Path, default=Path("."), help="output directory for CSV files"
    )
    parser.add_argument("command", choices=COMMANDS, metavar="command",
                        help="one of the commands listed below")
    # everything after the command, global-looking options included, is the
    # command's: a global option placed after it is an error, as it must be
    rest = parser.add_argument("rest", nargs=argparse.REMAINDER, metavar="...",
                               help="the command's options (see ssp-seir command -h)")
    rest.required = False  # an empty rest is no missing argument
    args = parser.parse_args(argv)
    help_, add_options, args.run = COMMANDS[args.command]
    command = argparse.ArgumentParser(prog=f"ssp-seir {args.command}", description=help_)
    if add_options is not None:
        add_options(command)
    return command.parse_args(args.rest, namespace=args)


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        code = _run(argv)
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed stdout early (e.g. `| head -1`): send the rest to
        # devnull so that the flush at interpreter exit does not fail again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 1
    return code


def _run(argv: Optional[Sequence[str]]) -> int:
    args = _parse(argv)
    if args.run is None:
        print(DEFAULT_CONFIG_TEXT, end="")
        return 0
    try:
        config = load_config(args.config)
    except (ConfigError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        return args.run(args, config)
    except BrokenPipeError:
        raise  # stdout is gone, so main ends quietly
    except (KeyError, ValueError, RuntimeError, OSError) as exc:
        # str() of a KeyError is the repr of its message, quotes and all
        message = exc.args[0] if isinstance(exc, KeyError) and exc.args else exc
        print(f"error: {message}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
