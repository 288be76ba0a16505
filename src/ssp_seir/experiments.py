"""The step-size bound table, violation demo, convergence study and the
oscillating-recruitment counterexample, as reusable functions.

The CLI is a thin wrapper around these; everything here is deterministic
(fixed row order, fixed seeds), so repeated runs give byte-identical CSV
output.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import IO, Optional, Sequence

import numpy as np

from .checks import (
    check_nonnegativity,
    check_population_bound,
    detect_oscillation,
    find_empirical_bound,
    Verdict,
)
from .config import ExperimentConfig
from .model import (
    ModelParams,
    ProblemSetup,
    RateFunction,
    State,
    counterexample_cosine_recruitment,
    holling_incidence,
    linear_incidence,
    media_incidence,
    recruitment_from_key,
)
from .reference import grid_run, reference_trajectory
from .shu_osher import BUILTIN_METHOD_KEYS, ShuOsherForm, builtin_method
from .step_bounds import bound_report
from .stepping import IntegrationOverflowError, Trajectory, integrate

__all__ = [
    "BoundsRow",
    "CounterexampleReport",
    "ConvergenceResult",
    "SweepReport",
    "bounds_table",
    "write_bounds_table_csv",
    "run_simulation",
    "convergence_study",
    "write_convergence_csv",
    "counterexample_report",
    "property_sweep",
]


# ---------------------------------------------------------------------------
# bounds table
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BoundsRow:
    recruitment: str
    method: str
    tau_t: float
    tau_r: float

    @property
    def ratio(self) -> float:
        return self.tau_r / self.tau_t


def bounds_table(config: ExperimentConfig) -> list[BoundsRow]:
    """Theoretical and empirical positivity thresholds, one row per
    recruitment choice and method, in config order."""
    rows = []
    for pi_key in config.recruitments:
        setup = config.setup(pi_key)
        for method_key in config.methods:
            method = builtin_method(method_key)
            tau_t = bound_report(setup, method, config.tf).tau_method
            try:
                tau_r = find_empirical_bound(
                    setup,
                    method,
                    config.tf,
                    bracket=(tau_t, 2.0 * tau_t),
                    tol=config.bisect_tol,
                )
            except RuntimeError as exc:
                raise RuntimeError(f"row {pi_key}/{method_key}: {exc}") from exc
            rows.append(BoundsRow(pi_key, method_key, tau_t, tau_r))
    return rows


def write_bounds_table_csv(rows: Sequence[BoundsRow], out: IO[str]) -> None:
    out.write("pi,method,tau_t,tau_r,ratio\n")
    for row in rows:
        out.write(
            f"{row.recruitment},{row.method},{row.tau_t!r},{row.tau_r!r},{row.ratio!r}\n"
        )


# ---------------------------------------------------------------------------
# single simulation with verdicts
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SimulationResult:
    """Verdicts on one run; a run that overflowed is judged on its steps before
    the overflow, and ``overflow_step`` is the 0-based index of that step."""

    trajectory: Trajectory
    nonnegativity: Verdict
    population: Verdict
    cap: float
    overflow_step: Optional[int]

    @property
    def passed(self) -> bool:
        return self.overflow_step is None and bool(self.nonnegativity and self.population)

    def as_text(self) -> str:
        lines = [f"steps       : {len(self.trajectory) - 1}  (tau={self.trajectory.tau!r})"]
        if self.overflow_step is not None:  # numbered like the witness rows
            lines.append(
                f"integration : FAIL (non-finite state at step {self.overflow_step + 1})"
            )
        lines.append(self.nonnegativity.as_text("non-negativity"))
        lines.append(self.population.as_text(f"population bound (cap {self.cap:.6g})"))
        return "\n".join(lines)


def run_simulation(
    setup: ProblemSetup,
    method: ShuOsherForm,
    tau: float,
    t_f: float,
    include_stages: bool = False,
) -> SimulationResult:
    """Integrate to the horizon and attach the positivity/bound verdicts."""
    if not (math.isfinite(tau) and tau > 0.0):
        raise ValueError(f"step size must be finite and positive, got {tau}")
    if not (math.isfinite(t_f) and t_f >= 0.0):
        raise ValueError(f"final time must be finite and non-negative, got {t_f}")
    n_steps = math.ceil(t_f / tau)
    overflow_step = None
    try:
        traj = integrate(
            setup.x0, tau, n_steps, method,
            setup.params, setup.incidence, setup.recruitment,
        )
    except IntegrationOverflowError as exc:
        traj, overflow_step = exc.partial, exc.step_index
    report = bound_report(setup, method, max(t_f, tau, 1.0))
    return SimulationResult(
        trajectory=traj,
        nonnegativity=check_nonnegativity(traj, include_stages),
        population=check_population_bound(traj, report.pop_cap),
        cap=report.pop_cap,
        overflow_step=overflow_step,
    )


# ---------------------------------------------------------------------------
# convergence order study
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ConvergenceResult:
    method: str
    taus: tuple[float, ...]
    errors: tuple[float, ...]
    slope: float


_CONVERGENCE_OUTPUTS = 50
_CONVERGENCE_HALVINGS = 8
_CONVERGENCE_FIT_POINTS = 5


def convergence_study(
    config: ExperimentConfig, recruitment_key: str = "choiceA"
) -> list[ConvergenceResult]:
    """Max-norm error against the fine fourth-order reference vs step size.

    For each method of ``config.methods`` the step sizes are tau_t * 2^-k
    (k = 1.._CONVERGENCE_HALVINGS), shrunk minimally by
    :func:`~ssp_seir.reference.grid_run` so the _CONVERGENCE_OUTPUTS evenly
    spaced output times lie on each step grid; the order is the
    least-squares slope of log2(error) against log2(tau) over the
    _CONVERGENCE_FIT_POINTS smallest steps.
    """
    setup = config.setup(recruitment_key)
    spacing = config.tf / _CONVERGENCE_OUTPUTS
    output_times = [spacing * (k + 1) for k in range(_CONVERGENCE_OUTPUTS)]
    reference = reference_trajectory(setup, config.tf, output_times)
    results = []
    for method_key in config.methods:
        method = builtin_method(method_key)
        tau_t = bound_report(setup, method, config.tf).tau_method
        taus = []
        errors = []
        for k in range(1, _CONVERGENCE_HALVINGS + 1):
            run = grid_run(setup, method, tau_t * 2.0**-k, config.tf, output_times)
            taus.append(run.tau)
            errors.append(float(np.max(np.abs(run.data[:, 1:] - reference.data[:, 1:]))))
        log_tau = np.log2(taus[-_CONVERGENCE_FIT_POINTS:])
        log_err = np.log2(errors[-_CONVERGENCE_FIT_POINTS:])
        slope = float(np.polyfit(log_tau, log_err, 1)[0])
        results.append(
            ConvergenceResult(method_key, tuple(taus), tuple(errors), slope)
        )
    return results


def write_convergence_csv(
    results: Sequence[ConvergenceResult], out: IO[str]
) -> None:
    out.write("method,tau,error\n")
    for res in results:
        for tau, err in zip(res.taus, res.errors):
            out.write(f"{res.method},{tau!r},{err!r}\n")


def write_slopes_csv(results: Sequence[ConvergenceResult], out: IO[str]) -> None:
    out.write("method,slope\n")
    for res in results:
        out.write(f"{res.method},{res.slope!r}\n")


# ---------------------------------------------------------------------------
# oscillating-recruitment counterexample
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CounterexampleReport:
    even_limit: float
    odd_limit: float
    gap_tail_min: float
    gap_tail_max: float
    trajectory: Trajectory

    def as_text(self) -> str:
        return "\n".join(
            [
                "oscillating recruitment, forward Euler, mu=1, tau=1/2, N0=2",
                f"even-step population limit : {self.even_limit!r}  (expected 4/3)",
                f"odd-step population limit  : {self.odd_limit!r}  (expected 2/3)",
                f"tail gap |N - pi/mu| range : [{self.gap_tail_min!r}, {self.gap_tail_max!r}]",
                "the gap stays bounded away from zero: no convergence to pi/mu",
            ]
        )


_CEX_STEPS = 500
_CEX_TAIL = 100


def counterexample_report() -> CounterexampleReport:
    """Run the mu=1, tau=1/2, N0=2 oscillating-recruitment configuration.

    All mass starts in S with the other flows switched off, so the total
    population follows N{n+1} = N{n}/2 + pi(t_n)/2 exactly and splits into
    even/odd subsequences with distinct limits.  The run takes
    _CEX_STEPS steps; the gap range is read over the last
    _CEX_TAIL states.
    """
    params = ModelParams(mu=1.0, sigma=0.0, gamma=0.0, delta=0.0)
    pi = counterexample_cosine_recruitment()
    setup = ProblemSetup(params, linear_incidence(), pi, State(2.0, 0.0, 0.0, 0.0))
    tau = 0.5
    traj = integrate(
        setup.x0, tau, _CEX_STEPS, builtin_method("euler"),
        params, setup.incidence, pi,
    )
    even_limit, odd_limit = detect_oscillation(traj, period=2)
    gaps = [
        abs(n - pi.fn(t) / params.mu)
        for t, n in zip(traj.times[-_CEX_TAIL:].tolist(), traj.populations[-_CEX_TAIL:].tolist())
    ]
    return CounterexampleReport(
        even_limit=even_limit,
        odd_limit=odd_limit,
        gap_tail_min=min(gaps),
        gap_tail_max=max(gaps),
        trajectory=traj,
    )


# ---------------------------------------------------------------------------
# randomized theorem-guarantee sweep
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SweepReport:
    n_configs: int
    n_runs: int
    failures: list[str]

    @property
    def passed(self) -> bool:
        return not self.failures


def _sweep_catalog(rng: random.Random) -> tuple[RateFunction, RateFunction]:
    incidence = rng.choice(
        [linear_incidence(), holling_incidence(1.0, 1.0, 2.0), media_incidence(0.0115, 0.001)]
    )
    pi_key = rng.choice(["choiceA", "choiceB", "choiceC", "const", "cex-cos"])
    return incidence, recruitment_from_key(pi_key, kappa=0.05)


_SWEEP_STEPS = 100


def property_sweep(n_configs: int = 200, seed: int = 20240501) -> SweepReport:
    """Randomized check of the positivity and population-cap guarantees.

    Draws random rates in [0,1], random non-negative initial data, catalog
    incidence/recruitment pairs and a step size below the method bound; every
    run of _SWEEP_STEPS steps with each method of BUILTIN_METHOD_KEYS must
    keep all compartments non-negative and the total population below
    N0 + K/mu.
    """
    rng = random.Random(seed)
    methods = [builtin_method(key) for key in BUILTIN_METHOD_KEYS]
    failures: list[str] = []
    n_runs = 0
    for idx in range(n_configs):
        params = ModelParams(
            rng.uniform(1e-6, 1.0), rng.uniform(0.0, 1.0),
            rng.uniform(0.0, 1.0), rng.uniform(0.0, 1.0),
        )
        incidence, pi = _sweep_catalog(rng)
        x0 = State(
            rng.uniform(0.0, 2.0), rng.uniform(0.0, 2.0),
            rng.uniform(0.0, 2.0), rng.uniform(0.0, 2.0),
        )
        setup = ProblemSetup(params, incidence, pi, x0)
        fraction = rng.uniform(1e-3, 1.0)
        for method in methods:
            # grow the bound horizon until it covers the run it implies
            horizon = 1000.0
            report = bound_report(setup, method, horizon)
            while _SWEEP_STEPS * report.tau_method > horizon:
                horizon = 2.0 * _SWEEP_STEPS * report.tau_method
                report = bound_report(setup, method, horizon)
            tau = fraction * report.tau_method
            label = (
                f"config {idx} ({incidence.key}/{pi.key}), method {method.key}, "
                f"tau={tau!r}"
            )
            try:
                traj = integrate(
                    x0, tau, _SWEEP_STEPS, method, params, incidence, pi
                )
            except IntegrationOverflowError as exc:
                failures.append(f"{label}: overflow at step {exc.step_index}")
                continue
            n_runs += 1
            verdict = check_nonnegativity(traj)
            if not verdict.passed:
                failures.append(f"{label}: {verdict.as_text('non-negativity')}")
            pop = check_population_bound(traj, report.pop_cap)
            if not pop.passed:
                failures.append(f"{label}: {pop.as_text('population bound')}")
    return SweepReport(n_configs, n_runs, failures)
