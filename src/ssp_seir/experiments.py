"""The step-size bound table, violation demo, convergence study and the
oscillating-recruitment counterexample, as reusable functions.

The CLI is a thin wrapper around these; everything here is deterministic
(fixed row order, fixed seeds), so repeated runs give byte-identical CSV
output.
"""

import math
import random
from operator import sub
from typing import IO, Optional, Sequence

from .checks import (
    check_nonnegativity,
    check_population_bound,
    detect_oscillation,
    find_empirical_bound,
    Verdict,
)
from .config import ExperimentConfig
from .model import (
    RECRUITMENT_KEYS,
    ModelParams,
    ProblemSetup,
    RateFunction,
    State,
    _Value,
    counterexample_cosine_recruitment,
    incidence_from_key,
    linear_incidence,
    recruitment_from_key,
)
from .reference import grid_run, reference_trajectory, step_grid
from .shu_osher import BUILTIN_METHOD_KEYS, ShuOsherForm, builtin_method
from .step_bounds import bound_report
from .stepping import STEP_LIMIT, IntegrationOverflowError, Trajectory, integrate

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


class BoundsRow(_Value):
    """One row of the bound table: the theoretical and the empirical threshold."""

    __slots__ = ("recruitment", "method", "tau_t", "tau_r")

    def __init__(self, recruitment: str, method: str, tau_t: float, tau_r: float) -> None:
        self._set(recruitment, method, tau_t, tau_r)

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


class SimulationResult(_Value):
    """Verdicts on one run; a run that overflowed is judged on its steps before
    the overflow, and ``overflow_step`` is the 0-based index of that step."""

    __slots__ = ("trajectory", "nonnegativity", "population", "cap", "overflow_step")

    def __init__(
        self, trajectory: Trajectory, nonnegativity: Verdict, population: Verdict, cap: float,
        overflow_step: Optional[int],
    ) -> None:
        self._set(trajectory, nonnegativity, population, cap, overflow_step)

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


# the rows a simulation may keep: it keeps every one, at about 230 MB of
# peak RSS per million, so 2**24 rows take about 3.9 GB
_ROW_LIMIT = 2**24


def run_simulation(
    setup: ProblemSetup,
    method: ShuOsherForm,
    tau: float,
    t_f: float,
    include_stages: bool = False,
) -> SimulationResult:
    """Integrate ceil(t_f/tau) steps and judge them against the bound chain
    taken over the time of the last step.  A step count t_f/tau that is not
    finite, or of 2**53 or more (``STEP_LIMIT``), is a ValueError, and so is
    a run that would keep more than 2**24 rows (row 0 and every step)."""
    if not (math.isfinite(tau) and tau > 0.0):
        raise ValueError(f"step size must be finite and positive, got {tau}")
    if not (math.isfinite(t_f) and t_f >= 0.0):
        raise ValueError(f"final time must be finite and non-negative, got {t_f}")
    steps = t_f / tau
    if not math.isfinite(steps):
        raise ValueError(f"step count t_f/tau is not finite for t_f={t_f!r}, tau={tau!r}")
    n_steps = math.ceil(steps)
    if n_steps >= STEP_LIMIT:
        raise ValueError(f"n_steps must be below 2**53 for t_f={t_f!r}, tau={tau!r}")
    if n_steps + 1 > _ROW_LIMIT:
        raise ValueError(f"the run would keep more than 2**24 rows for t_f={t_f!r}, tau={tau!r}")
    cap = bound_report(setup, method, max(n_steps * tau, tau)).pop_cap
    return _judge(setup, method, tau, n_steps, cap, include_stages)


def _judge(
    setup: ProblemSetup, method: ShuOsherForm, tau: float, n_steps: int, cap: float,
    include_stages: bool,
) -> SimulationResult:
    """Integrate ``n_steps`` steps of ``tau``; judge positivity against the
    threshold scaled by the run's size (:mod:`~ssp_seir.checks`), at the
    stages too with ``include_stages``, and the population against the
    ``cap``.  The run tracks its stage minimum only with ``include_stages``."""
    overflow_step = None
    try:
        traj = integrate(
            setup.x0, tau, n_steps, method,
            setup.params, setup.incidence, setup.recruitment, stages=include_stages,
        )
    except IntegrationOverflowError as exc:
        traj, overflow_step = exc.partial, exc.step_index
    return SimulationResult(
        traj, check_nonnegativity(traj, include_stages, cap),
        check_population_bound(traj, cap), cap, overflow_step,
    )


# ---------------------------------------------------------------------------
# convergence order study
# ---------------------------------------------------------------------------


class ConvergenceResult(_Value):
    """One method's errors against the reference at each step size, and the fitted order."""

    __slots__ = ("method", "taus", "errors", "slope")

    def __init__(
        self, method: str, taus: tuple[float, ...], errors: tuple[float, ...], slope: float,
    ) -> None:
        self._set(method, taus, errors, slope)


_CONVERGENCE_OUTPUTS = 50
_CONVERGENCE_HALVINGS = 8
_CONVERGENCE_FIT_POINTS = 5


def convergence_study(
    config: ExperimentConfig, recruitment_key: str = "choiceA"
) -> list[ConvergenceResult]:
    """Max-norm error against the fine fourth-order reference vs step size.

    For each method of ``config.methods`` the step sizes are tau_t * 2^-k
    (k = 1.._CONVERGENCE_HALVINGS), shrunk minimally by
    :func:`~ssp_seir.reference.step_grid` so the _CONVERGENCE_OUTPUTS evenly
    spaced output times lie on each step grid (halvings that land on one
    grid share its run); the order is the
    least-squares slope of log2(error) against log2(tau) over the
    _CONVERGENCE_FIT_POINTS smallest steps.  Raises ValueError when one of
    their errors is zero or not finite, or when they are all one size (a
    horizon too short to split): neither has a slope to fit.
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
        grid = None
        for k in range(1, _CONVERGENCE_HALVINGS + 1):
            tau_nominal = tau_t * 2.0**-k
            # halvings above the output spacing can share a grid, and its run
            previous, grid = grid, step_grid(tau_nominal, config.tf, output_times)
            if grid != previous:
                run = grid_run(setup, method, tau_nominal, config.tf, output_times)
                error = max(
                    max(map(abs, map(sub, a, b)))
                    for a, b in zip(run.compartments, reference.compartments)
                )
            taus.append(run.tau)
            errors.append(error)
        fit_taus = taus[-_CONVERGENCE_FIT_POINTS:]
        fit_errors = errors[-_CONVERGENCE_FIT_POINTS:]
        for tau, err in zip(fit_taus, fit_errors):
            if not (math.isfinite(err) and err > 0.0):
                raise ValueError(
                    f"convergence of {method_key}: error {err!r} at tau={tau!r} "
                    "has no logarithm to fit"
                )
        if len(set(fit_taus)) < 2:
            raise ValueError(
                f"convergence of {method_key}: every fitted step is tau={fit_taus[0]!r}"
            )
        slope = _fit_slope(
            [math.log2(tau) for tau in fit_taus], [math.log2(err) for err in fit_errors]
        )
        results.append(
            ConvergenceResult(method_key, tuple(taus), tuple(errors), slope)
        )
    return results


def _fit_slope(xs: Sequence[float], ys: Sequence[float]) -> float:
    """Least-squares slope of ``ys`` against ``xs`` (two distinct ``xs`` at
    least), computed exactly in rationals and rounded once to the nearest
    double.  A slope that rounds past the largest double is refused."""
    from decimal import Decimal  # imported here: no other command needs them
    from fractions import Fraction
    x = [Fraction(v) for v in xs]
    x_bar = sum(x) / len(x)
    slope = sum((a - x_bar) * Fraction(b) for a, b in zip(x, ys)) / sum((a - x_bar) ** 2 for a in x)
    try:
        return float(slope)
    except OverflowError:
        magnitude = Decimal(slope.numerator) / Decimal(slope.denominator)
        raise ValueError(f"fitted slope {magnitude:.6e} is beyond the largest double") from None


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


class CounterexampleReport(_Value):
    """The limits of the even and odd population subsequences, the tail's gap
    to pi/mu, and the run."""

    __slots__ = ("even_limit", "odd_limit", "gap_tail_min", "gap_tail_max", "trajectory")

    def __init__(
        self, even_limit: float, odd_limit: float, gap_tail_min: float, gap_tail_max: float,
        trajectory: Trajectory,
    ) -> None:
        self._set(even_limit, odd_limit, gap_tail_min, gap_tail_max, trajectory)

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
        params, setup.incidence, pi, stages=False,
    )
    even_limit, odd_limit = detect_oscillation(traj, period=2)
    gaps = [
        abs(n - pi.fn(t) / params.mu)
        for t, n in zip(traj.times[-_CEX_TAIL:], traj.populations[-_CEX_TAIL:])
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


class SweepReport(_Value):
    """How many setups and runs the sweep made, and a line per failed guarantee."""

    __slots__ = ("n_configs", "n_runs", "failures")

    def __init__(self, n_configs: int, n_runs: int, failures: tuple[str, ...]) -> None:
        self._set(n_configs, n_runs, failures)

    @property
    def passed(self) -> bool:
        return not self.failures


def _sweep_catalog(rng: random.Random) -> tuple[RateFunction, RateFunction]:
    # media-exp is left out: its f(0) != 0, so the guarantees do not cover it
    incidence = incidence_from_key(rng.choice(("linear", "holling", "media")))
    return incidence, recruitment_from_key(rng.choice(RECRUITMENT_KEYS))


_SWEEP_STEPS = 100


def property_sweep(n_configs: int = 200, seed: int = 20240501) -> SweepReport:
    """Randomized check of the positivity and population-cap guarantees.

    Draws random rates in [0,1] (``mu`` in [1e-6, 1]), random non-negative
    initial data, catalog incidence/recruitment pairs with their default
    parameters and a step size below the method bound; every run of
    _SWEEP_STEPS steps with each method of BUILTIN_METHOD_KEYS must keep all
    compartments non-negative, at its step states and at every internal
    stage, and the total population below N0 + K/mu.  Each run is judged as
    :func:`run_simulation` judges one.  ``n_configs`` must be at least 1.
    """
    if n_configs < 1:
        raise ValueError(f"n_configs must be at least 1, got {n_configs}")
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
            # with mu > 0 neither the recruitment sups nor the cap read the
            # horizon, so one value serves every run length
            report = bound_report(setup, method, 1000.0)
            tau = fraction * report.tau_method
            label = (
                f"config {idx} ({incidence.key}/{pi.key}), method {method.key}, "
                f"tau={tau!r}"
            )
            result = _judge(setup, method, tau, _SWEEP_STEPS, report.pop_cap, True)
            if result.overflow_step is not None:
                failures.append(f"{label}: overflow at step {result.overflow_step}")
                continue
            n_runs += 1
            if not result.nonnegativity:
                failures.append(f"{label}: {result.nonnegativity.as_text('non-negativity')}")
            if not result.population:
                failures.append(f"{label}: {result.population.as_text('population bound')}")
    return SweepReport(n_configs, n_runs, tuple(failures))
