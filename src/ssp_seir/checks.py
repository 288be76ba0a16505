"""Trajectory property verdicts and the empirical step-size threshold search.

Negativity is judged against a threshold below 0 so that trajectories that
sit exactly on a compartment boundary are not failed by round-off.  The
threshold search, and a verdict given no population cap, use the absolute
:data:`NEGATIVITY_THRESHOLD`, -1e-12.  The ``simulate`` and ``check``
verdicts pass :func:`check_nonnegativity` the run's ``cap`` and scale the
threshold with the run: ``min(-1e-12, -c*eps*n)``, with ``eps`` the double
precision and ``n`` the run's own size, its largest row population but no
more than the cap.  A compartment that the bound drives exactly to 0 comes
out of the float arithmetic as a rounding error of the size of the
population times ``eps``.  The step kernel evaluates each Euler sub-step
as a combination whose coefficients are non-negative at ``tau <= C*dt*`` in
exact arithmetic (:mod:`~ssp_seir.stepping`).  In floats a stage can fall
below 0 where a bound coefficient rounds below 0, as at a ``tau`` one ulp
above the bound, and also where none does, once the float population
drifts above the cap and the computed ``f(I)`` exceeds B.  Over 16,000
runs at ``tau = C*dt*`` from boundary witnesses (a state whose binding
compartment has no inflow, rescaled by 1 to 1e9, with mu from 0 and 1e-12
to 0.1) a stage fell below 0 in 137, all of them ssprk104 runs with such a
coefficient, and the smallest stage value was -1.0 ``eps*n``.  So an
absolute -1e-12 fails such a run once the population is about 1e4, and
``c = 8`` keeps a margin of 8 on that measurement, while a real violation
at ``tau = C*dt*(1 + 1e-9)``, about 1e-9 of the compartment, still fails at
every scale.  The size is read from the run, not from the cap alone: the
cap ``N0 + K/mu`` grows without bound as mu goes to 0 while the population
may stay near N0.  Below a size of about 560 the rule is the absolute
-1e-12, so no run at the published scale is judged differently.

The empirical threshold search checks step states only, matching what the
step-size experiments observe; :func:`check_nonnegativity` can also check the
internal stages, of a run that tracked them.  Each probe of the search stops
at its first step state below the threshold, where its verdict is settled,
instead of integrating on to the horizon, keeps only its first and last
rows, and tracks no stage minimum.  Its kernel judges each step state by
float comparisons alone, the same test that ends it at the floor, and the
probe reads its verdict from the end row's four compartments by four more
comparisons, building no row or generator.  The search's lower end is not
probed at all where :func:`~ssp_seir.step_bounds.positivity_certificate`
proves, in the kernel's own floats, that its run keeps every stage at or
above 0.0, so the probe would pass: ``mu > 0``, catalog rate entries with
valid parameters, a non-negative start, a form with non-negative weights
and abscissae, the sub-step coefficients ``>= 0`` and ``h*B_w <= c_s``,
with ``B_w`` the incidence's sup over the cap ``N0 + K/mu`` widened by a
bound on the float drift of the population over the run's stages.
"""

import math
import sys
from typing import Optional

from .model import ProblemSetup, _Value
from .shu_osher import ShuOsherForm
from .step_bounds import positivity_certificate
from .stepping import IntegrationOverflowError, Trajectory, integrate

__all__ = [
    "NEGATIVITY_THRESHOLD",
    "Verdict",
    "InsufficientDataError",
    "check_nonnegativity",
    "check_population_bound",
    "detect_oscillation",
    "find_empirical_bound",
]

NEGATIVITY_THRESHOLD = -1e-12
_ROUNDING_MULTIPLE = 8.0  # c of the scaled rule, in units of eps*n

_COMPARTMENTS = ("S", "E", "I", "R")


class InsufficientDataError(ValueError):
    """The trajectory is too short for the requested estimate."""


class Verdict(_Value):
    """Pass/fail with a witness (step index, None for a stage; compartment; value) on failure."""

    __slots__ = ("passed", "witness_index", "witness_compartment", "witness_value")

    def __init__(
        self, passed: bool, witness_index: Optional[int] = None,
        witness_compartment: Optional[str] = None, witness_value: Optional[float] = None,
    ) -> None:
        self._set(passed, witness_index, witness_compartment, witness_value)

    def __bool__(self) -> bool:
        return self.passed

    def as_text(self, name: str) -> str:
        if self.passed:
            return f"{name}: PASS"
        where = "" if self.witness_index is None else f"step {self.witness_index}, "
        if self.witness_compartment is not None:
            where += f"{self.witness_compartment}, "
        return f"{name}: FAIL ({where}value {self.witness_value!r})"


def _nan_free(values) -> bool:
    """No value is NaN, tested at C speed: a NaN makes the sum NaN.

    A sum of +inf and -inf is NaN too; that only sends the caller on to its
    exact row scan.
    """
    total = sum(values)
    return total == total


def check_nonnegativity(
    traj: Trajectory, include_stages: bool = False, cap: Optional[float] = None,
) -> Verdict:
    """Pass iff every step state (and, if flagged, every stage) is >= -1e-12,
    or given the run's population ``cap``, >= the threshold scaled by the
    run's size (module docstring).

    Stages can be checked only on a run that tracked them: a trajectory
    whose ``stage_min`` is None (``integrate(..., stages=False)``) raises
    ValueError with ``include_stages``, rather than pass unchecked.
    """
    if include_stages and traj.stage_min is None:
        raise ValueError("the run tracked no stage minimum: integrate it with stages=True")
    verdict = _first_below(traj, include_stages, NEGATIVITY_THRESHOLD)
    if verdict or cap is None:
        return verdict
    # the scaled threshold is never above -1e-12, so only a run that fails
    # the absolute one needs its size; a NaN or a population above the cap
    # leaves the cap
    largest = max(traj.populations, default=0.0)
    size = largest if largest <= cap else cap
    scaled = -_ROUNDING_MULTIPLE * sys.float_info.epsilon * size
    if -math.inf < scaled < NEGATIVITY_THRESHOLD:
        return _first_below(traj, include_stages, scaled)
    return verdict


def _first_below(traj: Trajectory, include_stages: bool, threshold: float) -> Verdict:
    columns = traj.compartments
    # min() skips a NaN that is not first, hence the NaN test
    if not all(
        _nan_free(column) and min(column, default=0.0) >= threshold
        for column in columns
    ):
        # the first failing value in row-major order
        for k, row in enumerate(zip(*columns)):
            for c, x in enumerate(row):
                if not x >= threshold:
                    return Verdict(False, k, _COMPARTMENTS[c], x)
    if include_stages and not traj.stage_min >= threshold:
        return Verdict(False, None, "stage", traj.stage_min)
    return Verdict(True)


def check_population_bound(traj: Trajectory, cap: float) -> Verdict:
    """Pass iff N_k <= cap * (1 + 1e-10) at every step."""
    n = traj.populations
    high = cap * (1.0 + 1e-10)
    if not (_nan_free(n) and max(n, default=0.0) <= high):
        for k, x in enumerate(n):
            if not x <= high:
                return Verdict(False, k, "N", x)
    return Verdict(True)


def detect_oscillation(traj: Trajectory, period: int) -> tuple[float, ...]:
    """Tail-averaged limit of each residue-class sub-sequence of N_k."""
    if period < 2:
        raise ValueError(f"period must be >= 2, got {period}")
    n = len(traj)
    if n < 10 * period:
        raise InsufficientDataError(
            f"trajectory of {n} states too short for period {period}"
        )
    populations = traj.populations
    limits = []
    for residue in range(period):
        values = populations[residue::period]
        tail = values[-10:]
        limits.append(math.fsum(tail) / len(tail))
    return tuple(limits)


def _positivity_ok(setup: ProblemSetup, method: ShuOsherForm, tau: float, t_f: float) -> bool:
    n_steps = math.ceil(t_f / tau)
    try:
        traj = integrate(
            setup.x0, tau, n_steps, method,
            setup.params, setup.incidence, setup.recruitment,
            stop_below=NEGATIVITY_THRESHOLD, every=max(n_steps, 1), stages=False,
        )
    except IntegrationOverflowError:
        return False
    # the floor ends the run at its first failing state, so every step state
    # before the end passed and the end row, the only one kept after row 0,
    # holds the verdict: its last four values, S, E, I and R
    d, low = traj.data, NEGATIVITY_THRESHOLD
    return d[-4] >= low and d[-3] >= low and d[-2] >= low and d[-1] >= low


def find_empirical_bound(
    setup: ProblemSetup,
    method: ShuOsherForm,
    t_f: float,
    bracket: tuple[float, float],
    tol: float = 1e-4,
) -> float:
    """Bisect the step size at which positivity over [0, t_f] first fails.

    The bracket is expanded/shrunk geometrically until positivity holds at
    the lower end and fails at the upper end (a lower end that fails becomes
    the upper end and is not probed again), then bisected to width ``tol``
    (or until its ends are adjacent doubles); the returned threshold is the
    midpoint of the final bracket.  The run count ceil(t_f/tau) covers the
    horizon with a constant step throughout.

    The lower end is first checked against
    :func:`~ssp_seir.step_bounds.positivity_certificate`; where it holds,
    the theorem decides that the probe passes, and it is not integrated.
    Its conditions: ``mu > 0``; the incidence and recruitment are catalog
    entries with valid parameters (the incidence with ``alpha``), whose
    closed-form K and B it reads; ``x0`` finite and non-negative with
    ``t0 >= 0``; every weight and abscissa of the form ``>= 0``; ``c_e``,
    ``c_i`` and ``c_r`` ``>= 0`` as the kernel computes them; and
    ``h*B_w <= c_s``, with ``B_w`` over the cap widened by the float drift
    of the run.  Every later probe runs as before, so the result does not
    change: ``bounds-table``'s bracket ``(tau_t, 2*tau_t)`` saves one probe,
    its longest, in each row the certificate decides.
    """
    if not (math.isfinite(t_f) and t_f > 0.0):
        raise ValueError(f"t_f must be finite and positive, got {t_f!r}")
    if not tol > 0.0:
        raise ValueError(f"tol must be positive, got {tol}")
    lo, hi = bracket
    if not 0.0 < lo < hi:
        raise ValueError(f"invalid bracket {bracket}")

    def ok(tau: float) -> bool:
        return _positivity_ok(setup, method, tau, t_f)

    # the lower end the certificate decides passes: it is not integrated
    passed = positivity_certificate(setup, method, lo, t_f) is not None or ok(lo)
    attempts = 0
    while not passed:
        hi = lo
        lo *= 0.5
        attempts += 1
        if attempts > 60:
            raise RuntimeError(
                f"could not find a passing lower bracket (smallest step probed {hi!r})"
            )
        passed = ok(lo)
    # after a failing lower end, hi is the last one, known to fail
    if not attempts:
        while ok(hi):
            lo = hi
            hi *= 2.0
            attempts += 1
            if attempts > 60:
                raise RuntimeError(
                    f"could not find a failing upper bracket (largest step probed {lo!r})"
                )
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            break  # lo and hi are adjacent doubles: tol is below their spacing
        if ok(mid):
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)
