"""Trajectory property verdicts and the empirical step-size threshold search.

Negativity uses the threshold -1e-12 rather than 0 so trajectories that sit
exactly on a compartment boundary are not failed by round-off.  The
empirical threshold search checks step states only, matching what the
step-size experiments observe; :func:`check_nonnegativity` can also check the
internal stages.  Each probe of the search stops at its first step state
below the threshold, where its verdict is settled, instead of integrating on
to the horizon.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .model import ProblemSetup
from .shu_osher import ShuOsherForm
from .stepping import IntegrationOverflowError, Trajectory, integrate

__all__ = [
    "NEGATIVITY_THRESHOLD",
    "Verdict",
    "InsufficientDataError",
    "check_nonnegativity",
    "check_population_bound",
    "check_limit",
    "detect_oscillation",
    "find_empirical_bound",
]

NEGATIVITY_THRESHOLD = -1e-12

_COMPARTMENTS = ("S", "E", "I", "R")


class InsufficientDataError(ValueError):
    """The trajectory is too short for the requested estimate."""


@dataclass(frozen=True)
class Verdict:
    """Pass/fail with a witness (step index, compartment, value) on failure."""

    passed: bool
    witness_index: Optional[int] = None
    witness_compartment: Optional[str] = None
    witness_value: Optional[float] = None

    def __bool__(self) -> bool:
        return self.passed

    def as_text(self, name: str) -> str:
        if self.passed:
            return f"{name}: PASS"
        where = f"step {self.witness_index}"
        if self.witness_compartment is not None:
            where += f", {self.witness_compartment}"
        return f"{name}: FAIL ({where}, value {self.witness_value!r})"


def check_nonnegativity(traj: Trajectory, include_stages: bool = False) -> Verdict:
    """Pass iff every step state (and, if flagged, every stage) is >= -1e-12."""
    bad = np.flatnonzero(~(traj.data[:, 1:] >= NEGATIVITY_THRESHOLD))
    if bad.size:
        k, c = divmod(int(bad[0]), 4)
        return Verdict(False, k, _COMPARTMENTS[c], float(traj.data[k, c + 1]))
    if include_stages and not traj.stage_min >= NEGATIVITY_THRESHOLD:
        return Verdict(False, None, "stage", traj.stage_min)
    return Verdict(True)


def check_population_bound(traj: Trajectory, cap: float) -> Verdict:
    """Pass iff N_k <= cap * (1 + 1e-10) at every step."""
    n = traj.populations
    bad = np.flatnonzero(~(n <= cap * (1.0 + 1e-10)))
    if bad.size:
        k = int(bad[0])
        return Verdict(False, k, "N", float(n[k]))
    return Verdict(True)


def check_limit(
    traj: Trajectory, p_target: float, mu: float, window: Optional[int] = None
) -> float:
    """Max |N_k - p_target/mu| over the trailing window (default: last 10%)."""
    if not mu > 0.0:
        raise ValueError("limit check requires mu > 0")
    n = len(traj)
    if window is None:
        window = max(1, n // 10)
    if window > n:
        raise ValueError(f"window {window} longer than trajectory {n}")
    target = p_target / mu
    return float(np.max(np.abs(traj.populations[n - window :] - target)))


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
            stop_below=NEGATIVITY_THRESHOLD,
        )
    except IntegrationOverflowError:
        return False
    return check_nonnegativity(traj).passed


def find_empirical_bound(
    setup: ProblemSetup,
    method: ShuOsherForm,
    t_f: float,
    bracket: tuple[float, float],
    tol: float = 1e-4,
) -> float:
    """Bisect the step size at which positivity over [0, t_f] first fails.

    The bracket is expanded/shrunk geometrically until positivity holds at
    the lower end and fails at the upper end, then bisected to width ``tol``
    (or until its ends are adjacent doubles); the returned threshold is the
    midpoint of the final bracket.  The run count ceil(t_f/tau) covers the
    horizon with a constant step throughout.
    """
    if not tol > 0.0:
        raise ValueError(f"tol must be positive, got {tol}")
    lo, hi = bracket
    if not 0.0 < lo < hi:
        raise ValueError(f"invalid bracket {bracket}")

    def ok(tau: float) -> bool:
        return _positivity_ok(setup, method, tau, t_f)

    attempts = 0
    while not ok(lo):
        hi = lo
        lo *= 0.5
        attempts += 1
        if attempts > 60:
            raise RuntimeError("could not find a passing lower bracket")
    attempts = 0
    while ok(hi):
        lo = hi
        hi *= 2.0
        attempts += 1
        if attempts > 60:
            raise RuntimeError("could not find a failing upper bracket")
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            break  # lo and hi are adjacent doubles: tol is below their spacing
        if ok(mid):
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)
