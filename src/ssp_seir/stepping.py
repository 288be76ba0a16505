"""Shu-Osher SSP Runge-Kutta stepping of the SEIR system.

Every method, explicit Euler included (the one-stage form), runs through the
single loop in :func:`integrate`.  Stage recruitment is evaluated at the
Butcher abscissa times carried by the Shu-Osher form (t_n + c_j * tau); this
preserves classical order for time-dependent recruitment and collapses to
pi(t_n) for forward Euler.
Summation order inside stages is fixed (ascending stage index) so repeated
runs are bitwise reproducible.  Negative compartment values are never
clamped: observing them is the whole point of the property checks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import IO

import numpy as np

from .model import IncidenceFunction, ModelParams, RecruitmentFunction, State, _derivs
from .shu_osher import ShuOsherForm

__all__ = [
    "Trajectory",
    "IntegrationOverflowError",
    "integrate",
    "trajectory_to_csv",
]


class IntegrationOverflowError(RuntimeError):
    """A non-finite state appeared during integration."""

    def __init__(self, step_index: int, partial: "Trajectory"):
        self.step_index = step_index
        self.partial = partial
        super().__init__(f"non-finite state at step {step_index}")


@dataclass(eq=False)
class Trajectory:
    """Time-stamped step states with the stepping metadata.

    ``data`` is one float64 array of shape ``(n+1, 5)`` whose columns are
    ``t, S, E, I, R``.  :attr:`states` builds :class:`State` objects from it
    on every read; the checks work on the array.  ``stage_min`` is the
    smallest compartment value seen over all internal stages of all steps
    (step states included), a diagnostic for stage-level positivity checks.
    """

    data: np.ndarray
    tau: float
    method: str
    stage_min: float

    @property
    def times(self) -> np.ndarray:
        return self.data[:, 0]

    @property
    def populations(self) -> np.ndarray:
        """N = ((S + E) + I) + R per row, bitwise :attr:`State.total`."""
        d = self.data
        return d[:, 1] + d[:, 2] + d[:, 3] + d[:, 4]

    @property
    def states(self) -> list[State]:
        return [State(s, e, i, r, t) for t, s, e, i, r in self.data.tolist()]

    def __len__(self) -> int:
        return len(self.data)


def _trajectory(t0: float, history: list, tau: float, key: str, stage_min: float) -> Trajectory:
    """Step values ``(s, e, i, r)`` stacked under the times ``t0 + k*tau``."""
    data = np.empty((len(history), 5))
    data[:, 0] = t0 + np.arange(len(history)) * tau
    data[0, 0] = t0  # t0 + 0.0 would turn -0.0 into 0.0
    data[:, 1:] = history
    return Trajectory(data, tau, key, stage_min)


def integrate(
    x0: State,
    tau: float,
    n_steps: int,
    method: ShuOsherForm,
    p: ModelParams,
    f: IncidenceFunction,
    pi: RecruitmentFunction,
) -> Trajectory:
    """Repeated Shu-Osher stepping with effective sub-step tau/r; the
    one-stage form is forward Euler, bit for bit.  Deterministic given
    identical inputs.

    Step times are computed as t0 + k*tau directly (no accumulation drift).
    Raises :class:`IntegrationOverflowError` as soon as a non-finite state
    appears, carrying the partial trajectory.
    """
    if not (math.isfinite(tau) and tau >= 0.0):
        raise ValueError(f"step size must be finite and non-negative, got {tau}")
    if n_steps < 0:
        raise ValueError(f"n_steps must be non-negative, got {n_steps}")
    m = method.m
    h = tau / method.r
    # stage plan, built once: for k = 0..m-1, whether a later row reads the
    # Euler sub-step of stage k, its time offset c_k*tau, then row k+1 as
    # (v, nonzero alpha terms in ascending j).  Skipping exact zeros keeps
    # the one-stage form bitwise identical to x + tau*rhs(t, x).
    rows = [
        [(j, method.alpha[i][j]) for j in range(i) if method.alpha[i][j] != 0.0]
        for i in range(1, m + 1)
    ]
    read = {j for terms in rows for j, _ in terms}
    plan = [
        (k in read, method.c_stage[k] * tau, method.v[k + 1], rows[k])
        for k in range(m)
    ]
    history = [(x0.s, x0.e, x0.i, x0.r)]
    stage_min = min(x0.s, x0.e, x0.i, x0.r)
    t0 = x0.t
    s, e, i_, r = x0.s, x0.e, x0.i, x0.r
    key = method.key or f"shu-osher-{m}"
    for k in range(n_steps):
        t = t0 + k * tau
        low = stage_min
        xs, xe, xi, xr = s, e, i_, r
        sub: list = []
        try:
            for needed, c_tau, vi, terms in plan:
                if needed:
                    ds, de, di, dr = _derivs(t + c_tau, xs, xe, xi, xr, p, f, pi)
                    sub.append((xs + h * ds, xe + h * de, xi + h * di, xr + h * dr))
                else:
                    sub.append(None)
                # fixed summation order: v_i*x first, then ascending j
                if vi != 0.0:
                    xs, xe, xi, xr = vi * s, vi * e, vi * i_, vi * r
                else:
                    xs = xe = xi = xr = 0.0
                for j, a in terms:
                    fs, fe, fi, fr = sub[j]
                    xs += a * fs
                    xe += a * fe
                    xi += a * fi
                    xr += a * fr
                stage_low = min(xs, xe, xi, xr)
                if stage_low < low:
                    low = stage_low
        except OverflowError:
            # divergent runs can push exp()-based catalog functions past the
            # double range before the state itself turns non-finite
            raise IntegrationOverflowError(
                k, _trajectory(t0, history, tau, key, stage_min)
            ) from None
        stage_min = low
        s, e, i_, r = xs, xe, xi, xr
        if not (
            math.isfinite(s) and math.isfinite(e) and math.isfinite(i_) and math.isfinite(r)
        ):
            raise IntegrationOverflowError(
                k, _trajectory(t0, history, tau, key, stage_min)
            )
        history.append((s, e, i_, r))
    return _trajectory(t0, history, tau, key, stage_min)


def trajectory_to_csv(traj: Trajectory, out: IO[str]) -> None:
    """Write ``t,S,E,I,R,N`` rows at full double precision (round-trippable)."""
    out.write("t,S,E,I,R,N\n")
    for t, s, e, i, r in traj.data.tolist():
        out.write(f"{t!r},{s!r},{e!r},{i!r},{r!r},{s + e + i + r!r}\n")
