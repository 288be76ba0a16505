"""Independent ground-truth generators.

Two oracles:

* the total-population solution N(t) = N0*exp(-mu*t) + integral of
  pi(s)*exp(-mu*(t-s)), evaluated by adaptive Simpson quadrature; it shares
  no code with the stepper, and
* high-resolution reference trajectories for convergence-order measurement,
  generated by :func:`~ssp_seir.stepping.integrate` with the ten-stage
  fourth-order method at a step far below its positivity bound
  (:func:`~ssp_seir.step_bounds.bound_report`), with output times forced
  onto the fine grid (no interpolation).  It measures the methods' order
  but cannot expose a fault of the stepping loop they share.
"""

import math
from array import array
from typing import Callable, Sequence

from .model import ProblemSetup, RateFunction
from .shu_osher import ShuOsherForm, builtin_method
from .step_bounds import bound_report
from .stepping import STEP_LIMIT, Trajectory, integrate

__all__ = [
    "QuadratureError",
    "adaptive_simpson",
    "exact_population",
    "grid_run",
    "reference_trajectory",
    "step_grid",
]

DEFAULT_REFINEMENT = 2.0**-10


class QuadratureError(RuntimeError):
    """Adaptive quadrature did not reach the requested tolerance."""

    def __init__(self, achieved: float, requested: float):
        self.achieved = achieved
        self.requested = requested
        super().__init__(
            f"quadrature reached {achieved:.3e}, requested {requested:.3e}"
        )


def _simpson(fn: Callable[[float], float], a: float, fa: float, b: float, fb: float):
    m = 0.5 * (a + b)
    fm = fn(m)
    return m, fm, (b - a) / 6.0 * (fa + 4.0 * fm + fb)


def adaptive_simpson(
    fn: Callable[[float], float],
    a: float,
    b: float,
    tol: float = 1e-9,
    max_depth: int = 48,
) -> float:
    """Adaptive composite Simpson integral of ``fn`` over [a, b].

    Interval-bisection with the standard 1/15 error estimate; raises
    :class:`QuadratureError` when the depth cap is hit before the local
    tolerance is met.
    """
    if not tol > 0.0:
        raise ValueError(f"tol must be positive, got {tol}")
    if a == b:
        return 0.0
    fa, fb = fn(a), fn(b)
    m, fm, whole = _simpson(fn, a, fa, b, fb)
    total = 0.0
    # (a, fa, b, fb, m, fm, whole, tol, depth)
    stack = [(a, fa, b, fb, m, fm, whole, tol, 0)]
    while stack:
        a0, fa0, b0, fb0, m0, fm0, whole0, tol0, depth = stack.pop()
        lm, flm, left = _simpson(fn, a0, fa0, m0, fm0)
        rm, frm, right = _simpson(fn, m0, fm0, b0, fb0)
        err = left + right - whole0
        if abs(err) <= 15.0 * tol0:
            total += left + right + err / 15.0
            continue
        if depth >= max_depth:
            raise QuadratureError(abs(err) / 15.0, tol0)
        stack.append((a0, fa0, m0, fm0, lm, flm, left, 0.5 * tol0, depth + 1))
        stack.append((m0, fm0, b0, fb0, rm, frm, right, 0.5 * tol0, depth + 1))
    return total


def exact_population(
    n0: float,
    mu: float,
    pi: RateFunction,
    t: float,
    quad_tol: float = 1e-9,
) -> float:
    """Total population of the exact N' = pi(t) - mu*N solution at time t."""
    if t < 0.0:
        raise ValueError(f"t must be non-negative, got {t}")
    if t == 0.0:
        return float(n0)
    if pi.key == "const":
        p = pi.fn(0.0)
        if mu > 0.0:
            return n0 * math.exp(-mu * t) + (p / mu) * (1.0 - math.exp(-mu * t))
        return n0 + p * t
    if mu == 0.0:
        return n0 + adaptive_simpson(pi.fn, 0.0, t, quad_tol)

    def integrand(s: float) -> float:
        return pi.fn(s) * math.exp(-mu * (t - s))

    return n0 * math.exp(-mu * t) + adaptive_simpson(integrand, 0.0, t, quad_tol)


def step_grid(
    tau_nominal: float, t_f: float, output_times: Sequence[float],
) -> tuple[float, int, int]:
    """``(base, per_base, n_steps)``: the step grid :func:`grid_run` runs on.

    The step ``base / per_base`` is ``tau_nominal`` shrunk minimally so that
    the smallest positive output time ``base`` is ``per_base`` steps, and
    ``n_steps`` steps reach ``t_f``.  Equal grids give equal runs.  A step
    count ``base / tau_nominal`` or ``t_f / tau`` that is not finite, or an
    ``n_steps`` of 2**53 or more (``STEP_LIMIT``), is a ValueError.
    """
    if not (math.isfinite(tau_nominal) and tau_nominal > 0.0):
        raise ValueError(f"tau_nominal must be finite and positive, got {tau_nominal}")
    if not (math.isfinite(t_f) and t_f > 0.0):
        raise ValueError(f"t_f must be finite and positive, got {t_f}")
    if not all(map(math.isfinite, output_times)):
        raise ValueError(f"output_times must be finite, got {list(output_times)}")
    positive = [t for t in output_times if t > 0.0]
    if not positive:
        raise ValueError("at least one positive output time is required")
    base = min(positive)
    ratio = base / tau_nominal
    if not math.isfinite(ratio):
        raise ValueError(
            f"step count base/tau_nominal is not finite for base={base!r}, "
            f"tau_nominal={tau_nominal!r}"
        )
    per_base = max(1, math.ceil(ratio - 1e-12))
    tau = base / per_base
    steps = t_f / tau
    if not math.isfinite(steps):
        raise ValueError(f"step count t_f/tau is not finite for t_f={t_f!r}, tau={tau!r}")
    n_steps = round(steps)
    if n_steps * tau < t_f - 1e-9 * t_f:
        n_steps = math.ceil(steps)
    if n_steps >= STEP_LIMIT:
        raise ValueError(f"n_steps must be below 2**53 for t_f={t_f!r}, tau={tau!r}")
    return base, per_base, n_steps


def grid_run(
    setup: ProblemSetup,
    method: ShuOsherForm,
    tau_nominal: float,
    t_f: float,
    output_times: Sequence[float],
) -> Trajectory:
    """Run ``method`` to ``t_f`` and keep the rows at ``output_times``.

    The step is ``tau_nominal`` shrunk minimally so every output time lands
    exactly on the step grid (no interpolation; :func:`step_grid`), so the
    output times fall on every ``per_base``-th step and the run keeps only
    those rows.  The result holds the run's rows at the output times, in
    their order, with that step as ``tau``; the run tracks no stage minimum,
    so its ``stage_min`` is None.  Each output time must be a whole multiple
    of the smallest positive one, from 0 to the last step.
    """
    base, per_base, n_steps = step_grid(tau_nominal, t_f, output_times)
    tau = base / per_base
    rows = []
    for t in output_times:
        k = round(t / base)
        if not (0 <= k * per_base <= n_steps and abs(t / base - k) <= 1e-9):
            raise ValueError(
                f"output time {t} not on the step grid: output times must be "
                f"integer multiples of the smallest positive one ({base}) up to t_f"
            )
        rows.append(k)
    kept = integrate(
        setup.x0, tau, n_steps, method,
        setup.params, setup.incidence, setup.recruitment, every=per_base, stages=False,
    )
    data = array("d")
    for k in rows:
        data += kept.row(k)
    return Trajectory(data, tau, kept.method, None)


def reference_trajectory(
    setup: ProblemSetup,
    t_f: float,
    output_times: Sequence[float],
    refinement: float = DEFAULT_REFINEMENT,
) -> Trajectory:
    """High-resolution ``ssprk104`` run recorded at ``output_times``.

    The nominal step is the method's positivity bound times ``refinement``;
    :func:`grid_run` puts the output times on the step grid.
    """
    if not (math.isfinite(t_f) and t_f > 0.0):
        raise ValueError(f"t_f must be finite and positive, got {t_f}")
    method = builtin_method("ssprk104")
    tau_bound = bound_report(setup, method, t_f).tau_method
    return grid_run(setup, method, tau_bound * refinement, t_f, output_times)
