"""Reference trajectories for convergence-order measurement.

They are generated by :func:`~ssp_seir.stepping.integrate` with the
ten-stage fourth-order method at a step far below its positivity bound
(:func:`~ssp_seir.step_bounds.bound_report`), with output times forced onto
the fine grid (no interpolation).  Such a reference measures the methods'
order but cannot expose a fault of the stepping loop they share; the
quadrature oracle of the total population, which shares no code with the
stepper, is a test-side oracle (``tests/oracles.py``).
"""

import math
from array import array
from typing import Sequence

from .model import ProblemSetup
from .shu_osher import ShuOsherForm, builtin_method
from .step_bounds import bound_report
from .stepping import Trajectory, integrate, step_count

__all__ = [
    "grid_run",
    "reference_trajectory",
    "step_grid",
]

DEFAULT_REFINEMENT = 2.0**-10


def step_grid(
    tau_nominal: float, t_f: float, output_times: Sequence[float],
) -> tuple[float, int, int]:
    """``(base, per_base, n_steps)``: the step grid :func:`grid_run` runs on.

    The step ``base / per_base`` is ``tau_nominal`` shrunk minimally so that
    the smallest positive output time ``base`` is ``per_base`` steps, and
    ``n_steps`` steps reach ``t_f``.  Equal grids give equal runs.  A step
    count ``base / tau_nominal`` that is not finite is a ValueError, and so
    is a ``t_f`` and ``tau`` that :func:`~ssp_seir.stepping.step_count`
    rejects; ``n_steps`` is never above its count.
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
    n_steps = step_count(t_f, tau)
    rounded = round(t_f / tau)  # at most step_count's ceil, so within its limits
    if rounded * tau >= t_f - 1e-9 * t_f:  # t_f is within 1e-9 of a step
        n_steps = rounded
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
