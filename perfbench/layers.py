"""Per-layer timings: each public call timed on its own, from outside.

Every timing is the median of a few repeats, each repeat long enough for the
clock to resolve it. The inputs are the published setup, so the figures do
not depend on the workload or the seed.
"""

from __future__ import annotations

import io
import math
import statistics
import time
from typing import Callable

from workloads import METHODS, PUBLISHED, TABLE_STATE

MIN_REPEAT_S = 0.02


def per_call(fn: Callable[[], object], repeats: int = 5, min_s: float = MIN_REPEAT_S) -> float:
    """Median seconds per call of ``fn()`` over ``repeats`` timed batches."""
    t0 = time.perf_counter()
    fn()
    once = max(time.perf_counter() - t0, 1e-7)
    batch = max(1, math.ceil(min_s / once))
    samples = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        for _ in range(batch):
            fn()
        samples.append((time.perf_counter() - t0) / batch)
    return statistics.median(samples)


def measure() -> dict[str, tuple[float, str]]:
    """Metric name -> (value, unit)."""
    from ssp_seir import model, shu_osher, stepping, step_bounds, checks, reference
    from ssp_seir.config import load_config

    cfg = PUBLISHED
    params = model.ModelParams(cfg["mu"], cfg["sigma"], cfg["gamma"], cfg["delta"])
    incidences = {
        "linear": model.incidence_from_key("linear"),
        "holling": model.incidence_from_key("holling", c1=cfg["c1"], c2=cfg["c2"], k=cfg["k"]),
        "media": model.incidence_from_key("media", nu=cfg["nu"], eta=cfg["eta"]),
    }
    choice_a = model.recruitment_from_key("choiceA", kappa=cfg["kappa"])
    x0 = model.State(cfg["s0"], cfg["e0"], cfg["i0"], cfg["r0"])
    media = incidences["media"]
    methods = {key: shu_osher.builtin_method(key) for key in METHODS}
    cap = x0.total + 2.0 * cfg["kappa"] / cfg["mu"]
    out: dict[str, tuple[str, float]] = {}

    out["config.load_ms"] = "ms", 1e3 * per_call(lambda: load_config(None))
    out["shu_osher.builtin_method_ms"] = "ms", 1e3 * per_call(
        lambda: [shu_osher.builtin_method(key) for key in METHODS]
    )
    out["model.rhs_us"] = "us", 1e6 * per_call(lambda: model.rhs(1.5, x0, params, media, choice_a))

    n = 2000
    for key, method in methods.items():
        tau = 0.5 * method.ssp_c / (cfg["mu"] + cfg["sigma"])
        out[f"stepping.step_us.{key}"] = "us", 1e6 / n * per_call(
            lambda: stepping.integrate(x0, tau, n, method, params, media, choice_a), repeats=3
        )

    for key, f in incidences.items():
        out[f"model.sup_incidence_ms.{key}"] = "ms", 1e3 * per_call(
            lambda: model.sup_incidence(f, cap), repeats=3
        )
    out["model.recruitment_sup_ms.choiceA"] = "ms", 1e3 * per_call(
        lambda: model.recruitment_sup(choice_a, cfg["tf"]), repeats=3
    )
    for key in ("media", "holling"):
        setup = model.ProblemSetup(params, incidences[key], choice_a, x0)
        out[f"step_bounds.bound_report_ms.{key}-choiceA"] = "ms", 1e3 * per_call(
            lambda: step_bounds.bound_report(setup, methods["ssprk104"], cfg["tf"]), repeats=3
        )

    table_x0 = model.State(*(TABLE_STATE[k] for k in ("s0", "e0", "i0", "r0")))
    choice_c = model.recruitment_from_key("choiceC", kappa=cfg["kappa"])
    table = model.ProblemSetup(params, media, choice_c, table_x0)
    for key, method in methods.items():
        tau_t = step_bounds.bound_report(table, method, cfg["tf"]).tau_method
        out[f"checks.find_empirical_bound_ms.{key}"] = "ms", 1e3 * per_call(
            lambda: checks.find_empirical_bound(
                table, method, cfg["tf"], (tau_t, 2.0 * tau_t), cfg["bisect_tol"]
            ),
            repeats=3, min_s=0.0,
        )

    rows = 20_000
    traj = stepping.integrate(x0, 0.05, rows - 1, methods["ssprk104"], params, media, choice_a)
    out["stepping.csv_us_per_row"] = "us", 1e6 / rows * per_call(
        lambda: stepping.trajectory_to_csv(traj, io.StringIO()), repeats=3
    )
    out["checks.nonnegativity_us_per_state"] = "us", 1e6 / rows * per_call(
        lambda: checks.check_nonnegativity(traj, include_stages=True), repeats=3
    )

    setup = model.ProblemSetup(params, media, choice_a, x0)
    spacing = cfg["tf"] / 50
    times = [spacing * (k + 1) for k in range(50)]
    t0 = time.perf_counter()
    reference.reference_trajectory(setup, cfg["tf"], times)
    out["reference.reference_trajectory_s"] = "s", time.perf_counter() - t0
    return {name: (value, unit) for name, (unit, value) in out.items()}
