"""Spans around the package's public entry points, recorded from outside.

``Tracer.install`` rebinds, in every ``ssp_seir`` module, each name that
refers to one of the traced functions, so calls between modules go through
a wrapper that records a span: name, start, end, parent. Nothing in the
package changes; ``uninstall`` puts the original functions back. Spans stay
in memory until the benchmark writes them out.
"""

from __future__ import annotations

import math
import sys
import time
from collections import Counter, defaultdict
from typing import Callable

from ssp_seir.checks import NEGATIVITY_THRESHOLD


# module -> public functions traced at its boundary
TRACED = {
    "config": ("load_config",),
    "shu_osher": ("builtin_method",),
    "model": ("sup_incidence", "recruitment_sup"),
    "stepping": ("integrate", "trajectory_to_csv"),
    "step_bounds": ("bound_report", "population_cap"),
    "checks": ("find_empirical_bound", "check_nonnegativity", "check_population_bound"),
    "reference": ("reference_trajectory",),
    "experiments": (
        "bounds_table", "convergence_study", "property_sweep", "run_simulation",
        "write_bounds_table_csv", "write_convergence_csv", "write_slopes_csv",
    ),
}
LAYERS = ("cli", "config", "shu_osher", "model", "stepping", "step_bounds",
          "checks", "reference", "experiments")
OBSERVE = "perfbench.observe"  # the tracer's own work inside a parent span


class Tracer:
    def __init__(self) -> None:
        # each span: [name, start, end, parent index, attributes or None]
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, Callable]] = []
        self._stages: dict[tuple, int] = {}

    # -- recording --------------------------------------------------------

    def span(self, name: str, fn: Callable, *args, **kwargs):
        """Call ``fn`` inside a span named ``name``."""
        spans = self.spans
        idx = len(spans)
        record = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, None]
        spans.append(record)
        self._stack.append(idx)
        record[1] = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            record[2] = time.perf_counter()
            self._stack.pop()

    def _wrap(self, name: str, fn: Callable) -> Callable:
        observe = _OBSERVERS.get(name)

        def traced(*args, **kwargs):
            idx = len(self.spans)
            try:
                result = self.span(name, fn, *args, **kwargs)
            except Exception as exc:
                if observe is not None:
                    self._observe(idx, observe, args, kwargs, None, exc)
                raise
            if observe is not None:
                self._observe(idx, observe, args, kwargs, result, None)
            return result

        traced.__wrapped__ = fn
        return traced

    def _observe(self, idx, observe, args, kwargs, result, exc) -> None:
        # the observer's cost is charged to its own span, not the caller's
        start = time.perf_counter()
        self.spans[idx][4] = observe(self, args, kwargs, result, exc)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([OBSERVE, start, time.perf_counter(), parent, None])

    def stages(self, method) -> int:
        """Stage derivatives one step of ``method`` evaluates."""
        key = method.alpha
        if key not in self._stages:
            used = [j for row in key for j, a in enumerate(row) if a != 0.0]
            self._stages[key] = max(used) + 1 if used else 0
        return self._stages[key]

    # -- installing -------------------------------------------------------

    def install(self) -> None:
        originals = {}
        for layer, names in TRACED.items():
            module = sys.modules[f"ssp_seir.{layer}"]
            for name in names:
                fn = getattr(module, name)
                originals[id(fn)] = (f"{layer}.{name}", fn)
        wrappers = {key: self._wrap(label, fn) for key, (label, fn) in originals.items()}
        for modname, module in list(sys.modules.items()):
            if modname != "ssp_seir" and not modname.startswith("ssp_seir."):
                continue
            for attr, value in list(vars(module).items()):
                if id(value) in originals and originals[id(value)][1] is value:
                    self._saved.append((module, attr, value))
                    setattr(module, attr, wrappers[id(value)])

    def uninstall(self) -> None:
        for module, attr, value in reversed(self._saved):
            setattr(module, attr, value)
        self._saved.clear()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # -- deriving ---------------------------------------------------------

    def summary(self) -> dict[str, float]:
        """Per-layer calls and self time, counts and waste ratios."""
        child_time = defaultdict(float)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        calls = Counter()
        self_s = defaultdict(float)
        probes = steps = rhs_evals = after_violation = 0
        sup_keys = []
        for idx, (name, start, end, parent, attrs) in enumerate(self.spans):
            layer = name.split(".", 1)[0]
            if name == OBSERVE:
                continue
            calls[layer] += 1
            self_s[layer] += (end - start) - child_time[idx]
            if attrs is None:
                continue
            if name == "stepping.integrate":
                steps += attrs["steps"]
                rhs_evals += attrs["rhs_evals"]
                after_violation += attrs["after_violation"]
                if parent >= 0 and self.spans[parent][0] == "checks.find_empirical_bound":
                    probes += 1
            elif name.startswith("model."):
                sup_keys.append(attrs["key"])
        out = {}
        for layer in LAYERS:
            out[f"{layer}.calls"] = calls[layer]
            out[f"{layer}.self_s"] = self_s[layer]
        out["stepping.steps"] = steps
        out["stepping.rhs_evals"] = rhs_evals
        out["checks.probes"] = probes
        out["model.sup_calls"] = len(sup_keys)
        out["step_bounds.distinct_sup_frac"] = (
            len(set(sup_keys)) / len(sup_keys) if sup_keys else 1.0
        )
        out["checks.steps_after_violation_frac"] = after_violation / steps if steps else 0.0
        return out

    def counts(self) -> dict[str, int]:
        """The deterministic part of the summary."""
        summary = self.summary()
        keys = [k for k in summary if k.endswith(".calls")]
        keys += ["stepping.steps", "stepping.rhs_evals", "checks.probes", "model.sup_calls"]
        return {k: summary[k] for k in keys}


# -- observers: attributes of a finished call, computed outside its span ----


def _observe_integrate(tracer, args, kwargs, result, exc):
    method = (list(args) + list(kwargs.values()))[3]
    if exc is not None:
        partial = getattr(exc, "partial", None)
        if partial is None:
            return None
        states = partial.states
        steps = exc.step_index + 1
    else:
        states = result.states
        steps = len(states) - 1
    first_bad = next(
        (k for k, x in enumerate(states)
         if not min(x.s, x.e, x.i, x.r) >= NEGATIVITY_THRESHOLD),
        steps,
    )
    return {
        "steps": steps,
        "rhs_evals": steps * tracer.stages(method),
        "after_violation": steps - first_bad,
    }


def _closure_floats(fn) -> tuple:
    cells = getattr(fn, "__closure__", None) or ()
    values = []
    for cell in cells:
        value = cell.cell_contents
        if isinstance(value, float) and not math.isnan(value):
            values.append(value)
    return tuple(values)


def _observe_sup(tracer, args, kwargs, result, exc):
    fn_obj, arg = (list(args) + list(kwargs.values()))[:2]
    return {"key": (fn_obj.key, _closure_floats(fn_obj.fn), float(arg))}


_OBSERVERS = {
    "stepping.integrate": _observe_integrate,
    "model.sup_incidence": _observe_sup,
    "model.recruitment_sup": _observe_sup,
}
