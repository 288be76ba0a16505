"""Butcher tableau algebra, canonical Shu-Osher forms and SSP coefficients.

Only explicit methods are handled.  For an explicit tableau the matrix
``I + r*K`` is unit lower triangular, so the canonical coefficients

    alpha = r*K*(I + r*K)^(-1),    v = 1 - row sums of alpha

always exist and are computed by forward substitution.  A representation is
feasible at ``r`` when every alpha and v entry is non-negative (within a
small floating-point tolerance); the SSP coefficient is the largest feasible
``r``, located here by bisection.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Iterator, Sequence

__all__ = [
    "ButcherTableau",
    "ShuOsherForm",
    "InfeasibleFormError",
    "BUILTIN_METHOD_KEYS",
    "k_matrix",
    "shu_osher_from_butcher",
    "ssp_coefficient",
    "builtin_tableau",
    "builtin_method",
    "butcher_amplification",
    "shu_osher_amplification",
    "format_form",
]

FEASIBILITY_TOL = 1e-12


class InfeasibleFormError(ValueError):
    """Raised when a canonical Shu-Osher form has a negative coefficient."""

    def __init__(self, r: float, min_coefficient: float):
        self.r = r
        self.min_coefficient = min_coefficient
        super().__init__(
            f"no non-negative Shu-Osher form at r={r}: "
            f"smallest coefficient {min_coefficient:.3e}"
        )


@dataclass(frozen=True)
class ButcherTableau:
    """Explicit Runge-Kutta coefficients (A strictly lower triangular)."""

    a: tuple[tuple[float, ...], ...]
    b: tuple[float, ...]

    def __post_init__(self) -> None:
        a = tuple(tuple(float(x) for x in row) for row in self.a)
        b = tuple(float(x) for x in self.b)
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        m = len(b)
        if len(a) != m or any(len(row) != m for row in a):
            raise ValueError(f"stage matrix must be {m}x{m}")
        for i, row in enumerate(a):
            for j in range(i, m):
                if row[j] != 0.0:
                    raise ValueError(
                        f"tableau is not explicit: a[{i}][{j}]={row[j]} nonzero"
                    )
        if abs(sum(b) - 1.0) > 1e-12:
            raise ValueError(f"weights must sum to 1, got {sum(b)}")

    @property
    def m(self) -> int:
        return len(self.b)

    @property
    def c(self) -> tuple[float, ...]:
        """Abscissae, the row sums of the stage matrix."""
        return tuple(math.fsum(row) for row in self.a)


@dataclass(frozen=True)
class ShuOsherForm:
    """Canonical Shu-Osher representation of an explicit RK method.

    ``alpha`` and ``v`` are indexed over all m+1 stages, the trivial first
    stage included (alpha row 0 is all zeros and v[0] = 1; no index shifting
    is done anywhere).  ``r`` is the representation parameter actually used
    for stepping (effective Euler sub-step tau/r) and ``ssp_c`` the SSP
    coefficient when known.  ``c_stage`` carries the Butcher abscissae for
    stage-time evaluation of time-dependent terms.
    """

    alpha: tuple[tuple[float, ...], ...]
    v: tuple[float, ...]
    r: float
    c_stage: tuple[float, ...]
    ssp_c: float | None = None
    key: str | None = None

    def __post_init__(self) -> None:
        n = len(self.v)
        if len(self.alpha) != n or any(len(row) != n for row in self.alpha):
            raise ValueError("alpha must be square over all m+1 stages")
        if len(self.c_stage) != n - 1:
            raise ValueError("c_stage must have one abscissa per Butcher stage")
        if not self.r > 0.0:
            raise ValueError(f"r must be positive, got {self.r}")
        for i in range(n):
            residual = self.v[i] + math.fsum(self.alpha[i][:i]) - 1.0
            if abs(residual) > 1e-9:
                raise ValueError(f"consistency violated in stage {i + 1}: {residual}")
            for j in range(i, n):
                if self.alpha[i][j] != 0.0:
                    raise ValueError("alpha must be strictly lower triangular")

    @property
    def m(self) -> int:
        """Number of Butcher stages (the form has m+1 stages)."""
        return len(self.v) - 1


def k_matrix(t: ButcherTableau) -> list[list[float]]:
    """The (m+1) x (m+1) block matrix [[A, 0], [b^T, 0]]."""
    m = t.m
    rows = [list(t.a[i]) + [0.0] for i in range(m)]
    rows.append(list(t.b) + [0.0])
    return rows


def _alpha_v(
    t: ButcherTableau, r: float
) -> tuple[list[list[float]], list[float]]:
    # alpha = r*K*(I + r*K)^(-1) solved row by row from alpha = r*K - r*alpha*K;
    # K is strictly lower triangular, so sweeping j downwards is a forward
    # substitution that never divides.
    kmat = k_matrix(t)
    n = t.m + 1
    alpha = [[0.0] * n for _ in range(n)]
    for i in range(1, n):
        for j in range(i - 1, -1, -1):
            acc = kmat[i][j]
            for k in range(j + 1, i):
                acc -= alpha[i][k] * kmat[k][j]
            alpha[i][j] = r * acc
    v = [1.0 - math.fsum(alpha[i][:i]) for i in range(n)]
    return alpha, v


def shu_osher_from_butcher(
    t: ButcherTableau, r: float, tol: float = FEASIBILITY_TOL
) -> ShuOsherForm:
    """Canonical Shu-Osher form of ``t`` at parameter ``r``.

    Raises :class:`InfeasibleFormError` when any coefficient drops below
    ``-tol``; coefficient magnitudes are O(1), so the default tolerance only
    absorbs floating-point noise from the substitution.
    """
    if not r > 0.0:
        raise ValueError(f"r must be positive, got {r}")
    alpha, v = _alpha_v(t, r)
    lowest = min(min(v), min(x for row in alpha for x in row))
    if lowest < -tol:
        raise InfeasibleFormError(r, lowest)
    return ShuOsherForm(
        alpha=tuple(tuple(row) for row in alpha),
        v=tuple(v),
        r=r,
        c_stage=t.c,
    )


def _feasible(t: ButcherTableau, r: float) -> bool:
    try:
        shu_osher_from_butcher(t, r)
    except InfeasibleFormError:
        return False
    return True


def ssp_coefficient(t: ButcherTableau, tol: float = 1e-6) -> float:
    """SSP coefficient of ``t``: the largest feasible r, found by bisection.

    The bracket [0, r_hi] grows geometrically until infeasible; the feasible
    set is assumed to be an interval, which holds for the methods used here
    and is spot-checked by the callers' tests.  Returns 0 when no positive r
    is feasible.
    """
    if not tol > 0.0:
        raise ValueError(f"tol must be positive, got {tol}")
    lo = 0.0
    hi = 1.0
    if not _feasible(t, min(tol, 1e-8)):
        return 0.0
    expansions = 0
    while _feasible(t, hi):
        lo = hi
        hi *= 2.0
        expansions += 1
        if expansions > 60:
            raise RuntimeError("SSP coefficient search did not bracket a maximum")
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if _feasible(t, mid):
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


# ---------------------------------------------------------------------------
# builtin methods
# ---------------------------------------------------------------------------

BUILTIN_METHOD_KEYS = ("euler", "ssprk22", "ssprk33", "ssprk104")

# known SSP coefficients of the builtin tableaus; the bisection above must
# reproduce them (tested), and the optimal forms are constructed at exactly
# these values
_BUILTIN_SSP_C = {"euler": 1.0, "ssprk22": 1.0, "ssprk33": 1.0, "ssprk104": 6.0}


def _ssprk104_tableau() -> ButcherTableau:
    # ten-stage fourth-order SSP method: first five stages chain with weight
    # 1/6, later rows restart from a 1/15-weighted combination of the first
    # five, uniform weights 1/10
    m = 10
    a = [[0.0] * m for _ in range(m)]
    for i in range(1, 5):
        for j in range(i):
            a[i][j] = 1.0 / 6.0
    for i in range(5, 10):
        for j in range(5):
            a[i][j] = 1.0 / 15.0
        for j in range(5, i):
            a[i][j] = 1.0 / 6.0
    b = [1.0 / 10.0] * m
    return ButcherTableau(tuple(tuple(row) for row in a), tuple(b))


def builtin_tableau(name: str) -> ButcherTableau:
    """Butcher tableau of a builtin method."""
    if name == "euler":
        return ButcherTableau(((0.0,),), (1.0,))
    if name == "ssprk22":
        return ButcherTableau(((0.0, 0.0), (1.0, 0.0)), (0.5, 0.5))
    if name == "ssprk33":
        return ButcherTableau(
            ((0.0, 0.0, 0.0), (1.0, 0.0, 0.0), (0.25, 0.25, 0.0)),
            (1.0 / 6.0, 1.0 / 6.0, 2.0 / 3.0),
        )
    if name == "ssprk104":
        return _ssprk104_tableau()
    raise KeyError(f"unknown method {name!r}; known: {BUILTIN_METHOD_KEYS}")


def builtin_method(name: str) -> ShuOsherForm:
    """Optimal Shu-Osher form (r = C) of a builtin method."""
    tableau = builtin_tableau(name)
    c_opt = _BUILTIN_SSP_C[name] if name in _BUILTIN_SSP_C else ssp_coefficient(tableau)
    form = shu_osher_from_butcher(tableau, c_opt, tol=1e-9)
    # at r = C some coefficients are exactly zero in exact arithmetic; clamp
    # the rounding noise so downstream non-negativity arguments hold verbatim
    alpha = [
        [x if x > 1e-9 or x == 0.0 else 0.0 for x in row] for row in form.alpha
    ]
    v = [1.0 - math.fsum(alpha[i][:i]) for i in range(len(alpha))]
    v = [x if abs(x) > 1e-9 or x == 0.0 else 0.0 for x in v]
    return replace(
        form,
        alpha=tuple(tuple(row) for row in alpha),
        v=tuple(v),
        ssp_c=c_opt,
        key=name,
    )


# ---------------------------------------------------------------------------
# linear-problem amplification (round-trip checks)
# ---------------------------------------------------------------------------


def butcher_amplification(t: ButcherTableau, z: float) -> float:
    """One-step amplification of u' = lambda*u under the Butcher form, z = lambda*tau."""
    m = t.m
    u = [0.0] * m
    for i in range(m):
        u[i] = 1.0 + z * math.fsum(t.a[i][j] * u[j] for j in range(i))
    return 1.0 + z * math.fsum(t.b[j] * u[j] for j in range(m))


def shu_osher_amplification(form: ShuOsherForm, z: float) -> float:
    """Same amplification computed through the Shu-Osher stages."""
    factor = 1.0 + z / form.r
    stages = [1.0]
    for i in range(1, form.m + 1):
        stages.append(
            form.v[i]
            + math.fsum(form.alpha[i][j] * factor * stages[j] for j in range(i))
        )
    return stages[-1]


def format_form(form: ShuOsherForm) -> str:
    """Plain-text coefficient table for inspection."""
    lines = [
        f"method: {form.key or '?'}  stages: {form.m}  r: {form.r:g}"
        + (f"  C: {form.ssp_c:g}" if form.ssp_c is not None else "")
    ]
    lines.append("stage |    v | alpha row")
    for i in range(form.m + 1):
        row = "  ".join(f"{x: .6f}" for x in form.alpha[i][:i]) or "-"
        lines.append(f"{i + 1:5d} | {form.v[i]:.4f} | {row}")
    return "\n".join(lines)
