"""Butcher tableau algebra: exact canonical Shu-Osher forms and SSP coefficients.

Only explicit methods are handled.  For an explicit tableau the matrix
``I + r*K`` is unit lower triangular, so the canonical coefficients

    alpha = r*K*(I + r*K)^(-1),    v = 1 - row sums of alpha

always exist and are computed by forward substitution.  Tableau entries are
stored as exact rationals and the substitution runs in ``fractions.Fraction``
arithmetic, so a representation is feasible at ``r`` exactly when every alpha
and v entry is non-negative, with no tolerance; each coefficient is rounded
to float once, after that test.  The SSP coefficient is the largest feasible
``r``, located here by bisection.

No command runs this module: the builtin forms that the commands step with
are literals in :mod:`ssp_seir.shu_osher`, and the tests check them bit for
bit against the derivation here.
"""

import math
from fractions import Fraction

from .model import _Value
from .shu_osher import BUILTIN_METHOD_KEYS, ShuOsherForm

__all__ = [
    "ButcherTableau",
    "InfeasibleFormError",
    "k_matrix",
    "shu_osher_from_butcher",
    "ssp_coefficient",
    "builtin_tableau",
    "butcher_amplification",
    "shu_osher_amplification",
]


class InfeasibleFormError(ValueError):
    """Raised when a canonical Shu-Osher form has a negative coefficient."""

    def __init__(self, r: float, min_coefficient: float):
        self.r = r
        self.min_coefficient = min_coefficient
        super().__init__(
            f"no non-negative Shu-Osher form at r={r}: "
            f"smallest coefficient {min_coefficient:.3e}"
        )


class ButcherTableau(_Value):
    """Explicit Runge-Kutta coefficients (A strictly lower triangular).

    Entries are stored as exact ``Fraction`` values, converted without
    rounding from whatever numbers are given (float, int or Fraction).
    Immutable; equal tableaus compare and hash equal.
    """

    __slots__ = ("a", "b")

    def __init__(self, a: tuple[tuple[Fraction, ...], ...], b: tuple[Fraction, ...]) -> None:
        try:
            a = tuple(tuple(Fraction(x) for x in row) for row in a)
            b = tuple(Fraction(x) for x in b)
        except (OverflowError, ValueError) as exc:  # Fraction(inf), Fraction(nan)
            raise ValueError(f"tableau entries must be finite numbers: {exc}") from exc
        m = len(b)
        if len(a) != m or any(len(row) != m for row in a):
            raise ValueError(f"stage matrix must be {m}x{m}")
        for i, row in enumerate(a):
            for j in range(i, m):
                if row[j] != 0:
                    raise ValueError(
                        f"tableau is not explicit: a[{i}][{j}]={row[j]} nonzero"
                    )
        if abs(sum(b) - 1) > 1e-12:
            raise ValueError(f"weights must sum to 1, got {float(sum(b))}")
        self._set(a, b)

    @property
    def m(self) -> int:
        return len(self.b)

    @property
    def c(self) -> tuple[float, ...]:
        """Abscissae, the exact row sums of the stage matrix rounded once."""
        return tuple(float(sum(row)) for row in self.a)


def k_matrix(t: ButcherTableau) -> list[list[Fraction]]:
    """The exact (m+1) x (m+1) block matrix [[A, 0], [b^T, 0]]."""
    m = t.m
    rows = [list(t.a[i]) + [Fraction(0)] for i in range(m)]
    rows.append(list(t.b) + [Fraction(0)])
    return rows


def _alpha_v(
    t: ButcherTableau, r: Fraction
) -> tuple[list[list[Fraction]], list[Fraction]]:
    # alpha = r*K*(I + r*K)^(-1) solved row by row from alpha = r*K - r*alpha*K;
    # K is strictly lower triangular, so sweeping j downwards is a forward
    # substitution that never divides.
    kmat = k_matrix(t)
    n = t.m + 1
    alpha = [[Fraction(0)] * n for _ in range(n)]
    for i in range(1, n):
        for j in range(i - 1, -1, -1):
            acc = kmat[i][j]
            for k in range(j + 1, i):
                acc -= alpha[i][k] * kmat[k][j]
            alpha[i][j] = r * acc
    v = [1 - sum(alpha[i][:i]) for i in range(n)]
    return alpha, v


def shu_osher_from_butcher(t: ButcherTableau, r: float) -> ShuOsherForm:
    """Canonical Shu-Osher form of ``t`` at parameter ``r``.

    The coefficients are computed exactly at ``Fraction(r)``; raises
    :class:`InfeasibleFormError` when any of them is negative.  The form
    holds each coefficient rounded to the nearest float.
    """
    if not (r > 0.0 and math.isfinite(r)):
        raise ValueError(f"r must be positive and finite, got {r}")
    alpha, v = _alpha_v(t, Fraction(r))
    lowest = min(min(v), min(x for row in alpha for x in row))
    if lowest < 0:
        raise InfeasibleFormError(r, float(lowest))
    return ShuOsherForm(
        alpha=tuple(tuple(float(x) for x in row) for row in alpha),
        v=tuple(float(x) for x in v),
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

    The bracket [lo, r_hi] grows geometrically until infeasible; the feasible
    set is assumed to be an interval, which holds for the methods used here
    and is spot-checked by the callers' tests.  Returns the lower end of the
    final bracket, the largest r proved feasible, so the result always has a
    non-negative form.  Returns 0 when no positive r is feasible.
    """
    if not tol > 0.0:
        raise ValueError(f"tol must be positive, got {tol}")
    lo = min(tol, 1e-8)
    hi = 1.0
    if not _feasible(t, lo):
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
    return lo


# ---------------------------------------------------------------------------
# builtin tableaus
# ---------------------------------------------------------------------------


def _ssprk104_tableau() -> ButcherTableau:
    # ten-stage fourth-order SSP method: first five stages chain with weight
    # 1/6, later rows restart from a 1/15-weighted combination of the first
    # five, uniform weights 1/10
    m = 10
    a = [[0] * m for _ in range(m)]
    for i in range(1, 5):
        for j in range(i):
            a[i][j] = Fraction(1, 6)
    for i in range(5, 10):
        for j in range(5):
            a[i][j] = Fraction(1, 15)
        for j in range(5, i):
            a[i][j] = Fraction(1, 6)
    b = [Fraction(1, 10)] * m
    return ButcherTableau(tuple(tuple(row) for row in a), tuple(b))


def builtin_tableau(name: str) -> ButcherTableau:
    """Butcher tableau of a builtin method."""
    if name == "euler":
        return ButcherTableau(((0,),), (1,))
    if name == "ssprk22":
        return ButcherTableau(((0, 0), (1, 0)), (Fraction(1, 2), Fraction(1, 2)))
    if name == "ssprk33":
        quarter = Fraction(1, 4)
        return ButcherTableau(
            ((0, 0, 0), (1, 0, 0), (quarter, quarter, 0)),
            (Fraction(1, 6), Fraction(1, 6), Fraction(2, 3)),
        )
    if name == "ssprk104":
        return _ssprk104_tableau()
    raise KeyError(f"unknown method {name!r}; known: {BUILTIN_METHOD_KEYS}")


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
