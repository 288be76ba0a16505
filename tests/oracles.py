"""Test-side oracles that no command runs.

* The total-population solution N(t) = N0*exp(-mu*t) + integral of
  pi(s)*exp(-mu*(t-s)), evaluated by adaptive Simpson quadrature; it shares
  no code with the stepper.
* The A_i/B_i recurrences and the gamma_ij expansion, which express how
  total population propagates through the stages of a Shu-Osher form
  (criterion 7), so the identities they satisfy can be tested directly
  against the integrator.
* The distance of a trajectory's tail from the recruitment limit p/mu.
"""

import math
from typing import Callable, Optional

from ssp_seir.model import RateFunction
from ssp_seir.shu_osher import ShuOsherForm
from ssp_seir.stepping import Trajectory

__all__ = [
    "QuadratureError",
    "adaptive_simpson",
    "exact_population",
    "ab_coefficients",
    "gamma_coefficients",
    "check_limit",
]

# ---------------------------------------------------------------------------
# total population by quadrature
# ---------------------------------------------------------------------------


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


# ---------------------------------------------------------------------------
# stage-coefficient recurrences
# ---------------------------------------------------------------------------


def ab_coefficients(
    method: ShuOsherForm, tau: float, mu: float
) -> tuple[list[float], list[float]]:
    """The A_i and B_i recurrences over all m+1 stages.

    A_1 = 1, B_1 = 0 and

        A_i = v_i + (1 - tau*mu/C) * sum_j alpha_ij A_j
        B_i = 1 - v_i + (1 - tau*mu/C) * sum_j alpha_ij B_j

    Valid only while tau*mu/C <= 1.  A_i always stays in [0, 1].  B_i stays
    in [0, C] but NOT in [0, 1] for C > 1: at tau*mu = 0 the recurrence
    collapses to the gamma row sums, and consistency forces the final-stage
    row sum to equal C exactly.  The identity (tau*mu/C)*B_i = 1 - A_i
    holds throughout either way.
    """
    x = tau * mu / method.r
    if not 0.0 <= x <= 1.0:
        raise ValueError(f"tau*mu/C = {x} outside [0, 1]")
    damp = 1.0 - x
    a = [1.0]
    b = [0.0]
    for i in range(1, method.m + 1):
        row = method.alpha[i]
        a.append(method.v[i] + damp * math.fsum(row[j] * a[j] for j in range(i)))
        b.append(1.0 - method.v[i] + damp * math.fsum(row[j] * b[j] for j in range(i)))
    return a, b


def gamma_coefficients(method: ShuOsherForm) -> list[list[float]]:
    """Lower-triangular gamma_ij = alpha_ij + sum_{k=j+1}^{i-1} alpha_ik gamma_kj.

    Row i gives the weights with which stage recruitment enters the total
    population at stage i+1 (0-indexed rows over all m+1 stages).
    """
    n = method.m + 1
    gamma = [[0.0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i):
            gamma[i][j] = method.alpha[i][j] + math.fsum(
                method.alpha[i][k] * gamma[k][j] for k in range(j + 1, i)
            )
    return gamma


# ---------------------------------------------------------------------------
# the recruitment limit
# ---------------------------------------------------------------------------


def check_limit(
    traj: Trajectory, p_target: float, mu: float, window: Optional[int] = None
) -> float:
    """Max |N_k - p_target/mu| over the trailing window (default: last 10%)."""
    if not mu > 0.0:
        raise ValueError("limit check requires mu > 0")
    n = len(traj)
    if window is None:
        window = max(1, n // 10)
    if window < 1:
        raise ValueError(f"window must be at least 1, got {window}")
    if window > n:
        raise ValueError(f"window {window} longer than trajectory {n}")
    target = p_target / mu
    gaps = [abs(x - target) for x in traj.populations[n - window :]]
    return math.nan if any(g != g for g in gaps) else max(gaps)
