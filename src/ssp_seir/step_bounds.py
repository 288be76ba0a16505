"""Theoretical step-size and population bounds, plus the stage-coefficient
recurrences used in the boundedness arguments.

The Euler positivity bound is the a priori form

    dt* = min{ 1/(mu+B), 1/(mu+sigma), 1/(mu+gamma), 1/(mu+delta) }

with B = sup f over [0, N0 + K/mu]; an SSP method with coefficient C admits
tau <= C * dt*.  The A_i/B_i recurrences and the gamma_ij expansion express
how total population propagates through the stages and are exposed here so
the identities they satisfy can be tested directly against the integrator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .model import ModelParams, ProblemSetup, recruitment_sup, sup_incidence
from .shu_osher import ShuOsherForm

__all__ = [
    "EulerBound",
    "PopulationCap",
    "BoundReport",
    "euler_step_bound",
    "rk_step_bound",
    "population_cap",
    "ab_coefficients",
    "gamma_coefficients",
    "bound_report",
]

_TERM_NAMES = ("incidence", "sigma", "gamma", "delta")


@dataclass(frozen=True)
class EulerBound:
    """Euler positivity step bound with the term that attains the min."""

    dt_star: float
    binding_term: str
    unbounded: bool = False  # all four denominators were zero


@dataclass(frozen=True)
class PopulationCap:
    """Discrete population bound N^k <= cap (mu > 0) or the linear envelope.

    For mu = 0 the cap is infinite and ``growth_rate`` is the K of the
    envelope N^n <= N^0 + n * tau * K: each step adds (tau/C) times the
    final gamma row's weighted recruitment, and that row sums to C.
    """

    cap: float
    growth_rate: float
    n0: float
    mu: float


@dataclass(frozen=True)
class BoundReport:
    """Step-size bound summary for one method on one problem setup."""

    method: str
    dt_star: float
    tau_method: float
    pop_cap: float
    b_sup: float
    k_sup: float
    binding_term: str


def euler_step_bound(p: ModelParams, b_sup: float) -> EulerBound:
    """Minimum of the four reciprocal rates, treating 1/0 as infinity."""
    b_sup = float(b_sup)
    if not b_sup >= 0.0:
        raise ValueError(f"b_sup must be non-negative, got {b_sup}")
    denominators = (
        p.mu + b_sup,
        p.mu + p.sigma,
        p.mu + p.gamma,
        p.mu + p.delta,
    )
    values = [1.0 / d if d > 0.0 else math.inf for d in denominators]
    dt_star = min(values)
    if math.isinf(dt_star):
        return EulerBound(math.inf, "none", unbounded=True)
    return EulerBound(dt_star, _TERM_NAMES[values.index(dt_star)])


def rk_step_bound(p: ModelParams, b_sup: float, method: ShuOsherForm) -> float:
    """tau bound C * dt* for an SSP method with known coefficient."""
    if method.ssp_c is None:
        raise ValueError("method carries no SSP coefficient")
    return method.ssp_c * euler_step_bound(p, b_sup).dt_star


def population_cap(n0: float, k_sup: float, mu: float) -> PopulationCap:
    """N^0 + K/mu for mu > 0; infinite cap with linear growth rate K for mu = 0."""
    n0 = float(n0)
    k_sup = float(k_sup)
    mu = float(mu)
    if n0 < 0.0 or k_sup < 0.0 or mu < 0.0:
        raise ValueError("n0, k_sup and mu must be non-negative")
    if k_sup == 0.0:
        return PopulationCap(n0, 0.0, n0, mu)
    if mu == 0.0:
        return PopulationCap(math.inf, k_sup, n0, mu)
    return PopulationCap(n0 + k_sup / mu, k_sup, n0, mu)


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


def bound_report(
    setup: ProblemSetup, method: ShuOsherForm, horizon: float
) -> BoundReport:
    """Assemble the a priori bound chain K -> cap -> B -> dt* for one setup."""
    k_sup = recruitment_sup(setup.recruitment, horizon)
    cap = population_cap(setup.x0.total, k_sup, setup.params.mu)
    # with mu = 0 the population obeys only the linear envelope; bound the
    # incidence sup over the largest population reachable within the horizon
    hi = cap.cap if math.isfinite(cap.cap) else cap.n0 + k_sup * horizon
    b_sup = sup_incidence(setup.incidence, hi)
    eb = euler_step_bound(setup.params, b_sup)
    return BoundReport(
        method=method.key or "?",
        dt_star=eb.dt_star,
        tau_method=rk_step_bound(setup.params, b_sup, method),
        pop_cap=cap.cap,
        b_sup=b_sup,
        k_sup=k_sup,
        binding_term=eb.binding_term,
    )
