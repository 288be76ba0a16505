"""Theoretical step-size and population bounds, plus the stage-coefficient
recurrences used in the boundedness arguments.

The Euler positivity bound is the a priori form

    dt* = min{ 1/(mu+B), 1/(mu+sigma), 1/(mu+gamma), 1/(mu+delta) }

with B = sup f over the population cap [0, N0 + K/mu] (for mu = 0, the
linear envelope's [0, N0 + K*t_f]); an SSP method with coefficient C admits
tau <= C * dt*.  The A_i/B_i recurrences and the gamma_ij expansion express
how total population propagates through the stages and are exposed here so
the identities they satisfy can be tested directly against the integrator.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .model import ModelParams, ProblemSetup, recruitment_sup, sup_incidence
from .shu_osher import ShuOsherForm

__all__ = [
    "EulerBound",
    "BoundReport",
    "euler_step_bound",
    "population_cap",
    "ab_coefficients",
    "gamma_coefficients",
    "bound_report",
]

_TERM_NAMES = ("incidence", "sigma", "gamma", "delta")


class EulerBound(NamedTuple):
    """Euler positivity step bound and the term attaining the min ("none" if none)."""

    dt_star: float
    binding_term: str


class BoundReport(NamedTuple):
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
        return EulerBound(math.inf, "none")
    return EulerBound(dt_star, _TERM_NAMES[values.index(dt_star)])


def population_cap(n0: float, k_sup: float, mu: float) -> float:
    """N^0 + K/mu for mu > 0, N^0 for K = 0, and infinite for mu = 0 < K."""
    n0 = float(n0)
    k_sup = float(k_sup)
    mu = float(mu)
    if not all(0.0 <= x < math.inf for x in (n0, k_sup, mu)):  # False for NaN
        raise ValueError("n0, k_sup and mu must be finite and non-negative")
    if k_sup == 0.0:
        return n0
    if mu == 0.0:
        return math.inf
    return n0 + k_sup / mu


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
    """Assemble the a priori bound chain K -> cap -> B -> dt* for one setup.

    ``pop_cap`` caps N at every step within ``horizon``: N0 + K/mu, or for
    mu = 0 the linear envelope N^n <= N0 + n*tau*K at the horizon.  B is the
    incidence sup over [0, pop_cap]; ``tau_method`` is C * dt*.
    """
    if method.ssp_c is None:
        raise ValueError("method carries no SSP coefficient")
    k_sup = recruitment_sup(setup.recruitment, horizon)
    n0 = setup.x0.total
    cap = population_cap(n0, k_sup, setup.params.mu)
    if math.isinf(cap):
        cap = n0 + k_sup * horizon
    b_sup = sup_incidence(setup.incidence, cap)
    eb = euler_step_bound(setup.params, b_sup)
    return BoundReport(
        method=method.key or "?",
        dt_star=eb.dt_star,
        tau_method=method.ssp_c * eb.dt_star,
        pop_cap=cap,
        b_sup=b_sup,
        k_sup=k_sup,
        binding_term=eb.binding_term,
    )
