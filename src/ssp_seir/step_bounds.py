"""Theoretical step-size and population bounds.

The Euler positivity bound is the a priori form

    dt* = min{ 1/(mu+B), 1/(mu+sigma), 1/(mu+gamma), 1/(mu+delta) }

with B = sup f over the population cap [0, N0 + K/mu] (for mu = 0, the
linear envelope's [0, N0 + K*t_f]); an SSP method with coefficient C admits
tau <= C * dt*.  :func:`positivity_certificate` checks that guarantee in
the step kernel's own floats for one run, so that the threshold search can
skip the probe it decides.  The A_i/B_i recurrences and the gamma_ij
expansion of the boundedness argument, which no command runs, are
test-side oracles (``tests/oracles.py``).
"""

import math
import sys
from typing import Optional

from .model import (
    ModelParams,
    ProblemSetup,
    _Value,
    incidence_from_key,
    recruitment_from_key,
    recruitment_sup,
    sup_incidence,
)
from .shu_osher import ShuOsherForm
from .stepping import STEP_LIMIT, sub_step_coefficients

__all__ = [
    "EulerBound",
    "BoundReport",
    "euler_step_bound",
    "population_cap",
    "bound_report",
    "positivity_certificate",
]

_TERM_NAMES = ("incidence", "sigma", "gamma", "delta")


class EulerBound(_Value):
    """Euler positivity step bound and the term attaining the min ("none" if none)."""

    __slots__ = ("dt_star", "binding_term")

    def __init__(self, dt_star: float, binding_term: str) -> None:
        self._set(dt_star, binding_term)


class BoundReport(_Value):
    """Step-size bound summary for one method on one problem setup: ``dt_star``,
    ``tau_method`` (C * dt*), ``pop_cap``, ``b_sup``, ``k_sup`` and the
    ``binding_term`` of :class:`EulerBound`.  It does not name the method."""

    __slots__ = ("dt_star", "tau_method", "pop_cap", "b_sup", "k_sup", "binding_term")

    def __init__(
        self, dt_star: float, tau_method: float, pop_cap: float, b_sup: float, k_sup: float,
        binding_term: str,
    ) -> None:
        self._set(dt_star, tau_method, pop_cap, b_sup, k_sup, binding_term)


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
        dt_star=eb.dt_star,
        tau_method=method.ssp_c * eb.dt_star,
        pop_cap=cap,
        b_sup=b_sup,
        k_sup=k_sup,
        binding_term=eb.binding_term,
    )


_EPS = sys.float_info.epsilon
# a population bound below it would not dwarf the absolute error, at most
# 2**-1075, of a product that underflows
_TINY = 2.0**-1000


def positivity_certificate(
    setup: ProblemSetup, method: ShuOsherForm, tau: float, t_f: float,
) -> Optional[float]:
    """Prove, in the step kernel's own floats, that integrating ``setup``
    with ``method`` at step ``tau`` for ``n = ceil(t_f/tau)`` steps keeps
    every stage value ``>= 0.0``.  Returns the widened cap ``W``, which
    bounds the population of every stage of that run, or None when any of
    these conditions fails:

    * ``mu > 0``, so that the cap ``N0 + K/mu`` is finite.
    * The incidence and the recruitment are catalog entries with valid,
      so non-negative, parameters: each is rebuilt from its key and
      parameters by :func:`~ssp_seir.model.incidence_from_key` or
      :func:`~ssp_seir.model.recruitment_from_key` and must have the same
      formula and parameters.  K and B are read from the rebuilt entries'
      closed forms, never from a ``sup`` the caller declares.  The
      incidence has ``alpha``, which declines ``media-exp``.
    * ``x0`` is finite and non-negative, with ``t0 >= 0``.
    * Every ``v_i``, ``alpha_ij`` and abscissa of the form is ``>= 0``, so
      every recruitment argument is ``>= 0``; the largest, about
      ``t0 + n*tau*max(1, c_j)``, is finite with a factor 2 to spare, and
      ``n`` is below ``STEP_LIMIT``.
    * With ``h = tau/r``, each of ``c_e``, ``c_i`` and ``c_r`` is ``>= 0``
      as :func:`~ssp_seir.stepping.sub_step_coefficients` computes it for
      the kernel, bit for bit.
    * ``cap = N0 + K/mu`` is at least ``2**-1000``, and ``W`` is finite:
      ``W = cap * (rho*(1 + (13 + L)*eps))**(n*m) * (1 + 8*eps)``, with
      ``rho = max(1, max_i fsum(v_i, alpha_i0, ..., alpha_i,i-1))``, ``L``
      the largest number of non-zero terms in one stage combination and
      ``m`` the number of stages.
    * ``alpha*W`` is finite, the incidence formula evaluated at ``W`` does
      not overflow, and ``h*B_w <= c_s`` in floats, with
      ``B_w = sup f over [0, W] + 2**-1072*(1 + W)``.

    Proof, with ``u = eps/2`` and rounding to nearest (Higham, *Accuracy
    and Stability of Numerical Algorithms*, 2002, ch. 2-3).  Positivity, by
    induction over the stages: if a stage is ``>= 0`` and its population is
    at most ``W``, its ``I`` is at most ``W``, so the computed ``f(I)`` is
    at most ``B_w`` and ``hf = fl(h*f(I)) <= fl(h*B_w) <= c_s``.  Every
    coefficient of the sub-step's positivity form (:mod:`~ssp_seir.stepping`)
    is then ``>= 0``, and so are the catalog's ``f`` and ``pi`` at arguments
    ``>= 0``: the sub-step, and a stage combination of it, is a sum of
    products of non-negative floats, so ``>= 0``.

    The cap, by induction with a bound ``M >= N0 + K/mu`` on a stage's
    population ``P``.  Each coefficient that carries a compartment on
    (``c_s``, ``c_e + h_sigma``, ``c_i + h_gamma``, ``c_r + h_delta``) is at
    most ``1 - h*mu + 4u``.  Each compartment of the sub-step is a sum of
    terms each rounded at most three times, and a catalog recruitment
    evaluated in floats at ``t >= 0`` is at most ``K*(1 + 16u)`` (libm
    within an ulp, choiceA's K rounded up).  So the sub-step's population
    is at most ``(1 + 19u)*((1 - h*mu)*M + h*K) + 4u*M``, which is at most
    ``(1 + 23u)*M`` as ``(1 - h*mu)*M + h*K <= M`` for ``M >= K/mu``.  A
    stage combination rounds each of its ``L`` terms
    at most ``L`` times, and its weights sum to at most ``rho*(1 + u)``.
    With ``u`` for the rounding of the power's base, a stage raises the
    bound by at most ``(25 + L)*u = (12.5 + L/2)*eps``, which the factor's
    ``(13 + L)*eps`` covers with room for the second-order terms and for
    underflow: a product that underflows is off by at most ``2**-1075``,
    below ``2**-70*M`` per stage when ``M >= 2**-1000``.  The run has
    ``n*m`` stages after ``x0``, and ``8*eps`` covers the rounding of
    ``N0``, ``K/mu``, the power (libm ``pow`` within an ulp) and the
    products that make ``W``.

    The computed ``f`` at any ``x`` in ``[0, W]``: the catalog sups add
    ``2**-48`` relative to the formula at its maximiser
    (:func:`~ssp_seir.model.sup_incidence`), which covers the few ulps by
    which the formula in floats can exceed it elsewhere (linear is exact);
    the absolute term covers a product that underflows before it is
    multiplied by ``x``, as ``nu*exp(-eta*x)`` can; and ``alpha*W`` finite
    keeps every product of the formula finite.
    """
    p, x0 = setup.params, setup.x0
    if not p.mu > 0.0:
        return None
    # the catalog's own entries, of which only the closed-form sups are read;
    # every keyed recruitment but cex-cos has one parameter, the level kappa
    try:
        f = incidence_from_key(setup.incidence.key, **setup.incidence.params)
        pi = recruitment_from_key(
            setup.recruitment.key, **{"kappa": v for v in setup.recruitment.params.values()},
        )
    except (KeyError, TypeError, ValueError, OverflowError):
        return None
    for twin, entry in ((f, setup.incidence), (pi, setup.recruitment)):
        if twin.formula != entry.formula or twin.params != entry.params:
            return None
    if f.alpha is None:
        return None
    if not all(0.0 <= x < math.inf for x in (x0.s, x0.e, x0.i, x0.r, x0.t)):
        return None
    if min(*method.v, *map(min, method.alpha), *method.c_stage) < 0.0:
        return None
    if not (0.0 < tau < math.inf and 0.0 < t_f < math.inf):
        return None
    n = math.ceil(t_f / tau)
    horizon = x0.t + n * tau * max(1.0, *method.c_stage)
    if n >= STEP_LIMIT or not 2.0 * horizon < math.inf:
        return None
    h, c_s, c_e, c_i, c_r = sub_step_coefficients(tau, method.r, p)[:5]
    if not min(c_e, c_i, c_r) >= 0.0:
        return None
    cap = population_cap(x0.total, recruitment_sup(pi, horizon), p.mu)
    if not _TINY <= cap < math.inf:
        return None
    rows = list(zip(method.v[1:], method.alpha[1:]))
    rho = max(1.0, *(math.fsum((v, *row)) for v, row in rows))
    terms = max((v != 0.0) + sum(a != 0.0 for a in row) for v, row in rows)
    try:
        drift = (rho * (1.0 + (13 + terms) * _EPS)) ** (n * method.m)
    except OverflowError:
        return None
    widened = cap * drift * (1.0 + 8.0 * _EPS)
    if not (widened < math.inf and f.alpha * widened < math.inf):
        return None
    try:
        f.fn(widened)  # Holling's abs(x) ** k raises OverflowError
        b_w = sup_incidence(f, widened) + 2.0**-1072 * (1.0 + widened)
    except (OverflowError, ValueError):
        return None
    return widened if h * b_w <= c_s else None
