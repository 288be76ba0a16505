"""SEIR right-hand side plus the incidence and recruitment function catalogs.

The model is

    S' = pi(t) - mu*S - f(I)*S
    E' = f(I)*S - (mu + sigma)*E
    I' = sigma*E - (mu + gamma)*I + delta*R
    R' = gamma*I - (mu + delta)*R

where ``f`` is a force-of-infection function (f(0) = 0, f >= 0 on the
non-negative axis, |f(x)| <= alpha*|x|) and ``pi`` a continuous recruitment
rate bounded by a constant K >= 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

__all__ = [
    "ModelParams",
    "State",
    "RateFunction",
    "ProblemSetup",
    "INCIDENCE_KEYS",
    "RECRUITMENT_KEYS",
    "incidence_from_key",
    "recruitment_from_key",
    "rhs",
    "sup_incidence",
    "recruitment_sup",
    "linear_incidence",
    "holling_incidence",
    "media_incidence",
    "media_exp_incidence",
    "custom_incidence",
    "choice_a_recruitment",
    "choice_b_recruitment",
    "choice_c_recruitment",
    "constant_recruitment",
    "counterexample_cosine_recruitment",
    "custom_recruitment",
]


def _require_finite(name: str, value: float) -> float:
    value = float(value)
    if not math.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value!r}")
    return value


def _round_out(value: float) -> float:
    """A closed-form maximum evaluated in floats, raised by a few ulps.

    Rounding in ``fn`` lets a sample next to the maximiser come out a few
    ulps (3 seen) above ``fn`` at the maximiser; the factor adds 16 or more.
    """
    return value * (1.0 + 2.0**-48)


@dataclass(frozen=True)
class ModelParams:
    """Rate constants of the model, all non-negative and finite (1/time)."""

    mu: float
    sigma: float
    gamma: float
    delta: float

    def __post_init__(self) -> None:
        for name in ("mu", "sigma", "gamma", "delta"):
            value = _require_finite(name, getattr(self, name))
            if value < 0.0:
                raise ValueError(f"{name} must be non-negative, got {value}")
            object.__setattr__(self, name, value)


@dataclass(frozen=True)
class State:
    """Compartment values (S, E, I, R) at time ``t``."""

    s: float
    e: float
    i: float
    r: float
    t: float = 0.0

    @property
    def total(self) -> float:
        """Total population N = S + E + I + R."""
        return self.s + self.e + self.i + self.r

    @property
    def admissible(self) -> bool:
        """True iff every compartment is non-negative."""
        return self.s >= 0.0 and self.e >= 0.0 and self.i >= 0.0 and self.r >= 0.0

    def as_tuple(self) -> tuple[float, float, float, float]:
        return (self.s, self.e, self.i, self.r)


@dataclass(frozen=True, eq=False)
class RateFunction:
    """A catalog entry: a force of infection ``x -> f(x)`` or a recruitment
    rate ``t -> pi(t)``.

    ``sup(hi)`` is a closed-form upper bound of ``fn`` over [0, hi]; every
    entry must state one.  ``alpha`` is an incidence's linear-bound constant
    of |f(x)| <= alpha*|x|; it is None for every recruitment and for
    incidences kept only for comparison, which are outside the certified
    guarantees.  Instances compare and hash by identity, since the
    parameters live in ``fn``.  ``fn`` must be pure: the steppers evaluate a
    recruitment once per distinct stage time within a step and reuse the
    value.
    """

    key: str
    fn: Callable[[float], float]
    sup: Callable[[float], float]
    alpha: Optional[float] = None

    def __call__(self, x: float) -> float:
        return self.fn(x)


@dataclass(frozen=True)
class ProblemSetup:
    """A fully specified integration problem."""

    params: ModelParams
    incidence: RateFunction
    recruitment: RateFunction
    x0: State


# ---------------------------------------------------------------------------
# incidence catalog
# ---------------------------------------------------------------------------


def linear_incidence() -> RateFunction:
    """f(x) = x."""
    return RateFunction("linear", lambda x: x, alpha=1.0, sup=lambda hi: hi)


def holling_incidence(c1: float, c2: float, k: float) -> RateFunction:
    """Holling-type saturating force of infection f(x) = c1*x / (1 + c2*|x|**k).

    The absolute value keeps f real when a probe drives x below zero with a
    fractional exponent; for x >= 0 it is the textbook form.
    """
    c1 = _require_finite("c1", c1)
    c2 = _require_finite("c2", c2)
    k = _require_finite("k", k)
    if c1 < 0.0 or c2 < 0.0 or k < 0.0:
        raise ValueError("Holling parameters must be non-negative")

    def fn(x: float) -> float:
        return c1 * x / (1.0 + c2 * abs(x) ** k)

    # f increases up to x* = (c2*(k-1))**(-1/k) and decreases afterwards;
    # for c2 = 0 or k <= 1 it increases throughout
    x_star = (c2 * (k - 1.0)) ** (-1.0 / k) if c2 > 0.0 and k > 1.0 else math.inf

    def sup(hi: float) -> float:
        return _round_out(fn(min(hi, x_star)))

    return RateFunction("holling", fn, alpha=c1, sup=sup)


def media_incidence(nu: float, eta: float) -> RateFunction:
    """Media-effect force of infection f(x) = nu * exp(-eta*x) * x."""
    nu = _require_finite("nu", nu)
    eta = _require_finite("eta", eta)
    if nu < 0.0 or eta < 0.0:
        raise ValueError("media parameters must be non-negative")

    def fn(x: float) -> float:
        return nu * math.exp(-eta * x) * x

    def sup(hi: float) -> float:
        # f increases up to x = 1/eta and decreases afterwards
        xm = hi if (eta == 0.0 or hi <= 1.0 / eta) else 1.0 / eta
        return _round_out(fn(xm))

    return RateFunction("media", fn, alpha=nu, sup=sup)


def media_exp_incidence(nu: float, eta: float) -> RateFunction:
    """The bare exponential g(x) = nu * exp(-eta*x) without the factor x.

    g(0) = nu != 0, so this entry is not a valid force of infection; it is
    kept in the catalog only so that the two readings of the experiment
    incidence can be compared.  ``alpha`` is None accordingly.  Its sup is
    g(0) = nu, which needs eta >= 0.
    """
    nu = _require_finite("nu", nu)
    eta = _require_finite("eta", eta)
    if nu < 0.0 or eta < 0.0:
        raise ValueError("media parameters must be non-negative")

    def fn(x: float) -> float:
        return nu * math.exp(-eta * x)

    return RateFunction("media-exp", fn, sup=lambda hi: nu)


def custom_incidence(
    fn: Callable[[float], float],
    alpha: float,
    hi: float = 1e3,
    n_check: int = 10_001,
) -> RateFunction:
    """Wrap a user function after validating f(0)=0, f>=0 and f <= alpha*x on a
    grid; its sup over [0, hi] is the declared linear bound alpha*hi."""
    alpha = _require_finite("alpha", alpha)
    if alpha < 0.0:
        raise ValueError("alpha must be non-negative")
    if abs(fn(0.0)) > 1e-12:
        raise ValueError(f"custom incidence must satisfy f(0)=0, got f(0)={fn(0.0)!r}")
    for x in np.linspace(0.0, hi, n_check):
        y = fn(float(x))
        if y < -1e-12:
            raise ValueError(f"custom incidence negative at x={x}: f(x)={y}")
        if y > alpha * x + 1e-12:
            raise ValueError(
                f"custom incidence violates declared linear bound at x={x}: "
                f"f(x)={y} > alpha*x={alpha * x}"
            )
    return RateFunction("custom", fn, alpha=alpha, sup=lambda hi: alpha * hi)


INCIDENCE_KEYS = ("linear", "holling", "media", "media-exp")


def incidence_from_key(
    key: str,
    *,
    nu: float = 0.0115,
    eta: float = 0.001,
    c1: float = 1.0,
    c2: float = 1.0,
    k: float = 2.0,
) -> RateFunction:
    """Catalog lookup by string key for CLI/config use."""
    if key == "linear":
        return linear_incidence()
    if key == "holling":
        return holling_incidence(c1, c2, k)
    if key == "media":
        return media_incidence(nu, eta)
    if key == "media-exp":
        return media_exp_incidence(nu, eta)
    raise KeyError(f"unknown incidence key {key!r}; known: {INCIDENCE_KEYS}")


# ---------------------------------------------------------------------------
# recruitment catalog
# ---------------------------------------------------------------------------


# max of 2/pi*atan(t) + sin(t)/t over t >= 0, 1.341736984114146826... at
# t ~ 1.0312, rounded up; for t >= 3 the function is below 1 + 1/t <= 4/3
_CHOICE_A_MAX = 1.341736984114147


def _require_kappa(kappa: float) -> float:
    kappa = _require_finite("kappa", kappa)
    if kappa < 0.0:
        raise ValueError(f"kappa must be non-negative, got {kappa}")
    return kappa


def choice_a_recruitment(kappa: float) -> RateFunction:
    """pi(t) = kappa * (2/pi * arctan(t) + sin(t)/t), with sin(t)/t := 1 at t=0;
    bounded by kappa * _CHOICE_A_MAX on every horizon."""
    kappa = _require_kappa(kappa)

    def fn(t: float) -> float:
        sinc = 1.0 if t == 0.0 else math.sin(t) / t
        return kappa * (2.0 / math.pi * math.atan(t) + sinc)

    return RateFunction("choiceA", fn, sup=lambda horizon: kappa * _CHOICE_A_MAX)


def choice_b_recruitment(kappa: float) -> RateFunction:
    """pi(t) = kappa * (1/pi * arctan(t) + 1/2); sup is the limit kappa."""
    kappa = _require_kappa(kappa)

    def fn(t: float) -> float:
        return kappa * (math.atan(t) / math.pi + 0.5)

    return RateFunction("choiceB", fn, sup=lambda horizon: kappa)


def choice_c_recruitment(kappa: float) -> RateFunction:
    """pi(t) = kappa * (-t*exp(-t) + 1); bounded by kappa, attained at t=0."""
    kappa = _require_kappa(kappa)

    def fn(t: float) -> float:
        return kappa * (-t * math.exp(-t) + 1.0)

    return RateFunction("choiceC", fn, sup=lambda horizon: kappa)


def constant_recruitment(p: float) -> RateFunction:
    """pi(t) = p."""
    p = _require_finite("p", p)
    if p < 0.0:
        raise ValueError("constant recruitment must be non-negative")
    return RateFunction("const", lambda t: p, sup=lambda horizon: p)


def counterexample_cosine_recruitment() -> RateFunction:
    """pi(t) = -cos(2*pi*t) + 1, the oscillating counterexample with K = 2."""

    def fn(t: float) -> float:
        return -math.cos(2.0 * math.pi * t) + 1.0

    return RateFunction("cex-cos", fn, sup=lambda horizon: 2.0)


def custom_recruitment(
    fn: Callable[[float], float],
    bound: float,
    horizon: float = 1e3,
    n_check: int = 10_001,
) -> RateFunction:
    """Wrap a user recruitment after validating 0 <= pi(t) <= bound on a grid.

    ``fn`` must be pure (no state, no side effects): a step evaluates it once
    per distinct stage time, so stages at equal times share one value.
    """
    bound = _require_finite("bound", bound)
    if bound < 0.0:
        raise ValueError("bound must be non-negative")
    for t in np.linspace(0.0, horizon, n_check):
        y = fn(float(t))
        if y < -1e-12 or y > bound + 1e-12:
            raise ValueError(
                f"custom recruitment leaves [0, {bound}] at t={t}: pi(t)={y}"
            )
    return RateFunction("custom", fn, sup=lambda horizon: bound)


RECRUITMENT_KEYS = ("choiceA", "choiceB", "choiceC", "const", "cex-cos")


def recruitment_from_key(
    key: str, *, kappa: float = 0.05
) -> RateFunction:
    """Catalog lookup by string key for CLI/config use; ``kappa`` is the
    recruitment level of every keyed entry but ``cex-cos``."""
    if key == "choiceA":
        return choice_a_recruitment(kappa)
    if key == "choiceB":
        return choice_b_recruitment(kappa)
    if key == "choiceC":
        return choice_c_recruitment(kappa)
    if key == "const":
        return constant_recruitment(kappa)
    if key == "cex-cos":
        return counterexample_cosine_recruitment()
    raise KeyError(f"unknown recruitment key {key!r}; known: {RECRUITMENT_KEYS}")


# ---------------------------------------------------------------------------
# right-hand side
# ---------------------------------------------------------------------------


def rhs(
    t: float,
    x: State,
    p: ModelParams,
    f: RateFunction,
    pi: RateFunction,
) -> tuple[float, float, float, float]:
    """Evaluate the four-component derivative of the model at (t, x).

    The components sum to pi(t) - mu*N by construction (internal flows
    cancel algebraically).
    """
    for name, value in (("t", t), ("s", x.s), ("e", x.e), ("i", x.i), ("r", x.r)):
        if not math.isfinite(value):
            raise ValueError(f"non-finite input {name}={value!r}")
    # stepping's generated kernel inlines these expressions in this order
    s, e, i, r = x.s, x.e, x.i, x.r
    inc = f.fn(i) * s
    pi_t = pi.fn(t)
    return (
        pi_t - p.mu * s - inc,
        inc - (p.mu + p.sigma) * e,
        p.sigma * e - (p.mu + p.gamma) * i + p.delta * r,
        p.gamma * i - (p.mu + p.delta) * r,
    )


# ---------------------------------------------------------------------------
# suprema
# ---------------------------------------------------------------------------


def sup_incidence(f: RateFunction, hi: float) -> float:
    """sup of f over [0, hi], the entry's closed form."""
    hi = float(hi)
    if not math.isfinite(hi) or hi < 0.0:
        raise ValueError(f"upper bound must be finite and non-negative, got {hi}")
    return f.sup(hi)


def recruitment_sup(pi: RateFunction, horizon: float) -> float:
    """Upper bound K with pi(t) <= K on [0, horizon], the entry's closed form."""
    horizon = float(horizon)
    if not horizon > 0.0:
        raise ValueError(f"horizon must be positive, got {horizon}")
    return pi.sup(horizon)
