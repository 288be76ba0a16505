"""SEIR right-hand side plus the incidence and recruitment function catalogs.

The model is

    S' = pi(t) - mu*S - f(I)*S
    E' = f(I)*S - (mu + sigma)*E
    I' = sigma*E - (mu + gamma)*I + delta*R
    R' = gamma*I - (mu + delta)*R

where ``f`` is a force-of-infection function (f(0) = 0, f >= 0 on the
non-negative axis, |f(x)| <= alpha*|x|) and ``pi`` a continuous recruitment
rate with ``0 <= pi(t) <= K`` for ``t >= 0``, K a constant: the positivity
bounds need both sides, pi >= 0 so that no compartment is drained by it
and pi <= K for the population cap N0 + K/mu.  Every catalog entry with
non-negative parameters meets it.
"""

import functools
import math
import sys
from collections.abc import Callable, Iterable, Mapping
from types import MappingProxyType

__all__ = [
    "ModelParams",
    "State",
    "RateFunction",
    "FORMULA_NAMESPACE",
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
    "choice_a_recruitment",
    "choice_b_recruitment",
    "choice_c_recruitment",
    "constant_recruitment",
    "counterexample_cosine_recruitment",
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


def _immutable(self, name: str, *value: object) -> None:
    """``__setattr__`` and ``__delattr__`` of a type whose instances never change."""
    raise AttributeError(f"{type(self).__name__} is immutable: cannot set or delete {name!r}")


class _Value:
    """Base of the package's immutable records.

    A subclass lists its fields in ``__slots__``, and that is its
    constructor: it takes one value per slot, in slot order, positionally,
    and raises TypeError when their number is wrong.  A subclass with a rule
    for its values (a check, a default or a derived field) has its own
    constructor, which hands the final values to :meth:`_set`; a field it
    derives comes last, and ``__reduce__`` leaves it out.  Instances compare
    and hash by the values of their fields, and a copy, an unpickled
    instance or one made by :meth:`_replace`, the one keyword path, goes
    through the constructor, so it is validated anew.
    """

    __slots__ = ("_hash",)
    __setattr__ = __delattr__ = _immutable

    def _set(self, *values: object) -> None:
        """Set the fields, one value per slot in slot order, and the cached hash."""
        if len(values) != len(self.__slots__):
            raise TypeError(
                f"{type(self).__name__} takes {len(self.__slots__)} values, got {len(values)}"
            )
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)
        # cached because every integrate call hashes its form for the kernel
        # cache; a subclass that hashes by identity may hold unhashable fields
        value_hash = hash(values) if type(self).__hash__ is _Value.__hash__ else None
        object.__setattr__(self, "_hash", value_hash)

    __init__ = _set

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def _replace(self, **changes: object) -> "_Value":
        """A copy with the named fields changed, made by the constructor."""
        values = tuple(map(changes.pop, self.__slots__, self.__reduce__()[1]))
        if changes:
            raise TypeError(f"{type(self).__name__} has no field {', '.join(map(repr, changes))}")
        return type(self)(*values)

    def __eq__(self, other: object) -> bool:
        return type(other) is type(self) and self._values() == other._values()

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self) -> tuple:
        return type(self), self._values()

    def __repr__(self) -> str:
        fields = ", ".join(map("{}={!r}".format, self.__slots__, self._values()))
        return f"{type(self).__name__}({fields})"


def _require_nonnegative(name: str, value: float) -> float:
    value = _require_finite(name, value)
    if value < 0.0:
        raise ValueError(f"{name} must be non-negative, got {value}")
    return value


class ModelParams(_Value):
    """Rate constants of the model, all non-negative and finite (1/time).
    Immutable; equal rates compare and hash equal."""

    __slots__ = ("mu", "sigma", "gamma", "delta")

    def __init__(self, mu: float, sigma: float, gamma: float, delta: float) -> None:
        self._set(*map(_require_nonnegative, self.__slots__, (mu, sigma, gamma, delta)))


class State(_Value):
    """Compartment values (S, E, I, R) at time ``t``."""

    __slots__ = ("s", "e", "i", "r", "t")

    def __init__(self, s: float, e: float, i: float, r: float, t: float = 0.0) -> None:
        self._set(s, e, i, r, t)

    @property
    def total(self) -> float:
        """Total population N = S + E + I + R."""
        return self.s + self.e + self.i + self.r


# The names a formula may read besides ``x`` and its parameters; the step
# kernel runs in a namespace holding the same names.
FORMULA_NAMESPACE = {
    "exp": math.exp, "sin": math.sin, "cos": math.cos, "atan": math.atan,
    "abs": abs, "pi": math.pi,
}


class RateFunction(_Value):
    """A catalog entry: a force of infection ``x -> f(x)`` or a recruitment
    rate ``t -> pi(t)``, given as a formula and its parameters.

    ``formula`` is a Python expression over the argument ``x``, the names in
    ``params`` and those of :data:`FORMULA_NAMESPACE`; it must read each
    parameter and no other name, or the constructor raises ValueError.
    ``fn`` is compiled from it, a closure over the parameters (so a copy
    compiles its own), and the step kernel pastes it in place of a call.
    ``params``, the read-only mapping the kernel binds, may hold a callable:
    ``RateFunction("mine", "fn(x)", sup, {"fn": g})`` evaluates ``g``.

    ``sup(hi)`` is a closed-form upper bound of ``fn`` over [0, hi]; every
    entry must state one, and no library code checks it.  ``alpha`` is an
    incidence's linear-bound constant of |f(x)| <= alpha*|x|; it is None for
    every recruitment and for incidences kept only for comparison, which are
    outside the certified guarantees.  Instances are immutable and compare
    and hash by identity.  ``fn`` must be pure: the steppers evaluate a
    recruitment once per distinct stage time within a step and reuse it.
    """

    __slots__ = ("key", "formula", "sup", "params", "alpha", "fn")
    __eq__, __hash__ = object.__eq__, object.__hash__

    def __init__(
        self, key: str, formula: str, sup: Callable[[float], float],
        params: Mapping[str, object] | Iterable[tuple[str, object]] = (),
        alpha: float | None = None,
    ) -> None:
        params = MappingProxyType(dict(params))
        names, make = _formula_factory(formula)
        if names != params.keys():
            raise ValueError(f"entry {key!r}: formula {formula!r} and its params differ in "
                             + ", ".join(sorted(names ^ params.keys())))
        self._set(key, formula, sup, params, alpha, make(**params))

    def __reduce__(self) -> tuple:
        return type(self), (self.key, self.formula, self.sup, dict(self.params), self.alpha)

    def __call__(self, x: float) -> float:
        return self.fn(x)


@functools.cache
def _formula_factory(formula: str) -> tuple[frozenset[str], Callable]:
    """``(names, make)``: the names ``formula`` reads besides ``x`` and
    :data:`FORMULA_NAMESPACE`, and ``make(**values)``, returning ``fn(x) =
    formula`` as a closure over those names.  Compiled once per formula."""
    import ast  # not at the top: a start-up that builds no entry saves about 1 ms
    tree = ast.parse(formula, mode="eval")
    names = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    names = frozenset(names - FORMULA_NAMESPACE.keys() - {"x"})
    # a lambda binds no name, so a parameter may be called fn
    source = f"def make({', '.join(sorted(names))}):\n    return lambda x: {formula}"
    namespace = dict(FORMULA_NAMESPACE)
    exec(compile(source, f"<formula {formula}>", "exec"), namespace)
    return names, namespace["make"]


class ProblemSetup(_Value):
    """A fully specified integration problem."""

    __slots__ = ("params", "incidence", "recruitment", "x0")


# ---------------------------------------------------------------------------
# incidence catalog
# ---------------------------------------------------------------------------


def linear_incidence() -> RateFunction:
    """f(x) = x."""
    return RateFunction("linear", "x", lambda hi: hi, alpha=1.0)


def holling_incidence(c1: float, c2: float, k: float) -> RateFunction:
    """Holling-type saturating force of infection f(x) = c1*x / (1 + c2*|x|**k).

    The absolute value keeps f real when a probe drives x below zero with a
    fractional exponent; for x >= 0 it is the textbook form.
    """
    c1 = _require_nonnegative("c1", c1)
    c2 = _require_nonnegative("c2", c2)
    k = _require_nonnegative("k", k)

    # f increases up to x* = (c2*(k-1))**(-1/k) and decreases afterwards;
    # for c2 = 0 or k <= 1 it increases throughout.  A product below the
    # normal range, which has lost precision or underflowed to 0, is taken
    # in logs; an x* beyond the double range is inf
    x_star = math.inf
    if c2 > 0.0 and k > 1.0:
        product = c2 * (k - 1.0)
        if product >= sys.float_info.min:
            x_star = product ** (-1.0 / k)
        else:
            log_x_star = -(math.log(c2) + math.log(k - 1.0)) / k
            x_star = math.exp(log_x_star) if log_x_star < math.log(sys.float_info.max) else math.inf

    def sup(hi: float) -> float:
        return _round_out(entry.fn(min(hi, x_star)))

    entry = RateFunction(
        "holling", "c1 * x / (1.0 + c2 * abs(x) ** k)", sup,
        {"c1": c1, "c2": c2, "k": k}, alpha=c1,
    )
    return entry


def media_incidence(nu: float, eta: float) -> RateFunction:
    """Media-effect force of infection f(x) = nu * exp(-eta*x) * x."""
    nu = _require_nonnegative("nu", nu)
    eta = _require_nonnegative("eta", eta)

    def sup(hi: float) -> float:
        # f increases up to x = 1/eta and decreases afterwards
        xm = hi if (eta == 0.0 or hi <= 1.0 / eta) else 1.0 / eta
        return _round_out(entry.fn(xm))

    entry = RateFunction("media", "nu * exp(-eta * x) * x", sup, {"nu": nu, "eta": eta}, alpha=nu)
    return entry


def media_exp_incidence(nu: float, eta: float) -> RateFunction:
    """The bare exponential g(x) = nu * exp(-eta*x) without the factor x.

    g(0) = nu != 0, so this entry is not a valid force of infection; it is
    kept in the catalog only so that the two readings of the experiment
    incidence can be compared.  ``alpha`` is None accordingly.  Its sup is
    g(0) = nu, which needs eta >= 0.
    """
    nu = _require_nonnegative("nu", nu)
    eta = _require_nonnegative("eta", eta)

    return RateFunction("media-exp", "nu * exp(-eta * x)", lambda hi: nu, {"nu": nu, "eta": eta})


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


def choice_a_recruitment(kappa: float) -> RateFunction:
    """pi(t) = kappa * (2/pi * arctan(t) + sin(t)/t), with sin(t)/t := 1 at t=0;
    bounded by kappa * _CHOICE_A_MAX on every horizon."""
    kappa = _require_nonnegative("kappa", kappa)

    return RateFunction(
        "choiceA", "kappa * (2.0 / pi * atan(x) + (1.0 if x == 0.0 else sin(x) / x))",
        lambda horizon: kappa * _CHOICE_A_MAX, {"kappa": kappa},
    )


def choice_b_recruitment(kappa: float) -> RateFunction:
    """pi(t) = kappa * (1/pi * arctan(t) + 1/2); sup is the limit kappa."""
    kappa = _require_nonnegative("kappa", kappa)

    return RateFunction(
        "choiceB", "kappa * (atan(x) / pi + 0.5)", lambda horizon: kappa, {"kappa": kappa}
    )


def choice_c_recruitment(kappa: float) -> RateFunction:
    """pi(t) = kappa * (-t*exp(-t) + 1); bounded by kappa, attained at t=0."""
    kappa = _require_nonnegative("kappa", kappa)

    return RateFunction(
        "choiceC", "kappa * (-x * exp(-x) + 1.0)", lambda horizon: kappa, {"kappa": kappa}
    )


def constant_recruitment(p: float) -> RateFunction:
    """pi(t) = p."""
    p = _require_nonnegative("p", p)
    return RateFunction("const", "p", lambda horizon: p, {"p": p})


def counterexample_cosine_recruitment() -> RateFunction:
    """pi(t) = -cos(2*pi*t) + 1, the oscillating counterexample with K = 2."""
    return RateFunction("cex-cos", "-cos(2.0 * pi * x) + 1.0", lambda horizon: 2.0)


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
    # the derivative itself; stepping's generated kernel does not compute it
    # but each Euler sub-step x + h*rhs in the paper's positivity form, with
    # the coefficients 1 - h*(mu + rate) (see ssp_seir.stepping)
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
    """sup of f over [0, hi], the entry's closed form; a ValueError where it
    overflows the double range, as Holling's ``abs(x) ** k`` can."""
    hi = float(hi)
    if not math.isfinite(hi) or hi < 0.0:
        raise ValueError(f"upper bound must be finite and non-negative, got {hi}")
    try:
        return f.sup(hi)
    except OverflowError:
        raise ValueError(f"sup of incidence {f.key!r} over [0, {hi!r}] overflows") from None


def recruitment_sup(pi: RateFunction, horizon: float) -> float:
    """Upper bound K with pi(t) <= K on [0, horizon], the entry's closed form."""
    horizon = float(horizon)
    if not horizon > 0.0:
        raise ValueError(f"horizon must be positive, got {horizon}")
    return pi.sup(horizon)
