"""Right-hand side, catalog functions and the sup helpers."""

import math
import random

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from ssp_seir.model import (
    INCIDENCE_KEYS,
    RECRUITMENT_KEYS,
    ModelParams,
    RateFunction,
    State,
    choice_a_recruitment,
    choice_b_recruitment,
    choice_c_recruitment,
    constant_recruitment,
    counterexample_cosine_recruitment,
    holling_incidence,
    incidence_from_key,
    linear_incidence,
    media_exp_incidence,
    media_incidence,
    recruitment_from_key,
    recruitment_sup,
    rhs,
    sup_incidence,
)

PARAMS = ModelParams(0.05, 0.25, 0.1867, 0.011)


def test_rhs_pure_decay():
    d = rhs(
        0.0,
        State(1.0, 0.0, 0.0, 0.0),
        ModelParams(1.0, 0.0, 0.0, 0.0),
        linear_incidence(),
        constant_recruitment(0.0),
    )
    assert d == (-1.0, 0.0, 0.0, 0.0)


def test_rhs_zero_state_feeds_susceptibles_only():
    d = rhs(
        0.0,
        State(0.0, 0.0, 0.0, 0.0),
        PARAMS,
        linear_incidence(),
        constant_recruitment(0.7),
    )
    assert d == (0.7, 0.0, 0.0, 0.0)


def test_rhs_hand_evaluated_components():
    # all compartments at 1, media incidence, choice C recruitment at t=0;
    # expectation written out from the equations with no shared code
    f1 = 0.0115 * math.exp(-0.001)
    pi0 = 0.05 * (-0.0 * math.exp(-0.0) + 1.0)
    expected = (
        pi0 - 0.05 - f1,
        f1 - (0.05 + 0.25),
        0.25 - (0.05 + 0.1867) + 0.011,
        0.1867 - (0.05 + 0.011),
    )
    d = rhs(
        0.0,
        State(1.0, 1.0, 1.0, 1.0),
        PARAMS,
        media_incidence(0.0115, 0.001),
        choice_c_recruitment(0.05),
    )
    assert d == pytest.approx(expected, abs=1e-15)
    assert math.fsum(d) == pytest.approx(pi0 - 0.05 * 4.0, abs=1e-15)


def test_rhs_rejects_non_finite_input():
    with pytest.raises(ValueError, match="non-finite"):
        rhs(
            0.0,
            State(math.nan, 0.0, 0.0, 0.0),
            PARAMS,
            linear_incidence(),
            constant_recruitment(0.0),
        )


@given(
    s=st.floats(0.0, 10.0),
    e=st.floats(0.0, 10.0),
    i=st.floats(0.0, 10.0),
    r=st.floats(0.0, 10.0),
    t=st.floats(0.0, 100.0),
)
def test_rhs_components_sum_to_population_balance(s, e, i, r, t):
    pi = choice_a_recruitment(0.05)
    x = State(s, e, i, r)
    d = rhs(t, x, PARAMS, media_incidence(0.0115, 0.001), pi)
    expected = pi(t) - PARAMS.mu * x.total
    assert abs(math.fsum(d) - expected) <= 1e-12 * (1.0 + abs(x.total))


def test_model_params_validation():
    with pytest.raises(ValueError):
        ModelParams(-0.1, 0.0, 0.0, 0.0)
    with pytest.raises(ValueError):
        ModelParams(math.inf, 0.0, 0.0, 0.0)


def test_state_helpers():
    x = State(1.0, 2.0, 3.0, 4.0, t=5.0)
    assert x.total == 10.0
    assert (x.s, x.e, x.i, x.r, x.t) == (1.0, 2.0, 3.0, 4.0, 5.0)


# ---------------------------------------------------------------------------
# incidence catalog
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "f",
    [
        linear_incidence(),
        holling_incidence(1.0, 1.0, 2.0),
        media_incidence(0.0115, 0.001),
    ],
    ids=lambda f: f.key,
)
def test_catalog_incidence_conditions(f):
    assert f(0.0) == 0.0
    rng = np.random.default_rng(7)
    for x in rng.uniform(0.0, 100.0, size=10_000):
        y = f(float(x))
        assert y >= 0.0
        assert y <= f.alpha * x + 1e-12


def test_media_exp_entry_is_not_a_valid_incidence():
    g = media_exp_incidence(0.0115, 0.001)
    assert g(0.0) == 0.0115  # violates f(0)=0 on purpose
    assert g.alpha is None


@pytest.mark.parametrize("make, args, name", [
    pytest.param(media_exp_incidence, (0.0115, -0.05), "eta", id="0.0115--0.05"),
    pytest.param(media_exp_incidence, (-0.0115, 0.001), "nu", id="-0.0115-0.001"),
    pytest.param(media_incidence, (0.0115, -0.05), "eta", id="media-eta"),
    pytest.param(media_incidence, (-0.0115, 0.001), "nu", id="media-nu"),
    pytest.param(holling_incidence, (-1.0, 1.0, 2.0), "c1", id="holling-c1"),
    pytest.param(holling_incidence, (1.0, -1.0, 2.0), "c2", id="holling-c2"),
    pytest.param(holling_incidence, (1.0, 1.0, -2.0), "k", id="holling-k"),
])
def test_media_exp_rejects_negative_parameters(make, args, name):
    # with eta < 0 the function grows, and sup = nu under-estimates it:
    # nu=0.0115, eta=-0.05 gives g(10) = 0.01896 > 0.0115.  Every incidence
    # constructor names the parameter it rejects.
    with pytest.raises(ValueError, match=f"{name} must be non-negative, got -"):
        make(*args)


def test_incidence_from_key():
    assert incidence_from_key("linear").key == "linear"
    assert incidence_from_key("holling", c1=2.0).alpha == 2.0
    assert incidence_from_key("media").alpha == 0.0115
    assert incidence_from_key("media-exp").alpha is None
    with pytest.raises(KeyError):
        incidence_from_key("nope")


# ---------------------------------------------------------------------------
# suprema
# ---------------------------------------------------------------------------


def test_sup_incidence_linear():
    assert sup_incidence(linear_incidence(), 3.0) == 3.0


def test_sup_incidence_media_against_brute_force():
    f = media_incidence(0.0115, 0.001)
    # maximizer 1/eta = 1000 lies beyond hi=3, so the sup sits at hi
    expected = 3.0 * 0.0115 * math.exp(-0.003)
    got = sup_incidence(f, 3.0)
    assert got == pytest.approx(expected, rel=1e-12)
    grid = np.linspace(0.0, 3.0, 1_000_001)
    assert got >= max(f(float(x)) for x in grid[:: 1000])
    assert got == pytest.approx(float(max(0.0115 * np.exp(-0.001 * grid) * grid)), rel=1e-9)


def test_sup_incidence_holling_against_brute_force():
    f = holling_incidence(1.0, 1.0, 2.0)
    got = sup_incidence(f, 10.0)
    # calculus: max of x/(1+x^2) is 1/2 at x=1
    assert got == pytest.approx(0.5, abs=1e-6)
    assert got >= 0.5 - 1e-15
    grid = np.linspace(0.0, 10.0, 1_000_001)
    assert got >= float(max(grid / (1.0 + grid**2))) - 1e-15


def test_sup_incidence_never_underestimates():
    f = holling_incidence(2.0, 3.0, 1.5)
    hi = 7.0
    got = sup_incidence(f, hi)
    for x in np.linspace(0.0, hi, 5000):
        assert got >= f(float(x))


@pytest.mark.parametrize("c2, k", [(1e-308, 2.0), (1.5e-308, 1.5), (2e-308, 3.0)])
def test_holling_sup_with_a_subnormal_c2(c2, k):
    # c2*(k-1) below the normal range has lost precision: it is taken in
    # logs, so the sup sits at x*, where f(x*) = x*(k-1)/k
    f = holling_incidence(1.0, c2, k)
    x_star = math.exp(-(math.log(c2) + math.log(k - 1.0)) / k)
    got = sup_incidence(f, 1e300)
    assert got == pytest.approx(x_star * (k - 1.0) / k, rel=1e-12)
    assert got >= max(f(x_star * (1.0 + d)) for d in np.linspace(-1e-3, 1e-3, 2001))


def test_holling_with_a_product_that_underflows_to_zero():
    # c2*(k-1) == 0.0 used to raise ZeroDivisionError when the entry was
    # built; now x* is finite, and a sup whose x*^k overflows is the
    # ValueError of sup_incidence
    f = holling_incidence(1.0, 5e-324, 1.5)
    assert f(1e10) > 0.0
    with pytest.raises(ValueError, match="overflows"):
        sup_incidence(f, 1e300)
    assert sup_incidence(f, 1e10) == f.fn(1e10) * (1.0 + 2.0**-48)


def test_sup_incidence_rejects_bad_bound():
    with pytest.raises(ValueError):
        sup_incidence(linear_incidence(), -1.0)


def test_recruitment_sup_catalog():
    assert recruitment_sup(constant_recruitment(0.05), 10.0) == 0.05
    assert recruitment_sup(counterexample_cosine_recruitment(), 10.0) == 2.0
    assert recruitment_sup(choice_b_recruitment(0.05), 1000.0) == 0.05


def test_recruitment_sup_choice_a_grid():
    pi = choice_a_recruitment(0.05)
    k = recruitment_sup(pi, 1000.0)
    assert k <= 0.1  # both summands are bounded by 1
    for t in np.linspace(0.0, 1000.0, 100_001):
        assert pi(float(t)) <= k


def test_choice_a_removable_singularity():
    pi = choice_a_recruitment(1.0)
    assert pi(0.0) == 1.0  # sin(t)/t defined as 1 at t=0
    assert pi(1e-9) == pytest.approx(1.0, abs=1e-9)


@pytest.mark.parametrize("make, name", [
    pytest.param(make, name, id=make.__name__) for make, name in (
        (choice_a_recruitment, "kappa"),
        (choice_b_recruitment, "kappa"),
        (choice_c_recruitment, "kappa"),
        (constant_recruitment, "p"),
    )
])
def test_choice_recruitments_reject_negative_kappa(make, name):
    # the closed-form sups kappa*M and kappa hold only for kappa >= 0; every
    # recruitment constructor names the parameter it rejects
    with pytest.raises(ValueError, match=f"{name} must be non-negative, got -0.05"):
        make(-0.05)
    assert recruitment_sup(make(0.0), 10.0) == 0.0


def test_rate_function_requires_a_sup():
    with pytest.raises(TypeError):
        RateFunction("bare", "x")  # type: ignore[call-arg]


@pytest.mark.parametrize("formula, params, differ", [
    pytest.param("c1 * x", {}, "c1", id="unbound"),
    pytest.param("x", {"c1": 1.0}, "c1", id="unread"),
    pytest.param("c1 * x / (1.0 + c2 * x)", {"c1": 1.0, "k": 2.0}, "c2, k", id="both"),
    pytest.param("nu * exp(-eta * x)", {"nu": 1.0}, "eta", id="negated"),
    pytest.param("math.exp(x)", {}, "math", id="module"),
    pytest.param("fn(x)", {}, "fn", id="callable"),
    pytest.param("x", {"x": 1.0, "exp": 2.0}, "exp, x", id="reserved"),
])
def test_rate_function_rejects_formula_names_unlike_its_params(formula, params, differ):
    # such an entry would fail only later: with a NameError at the first
    # call of fn, or a KeyError in the step kernel's prologue
    with pytest.raises(ValueError, match=f"'mine'.*differ in {differ}$"):
        RateFunction("mine", formula, lambda hi: 1.0, params)


def test_rate_function_takes_a_callable_as_a_parameter():
    g = lambda x: 0.5 * x * x  # noqa: E731
    f = RateFunction("mine", "fn(x)", lambda hi: 0.5 * hi * hi, {"fn": g})
    assert f(3.0) == f.fn(3.0) == 4.5 and f.params["fn"] is g
    with pytest.raises(TypeError):
        f.params["fn"] = abs  # the kernel binds this mapping: it is read-only


def test_recruitment_sup_choice_a_is_horizon_free():
    pi = choice_a_recruitment(0.05)
    sups = {recruitment_sup(pi, horizon) for horizon in (1e-3, 1.0, 1.0312, 3.0, 1e6)}
    assert sups == {0.05 * 1.341736984114147}


def test_holling_sup_closed_form():
    # k > 1: interior maximum at x* = (c2*(k-1))**(-1/k); here x* = 1, f(x*) = 1/2
    f = holling_incidence(1.0, 1.0, 2.0)
    assert 0.5 <= sup_incidence(f, 10.0) <= 0.5 * (1.0 + 1e-14)
    # before x* the sup sits at hi
    assert f(0.5) <= sup_incidence(f, 0.5) <= f(0.5) * (1.0 + 1e-14)
    # k <= 1 or c2 = 0: f increases throughout
    for g in (holling_incidence(2.0, 3.0, 0.7), holling_incidence(2.0, 0.0, 2.0)):
        assert g(50.0) <= sup_incidence(g, 50.0) <= g(50.0) * (1.0 + 1e-14)


@pytest.mark.parametrize("kind", ["holling", "media"])
def test_interior_max_sup_beats_every_sample_near_the_maximiser(kind):
    # float rounding lets fn just next to the maximiser exceed fn at the
    # maximiser by up to a few ulps, which a bare closed form would miss
    rng = random.Random(f"interior-max:{kind}")
    for _ in range(40):
        if kind == "holling":
            c1, c2, k = rng.uniform(0.1, 3.0), rng.uniform(0.1, 3.0), rng.uniform(1.05, 4.0)
            f, x_star = holling_incidence(c1, c2, k), (c2 * (k - 1.0)) ** (-1.0 / k)
        else:
            eta = rng.uniform(5e-4, 0.5)
            f, x_star = media_incidence(rng.uniform(1e-3, 0.1), eta), 1.0 / eta
        sup = sup_incidence(f, 2.0 * x_star)
        for x in np.linspace(x_star * (1.0 - 1e-6), x_star * (1.0 + 1e-6), 501):
            assert f(float(x)) <= sup


def test_recruitment_from_key():
    for key in ("choiceA", "choiceB", "choiceC", "const", "cex-cos"):
        assert recruitment_from_key(key).key == key
    with pytest.raises(KeyError):
        recruitment_from_key("nope")


def test_catalog_entries_compare_by_identity():
    # the parameters live in fn, so equal keys must not make entries equal
    pairs = [
        (holling_incidence(1.0, 1.0, 2.0), holling_incidence(1.0, 5.0, 0.5)),
        (choice_a_recruitment(0.05), choice_a_recruitment(0.9)),
    ]
    for a, b in pairs:
        assert a.key == b.key
        assert a != b and a == a
        assert len({a, b}) == 2
    assert linear_incidence() != linear_incidence()


@pytest.mark.parametrize(
    "kind, key",
    [("incidence", key) for key in INCIDENCE_KEYS]
    + [("recruitment", key) for key in RECRUITMENT_KEYS],
)
def test_catalog_sup_never_underestimates(kind, key):
    if kind == "incidence":
        f, hi = incidence_from_key(key), 3.0
        sup = sup_incidence(f, hi)
    else:
        f, hi = recruitment_from_key(key), 1000.0
        sup = recruitment_sup(f, hi)
    grid_max = max(f(float(x)) for x in np.linspace(0.0, hi, 10_001))
    assert sup >= grid_max
