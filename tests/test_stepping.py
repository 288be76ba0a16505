"""Shu-Osher stepping, Euler as its one-stage form: reduction, conservation,
determinism."""

import collections
import io
import linecache
import math
import random
import re
import traceback
from array import array

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
    constant_recruitment,
    counterexample_cosine_recruitment,
    incidence_from_key,
    linear_incidence,
    media_incidence,
    recruitment_from_key,
    rhs,
)
from ssp_seir.shu_osher import BUILTIN_METHOD_KEYS, ShuOsherForm, builtin_method
from ssp_seir.stepping import (
    IntegrationOverflowError,
    Trajectory,
    _kernel,
    STEP_BUDGET,
    integrate,
    step_count,
    sub_step_coefficients,
    trajectory_to_csv,
)

from butcher import builtin_tableau, shu_osher_from_butcher

ZERO_PI = constant_recruitment(0.0)
FREE = ModelParams(0.0, 0.0, 0.0, 0.0)


def _random_setup(rng):
    p = ModelParams(
        rng.uniform(0.0, 1.0), rng.uniform(0.0, 1.0),
        rng.uniform(0.0, 1.0), rng.uniform(0.0, 1.0),
    )
    f = rng.choice([linear_incidence(), media_incidence(0.0115, 0.001)])
    pi = recruitment_from_key(rng.choice(["choiceA", "choiceB", "choiceC", "const"]))
    x = State(
        rng.uniform(0.0, 2.0), rng.uniform(0.0, 2.0),
        rng.uniform(0.0, 2.0), rng.uniform(0.0, 2.0),
        t=rng.uniform(0.0, 10.0),
    )
    return p, f, pi, x


def _euler(x, tau, p, f, pi):
    return integrate(x, tau, 1, builtin_method("euler"), p, f, pi).states[-1]


def test_euler_zero_step_is_identity_in_value():
    x = State(1.0, 1.0, 1.0, 1.0, t=0.0)
    y = _euler(x, 0.0, FREE, linear_incidence(), ZERO_PI)
    assert (y.s, y.e, y.i, y.r) == (x.s, x.e, x.i, x.r)
    assert y.t == 0.0


def test_euler_rejects_negative_step():
    for tau in (-0.1, math.nan):
        with pytest.raises(ValueError):
            _euler(State(1.0, 0.0, 0.0, 0.0), tau, FREE, linear_incidence(), ZERO_PI)


def test_euler_conserves_population_without_flows():
    x = State(0.3, 0.4, 0.2, 0.1)
    y = _euler(x, 0.7, ModelParams(0.0, 0.2, 0.3, 0.4), linear_incidence(), ZERO_PI)
    assert abs(y.total - x.total) <= 1e-14 * x.total


def test_euler_oscillating_population_first_step():
    # mu=1, tau=1/2, N0=2, all mass susceptible, flows off: N1 = N0/2 + pi(0)/2
    p = ModelParams(1.0, 0.0, 0.0, 0.0)
    pi = counterexample_cosine_recruitment()
    y = _euler(State(2.0, 0.0, 0.0, 0.0), 0.5, p, linear_incidence(), pi)
    assert y.total == pytest.approx(1.0, abs=1e-15)


def test_single_stage_form_reduces_to_euler_bitwise():
    # the Euler step x + tau*rhs(t, x), in the paper's positivity form
    rng = random.Random(11)
    for _ in range(100):
        p, f, pi, x = _random_setup(rng)
        tau = rng.uniform(0.0, 2.0)
        hf, hp = tau * f.fn(x.i), tau * pi.fn(x.t)
        expected = (
            ((1.0 - tau * p.mu) - hf) * x.s + hp,
            (1.0 - tau * (p.mu + p.sigma)) * x.e + hf * x.s,
            (1.0 - tau * (p.mu + p.gamma)) * x.i + (tau * p.sigma) * x.e + (tau * p.delta) * x.r,
            (1.0 - tau * (p.mu + p.delta)) * x.r + (tau * p.gamma) * x.i,
        )
        y = _euler(x, tau, p, f, pi)
        assert (y.s, y.e, y.i, y.r) == expected
        assert y.t == x.t + tau
        derivative = rhs(x.t, x, p, f, pi)
        euler = [u + tau * du for u, du in zip((x.s, x.e, x.i, x.r), derivative)]
        assert (y.s, y.e, y.i, y.r) == pytest.approx(euler, rel=1e-12, abs=1e-12)


def test_euler_population_recurrence_per_step():
    rng = random.Random(5)
    for _ in range(50):
        p, f, pi, x = _random_setup(rng)
        tau = rng.uniform(0.0, 1.0)
        y = _euler(x, tau, p, f, pi)
        expected = (1.0 - tau * p.mu) * x.total + tau * pi(x.t)
        assert abs(y.total - expected) <= 1e-12 * (1.0 + abs(x.total))


@pytest.mark.parametrize("key", BUILTIN_METHOD_KEYS)
def test_conservation_all_methods(key):
    form = builtin_method(key)
    x0 = State(0.5, 0.25, 0.2, 0.05)
    traj = integrate(x0, 0.3, 200, form, ModelParams(0.0, 0.3, 0.2, 0.1),
                     media_incidence(0.0115, 0.001), ZERO_PI)
    for k, x in enumerate(traj.states):
        assert abs(x.total - x0.total) <= max(k, 1) * 1e-13 * x0.total


def test_integrate_zero_steps():
    x0 = State(1.0, 0.0, 0.0, 0.0, t=2.0)
    traj = integrate(x0, 0.5, 0, builtin_method("euler"), FREE, linear_incidence(), ZERO_PI)
    assert len(traj) == 1
    assert traj.states[0] == x0
    assert traj.data.tolist() == [2.0, 1.0, 0.0, 0.0, 0.0]


def test_stop_floor_rejects_nan():
    with pytest.raises(ValueError, match="NaN"):
        integrate(
            State(1.0, 0.0, 0.0, 0.0), 0.5, 3, builtin_method("euler"),
            FREE, linear_incidence(), ZERO_PI, stop_below=math.nan,
        )


@pytest.mark.parametrize("t0", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("pi", ["const", "choiceA"])
@pytest.mark.parametrize("n_steps", [0, 3])
def test_integrate_rejects_a_non_finite_start_time(t0, pi, n_steps):
    # unchecked, a NaN start stamps every row NaN under a constant
    # recruitment, and an infinite one reaches sin() in choiceA's formula
    with pytest.raises(ValueError, match=f"start time must be finite, got {t0}"):
        integrate(
            State(1.0, 0.0, 0.0, 0.0, t=t0), 0.5, n_steps, builtin_method("euler"),
            ModelParams(0.1, 0.0, 0.0, 0.0), linear_incidence(), recruitment_from_key(pi),
        )


@pytest.mark.parametrize("n_steps", [2**53, 2**53 + 1, 10**301])
def test_integrate_rejects_more_steps_than_the_clock_counts(n_steps):
    # the float step clock t0 + kf*tau is exact only below 2**53 steps; the
    # message does not print the count, which may have hundreds of digits
    with pytest.raises(ValueError, match=r"^n_steps must be below 2\*\*53$"):
        integrate(State(1.0, 0.0, 0.0, 0.0), 0.5, n_steps, builtin_method("euler"),
                  FREE, linear_incidence(), ZERO_PI)


@pytest.mark.parametrize("t_f, tau, message", [
    (math.nan, math.nan, "step size must be finite and positive, got nan"),
    (-1.0, 0.0, "step size must be finite and positive, got 0.0"),
    (1.0, math.inf, "step size must be finite and positive, got inf"),
    (math.inf, 5e-324, "final time must be finite and non-negative, got inf"),
    (-1.0, 1.0, "final time must be finite and non-negative, got -1.0"),
    (1e308, 1e-10, "step count t_f/tau is not finite for t_f=1e+308, tau=1e-10"),
    (2.0**53, 1.0, "n_steps must be below 2**53 for t_f=9007199254740992.0, tau=1.0"),
    (1e300, 1e-5, "n_steps must be below 2**53 for t_f=1e+300, tau=1e-05"),
    (2.0**32 + 1, 1.0, "the run would take more than 2**32 steps for t_f=4294967297.0, tau=1.0"),
    (2.0**32 + 0.5, 1.0, "the run would take more than 2**32 steps"),
])
def test_step_count_rejects_in_order(t_f, tau, message):
    # each case also fails every later check: the first one failed names it
    with pytest.raises(ValueError, match=f"^{re.escape(message)}"):
        step_count(t_f, tau)


def test_step_count_is_ceil_up_to_the_budget():
    assert STEP_BUDGET == 2**32
    assert step_count(0.0, 1.0) == 0
    assert step_count(30.0, 3.3) == 10
    assert step_count(1.0, 0.1) == 10  # 1.0/0.1 is exactly 10.0 in floats
    assert step_count(2.0**32 - 0.5, 1.0) == step_count(2.0**32, 1.0) == STEP_BUDGET


def test_stop_floor_ends_at_a_failing_initial_state():
    x0 = State(1.0, -0.5, 0.0, 0.0)
    args = (x0, 0.5, 4, builtin_method("euler"), FREE, linear_incidence(), ZERO_PI)
    assert len(integrate(*args)) == 5
    assert len(integrate(*args, stop_below=-0.5)) == 5
    stopped = integrate(*args, stop_below=0.0)
    assert stopped.data.tolist() == [0.0, 1.0, -0.5, 0.0, 0.0]
    # a NaN compartment fails the floor wherever it sits
    for k in range(4):
        x = [1.0, 0.5, 0.25, 0.0]
        x[k] = math.nan
        nan_args = (State(*x), *args[1:])
        with pytest.raises(IntegrationOverflowError):
            integrate(*nan_args)
        assert len(integrate(*nan_args, stop_below=-1e-12)) == 1


def test_integrate_times_have_no_drift():
    traj = integrate(
        State(1.0, 0.0, 0.0, 0.0), 0.1, 1000, builtin_method("ssprk22"),
        ModelParams(0.1, 0.0, 0.0, 0.0), linear_incidence(), ZERO_PI,
    )
    for k, x in enumerate(traj.states):
        assert x.t == k * 0.1  # exact product, not accumulated sum


@pytest.mark.parametrize("t0", [0.0, -0.0, 1.5, 1e17])
def test_row_times_are_int_step_products_over_a_long_run(t0):
    # the kernel counts steps in floats; every kept time is still bitwise
    # t0 + k*tau with an int k, and row 0 keeps t0 itself
    n, tau = 100_003, 0.1
    for every in (1, 997):
        traj = integrate(
            State(1.0, 0.0, 0.0, 0.0, t=t0), tau, n, builtin_method("euler"),
            FREE, linear_incidence(), ZERO_PI, every=every, stages=False,
        )
        kept = list(range(every, n + 1, every)) + ([n] if n % every else [])
        expected = [t0] + [t0 + k * tau for k in kept]
        assert traj.data[0::5].tobytes() == np.array(expected).tobytes()


def test_trajectory_views_agree_with_its_states():
    traj = integrate(
        State(0.2, 0.6, 0.2, 0.0, t=1.5), 0.7, 30, builtin_method("ssprk33"),
        ModelParams(0.05, 0.25, 0.1867, 0.011), media_incidence(0.0115, 0.001),
        recruitment_from_key("choiceA"),
    )
    states = traj.states
    assert len(states) == len(traj) == 31
    assert [x.t for x in states] == traj.times
    assert list(zip(*traj.compartments)) == [(x.s, x.e, x.i, x.r) for x in states]
    assert [repr(x.total) for x in states] == [repr(n) for n in traj.populations]
    for k in (0, 7, 30, -1, -31):
        x = states[k]
        assert traj.row(k).tolist() == [x.t, x.s, x.e, x.i, x.r]
    for k in (31, -32):
        with pytest.raises(IndexError):
            traj.row(k)


def test_integrate_is_deterministic():
    def run():
        return integrate(
            State(0.2, 0.6, 0.2, 0.0), 1.7, 300, builtin_method("ssprk33"),
            ModelParams(0.05, 0.25, 0.1867, 0.011),
            media_incidence(0.0115, 0.001), recruitment_from_key("choiceA"),
        )

    a, b = run(), run()
    assert a.states == b.states


def test_stage_min_bounds_step_states():
    traj = integrate(
        State(0.2, 0.6, 0.2, 0.0), 4.0, 50, builtin_method("ssprk22"),
        ModelParams(0.05, 0.25, 0.1867, 0.011),
        media_incidence(0.0115, 0.001), recruitment_from_key("choiceC"),
    )
    step_min = min(min(x.s, x.e, x.i, x.r) for x in traj.states)
    assert traj.stage_min <= step_min


def test_integrate_reports_overflow_with_partial_trajectory():
    # runaway growth: huge linear incidence with no mortality blows E up
    p = ModelParams(0.0, 0.0, 0.0, 0.0)
    with pytest.raises(IntegrationOverflowError) as exc_info:
        integrate(
            State(1e150, 0.0, 1e150, 0.0), 1e3, 50, builtin_method("euler"),
            p, linear_incidence(), ZERO_PI,
        )
    err = exc_info.value
    assert err.step_index >= 0
    assert len(err.partial) == err.step_index + 1


@given(tau=st.floats(0.01, 2.0), n=st.integers(0, 20))
def test_trajectory_length_and_tau(tau, n):
    traj = integrate(
        State(1.0, 0.0, 0.0, 0.0), tau, n, builtin_method("euler"),
        ModelParams(0.1, 0.0, 0.0, 0.0), linear_incidence(), ZERO_PI,
    )
    assert len(traj) == n + 1
    assert traj.tau == tau
    assert traj.method == "euler"


def test_csv_round_trip():
    traj = integrate(
        State(0.2, 0.6, 0.2, 0.0), 0.9, 7, builtin_method("ssprk22"),
        ModelParams(0.05, 0.25, 0.1867, 0.011),
        media_incidence(0.0115, 0.001), recruitment_from_key("choiceB"),
    )
    buf = io.StringIO()
    trajectory_to_csv(traj, buf)
    lines = buf.getvalue().strip().splitlines()
    assert lines[0] == "t,S,E,I,R,N"
    assert len(lines) == len(traj) + 1
    for line, x in zip(lines[1:], traj.states):
        t, s, e, i, r, n = (float(v) for v in line.split(","))
        assert (t, s, e, i, r) == (x.t, x.s, x.e, x.i, x.r)
        assert n == x.total


def _csv_oracle(traj):
    """The CSV text written value by value: ``repr`` of each one."""
    rows = zip(traj.times, *traj.compartments, traj.populations)
    return "t,S,E,I,R,N\n" + "".join(",".join(map(repr, row)) + "\n" for row in rows)


def test_csv_writer_matches_the_per_value_repr_oracle():
    # the writer reuses the text of an equal nonzero value; equal values with
    # two texts (0.0 and -0.0) and values equal to nothing (NaN) are the cases
    # that reuse would get wrong
    rng = random.Random(20261020)
    pool = [0.0, -0.0, math.nan, math.inf, -math.inf, 5e-324, -5e-324, 1e-300, 0.3, -2.5, 7.0]
    # in the first and last row S = -0.0 and N = ((S + E) + I) + R = 0.0, equal
    # to S but not its text; E, I and R change the sign of their zeros
    fixed = [
        (0.0, -0.0, 0.0, 0.0, 0.0), (1.0, 0.3, 0.0, -0.0, 5e-324),
        (2.0, -0.0, -0.0, 0.0, 5e-324), (3.0, -0.0, 0.0, 0.0, 0.0),
    ]
    for case in range(200):
        row = [rng.choice(pool) for _ in range(5)]
        data = array("d", [v for r in fixed for v in r] if case % 2 else [])
        for _ in range(rng.randrange(1, 40)):
            for c in range(5):
                # most values repeat their previous row's, making runs
                if rng.random() < 0.3:
                    row[c] = rng.choice(pool)
            data.extend(row)
        traj = Trajectory(data, 1.0, "euler", None)
        buf = io.StringIO()
        trajectory_to_csv(traj, buf)
        assert buf.getvalue() == _csv_oracle(traj)


# ---------------------------------------------------------------------------
# the generated step kernel against a plain stage-by-stage oracle
# ---------------------------------------------------------------------------


def _oracle(x0, tau, n_steps, form, p, f, pi, stop_below=None):
    """Shu-Osher stepping written out stage by stage from the model equations.

    Each Euler sub-step is written in the paper's positivity form, a
    combination of the stage's compartments with the coefficients
    ``1 - h*(mu + rate)``, and a copy stage (v = 0 and one alpha term of
    exactly 1.0) is the sub-step it copies.  Returns ``(rows, stage_min,
    overflow_step, end)`` with rows ``(t, s, e, i, r)``; ``overflow_step``
    is None unless a step overflowed or turned non-finite, and ``end`` is
    that step's non-finite state, or None.
    """

    m, h = form.m, tau / form.r
    mu = p.mu
    c_s, c_e = 1.0 - h * mu, 1.0 - h * (mu + p.sigma)
    c_i, c_r = 1.0 - h * (mu + p.gamma), 1.0 - h * (mu + p.delta)
    h_sigma, h_gamma, h_delta = h * p.sigma, h * p.gamma, h * p.delta

    def euler_substep(t, x):
        s, e, i, r = x
        hf = h * f.fn(i)
        hp = h * pi.fn(t)
        return [
            (c_s - hf) * s + hp,
            c_e * e + hf * s,
            c_i * i + h_sigma * e + h_delta * r,
            c_r * r + h_gamma * i,
        ]

    x = (x0.s, x0.e, x0.i, x0.r)
    rows, low = [(x0.t, *x)], min(x)
    if stop_below is not None and not low >= stop_below:
        n_steps = 0
    for k in range(n_steps):
        t = x0.t + k * tau
        stage, euler, step_low = x, [], low
        try:
            for q in range(m):
                if any(form.alpha[later][q] != 0.0 for later in range(q + 1, m + 1)):
                    euler.append(euler_substep(t + form.c_stage[q] * tau, stage))
                else:
                    euler.append(None)
                v = form.v[q + 1]
                terms = [(j, a) for j, a in enumerate(form.alpha[q + 1][: q + 1]) if a != 0.0]
                if v == 0.0 and len(terms) == 1 and terms[0][1] == 1.0:
                    acc = euler[terms[0][0]]
                else:
                    acc = [v * u for u in x] if v != 0.0 else [0.0] * 4
                    for j, a in terms:
                        acc = [u + a * w for u, w in zip(acc, euler[j])]
                stage = tuple(acc)
                step_low = min(step_low, min(stage))
        except OverflowError:
            return rows, low, k, None
        low, x = step_low, stage
        if not all(math.isfinite(u) for u in x):
            return rows, low, k, x
        rows.append((x0.t + (k + 1) * tau, *x))
        if stop_below is not None and not min(x) >= stop_below:
            break
    return rows, low, None, None


def _sparse_form():
    # key None; stage 2's Euler sub-step is read by no row, so it must not be
    # evaluated; stages 1 and 3 share the abscissa 0.5
    return ShuOsherForm(
        alpha=(
            (0.0, 0.0, 0.0, 0.0),
            (0.5, 0.0, 0.0, 0.0),
            (0.25, 0.0, 0.0, 0.0),
            (0.25, 0.0, 0.5, 0.0),
        ),
        v=(1.0, 0.5, 0.75, 0.25),
        r=2.0,
        c_stage=(0.5, 0.25, 0.5),
    )


def _oracle_forms():
    forms = [builtin_method(key) for key in BUILTIN_METHOD_KEYS]
    # nonzero v and a dense alpha
    forms.append(shu_osher_from_butcher(builtin_tableau("ssprk33"), 0.5))
    forms.append(_sparse_form())
    return forms


# entries outside the catalog
_CUSTOM_INCIDENCE = RateFunction("custom", "0.8 * x * exp(-x)", lambda hi: 0.8 * hi, alpha=0.8)
_CUSTOM_RECRUITMENT = RateFunction("custom", "0.5 - 0.5 * cos(x)", lambda horizon: 1.0)


def _seeded_entry(rng, key, keys, from_key, custom, **params):
    """The catalog entry ``key``, the custom entry, or (key "callable") a
    drawn catalog entry's ``fn`` passed as the parameter of the formula
    ``fn(x)``, which the kernel calls."""
    if key == "custom":
        return custom
    entry = from_key(rng.choice(keys) if key == "callable" else key, **params)
    if key == "callable":
        return RateFunction("callable", "fn(x)", entry.sup, {"fn": entry.fn})
    return entry


def _seeded_run(rng, forms):
    p = ModelParams(*(rng.uniform(0.0, 1.0) for _ in range(4)))
    f = _seeded_entry(
        rng, rng.choice(INCIDENCE_KEYS + ("custom", "callable")), INCIDENCE_KEYS,
        incidence_from_key, _CUSTOM_INCIDENCE,
        c1=rng.uniform(0.1, 3.0), c2=rng.uniform(0.0, 2.0),
        k=rng.choice([1.0, 1.5, 1.5, 1.5, 2.0, 3.0]),
        nu=rng.uniform(0.0, 2.0), eta=rng.uniform(0.0, 1.0),
    )
    pi = _seeded_entry(
        rng, rng.choice(RECRUITMENT_KEYS + ("custom", "callable")), RECRUITMENT_KEYS,
        recruitment_from_key, _CUSTOM_RECRUITMENT, kappa=rng.uniform(0.0, 1.0),
    )
    x0 = State(*(rng.uniform(0.0, 2.0) for _ in range(4)), t=rng.choice([0.0, -0.0, 1.5]))
    tau = rng.choice([rng.uniform(0.0, 1.0), rng.uniform(0.0, 30.0), 10.0 ** rng.uniform(0.0, 4.0)])
    # the floors -inf and +inf pass and fail every finite value; 1.0 stops
    # most runs partway
    stop_below = rng.choice([None, -1e-12, 0.0, 1.0, -math.inf, math.inf])
    form = rng.choice(forms)
    if rng.random() < 0.125:
        # I alone moves, by a factor 1 - h*mu from -1 to -9 per Euler
        # sub-step, from near the top of the double range: a run overflows
        # within a few steps.  Where h = tau/r exceeds 1, h*f(I) of the linear
        # incidence can overflow before I does, and its product with S = 0 in
        # the positivity form is a NaN in S and E
        tau = 10.0 ** rng.uniform(-1.0, 3.0)
        p = ModelParams(rng.uniform(2.0, 10.0) * form.r / tau, p.sigma, 0.0, p.delta)
        x0 = State(0.0, 0.0, rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(250.0, 308.0), 0.0, t=x0.t)
        f, pi = linear_incidence(), ZERO_PI
        stop_below = rng.choice([-math.inf, stop_below])
    return x0, tau, rng.randint(0, 120), form, p, f, pi, stop_below


def test_integrate_matches_stagewise_oracle():
    rng = random.Random(8)
    forms = _oracle_forms()
    seen = {"overflow": 0, "stopped": 0, "full": 0}
    # runs (and overflowing runs) per incidence and per recruitment entry
    runs = collections.Counter()
    overflows = collections.Counter()
    # overflowing runs from S = E = 0 whose non-finite state has a NaN in S:
    # an overflowing h*f(I) times S = 0
    nan_from_zero_s = 0
    for _ in range(1200):
        x0, tau, n, form, p, f, pi, stop_below = _seeded_run(rng, forms)
        rows, stage_min, overflow_step, end = _oracle(x0, tau, n, form, p, f, pi, stop_below)
        nan_from_zero_s += end is not None and x0.s == 0.0 and math.isnan(end[0])
        expected = np.array(rows).tobytes()
        keys = [f"f={f.key}", f"pi={pi.key}"]
        if f.key == "holling" and dict(f.params)["k"] == 1.5 and min(row[3] for row in rows) < 0.0:
            keys.append("holling k=1.5, I<0")
        runs.update(keys)
        try:
            traj = integrate(x0, tau, n, form, p, f, pi, stop_below=stop_below)
        except IntegrationOverflowError as exc:
            assert exc.step_index == overflow_step
            traj = exc.partial
            seen["overflow"] += 1
            overflows.update(keys)
        else:
            assert overflow_step is None
            seen["full" if len(traj) == n + 1 else "stopped"] += 1
        assert traj.data.tobytes() == expected
        assert repr(traj.stage_min) == repr(stage_min)
        assert traj.method == (form.key or f"shu-osher-{form.m}")
    assert min(seen.values()) >= 40, seen
    entries = [f"f={key}" for key in INCIDENCE_KEYS + ("custom", "callable")]
    entries += [f"pi={key}" for key in RECRUITMENT_KEYS + ("custom", "callable")]
    entries.append("holling k=1.5, I<0")
    assert min(runs[key] for key in entries) >= 20, runs
    assert min(overflows[key] for key in entries) >= 1, overflows
    assert nan_from_zero_s >= 5, nan_from_zero_s


def test_a_minus_inf_floor_ends_a_run_that_overflows_to_minus_inf():
    # the overflow runs of _seeded_run with h = tau/r at most 1: S and E stay
    # 0 while h*f(I) is finite, so the first non-finite state often holds a
    # -inf in I and nothing else non-finite.  It passes x >= -inf and x < inf,
    # and a -inf floor must still end the run as an overflow.
    rng = random.Random(9)
    forms = _oracle_forms()
    f = linear_incidence()
    minus_inf_ends = 0
    for _ in range(200):
        form = rng.choice(forms)
        tau = form.r * 10.0 ** rng.uniform(-2.0, 0.0)
        p = ModelParams(rng.uniform(2.0, 10.0) * form.r / tau, rng.uniform(0.0, 1.0), 0.0,
                        rng.uniform(0.0, 1.0))
        x0 = State(0.0, 0.0, rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(250.0, 308.0), 0.0,
                   t=rng.choice([0.0, -0.0, 1.5]))
        rows, stage_min, overflow_step, end = _oracle(x0, tau, 120, form, p, f, ZERO_PI, -math.inf)
        try:
            traj = integrate(x0, tau, 120, form, p, f, ZERO_PI, stop_below=-math.inf)
        except IntegrationOverflowError as exc:
            assert exc.step_index == overflow_step
            traj = exc.partial
        else:
            assert overflow_step is None
        assert traj.data.tobytes() == np.array(rows).tobytes()
        assert repr(traj.stage_min) == repr(stage_min)
        minus_inf_ends += end is not None and all(x == -math.inf or math.isfinite(x) for x in end)
    assert minus_inf_ends >= 20, minus_inf_ends


def _run_to_end(args, stop_below, every, stages=True):
    """``(rows, stage_min, overflow step or None, method)`` of a run."""
    try:
        traj = integrate(*args, stop_below=stop_below, every=every, stages=stages)
        overflow_step = None
    except IntegrationOverflowError as exc:
        traj, overflow_step = exc.partial, exc.step_index
    rows = [traj.row(k).tobytes() for k in range(len(traj))]
    return rows, repr(traj.stage_min), overflow_step, traj.method


def test_row_stride_keeps_the_full_runs_rows():
    rng = random.Random(12)
    forms = _oracle_forms()
    seen = collections.Counter()
    for _ in range(600):
        x0, tau, n, form, p, f, pi, stop_below = _seeded_run(rng, forms)
        args = (x0, tau, n, form, p, f, pi)
        rows, stage_min, overflow_step, method = _run_to_end(args, stop_below, 1)
        end = len(rows) - 1  # the step the run ended on, or the last before an overflow
        for every in {1, 2, rng.randint(1, 12), max(n, 1), n + rng.randint(1, 5)}:
            kept = range(0, end + 1, every)
            if overflow_step is None and end % every:
                kept = [*kept, end]
            assert _run_to_end(args, stop_below, every) == (
                [rows[k] for k in kept], stage_min, overflow_step, method
            )
        seen["overflow" if overflow_step is not None else "stopped" if end < n else "full"] += 1
    assert min(seen.values()) >= 40, seen


@pytest.mark.parametrize("every", [0, -1, 1.0, 2.5, None])
def test_row_stride_must_be_a_positive_integer(every):
    with pytest.raises(ValueError, match="every must be a positive integer"):
        integrate(State(1.0, 0.0, 0.0, 0.0), 0.5, 4, builtin_method("euler"),
                  FREE, linear_incidence(), ZERO_PI, every=every)


def test_stage_min_of_an_overflowing_run():
    # a step that ends on a non-finite state counts its stages: linear
    # incidence, choiceC and Euler at tau = 50 from the published table state
    with pytest.raises(IntegrationOverflowError) as exc_info:
        integrate(
            State(0.7, 0.1, 0.2, 0.0), 50.0, 100, builtin_method("euler"),
            ModelParams(0.05, 0.25, 0.1867, 0.011), linear_incidence(),
            recruitment_from_key("choiceC"),
        )
    partial = exc_info.value.partial
    assert exc_info.value.step_index == 10 and len(partial) == 11
    assert min(min(column) for column in partial.compartments) == pytest.approx(-2.8034418e244)
    assert partial.stage_min == -math.inf
    # an OverflowError within a step leaves that step's stages out: ssprk22's
    # first stage (an Euler step) takes I to -999, and exp(999) in the media
    # incidence of its second stage overflows
    args = (State(0.5, 0.0, 1.0, 0.0), 1000.0)
    rest = (ModelParams(0.0, 0.0, 1.0, 0.0), media_incidence(0.5, 1.0), ZERO_PI)
    first_stage = integrate(*args, 1, builtin_method("euler"), *rest).row(1)
    assert first_stage[3] == -999.0
    with pytest.raises(IntegrationOverflowError) as exc_info:
        integrate(*args, 5, builtin_method("ssprk22"), *rest)
    assert exc_info.value.step_index == 0 and len(exc_info.value.partial) == 1
    assert exc_info.value.partial.stage_min == 0.0


def test_kernel_tracebacks_show_its_source():
    def failing(x):
        raise ZeroDivisionError("failing entry")

    f = RateFunction("failing", "fn(x)", abs, {"fn": failing})
    with pytest.raises(ZeroDivisionError) as exc_info:
        integrate(State(1.0, 1.0, 1.0, 1.0), 0.5, 3, builtin_method("ssprk33"),
                  ModelParams(0.1, 0.1, 0.1, 0.1), f, ZERO_PI)
    text = "".join(traceback.format_exception(exc_info.value))
    assert "step kernel" in text and "hf = h * (f_fn(i))" in text


@pytest.mark.parametrize("form, calls, carries", [
    (builtin_method("euler"), 1, False), (builtin_method("ssprk22"), 2, True),
    (builtin_method("ssprk33"), 3, True), (builtin_method("ssprk104"), 7, True),
    (_sparse_form(), 1, False),
], ids=["euler", "ssprk22", "ssprk33", "ssprk104", "sparse"])
def test_recruitment_evaluated_once_per_distinct_abscissa(form, calls, carries):
    # ssprk104's ten abscissae repeat 1/3, 1/2 and 2/3 exactly.  A form that
    # evaluates pi at c = 1 and c = 0 reuses step k-1's c = 1 value at step
    # k's c = 0 stage when the two times are equal floats
    choice_a = recruitment_from_key("choiceA")
    times = []

    def counted(t):
        times.append(t)
        return choice_a.fn(t)

    pi = RateFunction("counted", "fn(x)", choice_a.sup, {"fn": counted})
    t0, tau, n = 1.5, 0.7, 25
    args = (State(0.2, 0.6, 0.2, 0.0, t=t0), tau, n, form,
            ModelParams(0.05, 0.25, 0.1867, 0.011), media_incidence(0.0115, 0.001))
    traj = integrate(*args, pi)
    hits = sum((t0 + (k - 1) * tau) + 1.0 * tau == t0 + k * tau for k in range(1, n))
    assert 0 < hits < n - 1  # t0 and tau give both equal and unequal times
    assert len(times) == n * calls - (hits if carries else 0)
    assert len(set(times[:calls])) == calls
    assert traj.data.tobytes() == integrate(*args, choice_a).data.tobytes()


def test_equal_forms_share_one_kernel():
    tableau = builtin_tableau("ssprk33")
    a, b = shu_osher_from_butcher(tableau, 1.0), shu_osher_from_butcher(tableau, 1.0)
    assert a == b and a is not b
    assert _kernel(a, "x", "p") is _kernel(b, "x", "p")
    fresh = shu_osher_from_butcher(builtin_tableau("ssprk22"), 0.75)
    size = _kernel.cache_info().currsize
    shu_osher_from_butcher(builtin_tableau("ssprk22"), 0.75)  # no compile yet
    assert _kernel.cache_info().currsize == size
    x0 = State(0.2, 0.6, 0.2, 0.0)
    args = (0.5, 3, fresh, FREE, linear_incidence(), ZERO_PI)
    integrate(x0, *args)
    assert _kernel.cache_info().currsize == size + 1
    integrate(x0, 0.5, 3, shu_osher_from_butcher(builtin_tableau("ssprk22"), 0.75),
              FREE, linear_incidence(), ZERO_PI)
    assert _kernel.cache_info().currsize == size + 1


def test_entries_differing_in_parameters_share_one_kernel():
    form = shu_osher_from_butcher(builtin_tableau("ssprk33"), 0.5)
    x0 = State(0.2, 0.6, 0.2, 0.0)
    p, pi = ModelParams(0.05, 0.25, 0.1867, 0.011), recruitment_from_key("choiceA")
    published = integrate(x0, 0.7, 20, form, p, media_incidence(0.0115, 0.001), pi)
    info = _kernel.cache_info()
    other = media_incidence(0.5, 0.001)
    traj = integrate(x0, 0.7, 20, form, p, other, pi)
    assert (_kernel.cache_info().misses, _kernel.cache_info().hits) == (info.misses, info.hits + 1)
    # the shared kernel reads the parameters of the entry it is given
    assert traj.data.tobytes() != published.data.tobytes()
    called = RateFunction("callable", "fn(x)", other.sup, {"fn": other.fn})
    assert traj.data.tobytes() == integrate(x0, 0.7, 20, form, p, called, pi).data.tobytes()


def test_catalog_kernels_fold_pi_into_constants():
    # pi is pasted as a literal: no kernel reads it as a global, and the
    # compiler folds 2.0 / pi (choiceA) and 2.0 * pi (cex-cos) into constants
    folded = {"choiceA": 2.0 / math.pi, "cex-cos": 2.0 * math.pi}
    for f_key in INCIDENCE_KEYS:
        for pi_key in RECRUITMENT_KEYS:
            f, pi = incidence_from_key(f_key), recruitment_from_key(pi_key)
            for key in BUILTIN_METHOD_KEYS:
                code = _kernel(builtin_method(key), f.formula, pi.formula).__code__
                assert "pi" not in code.co_names, (f_key, pi_key, key)
                if pi_key in folded:
                    assert folded[pi_key] in code.co_consts, (pi_key, key)


def test_unkeyed_form_names_its_trajectory_and_keeps_edge_cases():
    form = _sparse_form()
    x0 = State(1.0, -0.5, 0.0, 0.0, t=-0.0)
    args = (form, FREE, linear_incidence(), ZERO_PI)
    traj = integrate(x0, 0.5, 4, *args)
    assert traj.method == "shu-osher-3" and len(traj) == 5
    empty = integrate(x0, 0.5, 0, *args)
    assert empty.data.tobytes() == np.array([[-0.0, 1.0, -0.5, 0.0, 0.0]]).tobytes()
    assert empty.stage_min == -0.5
    stopped = integrate(x0, 0.5, 4, *args, stop_below=0.0)
    assert stopped.data.tobytes() == empty.data.tobytes()
    assert stopped.stage_min == -0.5


_SIGNED_ZEROS = (-0.0, 0.0, 5e-324, -5e-324)


def _signed_zero_run(rng, forms):
    """A seeded run whose compartments and step sit on the signed zeros and
    the subnormals around them, where ``0.0 + y`` and ``y`` differ."""
    x0, _, _, form, p, f, pi, stop_below = _seeded_run(rng, forms)
    x0 = State(
        *(rng.choice(_SIGNED_ZEROS + (rng.uniform(0.0, 2.0),)) for _ in range(4)), t=x0.t,
    )
    rates = (p.mu, p.sigma, p.gamma, p.delta)
    p = ModelParams(*(rng.choice([0.0, rate]) for rate in rates))
    pi = rng.choice([ZERO_PI, pi])
    tau = rng.choice([0.0, 1e-300, 1e-320, rng.uniform(0.0, 2.0)])
    return x0, tau, rng.randint(0, 6), form, p, f, pi, stop_below


def test_integrate_matches_the_oracle_on_signed_zeros():
    # A stage with v = 0 and more than one term, or a term other than 1.0,
    # starts its sum at 0.0, which turns a -0.0 into 0.0, while a copy stage
    # is its sub-step, -0.0 included.  Runs from -0.0, 0.0 and the smallest
    # subnormals, with or without stage tracking and over every floor, must
    # match the oracle byte for byte, the sign of every zero included.
    rng = random.Random(21)
    forms = _oracle_forms()
    negative_zeros = 0  # rows of the oracle holding a -0.0 beyond row 0
    for _ in range(3000):
        x0, tau, n, form, p, f, pi, stop_below = _signed_zero_run(rng, forms)
        rows, stage_min, overflow_step, _ = _oracle(x0, tau, n, form, p, f, pi, stop_below)
        expected = np.array(rows).tobytes()
        negative_zeros += any(
            x == 0.0 and math.copysign(1.0, x) < 0.0 for row in rows[1:] for x in row[1:]
        )
        for stages in (True, False):
            try:
                traj = integrate(x0, tau, n, form, p, f, pi, stop_below=stop_below, stages=stages)
            except IntegrationOverflowError as exc:
                assert exc.step_index == overflow_step
                traj = exc.partial
            else:
                assert overflow_step is None
            assert traj.data.tobytes() == expected
            assert repr(traj.stage_min) == (repr(stage_min) if stages else "None")
    assert negative_zeros >= 40, negative_zeros


def test_untracked_runs_keep_the_tracked_runs_rows():
    # stages=False drops the stage minimum and nothing else: the rows, the
    # overflow step and the method are those of the tracked run, for every
    # stride and floor
    rng = random.Random(13)
    forms = _oracle_forms()
    seen = collections.Counter()
    for _ in range(300):
        x0, tau, n, form, p, f, pi, _ = _seeded_run(rng, forms)
        args = (x0, tau, n, form, p, f, pi)
        for stop_below in (None, -1e-12, 0.0):
            for every in {1, 2, rng.randint(1, 12), max(n, 1), n + 1}:
                rows, _, overflow_step, method = _run_to_end(args, stop_below, every)
                assert _run_to_end(args, stop_below, every, stages=False) == (
                    rows, "None", overflow_step, method
                )
            seen["overflow" if overflow_step is not None else "ran"] += 1
    assert min(seen.values()) >= 40, seen


def _kernel_source(form, stages, incidence="x"):
    code = _kernel(form, incidence, "p", stages).__code__
    return "".join(linecache.getlines(code.co_filename))


def _stage_minima(source):
    """How many stages the kernel source takes the minimum of."""
    return sum(line.strip().startswith("stage_low = ") for line in source.splitlines())


_EXTRA_FORMS = dict(zip(["butcher-ssprk33", "sparse"], _oracle_forms()[len(BUILTIN_METHOD_KEYS):]))


@pytest.mark.parametrize("key", BUILTIN_METHOD_KEYS + tuple(_EXTRA_FORMS))
def test_kernel_emits_only_the_bookkeeping_its_run_reads(key):
    form = _EXTRA_FORMS[key] if key in _EXTRA_FORMS else builtin_method(key)
    tracked = _kernel_source(form, True)
    assert _stage_minima(tracked) == form.m and "before = stage_min" in tracked
    bare = _kernel_source(form, False)
    assert _stage_minima(bare) == 0 and "stage_low" not in bare
    assert "before" not in bare
    assert "stage_low" not in tracked.split("t = t0 + kf * tau")[2]
    # a copy stage i < m has v_i = 0 and one alpha term, of exactly 1.0, from
    # stage j.  It is stage j's Euler sub-step f_j: it reads f_j and has no line
    copies = {}
    for i in range(1, form.m):
        sources = [j for j, a in enumerate(form.alpha[i]) if a != 0.0]
        if form.v[i] == 0.0 and [form.alpha[i][j] for j in sources] == [1.0]:
            copies[i] = sources[0]
    assert len(copies) == {"ssprk22": 1, "ssprk33": 1, "ssprk104": 8}.get(key, 0)
    # a media kernel negates eta once, in its prologue
    media = _kernel_source(form, False, media_incidence(0.0115, 0.001).formula)
    assert "-f_eta" not in media.split("for k in range(n_steps):")[1]
    assert "nf_eta = -incidence['eta']" in media
    # each step state is judged by float comparisons alone, none by the
    # arithmetic x - x, which allocates a float per term, and every kernel
    # ends a step with the one floored test
    for source in (tracked, bare):
        assert "(s - s)" not in source and " != 0.0" not in source
        assert "s < inf and e < inf and i < inf and r < inf" in source
        assert (
            "if not (s >= floor and e >= floor and i >= floor and r >= floor and"
            " s < inf and e < inf and i < inf and r < inf):"
        ) in source
        assert "0.0 + f" not in source and " + 1) * tau" not in source
        assert "kf += 1.0\n" in source and " or 0.0" not in source
        for i in copies:
            assert not re.search(rf"^ *[seir]{i} = ", source, re.M), i
        # Euler's final stage is the one final copy among these forms: it
        # copies the sub-step into the step state
        final = re.findall(r"^ *([seir]) = f\1(\d+)$", source, re.M)
        assert final == ([(c, "0") for c in "seir"] if key == "euler" else [])
        # each Euler sub-step in the paper's positivity form, with the
        # coefficients bound once in the prologue, by the helper that the
        # positivity certificate calls too (test_sub_step_coefficients_*)
        prologue, loop = source.split("for k in range(n_steps):")
        assert (
            "h, c_s, c_e, c_i, c_r, h_sigma, h_gamma, h_delta = coefficients(tau, form.r, p)"
        ) in prologue
        assert "fs0 = (c_s - hf) * s + hp0" in loop and "fe0 = c_e * e + hf * s" in loop
        assert "fi0 = c_i * i + h_sigma * e + h_delta * r" in loop
        assert "fr0 = c_r * r + h_gamma * i" in loop
        assert loop.count("hf = h * (") == len(re.findall(r"^ *fs\d+ = ", loop, re.M))


def test_sub_step_coefficients_are_the_positivity_form_terms():
    # h = tau/r, c_x = 1 - h*(mu + rate) and h*rate, bit for bit: the
    # kernel's prologue binds them from this one call
    rng = random.Random(20261021)
    for _ in range(500):
        p = ModelParams(*(rng.choice([0.0, 10.0 ** rng.uniform(-12, 1)]) for _ in range(4)))
        tau, r = 10.0 ** rng.uniform(-6, 2), rng.choice([1.0, 6.0, 0.75])
        h = tau / r
        expected = (
            h, 1.0 - h * p.mu, 1.0 - h * (p.mu + p.sigma), 1.0 - h * (p.mu + p.gamma),
            1.0 - h * (p.mu + p.delta), h * p.sigma, h * p.gamma, h * p.delta,
        )
        got = sub_step_coefficients(tau, r, p)
        assert [x.hex() for x in got] == [x.hex() for x in expected]


def test_kernel_cache_keys_on_the_bookkeeping_flags():
    form = shu_osher_from_butcher(builtin_tableau("ssprk33"), 0.75)
    size = _kernel.cache_info().currsize
    x0 = State(0.2, 0.6, 0.2, 0.0)
    args = (0.5, 3, form, FREE, linear_incidence(), ZERO_PI)
    for stages in (True, False):
        # the floor, or its absence, is an argument: one kernel per stage flag
        for stop_below in (None, -1e-12, 0.0, -math.inf):
            integrate(x0, *args, stop_below=stop_below, stages=stages)
    assert _kernel.cache_info().currsize == size + 2
