"""Shu-Osher stepping, Euler as its one-stage form: reduction, conservation,
determinism."""

import io
import math
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from ssp_seir.model import (
    ModelParams,
    ProblemSetup,
    State,
    constant_recruitment,
    counterexample_cosine_recruitment,
    linear_incidence,
    media_incidence,
    recruitment_from_key,
    rhs,
)
from ssp_seir.shu_osher import BUILTIN_METHOD_KEYS, builtin_method
from ssp_seir.stepping import IntegrationOverflowError, integrate, trajectory_to_csv

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
    assert y.as_tuple() == x.as_tuple()
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
    rng = random.Random(11)
    for _ in range(100):
        p, f, pi, x = _random_setup(rng)
        tau = rng.uniform(0.0, 2.0)
        ds, de, di, dr = rhs(x.t, x, p, f, pi)
        expected = (x.s + tau * ds, x.e + tau * de, x.i + tau * di, x.r + tau * dr)
        y = _euler(x, tau, p, f, pi)
        assert y.as_tuple() == expected
        assert y.t == x.t + tau


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
    assert traj.data.tolist() == [[2.0, 1.0, 0.0, 0.0, 0.0]]


def test_stop_floor_rejects_nan():
    with pytest.raises(ValueError, match="NaN"):
        integrate(
            State(1.0, 0.0, 0.0, 0.0), 0.5, 3, builtin_method("euler"),
            FREE, linear_incidence(), ZERO_PI, stop_below=math.nan,
        )


def test_stop_floor_ends_at_a_failing_initial_state():
    x0 = State(1.0, -0.5, 0.0, 0.0)
    args = (x0, 0.5, 4, builtin_method("euler"), FREE, linear_incidence(), ZERO_PI)
    assert len(integrate(*args)) == 5
    assert len(integrate(*args, stop_below=-0.5)) == 5
    stopped = integrate(*args, stop_below=0.0)
    assert stopped.data.tolist() == [[0.0, 1.0, -0.5, 0.0, 0.0]]


def test_integrate_times_have_no_drift():
    traj = integrate(
        State(1.0, 0.0, 0.0, 0.0), 0.1, 1000, builtin_method("ssprk22"),
        ModelParams(0.1, 0.0, 0.0, 0.0), linear_incidence(), ZERO_PI,
    )
    for k, x in enumerate(traj.states):
        assert x.t == k * 0.1  # exact product, not accumulated sum


def test_integrate_is_deterministic():
    def run():
        return integrate(
            State(0.2, 0.6, 0.2, 0.0), 1.7, 300, builtin_method("ssprk33"),
            ModelParams(0.05, 0.25, 0.1867, 0.011),
            media_incidence(0.0115, 0.001), recruitment_from_key("choiceA"),
        )

    a, b = run(), run()
    assert [x.as_tuple() for x in a.states] == [x.as_tuple() for x in b.states]


def test_stage_min_bounds_step_states():
    traj = integrate(
        State(0.2, 0.6, 0.2, 0.0), 4.0, 50, builtin_method("ssprk22"),
        ModelParams(0.05, 0.25, 0.1867, 0.011),
        media_incidence(0.0115, 0.001), recruitment_from_key("choiceC"),
    )
    step_min = min(min(x.as_tuple()) for x in traj.states)
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
