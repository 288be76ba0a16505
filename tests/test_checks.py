"""Trajectory verdicts, oscillation detection and the threshold search."""

import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ssp_seir.checks import (
    NEGATIVITY_THRESHOLD,
    InsufficientDataError,
    Verdict,
    check_limit,
    check_nonnegativity,
    check_population_bound,
    detect_oscillation,
    find_empirical_bound,
    _positivity_ok,
)
from ssp_seir.model import (
    INCIDENCE_KEYS,
    RECRUITMENT_KEYS,
    ModelParams,
    ProblemSetup,
    RateFunction,
    State,
    constant_recruitment,
    counterexample_cosine_recruitment,
    holling_incidence,
    incidence_from_key,
    linear_incidence,
    media_incidence,
    recruitment_from_key,
)
from ssp_seir.shu_osher import BUILTIN_METHOD_KEYS, builtin_method
from ssp_seir.step_bounds import bound_report
from ssp_seir.stepping import IntegrationOverflowError, Trajectory, integrate

EXPERIMENT_PARAMS = ModelParams(0.05, 0.25, 0.1867, 0.011)


def _experiment_setup(pi_key):
    return ProblemSetup(
        EXPERIMENT_PARAMS,
        media_incidence(0.0115, 0.001),
        recruitment_from_key(pi_key),
        State(0.2, 0.6, 0.2, 0.0),
    )


def _run(setup, method_key, tau, t_f):
    return integrate(
        setup.x0, tau, math.ceil(t_f / tau), builtin_method(method_key),
        setup.params, setup.incidence, setup.recruitment,
    )


def test_nonnegativity_passes_below_threshold():
    traj = _run(_experiment_setup("choiceC"), "ssprk22", 3.3, 30.0)
    assert check_nonnegativity(traj).passed


def test_nonnegativity_fails_above_threshold_with_witness():
    traj = _run(_experiment_setup("choiceC"), "ssprk22", 4.8, 30.0)
    verdict = check_nonnegativity(traj)
    assert not verdict.passed
    assert verdict.witness_compartment == "I"
    assert verdict.witness_value < 0.0
    assert "FAIL" in verdict.as_text("nonneg")


def test_nonnegativity_on_identically_zero_trajectory():
    traj = integrate(
        State(0.0, 0.0, 0.0, 0.0), 0.5, 40, builtin_method("euler"),
        EXPERIMENT_PARAMS, linear_incidence(), constant_recruitment(0.0),
    )
    assert check_nonnegativity(traj, include_stages=True).passed


def test_population_bound_on_experiment_runs():
    for key in ("euler", "ssprk104"):
        setup = _experiment_setup("choiceB")
        report = bound_report(setup, builtin_method(key), 1000.0)
        traj = _run(setup, key, report.tau_method, 1000.0)
        assert check_population_bound(traj, report.pop_cap).passed


def test_population_bound_decay_without_recruitment():
    traj = integrate(
        State(2.0, 1.0, 0.5, 0.5), 0.5, 100, builtin_method("euler"),
        ModelParams(0.3, 0.1, 0.1, 0.1), linear_incidence(), constant_recruitment(0.0),
    )
    assert check_population_bound(traj, 4.0).passed
    assert not check_population_bound(traj, 3.999).passed


def test_population_linear_growth_exact_for_mu_zero():
    p = 0.2
    tau = 0.5
    traj = integrate(
        State(1.0, 0.0, 0.0, 0.0), tau, 50, builtin_method("euler"),
        ModelParams(0.0, 0.0, 0.0, 0.0), linear_incidence(), constant_recruitment(p),
    )
    for k, x in enumerate(traj.states):
        assert x.total == pytest.approx(1.0 + k * tau * p, rel=1e-14)


# a compartment value: ordinary, exactly at or just past the negativity
# threshold, a signed zero, or NaN
_CELL = st.one_of(
    st.floats(-1.0, 3.0),
    st.sampled_from([-1e-12, -2e-12, -0.0, math.nan]),
)


@settings(max_examples=300, deadline=None)
@given(
    rows=st.lists(st.tuples(_CELL, _CELL, _CELL, _CELL), min_size=1, max_size=20),
    cap=st.floats(0.5, 8.0),
)
def test_array_checks_match_per_state_scan(rows, cap):
    data = np.array([[0.5 * k, *row] for k, row in enumerate(rows)])
    traj = Trajectory(data, 0.5, "euler", math.nan)
    states = traj.states
    negative = next(
        (
            (k, name, value)
            for k, x in enumerate(states)
            for name, value in zip("SEIR", x.as_tuple())
            if not value >= -1e-12
        ),
        None,
    )
    over_cap = next(
        ((k, "N", x.total) for k, x in enumerate(states) if not x.total <= cap * (1.0 + 1e-10)),
        None,
    )
    for verdict, expected in (
        (check_nonnegativity(traj), negative),
        (check_population_bound(traj, cap), over_cap),
    ):
        if expected is None:
            assert verdict == Verdict(True)
            continue
        assert not verdict.passed
        assert (verdict.witness_index, verdict.witness_compartment) == expected[:2]
        assert type(verdict.witness_value) is float
        # repr compares NaN and the sign of zero too
        assert repr(verdict.witness_value) == repr(expected[2])


def test_check_limit_constant_recruitment_fixed_point():
    p, mu = 0.3, 0.5
    traj = integrate(
        State(4.0, 0.0, 0.0, 0.0), 0.5, 400, builtin_method("euler"),
        ModelParams(mu, 0.0, 0.0, 0.0), linear_incidence(), constant_recruitment(p),
    )
    assert check_limit(traj, p, mu) <= 1e-10
    with pytest.raises(ValueError):
        check_limit(traj, p, 0.0)


def test_check_limit_experiment_choices():
    # recruitment tends to kappa = mu, so N approaches 1
    for pi_key in ("choiceA", "choiceB", "choiceC"):
        traj = _run(_experiment_setup(pi_key), "euler", 3.0, 1000.0)
        assert check_limit(traj, 0.05, 0.05) <= 1e-2


def _oscillating_trajectory(n_steps):
    return integrate(
        State(2.0, 0.0, 0.0, 0.0), 0.5, n_steps, builtin_method("euler"),
        ModelParams(1.0, 0.0, 0.0, 0.0), linear_incidence(),
        counterexample_cosine_recruitment(),
    )


def test_detect_oscillation_two_limits():
    even, odd = detect_oscillation(_oscillating_trajectory(200), period=2)
    assert even == pytest.approx(4.0 / 3.0, abs=1e-8)
    assert odd == pytest.approx(2.0 / 3.0, abs=1e-8)


def test_even_limit_matches_fixed_point_oracle():
    # the even sub-sequence obeys x -> x/4 + 1
    x = 2.0
    for _ in range(50):
        x = x / 4.0 + 1.0
    even, _ = detect_oscillation(_oscillating_trajectory(500), period=2)
    assert even == pytest.approx(x, abs=1e-12)


def test_detect_oscillation_constant_recruitment_degenerate():
    traj = integrate(
        State(4.0, 0.0, 0.0, 0.0), 0.5, 200, builtin_method("euler"),
        ModelParams(0.5, 0.0, 0.0, 0.0), linear_incidence(), constant_recruitment(0.3),
    )
    limits = detect_oscillation(traj, period=2)
    assert all(v == pytest.approx(0.6, abs=1e-8) for v in limits)


def test_detect_oscillation_requires_enough_data():
    with pytest.raises(InsufficientDataError):
        detect_oscillation(_oscillating_trajectory(10), period=2)
    with pytest.raises(ValueError):
        detect_oscillation(_oscillating_trajectory(100), period=1)


def test_empirical_bound_linear_decay_oracle():
    # flows off except sigma: E^{n+1} = (1 - tau*(mu+sigma))*E^n, so the
    # threshold is exactly 1/(mu+sigma) = 4 (equality still non-negative)
    setup = ProblemSetup(
        ModelParams(0.0, 0.25, 0.0, 0.0),
        linear_incidence(),
        constant_recruitment(0.0),
        State(0.0, 1.0, 0.0, 0.0),
    )
    tau_r = find_empirical_bound(
        setup, builtin_method("euler"), t_f=100.0, bracket=(2.0, 3.0), tol=1e-4
    )
    assert tau_r == pytest.approx(4.0, abs=1e-4)


def test_empirical_bound_ends_at_adjacent_doubles():
    # a tol below the float spacing at the threshold used to spin forever;
    # the search now ends with lo and hi adjacent, returning one of them.
    # The recruitment counts its calls, so a regression fails instead of hanging.
    calls = 0

    def zero(t):
        nonlocal calls
        calls += 1
        if calls > 100_000:
            raise RuntimeError("bisection did not end")
        return 0.0

    setup = ProblemSetup(
        ModelParams(0.0, 0.25, 0.0, 0.0),
        linear_incidence(),
        RateFunction("zero", zero, sup=lambda horizon: 0.0),
        State(0.0, 1.0, 0.0, 0.0),
    )
    method = builtin_method("euler")
    tau_r = find_empirical_bound(setup, method, t_f=8.0, bracket=(2.0, 3.0), tol=1e-20)
    assert tau_r == pytest.approx(4.0, abs=1e-11)
    up, down = math.nextafter(tau_r, math.inf), math.nextafter(tau_r, -math.inf)
    if _positivity_ok(setup, method, tau_r, 8.0):
        assert not _positivity_ok(setup, method, up, 8.0)
    else:
        assert _positivity_ok(setup, method, down, 8.0)


def test_empirical_bound_is_deterministic():
    setup = _experiment_setup("choiceC")

    def search():
        return find_empirical_bound(
            setup, builtin_method("ssprk22"), t_f=30.0, bracket=(3.3, 6.6), tol=1e-3
        )

    assert search() == search()


def test_empirical_bound_holling_fractional_exponent():
    # probes above the bound drive I negative; with k=1.5 the incidence must
    # stay real there, or the search dies comparing complex numbers
    f = holling_incidence(1.0, 1.0, 1.5)
    assert isinstance(f(-0.25), float)
    setup = ProblemSetup(
        EXPERIMENT_PARAMS, f, recruitment_from_key("choiceC"), State(0.2, 0.6, 0.2, 0.0)
    )
    method = builtin_method("ssprk22")
    tau_t = bound_report(setup, method, 100.0).tau_method
    tau_r = find_empirical_bound(setup, method, 100.0, (tau_t, 2.0 * tau_t), tol=1e-3)
    assert math.isfinite(tau_r)
    assert tau_r >= tau_t


def _run_to_end(setup, method, tau, n_steps, **floor):
    """The trajectory and the overflow step (None if the run finished)."""
    try:
        traj = integrate(
            setup.x0, tau, n_steps, method,
            setup.params, setup.incidence, setup.recruitment, **floor,
        )
    except IntegrationOverflowError as exc:
        return exc.partial, exc.step_index
    return traj, None


@pytest.mark.parametrize("method_key", BUILTIN_METHOD_KEYS)
@pytest.mark.parametrize("f_key", INCIDENCE_KEYS)
def test_stopped_probe_is_a_prefix_of_the_full_run(method_key, f_key):
    # tau from below the a priori bound to about 3x it: passing runs, runs
    # that turn negative and runs that overflow
    rng = random.Random(f"{method_key}/{f_key}")
    method = builtin_method(method_key)
    t_f = 150.0
    for pi_key in RECRUITMENT_KEYS:
        setup = ProblemSetup(
            ModelParams(
                rng.uniform(0.02, 0.1), rng.uniform(0.1, 0.5),
                rng.uniform(0.05, 0.3), rng.uniform(0.0, 0.05),
            ),
            incidence_from_key(
                f_key, nu=rng.uniform(0.005, 0.05), eta=rng.uniform(0.0, 0.01),
                c1=rng.uniform(0.5, 2.0), c2=rng.uniform(0.5, 2.0), k=rng.uniform(1.0, 3.0),
            ),
            recruitment_from_key(pi_key, kappa=rng.uniform(0.03, 0.07)),
            State(*(rng.uniform(0.0, 1.0) for _ in range(4))),
        )
        tau_t = bound_report(setup, method, t_f).tau_method
        for factor in (rng.uniform(0.5, 1.0), rng.uniform(1.0, 3.0), rng.uniform(1.0, 3.0)):
            tau = factor * tau_t
            n_steps = math.ceil(t_f / tau)
            full, full_overflow = _run_to_end(setup, method, tau, n_steps)
            verdict = check_nonnegativity(full)
            row_min = full.data[:, 1:].min(axis=1)
            # the package floor, and floors tied exactly with a row minimum
            # (the global one included), where >= and > part ways
            floors = [NEGATIVITY_THRESHOLD, float(row_min.min())]
            floors += [float(row_min[rng.randrange(len(full))]) for _ in range(2)]
            lengths = []
            for floor in floors:
                stopped, overflow = _run_to_end(setup, method, tau, n_steps, stop_below=floor)
                n = len(stopped)
                lengths.append(n)
                assert stopped.data.tobytes() == full.data[:n].tobytes()
                below = np.flatnonzero(~(row_min >= floor))
                if below.size:
                    assert overflow is None
                    assert n == below[0] + 1
                else:
                    assert overflow == full_overflow
                    assert n == len(full)
            # the probe floor ends the run at the full run's witness row
            assert lengths[0] == (len(full) if verdict.passed else verdict.witness_index + 1)
            assert _positivity_ok(setup, method, tau, t_f) == (
                verdict.passed and full_overflow is None
            )


def test_empirical_bound_validates_inputs():
    setup = _experiment_setup("choiceA")
    with pytest.raises(ValueError):
        find_empirical_bound(setup, builtin_method("euler"), 10.0, (2.0, 1.0))
    with pytest.raises(ValueError):
        find_empirical_bound(setup, builtin_method("euler"), 10.0, (1.0, 2.0), tol=0.0)


def test_verdict_text_pass():
    assert Verdict(True).as_text("x") == "x: PASS"
    assert bool(Verdict(True)) and not bool(Verdict(False))
