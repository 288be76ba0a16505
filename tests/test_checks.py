"""Trajectory verdicts, oscillation detection and the threshold search."""

import math
import random
from array import array

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ssp_seir import checks
from ssp_seir.checks import (
    NEGATIVITY_THRESHOLD,
    InsufficientDataError,
    Verdict,
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
from ssp_seir.step_bounds import bound_report, positivity_certificate
from ssp_seir.stepping import IntegrationOverflowError, Trajectory, integrate

from oracles import check_limit

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
    data = array("d", [v for k, row in enumerate(rows) for v in (0.5 * k, *row)])
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


@pytest.mark.parametrize("window", [0, -3])
def test_check_limit_rejects_an_empty_window(window):
    traj = _oscillating_trajectory(20)
    with pytest.raises(ValueError, match=f"window must be at least 1, got {window}"):
        check_limit(traj, 1.0, 1.0, window)


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
        RateFunction("zero", "fn(x)", lambda horizon: 0.0, {"fn": zero}),
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


@pytest.mark.parametrize("method_key, probes", [("euler", 17), ("ssprk104", 19)])
def test_empirical_bound_probes_through_integrate(monkeypatch, default_config, method_key, probes):
    # two rows of the published table (choiceA in its threshold state): the
    # bisection makes this many probes, each one an integrate call.  The
    # lower end tau_t is decided by the positivity certificate and not
    # integrated, so the first probe is the upper end
    calls = []

    def counted(*args, **kwargs):
        calls.append(args[1])
        return integrate(*args, **kwargs)

    monkeypatch.setattr(checks, "integrate", counted)
    config = default_config._replace(s0=0.7, e0=0.1, i0=0.2, r0=0.0)
    setup, method = config.setup("choiceA"), builtin_method(method_key)
    tau_t = bound_report(setup, method, config.tf).tau_method
    find_empirical_bound(setup, method, config.tf, (tau_t, 2.0 * tau_t), config.bisect_tol)
    assert positivity_certificate(setup, method, tau_t, config.tf) is not None
    assert len(calls) == probes and calls[0] == 2.0 * tau_t


@pytest.mark.parametrize("method_key, probes", [("euler", 18), ("ssprk104", 21)])
def test_empirical_bound_probes_a_failing_lower_end_once(
    monkeypatch, default_config, method_key, probes,
):
    # a lower end that fails becomes the upper end, known to fail: the
    # search does not probe it again, and reaches the value that the passing
    # half of the bracket gives, with as many probes
    config = default_config._replace(s0=0.7, e0=0.1, i0=0.2, r0=0.0)
    setup, method = config.setup("choiceA"), builtin_method(method_key)
    tau_t = bound_report(setup, method, config.tf).tau_method
    tau_r = find_empirical_bound(setup, method, config.tf, (tau_t, 2.0 * tau_t), config.bisect_tol)
    calls = []

    def counted(*args, **kwargs):
        calls.append(args[1])
        return integrate(*args, **kwargs)

    monkeypatch.setattr(checks, "integrate", counted)

    def search(bracket):
        calls.clear()
        return find_empirical_bound(setup, method, config.tf, bracket, config.bisect_tol), calls[:]

    failing_low, failing_calls = search((2.0 * tau_r, 4.0 * tau_r))
    passing_low, passing_calls = search((tau_r, 2.0 * tau_r))
    assert failing_low == passing_low
    assert failing_calls[:2] == [2.0 * tau_r, tau_r]
    assert len(failing_calls) == len(set(failing_calls)) == len(passing_calls) == probes


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
            row_min = [min(full.row(k)[1:]) for k in range(len(full))]
            # the package floor, and floors tied exactly with a row minimum
            # (the global one included), where >= and > part ways
            floors = [NEGATIVITY_THRESHOLD, min(row_min)]
            floors += [row_min[rng.randrange(len(full))] for _ in range(2)]
            lengths = []
            for floor in floors:
                stopped, overflow = _run_to_end(setup, method, tau, n_steps, stop_below=floor)
                n = len(stopped)
                lengths.append(n)
                assert stopped.data.tobytes() == full.data[: 5 * n].tobytes()
                below = [k for k, low in enumerate(row_min) if not low >= floor]
                if below:
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


_START = st.one_of(
    st.floats(0.0, 2.0),
    st.sampled_from([-1e-12, -2e-12, -0.5, -0.0, math.nan]),
)


@settings(max_examples=200, deadline=None)
@given(
    x0=st.tuples(_START, _START, _START, _START),
    method_key=st.sampled_from(BUILTIN_METHOD_KEYS),
    f_key=st.sampled_from(INCIDENCE_KEYS),
    factor=st.floats(0.2, 4.0),
    t_f=st.sampled_from([0.0, 30.0, 200.0]),
)
def test_probe_verdict_matches_the_full_run_check(x0, method_key, f_key, factor, t_f):
    # the probe reads its verdict off its last row; the full run is checked
    # row by row.  Start states may be negative or NaN, and large steps
    # overflow.
    method = builtin_method(method_key)
    setup = ProblemSetup(
        EXPERIMENT_PARAMS, incidence_from_key(f_key, nu=0.0115, eta=0.001),
        recruitment_from_key("choiceA"), State(*x0),
    )
    tau = factor * bound_report(
        setup._replace(x0=State(1.0, 0.0, 0.0, 0.0)), method, 200.0
    ).tau_method
    full, overflow = _run_to_end(setup, method, tau, math.ceil(t_f / tau))
    expected = check_nonnegativity(full).passed and overflow is None
    assert _positivity_ok(setup, method, tau, t_f) == expected


def test_empirical_bound_validates_inputs():
    setup = _experiment_setup("choiceA")
    with pytest.raises(ValueError):
        find_empirical_bound(setup, builtin_method("euler"), 10.0, (2.0, 1.0))
    with pytest.raises(ValueError):
        find_empirical_bound(setup, builtin_method("euler"), 10.0, (1.0, 2.0), tol=0.0)


@pytest.mark.parametrize(
    "t_f", [math.inf, math.nan, 0.0, -1.0], ids=["inf", "nan", "zero", "negative"]
)
def test_empirical_bound_rejects_a_horizon_that_is_not_finite_and_positive(t_f):
    # before: OverflowError or a conversion error from ceil(t_f/tau), a
    # 60-fold bracket doubling for 0.0, and a message about n_steps for -1
    setup = _experiment_setup("choiceA")
    with pytest.raises(ValueError, match=f"t_f must be finite and positive, got {t_f!r}"):
        find_empirical_bound(setup, builtin_method("euler"), t_f, (1.0, 2.0))


def test_verdict_text_pass():
    assert Verdict(True).as_text("x") == "x: PASS"
    assert bool(Verdict(True)) and not bool(Verdict(False))


def test_verdict_text_names_the_step_only_when_there_is_one():
    # ssprk104 at tau=25 keeps every step state non-negative while a stage
    # goes negative; a stage failure has no step index to print
    traj = _run(_experiment_setup("choiceA"), "ssprk104", 25.0, 300.0)
    assert check_nonnegativity(traj).passed
    verdict = check_nonnegativity(traj, include_stages=True)
    assert (verdict.witness_index, verdict.witness_compartment) == (None, "stage")
    assert verdict.as_text("non-negativity") == (
        f"non-negativity: FAIL (stage, value {traj.stage_min!r})"
    )
    assert Verdict(False, 3, "I", -0.5).as_text("x") == "x: FAIL (step 3, I, value -0.5)"
    assert Verdict(False, 3, None, -0.5).as_text("x") == "x: FAIL (step 3, value -0.5)"


def test_stage_verdict_refuses_an_untracked_run():
    # a run integrated with stages=False has no stage minimum to judge: the
    # stage verdict raises rather than pass it unchecked, while the step
    # verdict reads its rows as usual
    setup = _experiment_setup("choiceA")
    args = (setup.x0, 25.0, 12, builtin_method("ssprk104"), setup.params,
            setup.incidence, setup.recruitment)
    untracked = integrate(*args, stages=False)
    assert untracked.stage_min is None
    assert check_nonnegativity(untracked).passed
    with pytest.raises(ValueError, match="stage"):
        check_nonnegativity(untracked, include_stages=True)
    # the same run, tracked, fails at a stage
    assert not check_nonnegativity(integrate(*args), include_stages=True)
    # an overflow's partial run is untracked too
    with pytest.raises(IntegrationOverflowError) as exc_info:
        integrate(State(0.7, 0.1, 0.2, 0.0), 50.0, 100, builtin_method("euler"),
                  EXPERIMENT_PARAMS, linear_incidence(), recruitment_from_key("choiceC"),
                  stages=False)
    with pytest.raises(ValueError, match="stage"):
        check_nonnegativity(exc_info.value.partial, include_stages=True)


def _rows_run(*rows, stage_min=None):
    """A tracked run of the given ``S, E, I, R`` rows, with the stage
    minimum of its rows unless given."""
    data = array("d")
    for k, row in enumerate(rows):
        data += array("d", [0.5 * k, *row])
    low = min(min(row) for row in rows)
    return Trajectory(data, 0.5, "euler", low if stage_min is None else stage_min)


def test_scaled_negativity_threshold_reads_the_runs_size():
    eps = 2.0**-52
    # a run of size 1e4, whose threshold is -8*eps*1e4, about -1.8e-11
    run = _rows_run((1e4, 0.0, 0.0, 0.0), (1e4, -1e-11, 0.0, 0.0))
    assert not check_nonnegativity(run, include_stages=True)
    for cap in (1e4, 1e9, 1e15, math.inf):
        assert check_nonnegativity(run, include_stages=True, cap=cap)
    # a cap far above the run's size does not loosen the rule
    deep = _rows_run((1e4, 0.0, 0.0, 0.0), (1e4, -2e-11, 0.0, 0.0))
    verdict = check_nonnegativity(deep, cap=1e15)
    assert (verdict.passed, verdict.witness_index, verdict.witness_value) == (False, 1, -2e-11)
    assert -8 * eps * 1e4 > -2e-11
    # a cap below the run's size bounds it: -8*eps*600 is about -1.07e-12
    assert not check_nonnegativity(run, cap=600.0)
    # at the published scale the rule is the absolute -1e-12
    small = _rows_run((500.0, 0.0, 0.0, 0.0), (500.0, -1.01e-12, 0.0, 0.0))
    assert not check_nonnegativity(small, cap=1e12)
    # the stage minimum is judged against the same size
    stage = _rows_run((1e4, 0.0, 0.0, 0.0), (1e4, 0.0, 0.0, 0.0), stage_min=-1e-11)
    assert check_nonnegativity(stage, include_stages=True, cap=1e4)
    verdict = check_nonnegativity(stage, include_stages=True, cap=500.0)
    assert (verdict.witness_compartment, verdict.witness_value) == ("stage", -1e-11)
    # the first failing value is the one below the scaled threshold
    both = _rows_run((1e4, -1e-11, 0.0, 0.0), (1e4, 0.0, -1e-10, 0.0))
    verdict = check_nonnegativity(both, cap=1e4)
    assert (verdict.witness_index, verdict.witness_compartment) == (1, "I")
    # NaN fails at every scale, and a NaN population leaves the cap as the size
    nan = _rows_run((math.nan, 0.0, 0.0, 0.0), (1e4, -1e-11, 0.0, 0.0))
    verdict = check_nonnegativity(nan, cap=1e4)
    assert (verdict.witness_index, verdict.witness_compartment) == (0, "S")
    assert math.isnan(verdict.witness_value)
    # a size that is not finite scales nothing
    huge = _rows_run((math.inf, 0.0, 0.0, 0.0), (1.0, -1e-11, 0.0, 0.0))
    assert check_nonnegativity(huge, cap=math.inf).witness_value == -1e-11