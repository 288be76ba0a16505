"""Shu-Osher stepping, Euler as its one-stage form: reduction, conservation,
determinism."""

import collections
import io
import math
import random
import traceback

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from ssp_seir.model import (
    INCIDENCE_KEYS,
    RECRUITMENT_KEYS,
    ModelParams,
    ProblemSetup,
    RateFunction,
    State,
    constant_recruitment,
    counterexample_cosine_recruitment,
    custom_incidence,
    custom_recruitment,
    incidence_from_key,
    linear_incidence,
    media_incidence,
    recruitment_from_key,
    rhs,
)
from ssp_seir.butcher import builtin_tableau, shu_osher_from_butcher
from ssp_seir.shu_osher import BUILTIN_METHOD_KEYS, ShuOsherForm, builtin_method
from ssp_seir.stepping import (
    IntegrationOverflowError,
    _kernel,
    integrate,
    trajectory_to_csv,
)

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
    assert traj.data.tolist() == [2.0, 1.0, 0.0, 0.0, 0.0]


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


def test_trajectory_views_agree_with_its_states():
    traj = integrate(
        State(0.2, 0.6, 0.2, 0.0, t=1.5), 0.7, 30, builtin_method("ssprk33"),
        ModelParams(0.05, 0.25, 0.1867, 0.011), media_incidence(0.0115, 0.001),
        recruitment_from_key("choiceA"),
    )
    states = traj.states
    assert len(states) == len(traj) == 31
    assert [x.t for x in states] == traj.times
    assert [tuple(c) for c in traj.compartments] == list(zip(*(x.as_tuple() for x in states)))
    assert [repr(x.total) for x in states] == [repr(n) for n in traj.populations]
    for k in (0, 7, 30, -1, -31):
        x = states[k]
        assert traj.row(k).tolist() == [x.t, *x.as_tuple()]
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


# ---------------------------------------------------------------------------
# the generated step kernel against a plain stage-by-stage oracle
# ---------------------------------------------------------------------------


def _oracle(x0, tau, n_steps, form, p, f, pi, stop_below=None):
    """Shu-Osher stepping written out stage by stage from the model equations.

    Returns ``(rows, stage_min, overflow_step)`` with rows ``(t, s, e, i, r)``;
    ``overflow_step`` is None unless a step overflowed or turned non-finite.
    """

    def derivative(t, x):
        s, e, i, r = x
        inc = f.fn(i) * s
        pi_t = pi.fn(t)
        return (
            pi_t - p.mu * s - inc,
            inc - (p.mu + p.sigma) * e,
            p.sigma * e - (p.mu + p.gamma) * i + p.delta * r,
            p.gamma * i - (p.mu + p.delta) * r,
        )

    m, h = form.m, tau / form.r
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
                    d = derivative(t + form.c_stage[q] * tau, stage)
                    euler.append([u + h * du for u, du in zip(stage, d)])
                else:
                    euler.append(None)
                v = form.v[q + 1]
                acc = [v * u for u in x] if v != 0.0 else [0.0] * 4
                for j in range(q + 1):
                    a = form.alpha[q + 1][j]
                    if a != 0.0:
                        acc = [u + a * w for u, w in zip(acc, euler[j])]
                stage = tuple(acc)
                step_low = min(step_low, min(stage))
        except OverflowError:
            return rows, low, k
        low, x = step_low, stage
        if not all(math.isfinite(u) for u in x):
            return rows, low, k
        rows.append((x0.t + (k + 1) * tau, *x))
        if stop_below is not None and not min(x) >= stop_below:
            break
    return rows, low, None


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


# user functions, validated once: their constructors scan a 10,001-point grid
_CUSTOM_INCIDENCE = custom_incidence(lambda x: 0.8 * x * math.exp(-x), alpha=0.8)
_CUSTOM_RECRUITMENT = custom_recruitment(lambda t: 0.5 - 0.5 * math.cos(t), bound=1.0)


def _seeded_entry(rng, key, keys, from_key, custom, **params):
    """The catalog entry ``key``, the custom entry, or (key "callable") a
    drawn catalog entry's ``fn`` wrapped as a bare callable."""
    if key == "custom":
        return custom
    entry = from_key(rng.choice(keys) if key == "callable" else key, **params)
    return RateFunction("callable", entry.fn, sup=entry.sup) if key == "callable" else entry


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
    stop_below = rng.choice([None, -1e-12, 0.0])
    return x0, tau, rng.randint(0, 120), rng.choice(forms), p, f, pi, stop_below


def test_integrate_matches_stagewise_oracle():
    rng = random.Random(8)
    forms = _oracle_forms()
    seen = {"overflow": 0, "stopped": 0, "full": 0}
    # runs (and overflowing runs) per incidence and per recruitment entry
    runs = collections.Counter()
    overflows = collections.Counter()
    for _ in range(1200):
        x0, tau, n, form, p, f, pi, stop_below = _seeded_run(rng, forms)
        rows, stage_min, overflow_step = _oracle(x0, tau, n, form, p, f, pi, stop_below)
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


def _run_to_end(args, stop_below, every):
    """``(rows, stage_min, overflow step or None, method)`` of a run."""
    try:
        traj, overflow_step = integrate(*args, stop_below=stop_below, every=every), None
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

    with pytest.raises(ZeroDivisionError) as exc_info:
        integrate(State(1.0, 1.0, 1.0, 1.0), 0.5, 3, builtin_method("ssprk33"),
                  ModelParams(0.1, 0.1, 0.1, 0.1), RateFunction("failing", failing, sup=abs),
                  ZERO_PI)
    text = "".join(traceback.format_exception(exc_info.value))
    assert "step kernel" in text and "inc = (f_fn(i)) * s" in text


@pytest.mark.parametrize("form, calls", [
    (builtin_method("euler"), 1), (builtin_method("ssprk22"), 2),
    (builtin_method("ssprk33"), 3), (builtin_method("ssprk104"), 7), (_sparse_form(), 1),
], ids=["euler", "ssprk22", "ssprk33", "ssprk104", "sparse"])
def test_recruitment_evaluated_once_per_distinct_abscissa(form, calls):
    # ssprk104's ten abscissae repeat 1/3, 1/2 and 2/3 exactly
    choice_a = recruitment_from_key("choiceA")
    times = []

    def counted(t):
        times.append(t)
        return choice_a.fn(t)

    pi = RateFunction("counted", counted, sup=choice_a.sup)
    args = (State(0.2, 0.6, 0.2, 0.0), 0.7, 25, form,
            ModelParams(0.05, 0.25, 0.1867, 0.011), media_incidence(0.0115, 0.001))
    traj = integrate(*args, pi)
    assert len(times) == 25 * calls
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
    called = RateFunction("callable", other.fn, sup=other.sup)
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
