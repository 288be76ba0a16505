"""The positivity certificate that decides the threshold search's lower end.

Every tau the certificate accepts is run here in full, internal stages
included: no stage may be below 0.0, no row's population above the widened
cap the certificate returns, and the search's own probe must pass.
"""

import math
import random

import pytest
from hypothesis import event, given
from hypothesis import strategies as st

from ssp_seir import checks, stepping
from ssp_seir.checks import _positivity_ok, find_empirical_bound
from ssp_seir.config import DEFAULT_CONFIG_TEXT, parse_config
from ssp_seir.model import (
    RECRUITMENT_KEYS,
    ModelParams,
    ProblemSetup,
    RateFunction,
    State,
    choice_b_recruitment,
    holling_incidence,
    linear_incidence,
    media_exp_incidence,
    media_incidence,
    recruitment_from_key,
)
from ssp_seir.shu_osher import BUILTIN_METHOD_KEYS, ShuOsherForm, builtin_method
from ssp_seir.step_bounds import bound_report, positivity_certificate
from ssp_seir.stepping import integrate

TABLE_TEXT = DEFAULT_CONFIG_TEXT.replace("s0=0.2", "s0=0.7").replace("e0=0.6", "e0=0.1")
GOLDEN_TEXT = (
    DEFAULT_CONFIG_TEXT.replace("incidence=media", "incidence=linear")
    .replace("recruitments=choiceA,choiceB,choiceC", "recruitments=const")
)
CONFIGS = {"default": DEFAULT_CONFIG_TEXT, "table": TABLE_TEXT, "golden": GOLDEN_TEXT}
INCIDENCES = ("linear", "holling", "media")


def _certified_run(setup, method, tau, t_f):
    """Whether the certificate accepts ``tau``; if it does, the run it
    decides is checked in full, stages included."""
    widened = positivity_certificate(setup, method, tau, t_f)
    if widened is None:
        return False
    x0 = setup.x0
    traj = integrate(
        x0, tau, math.ceil(t_f / tau), method, setup.params, setup.incidence, setup.recruitment,
    )
    label = (setup.incidence.key, setup.recruitment.key, method.key, tau, t_f)
    assert traj.stage_min >= 0.0, (label, traj.stage_min)
    assert max(traj.populations) <= widened, label
    assert _positivity_ok(setup, method, tau, t_f), label
    return True


def _certified_edge(setup, method, tau, t_f):
    """A step in ``[tau/2, 2*tau]`` at the edge of what the certificate
    accepts, by bisection on its verdict, or None when it accepts neither
    end: the step at which a certificate too lax would fail first."""
    def accepts(x):
        return positivity_certificate(setup, method, x, t_f) is not None

    lo, hi = 0.5 * tau, 2.0 * tau
    if accepts(hi):
        return hi
    if not accepts(lo):
        return None
    while lo < 0.5 * (lo + hi) < hi:
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if accepts(mid) else (lo, mid)
    return lo


@pytest.mark.parametrize("name", CONFIGS)
def test_certificate_is_sound_on_the_fixed_configs(name):
    config = parse_config(CONFIGS[name])
    certified = rows = 0
    for pi_key in config.recruitments:
        setup = config.setup(pi_key)
        for method_key in config.methods:
            method = builtin_method(method_key)
            report = bound_report(setup, method, config.tf)
            rows += 1
            lower = _certified_run(setup, method, report.tau_method, config.tf)
            certified += lower
            if report.binding_term == "sigma":
                # a row where sigma binds has its lower end certified
                assert lower, (pi_key, method_key)
            edge = _certified_edge(setup, method, report.tau_method, config.tf)
            if edge is not None:
                assert _certified_run(setup, method, edge, config.tf)
    # the published rows and the default ones: sigma binds in every row
    assert certified == (rows if name != "golden" else 0), certified


def _scaled_setup(rng, incidence, recruitment, scale):
    """A random setup in units ``scale`` times the published ones: the
    state and kappa times ``scale``, the incidence's parameters over it."""
    params = ModelParams(
        rng.uniform(0.02, 0.2), rng.uniform(0.05, 0.5), rng.uniform(0.05, 0.5),
        rng.uniform(0.0, 0.05),
    )
    if incidence == "linear":
        f = linear_incidence()
    elif incidence == "holling":
        k = rng.uniform(0.5, 3.0)
        f = holling_incidence(rng.uniform(0.2, 1.0) / scale, rng.uniform(0.5, 2.0) / scale**k, k)
    else:
        f = media_incidence(rng.uniform(0.005, 0.05) / scale, rng.uniform(0.0, 0.01) / scale)
    pi = recruitment_from_key(recruitment, kappa=rng.uniform(0.02, 0.1) * scale)
    x = [rng.choice([0.0, rng.uniform(0.0, 1.0)]) for _ in range(4)]
    return ProblemSetup(params, f, pi, State(*(v * scale for v in x)))


def test_certificate_is_sound_on_seeded_random_configs():
    # every incidence, recruitment and method, with populations from 1 to
    # 1e9: the lower end of the search and the edge of what the certificate
    # accepts, each run in full wherever the certificate accepts it
    rng = random.Random(20261021)
    certified = 0
    for incidence in INCIDENCES:
        for recruitment in RECRUITMENT_KEYS:
            for draw in range(2):
                scale = 10.0 ** rng.uniform(0.0, 9.0)
                setup = _scaled_setup(rng, incidence, recruitment, scale)
                for key in BUILTIN_METHOD_KEYS:
                    method = builtin_method(key)
                    tau_t = bound_report(setup, method, 1000.0).tau_method
                    t_f = 100.0 * tau_t / method.ssp_c
                    certified += _certified_run(setup, method, tau_t, t_f)
                    edge = _certified_edge(setup, method, tau_t, t_f)
                    if edge is not None:
                        certified += _certified_run(setup, method, edge, t_f)
    assert certified >= 150, certified


@given(
    mu=st.floats(1e-6, 1.0),
    rates=st.tuples(*[st.floats(0.0, 1.0)] * 3),
    incidence=st.sampled_from(INCIDENCES),
    recruitment=st.sampled_from(RECRUITMENT_KEYS),
    kappa=st.floats(0.0, 1.0),
    shape=st.tuples(st.floats(0.0, 2.0), st.floats(0.0, 3.0), st.floats(0.5, 3.0)),
    state=st.tuples(*[st.one_of(st.just(0.0), st.floats(0.0, 2.0))] * 4),
    exponent=st.floats(0.0, 9.0),
    key=st.sampled_from(BUILTIN_METHOD_KEYS),
    fraction=st.one_of(st.just(1.0), st.just(0.0), st.floats(0.25, 2.0)),
    steps=st.integers(1, 100),
)
def test_certified_runs_never_go_below_zero(
    mu, rates, incidence, recruitment, kappa, shape, state, exponent, key, fraction, steps,
):
    # a fraction of 0.0 stands for the edge of what the certificate accepts
    scale = 10.0**exponent
    a, b, k = shape
    f = {
        "linear": linear_incidence,
        "holling": lambda: holling_incidence(a / scale, b / scale**k, k),
        "media": lambda: media_incidence(a / scale, b / scale),
    }[incidence]()
    setup = ProblemSetup(
        ModelParams(mu, *rates), f, recruitment_from_key(recruitment, kappa=kappa * scale),
        State(*(v * scale for v in state)),
    )
    method = builtin_method(key)
    tau_t = bound_report(setup, method, 1000.0).tau_method
    if not math.isfinite(tau_t):
        return
    t_f = steps * tau_t
    tau = fraction * tau_t if fraction else _certified_edge(setup, method, tau_t, t_f)
    event("certified" if tau and _certified_run(setup, method, tau, t_f) else "declined")


# ---------------------------------------------------------------------------
# what the certificate declines
# ---------------------------------------------------------------------------

TABLE_SETUP = parse_config(TABLE_TEXT).setup("choiceB")
SSPRK33 = builtin_method("ssprk33")
TABLE_TAU = bound_report(TABLE_SETUP, SSPRK33, 1000.0).tau_method


def _declined(setup, factor=1.0):
    """Whether the certificate declines ``setup`` at ``factor`` times the
    table row's step."""
    return positivity_certificate(setup, SSPRK33, factor * TABLE_TAU, 1000.0) is None


def test_the_table_row_it_declines_below_is_certified():
    # the control for the cases below: each changes one thing of this row
    assert not _declined(TABLE_SETUP)


def test_certificate_declines_mu_zero():
    # with K = 0 too, so that the cap N0 + K/mu is finite
    params = TABLE_SETUP.params._replace(mu=0.0)
    setup = TABLE_SETUP._replace(params=params, recruitment=choice_b_recruitment(0.0))
    assert not _declined(TABLE_SETUP._replace(recruitment=choice_b_recruitment(0.0)))
    assert _declined(setup, factor=0.5)


def test_certificate_declines_media_exp():
    setup = TABLE_SETUP._replace(incidence=media_exp_incidence(0.0115, 0.001))
    assert _declined(setup, factor=0.5)


def test_certificate_declines_a_formula_recruitment():
    catalog = choice_b_recruitment(0.05)
    for entry in (
        RateFunction("mine", catalog.formula, catalog.sup, catalog.params),
        RateFunction("choiceB", "kappa * 0.5", catalog.sup, catalog.params),
        RateFunction("choiceB", "fn(x)", catalog.sup, {"fn": catalog.fn}),
    ):
        assert _declined(TABLE_SETUP._replace(recruitment=entry), factor=0.5), entry


def test_certificate_declines_a_catalog_formula_with_a_negative_parameter():
    catalog = choice_b_recruitment(0.05)
    negative = RateFunction("choiceB", catalog.formula, catalog.sup, {"kappa": -0.05})
    assert _declined(TABLE_SETUP._replace(recruitment=negative), factor=0.5)
    media = TABLE_SETUP.incidence
    negative = RateFunction(
        "media", media.formula, media.sup, {"nu": -0.0115, "eta": 0.001}, alpha=0.0115,
    )
    assert _declined(TABLE_SETUP._replace(incidence=negative), factor=0.5)


def test_certificate_declines_a_run_whose_step_count_is_rejected(monkeypatch):
    # it counts the run's steps as a probe does: a run over the budget is
    # declined, and so are sigma = 1e308, whose t_f/tau is infinite (which
    # was an OverflowError), and a run of no steps, with t_f = 0 or a
    # t_f/tau that underflows to 0 (which was a ValueError from the sup)
    steps = math.ceil(1000.0 / TABLE_TAU)
    monkeypatch.setattr(stepping, "STEP_BUDGET", steps)
    assert not _declined(TABLE_SETUP)
    monkeypatch.setattr(stepping, "STEP_BUDGET", steps - 1)
    assert _declined(TABLE_SETUP)
    huge = TABLE_SETUP._replace(params=TABLE_SETUP.params._replace(sigma=1e308))
    tau = bound_report(huge, SSPRK33, 1000.0).tau_method
    assert 1000.0 / tau == math.inf
    assert positivity_certificate(huge, SSPRK33, tau, 1000.0) is None
    assert 5e-324 / 2.5 == 0.0 and 2.5 < TABLE_TAU
    for t_f in (0.0, 5e-324):
        assert positivity_certificate(TABLE_SETUP, SSPRK33, 2.5, t_f) is None


@pytest.mark.parametrize("x0", [
    State(0.7, -1e-300, 0.2, 0.0), State(0.7, 0.1, 0.2, -0.0, t=-1.0),
    State(0.7, 0.1, math.inf, 0.0), State(0.7, 0.1, 0.2, 0.0, t=math.nan),
], ids=["negative-compartment", "negative-t0", "infinite-compartment", "nan-t0"])
def test_certificate_declines_an_inadmissible_initial_state(x0):
    assert _declined(TABLE_SETUP._replace(x0=x0), factor=0.5)


def test_certificate_declines_a_form_with_a_negative_alpha():
    # consistent (each row sums to 1) but with alpha_20 < 0; the same form
    # with non-negative weights is certified at the same step
    def form(a20, a21, v2):
        return ShuOsherForm(
            ((0.0, 0.0, 0.0), (1.0, 0.0, 0.0), (a20, a21, 0.0)), (1.0, 0.0, v2), 1.0, (0.0, 1.0),
        )

    tau = bound_report(TABLE_SETUP, builtin_method("ssprk22"), 1000.0).tau_method
    assert positivity_certificate(TABLE_SETUP, form(0.0, 0.5, 0.5), tau, 1000.0) is not None
    assert positivity_certificate(TABLE_SETUP, form(-0.25, 0.75, 0.5), tau, 1000.0) is None


def test_certificate_declines_one_ulp_above_a_binding_incidence():
    setup = TABLE_SETUP._replace(incidence=linear_incidence())
    for key in BUILTIN_METHOD_KEYS:
        method = builtin_method(key)
        report = bound_report(setup, method, 1000.0)
        assert report.binding_term == "incidence"
        up = math.nextafter(report.tau_method, math.inf)
        assert positivity_certificate(setup, method, up, 1000.0) is None, key


def test_certificate_declines_the_run_whose_bound_coefficients_allow_a_stage_below_zero():
    # test_bound_coefficients_at_or_above_zero_allow_a_stage_below_zero's
    # run (mu = 0): every bound coefficient is >= 0 and a stage is below 0
    params = ModelParams(0.0, 0.9546322325266341, 0.0, 0.8456990768794442)
    x0 = State(5.564543226524334e-07, 1.4634415443986684, 0.0, 0.0)
    setup = ProblemSetup(params, linear_incidence(), recruitment_from_key("const", kappa=1.24e-300), x0)
    method = builtin_method("ssprk22")
    tau = 0.683320508147971
    traj = integrate(x0, tau, 100, method, params, setup.incidence, setup.recruitment)
    assert traj.stage_min < 0.0
    assert positivity_certificate(setup, method, tau, 100 * tau) is None


def test_certificate_covers_the_float_drift_of_the_population():
    # mu > 0 but so small that the population is all but conserved, while
    # its float value drifts above the cap N0 + K/mu that B is taken over.
    # At tau_t every bound coefficient is >= 0, B over the float cap
    # included, yet a stage falls below 0 (found by a search of such runs).
    # The certificate declines tau_t, and at the edge of what it accepts the
    # run stays >= 0
    params = ModelParams(
        2.1350040686658726e-134, 0.5046021347290324, 7.369869114365094e-137, 0.4932860150983449,
    )
    x0 = State(1.109614035730618e-09, 0.9660882177083274, 0.008643084495293652, 0.0)
    pi = recruitment_from_key("const", kappa=1.550523302280813e-268)
    setup = ProblemSetup(params, linear_incidence(), pi, x0)
    method = builtin_method("ssprk22")
    report = bound_report(setup, method, 1000.0)
    tau_t = report.tau_method
    h, c_s = tau_t / method.r, 1.0 - tau_t / method.r * params.mu
    assert report.binding_term == "incidence" and h * report.b_sup <= c_s
    traj = integrate(x0, tau_t, 100, method, params, setup.incidence, pi)
    assert traj.stage_min < 0.0
    assert positivity_certificate(setup, method, tau_t, 100 * tau_t) is None
    edge = _certified_edge(setup, method, tau_t, 100 * tau_t)
    assert edge is not None and _certified_run(setup, method, edge, 100 * tau_t)


def test_certificate_never_reads_a_declared_sup():
    # entries with a catalog key, formula and parameters but a sup that
    # lies (0): the certificate reads the catalog's closed forms, so it
    # decides as on the catalog's own entries, also at the step the lying
    # sups would allow
    choice_a = recruitment_from_key("choiceA")
    lying = TABLE_SETUP._replace(
        incidence=RateFunction("linear", "x", lambda hi: 0.0, alpha=1.0),
        recruitment=RateFunction("choiceA", choice_a.formula, lambda t: 0.0, choice_a.params),
    )
    honest = TABLE_SETUP._replace(incidence=linear_incidence(), recruitment=choice_a)
    for key in BUILTIN_METHOD_KEYS:
        method = builtin_method(key)
        claimed = bound_report(lying, method, 1000.0).tau_method
        assert positivity_certificate(lying, method, claimed, 1000.0) is None
        for factor in (0.01, 0.1, 0.5, 1.0):
            tau = factor * bound_report(honest, method, 1000.0).tau_method
            assert (
                positivity_certificate(lying, method, tau, 1000.0)
                == positivity_certificate(honest, method, tau, 1000.0)
            ), (key, factor)


# ---------------------------------------------------------------------------
# the search it serves
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("name", ["table", "golden"])
def test_search_with_the_certificate_keeps_every_threshold(monkeypatch, name):
    # the certificate skips an integrate call and changes no probe after it
    config = parse_config(CONFIGS[name])
    rows = []
    for pi_key in config.recruitments:
        setup = config.setup(pi_key)
        for method_key in config.methods:
            method = builtin_method(method_key)
            tau_t = bound_report(setup, method, config.tf).tau_method
            rows.append((setup, method, (tau_t, 2.0 * tau_t)))

    def search():
        return [
            find_empirical_bound(setup, method, config.tf, bracket, config.bisect_tol).hex()
            for setup, method, bracket in rows
        ]

    certified = search()
    monkeypatch.setattr(checks, "positivity_certificate", lambda *args: None)
    assert search() == certified
