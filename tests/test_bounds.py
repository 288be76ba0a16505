"""Step-size bounds, population caps and the stage-coefficient recurrences."""

import collections
import math
import random

import pytest

from ssp_seir.checks import (
    NEGATIVITY_THRESHOLD,
    _positivity_ok,
    check_nonnegativity,
    check_population_bound,
)
from ssp_seir.model import (
    RECRUITMENT_KEYS,
    ModelParams,
    ProblemSetup,
    State,
    choice_b_recruitment,
    holling_incidence,
    linear_incidence,
    media_incidence,
    recruitment_from_key,
    sup_incidence,
)
from ssp_seir.shu_osher import BUILTIN_METHOD_KEYS, builtin_method
from ssp_seir.step_bounds import bound_report, euler_step_bound, population_cap
from ssp_seir.stepping import integrate

from oracles import ab_coefficients, gamma_coefficients

EXPERIMENT_PARAMS = ModelParams(0.05, 0.25, 0.1867, 0.011)
EXPERIMENT_SETUP = ProblemSetup(
    EXPERIMENT_PARAMS,
    media_incidence(0.0115, 0.001),
    recruitment_from_key("choiceA"),
    State(0.2, 0.6, 0.2, 0.0),
)


def _experiment_b_sup():
    # B over [0, N0 + K/mu] with N0=1 and K <= 0.1: population never exceeds 3
    return sup_incidence(media_incidence(0.0115, 0.001), 3.0)


def test_euler_bound_experiment_parameters():
    eb = euler_step_bound(EXPERIMENT_PARAMS, _experiment_b_sup())
    assert eb.dt_star == pytest.approx(1.0 / 0.3, abs=5e-5)
    assert eb.binding_term == "sigma"


def test_euler_bound_single_term():
    eb = euler_step_bound(ModelParams(0.0, 1.0, 0.0, 0.0), 0.0)
    assert eb.dt_star == 1.0
    assert eb.binding_term == "sigma"


def test_euler_bound_incidence_binding():
    eb = euler_step_bound(ModelParams(1.0, 0.0, 0.0, 0.0), 3.0)
    assert eb.dt_star == 0.25
    assert eb.binding_term == "incidence"


def test_euler_bound_degenerate_is_unbounded():
    eb = euler_step_bound(ModelParams(0.0, 0.0, 0.0, 0.0), 0.0)
    assert math.isinf(eb.dt_star)
    assert eb.binding_term == "none"


def test_euler_bound_monotone_in_each_rate():
    rng = random.Random(23)
    for _ in range(100):
        base = [rng.uniform(0.0, 1.0) for _ in range(4)]
        b = rng.uniform(0.0, 1.0)
        ref = euler_step_bound(ModelParams(*base), b).dt_star
        for idx in range(4):
            bumped = list(base)
            bumped[idx] += rng.uniform(0.0, 1.0)
            assert euler_step_bound(ModelParams(*bumped), b).dt_star <= ref
        assert euler_step_bound(ModelParams(*base), b + 1.0).dt_star <= ref


def test_rk_bounds_scale_with_ssp_coefficient():
    # sigma binds: dt* = 1/(mu + sigma) = 1/0.3
    for key, c in (("euler", 1.0), ("ssprk33", 1.0), ("ssprk104", 6.0)):
        report = bound_report(EXPERIMENT_SETUP, builtin_method(key), 1000.0)
        assert report.tau_method == c * report.dt_star
        assert report.tau_method == pytest.approx(c / 0.3, rel=1e-12)


def test_population_cap_arithmetic():
    assert population_cap(1.0, 0.1, 0.05) == pytest.approx(3.0, abs=1e-12)
    assert population_cap(7.0, 0.0, 0.3) == 7.0
    zero_mu = population_cap(2.0, 2.0, 0.0)
    assert type(zero_mu) is float and math.isinf(zero_mu)


def test_population_cap_rejects_negative_inputs():
    with pytest.raises(ValueError):
        population_cap(-1.0, 0.0, 0.0)


@pytest.mark.parametrize("bad", [math.nan, math.inf])
@pytest.mark.parametrize("position", range(3), ids=["n0", "k_sup", "mu"])
def test_population_cap_rejects_non_finite_inputs(position, bad):
    args = [1.0, 0.1, 0.05]
    args[position] = bad
    with pytest.raises(ValueError, match="must be finite and non-negative"):
        population_cap(*args)


# ---------------------------------------------------------------------------
# stage-coefficient recurrences
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("key", BUILTIN_METHOD_KEYS)
def test_ab_mu_zero_gives_unit_a(key):
    form = builtin_method(key)
    a, b = ab_coefficients(form, 1.0, 0.0)
    assert all(ai == pytest.approx(1.0, abs=1e-12) for ai in a)
    assert all(bi >= 0.0 for bi in b)


def test_ab_euler_closed_form():
    form = builtin_method("euler")
    a, b = ab_coefficients(form, 0.3, 1.0)
    assert a == pytest.approx([1.0, 0.7], abs=1e-15)
    assert b == pytest.approx([0.0, 1.0], abs=1e-15)


def test_ab_zero_step_collapses_to_consistency():
    for key in BUILTIN_METHOD_KEYS:
        a, _ = ab_coefficients(builtin_method(key), 0.0, 5.0)
        assert all(ai == pytest.approx(1.0, abs=1e-12) for ai in a)


def test_ab_rejects_out_of_domain():
    with pytest.raises(ValueError, match="outside"):
        ab_coefficients(builtin_method("euler"), 2.0, 1.0)


@pytest.mark.parametrize("key", BUILTIN_METHOD_KEYS)
def test_ab_identity_and_ranges(key):
    form = builtin_method(key)
    rng = random.Random(17)
    for _ in range(50):
        mu = rng.uniform(0.0, 2.0)
        tau = rng.uniform(0.0, form.r / mu) if mu > 0.0 else rng.uniform(0.0, 10.0)
        a, b = ab_coefficients(form, tau, mu)
        x = tau * mu / form.r
        for ai, bi in zip(a, b):
            assert -1e-12 <= ai <= 1.0 + 1e-12
            # B_i is bounded by C, not by 1; the final-stage value reaches C
            # exactly as tau*mu -> 0 (it equals the gamma row sum there)
            assert -1e-12 <= bi <= form.r + 1e-9
            assert abs(x * bi - (1.0 - ai)) <= 1e-12


def test_b_final_stage_reaches_c_at_zero_damping():
    for key in BUILTIN_METHOD_KEYS:
        form = builtin_method(key)
        _, b = ab_coefficients(form, 0.0, 1.0)
        assert b[-1] == pytest.approx(form.r, rel=1e-12)


def test_gamma_two_stage_trivial():
    form = builtin_method("ssprk22")
    g = gamma_coefficients(form)
    assert g[1][0] == form.alpha[1][0]


def test_gamma_ssprk22_hand_values():
    g = gamma_coefficients(builtin_method("ssprk22"))
    assert g[2][0] == pytest.approx(0.5, abs=1e-15)
    assert g[2][1] == pytest.approx(0.5, abs=1e-15)


@pytest.mark.parametrize("key", BUILTIN_METHOD_KEYS)
def test_gamma_entries_in_unit_interval(key):
    g = gamma_coefficients(builtin_method(key))
    for row in g:
        for x in row:
            assert -1e-12 <= x <= 1.0 + 1e-12


@pytest.mark.parametrize("key", BUILTIN_METHOD_KEYS)
def test_gamma_final_row_sums_to_c(key):
    # first-order consistency of the population update forces this
    form = builtin_method(key)
    g = gamma_coefficients(form)
    assert math.fsum(g[-1]) == pytest.approx(form.r, rel=1e-12)


@pytest.mark.parametrize("key", BUILTIN_METHOD_KEYS)
def test_gamma_expansion_matches_integrator(key):
    # mu=0 and all flows off: N advances by (tau/C) * sum_j gamma_j * pi(stage time)
    form = builtin_method(key)
    g = gamma_coefficients(form)
    pi = choice_b_recruitment(0.8)
    params = ModelParams(0.0, 0.0, 0.0, 0.0)
    tau = 0.7
    traj = integrate(
        State(1.0, 0.0, 0.0, 0.0), tau, 20, form, params,
        media_incidence(0.0115, 0.001), pi,
    )
    for k in range(20):
        t = k * tau
        predicted = traj.states[k].total + (tau / form.r) * math.fsum(
            g[-1][j] * pi(t + form.c_stage[j] * tau) for j in range(form.m)
        )
        assert abs(traj.states[k + 1].total - predicted) <= 1e-12 * (1.0 + predicted)


def test_bound_report_experiment_setup():
    report = bound_report(EXPERIMENT_SETUP, builtin_method("ssprk104"), 1000.0)
    assert report.tau_method == pytest.approx(20.0, abs=5e-4)
    assert report.k_sup <= 0.1
    assert report.pop_cap == pytest.approx(1.0 + report.k_sup / 0.05, rel=1e-12)
    assert report.binding_term == "sigma"


@pytest.mark.parametrize("horizon", [1.0, 32.0, 1000.0])
def test_bound_report_caps_mu_zero_by_the_linear_envelope(horizon):
    # with mu = 0, N^n <= N0 + n*tau*K, so N0 + K*horizon caps every step
    # within the horizon, and B is taken over the same interval
    setup = EXPERIMENT_SETUP._replace(params=ModelParams(0.0, 0.25, 0.1867, 0.011))
    report = bound_report(setup, builtin_method("ssprk33"), horizon)
    assert report.pop_cap == 1.0 + report.k_sup * horizon
    assert report.b_sup == sup_incidence(setup.incidence, report.pop_cap)


def _random_incidence(rng):
    kind = rng.choice(["linear", "holling", "media"])
    if kind == "linear":
        return linear_incidence()
    if kind == "holling":
        c1, c2, k = rng.uniform(0.1, 2.0), rng.uniform(0.0, 2.0), rng.uniform(0.5, 3.0)
        return holling_incidence(c1, c2, k)
    return media_incidence(rng.uniform(0.001, 0.1), rng.uniform(0.0, 0.5))


def test_guarantees_hold_exactly_at_the_bound():
    # The criterion 6 sweep draws tau strictly below the bound and mu > 0 only.
    # Here tau is C*dt* itself, internal stages are checked, and half of the
    # setups have mu = 0, where the population obeys only the linear envelope
    # N^n <= N^0 + n*tau*K.
    rng = random.Random(20261018)
    methods = [builtin_method(key) for key in BUILTIN_METHOD_KEYS]
    n_steps = 100
    failures = []
    for idx in range(300):
        params = ModelParams(
            0.0 if idx % 2 else rng.uniform(1e-6, 1.0),
            rng.uniform(0.0, 1.0), rng.uniform(0.0, 1.0), rng.uniform(0.0, 1.0),
        )
        incidence = _random_incidence(rng)
        kappa = rng.uniform(0.0, 1.0)
        pi = recruitment_from_key(rng.choice(RECRUITMENT_KEYS), kappa=kappa)
        x0 = State(*(rng.uniform(0.0, 2.0) for _ in range(4)))
        setup = ProblemSetup(params, incidence, pi, x0)
        for method in methods:
            horizon = 1000.0
            report = bound_report(setup, method, horizon)
            while n_steps * report.tau_method > horizon:
                horizon = 2.0 * n_steps * report.tau_method
                report = bound_report(setup, method, horizon)
            tau = report.tau_method
            label = f"setup {idx} ({incidence.key}/{pi.key}, mu={params.mu}), {method.key}"
            traj = integrate(x0, tau, n_steps, method, params, incidence, pi)
            if traj.stage_min < 0.0 and not _coefficient_below_zero(params, method, tau, report):
                failures.append(f"{label}: stage {traj.stage_min!r} below 0")
            verdict = check_nonnegativity(traj, include_stages=True)
            if not verdict:
                failures.append(f"{label}: {verdict.as_text('non-negativity')}")
            if params.mu > 0.0:
                if not check_population_bound(traj, report.pop_cap):
                    failures.append(f"{label}: population above {report.pop_cap!r}")
            else:
                steps = range(n_steps + 1)
                envelope = [(x0.total + n * tau * report.k_sup) * (1.0 + 1e-12) for n in steps]
                if any(traj.populations[n] > envelope[n] for n in steps):
                    failures.append(f"{label}: population above N0 + n*tau*K")
    # Scaled setups: the same model in other units, from 1 to 1e9.  Three in
    # four start from a boundary witness, where the exact stage value at the
    # bound is 0 and the float one a rounding error of the population's size;
    # one in five has mu = 0 and one in five mu = 1e-9, whose cap N0 + K/mu
    # is far above the population the run reaches.
    # Each run is judged as simulate and check judge it, against the
    # negativity threshold scaled by the run's size; some of them fail the
    # absolute -1e-12.  In every run of both loops a stage falls below 0 only
    # where a coefficient of the sub-step's positivity form rounds below 0.
    # That is a fact of these draws, not a theorem: a float population that
    # drifts above the cap lets f(I) exceed B with every bound coefficient
    # >= 0 (test_bound_coefficients_at_or_above_zero_allow_a_stage_below_zero).
    below_absolute = 0
    for idx in range(120):
        scale = 10.0 ** rng.uniform(0.0, 9.0)
        mu = {3: 1e-9, 4: 0.0}.get(idx % 5) or rng.uniform(0.01, 0.1)
        term = ("sigma", "gamma", "delta", "none")[idx % 4]
        setup = _scaled_witness(rng, term, scale, mu)
        params, incidence, pi, x0 = setup.params, setup.incidence, setup.recruitment, setup.x0
        for method in methods:
            horizon = 1000.0
            report = bound_report(setup, method, horizon)
            while n_steps * report.tau_method > horizon:
                horizon = 2.0 * n_steps * report.tau_method
                report = bound_report(setup, method, horizon)
            tau = report.tau_method
            label = f"scaled setup {idx} (scale {scale:.3g}, {term}, mu={mu}), {method.key}"
            traj = integrate(x0, tau, n_steps, method, params, incidence, pi)
            below_absolute += not traj.stage_min >= NEGATIVITY_THRESHOLD
            if traj.stage_min < 0.0 and not _coefficient_below_zero(params, method, tau, report):
                failures.append(f"{label}: stage {traj.stage_min!r} below 0")
            verdict = check_nonnegativity(traj, include_stages=True, cap=report.pop_cap)
            if not verdict:
                failures.append(f"{label}: {verdict.as_text('non-negativity')}")
            if mu > 0.0:
                if not check_population_bound(traj, report.pop_cap):
                    failures.append(f"{label}: population above {report.pop_cap!r}")
            else:
                steps = range(n_steps + 1)
                envelope = [(x0.total + n * tau * report.k_sup) * (1.0 + 1e-12) for n in steps]
                if any(traj.populations[n] > envelope[n] for n in steps):
                    failures.append(f"{label}: population above N0 + n*tau*K")
    assert not failures, failures[:5]
    assert below_absolute >= 1, below_absolute


def _coefficient_below_zero(params, method, tau, report):
    """Whether a coefficient of the Euler sub-step's positivity form rounds
    below 0, computed as the step kernel computes it with h = tau/C: each
    ``1 - h*(mu + rate)`` and S's ``(1 - h*mu) - h*B``, with B the sup of the
    incidence over the cap.  Where none does, a stage can still fall below
    0: the kernel's S coefficient is ``c_s - h*f(I)`` with the computed
    ``f(I)``, which exceeds B once the float population drifts above the cap
    (ROADMAP item 8)."""
    h, mu = tau / method.r, params.mu
    c_s = 1.0 - h * mu
    coefficients = [c_s, c_s - h * report.b_sup]
    coefficients += [1.0 - h * (mu + rate) for rate in (params.sigma, params.gamma, params.delta)]
    return min(coefficients) < 0.0


def test_bound_coefficients_at_or_above_zero_allow_a_stage_below_zero():
    # mu = 0 conserves the population, but its float value drifts above the
    # cap B is taken over; linear incidence binds, so f(I) > B makes S's
    # coefficient c_s - h*f(I) round below 0 although c_s - h*B is 0.0.  The
    # verdict on such a run is left to the directed-rounding bound chain
    params = ModelParams(0.0, 0.9546322325266341, 0.0, 0.8456990768794442)
    x0 = State(5.564543226524334e-07, 1.4634415443986684, 0.0, 0.0)
    incidence, pi = linear_incidence(), recruitment_from_key("const", kappa=1.24e-300)
    method = builtin_method("ssprk22")
    report = bound_report(ProblemSetup(params, incidence, pi, x0), method, 1000.0)
    assert report.tau_method == 0.683320508147971 and report.binding_term == "incidence"
    assert not _coefficient_below_zero(params, method, report.tau_method, report)
    traj = integrate(x0, report.tau_method, 100, method, params, incidence, pi)
    assert traj.stage_min < 0.0


def test_threshold_probe_passes_at_the_bound_on_scaled_witnesses():
    # the threshold search judges its probes against the absolute -1e-12, at
    # every scale: at tau = C*dt* on a boundary witness whose coefficients
    # all round to >= 0, no stage and so no step state is below 0, and the
    # probe passes however large the population
    rng = random.Random(20261020)
    methods = [builtin_method(key) for key in BUILTIN_METHOD_KEYS]
    probed = 0
    for idx in range(200):
        scale = 10.0 ** rng.uniform(6.0, 9.0)
        term = ("sigma", "gamma", "delta", "none")[idx % 4]
        setup = _scaled_witness(rng, term, scale, rng.uniform(0.01, 0.1))
        for method in methods:
            report = bound_report(setup, method, 100.0)
            tau = report.tau_method
            if _coefficient_below_zero(setup.params, method, tau, report):
                continue
            probed += 1
            assert _positivity_ok(setup, method, tau, 100.0), (idx, scale, term, method.key)
    assert probed >= 700, probed


def _scaled_witness(rng, term, scale, mu):
    """A setup in units ``scale`` times the default's: the state and kappa
    times ``scale``, the media incidence's rates over it.  For the term
    "sigma", "gamma" or "delta" that rate is the largest, B stays below it,
    and the state is a boundary witness, with no inflow into the
    compartment the term drains; for "none" the state is drawn from [0, 2]."""
    rates = {name: rng.uniform(0.0, 0.15) for name in ("sigma", "gamma", "delta")}
    if term in rates:
        rates[term] = rng.uniform(0.2, 1.0)
    x = [rng.uniform(0.0, 1.0) for _ in range(4)]
    if term == "sigma":  # E drains, and I = 0 gives it no inflow
        x[1], x[2] = rng.uniform(0.1, 1.0), 0.0
    elif term == "gamma":  # I drains, and E = R = 0 give it none
        x[1], x[2], x[3] = 0.0, rng.uniform(0.1, 1.0), 0.0
    elif term == "delta":  # R drains, and I = 0 gives it none
        x[2], x[3] = 0.0, rng.uniform(0.1, 1.0)
    else:
        x = [rng.uniform(0.0, 2.0) for _ in range(4)]
    incidence = media_incidence(rng.uniform(0.0, 0.02) / scale, rng.uniform(0.0, 0.5) / scale)
    pi = recruitment_from_key(
        rng.choice(RECRUITMENT_KEYS[:4]), kappa=rng.uniform(0.0, 0.05) * scale
    )
    return ProblemSetup(
        ModelParams(mu, **rates), incidence, pi, State(*(v * scale for v in x)),
    )


@pytest.mark.parametrize("scale", [1.0, 1e9])
def test_scaled_rule_still_fails_a_witness_just_above_the_bound(scale):
    # at tau = C*dt*(1 + 1e-9) a boundary witness's drained compartment goes
    # to about -1e-9 of its value: a real violation, which the scaled
    # threshold must not hide at any scale, nor with a small mu, whose cap
    # N0 + K/mu is up to 1e12 times the run's population
    rng = random.Random(20261019)
    methods = [builtin_method(key) for key in BUILTIN_METHOD_KEYS]
    witnesses = collections.Counter()
    for idx in range(30):
        term = ("sigma", "gamma", "delta")[idx % 3]
        mu = (rng.uniform(0.01, 0.1), 1e-9, 1e-12)[idx // 3 % 3]
        setup = _scaled_witness(rng, term, scale, mu)
        if bound_report(setup, methods[0], 1000.0).binding_term != term:
            # the incidence sup grows with the cap, so with a small mu the
            # incidence may bind instead, and the state is no witness
            assert mu < 0.01
            continue
        witnesses[mu if mu < 0.01 else "drawn"] += 1
        for method in methods:
            report = bound_report(setup, method, 1000.0)
            assert report.binding_term == term
            at, above = (
                integrate(setup.x0, report.tau_method * factor, 1, method, setup.params,
                          setup.incidence, setup.recruitment)
                for factor in (1.0, 1.0 + 1e-9)
            )
            assert check_nonnegativity(at, include_stages=True, cap=report.pop_cap)
            verdict = check_nonnegativity(above, include_stages=True, cap=report.pop_cap)
            assert not verdict, (idx, method.key)
            assert verdict.witness_value < -1e-11 * scale
    assert witnesses["drawn"] == 12 and witnesses[1e-9] >= 5 and witnesses[1e-12] >= 5, witnesses
