"""End-to-end acceptance suite.

Each test prints one ``criterion N (...): PASS/FAIL`` line (bypassing pytest
capture, so the lines survive into piped logs) and then asserts.  The
expected numbers are frozen from the published experiments; the threshold
table of criterion 2 pins its own initial state, see THRESHOLD_STATE below.
"""

import math
import random
import sys

import pytest

from ssp_seir.checks import check_nonnegativity, find_empirical_bound
from ssp_seir.config import load_config
from ssp_seir.experiments import (
    convergence_study,
    counterexample_report,
    property_sweep,
)
from ssp_seir.model import State, RateFunction, choice_b_recruitment, ModelParams
from ssp_seir.reference import reference_trajectory
from ssp_seir.shu_osher import BUILTIN_METHOD_KEYS, builtin_method
from ssp_seir.step_bounds import bound_report
from ssp_seir.stepping import integrate

from butcher import (
    builtin_tableau,
    butcher_amplification,
    shu_osher_amplification,
    ssp_coefficient,
)
from oracles import ab_coefficients, exact_population, gamma_coefficients

RECRUITMENT_CHOICES = ("choiceA", "choiceB", "choiceC")

# tau_t per method (5e-4 absolute), identical across recruitment choices
EXPECTED_TAU_T = {"euler": 3.3333, "ssprk22": 3.3333, "ssprk33": 3.3333, "ssprk104": 20.0}

# empirical thresholds (1% relative), keyed (choice, method)
EXPECTED_TAU_R = {
    ("choiceA", "euler"): 3.5223,
    ("choiceB", "euler"): 3.5223,
    ("choiceC", "euler"): 3.5223,
    ("choiceA", "ssprk22"): 4.5688,
    ("choiceB", "ssprk22"): 4.5697,
    ("choiceC", "ssprk22"): 4.5678,
    ("choiceA", "ssprk33"): 5.5164,
    ("choiceB", "ssprk33"): 5.5167,
    ("choiceC", "ssprk33"): 5.5203,
    ("choiceA", "ssprk104"): 29.8408,
    ("choiceB", "ssprk104"): 29.8648,
    ("choiceC", "ssprk104"): 29.7721,
}

# the published thresholds are only reproducible from this initial state: the
# step-1 exposed-compartment zero crossing pins it exactly, since for Euler
# tau_r = E0 / ((mu+sigma)E0 - f(I0)*S0) = 3.52233 at (0.7, 0.1, 0.2, 0.0)
THRESHOLD_STATE = {"s0": 0.7, "e0": 0.1, "i0": 0.2, "r0": 0.0}


_CAPMAN = None


@pytest.fixture(autouse=True)
def _grab_capture_manager(pytestconfig):
    global _CAPMAN
    _CAPMAN = pytestconfig.pluginmanager.getplugin("capturemanager")


def _report(num: int, label: str, ok: bool, detail: str = "", note: str = "") -> None:
    """Print the criterion line; ``detail`` only on FAIL, ``note`` always."""
    line = f"criterion {num} ({label}): {'PASS' if ok else 'FAIL'}"
    if detail and not ok:
        line += f"  [{detail}]"
    if note:
        line += f"  ({note})"
    if _CAPMAN is not None:
        # fd-level capture also swallows sys.__stdout__; suspend it so the
        # line reaches the real terminal and any piped log
        with _CAPMAN.global_and_fixture_disabled():
            print(line, flush=True)
    else:
        print(line, file=sys.__stdout__, flush=True)


@pytest.fixture(scope="module")
def config():
    return load_config(None)


def test_criterion_1_theoretical_bounds(config):
    failures = []
    for pi_key in RECRUITMENT_CHOICES:
        setup = config.setup(pi_key)
        for method_key in BUILTIN_METHOD_KEYS:
            tau_t = bound_report(setup, builtin_method(method_key), config.tf).tau_method
            if abs(tau_t - EXPECTED_TAU_T[method_key]) > 5e-4:
                failures.append(f"{pi_key}/{method_key}: {tau_t}")
    _report(1, "theoretical bounds", not failures, "; ".join(failures))
    assert not failures


def test_criterion_2_empirical_bounds(config):
    table_config = config._replace(**THRESHOLD_STATE)
    failures = []
    for pi_key in RECRUITMENT_CHOICES:
        setup = table_config.setup(pi_key)
        for method_key in BUILTIN_METHOD_KEYS:
            method = builtin_method(method_key)
            tau_t = bound_report(setup, method, table_config.tf).tau_method
            tau_r = find_empirical_bound(
                setup, method, table_config.tf,
                bracket=(tau_t, 2.0 * tau_t), tol=table_config.bisect_tol,
            )
            expected = EXPECTED_TAU_R[(pi_key, method_key)]
            rel = abs(tau_r - expected) / expected
            if rel > 0.01:
                failures.append(f"{pi_key}/{method_key}: {tau_r:.4f} vs {expected}")
            if tau_r < tau_t:  # sufficiency of the theoretical bound
                failures.append(f"{pi_key}/{method_key}: tau_r {tau_r:.4f} < tau_t")
    _report(2, "empirical bounds", not failures, "; ".join(failures))
    assert not failures


def test_criterion_3_violation_demo(config):
    setup = config.setup("choiceC")
    method = builtin_method("ssprk22")

    def run(tau):
        return integrate(
            setup.x0, tau, math.ceil(30.0 / tau), method,
            setup.params, setup.incidence, setup.recruitment,
        )

    bad = check_nonnegativity(run(4.8))
    good = check_nonnegativity(run(3.3))
    ok = (not bad.passed) and bad.witness_compartment == "I" and good.passed
    _report(3, "violation demo", ok,
            f"tau=4.8 verdict {bad.passed}/{bad.witness_compartment}, tau=3.3 {good.passed}")
    assert ok


def test_criterion_4_oscillating_counterexample():
    report = counterexample_report()
    even_ok = abs(report.even_limit - 4.0 / 3.0) <= 1e-8
    odd_ok = abs(report.odd_limit - 2.0 / 3.0) <= 1e-8
    gap_ok = report.gap_tail_min > 0.2
    ok = even_ok and odd_ok and gap_ok
    _report(4, "oscillating counterexample", ok,
            f"even {report.even_limit}, odd {report.odd_limit}, gap min {report.gap_tail_min}")
    assert ok


def test_criterion_5_convergence_orders(config):
    results = convergence_study(config)
    expected = {"euler": (1.0, 0.2), "ssprk22": (2.0, 0.2),
                "ssprk33": (3.0, 0.2), "ssprk104": (4.0, 0.3)}
    failures = []
    for res in results:
        target, tol = expected[res.method]
        if abs(res.slope - target) > tol:
            failures.append(f"{res.method}: slope {res.slope:.3f}")
    _report(5, "convergence orders", not failures, "; ".join(failures))
    assert not failures


def test_criterion_6_guarantee_sweep():
    report = property_sweep(n_configs=200, seed=20240501)
    ok = report.passed and report.n_runs >= 200
    _report(6, "randomized guarantee sweep", ok,
            f"{len(report.failures)} failures in {report.n_runs} runs")
    assert ok, report.failures[:5]


def test_criterion_7_lemma_identities():
    # The paper states 0 <= A_i <= 1 and 0 <= B_i <= 1.  The B range is false
    # for C > 1: consistency forces the final-stage B to the last gamma row
    # sum, which is C, as tau*mu -> 0.  What the recurrence guarantees is
    # 0 <= B_i <= C; that range is asserted, and the unit range is asserted
    # to be exceeded for exactly the methods with C > 1.
    rng = random.Random(20240502)
    identity_bad = []
    range_bad = []
    c_above_one = set()
    above_unit = {}  # method -> (largest B_i above 1, its stage)
    for key in BUILTIN_METHOD_KEYS:
        form = builtin_method(key)
        if form.r > 1.0:
            c_above_one.add(key)
        for _ in range(50):
            mu = rng.uniform(1e-3, 2.0)
            tau = rng.uniform(0.0, form.r / mu)
            a, b = ab_coefficients(form, tau, mu)
            x = tau * mu / form.r
            for i, (ai, bi) in enumerate(zip(a, b)):
                if abs(x * bi - (1.0 - ai)) > 1e-12:
                    identity_bad.append(f"{key} i={i}")
                # B reaches C itself up to rounding, so its tolerance is relative
                if not (-1e-12 <= ai <= 1.0 + 1e-12 and -1e-12 <= bi <= form.r * (1.0 + 1e-12)):
                    range_bad.append(f"{key} i={i} A={ai:.3g} B={bi:.3g}")
                if bi > 1.0 + 1e-12 and bi > above_unit.get(key, (1.0, 0))[0]:
                    above_unit[key] = (bi, i)

    # stage expansion: no flows, no incidence, recruitment only
    expansion_bad = []
    f_zero = RateFunction("zero", "0.0 * x", lambda hi: 0.0, alpha=0.0)
    pi = choice_b_recruitment(0.8)
    params = ModelParams(0.0, 0.0, 0.0, 0.0)
    tau = 0.9
    for key in BUILTIN_METHOD_KEYS:
        form = builtin_method(key)
        g = gamma_coefficients(form)
        traj = integrate(State(1.0, 0.0, 0.0, 0.0), tau, 25, form, params, f_zero, pi)
        for k in range(25):
            t = k * tau
            predicted = traj.states[k].total + (tau / form.r) * math.fsum(
                g[-1][j] * pi(t + form.c_stage[j] * tau) for j in range(form.m)
            )
            if abs(traj.states[k + 1].total - predicted) > 1e-12 * (1.0 + predicted):
                expansion_bad.append(f"{key} step {k}")

    refuted_as_expected = set(above_unit) == c_above_one
    ok = not identity_bad and not range_bad and not expansion_bad and refuted_as_expected
    detail = (
        f"identity {len(identity_bad)}, ranges {len(range_bad)} "
        f"(first: {range_bad[0] if range_bad else '-'}), expansion {len(expansion_bad)}, "
        f"B_i > 1 in {sorted(above_unit)}, C > 1 in {sorted(c_above_one)}"
    )
    refuted = ", ".join(
        f"{key} max B={bi:.3g} (stage {i})" for key, (bi, i) in sorted(above_unit.items())
    )
    note = (
        f"paper's 0<=B_i<=1 refuted: {refuted or 'nowhere'}; "
        f"0<=B_i<=C {'fails' if range_bad else 'holds'}"
    )
    _report(7, "lemma identities", ok, detail, note)
    assert not identity_bad
    assert not expansion_bad
    # the range the recurrence guarantees: 0 <= A_i <= 1 and 0 <= B_i <= C
    assert not range_bad
    # the paper's unit range is exceeded by exactly the methods with C > 1
    assert refuted_as_expected, (sorted(above_unit), sorted(c_above_one))


def test_criterion_8_oracle_cross_validation(config):
    failures = []
    for pi_key in RECRUITMENT_CHOICES:
        setup = config.setup(pi_key)
        ref = reference_trajectory(setup, 1000.0, [10.0, 100.0, 1000.0])
        for t, n in zip(ref.times, ref.populations):
            exact = exact_population(1.0, config.mu, setup.recruitment, t, quad_tol=1e-10)
            if abs(n - exact) > 1e-6:
                failures.append(f"{pi_key} t={t}: |{n} - {exact}|")
        if abs(ref.populations[-1] - 1.0) > 1e-2:
            failures.append(f"{pi_key}: N(1000)={ref.populations[-1]}")
    _report(8, "oracle cross-validation", not failures, "; ".join(failures))
    assert not failures


def test_criterion_9_shu_osher_machinery():
    expected_c = {"euler": 1.0, "ssprk22": 1.0, "ssprk33": 1.0, "ssprk104": 6.0}
    failures = []
    rng = random.Random(20240503)
    for key in BUILTIN_METHOD_KEYS:
        tableau = builtin_tableau(key)
        c = ssp_coefficient(tableau, tol=1e-5)
        if abs(c - expected_c[key]) > 1e-4:
            failures.append(f"{key}: C={c}")
        form = builtin_method(key)
        for _ in range(100):
            z = rng.uniform(-2.0, 1.0)
            ref = butcher_amplification(tableau, z)
            got = shu_osher_amplification(form, z)
            if abs(got - ref) > 1e-12 * max(1.0, abs(ref)):
                failures.append(f"{key}: round-trip at z={z}")
                break
    _report(9, "shu-osher machinery", not failures, "; ".join(failures))
    assert not failures
