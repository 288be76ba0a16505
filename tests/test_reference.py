"""Quadrature and fine-step reference oracles."""

import math
import re

import pytest

from ssp_seir.model import (
    ModelParams,
    ProblemSetup,
    State,
    choice_b_recruitment,
    constant_recruitment,
    media_incidence,
    recruitment_from_key,
)
from ssp_seir.reference import grid_run, reference_trajectory, step_grid
from ssp_seir.shu_osher import builtin_method
from ssp_seir.stepping import Trajectory, integrate

from oracles import QuadratureError, adaptive_simpson, exact_population

EXPERIMENT_PARAMS = ModelParams(0.05, 0.25, 0.1867, 0.011)


def test_simpson_exact_on_cubics():
    # Simpson integrates cubics exactly, so no refinement error at all
    val = adaptive_simpson(lambda x: x**3 - 2.0 * x + 1.0, 0.0, 2.0)
    assert val == pytest.approx(4.0 - 4.0 + 2.0, abs=1e-14)


def test_simpson_sine():
    assert adaptive_simpson(math.sin, 0.0, math.pi, tol=1e-12) == pytest.approx(
        2.0, abs=1e-11
    )


def test_simpson_degenerate_and_validation():
    assert adaptive_simpson(math.exp, 1.0, 1.0) == 0.0
    with pytest.raises(ValueError):
        adaptive_simpson(math.exp, 0.0, 1.0, tol=0.0)


def test_simpson_reports_nonconvergence():
    # a kink needs deep refinement; with the depth capped it must raise
    with pytest.raises(QuadratureError):
        adaptive_simpson(lambda x: abs(x - 1.0 / 3.0) ** 0.1, 0.0, 1.0,
                         tol=1e-14, max_depth=3)


def test_exact_population_pure_decay():
    got = exact_population(2.0, 0.3, constant_recruitment(0.0), 5.0)
    assert got == pytest.approx(2.0 * math.exp(-1.5), rel=1e-12)


def test_exact_population_constant_recruitment_limit():
    got = exact_population(1.0, 0.5, constant_recruitment(0.2), 100.0)
    assert got == pytest.approx(0.4, abs=1e-9)


def test_exact_population_against_fine_euler_oracle():
    # independent oracle: 10^6-step Euler on N' = pi - mu*N
    pi = choice_b_recruitment(0.05)
    mu, t_end, n = 0.05, 1000.0, 1_000_000
    h = t_end / n
    value = 1.0
    for k in range(n):
        value += h * (pi(k * h) - mu * value)
    got = exact_population(1.0, mu, pi, t_end, quad_tol=1e-10)
    assert got == pytest.approx(value, abs=1e-6)


def test_exact_population_mu_zero_accumulates_recruitment():
    pi = constant_recruitment(0.3)
    assert exact_population(1.0, 0.0, pi, 10.0) == pytest.approx(4.0, rel=1e-12)


def test_exact_population_validates_time():
    with pytest.raises(ValueError):
        exact_population(1.0, 0.1, constant_recruitment(0.0), -1.0)


def _experiment_setup(pi_key="choiceA"):
    return ProblemSetup(
        EXPERIMENT_PARAMS,
        media_incidence(0.0115, 0.001),
        recruitment_from_key(pi_key),
        State(0.2, 0.6, 0.2, 0.0),
    )


def test_reference_includes_initial_state():
    ref = reference_trajectory(_experiment_setup(), 10.0, [0.0, 5.0, 10.0])
    assert ref.states[0].as_tuple() == (0.2, 0.6, 0.2, 0.0)
    assert ref.times[0] == 0.0


def test_reference_population_matches_quadrature():
    setup = _experiment_setup()
    ref = reference_trajectory(setup, 100.0, [10.0, 50.0, 100.0])
    for t, n in zip(ref.times, ref.populations):
        exact = exact_population(1.0, 0.05, setup.recruitment, t, quad_tol=1e-10)
        assert abs(n - exact) <= 1e-6


def test_reference_is_grid_independent():
    setup = _experiment_setup("choiceC")
    outputs = [5.0, 10.0, 20.0]
    coarse = reference_trajectory(setup, 20.0, outputs, refinement=2.0**-10)
    fine = reference_trajectory(setup, 20.0, outputs, refinement=2.0**-11)
    worst = max(
        abs(a - b)
        for xa, xb in zip(coarse.states, fine.states)
        for a, b in zip(xa.as_tuple(), xb.as_tuple())
    )
    assert worst < 1e-8


def test_reference_rejects_incommensurate_outputs():
    with pytest.raises(ValueError, match="integer multiples"):
        reference_trajectory(_experiment_setup(), 10.0, [2.0, 3.0])
    with pytest.raises(ValueError):
        reference_trajectory(_experiment_setup(), -1.0, [1.0])
    # on the grid's line but before its start: there is no such row
    with pytest.raises(ValueError, match="output time -2.0 not on the step grid"):
        reference_trajectory(_experiment_setup(), 10.0, [-2.0, 2.0, 10.0])


@pytest.mark.parametrize("tau_nominal, t_f, outputs, name", [
    (0.0, 10.0, [5.0], "tau_nominal"),
    (-1.0, 10.0, [5.0], "tau_nominal"),
    (math.inf, 10.0, [5.0], "tau_nominal"),
    (0.3, math.inf, [5.0], "t_f"),
    (0.3, math.nan, [5.0], "t_f"),
    (0.3, 10.0, [5.0, math.inf], "output_times"),
], ids=["tau-zero", "tau-negative", "tau-inf", "tf-inf", "tf-nan", "output-inf"])
def test_grid_run_rejects_bad_input_by_name(tau_nominal, t_f, outputs, name):
    with pytest.raises(ValueError, match=name):
        grid_run(_experiment_setup(), builtin_method("euler"), tau_nominal, t_f, outputs)


@pytest.mark.parametrize("tau_nominal, t_f, message", [
    (5e-324, 10.0, "base/tau_nominal is not finite for base=5.0, tau_nominal=5e-324"),
    (0.3, 1e308, "t_f/tau is not finite for t_f=1e+308, tau=0.29411764705882354"),
], ids=["tau-subnormal", "tf-huge"])
def test_step_grid_rejects_a_step_count_that_is_not_finite(tau_nominal, t_f, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        step_grid(tau_nominal, t_f, [5.0])


def test_reference_rejects_a_zero_refinement():
    with pytest.raises(ValueError, match="tau_nominal"):
        reference_trajectory(_experiment_setup(), 10.0, [5.0, 10.0], refinement=0.0)


def test_reference_as_trajectory_schema():
    ref = reference_trajectory(_experiment_setup(), 4.0, [2.0, 4.0])
    assert isinstance(ref, Trajectory)
    assert [x.t for x in ref.states] == list(ref.times)
    assert ref.method == "ssprk104"


@pytest.mark.parametrize("key", ["euler", "ssprk33"])
def test_grid_run_keeps_the_full_runs_output_rows(key):
    # 0.3 becomes 2/7: 7 steps per output spacing, and the horizon 7.5 is
    # not an output time, so the run also keeps an end row it does not read
    setup, method = _experiment_setup("choiceA"), builtin_method(key)
    outputs = [6.0, 0.0, 2.0, 4.0]
    run = grid_run(setup, method, 0.3, 7.5, outputs)
    assert run.tau == 2.0 / 7
    full = integrate(setup.x0, run.tau, 27, method, setup.params,
                     setup.incidence, setup.recruitment)
    assert run.data.tobytes() == b"".join(full.row(round(t / run.tau)).tobytes() for t in outputs)
    assert run.stage_min is None and run.method == key
