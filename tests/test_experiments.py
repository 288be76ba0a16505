"""The convergence study's slope fit and the inputs it refuses, the
simulation's row budget, and the guarantee sweep's stage verdict."""

import math
import re
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from ssp_seir.cli import main
from ssp_seir.config import DEFAULT_CONFIG_TEXT, parse_config
import ssp_seir.experiments as experiments
from ssp_seir.experiments import _fit_slope, convergence_study, property_sweep, run_simulation
from ssp_seir.shu_osher import builtin_method
from ssp_seir.stepping import Trajectory


def _normal_equations_slope(xs, ys):
    """The least-squares slope as an exact rational, from the raw sums."""
    x = [Fraction(v) for v in xs]
    y = [Fraction(v) for v in ys]
    n, sx, sy = len(x), sum(x), sum(y)
    return (n * sum(a * b for a, b in zip(x, y)) - sx * sy) / (n * sum(a * a for a in x) - sx * sx)


_VALUE = st.floats(-60.0, 60.0)
# the smallest magnitude that rounds past the largest double: the tie with
# 2**1024 rounds to it, since the largest double's last bit is odd
_PAST_LARGEST_DOUBLE = Fraction(2**1024 - 2**970)


@settings(max_examples=300, deadline=None)
@given(points=st.lists(st.tuples(_VALUE, _VALUE), min_size=2, max_size=8))
@example(points=[(0.0, 0.0), (5e-324, 1.0)])
@example(points=[(0.0, 0.0), (5e-324, 2.0**-50 - 2.0**-103)])  # exactly the largest double
def test_slope_is_the_exactly_rounded_rational_fit(points):
    xs, ys = [p[0] for p in points], [p[1] for p in points]
    assume(len(set(xs)) >= 2)
    exact = _normal_equations_slope(xs, ys)
    if abs(exact) >= _PAST_LARGEST_DOUBLE:
        refusal = r"^fitted slope -?\d\.\d{6}e\+\d+ is beyond the largest double$"
        with pytest.raises(ValueError, match=refusal):
            _fit_slope(xs, ys)
        return
    got = _fit_slope(xs, ys)
    assert got == float(exact)
    # no double lies closer to the exact slope
    error = abs(Fraction(got) - exact)
    for neighbour in (math.nextafter(got, math.inf), math.nextafter(got, -math.inf)):
        if math.isfinite(neighbour):
            assert error <= abs(Fraction(neighbour) - exact)


@settings(max_examples=100, deadline=None)
@given(xs=st.lists(st.integers(-400, 400).map(lambda k: k / 8), min_size=2, max_size=8))
def test_slope_of_points_on_a_line_is_exact(xs):
    assume(len(set(xs)) >= 2)
    assert _fit_slope(xs, [2.0 * x + 3.0 for x in xs]) == 2.0


def _unpopulated_config():
    """No people and no recruitment: every run is exactly the zero reference."""
    text = (
        DEFAULT_CONFIG_TEXT.replace("kappa=0.05", "kappa=0").replace("s0=0.2", "s0=0")
        .replace("e0=0.6", "e0=0").replace("i0=0.2", "i0=0")
    )
    return text, parse_config(text)._replace(tf=10.0)


def test_convergence_refuses_a_zero_error():
    with pytest.raises(ValueError, match=r"convergence of euler: error 0\.0 at tau=\S+ "):
        convergence_study(_unpopulated_config()[1])


def test_convergence_refuses_fitted_steps_of_one_size():
    # output spacing 0.01 is below every halved bound: each step is 0.01
    config = parse_config(DEFAULT_CONFIG_TEXT)._replace(tf=0.5)
    with pytest.raises(ValueError, match=r"convergence of euler: every fitted step is tau=0\.01$"):
        convergence_study(config)


def test_cli_convergence_exits_2_on_a_zero_error(tmp_path, capsys):
    path = tmp_path / "empty.cfg"
    path.write_text(_unpopulated_config()[0])
    code = main(["--config", str(path), "--out", str(tmp_path), "convergence", "--tf", "10"])
    assert code == 2
    err = capsys.readouterr().err
    assert re.fullmatch(
        r"error: convergence of euler: error 0\.0 at tau=\S+ has no logarithm to fit\n", err
    ), err
    assert not (tmp_path / "convergence_slopes.csv").exists()


def test_convergence_integrates_each_distinct_grid_step_once(monkeypatch):
    # at tf = 100 the output spacing is 2.0, and ssprk104's first three
    # halvings of tau_t = 20 all shrink to it: one run serves all three rows
    import ssp_seir.reference as reference
    integrate = reference.integrate
    steps = []

    def counted(*args, **kwargs):
        steps.append(args[1])
        return integrate(*args, **kwargs)

    monkeypatch.setattr(reference, "integrate", counted)
    results = convergence_study(parse_config(DEFAULT_CONFIG_TEXT)._replace(tf=100.0))
    assert [r.method for r in results] == ["euler", "ssprk22", "ssprk33", "ssprk104"]
    assert all(len(r.taus) == len(r.errors) == 8 for r in results)
    rk104 = results[-1]
    assert rk104.taus[:4] == (2.0, 2.0, 2.0, 1.0) and len(set(rk104.errors[:3])) == 1
    # the reference run, then one run per distinct step of each method
    assert len(steps) == 1 + sum(len(set(r.taus)) for r in results) == 31
    assert steps[1:] == [tau for r in results for tau in dict.fromkeys(r.taus)]


def test_simulation_keeps_at_most_the_row_budget(monkeypatch):
    # every row is kept, so a finite step count below 2**53 could still end
    # out of memory; the budget rejects such a run before it starts
    setup = parse_config(DEFAULT_CONFIG_TEXT).setup("choiceA")
    euler = builtin_method("euler")
    with pytest.raises(ValueError) as info:
        run_simulation(setup, euler, 1e-10, 1e5)
    assert str(info.value) == "the run would keep more than 2**24 rows for t_f=100000.0, tau=1e-10"
    with pytest.raises(ValueError, match=re.escape("more than 2**24 rows")):
        run_simulation(setup, euler, 1.0, 2.0**24)
    # the step clock's limit is checked first and keeps its message
    with pytest.raises(ValueError, match=re.escape("n_steps must be below 2**53")):
        run_simulation(setup, euler, 1.0, 2.0**53)
    monkeypatch.setattr(experiments, "_ROW_LIMIT", 11)
    assert len(run_simulation(setup, euler, 1.0, 10.0).trajectory) == 11
    with pytest.raises(ValueError, match=re.escape("for t_f=11.0, tau=1.0")):
        run_simulation(setup, euler, 1.0, 11.0)


def test_sweep_flags_a_negative_stage(monkeypatch):
    # each stage of an SSP form is a convex combination of Euler steps, so
    # positivity must hold at the stages too, not only at the step states
    integrate = experiments.integrate

    def dipping(*args, **kwargs):
        traj = integrate(*args, **kwargs)
        return Trajectory(traj.data, traj.tau, traj.method, -1e-9)

    monkeypatch.setattr(experiments, "integrate", dipping)
    report = property_sweep(n_configs=1, seed=3)
    assert report.n_runs == 4 and len(report.failures) == 4
    assert all(f.endswith(": non-negativity: FAIL (stage, value -1e-09)") for f in report.failures)
