"""The convergence study's slope fit and the inputs it refuses, and the
guarantee sweep's stage verdict."""

import math
import re
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from ssp_seir.cli import main
from ssp_seir.config import DEFAULT_CONFIG_TEXT, parse_config
import ssp_seir.experiments as experiments
from ssp_seir.experiments import _fit_slope, convergence_study, property_sweep


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


def test_sweep_flags_a_negative_stage(monkeypatch):
    # each stage of an SSP form is a convex combination of Euler steps, so
    # positivity must hold at the stages too, not only at the step states
    integrate = experiments.integrate

    def dipping(*args, **kwargs):
        traj = integrate(*args, **kwargs)
        traj.stage_min = -1e-9
        return traj

    monkeypatch.setattr(experiments, "integrate", dipping)
    report = property_sweep(n_configs=1, seed=3)
    assert report.n_runs == 4 and len(report.failures) == 4
    assert all(f.endswith(": non-negativity: FAIL (stage, value -1e-09)") for f in report.failures)
