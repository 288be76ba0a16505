"""Butcher algebra, canonical forms, SSP coefficients and the low-storage
cross-validation fixture."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from ssp_seir.shu_osher import (
    BUILTIN_METHOD_KEYS,
    ButcherTableau,
    InfeasibleFormError,
    ShuOsherForm,
    builtin_method,
    builtin_tableau,
    butcher_amplification,
    k_matrix,
    shu_osher_amplification,
    shu_osher_from_butcher,
    ssp_coefficient,
)

KNOWN_C = {"euler": 1.0, "ssprk22": 1.0, "ssprk33": 1.0, "ssprk104": 6.0}


def test_tableau_validation():
    with pytest.raises(ValueError, match="not explicit"):
        ButcherTableau(((1.0,),), (1.0,))
    with pytest.raises(ValueError, match="sum to 1"):
        ButcherTableau(((0.0, 0.0), (1.0, 0.0)), (0.5, 0.4))
    with pytest.raises(ValueError, match="2x2"):
        ButcherTableau(((0.0,),), (0.5, 0.5))
    for x in (math.inf, math.nan):
        with pytest.raises(ValueError, match="must be finite"):
            ButcherTableau(((0.0, 0.0), (x, 0.0)), (0.5, 0.5))


# the two-stage Euler form, with one entry replaced by a non-finite value
_EULER = {"alpha": ((0.0, 0.0), (1.0, 0.0)), "v": (1.0, 0.0), "r": 1.0, "c_stage": (0.0,)}


@pytest.mark.parametrize("field, value, message", [
    ("alpha", ((0.0, 0.0), (math.nan, 0.0)), "consistency violated"),
    ("v", (1.0, math.nan), "consistency violated"),
    ("r", math.inf, "r must be positive and finite"),
    ("c_stage", (math.nan,), "abscissae must be finite"),
    ("c_stage", (math.inf,), "abscissae must be finite"),
], ids=["nan-alpha", "nan-v", "inf-r", "nan-abscissa", "inf-abscissa"])
def test_shu_osher_form_rejects_non_finite_entries(field, value, message):
    ShuOsherForm(**_EULER)  # must not raise
    with pytest.raises(ValueError, match=message):
        ShuOsherForm(**{**_EULER, field: value})


def test_tableau_abscissae():
    t = builtin_tableau("ssprk33")
    assert t.c == (0.0, 1.0, 0.5)


def test_k_matrix_blocks():
    assert k_matrix(builtin_tableau("euler")) == [[0.0, 0.0], [1.0, 0.0]]
    assert k_matrix(builtin_tableau("ssprk22")) == [
        [0.0, 0.0, 0.0],
        [1.0, 0.0, 0.0],
        [0.5, 0.5, 0.0],
    ]
    km = k_matrix(builtin_tableau("ssprk33"))
    assert km[2] == [0.25, 0.25, 0.0, 0.0]
    assert km[3] == [Fraction(1, 6), Fraction(1, 6), Fraction(2, 3), 0]


def test_canonical_form_euler():
    form = shu_osher_from_butcher(builtin_tableau("euler"), r=1.0)
    assert form.v == (1.0, 0.0)
    assert form.alpha[1][0] == 1.0


def test_canonical_form_ssprk22_classical():
    form = shu_osher_from_butcher(builtin_tableau("ssprk22"), r=1.0)
    assert form.v == pytest.approx((1.0, 0.0, 0.5), abs=1e-15)
    assert form.alpha[1][0] == pytest.approx(1.0, abs=1e-15)
    assert form.alpha[2][0] == pytest.approx(0.0, abs=1e-15)
    assert form.alpha[2][1] == pytest.approx(0.5, abs=1e-15)


def test_canonical_form_infeasible_beyond_c():
    with pytest.raises(InfeasibleFormError):
        shu_osher_from_butcher(builtin_tableau("ssprk22"), r=3.0)
    for r in (0.0, math.inf, math.nan):
        with pytest.raises(ValueError, match="positive and finite"):
            shu_osher_from_butcher(builtin_tableau("ssprk22"), r=r)


@pytest.mark.parametrize("key", ["ssprk33", "ssprk104"])
def test_next_float_above_c_is_infeasible(key):
    # the exact sign test admits no rounding slack above the SSP coefficient
    with pytest.raises(InfeasibleFormError):
        shu_osher_from_butcher(builtin_tableau(key), math.nextafter(KNOWN_C[key], math.inf))


@pytest.mark.parametrize("key", BUILTIN_METHOD_KEYS)
def test_ssp_coefficients_by_bisection(key):
    t = builtin_tableau(key)
    c = ssp_coefficient(t, tol=1e-6)
    assert c == pytest.approx(KNOWN_C[key], abs=1e-4)
    shu_osher_from_butcher(t, c)  # the result itself must be feasible


@pytest.mark.parametrize("key", BUILTIN_METHOD_KEYS)
def test_feasibility_brackets_the_coefficient(key):
    t = builtin_tableau(key)
    c = KNOWN_C[key]
    shu_osher_from_butcher(t, 0.99 * c)  # must not raise
    with pytest.raises(InfeasibleFormError):
        shu_osher_from_butcher(t, 1.01 * c)


@pytest.mark.parametrize("key", BUILTIN_METHOD_KEYS)
def test_builtin_form_consistency(key):
    form = builtin_method(key)
    assert builtin_method(key) is form
    assert form.key == key
    assert form.ssp_c == KNOWN_C[key]
    assert form.r == form.ssp_c
    assert form.v[0] == 1.0
    for i in range(form.m + 1):
        assert form.v[i] >= 0.0
        assert abs(form.v[i] + math.fsum(form.alpha[i][:i]) - 1.0) <= 1e-12
        for x in form.alpha[i]:
            assert x >= 0.0


def test_builtin_forms_are_rounded_exact_rationals():
    assert builtin_method("ssprk33").v[3] == float(Fraction(1, 3))
    ssprk104 = builtin_method("ssprk104")
    assert ssprk104.v[10] == float(Fraction(1, 25))
    assert ssprk104.alpha[10][9] == float(Fraction(3, 5))
    assert ssprk104.c_stage[8] == float(Fraction(5, 6))


@pytest.mark.parametrize("key", BUILTIN_METHOD_KEYS)
def test_linear_round_trip(key):
    tableau = builtin_tableau(key)
    form = builtin_method(key)
    rng = random.Random(42)
    for _ in range(100):
        z = rng.uniform(-2.0, 0.5)
        ref = butcher_amplification(tableau, z)
        got = shu_osher_amplification(form, z)
        assert abs(got - ref) <= 1e-12 * max(1.0, abs(ref))


@given(r=st.floats(0.05, 1.0), z=st.floats(-1.5, 0.5))
def test_round_trip_holds_at_suboptimal_r(r, z):
    tableau = builtin_tableau("ssprk33")
    form = shu_osher_from_butcher(tableau, r)
    ref = butcher_amplification(tableau, z)
    got = shu_osher_amplification(form, z)
    assert abs(got - ref) <= 1e-12 * max(1.0, abs(ref))


def test_unknown_method_key():
    with pytest.raises(KeyError):
        builtin_tableau("rk4-classic")


def low_storage_ssprk104(z: float) -> float:
    """Two-register form: five Euler sub-steps, a register shuffle, four more
    sub-steps, then the final combination."""
    q1 = 1.0
    q2 = 1.0
    for _ in range(5):
        q1 = q1 * (1.0 + z / 6.0)
    q2 = q2 / 25.0 + 9.0 / 25.0 * q1
    q1 = 15.0 * q2 - 5.0 * q1
    for _ in range(4):
        q1 = q1 * (1.0 + z / 6.0)
    return q2 + 3.0 / 5.0 * q1 + z / 10.0 * q1


def test_ssprk104_matches_low_storage_fixture():
    tableau = builtin_tableau("ssprk104")
    form = builtin_method("ssprk104")
    rng = random.Random(3)
    for _ in range(100):
        z = rng.uniform(-2.0, 0.5)
        ref = low_storage_ssprk104(z)
        assert abs(butcher_amplification(tableau, z) - ref) <= 1e-12 * max(1.0, abs(ref))
        assert abs(shu_osher_amplification(form, z) - ref) <= 1e-12 * max(1.0, abs(ref))


def test_ssprk104_is_fourth_order_on_exponential():
    # one step of u' = u from u=1: amplification must match e^z to O(z^5)
    for z in (0.1, 0.05, 0.025):
        err = abs(butcher_amplification(builtin_tableau("ssprk104"), z) - math.exp(z))
        assert err <= 2.0 * z**5
