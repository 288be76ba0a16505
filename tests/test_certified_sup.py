"""Interval-arithmetic proofs that the closed-form sups bound their entries.

mpmath's ``iv`` context rounds every operation outward, so evaluating f on
an interval box encloses f's true range there.  A box is proven once the
enclosure's upper end is at most sup*(1 + 1e-12); otherwise it is bisected.
The enclosure is the tighter of the natural one and the mean-value form
f(c) + f'(X)*(X - c) with c the box midpoint.
"""

import random

import pytest
from mpmath import iv, mp

from ssp_seir.model import (
    _CHOICE_A_MAX,
    choice_a_recruitment,
    holling_incidence,
    media_incidence,
    recruitment_sup,
    sup_incidence,
)

_REL = 1e-12
_MAX_BOXES = 20_000


def _atan(x):
    # iv has no atan; atan increases, so its endpoint values, computed with
    # 20 guard bits and widened by a unit of the working precision, enclose
    # its range over x
    with mp.workprec(iv.prec + 20):
        lo, hi = mp.atan(mp.mpf(x.a)), mp.atan(mp.mpf(x.b))
    pad = mp.mpf(2) ** -iv.prec
    return iv.mpf([lo - abs(lo) * pad, hi + abs(hi) * pad])


def _prove_upper(f, df, lo, hi, sup):
    """Prove f <= sup*(1 + _REL) on [lo, hi]; return the number of boxes used."""
    bound = mp.mpf(sup) * (1 + mp.mpf(_REL))
    boxes = [(mp.mpf(lo), mp.mpf(hi))]
    used = 0
    while boxes:
        a, b = boxes.pop()
        used += 1
        assert used <= _MAX_BOXES, f"no proof on [{lo}, {hi}] within {_MAX_BOXES} boxes"
        x = iv.mpf([a, b])
        c = (a + b) / 2
        mean_value = f(iv.mpf(c)) + df(x) * (x - c)
        if min(mp.mpf(f(x).b), mp.mpf(mean_value.b)) <= bound:
            continue
        assert a < c < b, f"f exceeds {sup!r} near x={c}"
        boxes += [(a, c), (c, b)]
    return used


def _choice_a(t):
    return 2 / iv.pi * _atan(t) + iv.sin(t) / t


def _choice_a_slope(t):
    return 2 / (iv.pi * (1 + t * t)) + (t * iv.cos(t) - iv.sin(t)) / (t * t)


def test_choice_a_max_is_rounded_up():
    g = lambda t: 2 / mp.pi * mp.atan(t) + mp.sin(t) / t  # noqa: E731
    with mp.workdps(40):
        t_star = mp.findroot(lambda t: mp.diff(g, t), 1.03)
        g_max = g(t_star)
        assert mp.mpf(_CHOICE_A_MAX) >= g_max
        assert mp.mpf(_CHOICE_A_MAX) - g_max < mp.mpf("1e-15")


def test_choice_a_sup_is_certified():
    # kappa = 1 makes the sup the bare constant; kappa only scales it
    sup = recruitment_sup(choice_a_recruitment(1.0), 1e6)
    assert sup == _CHOICE_A_MAX
    bound = mp.mpf(sup)
    # t <= 1e-3: atan(t) <= t and sin(t)/t <= 1
    assert (2 / iv.pi * iv.mpf("1e-3") + 1).b <= bound
    # t >= 3: atan(t) < pi/2 and sin(t)/t <= 1/t, so g(t) < 1 + 1/3
    assert (1 + 1 / iv.mpf(3)).b <= bound
    assert _prove_upper(_choice_a, _choice_a_slope, "1e-3", 3, sup) < 1000


def _holling_cases():
    rng = random.Random(20261018)
    cases = [(1.0, 1.0, 2.0, 10.0), (2.0, 3.0, 1.5, 7.0), (1.0, 0.0, 2.0, 5.0)]
    for _ in range(9):
        cases.append((
            rng.uniform(0.1, 3.0), rng.uniform(0.1, 3.0),
            rng.uniform(0.5, 4.0), rng.uniform(0.1, 10.0),
        ))
    return cases


@pytest.mark.parametrize("c1, c2, k, hi", _holling_cases(), ids=lambda v: f"{v:.4g}")
def test_holling_sup_is_certified(c1, c2, k, hi):
    def f(x):
        return c1 * x / (1 + c2 * x**k)

    def df(x):
        return c1 * (1 + (1 - k) * c2 * x**k) / (1 + c2 * x**k) ** 2

    sup = sup_incidence(holling_incidence(c1, c2, k), hi)
    assert _prove_upper(f, df, 0, hi, sup) < 1000


@pytest.mark.parametrize(
    "nu, eta, hi", [(0.0115, 0.001, 3.0), (0.05, 0.4, 10.0), (0.02, 0.0, 4.0)]
)
def test_media_sup_is_certified(nu, eta, hi):
    def f(x):
        return nu * iv.exp(-eta * x) * x

    def df(x):
        return nu * iv.exp(-eta * x) * (1 - eta * x)

    sup = sup_incidence(media_incidence(nu, eta), hi)
    assert _prove_upper(f, df, 0, hi, sup) < 1000
