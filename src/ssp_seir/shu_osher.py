"""Canonical Shu-Osher forms and the builtin SSP Runge-Kutta methods.

A Shu-Osher form is what the stepping core runs.  The four builtin methods
are their optimal forms (r = C; Gottlieb, Ketcheson & Shu, 2011, ch. 2),
written below as rational literals: Python rounds each ``int / int``
correctly, so every coefficient is the float that the exact derivation from
the Butcher tableau rounds to.  That derivation is a test-side oracle
(``tests/butcher.py``), which no command runs; a test compares the two bit
for bit.
"""

import functools
import math

from .model import _Value

__all__ = ["ShuOsherForm", "BUILTIN_METHOD_KEYS", "builtin_method"]


class ShuOsherForm(_Value):
    """Canonical Shu-Osher representation of an explicit RK method.

    ``alpha`` and ``v`` are indexed over all m+1 stages, the trivial first
    stage included (alpha row 0 is all zeros and v[0] = 1; no index shifting
    is done anywhere).  ``r`` is the representation parameter actually used
    for stepping (effective Euler sub-step tau/r) and ``ssp_c`` the SSP
    coefficient when known.  ``c_stage`` carries the Butcher abscissae for
    stage-time evaluation of time-dependent terms.  Immutable, sequences
    stored as tuples; equal forms compare and hash equal (the hash computed
    once), so they share one step kernel.
    """

    __slots__ = ("alpha", "v", "r", "c_stage", "ssp_c", "key")

    def __init__(
        self, alpha: tuple[tuple[float, ...], ...], v: tuple[float, ...], r: float,
        c_stage: tuple[float, ...], ssp_c: float | None = None, key: str | None = None,
    ) -> None:
        alpha, v, c_stage = tuple(map(tuple, alpha)), tuple(v), tuple(c_stage)
        n = len(v)
        if len(alpha) != n or any(len(row) != n for row in alpha):
            raise ValueError("alpha must be square over all m+1 stages")
        if len(c_stage) != n - 1:
            raise ValueError("c_stage must have one abscissa per Butcher stage")
        if not (r > 0.0 and math.isfinite(r)):
            raise ValueError(f"r must be positive and finite, got {r}")
        if not all(map(math.isfinite, c_stage)):
            raise ValueError(f"abscissae must be finite, got {c_stage}")
        # the step bound tau_method is ssp_c * dt*, so a bad C would be silent
        if ssp_c is not None and not (ssp_c > 0.0 and math.isfinite(ssp_c)):
            raise ValueError(f"ssp_c must be positive and finite, got {ssp_c}")
        for i in range(n):
            residual = v[i] + math.fsum(alpha[i][:i]) - 1.0
            if not abs(residual) <= 1e-9:  # a NaN coefficient fails it too
                raise ValueError(f"consistency violated in stage {i + 1}: {residual}")
            for j in range(i, n):
                if alpha[i][j] != 0.0:
                    raise ValueError("alpha must be strictly lower triangular")
        self._set(alpha, v, r, c_stage, ssp_c, key)

    @property
    def m(self) -> int:
        """Number of Butcher stages (the form has m+1 stages)."""
        return len(self.v) - 1


# ---------------------------------------------------------------------------
# builtin methods
# ---------------------------------------------------------------------------

# Each optimal form as (C, abscissae, stages); stage i >= 1 is
# (v_i, {j: alpha_ij}), the alpha entries not listed being zero.
_OPTIMAL_FORMS = {
    "euler": (1, (0,), ((0, {0: 1}),)),
    "ssprk22": (1, (0, 1), ((0, {0: 1}), (1/2, {1: 1/2}))),
    "ssprk33": (1, (0, 1, 1/2), ((0, {0: 1}), (3/4, {1: 1/4}), (1/3, {2: 2/3}))),
    "ssprk104": (6, (0, 1/6, 1/3, 1/2, 2/3, 1/3, 1/2, 2/3, 5/6, 1), (
        (0, {0: 1}), (0, {1: 1}), (0, {2: 1}), (0, {3: 1}), (3/5, {4: 2/5}),
        (0, {5: 1}), (0, {6: 1}), (0, {7: 1}), (0, {8: 1}), (1/25, {4: 9/25, 9: 3/5}),
    )),
}

BUILTIN_METHOD_KEYS = tuple(_OPTIMAL_FORMS)


@functools.cache
def builtin_method(name: str) -> ShuOsherForm:
    """Optimal Shu-Osher form (r = C) of a builtin method.

    Built once per name and process; forms are frozen, so every caller can
    share the one instance.
    """
    try:
        c, c_stage, stages = _OPTIMAL_FORMS[name]
    except KeyError:
        raise KeyError(f"unknown method {name!r}; known: {BUILTIN_METHOD_KEYS}") from None
    n = len(stages) + 1
    alpha = [(0.0,) * n]
    alpha += [tuple(float(row.get(j, 0)) for j in range(n)) for _, row in stages]
    v = (1.0, *(float(v_i) for v_i, _ in stages))
    c = float(c)
    return ShuOsherForm(alpha, v, c, tuple(map(float, c_stage)), ssp_c=c, key=name)
