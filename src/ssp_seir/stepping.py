"""Shu-Osher SSP Runge-Kutta stepping of the SEIR system.

Every method, explicit Euler included (the one-stage form), runs through
:func:`integrate`, and the only step loop is a kernel generated from the
Shu-Osher form and the two rate formulas: the source of one function holding
the whole loop, with the stages unrolled, each Euler sub-step written out
and each formula pasted in place of a call to its rate function.  A kernel
is compiled on the first :func:`integrate` call for a form and pair of
formulas and cached by their values, so equal forms and entries differing
only in their parameters share one.  The coefficients and each entry's
``params`` are bound in the kernel's prologue, not written into its source.
The kernel does only the work its caller reads: it keeps the rows of a
stride ``every`` and the run's end row, so a threshold probe keeps just its
end row and a grid run its output rows, and it tracks the per-stage minimum
only for a run with ``stages`` (``simulate --stages`` and ``check``).  The
cache key is ``(form, incidence, recruitment, stages)``; every kernel ends a
step with the same test of the step state (see :func:`_kernel`).

Each Euler sub-step ``x + h*rhs(t, x)``, with ``h = tau/r``, is evaluated
in the positivity form of the paper's proof, a combination of the stage's
compartments whose coefficients are the terms of dt*::

    S' = (c_s - h*f(I))*S + h*pi(t)          c_s = 1 - h*mu
    E' = c_e*E + h*f(I)*S                    c_e = 1 - h*(mu + sigma)
    I' = c_i*I + (h*sigma)*E + (h*delta)*R   c_i = 1 - h*(mu + gamma)
    R' = c_r*R + (h*gamma)*I                 c_r = 1 - h*(mu + delta)

The coefficients and the three products ``h*rate`` are computed once per
run, ``h*f(I)`` once per stage and ``h*pi`` once per distinct abscissa, so
a stage takes 15 float operations besides its formulas and ``h*pi`` where
``x + h*F(x)`` takes 22, and it cancels no large terms near the bound.
``tau <= C*dt*`` makes every coefficient non-negative in exact arithmetic,
``c_s - h*f(I)`` included, as ``f(I) <= B``.  In floats a stage can still
fall below 0: where a coefficient rounds below 0, and also where every
coefficient of the bound is ``>= 0`` but the float population drifts above
the cap B is taken over, so that the computed ``f(I)`` exceeds B and
``c_s - h*f(I)`` is negative.

Stage recruitment is evaluated at the Butcher abscissa times carried by the
form (t_n + c_j * tau); this preserves classical order for time-dependent
recruitment and collapses to pi(t_n) for forward Euler.  A form with the
abscissae 0 and 1 (ssprk22, ssprk33, ssprk104) carries its c = 1 ``h*pi``
over the step boundary (see :func:`_kernel`), so catalog functions must be
pure.
The arithmetic and its order are fixed: the stage combination is v_i*x
first, then the alpha terms in ascending stage index, so repeated runs are
bitwise reproducible, and the kernel computes bit for bit what a plain
stage-by-stage loop computes.  A copy stage, with v_i = 0 and one alpha
term of exactly 1.0, is the Euler sub-step it copies.  The step clock is a
float count, so the time ``t0 + k*tau`` of step k takes no int-to-float
conversion; it is exact, and bitwise the plain loop's, for k below 2**53,
and :func:`integrate` rejects a longer run.  Negative compartment values are
never clamped: observing them is the whole point of the property checks.
"""

import ast
import functools
import itertools
import linecache
import math
import sys
from array import array
from operator import add
from typing import IO, Callable

from .model import FORMULA_NAMESPACE, ModelParams, RateFunction, State, _Value
from .shu_osher import ShuOsherForm

__all__ = [
    "Trajectory",
    "IntegrationOverflowError",
    "integrate",
    "trajectory_to_csv",
    "STEP_LIMIT",
    "STEP_BUDGET",
    "step_count",
    "sub_step_coefficients",
]

STEP_LIMIT = 2**53  # integrate's bound on n_steps: the float step clock counts exactly below it
# the steps one run may take: 2**32 steps of ssprk104 already take hours
STEP_BUDGET = 2**32


def step_count(t_f: float, tau: float) -> int:
    """``ceil(t_f/tau)``, the steps of ``tau`` that cover the horizon ``t_f``.
    In this order, a ValueError is raised for a ``tau`` not finite and
    positive, a ``t_f`` not finite and non-negative, a ``t_f/tau`` not
    finite, a count of ``STEP_LIMIT`` or more and one above ``STEP_BUDGET``."""
    if not (math.isfinite(tau) and tau > 0.0):
        raise ValueError(f"step size must be finite and positive, got {tau}")
    if not (math.isfinite(t_f) and t_f >= 0.0):
        raise ValueError(f"final time must be finite and non-negative, got {t_f}")
    steps = t_f / tau
    if not math.isfinite(steps):
        raise ValueError(f"step count t_f/tau is not finite for t_f={t_f!r}, tau={tau!r}")
    n_steps = math.ceil(steps)
    if n_steps >= STEP_LIMIT:
        raise ValueError(f"n_steps must be below 2**53 for t_f={t_f!r}, tau={tau!r}")
    if n_steps > STEP_BUDGET:
        raise ValueError(f"the run would take more than 2**32 steps for t_f={t_f!r}, tau={tau!r}")
    return n_steps


class IntegrationOverflowError(RuntimeError):
    """A non-finite state appeared during integration."""

    def __init__(self, step_index: int, partial: "Trajectory"):
        self.step_index = step_index
        self.partial = partial
        super().__init__(f"non-finite state at step {step_index}")


class Trajectory(_Value):
    """Time-stamped step states with the stepping metadata.

    ``data`` is one flat float64 ``array('d')`` of rows of five values
    ``t, S, E, I, R``, row after row: every step state of the run, or those
    its ``every`` stride kept (:func:`integrate`).  :meth:`row` and
    :attr:`compartments` read it without repeating that layout; the checks
    work on the columns, and :attr:`states` builds :class:`State` objects on
    every read.  ``stage_min`` is the smallest compartment value seen over
    all internal stages of all steps (step states included), a diagnostic
    for stage-level positivity checks, or None for a run that tracked no
    stages (``integrate(..., stages=False)``).  The fields cannot be
    reassigned, but ``data`` is the run's own array, not a copy: writing to
    it changes the run.  Instances compare and hash by identity.
    """

    __slots__ = ("data", "tau", "method", "stage_min")
    __eq__, __hash__ = object.__eq__, object.__hash__

    def __repr__(self) -> str:
        return (
            f"Trajectory(rows={len(self)}, tau={self.tau!r}, method={self.method!r}, "
            f"stage_min={self.stage_min!r})"
        )

    def row(self, k: int) -> array:
        """Row ``k`` (negative counts from the end): ``t, S, E, I, R``."""
        k = range(len(self))[k]
        return self.data[5 * k : 5 * k + 5]

    @property
    def compartments(self) -> tuple[array, array, array, array]:
        """The S, E, I and R columns."""
        d = self.data
        return d[1::5], d[2::5], d[3::5], d[4::5]

    @property
    def times(self) -> list[float]:
        return self.data[0::5].tolist()

    @property
    def populations(self) -> list[float]:
        """N = ((S + E) + I) + R per row, bitwise :attr:`State.total`."""
        s, e, i, r = self.compartments
        return list(map(add, map(add, map(add, s, e), i), r))

    @property
    def states(self) -> list[State]:
        return list(map(State, *self.compartments, self.data[0::5]))

    def __len__(self) -> int:
        return len(self.data) // 5


def integrate(
    x0: State,
    tau: float,
    n_steps: int,
    method: ShuOsherForm,
    p: ModelParams,
    f: RateFunction,
    pi: RateFunction,
    *,
    stop_below: float | None = None,
    every: int = 1,
    stages: bool = True,
) -> Trajectory:
    """Repeated Shu-Osher stepping with effective sub-step tau/r; the
    one-stage form is forward Euler, bit for bit.  Deterministic given
    identical inputs.

    Step times are computed as t0 + k*tau directly (no accumulation drift),
    with k counted in floats, which is exact below 2**53 steps: a longer
    run is a ValueError.
    Raises :class:`IntegrationOverflowError` as soon as a non-finite state
    appears, carrying the partial trajectory.

    With a floor ``stop_below``, the run ends at the first step state (the
    initial state included) with a compartment not ``>= stop_below``: the
    trajectory is truncated there, so that state is its last row, and a run
    cut short has fewer than ``n_steps + 1`` rows.  Every row up to it is the
    same as in the full run.

    The trajectory keeps row 0, the state of every ``every``-th step and the
    state the run ended on (step ``n_steps`` or the step the floor stopped
    at), each bit for bit as in the full run; ``every=1`` keeps every step.
    An overflow's partial trajectory keeps the rows of that stride before
    the failing step.  The steps taken, ``stage_min`` and the failing step
    do not depend on ``every``.

    With ``stages`` (the default), ``stage_min`` covers the stages of every
    step that ran.  On an overflow it also covers the failing step's stages
    when that step ended on a non-finite state, and not when a formula
    raised ``OverflowError`` partway through it.  With ``stages=False`` the
    run tracks no stage minimum and ``stage_min`` is None; its rows, the
    steps taken, the failing step and ``method`` are those of the tracked
    run, bit for bit.  The kernel computes the stage minimum only with
    ``stages``, and judges each step state as :func:`_kernel` describes.
    The start time ``x0.t`` must be finite: every row's time and every
    recruitment argument derive from it.
    """
    if not (math.isfinite(tau) and tau >= 0.0):
        raise ValueError(f"step size must be finite and non-negative, got {tau}")
    if n_steps < 0:
        raise ValueError(f"n_steps must be non-negative, got {n_steps}")
    if n_steps >= STEP_LIMIT:
        raise ValueError("n_steps must be below 2**53")
    if stop_below is not None and math.isnan(stop_below):
        raise ValueError("stop floor must not be NaN")
    if not (isinstance(every, int) and every >= 1):
        raise ValueError(f"every must be a positive integer, got {every!r}")
    if not math.isfinite(x0.t):
        raise ValueError(f"start time must be finite, got {x0.t}")
    s, e, i, r = x0.s, x0.e, x0.i, x0.r
    history = [x0.t, s, e, i, r]
    stage_min = min(s, e, i, r) if stages else None
    # each compartment on its own: min() skips a NaN that is not first
    if stop_below is not None and not (
        s >= stop_below and e >= stop_below and i >= stop_below and r >= stop_below
    ):
        n_steps = 0  # stage_min is still the initial state's minimum
    # the kernel's floor (see _kernel): clamped to -float_max, which without
    # a stop_below every finite value meets
    floor = -sys.float_info.max if stop_below is None else max(stop_below, -sys.float_info.max)
    failed_at, stage_min = _kernel(method, f.formula, pi.formula, stages)(
        s, e, i, r, x0.t, tau, n_steps,
        p, f.params, pi.params, floor, every, history, stage_min,
    )
    data = array("d", history)
    traj = Trajectory(data, tau, method.key or f"shu-osher-{method.m}", stage_min)
    if failed_at is not None:
        raise IntegrationOverflowError(failed_at, traj)
    return traj


def sub_step_coefficients(
    tau: float, r: float, p: ModelParams,
) -> tuple[float, float, float, float, float, float, float, float]:
    """``(h, c_s, c_e, c_i, c_r, h_sigma, h_gamma, h_delta)``: the sub-step
    ``h = tau/r`` and the coefficients of the Euler sub-step's positivity
    form (module docstring), bit for bit as every kernel binds them in its
    prologue, which calls this once per run."""
    h = tau / r
    mu, sigma, gamma, delta = p.mu, p.sigma, p.gamma, p.delta
    return (
        h, 1.0 - h * mu, 1.0 - h * (mu + sigma), 1.0 - h * (mu + gamma), 1.0 - h * (mu + delta),
        h * sigma, h * gamma, h * delta,
    )


@functools.cache
def _paste(formula: str, x: str, prefix: str) -> tuple[str, tuple[str, ...]]:
    """``(expression, parameters)``: ``formula`` reading its argument from the
    local ``x``, each of its ``parameters`` from the local ``prefix + name``,
    and each constant of :data:`FORMULA_NAMESPACE` (``pi``) as a literal, so
    that the compiler folds ``2.0 / pi`` into one constant.  A negated
    parameter ``-name`` reads the local ``'n' + prefix + name`` instead and is
    listed as ``-name``: :func:`_bind` negates it once, which is exact.
    Measured as in :func:`_kernel`, ``convergence`` (media, choiceA) ran 3.4%
    slower without the literal (26 of 30 pairs) and 3.0% without the negation
    (23 of 30)."""
    parameters = set()

    class Paste(ast.NodeTransformer):
        def visit_Name(self, node: ast.Name) -> ast.expr:
            if node.id == "x":
                return ast.Name(x, ast.Load())
            if node.id not in FORMULA_NAMESPACE:
                parameters.add(node.id)
                return ast.Name(prefix + node.id, ast.Load())
            value = FORMULA_NAMESPACE[node.id]
            return node if callable(value) else ast.Constant(value)

        def visit_UnaryOp(self, node: ast.UnaryOp) -> ast.expr:
            name = node.operand
            if (
                isinstance(node.op, ast.USub) and isinstance(name, ast.Name)
                and name.id != "x" and name.id not in FORMULA_NAMESPACE
            ):
                parameters.add("-" + name.id)
                return ast.Name("n" + prefix + name.id, ast.Load())
            return self.generic_visit(node)

    expression = ast.unparse(Paste().visit(ast.parse(formula, mode="eval")))
    return expression, tuple(sorted(parameters))


def _bind(formula: str, prefix: str, entry: str) -> list[str]:
    """The prologue lines binding the parameters of ``formula``, pasted with
    ``prefix``, from the entry's ``params`` mapping named ``entry``."""
    return [
        f"n{prefix}{n[1:]} = -{entry}[{n[1:]!r}]" if n[0] == "-"
        else f"{prefix}{n} = {entry}[{n!r}]"
        for n in _paste(formula, "x", prefix)[1]
    ]


_serial = itertools.count()  # numbers the kernels' file names


@functools.cache
def _kernel(form: ShuOsherForm, incidence: str, recruitment: str, stages: bool = True) -> Callable:
    """Compile the whole step loop of ``form`` into one function, with the
    formulas ``incidence`` and ``recruitment`` pasted in place of calls.

    The coefficients are read from ``form`` in the function's prologue, and
    each formula parameter from the entry's ``params`` (a negated one
    negated there, :func:`_paste`), not written into its source.  The
    prologue also binds the coefficients of the Euler sub-step's positivity
    form (module docstring), ``c_s``, ``c_e``, ``c_i`` and ``c_r``, and the
    products ``h_sigma``, ``h_gamma`` and ``h_delta``, from one call of
    :func:`sub_step_coefficients`, which the positivity certificate
    (:mod:`~ssp_seir.step_bounds`) calls too; each stage computes
    ``hf = h*f(I)`` once.

    Two rewrites skip recruitment work that cannot change a bit.  Each is
    kept for its gain measured alone, the median over alternating pairs of
    ``perfbench/run.py --seconds 8 --trace 0`` against the tree without it:

    * ``hp = h*pi(t)`` is evaluated once per distinct abscissa, at ``t``
      itself at an abscissa of 0: ``t`` is finite and never -0.0, so
      ``t + 0.0`` is ``t``.  Without it ``threshold`` ran 1.5% slower (9 of
      10 pairs) and ``convergence`` 3.2% (17 of 20).
    * A form evaluating pi at abscissae of exactly 0.0 and 1.0 keeps its
      c = 1 time ``t_one = t + tau`` (``t_one`` starts at -inf) and its
      ``h*pi``; the next step's c = 0 stage reuses that product when
      ``t == t_one``.  ``tau >= 0``, so ``t_one`` is never -0.0 either, and
      equal floats are equal bits: a pure pi, times the run's one ``h``,
      gives the same product.  Without it ``threshold`` ran 3.4% slower (10
      of 10) and ``convergence`` 3.3% (9 of 10).

    A copy stage ``i``, with ``v_i = 0`` and one alpha term, of exactly 1.0,
    from stage ``j``, is stage ``j``'s Euler sub-step ``f_j``, and not
    ``0.0 + f_j``: for ``i < m`` it reads ``f_j`` and has no line, and as
    the final stage (Euler's) it copies ``f_j`` into the step state.  The
    plain loop defines a copy stage so too; a sub-step in the positivity
    form can be -0.0, which ``0.0 +`` would turn into 0.0.

    It extends the flat list ``history`` by the row ``t, s, e, i, r`` of
    every ``every``-th step state and of the state the run ended on, its
    time ``t0 + kf*tau`` computed afresh (no accumulation drift) from a float
    step count ``kf``, which ``kf += 1.0`` advances and a float product
    multiplies without converting an int.  While ``k + 1 < 2**53`` every
    count is exact, so the time is bitwise ``t0 + (k + 1)*tau``.  It returns
    ``(k, stage_min)``.  ``k`` is None when the loop ran out or the floor
    ended it at a step state with a compartment below ``floor``, else the
    index of the step that failed.

    Every kernel ends a step with one test of the step state, by
    comparisons alone, which allocate nothing: ``x >= floor`` and
    ``x < inf`` for each compartment.  A NaN fails every comparison, and
    ``floor`` is at least ``-float_max``: :func:`integrate` clamps a
    ``stop_below`` to it, so a -inf fails even under a -inf floor, and
    passes ``-float_max`` for a run without one, which every finite value
    meets.  So a state passes exactly when it is finite and not below the
    run's floor, the plain loop's test, and the run is the same bit for
    bit.  Only a failing state is told apart, in the plain loop's order: a
    non-finite one ends the run as an overflow, a finite one at the floor.

    The kernel emits only the bookkeeping its run reads.  With ``stages``,
    ``stage_min`` is lowered to the smallest compartment of every stage: it
    covers the stages of the steps before a failing one, and when the
    failing step ended on a non-finite state that step's stages too, while
    an ``OverflowError`` raised within a step leaves them out.  Without
    ``stages`` the kernel never reads or changes ``stage_min`` and returns
    it as given, computing no stage minimum at all.

    The cache keeps one kernel per distinct form value, pair of formulas
    and ``stages`` flag integrated; its source is registered with
    :mod:`linecache`, so tracebacks show its lines.
    """
    m = form.m
    # nonzero alpha terms of each row in ascending j; skipping exact zeros
    # keeps the one-stage form bitwise its Euler sub-step in the positivity form
    terms = [[j for j in range(i) if form.alpha[i][j] != 0.0] for i in range(m + 1)]
    read = {j for row in terms for j in row}  # stages whose Euler sub-step is used
    # h*pi once per distinct abscissa, at the first stage that reads it.  0.0
    # and -0.0 are one key: t is never -0.0, so t + -0.0*tau is t, pasted itself
    first: dict[float, int] = {}
    pi_of = {k: first.setdefault(form.c_stage[k], k) for k in sorted(read)}
    # the stages that carry pi over the step boundary (see the docstring)
    zero, one = first.get(0.0), first.get(1.0)
    carry = zero is not None and one is not None
    head = [
        "h, c_s, c_e, c_i, c_r, h_sigma, h_gamma, h_delta = coefficients(tau, form.r, p)",
        "extend = history.extend",
        "keep = every - 1",  # the next step whose state is kept
    ]
    head += _bind(incidence, "f_", "incidence") + _bind(recruitment, "pi_", "recruitment")
    head += [f"ct{k} = form.c_stage[{k}] * tau" for c, k in first.items() if c != 0.0]
    # t is the start time t0 + kf*tau of step k, kf the float k (see the
    # docstring).  Computed at the end of step k-1, it also stamps that step's
    # row; step 0 starts at t0 + 0.0*tau like the others (t0 = -0.0 becomes
    # 0.0 there, while row 0 keeps x0.t)
    head += ["kf = 0.0", "t = t0 + kf * tau"]
    if carry:
        head.append("t_one = float('-inf')")  # no finite t equals it
    step = ["before = stage_min"] if stages else []  # the minimum before this step
    stage = [tuple("seir")]  # the compartment names of each stage
    for k in range(m):
        xs, xe, xi, xr = stage[k]
        if k in read:
            # parentheses group as the call did: they leave the tree as it was
            step.append(f"hf = h * ({_paste(incidence, xi, 'f_')[0]})")
            if pi_of[k] == k:
                at = "t" if form.c_stage[k] == 0.0 else "t_one" if carry and k == one else "t_pi"
                if at != "t":
                    step.append(f"{at} = t + ct{k}")
                value = f"h * ({_paste(recruitment, at, 'pi_')[0]})"
                if carry and k == zero:
                    value = f"hp{one} if t == t_one else {value}"
                step.append(f"hp{k} = {value}")
            step += [
                f"fs{k} = (c_s - hf) * {xs} + hp{pi_of[k]}",
                f"fe{k} = c_e * {xe} + hf * {xs}",
                f"fi{k} = c_i * {xi} + h_sigma * {xe} + h_delta * {xr}",
                f"fr{k} = c_r * {xr} + h_gamma * {xi}",
            ]
        # stage i: v_i*x (or 0.0, which also turns a -0.0 term into 0.0)
        # first, then the alpha terms in ascending j.  The last stage is the
        # new step state; each of its components reads only its own old
        # value, so it is written over s, e, i, r.
        i = k + 1
        # a copy stage, with v_i = 0 and one alpha term of exactly 1.0, is
        # stage j's Euler sub-step: it reads f_j, and only the last stage,
        # the new step state, copies it into s, e, i, r
        j = terms[i][0] if len(terms[i]) == 1 else None
        copy = j is not None and form.v[i] == 0.0 and form.alpha[i][j] == 1.0
        if not copy:
            if form.v[i] != 0.0:
                head.append(f"v{i} = form.v[{i}]")
            head += [f"a{i}_{j} = form.alpha[{i}][{j}]" for j in terms[i]]
        if copy and i < m:
            names = tuple(f"f{c}{j}" for c in "seir")
        else:
            names = tuple(c if i == m else f"{c}{i}" for c in "seir")
            for c, name in zip("seir", names):
                if copy:
                    step.append(f"{name} = f{c}{j}")
                else:
                    sum_ = ["0.0" if form.v[i] == 0.0 else f"v{i} * {c}"]
                    sum_ += [f"a{i}_{j} * f{c}{j}" for j in terms[i]]
                    step.append(f"{name} = {' + '.join(sum_)}")
        stage.append(names)
        if stages:
            # stage_min = min(stage_min, min(stage)), spelled out with min()'s
            # NaN and tie rules
            step.append(f"stage_low = {names[0]}")
            step += [f"if {x} < stage_low: stage_low = {x}" for x in names[1:]]
            step.append("if stage_low < stage_min: stage_min = stage_low")
    # the step state's test (see the docstring); only a failing state is
    # told apart: a non-finite one is an overflow, a finite one the floor stop
    below_inf = " and ".join(f"{c} < inf" for c in "seir")
    head += ["inf = float('inf')", "ninf = -inf"]
    step += [
        "kf += 1.0",
        "t = t0 + kf * tau",
        f"if not ({' and '.join(f'{c} >= floor' for c in 'seir')} and {below_inf}):",
        f"    if not ({below_inf} and {' and '.join(f'{c} > ninf' for c in 'seir')}):",
        "        return k, stage_min",
        "    extend((t, s, e, i, r))",
        "    return None, stage_min",
        "if k == keep:",
        "    extend((t, s, e, i, r))",
        "    keep += every",
    ]
    # divergent runs can push exp()-based formulas past the double range
    # before the state itself turns non-finite: that is an overflow too
    source = "\n".join(
        ["def kernel(s, e, i, r, t0, tau, n_steps, p, incidence, recruitment,"
         " floor, every, history, stage_min):"]
        + [f"    {line}" for line in head]
        + ["    try:", "        for k in range(n_steps):"]
        + [f"            {line}" for line in step]
        + ["    except OverflowError:", f"        return k, {'before' if stages else 'stage_min'}"]
        # the end state, unless the stride kept it
        + ["    if n_steps % every:", "        extend((t, s, e, i, r))"]
        + ["    return None, stage_min", ""]
    )
    filename = f"<{form.key or 'shu-osher'}{' stages' * stages} step kernel {next(_serial)}>"
    # mtime None: linecache.checkcache keeps the entry, having no file to check
    linecache.cache[filename] = (len(source), None, source.splitlines(True), filename)
    namespace = {"form": form, "coefficients": sub_step_coefficients, **FORMULA_NAMESPACE}
    exec(compile(source, filename, "exec"), namespace)
    return namespace["kernel"]


def trajectory_to_csv(traj: Trajectory, out: IO[str]) -> None:
    """Write ``t,S,E,I,R,N`` rows at full double precision (round-trippable).

    Each value is written as its ``repr``, with N computed as
    :attr:`Trajectory.populations` does, ``((S + E) + I) + R``.  A value
    whose text the writer already has is not formatted again: N takes S's
    text when ``N == S`` and ``S != 0``, and E, I and R each take their
    previous row's text under the same rule.  That is exact: equal nonzero
    doubles have the same bits, so they have one shortest repr.  The two
    zeros compare equal but print as ``0.0`` and ``-0.0``, so a zero is
    always formatted, and so is a NaN, which equals nothing.
    """
    write = out.write
    write("t,S,E,I,R,N\n")
    # NaN equals nothing, so each column's first value is formatted
    e0 = i0 = r0 = math.nan
    for t, s, e, i, r in zip(traj.times, *traj.compartments):
        st = repr(s)
        if e != e0 or not e:
            e0, et = e, repr(e)
        if i != i0 or not i:
            i0, it = i, repr(i)
        if r != r0 or not r:
            r0, rt = r, repr(r)
        n = ((s + e) + i) + r
        write(f"{t!r},{st},{et},{it},{rt},{st if n == s and s else repr(n)}\n")
