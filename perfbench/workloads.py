"""The three benchmark workloads: seeded inputs, one CLI operation each, and
the checks on that operation's outputs.

A workload turns the benchmark seed into a fixed list of operations, which
a run repeats round by round. Each operation is one ``ssp-seir`` command
line, plus the config overrides it runs with. ``check`` reads what the
command printed and wrote and returns the work it did, its deterministic
counts, a digest of its outputs and the list of problems found (empty when
the outputs are correct).
"""

from __future__ import annotations

import hashlib
import math
import random
from itertools import product
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

METHODS = ("euler", "ssprk22", "ssprk33", "ssprk104")
SSP_C = {"euler": 1.0, "ssprk22": 1.0, "ssprk33": 1.0, "ssprk104": 6.0}

# the experiment values of the paper; every key that matters is written out
# so a change of the package defaults does not change the benchmark inputs
PUBLISHED = {
    "mu": 0.05, "sigma": 0.25, "gamma": 0.1867, "delta": 0.011,
    "incidence": "media", "nu": 0.0115, "eta": 0.001,
    "c1": 1.0, "c2": 1.0, "k": 2.0,
    "recruitments": "choiceA,choiceB,choiceC", "kappa": 0.05,
    "s0": 0.2, "e0": 0.6, "i0": 0.2, "r0": 0.0, "tf": 1000.0,
    "methods": ",".join(METHODS), "bisect_tol": 1e-4,
}
# the published threshold table is reproducible only from this state
TABLE_STATE = {"s0": 0.7, "e0": 0.1, "i0": 0.2, "r0": 0.0}
# frozen Table-1 values: tau_t per method (5e-4 absolute) and tau_r per
# (recruitment, method) (1% relative)
TABLE_TAU_T = {"euler": 3.3333, "ssprk22": 3.3333, "ssprk33": 3.3333, "ssprk104": 20.0}
TABLE_TAU_R = {
    ("choiceA", "euler"): 3.5223, ("choiceB", "euler"): 3.5223,
    ("choiceC", "euler"): 3.5223, ("choiceA", "ssprk22"): 4.5688,
    ("choiceB", "ssprk22"): 4.5697, ("choiceC", "ssprk22"): 4.5678,
    ("choiceA", "ssprk33"): 5.5164, ("choiceB", "ssprk33"): 5.5167,
    ("choiceC", "ssprk33"): 5.5203, ("choiceA", "ssprk104"): 29.8408,
    ("choiceB", "ssprk104"): 29.8648, ("choiceC", "ssprk104"): 29.7721,
}
# acceptance criterion 5: fitted order and its tolerance per method
ORDER_TOLERANCE = {
    "euler": (1.0, 0.2), "ssprk22": (2.0, 0.2),
    "ssprk33": (3.0, 0.2), "ssprk104": (4.0, 0.3),
}


@dataclass(frozen=True)
class Op:
    """One CLI invocation: a stable input id, the subcommand argv and the
    config overrides (None runs the embedded default config)."""

    input_id: str
    argv: tuple[str, ...]
    config: Optional[dict] = None
    meta: dict = field(default_factory=dict, compare=False)


@dataclass
class Checked:
    work: int
    counts: dict
    digest: str
    errors: list[str]


def config_text(default_text: str, overrides: dict) -> str:
    """The package's default config with ``overrides`` substituted."""
    lines = []
    seen = set()
    for line in default_text.splitlines():
        key = line.split("#", 1)[0].split("=", 1)[0].strip()
        if key in overrides and "=" in line:
            lines.append(f"{key}={_fmt(overrides[key])}")
            seen.add(key)
        else:
            lines.append(line)
    missing = set(overrides) - seen
    if missing:
        raise KeyError(f"default config lacks keys {sorted(missing)}")
    return "\n".join(lines) + "\n"


def _fmt(value) -> str:
    return repr(value) if isinstance(value, float) else str(value)


def _digest(*parts: bytes) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(hashlib.sha256(part).digest())
    return h.hexdigest()[:16]


def _read(path: Path, errors: list[str]) -> Optional[bytes]:
    try:
        return path.read_bytes()
    except OSError as exc:
        errors.append(f"missing output {path.name}: {exc.strerror}")
        return None


# ---------------------------------------------------------------------------
# threshold: the empirical threshold search (bounds-table)
# ---------------------------------------------------------------------------


def _incidence_sup(kind: str, params: dict, hi: float) -> float:
    if kind == "linear":
        return hi
    if kind == "media":
        x = hi if params["eta"] == 0.0 else min(hi, 1.0 / params["eta"])
        return params["nu"] * math.exp(-params["eta"] * x) * x
    c1, c2, k = params["c1"], params["c2"], params["k"]
    x = min(hi, (c2 * (k - 1.0)) ** (-1.0 / k))
    return c1 * x / (1.0 + c2 * x**k)


def euler_dt_estimate(cfg: dict, k_sup: float) -> float:
    """The a priori Euler bound, computed here only to size the inputs."""
    n0 = cfg["s0"] + cfg["e0"] + cfg["i0"] + cfg["r0"]
    b = _incidence_sup(cfg["incidence"], cfg, n0 + k_sup / cfg["mu"])
    mu = cfg["mu"]
    return 1.0 / max(mu + b, mu + cfg["sigma"], mu + cfg["gamma"], mu + cfg["delta"])


class Threshold:
    name = "threshold"
    why = ("bounds-table on the published table and 15 seeded random configs, one for "
           "each incidence and recruitment pair; bisection probes dominate")
    work_name = "searches_per_s"
    incidences = ("linear", "holling", "media")
    recruitments = ("choiceA", "choiceB", "choiceC", "const", "cex-cos")
    # an upper bound of each recruitment's K, in units of kappa (cex-cos: K = 2)
    k_bound = {"choiceA": 2.0, "choiceB": 1.0, "choiceC": 1.0, "const": 1.0}

    def random_config(self, rng: random.Random, incidence: str, recruitment: str) -> dict:
        # the Holling exponent stays at its published value 2: with a
        # fractional exponent a probe that drives I negative makes f(I)
        # complex and bounds-table raises TypeError
        cfg = dict(PUBLISHED)
        cfg.update(
            mu=rng.uniform(0.02, 0.2), sigma=rng.uniform(0.05, 0.5),
            gamma=rng.uniform(0.05, 0.5), delta=rng.uniform(0.0, 0.05),
            incidence=incidence, nu=rng.uniform(0.005, 0.05), eta=rng.uniform(0.0, 0.01),
            c1=rng.uniform(0.2, 1.0), c2=rng.uniform(0.5, 2.0),
            kappa=rng.uniform(0.02, 0.1),
            s0=rng.uniform(0.2, 1.0), e0=rng.uniform(0.05, 0.6),
            i0=rng.uniform(0.05, 0.5), r0=rng.uniform(0.0, 0.3),
            recruitments=recruitment,
        )
        # as in the published table, the horizon is 300 Euler bounds of the
        # setup, so every search sees a few hundred steps
        k_sup = self.k_bound[recruitment] * cfg["kappa"] if recruitment in self.k_bound else 2.0
        dt = euler_dt_estimate(cfg, k_sup)
        cfg["tf"] = 300.0 * dt
        cfg["bisect_tol"] = 3e-5 * dt
        return cfg

    def inputs(self, seed: int) -> list[Op]:
        rng = random.Random(f"perfbench:threshold:{seed}")
        configs = [("published", dict(PUBLISHED, **TABLE_STATE))]
        for incidence in self.incidences:
            for recruitment in self.recruitments:
                configs.append((f"{incidence}-{recruitment}",
                                self.random_config(rng, incidence, recruitment)))
        return [
            Op(ident, ("bounds-table",), cfg,
               {"pairs": [(p, m) for p in cfg["recruitments"].split(",")
                          for m in cfg["methods"].split(",")]})
            for ident, cfg in configs
        ]

    def check(self, op: Op, rc: int, stdout: str, out: Path) -> Checked:
        errors = []
        if rc != 0:
            errors.append(f"exit code {rc}")
        data = _read(out / "bounds_table.csv", errors)
        rows = _csv_rows(data, "pi,method,tau_t,tau_r,ratio", errors)
        pairs = op.meta["pairs"]
        if [(r[0], r[1]) for r in rows] != pairs:
            errors.append(f"rows {[(r[0], r[1]) for r in rows]} != {pairs}")
        for row in rows:
            label = f"{row[0]}/{row[1]}"
            try:
                tau_t, tau_r, ratio = (float(x) for x in row[2:5])
            except ValueError:
                errors.append(f"{label}: unparsable row {row}")
                continue
            if not (math.isfinite(tau_t) and tau_t > 0.0 and math.isfinite(tau_r)):
                errors.append(f"{label}: bad thresholds {tau_t!r}, {tau_r!r}")
            elif not tau_r >= tau_t:
                errors.append(f"{label}: tau_r {tau_r!r} < tau_t {tau_t!r}")
            elif abs(ratio - tau_r / tau_t) > 1e-12 * ratio:
                errors.append(f"{label}: ratio {ratio!r} != tau_r/tau_t")
            if op.input_id == "published":
                expected_r = TABLE_TAU_R.get((row[0], row[1]))
                expected_t = TABLE_TAU_T.get(row[1])
                if expected_r is None or abs(tau_r - expected_r) > 0.01 * expected_r:
                    errors.append(f"{label}: tau_r {tau_r:.4f} vs table {expected_r}")
                if expected_t is None or abs(tau_t - expected_t) > 5e-4:
                    errors.append(f"{label}: tau_t {tau_t:.4f} vs table {expected_t}")
        searches = len(rows) if not errors else 0
        return Checked(searches, {"rows": len(rows)}, _digest(data or b""), errors)


def _csv_rows(data: Optional[bytes], header: str, errors: list[str]) -> list[list[str]]:
    if data is None:
        return []
    lines = data.decode().splitlines()
    if not lines or lines[0] != header:
        errors.append(f"bad CSV header {lines[:1]}")
        return []
    return [line.split(",") for line in lines[1:]]


# ---------------------------------------------------------------------------
# convergence: the order study against the fine reference
# ---------------------------------------------------------------------------


def _perturbed_state(rng: random.Random) -> dict:
    return dict(
        kappa=rng.uniform(0.04, 0.06), s0=rng.uniform(0.15, 0.25),
        e0=rng.uniform(0.5, 0.7), i0=rng.uniform(0.15, 0.25), r0=0.0,
    )


class Convergence:
    name = "convergence"
    why = ("the convergence study to t=100 on the published rates with a seeded kappa "
           "and initial state; about 54k scalar steps read at 50 points")
    work_name = "steps_per_s"
    n_outputs = 50
    halvings = 8
    # a tenth of the published horizon: short commands can be repeated many
    # times in a run, and the fitted orders stay within their tolerances
    tf = 100.0

    def inputs(self, seed: int) -> list[Op]:
        rng = random.Random(f"perfbench:convergence:{seed}")
        return [
            Op(f"convergence-{n}", ("convergence", "--pi", "choiceA"),
               dict(PUBLISHED, tf=self.tf, **_perturbed_state(rng)))
            for n in range(2)
        ]

    def plan(self, cfg: dict) -> dict[str, list[tuple[float, int]]]:
        """The (tau, steps) of every integration the study runs.

        With the published rates the sigma term binds the Euler bound for
        every admissible kappa and state drawn here, so dt* = 1/(mu+sigma).
        """
        tf = cfg["tf"]
        spacing = tf / self.n_outputs
        dt = 1.0 / (cfg["mu"] + cfg["sigma"])
        plan = {}
        for method in METHODS:
            tau_t = SSP_C[method] * dt
            runs = []
            for k in range(1, self.halvings + 1):
                per_output = max(1, math.ceil(spacing / (tau_t * 2.0**-k) - 1e-12))
                tau = spacing / per_output
                runs.append((tau, round(tf / tau)))
            plan[method] = runs
        per_base = max(1, math.ceil(spacing / (SSP_C["ssprk104"] * dt * 2.0**-10) - 1e-12))
        tau_ref = spacing / per_base
        plan["reference"] = [(tau_ref, round(tf / tau_ref))]
        return plan

    def steps(self, cfg: dict) -> int:
        return sum(n for runs in self.plan(cfg).values() for _, n in runs)

    def check(self, op: Op, rc: int, stdout: str, out: Path) -> Checked:
        errors = []
        if rc != 0:
            errors.append(f"exit code {rc}")
        errors_data = _read(out / "convergence.csv", errors)
        slopes_data = _read(out / "convergence_slopes.csv", errors)
        rows = _csv_rows(errors_data, "method,tau,error", errors)
        plan = self.plan(op.config)
        expected = [(m, tau) for m in METHODS for tau, _ in plan[m]]
        got = []
        for row in rows:
            try:
                got.append((row[0], float(row[1])))
                err = float(row[2])
            except (ValueError, IndexError):
                errors.append(f"unparsable row {row}")
                continue
            if not (math.isfinite(err) and err > 0.0):
                errors.append(f"{row[0]}: error {err!r}")
        if len(got) != len(expected) or any(
            gm != em or abs(gt - et) > 1e-12 * et
            for (gm, gt), (em, et) in zip(got, expected)
        ):
            errors.append("step sizes differ from the study's grid")
        slopes = _csv_rows(slopes_data, "method,slope", errors)
        if [row[0] for row in slopes] != list(METHODS):
            errors.append(f"slope rows {[row[0] for row in slopes]}")
        for row in slopes:
            target, tol = ORDER_TOLERANCE.get(row[0], (math.nan, 0.0))
            try:
                slope = float(row[1])
            except (ValueError, IndexError):
                errors.append(f"unparsable slope row {row}")
                continue
            if not abs(slope - target) <= tol:
                errors.append(f"{row[0]}: fitted order {slope:.3f}, expected {target}±{tol}")
        steps = self.steps(op.config)
        return Checked(
            steps if not errors else 0, {"steps": steps, "rows": len(rows)},
            _digest(errors_data or b"", slopes_data or b""), errors,
        )


# ---------------------------------------------------------------------------
# trajectory: long runs kept, checked and written in full (simulate)
# ---------------------------------------------------------------------------


class Trajectory:
    name = "trajectory"
    why = ("simulate --stages --strict for 4,000 steps per method and recruitment A, B, C "
           "on the published rates with a seeded state and step size; stepping, checks and CSV")
    work_name = "steps_per_s"
    n_steps = 4000
    # the step size as a share of the method's positivity bound C/(mu+sigma)
    tau_share = (0.3, 0.9)
    # the package's own tolerances: round-off below zero, and above the cap
    negativity = -1e-12
    cap_slack = 1e-10

    def inputs(self, seed: int) -> list[Op]:
        rng = random.Random(f"perfbench:trajectory:{seed}")
        ops = []
        # every recruitment for every method: choiceA's sup is a grid search
        # that costs more than a thousand steps, so a drawn recruitment
        # would make the run's time depend on the draw
        for method, pi in product(METHODS, ("choiceA", "choiceB", "choiceC")):
            cfg = dict(PUBLISHED, **_perturbed_state(rng))
            tau = rng.uniform(*self.tau_share) * SSP_C[method] / (cfg["mu"] + cfg["sigma"])
            # half a step short of n_steps steps, so ceil(tf/tau) is n_steps
            tf = (self.n_steps - 0.5) * tau
            ops.append(Op(
                f"{method}-{pi}",
                ("simulate", "--method", method, "--tau", repr(tau), "--tf", repr(tf),
                 "--pi", pi, "--stages", "--strict"),
                cfg, {"tau": tau},
            ))
        return ops

    def check(self, op: Op, rc: int, stdout: str, out: Path) -> Checked:
        errors = []
        if rc != 0:
            errors.append(f"exit code {rc}")
        verdict = _read(out / "verdict.txt", errors)
        data = _read(out / "trajectory.csv", errors)
        tau, cap = op.meta["tau"], math.nan
        if verdict is not None:
            lines = verdict.decode().splitlines()
            if len(lines) != 3 or not lines[0].startswith(f"steps       : {self.n_steps}  "):
                errors.append(f"verdict {lines}")
            elif lines[1] != "non-negativity: PASS" or not lines[2].endswith("): PASS"):
                errors.append(f"verdicts fail: {lines[1:]}")
            else:
                cap = float(lines[2].split("cap ", 1)[1].split(")", 1)[0])
        rows = _csv_rows(data, "t,S,E,I,R,N", errors)
        if len(rows) != self.n_steps + 1:
            errors.append(f"{len(rows)} rows, expected {self.n_steps + 1}")
        cfg = op.config
        x0 = [cfg["s0"], cfg["e0"], cfg["i0"], cfg["r0"]]
        for k, row in enumerate(rows):
            try:
                t, s, e, i, r, n = (float(v) for v in row)
            except ValueError:
                errors.append(f"row {k}: unparsable {row}")
                break
            state = (s, e, i, r)
            # long ssprk104 runs take E to -5e-324 once it decays to zero
            if not all(math.isfinite(v) and v >= self.negativity for v in state):
                errors.append(f"row {k}: state {state} not finite and non-negative")
            elif abs(n - math.fsum(state)) > 1e-12 * n or not n <= cap * (1.0 + self.cap_slack):
                errors.append(f"row {k}: N {n!r} is not the sum or exceeds the cap {cap!r}")
            elif abs(t - k * tau) > 1e-9 * max(1.0, t) or (k == 0 and list(state) != x0):
                errors.append(f"row {k}: t {t!r} or state {state} off the run")
            if len(errors) > 3:
                break
        return Checked(
            self.n_steps if not errors else 0, {"rows": len(rows)},
            _digest(verdict or b"", data or b""), errors,
        )


WORKLOADS = {w.name: w for w in (Threshold(), Convergence(), Trajectory())}
