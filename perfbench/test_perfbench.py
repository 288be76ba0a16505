"""Tests of the benchmark itself: seed plumbing, output checks, tracing.

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import workloads  # noqa: E402
from tracer import LAYERS, Tracer  # noqa: E402
from ssp_seir.cli import main as cli_main  # noqa: E402
from ssp_seir.config import DEFAULT_CONFIG_TEXT  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def first_ops(name, seed, n=6):
    return workloads.WORKLOADS[name].inputs(seed)[:n]


def run_command(op, out: Path) -> int:
    argv = ["--out", str(out)]
    if op.config is not None:
        path = out / "config.txt"
        path.write_text(workloads.config_text(DEFAULT_CONFIG_TEXT, op.config))
        argv += ["--config", str(path)]
    return cli_main(argv + list(op.argv))


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_same_seed_same_inputs(name):
    assert first_ops(name, 7) == first_ops(name, 7)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_other_seed_other_inputs(name):
    assert first_ops(name, 7) != first_ops(name, 8)


def test_workloads_match_spec():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    for spec in SPEC["workloads"]:
        assert spec["why"] == workloads.WORKLOADS[spec["name"]].why


def test_config_text_overrides_every_key_once():
    text = workloads.config_text(DEFAULT_CONFIG_TEXT, {"tf": 12.5, "recruitments": "const"})
    assert "\ntf=12.5\n" in text and "\nrecruitments=const\n" in text
    with pytest.raises(KeyError):
        workloads.config_text(DEFAULT_CONFIG_TEXT, {"no_such_key": 1.0})


def test_threshold_check_catches_corrupted_rows(tmp_path, capsys):
    threshold = workloads.WORKLOADS["threshold"]
    op = first_ops("threshold", 3, 1)[0]
    assert op.input_id == "published"
    rc = run_command(op, tmp_path)
    capsys.readouterr()
    good = threshold.check(op, rc, "", tmp_path)
    assert good.errors == [] and good.work == 12
    path = tmp_path / "bounds_table.csv"
    lines = path.read_text().splitlines()
    pi, method, tau_t, tau_r, ratio = lines[3].split(",")
    # a threshold below the theoretical bound, with a consistent ratio
    low = float(tau_t) * 0.9
    lines[3] = ",".join([pi, method, tau_t, repr(low), repr(low / float(tau_t))])
    path.write_text("\n".join(lines) + "\n")
    bad = threshold.check(op, rc, "", tmp_path)
    assert any("< tau_t" in err for err in bad.errors)
    assert any("vs table" in err for err in bad.errors)
    assert bad.work == 0


def test_convergence_check_catches_a_wrong_order(tmp_path):
    conv = workloads.WORKLOADS["convergence"]
    op = first_ops("convergence", 3, 1)[0]
    plan = conv.plan(op.config)
    rows = ["method,tau,error"]
    for method in workloads.METHODS:
        rows += [f"{method},{tau!r},{tau ** 2!r}" for tau, _ in plan[method]]
    (tmp_path / "convergence.csv").write_text("\n".join(rows) + "\n")
    slopes = ["method,slope"] + [f"{m},{t!r}" for m, (t, _) in workloads.ORDER_TOLERANCE.items()]
    (tmp_path / "convergence_slopes.csv").write_text("\n".join(slopes) + "\n")
    good = conv.check(op, 0, "", tmp_path)
    assert good.errors == [] and good.work == conv.steps(op.config)
    slopes[2] = "ssprk22,1.5"
    (tmp_path / "convergence_slopes.csv").write_text("\n".join(slopes) + "\n")
    assert any("fitted order" in err for err in conv.check(op, 0, "", tmp_path).errors)


def test_trajectory_check_catches_a_negative_state(tmp_path, capsys):
    traj = workloads.WORKLOADS["trajectory"]
    op = first_ops("trajectory", 3, 1)[0]
    rc = run_command(op, tmp_path)
    capsys.readouterr()
    good = traj.check(op, rc, "", tmp_path)
    assert good.errors == [] and good.work == traj.n_steps
    assert good.counts == {"rows": traj.n_steps + 1}
    path = tmp_path / "trajectory.csv"
    lines = path.read_text().splitlines()
    t, s, e, i, r, n = lines[100].split(",")
    lines[100] = ",".join([t, s, e, "-1e-9", r, n])
    path.write_text("\n".join(lines) + "\n")
    bad = traj.check(op, rc, "", tmp_path)
    assert any("row 99: state" in err for err in bad.errors) and bad.work == 0
    (tmp_path / "verdict.txt").write_text("steps       : 4000  (tau=1.0)\n"
                                          "non-negativity: FAIL (step 3, E, -0.1)\n"
                                          "population bound (cap 2): PASS\n")
    assert any("verdicts fail" in err for err in traj.check(op, 1, "", tmp_path).errors)


def test_convergence_step_count_matches_the_study():
    conv = workloads.WORKLOADS["convergence"]
    cfg = dict(workloads.PUBLISHED)
    # on the published horizon: 8 halvings for each method plus the
    # 51,200-step reference run
    assert conv.plan(cfg)["reference"][0][1] == 51_200
    assert conv.steps(cfg) == 535_700
    # on the benchmark's horizon, a tenth of it
    assert conv.steps(dict(cfg, tf=conv.tf)) == 54_400


def test_untraced_run_takes_each_commands_median_run(monkeypatch):
    workload = workloads.WORKLOADS["convergence"]
    ops = workload.inputs(1)
    times = iter([5.0, 1.0, 2.0, 9.0, 3.0, 4.0])

    def fake_run_op(workload, op, default_text, tracer=None):
        return run.OpResult(op.input_id, next(times), workloads.Checked(10, {}, "d", []))

    monkeypatch.setattr(run, "run_op", fake_run_op)
    monkeypatch.setattr(run, "setup_seconds", lambda code=run.SETUP_CODE: (
        0.5 if code == run.SETUP_CODE else run.SETUP_REFERENCE_S / 2.0))
    monkeypatch.setattr(run, "reference_seconds", lambda: run.REFERENCE_S / 2.0)
    monkeypatch.setattr(run, "MIN_ROUNDS", 3)
    args = run.argparse.Namespace(seed=1, seconds=1e-9)
    metrics, results, extra, _ = run.run_untraced(workload, args, "")
    # three rounds over the two inputs; the median of each is 3.0 and 4.0
    assert [r.input_id for r in results] == [op.input_id for op in ops] * 3
    # the reference loop ran twice as fast as its nominal time, so every
    # time is doubled
    assert math.isclose(metrics["norm_cpu_s"]["value"], 7.0)
    assert math.isclose(metrics["work_per_norm_cpu_s"]["value"], 20 / 14.0)
    assert math.isclose(metrics["setup_s"]["value"], 1.0)


def test_scaling_takes_out_a_slow_spell():
    ref = run.REFERENCE_S
    # one command at full speed, then twice in a spell at half speed that
    # slows the reference loop too; the loop runs after each entry
    timeline = [("a", 1.0, [ref]), ("a", 2.0, [2 * ref]), ("a", 2.0, [2 * ref, 2 * ref])]
    first, edge, inside = run.scaled_times(timeline)["a"]
    assert first == 1.0 and inside == 1.0
    # at the spell's edge the loop ran at full speed before and half after
    assert math.isclose(edge, 2.0 / 1.5)


def test_repeat_check_catches_differing_outputs():
    a = run.OpResult("x", 1.0, workloads.Checked(1, {"rows": 1}, "aaaa", []))
    b = run.OpResult("x", 1.0, workloads.Checked(1, {"rows": 1}, "bbbb", []))
    assert run.repeat_errors([a, a]) == []
    assert run.repeat_errors([a, b])


def test_tracer_derives_self_time_and_restores_the_package():
    import ssp_seir.checks as checks
    import ssp_seir.experiments as experiments
    from ssp_seir.stepping import integrate

    tracer = Tracer()
    with tracer:
        assert checks.integrate is not integrate
        tracer.span("cli.main", experiments.property_sweep, n_configs=2, seed=5)
    assert checks.integrate is integrate and experiments.integrate is integrate
    summary = tracer.summary()
    assert summary["experiments.calls"] == 1 and summary["stepping.calls"] == 8
    assert summary["stepping.steps"] == 800
    assert summary["stepping.rhs_evals"] == 100 * 2 * (1 + 2 + 3 + 10)
    root = tracer.spans[0]
    layers = sum(summary[f"{layer}.self_s"] for layer in LAYERS)
    observed = sum(e - s for name, s, e, p, _ in tracer.spans if name == "perfbench.observe"
                   and p >= 0)
    assert math.isclose(layers + observed, root[2] - root[1], rel_tol=1e-9)


def result_line(proc):
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_untraced_run_reports_every_end_to_end_metric():
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "threshold", "--seed", "5",
         "--seconds", "1", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = result_line(proc)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 2
    spec = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == spec
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_traced_run_reports_every_per_layer_metric():
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "threshold", "--seed", "5",
         "--seconds", "1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = result_line(proc)
    spec = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == spec
    assert result["metrics"]["checks.probes"]["value"] > 0


def test_fails_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "threshold", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
