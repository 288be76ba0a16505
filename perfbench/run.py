"""Benchmark of the ssp-seir experiments, one workload per invocation.

    python3 perfbench/run.py --workload threshold --seed 1 --seconds 20 --trace 0

Run from a checkout of the repository. The workload drives the ``ssp-seir``
entry point (``ssp_seir.cli.main``) in this process, one command at a time,
on inputs made from ``--seed``; command outputs go to a temporary directory
under ``.perfbench/``. Every output is checked.

``--trace 0`` runs the workload's list of commands round by round for
``--seconds`` seconds and reports the end-to-end metrics from the median CPU
time of each command, scaled to a reference speed. CPU time, not wall time:
on a machine shared with other work, wall time also counts the time the
process waits for a CPU. The scale is a fixed reference loop's nominal CPU
time over its CPU time right before and after the command, which takes out
the speed changes of the machine itself (see ``scaled_times``).
``--trace 1`` times each layer on its own, then runs each command of the
list once untraced and once traced, and reports the per-layer metrics.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. A fuller record
(machine facts, per-command results, spans) goes to ``.perfbench/``.

Exit code: 0 when every check passed, 1 when one failed, 2 when the package
cannot be found in the checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path

from workloads import WORKLOADS, Checked, Op, config_text

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BENCH = Path(__file__).resolve().parent
OUT = ROOT / ".perfbench"
SETUP_RUNS = 11
MIN_ROUNDS = 2

# runs in a fresh interpreter; prints the CPU seconds from before the first
# package import to the four builtin methods being built
SETUP_CODE = """\
import sys, time
t0 = time.process_time()
sys.path.insert(0, sys.argv[1])
import ssp_seir
from ssp_seir.config import load_config
from ssp_seir.shu_osher import builtin_method
config = load_config(None)
methods = [builtin_method(key) for key in config.methods]
print(repr(time.process_time() - t0))
"""
# the same, up to numpy imported: the larger part of the set-up, and the
# reference each set-up run is scaled by
SETUP_REFERENCE_CODE = """\
import time
t0 = time.process_time()
import numpy
print(repr(time.process_time() - t0))
"""
# its median CPU time on the machine the benchmark was made on
SETUP_REFERENCE_S = 0.160


# the reference loop's median CPU time on the machine the benchmark was made
# on; the end-to-end times are scaled to that speed (see reference_seconds)
REFERENCE_S = 0.0116
REFERENCE_STEPS = 4000
# after each timed command the loop runs for this share of its CPU time
REFERENCE_SHARE = 0.15


@dataclass
class OpResult:
    input_id: str
    cpu_s: float
    checked: Checked
    wall_s: float = 0.0


def run_op(workload, op: Op, default_text: str, tracer=None) -> OpResult:
    """Run one command in this process; time only the entry-point call."""
    from ssp_seir.cli import main

    with tempfile.TemporaryDirectory(dir=OUT) as tmp:
        out = Path(tmp)
        argv = ["--out", str(out)]
        if op.config is not None:
            path = out / "config.txt"
            path.write_text(config_text(default_text, op.config))
            argv += ["--config", str(path)]
        argv += op.argv
        stdout, stderr = io.StringIO(), io.StringIO()
        crash = None
        with redirect_stdout(stdout), redirect_stderr(stderr):
            c0, t0 = time.process_time(), time.perf_counter()
            try:
                rc = tracer.span("cli.main", main, argv) if tracer else main(argv)
            except SystemExit as exc:
                rc, crash = exc.code, f"SystemExit {exc.code}"
            except Exception as exc:  # a command that raises is a failed operation
                rc, crash = None, f"{type(exc).__name__}: {exc}"
            wall = time.perf_counter() - t0
            cpu = time.process_time() - c0
        try:
            checked = workload.check(op, rc, stdout.getvalue(), out)
        except Exception as exc:  # output the check cannot read is wrong output
            checked = Checked(0, {}, "", [f"unreadable output: {type(exc).__name__}: {exc}"])
    if crash is not None:
        checked.errors.insert(0, f"raised {crash}")
    if checked.errors and stderr.getvalue():
        checked.errors.append(f"stderr: {stderr.getvalue().strip()[:300]}")
    return OpResult(op.input_id, cpu, checked, wall)


def repeat_errors(results: list[OpResult]) -> list[str]:
    """Runs of one input must give the same digest and counts."""
    first: dict[str, OpResult] = {}
    errors = []
    for res in results:
        prev = first.setdefault(res.input_id, res)
        if prev is res:
            continue
        a, b = prev.checked, res.checked
        if (a.digest, a.counts) != (b.digest, b.counts):
            errors.append(f"{res.input_id}: outputs differ between runs "
                          f"({a.digest} {a.counts} vs {b.digest} {b.counts})")
    return errors


@dataclass(frozen=True)
class _Rates:
    mu: float = 0.05
    sigma: float = 0.25
    gamma: float = 0.19
    nu: float = 0.0115
    eta: float = 0.001


def _reference_derivs(t, s, e, i, r, p):
    inc = p.nu * math.exp(-p.eta * i) * i * s
    return (p.mu * (1.0 + 0.5 * math.cos(t)) - p.mu * s - inc,
            inc - (p.mu + p.sigma) * e,
            p.sigma * e - (p.mu + p.gamma) * i,
            p.gamma * i - p.mu * r)


def reference_seconds() -> float:
    """CPU time of a fixed loop of the kind of work the package does.

    Scalar float arithmetic, small tuples, attribute reads, calls and
    ``math.exp``, written here and not imported, so a change of the package
    cannot change it. Timed right before and after a command, it gives the
    speed the machine ran the command at (see ``scaled_times``).
    """
    p, h = _Rates(), 0.01
    x = (0.2, 0.6, 0.2, 0.0)
    t0 = time.process_time()
    for k in range(REFERENCE_STEPS):
        d = _reference_derivs(k * h, *x, p)
        x = tuple(a + h * b for a, b in zip(x, d))
        if min(x) < 0.0:
            raise ArithmeticError("reference loop left the positive orthant")
    return time.process_time() - t0


def reference_chunks(budget: float) -> list[float]:
    """Reference-loop CPU times: at least one, until they sum to ``budget``."""
    times = [reference_seconds()]
    while sum(times) < budget:
        times.append(reference_seconds())
    return times


def scaled_times(timeline: list[tuple[str, float, list[float]]]) -> dict[str, list[float]]:
    """CPU times scaled to the reference speed, by key.

    ``timeline`` holds, in the order they ran, a key, a CPU time and the
    reference-loop times measured right after it. Each CPU time is scaled by
    the loop's nominal time over its mean time just before (after the
    previous entry) and just after. The same command's CPU time moved by 20
    to 30% (IQR over median) between windows a few minutes apart, on a
    shared machine whose speed changes within seconds; scaled so, it moved
    by 2 to 7%.
    """
    scaled: dict[str, list[float]] = {}
    before: list[float] = []
    for key, cpu, after in timeline:
        near = before + after
        scaled.setdefault(key, []).append(cpu * REFERENCE_S * len(near) / sum(near))
        before = after
    return scaled


def setup_seconds(code: str = SETUP_CODE) -> float:
    """Set-up CPU time of one fresh interpreter."""
    proc = subprocess.run(
        [sys.executable, "-E", "-s", "-c", code, str(SRC)],
        capture_output=True, text=True, timeout=120, cwd=ROOT,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"set-up run failed: {proc.stderr.strip()[-300:]}")
    return float(proc.stdout.strip().splitlines()[-1])


def setup_times() -> tuple[list[float], list[float]]:
    """Set-up CPU times, raw and scaled to the reference speed.

    Each run is scaled by ``SETUP_REFERENCE_S`` over the mean of the numpy
    import timed right before and after it. Scaling by the reference loop
    would not do: set-up is mostly imports, and on a fast spell of the
    machine the loop sped up by half while set-up sped up by a fifth.
    """
    references = [setup_seconds(SETUP_REFERENCE_CODE)]
    raw, scaled = [], []
    for _ in range(SETUP_RUNS):
        raw.append(setup_seconds())
        references.append(setup_seconds(SETUP_REFERENCE_CODE))
        scaled.append(SETUP_REFERENCE_S * raw[-1] * 2.0 / (references[-2] + references[-1]))
    return raw, scaled


def code_hash() -> str:
    h = hashlib.sha256()
    for base in (SRC, BENCH):
        for path in sorted(base.rglob("*.py")):
            h.update(str(path.relative_to(ROOT)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()[:16]


def machine_facts() -> dict:
    import numpy

    src_lines = sum(
        len(p.read_text().splitlines()) for p in sorted((SRC / "ssp_seir").rglob("*.py"))
    )
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "src_lines": src_lines,
        "code_hash": code_hash(),
    }


def ledger_errors(workload: str, seed: int, counts: dict[str, list]) -> list[str]:
    """Compare digests and counts with earlier runs of the same code and seed."""
    path = OUT / f"ledger-{code_hash()}.json"
    ledger = json.loads(path.read_text()) if path.exists() else {}
    seen = ledger.setdefault(f"{workload}:{seed}", {})
    errors = [
        f"{key}: {value} differs from an earlier run's {seen[key]}"
        for key, value in counts.items()
        if key in seen and seen[key] != value
    ]
    for key, value in counts.items():
        seen.setdefault(key, value)
    path.write_text(json.dumps(ledger, indent=1, sort_keys=True))
    return errors


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def run_untraced(workload, args, default_text: str):
    setup_seconds()  # warms the file cache and writes the bytecode
    setup_raw, setup = setup_times()
    ops = workload.inputs(args.seed)
    timeline: list[tuple[str, float, list[float]]] = []
    results: list[OpResult] = []
    start = time.perf_counter()
    rounds = 0
    while rounds < MIN_ROUNDS or time.perf_counter() - start < args.seconds:
        for op in ops:
            res = run_op(workload, op, default_text)
            results.append(res)
            timeline.append((res.input_id, res.cpu_s, reference_chunks(REFERENCE_SHARE * res.cpu_s)))
        rounds += 1
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    # each command's median run: on a shared machine the fastest run is a
    # lucky one, and it moved more from one benchmark run to the next
    scaled = {key: statistics.median(times) for key, times in scaled_times(timeline).items()}
    runs: dict[str, list[OpResult]] = {}
    for res in results:
        runs.setdefault(res.input_id, []).append(res)
    median_cpu = {name: statistics.median(r.cpu_s for r in rs) for name, rs in runs.items()}
    median_wall = {name: statistics.median(r.wall_s for r in rs) for name, rs in runs.items()}
    work = sum(rs[0].checked.work for rs in runs.values())
    reference = [t for _, _, chunks in timeline for t in chunks]
    metrics = {
        "setup_s": metric(statistics.median(setup), "s"),
        "norm_cpu_s": metric(sum(scaled.values()) / len(scaled), "s"),
        "work_per_norm_cpu_s": metric(work / sum(scaled.values()), "1/s"),
        "peak_rss_mb": metric(peak_mb, "MB"),
    }
    extra = {
        "ops": len(results),
        "rounds": rounds,
        "speed": REFERENCE_S / statistics.median(reference),
        "cpu_s": sum(median_cpu.values()) / len(median_cpu),
        "wall_s": sum(median_wall.values()) / len(median_wall),
        "setup_cpu_s": statistics.median(setup_raw),
        workload.work_name: work / sum(scaled.values()),
        "median_norm_cpu_s": scaled,
        "median_cpu_s": median_cpu,
        "median_wall_s": median_wall,
        "setup_s_runs": setup,
        "timeline": timeline,
    }
    return metrics, results, extra, None


def run_traced(workload, args, default_text: str):
    import layers
    from tracer import Tracer

    per_layer = layers.measure()
    ops = workload.inputs(args.seed)
    # a first command fills the allocator; then each command runs untraced
    # and traced in turn, so both sides see the same state of the machine
    warm = run_op(workload, ops[0], default_text)
    plain, traced = [], []
    tracer = Tracer()
    for op in ops:
        plain.append(run_op(workload, op, default_text))
        with tracer:
            traced.append(run_op(workload, op, default_text, tracer))
    summary = tracer.summary()
    overhead = sum(r.cpu_s for r in traced) / sum(r.cpu_s for r in plain) - 1.0
    metrics = {name: metric(value, unit) for name, (value, unit) in sorted(per_layer.items())}
    for name, value in summary.items():
        unit = "s" if name.endswith("_s") else "ratio" if name.endswith("_frac") else "count"
        metrics[name] = metric(value, unit)
    metrics["tracing_overhead_frac"] = metric(overhead, "ratio")
    extra = {"ops": len(ops), "trace_counts": tracer.counts()}
    return metrics, [warm] + plain + traced, extra, tracer


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not args.seconds > 0.0:
        parser.error("--seconds must be positive")

    if not (SRC / "ssp_seir" / "__init__.py").is_file():
        print(f"error: no ssp_seir package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import ssp_seir
    from ssp_seir.config import DEFAULT_CONFIG_TEXT

    if Path(ssp_seir.__file__).resolve().parent != SRC / "ssp_seir":
        print(f"error: imported ssp_seir from {ssp_seir.__file__}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)

    workload = WORKLOADS[args.workload]
    run = run_traced if args.trace else run_untraced
    metrics, results, extra, tracer = run(workload, args, DEFAULT_CONFIG_TEXT)

    errors = repeat_errors(results)
    counts = {r.input_id: [r.checked.digest, r.checked.counts] for r in results}
    if tracer is not None:
        counts["trace"] = extra["trace_counts"]
    errors += ledger_errors(workload.name, args.seed, counts)
    failed = sum(1 for r in results if r.checked.errors)
    attempted = len(results)
    for res in results:
        for err in res.checked.errors:
            print(f"FAIL {res.input_id}: {err}")
    for err in errors:
        print(f"FAIL {err}")
    if errors:
        failed += 1
    correct = failed == 0

    record = {
        "workload": workload.name, "why": workload.why, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace, "machine": machine_facts(),
        "correct": correct, "attempted": attempted, "failed": failed,
        "error_frac": failed / attempted, "metrics": metrics, "extra": extra,
        "ops": [
            {"input": r.input_id, "cpu_s": r.cpu_s, "wall_s": r.wall_s, "work": r.checked.work,
             "counts": r.checked.counts, "digest": r.checked.digest,
             "errors": r.checked.errors}
            for r in results
        ],
    }
    stem = f"{workload.name}-seed{args.seed}-trace{args.trace}"
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1))
    if tracer is not None:
        (OUT / f"{stem}-spans.json").write_text(json.dumps([s[:4] for s in tracer.spans]))

    facts = record["machine"]
    print(f"workload {workload.name} seed {args.seed} trace {args.trace}: "
          f"{extra['ops']} timed commands, python {facts['python']}, numpy "
          f"{facts['numpy']}, nproc {facts['nproc']}, src {facts['src_lines']} lines")
    if not args.trace:
        print(f"  {workload.work_name:<40s} {extra[workload.work_name]!r} 1/s at reference speed")
        for name in ("speed", "cpu_s", "wall_s", "setup_cpu_s"):
            print(f"  {name:<40s} {extra[name]!r} {'ratio' if name == 'speed' else 's'} (not gated)")
    print(f"  {'error_frac':<40s} {record['error_frac']!r} ratio")
    for name, m in metrics.items():
        print(f"  {name:<40s} {m['value']!r} {m['unit']}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
