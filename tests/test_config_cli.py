"""Config parsing and the command-line entry points."""

import hashlib
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from ssp_seir.cli import main
from ssp_seir.config import DEFAULT_CONFIG_TEXT, ConfigError, load_config, parse_config


def test_default_config_values():
    cfg = parse_config(DEFAULT_CONFIG_TEXT)
    assert cfg.mu == 0.05
    assert cfg.sigma == 0.25
    assert cfg.gamma == 0.1867
    assert cfg.delta == 0.011
    assert cfg.incidence == "media"
    assert cfg.recruitments == ("choiceA", "choiceB", "choiceC")
    assert cfg.methods == ("euler", "ssprk22", "ssprk33", "ssprk104")
    assert (cfg.s0, cfg.e0, cfg.i0, cfg.r0) == (0.2, 0.6, 0.2, 0.0)
    assert cfg.tf == 1000.0


def test_config_setup_assembly():
    cfg = parse_config(DEFAULT_CONFIG_TEXT)
    setup = cfg.setup("choiceB")
    assert setup.incidence.key == "media"
    assert setup.recruitment.key == "choiceB"
    assert setup.x0.total == pytest.approx(1.0)


def test_config_rejects_unknown_key():
    with pytest.raises(ConfigError, match="unknown key"):
        parse_config(DEFAULT_CONFIG_TEXT + "bogus=1\n")


def test_config_rejects_duplicate_key():
    with pytest.raises(ConfigError, match="duplicate"):
        parse_config(DEFAULT_CONFIG_TEXT + "mu=0.1\n")


def test_config_requires_all_keys():
    with pytest.raises(ConfigError, match="missing keys"):
        parse_config("mu=0.05\n")


def test_config_rejects_bad_number():
    with pytest.raises(ConfigError, match="not a number"):
        parse_config(DEFAULT_CONFIG_TEXT.replace("mu=0.05", "mu=abc"))


def test_config_rejects_bad_line():
    with pytest.raises(ConfigError, match="key=value"):
        parse_config("mu 0.05\n")


def test_config_comments_and_blank_lines_ignored():
    text = "# leading comment\n\n" + DEFAULT_CONFIG_TEXT + "\n# trailing\n"
    assert parse_config(text) == parse_config(DEFAULT_CONFIG_TEXT)


def test_load_config_from_file(tmp_path):
    path = tmp_path / "exp.cfg"
    path.write_text(DEFAULT_CONFIG_TEXT.replace("tf=1000.0", "tf=30.0"))
    assert load_config(path).tf == 30.0
    assert load_config(None).tf == 1000.0


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------


def test_cli_default_config_round_trips(capsys):
    assert main(["default-config"]) == 0
    printed = capsys.readouterr().out
    assert parse_config(printed) == parse_config(DEFAULT_CONFIG_TEXT)


def test_cli_simulate_writes_outputs(tmp_path, capsys):
    code = main([
        "--out", str(tmp_path), "simulate",
        "--method", "ssprk22", "--tau", "3.3", "--tf", "30", "--strict",
    ])
    assert code == 0
    assert "non-negativity: PASS" in capsys.readouterr().out
    lines = (tmp_path / "trajectory.csv").read_text().strip().splitlines()
    assert lines[0] == "t,S,E,I,R,N"
    # header, then ceil(30/3.3) = 10 steps plus the initial state
    assert len(lines) == 12
    assert "PASS" in (tmp_path / "verdict.txt").read_text()


def test_cli_simulate_strict_failure_exit_code(tmp_path, capsys):
    code = main([
        "--out", str(tmp_path), "simulate",
        "--method", "ssprk22", "--tau", "4.8", "--tf", "30", "--strict",
    ])
    assert code == 1
    assert "FAIL" in capsys.readouterr().out


@pytest.mark.parametrize("strict, expected", [(False, 0), (True, 1)])
def test_cli_simulate_diverging_run_reports_verdict(tmp_path, capsys, strict, expected):
    args = [
        "--out", str(tmp_path), "simulate", "--stages", "--pi", "choiceA",
        "--tf", "300", "--method", "euler", "--tau", "25",
    ]
    code = main(args + (["--strict"] if strict else []))
    assert code == expected
    captured = capsys.readouterr()
    assert captured.err == ""
    lines = (tmp_path / "trajectory.csv").read_text().strip().splitlines()
    # header, the initial state and the 7 finite steps before the blow-up
    assert len(lines) == 1 + 8
    verdict = (tmp_path / "verdict.txt").read_text()
    assert "integration : FAIL (non-finite state at step 8)" in verdict
    assert "non-negativity: FAIL (step 1, E," in verdict
    assert verdict in captured.out


def test_cli_simulate_deterministic_bytes(tmp_path):
    args = ["simulate", "--method", "euler", "--tau", "2.0", "--tf", "40"]
    main(["--out", str(tmp_path / "a")] + args)
    main(["--out", str(tmp_path / "b")] + args)
    assert (tmp_path / "a" / "trajectory.csv").read_bytes() == (
        tmp_path / "b" / "trajectory.csv"
    ).read_bytes()


def test_cli_counterexample(tmp_path, capsys):
    assert main(["--out", str(tmp_path), "counterexample"]) == 0
    out = capsys.readouterr().out
    assert "4/3" in out and "2/3" in out
    assert (tmp_path / "counterexample.csv").exists()


def test_cli_check_small_sweep(capsys):
    assert main(["check", "--configs", "5"]) == 0
    assert "all guarantees held" in capsys.readouterr().out


@pytest.mark.parametrize("configs", ["0", "-5"])
def test_cli_check_rejects_fewer_than_one_config(capsys, configs):
    assert main(["check", "--configs", configs]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"n_configs must be at least 1, got {configs}" in captured.err


def test_cli_unknown_method_is_reported(tmp_path, capsys):
    code = main([
        "--out", str(tmp_path), "simulate", "--method", "rk99", "--tau", "1.0",
    ])
    assert code == 2
    assert "error" in capsys.readouterr().err


@pytest.mark.parametrize("argv, message", [
    (["--method", "foo"],
     "unknown method 'foo'; known: ('euler', 'ssprk22', 'ssprk33', 'ssprk104')"),
    (["--method", "euler", "--pi", "nope"],
     "unknown recruitment key 'nope'; "
     "known: ('choiceA', 'choiceB', 'choiceC', 'const', 'cex-cos')"),
], ids=["method", "pi"])
def test_cli_prints_an_unknown_key_message_without_quotes(tmp_path, capsys, argv, message):
    code = main(["--out", str(tmp_path), "simulate", *argv, "--tau", "1"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


def test_cli_simulate_stage_failure_names_no_step(tmp_path, capsys):
    code = main([
        "--out", str(tmp_path), "simulate", "--stages", "--method", "ssprk104",
        "--pi", "choiceA", "--tau", "25", "--tf", "300",
    ])
    assert code == 0
    line = "non-negativity: FAIL (stage, value -0.1480837166283359)"
    assert line in capsys.readouterr().out.splitlines()
    assert (tmp_path / "verdict.txt").read_text().splitlines()[1] == line


def test_cli_simulate_caps_mu_zero_at_the_last_step(tmp_path, capsys):
    # with mu = 0 the cap is the linear envelope N0 + n*tau*K at the last
    # step: 8 steps of 4 reach t = 32, so N0 + 32*K = 2.6, which N_8 meets;
    # the envelope at t_f = 30 (2.5) would fail the run
    path = tmp_path / "mu0.cfg"
    path.write_text(DEFAULT_CONFIG_TEXT.replace("mu=0.05", "mu=0.0"))
    code = main([
        "--config", str(path), "--out", str(tmp_path), "simulate", "--method", "ssprk33",
        "--tau", "4", "--tf", "30", "--pi", "const", "--stages", "--strict",
    ])
    assert code == 0
    assert "population bound (cap 2.6): PASS" in capsys.readouterr().out.splitlines()
    population = float((tmp_path / "trajectory.csv").read_text().splitlines()[-1].split(",")[-1])
    assert 2.5 < population <= 2.6


@pytest.mark.parametrize("tau", ["-1", "0", "nan", "inf"])
def test_cli_simulate_rejects_bad_step(tmp_path, capsys, tau):
    code = main(["--out", str(tmp_path), "simulate", "--method", "euler", "--tau", tau])
    assert code == 2
    assert "error: step size" in capsys.readouterr().err
    assert not (tmp_path / "trajectory.csv").exists()


@pytest.mark.parametrize("tau, tf", [("5e-324", "1e308"), ("1e-200", "1e200")])
def test_cli_simulate_rejects_a_step_count_that_is_not_finite(tmp_path, capsys, tau, tf):
    code = main([
        "--out", str(tmp_path), "simulate", "--method", "euler", "--tau", tau, "--tf", tf,
    ])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: step count t_f/tau is not finite")
    assert f"t_f={float(tf)!r}" in err and f"tau={float(tau)!r}" in err
    assert len(err.splitlines()) == 1
    assert not (tmp_path / "trajectory.csv").exists()


@pytest.mark.parametrize("tf", ["inf", "nan", "-5"])
def test_cli_simulate_rejects_bad_horizon(tmp_path, capsys, tf):
    code = main([
        "--out", str(tmp_path), "simulate", "--method", "euler", "--tau", "1", "--tf", tf,
    ])
    assert code == 2
    assert "error: final time must be finite and non-negative" in capsys.readouterr().err
    assert not (tmp_path / "trajectory.csv").exists()


def test_cli_simulate_zero_horizon(tmp_path, capsys):
    code = main([
        "--out", str(tmp_path), "simulate", "--method", "euler", "--tau", "1", "--tf", "0",
    ])
    assert code == 0
    assert "steps       : 0" in capsys.readouterr().out
    assert len((tmp_path / "trajectory.csv").read_text().splitlines()) == 2


@pytest.mark.parametrize("tf", ["inf", "nan", "-5"])
def test_cli_convergence_rejects_bad_horizon(tmp_path, capsys, tf):
    code = main(["--out", str(tmp_path), "convergence", "--tf", tf])
    assert code == 2
    assert "error: t_f must be finite and positive" in capsys.readouterr().err
    assert not (tmp_path / "convergence.csv").exists()


def test_cli_convergence_rejects_a_step_count_that_is_not_finite(tmp_path, capsys):
    # finite, but 1e308 over the reference grid's step overflows
    code = main(["--out", str(tmp_path), "convergence", "--tf", "1e308"])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: step count t_f/tau is not finite for t_f=1e+308")
    assert len(err.splitlines()) == 1 and "Traceback" not in err
    assert not (tmp_path / "convergence.csv").exists()


@pytest.mark.parametrize("argv, output", [
    (["convergence", "--tf", "1e300"], "convergence.csv"),
    (["simulate", "--method", "euler", "--tau", "1e-200", "--tf", "1e100"], "trajectory.csv"),
], ids=["convergence", "simulate"])
def test_cli_rejects_more_steps_than_the_clock_counts(tmp_path, capsys, argv, output):
    # a finite step count of 2**53 or more, which would run without end, is
    # rejected before the run and named by its t_f and tau, not its digits
    code = main(["--out", str(tmp_path), *argv])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: n_steps must be below 2**53")
    assert len(err.splitlines()) == 1 and "Traceback" not in err
    assert len(err) < 200 and "t_f=" in err and "tau=" in err
    assert not (tmp_path / output).exists()


def test_cli_simulate_rejects_more_rows_than_the_budget(tmp_path, capsys):
    # 1e15 steps are below 2**53, but keeping their rows would take about
    # 2e8 GB; the run is rejected before it starts
    code = main([
        "--out", str(tmp_path), "simulate", "--method", "euler", "--tau", "1e-10", "--tf", "1e5",
    ])
    assert code == 2
    err = capsys.readouterr().err
    assert err == "error: the run would keep more than 2**24 rows for t_f=100000.0, tau=1e-10\n"
    assert not (tmp_path / "trajectory.csv").exists()


@pytest.mark.parametrize("tf", ["inf", "nan", "0", "-1"])
def test_config_rejects_bad_horizon(tf):
    with pytest.raises(ConfigError, match="key tf"):
        parse_config(DEFAULT_CONFIG_TEXT.replace("tf=1000.0", f"tf={tf}"))


@pytest.mark.parametrize("key", ["s0", "e0", "i0", "r0"])
@pytest.mark.parametrize("value", ["-0.1", "-1e-300", "nan", "inf"])
def test_config_rejects_inadmissible_initial_state(key, value):
    text = re.sub(rf"^{key}=.*$", f"{key}={value}", DEFAULT_CONFIG_TEXT, flags=re.M)
    with pytest.raises(ConfigError, match=f"key {key}: must be finite and non-negative"):
        parse_config(text)


@pytest.mark.parametrize("tol", ["inf", "nan", "0", "-1e-4"])
def test_config_rejects_bad_bisect_tol(tol):
    text = DEFAULT_CONFIG_TEXT.replace("bisect_tol=1e-4", f"bisect_tol={tol}")
    with pytest.raises(ConfigError, match="key bisect_tol: must be finite and positive"):
        parse_config(text)


def _cli(tmp_path, config_text, *args, stdout=subprocess.PIPE, unbuffered=None):
    """Run ``python -m ssp_seir.cli`` in a child process, so a hang fails the
    test at the timeout instead of stalling the suite.  ``unbuffered`` sets
    or clears PYTHONUNBUFFERED; None inherits it."""
    path = tmp_path / "exp.cfg"
    path.write_text(config_text)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    if unbuffered is not None:
        env.pop("PYTHONUNBUFFERED", None)
        if unbuffered:
            env["PYTHONUNBUFFERED"] = "1"
    return subprocess.run(
        [sys.executable, "-m", "ssp_seir.cli", "--config", str(path),
         "--out", str(tmp_path), *args],
        stdout=stdout, stderr=subprocess.PIPE, text=True, timeout=60, env=env,
    )


@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
def test_cli_exits_quietly_when_stdout_is_closed(tmp_path, unbuffered):
    # the reader is gone before the child writes (like `| head -1` exiting
    # early), so its first write or flush to stdout fails
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        done = _cli(tmp_path, DEFAULT_CONFIG_TEXT, "convergence", "--tf", "10",
                    stdout=write_end, unbuffered=unbuffered)
    finally:
        os.close(write_end)
    assert "Traceback" not in done.stderr, done.stderr
    assert (done.returncode, done.stderr) == (1, "")
    assert (tmp_path / "convergence_slopes.csv").stat().st_size > 0


def test_cli_bounds_table_ends_with_tol_below_float_spacing(tmp_path):
    text = (
        DEFAULT_CONFIG_TEXT.replace("s0=0.2", "s0=0.7").replace("e0=0.6", "e0=0.1")
        .replace("bisect_tol=1e-4", "bisect_tol=1e-20").replace("tf=1000.0", "tf=100.0")
        .replace("recruitments=choiceA,choiceB,choiceC", "recruitments=choiceC")
        .replace("methods=euler,ssprk22,ssprk33,ssprk104", "methods=ssprk22")
    )
    done = _cli(tmp_path, text, "bounds-table")
    assert done.returncode == 0, done.stderr
    rows = (tmp_path / "bounds_table.csv").read_text().splitlines()
    assert len(rows) == 2 and rows[1].startswith("choiceC,ssprk22,")
    assert "choiceC  ssprk22" in done.stdout


def test_cli_bounds_table_names_the_row_without_a_failing_step(tmp_path, capsys):
    # from the zero state choiceB/euler fails only in a window of step sizes
    # (tau = 60 fails, 100 passes) that the bracket doubling jumps past
    text = (
        DEFAULT_CONFIG_TEXT.replace("s0=0.2", "s0=0").replace("e0=0.6", "e0=0")
        .replace("i0=0.2", "i0=0").replace("tf=1000.0", "tf=100.0")
        .replace("recruitments=choiceA,choiceB,choiceC", "recruitments=choiceB,choiceC")
        .replace("methods=euler,ssprk22,ssprk33,ssprk104", "methods=euler,ssprk22")
    )
    path = tmp_path / "exp.cfg"
    path.write_text(text)
    code = main(["--config", str(path), "--out", str(tmp_path), "bounds-table"])
    assert code == 2
    err = capsys.readouterr().err
    match = re.fullmatch(
        r"error: row choiceB/euler: could not find a failing upper bracket "
        r"\(largest step probed (\S+)\)\n",
        err,
    )
    assert match, err
    assert float(match.group(1)) > 1e18
    assert not (tmp_path / "bounds_table.csv").exists()


@pytest.mark.parametrize("command", [
    ["bounds-table"], ["simulate", "--method", "euler", "--tau", "1"],
])
def test_cli_rejects_negative_initial_state(tmp_path, command):
    done = _cli(tmp_path, DEFAULT_CONFIG_TEXT.replace("s0=0.2", "s0=-0.1"), *command)
    assert done.returncode == 2
    assert "error: key s0: must be finite and non-negative, got '-0.1'" in done.stderr
    assert done.stdout == ""
    assert not any(tmp_path.glob("*.csv"))


def test_cli_config_file_with_infinite_horizon(tmp_path, capsys):
    path = tmp_path / "exp.cfg"
    path.write_text(DEFAULT_CONFIG_TEXT.replace("tf=1000.0", "tf=inf"))
    code = main(["--config", str(path), "--out", str(tmp_path), "bounds-table"])
    assert code == 2
    assert "error: key tf: must be finite and positive" in capsys.readouterr().err
    assert not (tmp_path / "bounds_table.csv").exists()


def test_cli_bad_config_file(tmp_path, capsys):
    bad = tmp_path / "bad.cfg"
    bad.write_text("nonsense\n")
    code = main(["--config", str(bad), "default-config"])
    # default-config ignores the config, so use a real command instead
    code = main(["--config", str(bad), "counterexample"])
    assert code == 2
    assert "error" in capsys.readouterr().err


@pytest.mark.parametrize("out, argv, reason", [
    ("file", ["counterexample"], "File exists"),
    ("file/sub", ["simulate", "--method", "euler", "--tau", "0.5", "--tf", "2"], "Not a directory"),
], ids=["an-existing-file", "below-a-file"])
def test_cli_reports_an_unusable_out_directory_in_one_line(tmp_path, capsys, out, argv, reason):
    # like a bad --config: one error line and exit 2, not a traceback
    (tmp_path / "file").write_text("kept\n")
    assert main(["--out", str(tmp_path / out), *argv]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and reason in err and err.count("\n") == 1, err
    assert (tmp_path / "file").read_text() == "kept\n"


@pytest.mark.parametrize("pi", ["choiceA", "choiceB", "choiceC"])
def test_cli_simulate_rejects_negative_kappa(tmp_path, capsys, pi):
    path = tmp_path / "exp.cfg"
    path.write_text(DEFAULT_CONFIG_TEXT.replace("kappa=0.05", "kappa=-0.05"))
    code = main([
        "--config", str(path), "--out", str(tmp_path), "simulate",
        "--method", "euler", "--tau", "1", "--pi", pi,
    ])
    assert code == 2
    assert "error: kappa must be non-negative" in capsys.readouterr().err
    assert not (tmp_path / "trajectory.csv").exists()


def test_cli_simulate_rejects_negative_media_exp_rate(tmp_path, capsys):
    path = tmp_path / "exp.cfg"
    text = DEFAULT_CONFIG_TEXT.replace("incidence=media", "incidence=media-exp")
    path.write_text(text.replace("eta=0.001", "eta=-0.05"))
    code = main([
        "--config", str(path), "--out", str(tmp_path), "simulate",
        "--method", "euler", "--tau", "1",
    ])
    assert code == 2
    assert "error: eta must be non-negative, got -0.05" in capsys.readouterr().err
    assert not (tmp_path / "trajectory.csv").exists()


@pytest.mark.parametrize("command", [["bounds-table"], ["simulate", "--method", "euler", "--tau", "1"]])
def test_cli_reports_an_overflowing_holling_sup_in_one_line(tmp_path, capsys, command):
    # the cap N0 + K/mu is about 1e199 and x* = c2**(-1/2) about 3e154, so
    # the Holling sup's abs(x) ** k overflows the double range
    path = tmp_path / "holling.cfg"
    text = DEFAULT_CONFIG_TEXT.replace("incidence=media", "incidence=holling")
    path.write_text(text.replace("c2=1.0", "c2=1e-309").replace("mu=0.05", "mu=1e-200"))
    code = main(["--config", str(path), "--out", str(tmp_path), *command])
    assert code == 2
    err = capsys.readouterr().err
    assert re.fullmatch(r"error: sup of incidence 'holling' over \[0, \S+\] overflows\n", err), err
    assert not list(tmp_path.glob("*.csv"))


@pytest.mark.parametrize("command, kernels", [
    (["bounds-table"], 12), (["convergence", "--tf", "100"], 4),
], ids=["bounds-table", "convergence"])
def test_cli_compiles_one_kernel_per_method_and_formula_pair(tmp_path, capsys, command, kernels):
    # the row stride is an argument of the kernel, not part of its cache key:
    # 4 methods x 3 recruitments, and 4 methods with the reference run
    # sharing ssprk104's kernel
    from ssp_seir.stepping import _kernel

    _kernel.cache_clear()
    assert main(["--out", str(tmp_path)] + command) == 0
    info = _kernel.cache_info()
    assert (info.misses, info.currsize) == (kernels, kernels)


# sha256 of trajectory.csv and verdict.txt from ``simulate --stages --pi const``
# with linear incidence: each method one step size below its bound (0.4878,
# and 2.927 for ssprk104) over the default horizon, and at tau=30 to t=600,
# where every method overflows.  Only + - * / reach these bytes, so they
# hold on any IEEE-754 platform.
_GOLDEN = [
    ("euler", "0.48", "30", "1df82683c70b5d8dc0880a621ebaf28ca4f79cf902d6141cc4f172e384460181",
     "042302eafb4748fd826dd20e678d441ec4ac14fa953f9c7cafed464d563fd41c"),
    ("ssprk22", "0.48", "30", "0feda5a56f1843fac819300a4839c63cfb0f80d6a8421890e704a96eb199007f",
     "042302eafb4748fd826dd20e678d441ec4ac14fa953f9c7cafed464d563fd41c"),
    ("ssprk33", "0.48", "30", "075b18cac8ed89fb7e83d4ca2029d3564fed91ac8ab9e4bc32755baccb330271",
     "042302eafb4748fd826dd20e678d441ec4ac14fa953f9c7cafed464d563fd41c"),
    ("ssprk104", "2.9", "30", "7dcb43d86754c630b479475bd3cf2f685e359322eb61494152afb9afd6116b2e",
     "dec60363938255b844cb3e6c63b95402f69b9e7e3960adf5ccd92d1044211e4f"),
    ("euler", "30", "600", "0b537b12d70df2a224572df27b7fda93a08d6278880ab501d4f6b237d83b152d",
     "b777cab7b36e2da3de5674f98ee90d26cb8f24e3f47725ef02d0cbb32fa9323b"),
    ("ssprk22", "30", "600", "f01c75e1738466327c8685124817404cb04a0b3e8133b6802d74a1e87d2dbf33",
     "419637e3f329318b6cd7d1a281086bca24b167647960909c02d0a7fceb441648"),
    ("ssprk33", "30", "600", "ce8dafec4be5d275b21c22ffbb859cca4395fe137389cafa507daad0212c3aee",
     "27d1da172a2fbed0a8c10a040eff1c69bd6c7150c133cf04d29d32a77af78359"),
    ("ssprk104", "30", "600", "abb5c93643918c710fc85818d473928032d074314ae80d4dbf1dca67bbaaa30c",
     "4c2a06d76c371c67adb5ea8ba52a0cccfcdec8ed781156ed84f2454e0d101659"),
]


@pytest.mark.parametrize(
    "method, tau, tf, trajectory, verdict", _GOLDEN,
    ids=[f"{row[0]}-tau{row[1]}" for row in _GOLDEN],
)
def test_cli_simulate_keeps_its_golden_bytes(tmp_path, method, tau, tf, trajectory, verdict):
    path = tmp_path / "linear.cfg"
    path.write_text(DEFAULT_CONFIG_TEXT.replace("incidence=media", "incidence=linear"))
    assert main([
        "--config", str(path), "--out", str(tmp_path), "simulate", "--stages",
        "--pi", "const", "--method", method, "--tau", tau, "--tf", tf,
    ]) == 0
    digests = [
        hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
        for name in ("trajectory.csv", "verdict.txt")
    ]
    assert digests == [trajectory, verdict]


@pytest.mark.parametrize(
    "method, tau, tf, trajectory", [row[:4] for row in _GOLDEN],
    ids=[f"{row[0]}-tau{row[1]}" for row in _GOLDEN],
)
def test_cli_simulate_without_stages_keeps_the_golden_trajectory(
    tmp_path, method, tau, tf, trajectory,
):
    # without --stages the run takes the kernel that tracks no stage minimum
    # and tests no floor; its rows are the tracked run's, byte for byte
    path = tmp_path / "linear.cfg"
    path.write_text(DEFAULT_CONFIG_TEXT.replace("incidence=media", "incidence=linear"))
    assert main([
        "--config", str(path), "--out", str(tmp_path), "simulate",
        "--pi", "const", "--method", method, "--tau", tau, "--tf", tf,
    ]) == 0
    digest = hashlib.sha256((tmp_path / "trajectory.csv").read_bytes()).hexdigest()
    assert digest == trajectory


# sha256 of the CSV files that ``bounds-table`` and ``convergence --pi const
# --tf 100`` write with linear incidence and constant recruitment; as above,
# only + - * / reach these bytes.  The slopes file is left out: its log2 is
# the platform's.
@pytest.mark.parametrize("command, name, digest", [
    (["bounds-table"], "bounds_table.csv",
     "6944e69e833ddf497b1d48c36e5016177b44f3610e0d97d80538609bd6d9eb79"),
    (["convergence", "--pi", "const", "--tf", "100"], "convergence.csv",
     "36ef305241106095390a7a438739321acf2fe3fbe5738b00f0432881b50bed94"),
], ids=["bounds-table", "convergence"])
def test_cli_tables_keep_their_golden_bytes(tmp_path, command, name, digest):
    path = tmp_path / "linear.cfg"
    path.write_text(
        DEFAULT_CONFIG_TEXT.replace("incidence=media", "incidence=linear")
        .replace("recruitments=choiceA,choiceB,choiceC", "recruitments=const")
    )
    assert main(["--config", str(path), "--out", str(tmp_path), *command]) == 0
    assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() == digest


# each command's options, as its help names them
_COMMAND_OPTIONS = {
    "bounds-table": [],
    "simulate": ["--method", "--tau", "--tf", "--pi", "--stages", "--strict"],
    "convergence": ["--pi", "--tf"],
    "counterexample": [],
    "check": ["--configs", "--seed"],
    "default-config": [],
}


def _exit_code(argv):
    """What main returns, or the code argparse exits with."""
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


@pytest.mark.parametrize("argv, code", [
    ([], 2),
    (["nope"], 2),
    (["simulate", "--tau", "1"], 2),  # no --method
    (["simulate", "--method", "euler", "--tau", "x"], 2),
    (["simulate", "--tau", "x"], 2),
    (["bounds-table", "--out", "d"], 2),  # a global option after the command
    (["-h"], 0),
    *[([command, "-h"], 0) for command in _COMMAND_OPTIONS],
])
def test_cli_command_line_exit_codes_and_help(tmp_path, capsys, monkeypatch, argv, code):
    monkeypatch.chdir(tmp_path)  # no command here may write a file
    assert _exit_code(argv) == code
    out, err = capsys.readouterr()
    assert not list(tmp_path.iterdir())
    if code:
        assert not out and err.splitlines()[-1].startswith("ssp-seir")
        assert ": error: " in err.splitlines()[-1]
    elif argv == ["-h"]:
        # the top-level help lists every command with its one-line help
        for command in _COMMAND_OPTIONS:
            assert re.search(rf"^ +{command} +\S", out, re.M), command
    else:
        assert out.startswith(f"usage: ssp-seir {argv[0]} [-h]")
        for option in _COMMAND_OPTIONS[argv[0]]:
            assert f"{option} " in out, option
