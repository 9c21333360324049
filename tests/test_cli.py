import contextlib
import csv
import io
import json
import os
import signal
import subprocess
import sys
import tempfile
import time
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import rankflow
import rankflow.cli as cli
from rankflow import (FRACTIONAL_RANK, IID, OPTIMAL, BurgersSolution, FluxFunction,
                      Gaussian, InitRule, NumericalError, SimulationConfig, Uniform,
                      simulate)


SRC = os.path.dirname(os.path.dirname(rankflow.__file__))


def run_cli(args):
    return cli.main(args)


# -- simulate ---------------------------------------------------------------

def test_simulate_writes_positions_csv(tmp_path, capsys):
    out = tmp_path / "pos.csv"
    code = run_cli(["simulate", "--particles", "4", "--step", "0.5", "--horizon", "1",
                    "--sigma2", "0.04", "--seed", "3", "--emit-positions", str(out)])
    assert code == 0
    assert b"\r" not in out.read_bytes()  # LF line ends, as every output has
    with out.open() as handle:
        rows = list(csv.reader(handle))
    assert rows[0] == ["index", "position"]
    assert len(rows) == 5
    cfg = SimulationConfig(n_particles=4, step=0.5, horizon=1.0, sigma=0.2,
                           flux=FluxFunction.burgers(), seed=3)
    expected = simulate(cfg).positions
    np.testing.assert_allclose([float(r[1]) for r in rows[1:]], expected, rtol=1e-15)
    assert "4 particles" in capsys.readouterr().out


def test_simulate_summary_only(capsys):
    assert run_cli(["simulate", "--particles", "8", "--step", "0.25"]) == 0
    assert "final time 1" in capsys.readouterr().out


@pytest.mark.parametrize("flags, model", [
    (["--init", "iid", "--dist", "gauss:0,1", "--scheme", "frac",
      "--flux", "poly:0.2,-0.4,0.1,0.3333333333333333"],
     dict(flux=FluxFunction.polynomial((0.2, -0.4, 0.1, 0.3333333333333333)),
          scheme=FRACTIONAL_RANK, init=InitRule(IID, Gaussian(0.0, 1.0)))),
    # no --init: the default placement still starts from the --dist law
    (["--dist", "uniform:5,6"],
     dict(flux=FluxFunction.burgers(), init=InitRule(OPTIMAL, Uniform(5.0, 6.0)))),
], ids=["iid-gauss-frac-poly", "dist-without-init"])
def test_simulate_model_flags_match_library(tmp_path, flags, model):
    out = tmp_path / "pos.csv"
    assert run_cli(["simulate", "--particles", "6", "--step", "0.25", "--seed", "9", *flags,
                    "--emit-positions", str(out)]) == 0
    cfg = SimulationConfig(n_particles=6, step=0.25, horizon=1.0, sigma=float(np.sqrt(0.2)),
                           seed=9, **model)
    with out.open() as handle:
        written = [row[1] for row in list(csv.reader(handle))[1:]]
    assert written == [f"{v:.17g}" for v in simulate(cfg).positions]


def test_init_dirac_is_not_a_choice():
    with pytest.raises(SystemExit) as info:
        run_cli(["simulate", "--particles", "4", "--step", "0.5", "--init", "dirac"])
    assert info.value.code == 2


# -- exact -------------------------------------------------------------------

def test_exact_quantile_dump(tmp_path):
    out = tmp_path / "grid.csv"
    assert run_cli(["exact", "--sigma2", "0.2", "--horizon", "1", "--grid", "8",
                    "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "u,quantile"
    assert len(lines) == 8  # header + K-1 rows
    sol = BurgersSolution(np.sqrt(0.2))
    u, q = (float(v) for v in lines[4].split(","))
    assert u == 0.5
    assert q == pytest.approx(sol.quantile(1.0, 0.5), abs=1e-7)


def test_exact_to_stdout(capsys):
    assert run_cli(["exact", "--grid", "4"]) == 0
    assert capsys.readouterr().out.startswith("u,quantile\n")


# -- studies -------------------------------------------------------------------

def test_strong_study_csv(tmp_path):
    out = tmp_path / "strong.csv"
    code = run_cli(["strong", "--sweep", "n:4,8", "--runs", "3", "--step", "0.25",
                    "--seed", "5", "--out", str(out)])
    assert code == 0
    with out.open() as handle:
        rows = list(csv.reader(handle))
    assert rows[0] == ["parameter", "estimation", "precision", "ratio"]
    assert [r[0] for r in rows[1:]] == ["4", "8"]
    assert rows[1][3] == "" and rows[2][3] != ""


def test_burgers_coefficients_give_the_burgers_table(tmp_path):
    args = ["strong", "--sweep", "n:4,8", "--runs", "3", "--step", "0.5"]
    a, b = tmp_path / "burgers.csv", tmp_path / "poly.csv"
    assert run_cli(args + ["--flux", "burgers", "--out", str(a)]) == 0
    for spelling in ("poly:-0.5,1,-0.5", "poly:-0.5,1,-0.5,0"):
        assert run_cli(args + ["--flux", spelling, "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()


def test_weak_study_json(tmp_path):
    out = tmp_path / "weak.json"
    code = run_cli(["weak", "--sweep", "n:8", "--runs", "4", "--batches", "2",
                    "--grid", "40", "--step", "0.5", "--seed", "5",
                    "--format", "json", "--out", str(out)])
    assert code == 0
    rows = json.loads(out.read_text())
    assert len(rows) == 1
    assert rows[0]["parameter"] == 8
    assert rows[0]["ratio"] is None


def test_study_deterministic_across_invocations(tmp_path):
    args = ["strong", "--sweep", "h:0.5,0.25", "--particles", "8", "--runs", "3",
            "--seed", "11"]
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert run_cli(args + ["--out", str(a)]) == 0
    assert run_cli(args + ["--out", str(b)]) == 0
    assert a.read_text() == b.read_text()


def test_full_flag_switches_presets(capsys):
    # no explicit sweep values: desk preset vs full preset row counts differ
    assert run_cli(["weak", "--sweep", "n", "--runs", "4", "--batches", "2",
                    "--grid", "30", "--step", "0.5", "--particles", "100"]) == 0
    desk_rows = len(capsys.readouterr().out.splitlines()) - 1
    assert desk_rows == 3  # desk preset sweeps three particle counts


# -- failure modes ----------------------------------------------------------------

def test_bad_flux_is_config_error(capsys):
    assert run_cli(["simulate", "--particles", "4", "--step", "0.5",
                    "--flux", "bogus"]) == 2
    assert "rankflow:" in capsys.readouterr().err


@pytest.mark.parametrize("spec, reason", [
    ("uniform:3,-1", "uniform law needs finite lower < upper"),
    ("uniform:1", "bad distribution spec 'uniform:1'"),
    ("gauss:a,b", "bad distribution spec 'gauss:a,b'"),
], ids=["law-reason", "too-few-values", "not-a-number"])
def test_bad_distribution_reports_its_reason(capsys, spec, reason):
    assert run_cli(["simulate", "--particles", "5", "--step", "0.5", "--horizon", "0.5",
                    "--init", "iid", "--dist", spec]) == 2
    assert capsys.readouterr().err == f"rankflow: {reason}\n"


def test_bad_sweep_is_config_error():
    assert run_cli(["strong", "--sweep", "q:1,2", "--runs", "3"]) == 2


def test_only_a_bare_sweep_name_means_the_preset():
    assert cli._parse_sweep("n") == ("n", None)
    assert cli._parse_sweep("h:0.5,0.25") == ("h", (0.5, 0.25))
    for text in ("n:", "h:"):
        with pytest.raises(cli.ConfigError, match="bad sweep values"):
            cli._parse_sweep(text)


@pytest.mark.parametrize("flag, value", [
    ("--horizon", "-1e-3"), ("--horizon", "-inf"), ("--sigma2", "-inf"),
    ("--sigma2", "-nan"), ("--step", "-1E2"), ("--particles", "-1e3"), ("--seed", "-1.5e1"),
])
def test_negative_number_is_a_value(capsys, flag, value):
    # "--flag -1e-3" gives the value's own one-line error, as "--flag=-1e-3" does
    args = ["strong", "--sweep", "h:0.5" if flag == "--particles" else "n:4", "--runs", "2"]
    if flag not in ("--particles", "--step"):
        args += ["--step", "0.5"]
    errors = []
    for spelling in ([flag, value], [f"{flag}={value}"]):
        try:
            code = run_cli(args + spelling)
        except SystemExit as exit_:
            code = exit_.code
        assert code == 2
        errors.append(capsys.readouterr().err)
    assert errors[0] == errors[1]
    assert errors[0].count("\n") == 1
    assert "expected one argument" not in errors[0]


def test_strong_single_particle_row_is_config_error():
    assert run_cli(["strong", "--sweep", "n:4,1", "--runs", "2", "--step", "0.5"]) == 2


def test_unsupported_reference_is_config_error():
    assert run_cli(["strong", "--sweep", "n:4", "--runs", "3", "--step", "0.5",
                    "--flux", "quadratic"]) == 2


def test_batches_must_divide_runs():
    assert run_cli(["weak", "--sweep", "n:8", "--runs", "5", "--batches", "2",
                    "--step", "0.5"]) == 2


def test_weak_custom_runs_get_default_batches(tmp_path, monkeypatch):
    # no --batches with non-preset runs: the smallest divisor of runs from
    # min(100, max(2, runs // 10)) on
    batches = []
    point = cli.harness.weak_error_point

    def counted(spec, results):
        batches.append(spec.batches)
        return point(spec, results)

    monkeypatch.setattr(cli.harness, "weak_error_point", counted)
    out = tmp_path / "w.csv"
    for runs, expected in [(30, 3), (25, 5), (3, 3)]:
        assert run_cli(["weak", "--sweep", "n:8", "--runs", str(runs), "--grid", "30",
                        "--step", "0.5", "--out", str(out)]) == 0
        assert len(out.read_text().splitlines()) == 2
        assert batches.pop() == expected


def test_numerical_failure_exit_code(monkeypatch):
    def boom(spec, threads):
        raise NumericalError("synthetic")

    monkeypatch.setattr(cli.harness, "run_study", boom)
    assert run_cli(["strong", "--sweep", "n:4", "--runs", "3", "--step", "0.5"]) == 3


def test_unknown_flag_exits_two():
    with pytest.raises(SystemExit) as info:
        run_cli(["strong", "--nope"])
    assert info.value.code == 2


#: a tiny run of each command that writes a file, and the flag naming the file
WRITERS = {
    "strong": (["strong", "--sweep", "n:4", "--runs", "2", "--step", "0.5"], "--out"),
    "weak": (["weak", "--sweep", "n:4", "--runs", "2", "--grid", "8", "--step", "0.5"],
             "--out"),
    "exact": (["exact", "--grid", "4"], "--out"),
    "simulate": (["simulate", "--particles", "3", "--step", "0.5"], "--emit-positions"),
}


@pytest.mark.parametrize("destination", ["file", "-", "", "/nonexistent-dir/x"])
@pytest.mark.parametrize("command", sorted(WRITERS))
def test_one_destination_rule(tmp_path, capsys, monkeypatch, command, destination):
    monkeypatch.chdir(tmp_path)
    args, flag = WRITERS[command]
    target = "out.csv" if destination == "file" else destination
    code = run_cli(args + [flag, target])
    out, err = capsys.readouterr()
    if destination in ("", "/nonexistent-dir/x"):
        assert code == 2
        assert out == ""
        assert err == f"rankflow: cannot write {target!r}: No such file or directory\n"
        return
    assert code == 0
    assert run_cli(args + [flag, "-"]) == 0
    piped, piped_err = capsys.readouterr()
    # "-" sends the output to stdout, and the simulate summary to stderr
    summary = piped_err if command == "simulate" else ""
    assert piped.splitlines()[0] in ("parameter,estimation,precision,ratio",
                                     "u,quantile", "index,position")
    assert "\r" not in piped
    if destination == "-":
        assert (out, err) == (piped, summary)
        assert os.listdir(tmp_path) == []
    else:
        assert (tmp_path / target).read_bytes() == piped.encode("ascii")
        assert (out, err) == (summary, "")
    if command == "simulate":
        assert summary.startswith("final time 1: 3 particles") and summary.count("\n") == 1
    else:
        assert run_cli(args) == 0  # no flag: stdout too
        assert capsys.readouterr() == (piped, "")


def test_unwritable_out_fails_before_any_run(monkeypatch, capsys):
    calls = []

    def counted(config):
        calls.append(config)
        return simulate(config)

    monkeypatch.setattr(cli.harness, "simulate", counted)
    assert run_cli(["strong", "--sweep", "n:4,8", "--runs", "3", "--step", "0.5",
                    "--out", "/nonexistent-dir/x.csv"]) == 2
    assert calls == []
    assert "/nonexistent-dir/x.csv" in capsys.readouterr().err


@pytest.mark.parametrize("args, reason", [
    (["strong", "--sweep", "n:4", "--runs", "1", "--step", "0.5", "--out"],
     "need at least 2 runs"),
    (["strong", "--sweep", "n:4", "--runs", "2", "--flux", "quadratic", "--out"],
     "no exact reference solution for this flux: only the Burgers flux has one"),
    (["weak", "--sweep", "n:4", "--runs", "4", "--batches", "3", "--out"],
     "batches must divide runs"),
    (["strong", "--sweep", "n:4", "--runs", "2", "--threads", "0", "--out"],
     "thread count must be >= 1, got 0"),
    (["exact", "--horizon", "inf", "--out"], "--horizon must be finite and > 0"),
    (["exact", "--grid", "1", "--out"], "--grid must be >= 2"),
    (["simulate", "--particles", "0", "--step", "0.5", "--emit-positions"],
     "n_particles must be >= 1"),
    # a bad row after a good one, and the weak reference grid, fail before any run
    (["weak", "--sweep", "n:4,0", "--step", "0.5", "--runs", "4", "--batches", "2",
      "--grid", "8", "--out"], "sweep value 0: n_particles must be >= 1"),
    (["strong", "--sweep", "h:0.5,2", "--particles", "4", "--runs", "2", "--out"],
     "sweep value 2.0: need 0 < step <= horizon"),
    (["strong", "--sweep", "h:0.5,nan", "--particles", "4", "--runs", "2", "--out"],
     "sweep value nan: need 0 < step <= horizon"),
    (["weak", "--sweep", "n:4", "--step", "0.5", "--runs", "2", "--grid", "8",
      "--sigma2", "1e-30", "--out"],
     "the exact quantile at sigma^2 = 1e-30 cannot separate K = 8 grid cells in double "
     "precision"),
], ids=["runs", "no-reference", "batches", "threads", "horizon", "grid", "particles",
        "weak-row-of-no-particles", "step-above-horizon", "nan-step", "weak-grid"])
def test_bad_flag_touches_no_file(tmp_path, capsys, monkeypatch, args, reason):
    calls = []
    monkeypatch.setattr(cli.harness, "simulate", calls.append)
    out = tmp_path / "kept.csv"
    out.write_text("kept\n")
    assert run_cli(args + [str(out)]) == 2
    assert out.read_text() == "kept\n"
    assert capsys.readouterr().err == f"rankflow: {reason}\n"
    assert calls == []


def test_simulate_unwritable_positions_path():
    assert run_cli(["simulate", "--particles", "2", "--step", "0.5",
                    "--emit-positions", "/nonexistent-dir/p.csv"]) == 2


@pytest.mark.parametrize("threads", ["0", "-3"])
def test_bad_thread_count_is_config_error(threads):
    args = ["strong", "--sweep", "n:4", "--runs", "3", "--step", "0.5"]
    assert run_cli(args + ["--threads", threads]) == 2


def run_cli_process(args):
    """The CLI in a fresh interpreter, with every warning shown on stderr."""
    env = dict(os.environ, PYTHONPATH=SRC, PYTHONWARNINGS="default")
    return subprocess.run([sys.executable, "-m", "rankflow.cli", *args], env=env,
                          capture_output=True, text=True, timeout=60)


@pytest.mark.parametrize("args", [
    ["simulate", "--particles", "4", "--step", "1e-300"],
    ["exact", "--horizon", "inf", "--grid", "4"],
    ["exact", "--horizon", "nan", "--grid", "4"],
    ["exact", "--sigma2", "-1", "--grid", "4"],
    ["simulate", "--particles", "4", "--step", "0.5", "--init", "iid", "--dist", "uniform:-inf,0"],
], ids=["too-many-steps", "infinite-horizon", "nan-horizon", "negative-sigma2",
        "infinite-law-bound"])
def test_rejected_input_exits_two_at_once(args):
    done = run_cli_process(args)
    assert done.returncode == 2
    assert done.stdout == ""
    assert done.stderr.startswith("rankflow: ")
    assert "Traceback" not in done.stderr
    assert "RuntimeWarning" not in done.stderr


def test_overflowing_run_exits_three():
    # the drift table overflows to inf and nan: no numpy warning, one line, exit 3
    done = run_cli_process(["simulate", "--particles", "4", "--step", "0.5",
                            "--flux", "poly:0,1e308,1e308"])
    assert done.returncode == 3
    assert done.stdout == ""
    assert done.stderr == ("rankflow: numerical failure: positions overflowed: "
                           "not every final position is finite\n")


def test_zero_strong_estimate_has_no_ratio():
    # noise below an ulp leaves every run's particles tied, so each estimate
    # is 0 and the second row has no ratio to the first, as the first has none
    done = run_cli_process(["strong", "--sweep", "n:4,4", "--step", "0.5", "--runs", "2",
                            "--sigma2", "1e-300"])
    assert done.returncode == 0, done.stderr
    assert done.stderr == ""
    assert done.stdout.splitlines()[1:] == ["4,0,0,", "4,0,0,"]


@pytest.mark.parametrize("seed", ["0", "1", "5"])
def test_overflowing_strong_estimate_exits_three(seed):
    # a law near the float range: at seed 0 the variance of the two estimates
    # overflows, at 1 the initial positions, at 5 a gap between two of them
    done = run_cli_process(["strong", "--sweep", "n:4", "--step", "0.5", "--runs", "2",
                            "--init", "iid", "--dist", "gauss:0,1e308", "--seed", seed])
    assert done.returncode == 3
    assert done.stdout == ""
    assert done.stderr.startswith("rankflow: numerical failure: sweep value 4: ")
    assert done.stderr.count("\n") == 1


def test_exact_at_tiny_viscosity_exits_zero():
    done = run_cli_process(["exact", "--sigma2", "1e-9", "--grid", "4"])
    assert done.returncode == 0, done.stderr
    assert done.stderr == ""
    assert done.stdout.splitlines()[0] == "u,quantile"


def test_out_of_memory_exits_three(capsys, monkeypatch):
    # past an unreadable memory limit the run starts; 10**15 particles need
    # more bytes than any 64-bit user address space holds, so the first
    # allocation fails without touching memory
    monkeypatch.setattr(cli.harness, "_physical_memory", lambda: None)
    assert run_cli(["simulate", "--particles", str(10**15), "--step", "0.5"]) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("rankflow: out of memory: ")
    assert err.count("\n") == 1


@pytest.mark.parametrize("args", [
    ["simulate", "--particles", "100000", "--step", "0.5", "--emit-positions"],
    ["strong", "--sweep", "n:4,100000", "--runs", "2", "--step", "0.5", "--out"],
    # a strong row keeps one value per run: 10**12 of them
    ["strong", "--sweep", "n:4", "--step", "0.5", "--runs", "1000000000000", "--threads", "1",
     "--out"],
    ["weak", "--sweep", "n:4", "--runs", "4", "--batches", "2", "--step", "0.5",
     "--grid", "100000", "--out"],
    # the grid alone fits: its 200 batch sums do not
    ["weak", "--sweep", "n:4", "--runs", "200", "--batches", "200", "--step", "0.5",
     "--grid", "1000", "--out"],
    ["exact", "--grid", "100000", "--out"],
], ids=["simulate-particles", "strong-particles", "strong-runs", "weak-grid", "weak-batch-sums",
        "exact-grid"])
def test_oversized_command_exits_two_before_any_allocation(tmp_path, capsys, monkeypatch,
                                                           args):
    # a 1 MiB host: the command is refused before any run, grid or quantile
    def allocates(*_, **__):
        raise AssertionError("allocated past the memory check")

    monkeypatch.setattr(cli.harness, "_physical_memory", lambda: 2**20)
    for owner, name in [(cli.harness, "simulate"), (cli, "simulate"),
                        (rankflow.GridSpec, "from_quantile"), (BurgersSolution, "quantile")]:
        monkeypatch.setattr(owner, name, allocates)
    out = tmp_path / "kept.csv"
    out.write_text("kept\n")
    assert run_cli(args + [str(out)]) == 2
    assert out.read_text() == "kept\n"
    err = capsys.readouterr().err
    assert err.startswith("rankflow: this command needs about ")
    assert err.endswith(" MiB of memory, more than the 1 MiB of physical memory\n")
    assert err.count("\n") == 1


def test_dead_worker_exits_three(tmp_path):
    # importing this module makes every run end its worker process, and
    # gives the process two cores so that the runs go to a pool
    (tmp_path / "dying_runs.py").write_text(
        "import os\n"
        "import rankflow.harness\n\n\n"
        "def die(*args):\n"
        "    os._exit(1)\n\n\n"
        "rankflow.harness._run = die\n"
        "os.sched_getaffinity = lambda pid: {0, 1}\n")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([SRC, str(tmp_path)]))
    code = "import sys, dying_runs, rankflow.cli; sys.exit(rankflow.cli.main(sys.argv[1:]))"
    done = subprocess.run([sys.executable, "-c", code, "strong", "--sweep", "n:4",
                           "--runs", "4", "--step", "0.5", "--threads", "2"],
                          env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == 3
    assert done.stdout == ""
    assert done.stderr.startswith("rankflow: a worker process died: ")
    assert done.stderr.count("\n") == 1


def test_cli_import_loads_no_integrate_optimize_or_sparse():
    code = ("import sys, rankflow.cli; "
            "print(sorted(m for m in ('scipy.integrate', 'scipy.optimize', 'scipy.sparse') "
            "if m in sys.modules))")
    done = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=SRC),
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "[]\n"


@pytest.mark.parametrize("threads", ["1", "2"])
def test_ctrl_c_exits_130(threads):
    # two runs of a million steps each, interrupted while they run
    code = ("import sys, rankflow.cli; print('started', flush=True); "
            "sys.exit(rankflow.cli.main(sys.argv[1:]))")
    proc = subprocess.Popen(
        [sys.executable, "-c", code, "strong", "--sweep", "n:2", "--runs", "2",
         "--step", "1e-6", "--threads", threads],
        env=dict(os.environ, PYTHONPATH=SRC), stdout=subprocess.PIPE,
        stderr=subprocess.PIPE, text=True, start_new_session=True)
    try:
        assert proc.stdout.readline() == "started\n"
        time.sleep(1.0)
        os.killpg(proc.pid, signal.SIGINT)
        stdout, stderr = proc.communicate(timeout=30)
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
    assert proc.returncode == 130
    assert stdout == ""
    assert stderr == "rankflow: interrupted\n"


# -- exit-code fuzz ---------------------------------------------------------------
#
# Any argv ends in exit 0, 2 or 3 with at most one line on stderr, no
# traceback and no warning, and an exit 2 leaves an existing output file
# unchanged.  Sizes are tiny (N <= 8, at most 50 Euler steps per run unless
# a bare h-sweep's preset asks for more, runs <= 6) so that a few hundred
# command lines run in seconds; every value list mixes valid choices with
# malformed ones.

MALFORMED = ("", "x", "nan", "inf", "-inf", "-1", "0", "1e400", "1,2", "a\nb")
FILE = object()  # stands for a writable path in a fresh directory
SENTINEL = "kept\n"  # the file's content before the call


def values(*valid):
    """Seven times in eight a valid value, else a malformed one."""
    return st.sampled_from([valid] * 7 + [MALFORMED]).flatmap(st.sampled_from)


def optional(flag, strategy):
    return st.one_of(st.just([]), strategy.map(lambda value: [flag, value]))


DESTINATIONS = st.sampled_from([FILE, "-", "", "/nonexistent-dir/x"])


@st.composite
def model_flags(draw):
    flags = []
    for flag, strategy in [
        ("--horizon", values("1", "0.5", "-1e-3")),
        ("--sigma2", values("0.2", "1e-9", "1e9", "1e-30")),
        ("--flux", values("burgers", "quadratic", "poly:-0.5,1,-0.5", "poly:0,0,0.5",
                          "poly:", "poly:nan", "poly:1,x", "poly:0,1e308,1e308")),
        ("--scheme", values("rank", "frac")),
        ("--init", values("optimal", "iid", "dirac")),
        ("--dist", values("dirac0", "uniform:0,1", "uniform:1,0", "uniform:-inf,0",
                          "gauss:0,1", "gauss:0,0", "gauss:a,b", "cauchy:0,1")),
        ("--seed", values("7", "18446744073709551615", "18446744073709551616")),
    ]:
        flags += draw(optional(flag, strategy))
    return flags


@st.composite
def command_lines(draw):
    command = draw(st.sampled_from(["simulate", "exact", "strong", "weak"]))
    particles = values("1", "2", "3", "8")
    step = values("0.5", "0.25", "0.1", "0.02", "2")
    if command == "exact":
        argv = ["exact"]
        for flag, strategy in [("--grid", values("2", "5", "40")),
                               ("--horizon", values("1", "0.5")),
                               ("--sigma2", values("0.2", "1e-9", "1e9"))]:
            argv += draw(optional(flag, strategy))
        return argv + draw(optional("--out", DESTINATIONS))
    if command == "simulate":
        argv = ["simulate", "--particles", draw(particles), "--step", draw(step)]
        return (argv + draw(model_flags())
                + draw(optional("--emit-positions", DESTINATIONS)))
    sweep = draw(values("n:2,8", "n:4", "n:1,2", "h:0.5,0.25", "h:0.02", "h", "h:",
                        "h:0.5,-1", "n:4,1.5", "q:1", ":", "n:2,0", "h:0.02,2", "h:0.5,nan"))
    argv = [command, "--sweep", sweep, "--particles", draw(particles), "--step", draw(step),
            "--runs", draw(values("2", "3", "4", "6"))]
    argv += draw(optional("--threads", values("1", "2")))
    if command == "weak":
        argv += draw(optional("--batches", values("2", "3")))
        argv += draw(optional("--grid", values("2", "5", "40")))
    for flag in ("--full", "--paired-seeds"):
        if draw(st.booleans()):
            argv.append(flag)
    argv += draw(optional("--format", st.sampled_from(["csv", "json", "xml"])))
    return argv + draw(model_flags()) + draw(optional("--out", DESTINATIONS))


@st.composite
def argvs(draw):
    """A command line, now and then with one stray argument somewhere."""
    argv = draw(command_lines())
    if draw(st.sampled_from([False] * 9 + [True])):
        stray = draw(st.sampled_from(MALFORMED + ("--nope",)))
        argv.insert(draw(st.integers(0, len(argv))), stray)
    return argv


@settings(deadline=None, max_examples=300)
@given(argvs())
# a bad row after a good one, and a weak grid the exact quantile cannot
# resolve, must fail before the destination opens
@example(["weak", "--sweep", "n:2,0", "--step", "0.5", "--runs", "2", "--out", FILE])
@example(["strong", "--sweep", "h:0.02,2", "--particles", "2", "--runs", "2", "--out", FILE])
@example(["strong", "--sweep", "h:0.5,nan", "--particles", "2", "--runs", "2", "--out", FILE])
@example(["weak", "--sweep", "n:4", "--step", "0.5", "--runs", "2", "--grid", "5",
          "--sigma2", "1e-30", "--out", FILE])
# finite final positions whose sum overflows: the summary's mean must not warn
@example(["simulate", "--particles", "2", "--step", "0.5", "--flux", "poly:0,1e308,1e308"])
def test_any_argv_exits_cleanly(argv):
    stdout, stderr = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as scratch, \
            warnings.catch_warnings(record=True) as caught, \
            contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        warnings.simplefilter("always")
        target = os.path.join(scratch, "out")
        with open(target, "w") as handle:
            handle.write(SENTINEL)
        argv = [target if a is FILE else a for a in argv]
        try:
            code = cli.main(argv)
        except SystemExit as exit_:
            code = exit_.code
        with open(target) as handle:
            kept = handle.read()
    err = stderr.getvalue()
    assert code in (0, 2, 3), (argv, code, err)
    assert code != 2 or kept == SENTINEL, (argv, err)
    assert err.count("\n") <= 1 and (err == "" or err.endswith("\n")), (argv, err)
    assert "Traceback" not in err
    assert [str(w.message) for w in caught] == [], argv
