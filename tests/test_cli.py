import csv
import json
import os
import subprocess
import sys

import numpy as np
import pytest

import rankflow
import rankflow.cli as cli
from rankflow import (BurgersSolution, FluxFunction, NumericalError,
                      SimulationConfig, simulate)


def run_cli(args):
    return cli.main(args)


# -- simulate ---------------------------------------------------------------

def test_simulate_writes_positions_csv(tmp_path, capsys):
    out = tmp_path / "pos.csv"
    code = run_cli(["simulate", "--particles", "4", "--step", "0.5", "--horizon", "1",
                    "--sigma2", "0.04", "--seed", "3", "--emit-positions", str(out)])
    assert code == 0
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


def test_bad_sweep_is_config_error():
    assert run_cli(["strong", "--sweep", "q:1,2", "--runs", "3"]) == 2


def test_strong_single_particle_row_is_config_error():
    assert run_cli(["strong", "--sweep", "n:4,1", "--runs", "2", "--step", "0.5"]) == 2


def test_unsupported_reference_is_config_error():
    assert run_cli(["strong", "--sweep", "n:4", "--runs", "3", "--step", "0.5",
                    "--flux", "quadratic"]) == 2


def test_batches_must_divide_runs():
    assert run_cli(["weak", "--sweep", "n:8", "--runs", "5", "--batches", "2",
                    "--step", "0.5"]) == 2


def test_weak_custom_runs_get_default_batches(tmp_path):
    # no --batches with non-preset runs: min(100, runs/10) batches
    out = tmp_path / "w.csv"
    assert run_cli(["weak", "--sweep", "n:8", "--runs", "30", "--grid", "30",
                    "--step", "0.5", "--out", str(out)]) == 0
    assert len(out.read_text().splitlines()) == 2


def test_numerical_failure_exit_code(monkeypatch):
    def boom(spec, threads):
        raise NumericalError("synthetic")

    monkeypatch.setattr(cli.harness, "run_study", boom)
    assert run_cli(["strong", "--sweep", "n:4", "--runs", "3", "--step", "0.5"]) == 3


def test_unknown_flag_exits_two():
    with pytest.raises(SystemExit) as info:
        run_cli(["strong", "--nope"])
    assert info.value.code == 2


def test_threads_env_fallback(tmp_path, monkeypatch):
    monkeypatch.setenv("RANKFLOW_THREADS", "2")
    out = tmp_path / "env.csv"
    assert run_cli(["strong", "--sweep", "n:4", "--runs", "3", "--step", "0.5",
                    "--seed", "2", "--out", str(out)]) == 0
    monkeypatch.setenv("RANKFLOW_THREADS", "junk")
    assert run_cli(["strong", "--sweep", "n:4", "--runs", "3", "--step", "0.5"]) == 2


def test_simulate_unwritable_positions_path():
    assert run_cli(["simulate", "--particles", "2", "--step", "0.5",
                    "--emit-positions", "/nonexistent-dir/p.csv"]) == 2


@pytest.mark.parametrize("threads", ["0", "-3"])
def test_bad_thread_count_is_config_error(monkeypatch, threads):
    args = ["strong", "--sweep", "n:4", "--runs", "3", "--step", "0.5"]
    assert run_cli(args + ["--threads", threads]) == 2
    monkeypatch.setenv("RANKFLOW_THREADS", threads)
    assert run_cli(args) == 2


def run_cli_process(args):
    """The CLI in a fresh interpreter, with every warning shown on stderr."""
    src = os.path.dirname(os.path.dirname(rankflow.__file__))
    env = dict(os.environ, PYTHONPATH=src, PYTHONWARNINGS="default")
    return subprocess.run([sys.executable, "-m", "rankflow.cli", *args], env=env,
                          capture_output=True, text=True, timeout=60)


@pytest.mark.parametrize("args", [
    ["simulate", "--particles", "4", "--step", "1e-300"],
    ["exact", "--horizon", "inf", "--grid", "4"],
    ["exact", "--horizon", "nan", "--grid", "4"],
    ["exact", "--sigma2", "-1", "--grid", "4"],
], ids=["too-many-steps", "infinite-horizon", "nan-horizon", "negative-sigma2"])
def test_rejected_input_exits_two_at_once(args):
    done = run_cli_process(args)
    assert done.returncode == 2
    assert done.stdout == ""
    assert done.stderr.startswith("rankflow: ")
    assert "Traceback" not in done.stderr
    assert "RuntimeWarning" not in done.stderr
