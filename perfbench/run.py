"""rankflow benchmark: time whole convergence tables the way a user runs them.

Usage, from the repository root:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Every table is produced by a fresh interpreter that calls
``rankflow.cli.main`` with the workload's ``strong``/``weak`` argv and
``--seed N`` (see child.py).  Tables are produced one after another until
``--seconds`` have been used, and at least three of them.

``--trace 0`` times the tables with no instrumentation and prints the
end-to-end metrics (medians over the tables).  ``--trace 1`` alternates
tables that time only the study rows with tables traced layer by layer
(tracer.py), always with one worker process so that every span is seen,
and prints the per-layer metrics.

Every table is checked: exit code 0, the table's shape and ratio column,
the workload's reference rows, one digest for every table of the run (the
same seed must give the same bytes, traced or not, for any worker count),
and, when traced, the same layer counts on every traced table.  The last
line of standard output is one JSON object with ``correct``,
``attempted`` and ``failed`` (tables) and ``metrics``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

from workloads import WORKLOADS, Workload

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
SCRATCH = ROOT / ".perfbench-scratch"

#: no table is started, and every table is stopped, this long after the run began
RUN_LIMIT_S = 165
#: untraced tables per --trace 0 run, whatever --seconds says
MIN_TABLES = 3

END_TO_END = {
    "table_s": "s",
    "particle_steps_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "engine.rank_s": "s",
    "engine.rank_calls": "count",
    "engine.simulate_s": "s",
    "engine.simulate_ms_p50": "ms",
    "engine.step_us": "us",
    "engine.update_s": "s",
    "engine.steps": "count",
    "engine.particle_steps": "count",
    "stream.uniform_s": "s",
    "stream.ndtri_s": "s",
    "stream.draw_calls": "count",
    "stream.generators": "count",
    "exact.cdf_s": "s",
    "exact.cdf_points": "count",
    "metrics.psi_s": "s",
    "exact.quantile_s": "s",
    "metrics.gridspec_s": "s",
    "metrics.phi_s": "s",
    "harness.rows_s": "s",
    "harness.runs": "count",
    "harness.run_overhead_us": "us",
    "harness.parallel_efficiency": "ratio",
    "trace.overhead_ratio": "ratio",
    "fail_ratio": "ratio",
}

#: per-layer counts, which must repeat exactly on every traced table of a run
COUNTS = [name for name, unit in PER_LAYER.items() if unit == "count"]

#: the full strong-h preset: 8 rows of 100 runs at N=500000, 510 steps per run in all
FULL_STRONG_H = {"workload": "strong-h-large-n", "rows": 8, "runs": 100, "steps": 510}


@dataclass
class Table:
    """One table produced by child.py, with what the child reported."""

    trace: str          # "off" | "rows" | "layers"
    threads: int
    code: int           # exit code of the child
    wall_s: float       # launch to exit, seen from here
    text: str           # the CSV table, "" if none was written
    report: dict | None  # the child's report, None if it wrote none
    stderr: str

    @property
    def digest(self) -> str:
        return hashlib.sha256(self.text.encode()).hexdigest()


def run_table(workload: Workload, seed: int, trace: str, threads: int,
              workdir: Path, index: int, timeout: float) -> Table:
    """Produce one table in a fresh interpreter and collect its report.

    A child still running after ``timeout`` seconds is killed, with its
    worker processes, and its table counts as failed.
    """
    out = workdir / f"table{index}.csv"
    result = workdir / f"report{index}.json"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), OMP_NUM_THREADS="1",
               OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    env.pop("RANKFLOW_THREADS", None)
    spec = {"argv": workload.argv(seed, str(out), threads), "grid": workload.grid,
            "trace": trace, "result": str(result)}
    spec["launch"] = time.clock_gettime(time.CLOCK_MONOTONIC)
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "child.py"), json.dumps(spec)], cwd=workdir, env=env,
        stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
        start_new_session=True)
    try:
        _, stderr = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        _, stderr = proc.communicate()
        stderr += f"\nkilled after {timeout:.0f} s"
    except BaseException:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise
    wall_s = time.clock_gettime(time.CLOCK_MONOTONIC) - spec["launch"]
    text = out.read_text(encoding="ascii", errors="replace") if out.is_file() else ""
    try:
        report = json.loads(result.read_text(encoding="utf-8"))
    except (OSError, ValueError):
        report = None
    return Table(trace, threads, proc.returncode, wall_s, text, report, stderr)


def measure(workload: Workload, seed: int, seconds: float, traced: bool,
            workdir: Path) -> list[Table]:
    """Produce tables until ``seconds`` are used; the first ones always run.

    Untraced runs repeat one kind of table.  Traced runs cycle through a
    rows-only table at the workload's worker count, a rows-only serial
    table when that count is above one, and a layer-traced serial table;
    the first cycle is followed by a second layer-traced table so that the
    layer counts can be compared.
    """
    if traced:
        cycle = [("rows", workload.threads)]
        if workload.threads > 1:
            cycle.append(("rows", 1))
        cycle.append(("layers", 1))
        first = cycle + [("layers", 1)]
    else:
        cycle = [("off", workload.threads)]
        first = cycle * MIN_TABLES
    start = time.monotonic()
    tables: list[Table] = []
    last_wall: dict[tuple, float] = {}

    def run(kind):
        timeout = start + RUN_LIMIT_S - time.monotonic()
        if timeout <= 0:
            return False
        table = run_table(workload, seed, *kind, workdir, len(tables), timeout)
        tables.append(table)
        last_wall[kind] = table.wall_s
        return True

    for kind in first:
        if not run(kind):
            return tables
    while True:
        for kind in cycle:
            if time.monotonic() + last_wall[kind] > start + seconds or not run(kind):
                return tables


def layer_metrics(trace: dict) -> dict:
    """Per-layer figures of one layer-traced table."""
    spans = trace["spans"]
    counts = trace["counts"]

    def pick(name, field, exclude_parent=""):
        return sum(s[field] for s in spans
                   if s["name"] == name and s["parent"] != exclude_parent)

    simulate_s = pick("engine.simulate", "total_s")
    rows_s = pick("harness.row", "total_s")
    runs = pick("engine.simulate", "calls")
    steps = counts["engine.steps"]
    estimator_s = pick("metrics.psi", "total_s") + pick("metrics.phi", "total_s")
    return {
        "engine.rank_s": pick("engine.rank", "self_s"),
        "engine.rank_calls": pick("engine.rank", "calls"),
        "engine.simulate_s": simulate_s,
        "engine.simulate_ms_p50": 1e3 * statistics.median(trace["durations"]["engine.simulate"]),
        "engine.step_us": 1e6 * simulate_s / steps,
        "engine.update_s": pick("engine.simulate", "self_s"),
        "engine.steps": steps,
        "engine.particle_steps": counts["engine.particle_steps"],
        "stream.uniform_s": pick("stream.uniform", "self_s"),
        "stream.ndtri_s": pick("stream.ndtri", "self_s"),
        "stream.draw_calls": counts["stream.draw_calls"],
        "stream.generators": counts["stream.generators"],
        # the CDF at the sample points; the calls made by quantile bisection
        # belong to exact.quantile_s
        "exact.cdf_s": pick("exact.cdf", "self_s", exclude_parent="exact.quantile"),
        "exact.cdf_points": pick("exact.cdf", "items", exclude_parent="exact.quantile"),
        "metrics.psi_s": pick("metrics.psi", "self_s"),
        "exact.quantile_s": pick("exact.quantile", "total_s"),
        "metrics.gridspec_s": pick("metrics.gridspec", "total_s"),
        "metrics.phi_s": pick("metrics.phi", "total_s"),
        "harness.rows_s": rows_s,
        "harness.runs": runs,
        "harness.run_overhead_us": 1e6 * (rows_s - simulate_s - estimator_s) / runs,
    }


def check_tables(workload: Workload, tables: list[Table]) -> list[list[str]]:
    """The problems of every table; a table with none passed."""
    first_counts = None
    problems = []
    for table in tables:
        found = []
        if table.code != 0:
            found.append(f"exit code {table.code}: {table.stderr.strip()[-300:]}")
        if table.report is None:
            found.append("no report from the child")
        found += workload.table_problems(table.text)
        if table.digest != tables[0].digest:
            found.append("table bytes differ from the first table of this seed")
        if table.trace == "layers" and table.code == 0 and table.report is not None:
            counts = {name: layer_metrics(table.report["trace"])[name] for name in COUNTS}
            if counts["engine.particle_steps"] != workload.particle_steps():
                found.append(f"traced {counts['engine.particle_steps']} particle steps, "
                             f"expected {workload.particle_steps()}")
            if first_counts is None:
                first_counts = counts
            elif counts != first_counts:
                found.append(f"layer counts {counts} differ from {first_counts}")
        problems.append(found)
    return problems


def _median_of(tables, key):
    return statistics.median(key(t) for t in tables)


def _table_s(table):
    return table.report["table_s"]


def _rows_s(table):
    return sum(s["total_s"] for s in table.report["trace"]["spans"] if s["name"] == "harness.row")


def end_to_end(workload: Workload, timed: list[Table]) -> dict:
    """Medians over the untraced tables; peak RSS over every process run so far."""
    table_s = _median_of(timed, _table_s)
    return {
        "table_s": table_s,
        "particle_steps_per_s": workload.particle_steps() / table_s,
        "setup_s": _median_of(timed, lambda t: t.report["setup_s"]),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024,
    }


def per_layer(workload: Workload, timed: list[Table]) -> dict | None:
    """Medians over the traced tables (counts are exact); None if a kind is missing."""
    layered = [t for t in timed if t.trace == "layers"]
    serial_rows = [t for t in timed if t.trace == "rows" and t.threads == 1]
    own_rows = [t for t in timed if t.trace == "rows" and t.threads == workload.threads]
    if not (layered and serial_rows and own_rows):
        return None
    per_table = [layer_metrics(t.report["trace"]) for t in layered]
    values = {name: statistics.median(m[name] for m in per_table) for name in per_table[0]}
    values.update({name: per_table[0][name] for name in COUNTS})
    values["harness.parallel_efficiency"] = (
        _median_of(serial_rows, _rows_s) / (workload.threads * _median_of(own_rows, _rows_s)))
    values["trace.overhead_ratio"] = _median_of(layered, _table_s) / _median_of(serial_rows, _table_s)
    return values


def project_full_strong_h(values: dict) -> dict:
    """The full strong-h preset's time, from the traced cost at N=500000."""
    step_s = values["engine.simulate_s"] / values["engine.steps"]
    per_run_s = (values["harness.rows_s"] - values["engine.simulate_s"]) / values["harness.runs"]
    full = FULL_STRONG_H
    seconds = (full["steps"] * full["runs"] * step_s
               + full["rows"] * full["runs"] * per_run_s) / values["trace.overhead_ratio"]
    return {
        "projected.full_strong_h_s": seconds,
        "note": "projection, not a measurement: traced per-step and per-run estimator cost "
                "at N=500000, scaled by 1/trace.overhead_ratio, times 510 steps x 100 runs "
                "and 8 rows x 100 runs",
    }


def evaluate(workload: Workload, seed: int, tables: list[Table], traced: bool):
    """The result object and an informational record; no result without timings."""
    problems = check_tables(workload, tables)
    failed = sum(1 for p in problems if p)
    timed = [t for t in tables if t.report is not None and t.code == 0]
    values = None
    if timed:
        values = per_layer(workload, timed) if traced else end_to_end(workload, timed)
    if values is None:
        return None, {"problems": problems}
    if traced:
        values["fail_ratio"] = failed / len(tables)
    units = PER_LAYER if traced else END_TO_END
    result = {
        "correct": failed == 0,
        "attempted": len(tables),
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    info = {
        "provenance": provenance(workload, seed, timed[0].report["versions"]),
        "tables": [{"trace": t.trace, "threads": t.threads, "code": t.code,
                    "table_s": t.report and t.report["table_s"],
                    "setup_s": t.report and t.report["setup_s"],
                    "wall_s": t.wall_s, "digest": t.digest[:16], "problems": p}
                   for t, p in zip(tables, problems)],
    }
    if traced and workload.name == FULL_STRONG_H["workload"]:
        info["projection"] = project_full_strong_h(values)
    return result, info


def cache_sizes() -> dict:
    """Data and unified cache sizes of CPU 0, as the kernel reports them."""
    sizes = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            if (index / "type").read_text().strip() == "Instruction":
                continue
            level = (index / "level").read_text().strip()
            sizes[f"L{level}"] = (index / "size").read_text().strip()
        except OSError:
            continue
    return sizes


def provenance(workload: Workload, seed: int, versions: dict) -> dict:
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        **versions,
        "caches": cache_sizes(),
        "array_bytes": {str(n): 8 * n for n in sorted({n for n, _ in workload.rows()})},
        "workload": workload.name,
        "seed": seed,
        "argv": workload.argv(seed, "OUT"),
        "table_particle_steps": workload.particle_steps(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # a terminated run still stops the table it is waiting for (run_table)
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not 0 <= args.seed < 2**64:
        parser.error("--seed must be a 64-bit unsigned integer")
    if not (ROOT / "src" / "rankflow" / "cli.py").is_file():
        print(f"perfbench: no rankflow sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    workload = WORKLOADS[args.workload]
    SCRATCH.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(dir=SCRATCH))
    try:
        tables = measure(workload, args.seed, args.seconds, bool(args.trace), workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    result, info = evaluate(workload, args.seed, tables, bool(args.trace))
    if result is None:
        print(json.dumps(info), file=sys.stderr)
        print("perfbench: no table produced a timing report", file=sys.stderr)
        return 1
    print(json.dumps(info))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
