"""Fast self-test of the benchmark at tiny sizes.

Usage, from the repository root: ``python3 perfbench/selftest.py``.
Exits 0 when the benchmark works, 1 with a list of problems otherwise.

It checks that BENCHMARK.json declares exactly the workloads and metrics
that run.py prints, with the same units; that every workload, shrunk to a
few runs of a few particles, prints every metric in both trace modes and
passes its checks; that a corrupted table raises ``fail_ratio``; and that
the reference checks of the real workloads accept the reference rows and
reject a row 20% off.
"""

from __future__ import annotations

import json
import math
import shutil
import sys
import tempfile
from dataclasses import replace
from pathlib import Path

import run
from workloads import WORKLOADS

TINY = {
    "weak-n-small": dict(values=(20, 40), step=0.05, grid=50, runs=4, batches=2),
    "strong-h-large-n": dict(particles=2000),
    "strong-n-pool": dict(values=(25, 50), step=0.05, runs=4),
}

problems: list[str] = []


def expect(ok: bool, message: str) -> None:
    if not ok:
        problems.append(message)


def check_declaration() -> None:
    path = run.ROOT / "BENCHMARK.json"
    declared = json.loads(path.read_text(encoding="utf-8"))
    expect({w["name"]: w["why"] for w in declared["workloads"]}
           == {w.name: w.why for w in WORKLOADS.values()},
           "BENCHMARK.json workloads differ from workloads.WORKLOADS")
    for key, printed in (("end_to_end", run.END_TO_END), ("per_layer", run.PER_LAYER)):
        units = {m["name"]: m["unit"] for m in declared[key]}
        expect(units == printed, f"BENCHMARK.json {key} {units} differ from run.py {printed}")


def check_result(name: str, traced: bool, result: dict | None) -> None:
    label = f"{name} trace={int(traced)}"
    if result is None:
        problems.append(f"{label}: no result")
        return
    expect(result["correct"] and result["failed"] == 0, f"{label}: tables failed")
    units = run.PER_LAYER if traced else run.END_TO_END
    printed = {k: v["unit"] for k, v in result["metrics"].items()}
    expect(printed == units, f"{label}: printed metrics {printed}, expected {units}")
    for metric, entry in result["metrics"].items():
        expect(isinstance(entry["value"], (int, float)) and math.isfinite(entry["value"]),
               f"{label}: {metric} = {entry['value']!r}")


def check_workloads(workdir: Path) -> None:
    for name, sizes in TINY.items():
        workload = replace(WORKLOADS[name], checks=(), **sizes)
        for traced in (False, True):
            tables = run.measure(workload, 7, 0.0, traced, workdir)
            result, _ = run.evaluate(workload, 7, tables, traced)
            check_result(name, traced, result)
        if name == "strong-n-pool":
            # traced tables include both worker counts; corrupt one estimate
            header, first, *rest = tables[1].text.splitlines()
            cells = first.split(",")
            cells[1] = f"{float(cells[1]) * 1.5:.8g}"
            tables[1].text = "\n".join([header, ",".join(cells), *rest]) + "\n"
            result, _ = run.evaluate(workload, 7, tables, True)
            expect(result is not None and not result["correct"] and result["failed"] == 1
                   and result["metrics"]["fail_ratio"]["value"] == 1 / len(tables),
                   f"corrupted table not caught: {result}")


def check_references() -> None:
    def table(values):
        lines = ["parameter,estimation,precision,ratio"]
        previous = None
        for parameter, (estimation, precision) in values:
            ratio = "" if previous is None else f"{previous / estimation:.8g}"
            lines.append(f"{parameter:.8g},{estimation:.8g},{precision:.8g},{ratio}")
            previous = estimation
        return "\n".join(lines) + "\n"

    good = {
        "weak-n-small": [(100, (0.0102, 0.004)), (200, (0.006, 0.003))],
        "strong-h-large-n": [(0.5, (0.0796, 1e-5)), (0.25, (0.0355, 1e-3))],
        "strong-n-pool": [(250, (0.033, 0.006)), (1000, (0.015, 0.003)),
                          (4000, (0.0075, 0.0015))],
    }
    for name, rows in good.items():
        workload = WORKLOADS[name]
        expect(workload.table_problems(table(rows)) == [], f"{name}: reference rows rejected")
        (parameter, (estimation, precision)), *rest = rows
        off = [(parameter, (estimation * 1.2 + 3 * precision, precision)), *rest]
        expect(workload.table_problems(table(off)) != [], f"{name}: a row far off accepted")


def main() -> int:
    check_declaration()
    check_references()
    run.SCRATCH.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(dir=run.SCRATCH))
    try:
        check_workloads(workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for problem in problems:
        print(f"selftest: {problem}", file=sys.stderr)
    print("selftest: ok" if not problems else f"selftest: {len(problems)} problems")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
