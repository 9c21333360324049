"""The benchmark's workloads and the correctness checks of their tables.

Each workload is one rankflow study, run the way a user runs it: a
``strong`` or ``weak`` argv handed to ``rankflow.cli.main``.  The shapes
come from the regimes that dominate the package's running time; the run
counts ``runs`` are sized so that one table takes a few seconds, which
lets one benchmark run time several tables and report their median.

The reference checks hold at these run counts for any seed: the large-N
strong rows are dominated by the time-step bias, which is far larger than
their Monte-Carlo noise, and the small-N rows are compared within three
combined 95% half-widths.  The ratio bands of the acceptance suite are not
used here: at reduced run counts they fail by chance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

#: Burgers study parameters shared by every workload (the CLI defaults)
SIGMA2 = 0.2
HORIZON = 1.0


@dataclass(frozen=True)
class Near:
    """Row ``row`` must lie within ``rel`` of ``value`` (relative error)."""

    row: int
    value: float
    rel: float

    def problem(self, estimation: float, precision: float) -> str | None:
        if abs(estimation - self.value) <= self.rel * self.value:
            return None
        return (f"row {self.row}: {estimation:.8g} is not within "
                f"{self.rel:.0%} of the reference {self.value:.8g}")


@dataclass(frozen=True)
class Covers:
    """Row ``row`` must lie within ``k`` combined half-widths of a reference row."""

    row: int
    value: float
    halfwidth: float
    k: float = 3.0

    def problem(self, estimation: float, precision: float) -> str | None:
        combined = math.hypot(self.halfwidth, precision)
        if abs(estimation - self.value) <= self.k * combined:
            return None
        return (f"row {self.row}: {estimation:.8g} is more than {self.k:g} combined "
                f"half-widths ({combined:.3g}) from the reference {self.value:.8g}")


@dataclass(frozen=True)
class Workload:
    """One study table: its argv shape, run count and reference checks."""

    name: str
    why: str
    kind: str                      # "strong" | "weak"
    sweep: str                     # "n" | "h"
    values: tuple
    runs: int
    threads: int
    particles: int | None = None   # fixed N of an h-sweep
    step: float | None = None      # fixed h of an n-sweep
    batches: int | None = None     # weak studies only
    grid: int | None = None        # weak studies only: quantile cells K
    checks: tuple = ()

    def argv(self, seed: int, out: str, threads: int | None = None) -> list[str]:
        """The ``rankflow`` argv of this study for a seed and an output path."""
        argv = [self.kind, "--sweep", f"{self.sweep}:{','.join(map(str, self.values))}"]
        if self.particles is not None:
            argv += ["--particles", str(self.particles)]
        if self.step is not None:
            argv += ["--step", repr(self.step)]
        if self.grid is not None:
            argv += ["--grid", str(self.grid)]
        argv += ["--runs", str(self.runs)]
        if self.batches is not None:
            argv += ["--batches", str(self.batches)]
        argv += ["--threads", str(self.threads if threads is None else threads),
                 "--seed", str(seed), "--out", out]
        return argv

    def rows(self) -> list[tuple[int, float]]:
        """(N, h) of every sweep row."""
        if self.sweep == "n":
            return [(int(v), self.step) for v in self.values]
        return [(self.particles, float(v)) for v in self.values]

    def particle_steps(self) -> int:
        """Particle steps of one table: sum over rows of R * N * steps."""
        return sum(self.runs * n * euler_steps(h) for n, h in self.rows())

    def table_problems(self, text: str) -> list[str]:
        """Everything wrong with one CSV table of this study; empty when correct."""
        lines = text.splitlines()
        if not lines or lines[0] != "parameter,estimation,precision,ratio":
            return ["missing or wrong CSV header"]
        if len(lines) - 1 != len(self.values):
            return [f"{len(lines) - 1} rows, expected {len(self.values)}"]
        problems = []
        previous = None
        for index, (line, value) in enumerate(zip(lines[1:], self.values)):
            cells = line.split(",")
            try:
                parameter, estimation, precision = (float(c) for c in cells[:3])
                ratio = float(cells[3]) if cells[3] else None
            except (ValueError, IndexError):
                problems.append(f"row {index}: unreadable {line!r}")
                continue
            if len(cells) != 4 or parameter != float(value):
                problems.append(f"row {index}: parameter {cells[0]!r}, expected {value}")
            if not (estimation > 0.0 and math.isfinite(estimation)
                    and precision >= 0.0 and math.isfinite(precision)):
                problems.append(f"row {index}: estimation or precision out of range")
            expected_ratio = None if previous is None else previous / estimation
            if (ratio is None) != (expected_ratio is None) or (
                    ratio is not None and not math.isclose(ratio, expected_ratio, rel_tol=1e-6)):
                problems.append(f"row {index}: ratio {cells[3]!r} does not match the estimates")
            for check in self.checks:
                if check.row == index:
                    problem = check.problem(estimation, precision)
                    if problem:
                        problems.append(problem)
            previous = estimation
        return problems


def euler_steps(h: float, horizon: float = HORIZON) -> int:
    """Euler steps of one run to the horizon, the last one possibly shorter."""
    full = math.floor(horizon / h + 1e-9)
    return full + (horizon - full * h >= 1e-9 * h)


WORKLOADS = {w.name: w for w in (
    Workload(
        name="weak-n-small",
        why="weak study at N=100,200 and 500 steps: per-call overhead dominates; batching runs shows here",
        kind="weak", sweep="n", values=(100, 200), step=0.002, grid=5000,
        runs=100, batches=10, threads=1,
        checks=(Covers(row=0, value=0.01018160, halfwidth=5.6947e-4),)),
    Workload(
        name="strong-h-large-n",
        why="strong study at N=500000 and h=0.5,0.25: argsort of 4 MB arrays dominates; rank-ordered carry shows here",
        kind="strong", sweep="h", values=(0.5, 0.25), particles=500_000,
        runs=2, threads=1,
        checks=(Near(row=0, value=0.07963922, rel=0.10),
                Near(row=1, value=0.03550774, rel=0.10))),
    Workload(
        name="strong-n-pool",
        why="strong study at N=250..4000 on a 2-process pool per row: executor and IPC cost and parallel efficiency",
        kind="strong", sweep="n", values=(250, 1000, 4000), step=0.002,
        runs=20, threads=2,
        checks=(Covers(row=0, value=0.03312361, halfwidth=0.00290442),)),
)}
