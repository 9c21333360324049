"""Command line interface.

Subcommands: ``simulate`` (one particle-system run, optional position
dump), ``exact`` (quantile table of the closed-form Burgers solution),
``strong`` and ``weak`` (Monte-Carlo convergence tables).  Study
parameters left unspecified fall back to desk-scale presets sized for
minutes of runtime; ``--full`` switches the presets to the full-scale
settings of the headline tables.

Each command validates its inputs, then opens its destination through
``_output``, the one writer of every file, and only then runs: a bad flag
touches no file, and a bad path fails before the work.  For a study the
inputs are the whole ``harness.StudySpec``: every sweep row's config and
the weak reference grid.  Every command also checks, before it allocates
anything, that its arrays fit in physical memory (``harness.check_memory``).

Exit codes: 0 on success, 2 on configuration errors (arrays that cannot
fit among them), 3 on numerical failures (a run whose positions overflow
among them), on an allocation that fails all the same and on a worker
process that died, 130 on Ctrl-C (SIGINT), the shell's convention for an
interrupt.
"""

from __future__ import annotations

import argparse
import json
import sys
from concurrent.futures.process import BrokenProcessPool
from contextlib import contextmanager
from dataclasses import asdict, astuple
from typing import Callable, Iterable, Iterator, Optional

import numpy as np

from . import harness
from .engine import (FRACTIONAL_RANK, IID, OPTIMAL, RANK_COEFFICIENT, InitRule,
                     SimulationConfig, simulate)
from .errors import ConfigError, NumericalError
from .exact import BurgersSolution
from .flux import parse_flux
from .initial import parse_distribution

# Desk-scale presets run each study in minutes on one core; the full-scale
# presets reproduce the headline tables.  Explicit flags always win.
_PRESETS = {
    ("strong", "n"): {
        "desk": dict(values=(250, 1000, 4000), step=0.002, runs=100),
        "full": dict(values=(250, 1000, 4000, 16000, 64000), step=0.002, runs=100),
    },
    ("strong", "h"): {
        "desk": dict(values=(0.5, 0.25, 0.125, 0.0625), particles=50_000, runs=100),
        "full": dict(values=tuple(0.5 ** k for k in range(1, 9)), particles=500_000,
                     runs=100),
    },
    ("weak", "n"): {
        "desk": dict(values=(100, 200, 400), step=0.002, runs=5000, batches=50),
        "full": dict(values=(100, 200, 400, 800, 1600, 3200), step=0.002,
                     runs=20_000, batches=100),
    },
    ("weak", "h"): {
        "desk": dict(values=(0.5, 0.25, 0.125, 0.0625), particles=20_000,
                     runs=1000, batches=20),
        "full": dict(values=tuple(0.5 ** k for k in range(1, 9)), particles=100_000,
                     runs=1000, batches=20),
    },
}


def _add_model_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--horizon", type=float, default=1.0, help="time horizon T")
    parser.add_argument("--sigma2", type=float, default=0.2,
                        help="diffusion parameter sigma^2")
    parser.add_argument("--flux", default="burgers",
                        help="burgers | quadratic | poly:c0,c1,...")
    parser.add_argument("--scheme", choices=[RANK_COEFFICIENT, FRACTIONAL_RANK],
                        default=RANK_COEFFICIENT,
                        help="drift from rank coefficients or from the speed at rank/N")
    parser.add_argument("--init", choices=[OPTIMAL, IID], default=OPTIMAL,
                        help="placement of the particles in the initial law --dist")
    parser.add_argument("--dist", default="dirac0",
                        help="initial law: dirac0 | uniform:c,d | gauss:mu,sd")
    parser.add_argument("--seed", type=int, default=42, help="base seed (64-bit)")


def _add_study_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--sweep", required=True,
                        help="n:v1,v2,... or h:v1,v2,...; a bare n or h uses the preset values")
    parser.add_argument("--particles", type=int, help="fixed N for an h-sweep")
    parser.add_argument("--step", type=float, help="fixed h for an n-sweep")
    parser.add_argument("--runs", type=int, help="number of Monte-Carlo runs R")
    parser.add_argument("--format", choices=["csv", "json"], default="csv")
    parser.add_argument("--out", help="output path (default: stdout)")
    parser.add_argument("--threads", type=int, default=1,
                        help="worker processes of the study's one pool, at most one per "
                             "core and per run of a row (default: 1, no pool)")
    parser.add_argument("--full", action="store_true",
                        help="use the full-scale presets instead of the desk-scale ones")
    parser.add_argument("--paired-seeds", action="store_true",
                        help="share run seeds across sweep values (common random numbers)")
    _add_model_flags(parser)


class _Parser(argparse.ArgumentParser):
    """A usage error is one stderr line (no usage text, newlines escaped), exit 2.
    Any number ``float`` reads (``-1e-3``, ``-inf``) is a value, never a flag."""

    def _parse_optional(self, arg_string):
        try:
            float(arg_string)
        except ValueError:
            return super()._parse_optional(arg_string)
        return None

    def error(self, message):
        message = message.replace("\n", "\\n")
        self.exit(2, f"{self.prog}: error: {message}\n")


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="rankflow",
        description="Rank-based particle approximation of 1-D viscous conservation laws",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="run the particle system once")
    sim.add_argument("--particles", type=int, required=True)
    sim.add_argument("--step", type=float, required=True)
    sim.add_argument("--emit-positions", metavar="PATH",
                     help="write the final positions as CSV (index,position)")
    _add_model_flags(sim)

    ex = sub.add_parser("exact", help="quantile table of the exact Burgers solution")
    ex.add_argument("--sigma2", type=float, default=0.2)
    ex.add_argument("--horizon", type=float, default=1.0)
    ex.add_argument("--grid", type=int, default=5000, help="number of quantile cells K")
    ex.add_argument("--out", help="output path (default: stdout)")

    strong = sub.add_parser("strong", help="strong (mean W1) convergence table")
    _add_study_flags(strong)

    weak = sub.add_parser("weak", help="weak (W1 of mean) convergence table")
    _add_study_flags(weak)
    weak.add_argument("--batches", type=int, help="number of batches B (divides runs)")
    weak.add_argument("--grid", type=int, default=5000, help="quantile cells K")

    return parser


def _sigma(args) -> float:
    if not 0.0 < args.sigma2 < np.inf:
        raise ConfigError("--sigma2 must be finite and > 0")
    return float(np.sqrt(args.sigma2))


def _config(args, particles: int, step: float) -> SimulationConfig:
    """The run the model flags describe, with N particles and Euler step h."""
    return SimulationConfig(
        n_particles=particles,
        step=step,
        horizon=args.horizon,
        sigma=_sigma(args),
        flux=parse_flux(args.flux),
        scheme=args.scheme,
        init=InitRule(args.init, parse_distribution(args.dist)),
        seed=args.seed,
    )


@contextmanager
def _output(path: Optional[str]) -> Iterator[Callable[[Iterable[str]], None]]:
    """Open a command's destination, then yield ``write(lines)`` for it.

    ``None`` or ``-`` is stdout; any other string, the empty one included,
    is a path, whose file is replaced when it opens.  Lines are streamed as
    ASCII, each ended by ``\\n``.  An OSError of the open, a write or the
    close, not of the caller's work, is a ConfigError naming the path.
    """
    where = "stdout" if path in (None, "-") else repr(path)

    def guarded(action, *args):
        try:
            return action(*args)
        except OSError as err:
            raise ConfigError(f"cannot write {where}: {err.strerror or err}") from None

    handle = sys.stdout if where == "stdout" else guarded(
        lambda: open(path, "w", encoding="ascii", newline="\n"))
    try:
        yield lambda lines: guarded(handle.writelines, (line + "\n" for line in lines))
    finally:
        guarded(handle.flush if handle is sys.stdout else handle.close)


def _table_lines(table: tuple[harness.StudyRow, ...], fmt: str) -> Iterator[str]:
    """A study table as CSV or JSON lines, every number to 8 significant
    digits; the first row's ratio is empty (CSV) or null (JSON)."""
    if fmt == "csv":
        yield "parameter,estimation,precision,ratio"
        for row in table:
            yield ",".join("" if value is None else f"{value:.8g}" for value in astuple(row))
    else:
        rows = [{name: None if value is None else float(f"{value:.8g}")
                 for name, value in asdict(row).items()} for row in table]
        yield from json.dumps(rows, indent=2).splitlines()


def _cmd_simulate(args) -> int:
    config = _config(args, args.particles, args.step)
    harness.check_memory(particles=config.n_particles)
    if args.emit_positions is None:
        final = simulate(config)
    else:
        with _output(args.emit_positions) as write:
            final = simulate(config)
            write(["index,position"])
            write(f"{i},{value:.17g}" for i, value in enumerate(final.positions))
    pos = final.positions
    print(f"final time {config.horizon:g}: {pos.size} particles, "
          f"mean {(pos / pos.size).sum():.6g}, min {pos.min():.6g}, max {pos.max():.6g}",
          file=sys.stderr if args.emit_positions == "-" else sys.stdout)
    return 0


def _cmd_exact(args) -> int:
    if args.grid < 2:
        raise ConfigError("--grid must be >= 2")
    if not 0.0 < args.horizon < np.inf:
        raise ConfigError("--horizon must be finite and > 0")
    solution = BurgersSolution(_sigma(args))
    harness.check_memory(cells=args.grid)
    with _output(args.out) as write:
        levels = np.arange(1, args.grid) / args.grid
        quantiles = solution.quantile(args.horizon, levels)
        write(["u,quantile"])
        write(f"{u:.8g},{q:.8g}" for u, q in zip(levels, quantiles))
    return 0


def _parse_sweep(text: str) -> tuple[str, tuple | None]:
    """Sweep name and values of ``n[:v1,...]`` / ``h[:v1,...]``; None when bare."""
    name, colon, raw = text.partition(":")
    if name not in ("n", "h"):
        raise ConfigError(f"bad sweep spec {text!r} (want n:... or h:...)")
    if not colon:
        return name, None
    try:
        values = tuple(map(int if name == "n" else float, raw.split(",")))
    except ValueError as err:
        raise ConfigError(f"bad sweep values in {text!r}") from err
    return name, values


def _cmd_study(kind: str, args) -> int:
    sweep, values = _parse_sweep(args.sweep)
    preset = _PRESETS[(kind, sweep)]["full" if args.full else "desk"]
    # the swept field of the base is a placeholder: every row sets its own
    if sweep == "n":
        particles, step = 1, args.step if args.step is not None else preset["step"]
    else:
        particles = args.particles if args.particles is not None else preset["particles"]
        step = args.horizon
    runs = args.runs if args.runs is not None else preset["runs"]

    weak = {}
    if kind == harness.WEAK:
        if args.batches is not None:
            batches = args.batches
        elif runs == preset["runs"]:
            batches = preset["batches"]
        else:  # the least divisor of runs from min(100, max(2, runs // 10)) on
            least = min(100, max(2, runs // 10))
            batches = next((b for b in range(least, runs) if runs % b == 0), runs)
        weak = dict(batches=batches, grid_k=args.grid)
    spec = harness.StudySpec(kind, _config(args, particles, step), sweep,
                             preset["values"] if values is None else values, runs,
                             paired_seeds=args.paired_seeds, **weak)
    if args.threads < 1:
        raise ConfigError(f"thread count must be >= 1, got {args.threads}")
    with _output(args.out) as write:
        write(_table_lines(harness.run_study(spec, threads=args.threads), args.format))
    return 0


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "simulate":
            return _cmd_simulate(args)
        if args.command == "exact":
            return _cmd_exact(args)
        return _cmd_study(args.command, args)
    except NumericalError as err:
        print(f"rankflow: numerical failure: {err}", file=sys.stderr)
        return 3
    except ConfigError as err:
        print(f"rankflow: {err}", file=sys.stderr)
        return 2
    except MemoryError as err:
        print(f"rankflow: out of memory: {err}", file=sys.stderr)
        return 3
    except BrokenProcessPool as err:
        print(f"rankflow: a worker process died: {err}", file=sys.stderr)
        return 3
    except KeyboardInterrupt:
        print("rankflow: interrupted", file=sys.stderr)
        return 130


if __name__ == "__main__":
    sys.exit(main())
