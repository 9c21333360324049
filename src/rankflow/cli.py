"""Command line interface.

Subcommands: ``simulate`` (one particle-system run, optional position
dump), ``exact`` (quantile table of the closed-form Burgers solution),
``strong`` and ``weak`` (Monte-Carlo convergence tables).  Study
parameters left unspecified fall back to desk-scale presets sized for
minutes of runtime; ``--full`` switches the presets to the full-scale
settings of the headline tables.

Exit codes: 0 on success, 2 on configuration errors, 3 on numerical
failures, on running out of memory and on a worker process that died.
"""

from __future__ import annotations

import argparse
import csv
import os
import sys
from concurrent.futures.process import BrokenProcessPool

import numpy as np

from . import harness
from .engine import (FRACTIONAL_RANK, IID, OPTIMAL, RANK_COEFFICIENT, InitRule,
                     SimulationConfig, simulate)
from .errors import ConfigError, EmitError, NumericalError, RankflowError
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


def _threads(args) -> int:
    """Worker count from --threads, else RANKFLOW_THREADS, else 1."""
    raw = args.threads if args.threads is not None else os.environ.get("RANKFLOW_THREADS", "1")
    try:
        threads = int(raw)
    except ValueError:
        raise ConfigError(f"RANKFLOW_THREADS must be an integer, got {raw!r}") from None
    if threads < 1:
        raise ConfigError(f"thread count must be >= 1, got {raw!r}")
    return threads


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
                        help="n[:v1,v2,...] or h[:v1,v2,...]; bare n/h uses the preset values")
    parser.add_argument("--particles", type=int, help="fixed N for an h-sweep")
    parser.add_argument("--step", type=float, help="fixed h for an n-sweep")
    parser.add_argument("--runs", type=int, help="number of Monte-Carlo runs R")
    parser.add_argument("--format", choices=["csv", "json"], default="csv")
    parser.add_argument("--out", help="output path (default: stdout)")
    parser.add_argument("--threads", type=int, default=None,
                        help="worker processes (default: RANKFLOW_THREADS or 1)")
    parser.add_argument("--full", action="store_true",
                        help="use the full-scale presets instead of the desk-scale ones")
    parser.add_argument("--paired-seeds", action="store_true",
                        help="share run seeds across sweep values (common random numbers)")
    _add_model_flags(parser)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
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


def _cmd_simulate(args) -> int:
    final = simulate(_config(args, args.particles, args.step))
    if args.emit_positions:
        try:
            with open(args.emit_positions, "w", newline="", encoding="ascii") as handle:
                writer = csv.writer(handle)
                writer.writerow(["index", "position"])
                for i, value in enumerate(final.positions):
                    writer.writerow([i, f"{value:.17g}"])
        except OSError as err:
            raise EmitError(f"cannot write positions to {args.emit_positions}: {err}") from err
    pos = final.positions
    print(f"final time {final.time:g}: {pos.size} particles, "
          f"mean {pos.mean():.6g}, min {pos.min():.6g}, max {pos.max():.6g}")
    return 0


def _cmd_exact(args) -> int:
    if args.grid < 2:
        raise ConfigError("--grid must be >= 2")
    solution = BurgersSolution(_sigma(args))
    levels = np.arange(1, args.grid) / args.grid
    quantiles = solution.quantile(args.horizon, levels)
    lines = ["u,quantile"] + [f"{u:.8g},{q:.8g}" for u, q in zip(levels, quantiles)]
    text = "\n".join(lines) + "\n"
    if args.out and args.out != "-":
        try:
            with open(args.out, "w", encoding="ascii") as handle:
                handle.write(text)
        except OSError as err:
            raise EmitError(f"cannot write quantiles to {args.out}: {err}") from err
    else:
        sys.stdout.write(text)
    return 0


def _parse_sweep(text: str) -> tuple[str, tuple | None]:
    """Sweep name and values of ``n[:v1,...]`` / ``h[:v1,...]``; None when bare."""
    name, _, raw = text.partition(":")
    if name not in ("n", "h"):
        raise ConfigError(f"bad sweep spec {text!r} (want n:... or h:...)")
    if not raw:
        return name, None
    try:
        values = tuple(int(v) for v in raw.split(",")) if name == "n" else \
            tuple(float(v) for v in raw.split(","))
    except ValueError as err:
        raise ConfigError(f"bad sweep values in {text!r}") from err
    return name, values


def _cmd_study(kind: str, args) -> int:
    sweep, values = _parse_sweep(args.sweep)
    preset = _PRESETS[(kind, sweep)]["full" if args.full else "desk"]
    if values is None:
        values = preset["values"]

    if sweep == "n":
        step = args.step if args.step is not None else preset["step"]
        particles = int(max(values))  # overridden row by row
    else:
        step = float(min(values))  # overridden row by row
        particles = args.particles if args.particles is not None else preset["particles"]
    runs = args.runs if args.runs is not None else preset["runs"]

    base = _config(args, particles, step)
    if kind == harness.STRONG:
        spec = harness.StudySpec(kind, base, sweep, values, runs,
                                 paired_seeds=args.paired_seeds)
    else:
        if args.batches is not None:
            batches = args.batches
        elif runs == preset["runs"]:
            batches = preset["batches"]
        else:
            batches = min(100, max(2, runs // 10))
        spec = harness.StudySpec(kind, base, sweep, values, runs, batches=batches,
                                 grid_k=args.grid, paired_seeds=args.paired_seeds)
    table = harness.run_study(spec, threads=_threads(args))
    harness.emit(table, args.format, args.out)
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
    except (ConfigError, EmitError) as err:
        print(f"rankflow: {err}", file=sys.stderr)
        return 2
    except RankflowError as err:
        print(f"rankflow: {err}", file=sys.stderr)
        return 3
    except MemoryError as err:
        print(f"rankflow: out of memory: {err}", file=sys.stderr)
        return 3
    except BrokenProcessPool as err:
        print(f"rankflow: a worker process died: {err}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
