"""Spans around calls into rankflow's layers, recorded from outside the package.

``install`` replaces the module-global names through which rankflow's
layers call each other (``harness.simulate``, ``engine.zero_based_ranks``,
``stream.ndtri``, ...) with wrappers that time each call.  Every span knows
the span that was open when it started, so a layer's self time is its
duration minus the time covered by its child spans.  Spans are aggregated
in memory by (name, parent) as they close; nothing is written until the
table is done.  The package itself is not modified, and its numbers are
not changed: a wrapper only calls the original function.
"""

from __future__ import annotations

import time

from workloads import euler_steps


class Tracer:
    """Aggregates spans by (name, parent) and counts by name."""

    def __init__(self):
        #: open spans as [seconds covered by child spans, name]; the root has no name
        self._stack = [[0.0, None]]
        #: name -> parent name -> [calls, total seconds, self seconds, items]
        self._records = {}
        #: name -> per-call seconds, for the spans asked to keep them
        self.durations = {}
        self.counts = {}

    def wrap(self, name, fn, items=None, keep=False):
        """``fn`` timed as span ``name``; ``items(args)`` is added to its items."""
        stack, clock = self._stack, time.perf_counter
        records = self._records.setdefault(name, {})
        kept = self.durations.setdefault(name, []) if keep else None

        def traced(*args, **kwargs):
            parent = stack[-1]
            frame = [0.0, name]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                parent[0] += elapsed
                record = records.get(parent[1])
                if record is None:
                    record = records[parent[1]] = [0, 0.0, 0.0, 0]
                record[0] += 1
                record[1] += elapsed
                record[2] += elapsed - frame[0]
                if items is not None:
                    record[3] += items(args)
                if kept is not None:
                    kept.append(elapsed)

        return traced

    def count(self, name, fn, amount=None):
        """``fn`` that adds ``amount(args)``, or 1, to count ``name`` on every call."""
        counts = self.counts
        counts.setdefault(name, 0)

        def counted(*args, **kwargs):
            counts[name] += 1 if amount is None else amount(args)
            return fn(*args, **kwargs)

        return counted

    def summary(self) -> dict:
        return {
            "spans": [{"name": name, "parent": parent, "calls": r[0], "total_s": r[1],
                       "self_s": r[2], "items": r[3]}
                      for name, records in self._records.items()
                      for parent, r in records.items()],
            "durations": self.durations,
            "counts": self.counts,
        }


def install(tracer: Tracer, layers: bool) -> None:
    """Wrap the study rows; with ``layers`` also every layer below them."""
    from rankflow import engine, exact, harness, metrics, stream

    harness.strong_error_point = tracer.wrap("harness.row", harness.strong_error_point)
    harness.weak_error_point = tracer.wrap("harness.row", harness.weak_error_point)
    if not layers:
        return

    def steps(args):
        return euler_steps(args[0].step, args[0].horizon)

    simulate = tracer.count("engine.steps", harness.simulate, steps)
    simulate = tracer.count("engine.particle_steps", simulate,
                            lambda args: steps(args) * args[0].n_particles)
    harness.simulate = tracer.wrap("engine.simulate", simulate, keep=True)
    harness.psi_grid_free = tracer.wrap("metrics.psi", harness.psi_grid_free)
    harness.phi_grid = tracer.wrap("metrics.phi", harness.phi_grid)

    engine.zero_based_ranks = tracer.wrap("engine.rank", engine.zero_based_ranks)
    engine.standard_normals = tracer.count("stream.draw_calls", engine.standard_normals)
    engine.make_generator = tracer.count("stream.generators", engine.make_generator)
    stream.open_uniforms = tracer.wrap("stream.uniform", stream.open_uniforms)
    stream.ndtri = tracer.wrap("stream.ndtri", stream.ndtri)

    solution = exact.BurgersSolution
    solution.cdf = tracer.wrap("exact.cdf", solution.cdf,
                               items=lambda args: getattr(args[2], "size", 1))
    solution.quantile = tracer.wrap("exact.quantile", solution.quantile)
    metrics.GridSpec.from_quantile = classmethod(tracer.wrap(
        "metrics.gridspec", metrics.GridSpec.__dict__["from_quantile"].__func__))
