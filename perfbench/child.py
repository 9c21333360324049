"""Produce one study table in a fresh interpreter and report how long it took.

Usage: ``python3 perfbench/child.py SPEC_JSON`` with ``src`` on
``PYTHONPATH``.  SPEC_JSON holds ``launch`` (the parent's CLOCK_MONOTONIC
reading just before it started this process), ``argv`` for
``rankflow.cli.main``, ``grid`` (K of the weak reference grid, or null),
``trace`` ("off", "rows" or "layers") and ``result`` (where to write the
report as JSON).

Set-up is the span from launch to the package imported and the reference
ready: the ``BurgersSolution`` object, plus the quantile grid for weak
studies.  The table time is the call of ``rankflow.cli.main`` alone.
"""

import json
import sys
import time


def main() -> int:
    spec = json.loads(sys.argv[1])

    from rankflow import cli
    from rankflow.exact import BurgersSolution
    from rankflow.metrics import GridSpec
    from workloads import HORIZON, SIGMA2

    reference = BurgersSolution(SIGMA2 ** 0.5)
    if spec["grid"]:
        GridSpec.from_quantile(lambda u: reference.quantile(HORIZON, u), spec["grid"])
    setup_s = time.clock_gettime(time.CLOCK_MONOTONIC) - spec["launch"]

    tracer = None
    if spec["trace"] != "off":
        from tracer import Tracer, install
        tracer = Tracer()
        install(tracer, layers=spec["trace"] == "layers")
    start = time.perf_counter()
    code = cli.main(spec["argv"])
    table_s = time.perf_counter() - start

    import numpy
    import scipy
    report = {
        "code": code, "setup_s": setup_s, "table_s": table_s,
        "versions": {"python": sys.version.split()[0], "numpy": numpy.__version__,
                     "scipy": scipy.__version__},
        "trace": None if tracer is None else tracer.summary(),
    }
    with open(spec["result"], "w", encoding="utf-8") as handle:
        json.dump(report, handle)
    return code


if __name__ == "__main__":
    sys.exit(main())
