"""Tables and runs do not depend on numpy's SIMD dispatch level.

numpy picks its sort and arithmetic loops at import from the CPU features
it finds above its compiled baseline.  One script runs in two interpreters,
one with numpy's default dispatch and one with every target above the
baseline disabled through ``NPY_DISABLE_CPU_FEATURES``, and both must give
the same bytes.  No digest is pinned here: ``tests/test_golden.py`` pins
them on one host, and this test compares the two processes on any host.
It checks numpy's dispatch on one CPU; scipy's compiled ``ndtri``,
``log_ndtr`` and ``expit``, another libm and another CPU architecture are
not checked.
"""

import json
import os
import subprocess
import sys

import numpy as np
import pytest

from test_golden import STRONG_ARGS, WEAK_ARGS

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

#: sha256 of the golden CLI tables on stdout and of final positions: Dirac
#: starts at N=100 (runs batched per draw), 5000 (packed-word ranking) and
#: 40000 (drift formed block by block), i.i.d. starts at N=5000 and 70000;
#: with the found targets, which the disabled process must report empty
SCRIPT = """
import contextlib, hashlib, io, json, sys
import numpy as np
import rankflow.cli as cli
from rankflow import IID, FluxFunction, Gaussian, InitRule, SimulationConfig, simulate

digests = {"found": np.show_config(mode="dicts")["SIMD Extensions"].get("found", [])}
for argv in json.loads(sys.argv[1]):
    table = io.StringIO()
    with contextlib.redirect_stdout(table):
        assert cli.main(argv) == 0
    digests[argv[0]] = hashlib.sha256(table.getvalue().encode()).hexdigest()
for name, n, init in [("dirac", 100, InitRule()), ("dirac", 5000, InitRule()),
                      ("dirac", 40000, InitRule()),
                      ("iid", 5000, InitRule(IID, Gaussian(0.0, 1.0))),
                      ("iid", 70000, InitRule(IID, Gaussian(0.0, 1.0)))]:
    config = SimulationConfig(n_particles=n, step=0.1, horizon=1.0, sigma=0.2 ** 0.5,
                              flux=FluxFunction.burgers(), init=init, seed=7)
    positions = simulate(config).positions.astype("<f8")
    digests[f"{name}-{n}"] = hashlib.sha256(positions.tobytes()).hexdigest()
print(json.dumps(digests))
"""


def dispatch_targets() -> list:
    """numpy's dispatch targets above its baseline that this CPU has; none
    where numpy cannot list them (``show_config`` has no ``mode`` before 1.25)."""
    try:
        return np.show_config(mode="dicts")["SIMD Extensions"].get("found", [])
    except TypeError:
        return []


def start_script(disabled: list) -> subprocess.Popen:
    """SCRIPT in a fresh interpreter, with the ``disabled`` targets off."""
    env = {k: v for k, v in os.environ.items() if k != "NPY_DISABLE_CPU_FEATURES"}
    env["PYTHONPATH"] = SRC
    if disabled:
        env["NPY_DISABLE_CPU_FEATURES"] = " ".join(disabled)
    return subprocess.Popen([sys.executable, "-c", SCRIPT, json.dumps([STRONG_ARGS, WEAK_ARGS])],
                            env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)


def digests(process: subprocess.Popen) -> dict:
    out, err = process.communicate(timeout=120)
    assert process.returncode == 0, err
    return json.loads(out)


def test_bits_do_not_depend_on_simd_dispatch():
    targets = dispatch_targets()
    if not targets:
        pytest.skip("numpy dispatches no target above its baseline on this CPU")
    processes = [start_script([]), start_script(targets)]  # side by side
    try:
        default, baseline = map(digests, processes)
    finally:
        for process in processes:
            process.kill()
    assert (default.pop("found"), baseline.pop("found")) == (targets, [])
    assert len(default) == 7
    assert baseline == default
