"""The benchmark's own self-test passes.

``perfbench/selftest.py`` runs every workload shrunk to a few runs, in both
trace modes, and checks that ``BENCHMARK.json`` declares what
``perfbench/run.py`` prints.  A CLI or package change that breaks a
workload fails here.  This test only reads ``perfbench/``.
"""

import os
import subprocess
import sys

import rankflow

SRC = os.path.dirname(os.path.dirname(rankflow.__file__))
ROOT = os.path.dirname(SRC)


def test_perfbench_selftest_passes():
    env = dict(os.environ, PYTHONPATH=SRC)
    done = subprocess.run([sys.executable, os.path.join("perfbench", "selftest.py")],
                          cwd=ROOT, env=env, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    assert "selftest: ok" in done.stdout.splitlines()
