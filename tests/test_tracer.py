"""The benchmark's layer tracer still wraps what the studies call.

``perfbench/tracer.py`` replaces module globals of the package with timing
wrappers.  A refactor that renames or bypasses one of them breaks
``perfbench/run.py --trace 1``, and no other test would notice.  This test
only reads ``perfbench/``.
"""

import json
import os
import subprocess
import sys

import rankflow
import rankflow.cli as cli

SRC = os.path.dirname(os.path.dirname(rankflow.__file__))
PERFBENCH = os.path.join(os.path.dirname(SRC), "perfbench")

#: one tiny study of each kind, on one worker so that every span is in-process
STUDIES = {
    "strong": ["strong", "--sweep", "n:4,8", "--step", "0.25", "--runs", "3"],
    "weak": ["weak", "--sweep", "n:4,8", "--step", "0.25", "--runs", "4", "--batches", "2",
             "--grid", "8"],
}

#: installs the tracer with every layer, runs the studies, prints the spans and counts
TRACED = """
import json, sys
sys.path.insert(0, sys.argv[1])
from tracer import Tracer, install
from rankflow import cli
tracer = Tracer()
install(tracer, layers=True)
codes = [cli.main(argv) for argv in json.loads(sys.argv[2])]
calls = {name: 0 for name in tracer._records}
for span in tracer.summary()["spans"]:
    calls[span["name"]] += span["calls"]
print(json.dumps({"codes": codes, "calls": calls, "counts": tracer.counts}))
"""


def test_layer_tracer_sees_every_layer_and_changes_no_byte(tmp_path):
    argvs, untraced = [], {}
    for name, argv in STUDIES.items():
        argv = argv + ["--threads", "1", "--seed", "5"]
        assert cli.main(argv + ["--out", str(tmp_path / f"{name}.csv")]) == 0
        untraced[name] = (tmp_path / f"{name}.csv").read_bytes()
        argvs.append(argv + ["--out", str(tmp_path / f"{name}-traced.csv")])
    env = dict(os.environ, PYTHONPATH=SRC)
    done = subprocess.run([sys.executable, "-c", TRACED, PERFBENCH, json.dumps(argvs)],
                          env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    report = json.loads(done.stdout)
    assert report["codes"] == [0, 0]
    for name in STUDIES:
        assert (tmp_path / f"{name}-traced.csv").read_bytes() == untraced[name]
    assert [span for span, calls in report["calls"].items() if calls == 0] == []
    assert [count for count, value in report["counts"].items() if value == 0] == []
