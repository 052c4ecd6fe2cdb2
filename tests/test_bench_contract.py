"""The benchmark's traced per-layer metrics stay readable.

``perfbench/run.py --trace 1`` reads each per-layer metric from the span of
a named gasbox function (or an extra quantity of its call) and drops the
metric, with a warning on stderr, when that function or quantity is gone.
A traced benchmark result then lacks a metric ``BENCHMARK.json`` declares.
This test traces one small ``gasbox run`` the way ``perfbench/worker.py``
does, in a fresh interpreter so the tracer's wrappers stay out of the other
tests, and feeds the summary to ``run.per_layer``.
"""

import json
import math
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent

# demo.cfg on 6^3 nodes, a record every 2 steps, snapshots and the a priori
# report on, so every traced layer of a run is reached
SCRIPT = r"""
import contextlib, io, json, pathlib, sys, time

root, work = pathlib.Path(sys.argv[1]), pathlib.Path(sys.argv[2])
sys.path[:0] = [str(root / "src"), str(root / "perfbench")]
import gasbox, gasbox.cli
import run as bench
from tracer import Tracer

text = (root / "demo.cfg").read_text(encoding="utf-8")
assert "snapshots = true" in text and "apriori_report = true" in text
for old, new in (("n = 16 16 16", "n = 6 6 6"), ("cadence = 10", "cadence = 2"),
                 ("directory = out", f"directory = {work / 'out'}")):
    assert old in text, old
    text = text.replace(old, new)
cfg = work / "run.cfg"
cfg.write_text(text, encoding="utf-8")

tracer = Tracer()
tracer.install()
tracer.phase = "solve"
out = io.StringIO()
start = time.perf_counter()
with contextlib.redirect_stdout(out):
    code = gasbox.cli.main(["run", str(cfg)])
result = {"stdout": out.getvalue(), "solve_s": time.perf_counter() - start,
          "trace": tracer.summary(loop_name="timestep.StepController.advance",
                                  rhs_name="rhs.assemble_rhs",
                                  step_name="timestep.StepController.attempt_step")}


class Runner:
    failures = []


metrics = bench.per_layer(Runner, [result], [result], bench.import_times(""))
print(json.dumps({"code": code, "failures": Runner.failures,
                  "metrics": {name: value for name, (value, _) in metrics.items()}}))
"""


def test_every_declared_per_layer_metric_is_traced(tmp_path):
    proc = subprocess.run([sys.executable, "-c", SCRIPT, str(ROOT), str(tmp_path)],
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert "perfbench warning" not in proc.stderr, proc.stderr  # e.g. "... dropped: ..."
    out = json.loads(proc.stdout.splitlines()[-1])
    assert out["code"] == 0
    assert out["failures"] == []

    declared = [m["name"] for m in
                json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["per_layer"]]
    missing = [name for name in declared if name not in out["metrics"]]
    assert missing == []
    for name in declared:
        assert math.isfinite(out["metrics"][name]), name
    assert out["metrics"]["diagnostics.records"] > 0
    assert out["metrics"]["driver.history_mb"] > 0
