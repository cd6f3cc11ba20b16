"""The traced benchmark run finds every name it wraps where it looks for it.

perfbench/tracing.py replaces coal's functions on the module or class its
callers look them up on. A refactor that moves one of those names breaks the
traced run (or silently empties a per-layer metric). The check runs in a
subprocess so that no wrapped attribute leaks into other tests.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

SCRIPT = """
import json
import sys

sys.path[:0] = [sys.argv[1], sys.argv[2]]
from tracing import Tracer

from coal import cli, cost_range, driver, harness, oracle

tracer = Tracer()
tracer.install((cli, harness, driver, cost_range, oracle), False)
harness.run_experiment(
    harness.ExperimentConfig(
        synthetic=harness.parse_synthetic_spec(f"massart:k=3,dim=3,n={sys.argv[4]}"),
        mode=sys.argv[3],
        seeds=1,
        out_dir="",
    )
)
print(json.dumps(tracer.layer_metrics()))
"""


def traced_metrics(mode, n):
    """Per-layer metrics of one traced run, under a tracer of its own."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    argv = [str(ROOT / "perfbench"), str(ROOT / "src"), mode, str(n)]
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT, *argv],
        capture_output=True,
        text=True,
        env=env,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_traced_run_reaches_every_layer():
    exact = traced_metrics("exact", 12)
    assert exact["cost_range.games"] > 0
    assert exact["cost_range.problems"] > 0
    assert exact["oracle.ball_fallbacks"] > 0
    assert exact["oracle.erm_weights.calls"] > 0
    assert exact["oracle.append_point.calls"] > 0
    assert exact["driver.process_example.calls"] > 0
    online = traced_metrics("online", 40)
    assert online["online.batch_cost_ranges.calls"] > 0
    assert online["online.online_update.calls"] > 0
    # online mode reads no ledger, so it writes no exact history either
    assert online["oracle.append_point.calls"] == 0
