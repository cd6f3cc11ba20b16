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
for mode, n in (("exact", 12), ("online", 40)):
    harness.run_experiment(
        harness.ExperimentConfig(
            synthetic=harness.parse_synthetic_spec(f"massart:k=3,dim=3,n={n}"),
            mode=mode,
            seeds=1,
            out_dir="",
        )
    )
print(json.dumps(tracer.layer_metrics()))
"""


def test_traced_run_reaches_every_layer():
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT, str(ROOT / "perfbench"), str(ROOT / "src")],
        capture_output=True,
        text=True,
        env=env,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    metrics = json.loads(proc.stdout.splitlines()[-1])
    assert metrics["cost_range.games"] > 0
    assert metrics["cost_range.problems"] > 0
    assert metrics["oracle.ball_fallbacks"] > 0
    assert metrics["oracle.erm_weights.calls"] > 0
    assert metrics["oracle.append_point.calls"] > 0
    assert metrics["online.batch_cost_ranges.calls"] > 0
    assert metrics["online.online_update.calls"] > 0
    assert metrics["driver.process_example.calls"] > 0
