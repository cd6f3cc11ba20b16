#!/usr/bin/env python3
"""The coal benchmark: end-to-end metrics, output checks and a traced run.

    python3 perfbench/run.py --workload online-coal --seed 0 --seconds 40 --trace 0

Run it from the root of a checkout. Each repetition of a workload runs in a
fresh process (child.py) with one BLAS/OpenMP thread. Repetitions run until
about --seconds have been measured; untraced runs then add set-up-only
processes until there are SETUP_SAMPLES set-up times. Every repetition's
curve and summary CSVs are checked seed by seed (check_seeds). The last
line of standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

with the end_to_end metrics of BENCHMARK.json (--trace 0) or its per_layer
metrics (--trace 1). Per-layer metrics and setup_s are medians over
repetitions. The round timings are scaled to a reference host speed
(PROBE_REF_S) and come from the typical run (typical_round_gaps).
--workload all runs every workload in turn. The exit code is 0 only if
every check passed.
"""

import argparse
import csv
import hashlib
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

sys.dont_write_bytecode = True  # leave nothing behind in the checkout

from workloads import BAYES_TOLERANCE, WORKLOADS  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
CHILD = os.path.join(os.path.dirname(os.path.abspath(__file__)), "child.py")
SCRATCH = os.path.join(ROOT, ".perfbench_tmp")
SETUP_SAMPLES = 7
MIN_REPETITIONS = 2
# The speed probe's duration (child.SpeedProbe) at the reference speed. Times
# are reported as if the host had run at that speed throughout: a time
# measured while the probe took p seconds is scaled by PROBE_REF_S / p. It is
# about the probe's usual duration on the 2-vCPU VM (Python 3.11, numpy 2.4)
# where the benchmark was written, so scaled times stay close to raw ones.
PROBE_REF_S = 400e-6
DEADLINE_S = 165.0  # a run must end within 180 s


def child_env():
    env = dict(os.environ)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


def run_child(workload, seed, out, inputs, trace, setup_only, timeout):
    cmd = [sys.executable, CHILD, "--root", ROOT, "--workload", workload.name,
           "--seed", str(seed), "--out", out, "--inputs", inputs]  # fmt: skip
    if trace:
        cmd.append("--trace")
    if setup_only:
        cmd.append("--setup-only")
    cmd += ["--spawned", repr(time.monotonic())]
    proc = subprocess.run(
        cmd, env=child_env(), capture_output=True, text=True, timeout=timeout
    )
    if proc.returncode != 0:
        raise RuntimeError(
            f"{workload.name} process exited {proc.returncode}:\n{proc.stderr[-2000:]}"
        )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def read_csv(out, prefix):
    (name,) = [f for f in os.listdir(out) if f.startswith(prefix) and f.endswith(".csv")]
    with open(os.path.join(out, name), "rb") as fh:
        data = fh.read()
    return hashlib.sha256(data).hexdigest(), list(csv.DictReader(io.StringIO(data.decode())))


def check_seeds(workload, out, result, bayes, k):
    """Per-seed output checks of one repetition.

    Returns (queries, auc_median, CSV sha256s, problems), where problems maps a
    failed seed to what failed, and the key None to failures of the whole
    repetition.
    """
    curve_sha, rows = read_csv(out, "curve_")
    summary_sha, summary = read_csv(out, "summary_")
    whole = []
    if workload.from_file and result["cli_exit"] != 0:
        whole.append(f"cli exited {result['cli_exit']}")
    if len(result["seed_rounds"]) != workload.seeds:
        whole.append(f"played {len(result['seed_rounds'])} seeds, not {workload.seeds}")
    problems = {None: whole} if whole else {}
    queries_total = 0
    for seed, rounds in enumerate(result["seed_rounds"]):
        mine = [r for r in rows if int(r["seed"]) == seed]
        if not mine:
            problems[seed] = ["no curve rows"]
            continue
        queries = [int(r["queries"]) for r in mine]
        costs = [float(r["test_cost"]) for r in mine]
        found = []
        if any(b <= a for a, b in zip(queries, queries[1:])):
            found.append("queries do not strictly increase")
        if any(not 0.0 <= c <= 1.0 for c in costs):
            found.append("test_cost outside [0, 1]")
        if queries[-1] > rounds * k:
            found.append(f"queries {queries[-1]} > rounds*K {rounds * k}")
        if workload.policy == "passive" and queries[-1] != rounds * k:
            found.append(f"passive queried {queries[-1]} != rounds*K {rounds * k}")
        if bayes is not None and not -1e-9 <= costs[-1] - bayes <= BAYES_TOLERANCE:
            found.append(f"final test cost {costs[-1]} vs Bayes-optimal {bayes}")
        if found:
            problems[seed] = found
        queries_total += queries[-1]
    return queries_total, float(summary[0]["auc_median"]), (curve_sha, summary_sha), problems


def environment():
    sha = None  # a checkout without .git has no sha to report
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            sha = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
                timeout=10,
            ).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    import numpy

    return {
        "git_sha": sha,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
    }


def _median(values):
    """Median; counts stay whole numbers."""
    if all(isinstance(v, int) for v in values):
        return statistics.median_low(values)
    return statistics.median(values)


def scaled_gaps(rep):
    """A repetition's round gaps at the reference speed.

    The host's speed changes from second to second and drifts from minute to
    minute; each gap is scaled by the speed probes around it.
    """
    return [g * PROBE_REF_S / p for g, p in zip(rep["round_gaps_s"], rep["round_probe_s"])]


def typical_round_gaps(runs):
    """Each round's median gap over the repetitions' gap lists.

    Every repetition plays the same streams, so gap i is the same work in
    each, and the medians make one typical run, round by round.
    """
    return [statistics.median(gap) for gap in zip(*runs)]


def run_workload(workload, seed, seconds, trace, work_dir, started):
    from coal.harness import parse_synthetic_spec
    from workloads import bayes_test_cost, write_file_inputs

    inputs = os.path.join(work_dir, "inputs")
    os.makedirs(inputs)
    k = parse_synthetic_spec(workload.spec).k
    bayes = None
    if workload.from_file:
        write_file_inputs(workload, seed, inputs)
    else:
        bayes = bayes_test_cost(workload, seed)

    def remaining():
        return DEADLINE_S - (time.monotonic() - started)

    reps, setups, durations = [], [], []
    t0 = time.monotonic()
    # measure whole repetitions until the next one would overrun --seconds
    while len(reps) < MIN_REPETITIONS or (
        time.monotonic() - t0 + statistics.mean(durations) <= seconds
        and remaining() > 2 * max(durations)
    ):
        out = os.path.join(work_dir, f"rep{len(reps)}")
        began = time.monotonic()
        result = run_child(workload, seed, out, inputs, trace, False, remaining())
        durations.append(time.monotonic() - began)
        result["out"] = out
        reps.append(result)
        if not trace:
            setups.append(result["setup_s"])
    while not trace and len(setups) < SETUP_SAMPLES:
        result = run_child(workload, seed, work_dir, inputs, False, True, remaining())
        setups.append(result["setup_s"])

    failed, attempted = 0, 0
    first = None
    notes = []
    for i, rep in enumerate(reps):
        queries, auc, shas, problems = check_seeds(workload, rep["out"], rep, bayes, k)
        if first is None:
            first = (queries, auc, shas)
        elif shas != first[2]:
            problems.setdefault(None, []).append("wrote different CSV bytes from repetition 0")
        if rep["seed_rounds"] != reps[0]["seed_rounds"]:
            problems.setdefault(None, []).append("played other rounds than repetition 0")
        attempted += workload.seeds
        failed += workload.seeds if None in problems else len(problems)
        notes += [f"repetition {i} seed {s}: {'; '.join(p)}" for s, p in problems.items()]

    if trace:
        metrics = {name: _median([r["layers"][name] for r in reps]) for name in reps[0]["layers"]}
    else:
        gaps = typical_round_gaps([scaled_gaps(r) for r in reps])
        unscaled = typical_round_gaps([r["round_gaps_s"] for r in reps])
        metrics = {
            "setup_s": statistics.median(setups),
            "rounds_per_s": len(gaps) / sum(gaps),
            "round_p50_us": statistics.median(gaps) * 1e6,
            "round_p90_us": statistics.quantiles(gaps, n=10)[-1] * 1e6,
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in reps),
            "queries": first[0],
        }
    info = {
        "workload": workload.name,
        "seed": seed,
        "trace": int(trace),
        "repetitions": len(reps),
        "setup_samples": len(setups),
        "round_samples": None if trace else len(gaps),
        "window_rounds_per_s_by_repetition": None if trace else [
            sum(r["seed_rounds"]) / r["window_s"] for r in reps
        ],
        "unscaled_rounds_per_s": None if trace else len(unscaled) / sum(unscaled),
        "probes_by_repetition": None if trace else [r["probes"] for r in reps],
        "setup_s_samples": setups,
        "bayes_test_cost": bayes,
        "curve_sha256": first[2][0],
        "summary_sha256": first[2][1],
        "queries": first[0],
        "auc": first[1],
        "failures": notes,
    }
    return metrics, info, attempted, failed


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=sorted(WORKLOADS) + ["all"], default="all")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=int, default=None, help="default: run_seconds")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()
    if args.seed < 0:
        p.error("--seed must be non-negative")
    if not os.path.isfile(os.path.join(ROOT, "src", "coal", "__init__.py")):
        print(f"no coal sources under {ROOT}/src; run from a checkout", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    seconds = bench["run_seconds"] if args.seconds is None else args.seconds
    declared = bench["per_layer" if args.trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}
    sys.path.insert(0, os.path.join(ROOT, "src"))
    env = environment()

    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    all_ok = True
    for name in names:
        work_dir = os.path.join(SCRATCH, f"{os.getpid()}-{name}")
        shutil.rmtree(work_dir, ignore_errors=True)
        try:
            metrics, info, attempted, failed = run_workload(
                WORKLOADS[name], args.seed, seconds, bool(args.trace), work_dir, time.monotonic()
            )
        except (RuntimeError, subprocess.TimeoutExpired) as exc:
            print(f"{name}: {exc}", file=sys.stderr)
            return 1
        finally:
            shutil.rmtree(work_dir, ignore_errors=True)
            try:
                os.rmdir(SCRATCH)
            except OSError:
                pass
        if set(metrics) != set(units):
            raise SystemExit(f"metrics {sorted(set(metrics) ^ set(units))} disagree with BENCHMARK.json")
        for metric, value in metrics.items():
            print(f"{name} {metric} {value!r} {units[metric]}")
        # recorded exactly per seed, with the CSV hashes, but given no bound
        print(f"{name} auc {info['auc']!r} 1")
        for note in info["failures"]:
            print(f"{name} FAILED {note}")
        print(json.dumps({"info": info, "environment": env}))
        correct = failed == 0
        all_ok &= correct
        print(json.dumps({
            "correct": correct,
            "attempted": attempted,
            "failed": failed,
            "metrics": {m: {"value": v, "unit": units[m]} for m, v in metrics.items()},
        }))  # fmt: skip
    return 0 if all_ok else 1


if __name__ == "__main__":
    sys.exit(main())
