"""One measured run of one workload, in a process of its own.

run.py starts this script once per repetition, so that start-up, imports and
peak RSS belong to this workload alone. It drives coal only through its
public entry points: coal.harness.run_experiment for the synthetic
workloads, coal.cli.main for the file workload. Untraced, it stamps the
first round, each return of observe_costs and the return of run_experiment,
and between rounds it times a fixed speed probe (SpeedProbe) so that run.py
can tell the host's speed at each round. Traced (--trace), it wraps every
layer (tracing.py).

The last line of standard output is one JSON object with the measurements.
"""

import time

STARTED = time.monotonic()

import argparse  # noqa: E402
import bisect  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402

PROBE_INTERVAL_S = 0.05  # least time between two probes


class SetupDone(Exception):
    """Raised at the first round when only set-up time is wanted."""


class SpeedProbe:
    """A fixed bit of Python and 8x8 numpy work that shares no code with coal.

    The host's speed changes from second to second and from minute to
    minute. The probe's duration, taken next to the rounds, measures that
    speed, so that run.py can state round times at one reference speed. The
    work is the kind a coal round does: interpreted Python around small
    matrix products. The garbage collector is off while it runs, so the
    program's own allocations do not land in it.
    """

    def __init__(self):
        import numpy as np

        self.np = np
        self.matrix = np.linspace(-1.0, 1.0, 64).reshape(8, 8)
        self.vector = np.linspace(0.0, 1.0, 8)

    def __call__(self):
        np, matrix, vector = self.np, self.matrix, self.vector
        collecting = gc.isenabled()
        gc.disable()
        began = time.perf_counter()
        acc = 0.0
        for i in range(60):
            y = matrix @ vector
            acc += float(y.max()) + float(np.dot(y, vector))
            acc += {"i": i, "acc": acc}["i"] * 0.5
        took = time.perf_counter() - began
        if collecting:
            gc.enable()
        return took


class RoundClock:
    """The untraced hooks: a few clock reads per round and the speed probes.

    Time spent in probes is taken out of every stamp, so gaps and the round
    window hold the program's time only.
    """

    def __init__(self, harness, caller, setup_only):
        self.first_round = None  # time.monotonic() at the first round
        self.end = None  # stamp when run_experiment returned
        self.start = None  # stamp at the first round
        self.returns = []  # stamp at each observe_costs return
        self.seed_starts = []  # index into returns where each seed began
        # (index of the last return stamped before it, or -1; duration) of each probe
        self.probes = []
        self.paused = 0.0  # perf_counter() seconds spent in probes so far
        self.last_probe = None

        process_example = harness.process_example
        observe_costs = harness.observe_costs
        run_seed = harness.run_seed
        run_experiment = caller.run_experiment
        returns, clock, probe = self.returns, time.perf_counter, SpeedProbe()

        def stamp():
            return clock() - self.paused

        def first_process_example(*args, **kwargs):
            self.first_round = time.monotonic()
            self.probes.append((-1, probe()))
            self.last_probe = self.start = clock()
            harness.process_example = process_example
            if setup_only:
                raise SetupDone
            return process_example(*args, **kwargs)

        def stamped_observe_costs(*args, **kwargs):
            result = observe_costs(*args, **kwargs)
            returns.append(stamp())
            now = clock()
            if now - self.last_probe >= PROBE_INTERVAL_S:
                self.probes.append((len(returns) - 1, probe()))
                self.last_probe = clock()
                self.paused += self.last_probe - now
            return result

        def marked_run_seed(*args, **kwargs):
            self.seed_starts.append(len(returns))
            return run_seed(*args, **kwargs)

        def timed_run_experiment(*args, **kwargs):
            result = run_experiment(*args, **kwargs)
            self.end = stamp()
            return result

        harness.process_example = first_process_example
        harness.observe_costs = stamped_observe_costs
        harness.run_seed = marked_run_seed
        caller.run_experiment = timed_run_experiment

    def seed_rounds(self):
        bounds = self.seed_starts + [len(self.returns)]
        return [b - a for a, b in zip(bounds, bounds[1:])]

    def gaps(self):
        """Gaps between consecutive observe_costs returns within each seed.

        Returns (gaps, probes): probes[i] is the mean duration of the last
        probe before gap i and the first probe after it.
        """
        bounds = self.seed_starts + [len(self.returns)]
        at = [position for position, _ in self.probes]
        gaps, probes = [], []
        for a, b in zip(bounds, bounds[1:]):
            for i in range(a, b - 1):  # the gap from return i to return i + 1
                gaps.append(self.returns[i + 1] - self.returns[i])
                before = self.probes[bisect.bisect_right(at, i) - 1][1]
                j = bisect.bisect_left(at, i + 1)
                after = self.probes[j][1] if j < len(at) else before
                probes.append((before + after) / 2)
        return gaps, probes


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--root", required=True, help="checkout holding src/coal")
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True, help="directory for the CSVs")
    p.add_argument("--inputs", help="directory holding the file workload's inputs")
    p.add_argument("--spawned", type=float, help="parent's time.monotonic() at spawn")
    p.add_argument("--trace", action="store_true")
    p.add_argument("--setup-only", action="store_true")
    args = p.parse_args()
    spawned = STARTED if args.spawned is None else args.spawned

    src = os.path.join(os.path.abspath(args.root), "src")
    sys.path.insert(0, src)
    from workloads import WORKLOADS, experiment_config

    import coal
    from coal import cli, cost_range, driver, harness, oracle

    if not os.path.abspath(coal.__file__).startswith(src + os.sep):
        raise SystemExit(f"imported coal from {coal.__file__}, not from {src}")

    workload = WORKLOADS[args.workload]
    caller = cli if workload.from_file else harness
    tracer = clock = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install((cli, harness, driver, cost_range, oracle), workload.from_file)
    else:
        clock = RoundClock(harness, caller, args.setup_only)

    result = {"cli_exit": None}
    try:
        if workload.from_file:
            argv = [
                "--data", os.path.join(args.inputs, "train.txt"),
                "--hierarchy", os.path.join(args.inputs, "tree.txt"),
                "--policy", workload.policy,
                "--mode", workload.mode,
                "--seeds", str(workload.seeds),
                "--out", args.out,
            ]  # fmt: skip
            result["cli_exit"] = cli.main(argv)
        else:
            harness.run_experiment(experiment_config(workload, args.seed, args.out))
    except SetupDone:
        pass
    if clock is not None:
        result["setup_s"] = clock.first_round - spawned
    if args.setup_only:
        print(json.dumps(result))
        return

    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer is not None:
        result["layers"] = tracer.layer_metrics()
        result["seed_rounds"] = tracer.counts.seed_rounds
    else:
        result["seed_rounds"] = clock.seed_rounds()
        result["window_s"] = clock.end - clock.start
        result["round_gaps_s"], result["round_probe_s"] = clock.gaps()
        result["probes"] = len(clock.probes)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
