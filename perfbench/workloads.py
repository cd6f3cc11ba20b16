"""The benchmark's three workloads and the inputs each one is built from.

Every workload is a closed loop: one single-threaded process plays each
seed's stream round by round, and the next round starts only when the
previous one has returned. README.md in this directory says why each one
exists and which layers it stresses.
"""

from __future__ import annotations

from dataclasses import dataclass

# The benchmark seed maps to ExperimentConfig.synthetic_seed_base (or to the
# generator seed of the file workload) through this affine map. The harness
# draws the test stream from base - 1 and seed s's train stream from base + s,
# so the offset keeps every seed non-negative and the stride keeps the
# streams of neighbouring benchmark seeds disjoint.
SEED_OFFSET = 1_000_000
SEED_STRIDE = 1000

# Final test cost may exceed the Bayes-optimal cost by at most this much on
# the synthetic workloads (absolute, in cost units).
BAYES_TOLERANCE = 0.02

# A fixed five-leaf label tree: root 0, internal nodes 6 and 7, leaves 1..5
# (labels 1..5 in ascending node-id order). Tree diameter 4 edges.
HIERARCHY_LINES = ("0 0", "6 0", "7 0", "1 6", "2 6", "3 7", "4 7", "5 0")


@dataclass(frozen=True)
class Workload:
    name: str
    spec: str  # synthetic stream spec, parsed by coal.harness
    mode: str
    policy: str
    seeds: int
    from_file: bool = False  # True: written as text, played through coal.cli


WORKLOADS = {
    w.name: w
    for w in (
        Workload("online-coal", "massart:k=5,dim=8,tau=0.3,n=4096", "online", "coal", 2),
        # exact costs: with Bernoulli costs where the MW games stop early, and so
        # what a round costs, depends on the draw. Two streams of n=80 rather
        # than one of n=120: streams still differ in what a round costs, and
        # two average that out in about the same time (README.md, Workloads)
        Workload("exact-coal", "massart:k=3,dim=4,tau=0.3,n=80,noise=none", "exact", "coal", 2),
        Workload(
            "text-passive-wide",
            "massart:k=5,dim=100,tau=0.3,n=2048,noise=none",
            "online",
            "passive",
            1,
            from_file=True,
        ),
    )
}


def seed_base(seed):
    """ExperimentConfig.synthetic_seed_base for a benchmark seed."""
    return SEED_OFFSET + SEED_STRIDE * seed


def experiment_config(workload, seed, out_dir):
    """The ExperimentConfig a synthetic workload passes to run_experiment."""
    from coal.harness import ExperimentConfig, parse_synthetic_spec

    return ExperimentConfig(
        synthetic=parse_synthetic_spec(workload.spec),
        policy=workload.policy,
        mode=workload.mode,
        seeds=workload.seeds,
        out_dir=out_dir,
        synthetic_seed_base=seed_base(seed),
    )


def bayes_test_cost(workload, seed):
    """Mean over the test stream of the smallest true cost.

    Computed from coal.synthetic's known truth, never from the learner. The
    test stream is drawn as coal.harness draws it: test_fraction of n
    examples from seed base - 1, with exact costs.
    """
    from coal.synthetic import gen_stream

    cfg = experiment_config(workload, seed, "")
    spec = cfg.synthetic
    n_test = max(1, round(cfg.test_fraction * spec.n))
    test, truth = gen_stream(
        spec.k, spec.dim, spec.margin_law(), n_test, cfg.synthetic_seed_base - 1,
        cost_noise="none",
    )
    return sum(float(truth.true_costs(ex.features).min()) for ex in test) / len(test)


def write_file_inputs(workload, seed, directory):
    """Write the file workload's dataset and label tree; the program sees only these."""
    from coal.harness import parse_synthetic_spec, write_stream
    from coal.synthetic import gen_stream

    spec = parse_synthetic_spec(workload.spec)
    examples, _ = gen_stream(
        spec.k, spec.dim, spec.margin_law(), spec.n, seed_base(seed), cost_noise=spec.noise
    )
    write_stream(f"{directory}/train.txt", examples)
    with open(f"{directory}/tree.txt", "w", encoding="utf-8") as fh:
        fh.write("\n".join(HIERARCHY_LINES) + "\n")
    return len(examples)
