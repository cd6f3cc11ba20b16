"""Experiment harness: streams, budget checkpoints, learning curves, AUC.

A run takes a labeled stream (file or synthetic), plays one pass per seed in
a seed-specific order, and records a learning-curve checkpoint whenever the
cumulative label-query count crosses a budget boundary

    budget(q) = 2^(q-1) * budget_base * K.

Checkpoints carry the query count and the mean test cost of the learner's
predictions at that moment; a final partial checkpoint is taken at stream
end. Curve quality is summarized by the area under the (performance, log2
queries) curve with performance = negative test cost. Outputs are headered
CSV files written deterministically: identical configs produce identical
bytes.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, replace

import numpy as np

from .cost_range import DEFAULT_KAPPA, DEFAULT_NORM_BOUND, RadiusSchedule
from .data import (
    DataError,
    parse_example,
    parse_hierarchy,
    serialize_example,
    sparse_vector,
    tree_distance_costs,
    LabeledExample,
)
from .driver import (
    MODES,
    POLICIES,
    LearnerState,
    observe_costs,
    predict_label,
    process_example,
)
from .synthetic import COST_NOISES, gen_stream, massart, tsybakov


class ConfigError(ValueError):
    """Invalid experiment configuration."""


@dataclass(frozen=True)
class SyntheticSpec:
    """Parameters of a generated stream; kind picks the margin law."""

    kind: str
    k: int
    dim: int
    n: int
    tau: float = 0.3
    tau0: float = 0.5
    alpha: float = 2.0
    beta: float = 4.0
    noise: str = "bernoulli"

    def __post_init__(self):
        if self.kind not in ("massart", "tsybakov"):
            raise ConfigError(f"unknown synthetic kind {self.kind!r}")
        if self.k < 2 or self.dim < self.k or self.n < 1:
            raise ConfigError("synthetic stream needs k >= 2, dim >= k, n >= 1")
        if self.noise not in COST_NOISES:
            raise ConfigError(f"unknown cost noise {self.noise!r}")
        try:
            self.margin_law()
        except ValueError as exc:
            raise ConfigError(str(exc)) from None

    def margin_law(self):
        if self.kind == "massart":
            return massart(self.tau)
        return tsybakov(self.tau0, self.alpha, self.beta)


def parse_synthetic_spec(text):
    """Parse 'kind:key=value,...' synthetic stream descriptions.

    Example: 'massart:k=5,dim=8,tau=0.3,n=4096,noise=bernoulli'.
    """
    kind, sep, rest = text.partition(":")
    if not sep:
        raise ConfigError("synthetic spec must look like 'kind:key=value,...'")
    fields_int = {"k", "dim", "n"}
    fields_float = {"tau", "tau0", "alpha", "beta"}
    kwargs = {}
    for item in filter(None, rest.split(",")):
        key, eq, value = item.partition("=")
        key = key.strip()
        if not eq:
            raise ConfigError(f"malformed synthetic option {item!r}")
        try:
            if key in fields_int:
                kwargs[key] = int(value)
            elif key in fields_float:
                kwargs[key] = float(value)
            elif key == "noise":
                kwargs[key] = value.strip()
            else:
                raise ConfigError(f"unknown synthetic option {key!r}")
        except ValueError:
            raise ConfigError(f"bad value for synthetic option {key!r}: {value!r}") from None
    missing = {"k", "dim", "n"} - kwargs.keys()
    if missing:
        raise ConfigError(f"synthetic spec missing {sorted(missing)}")
    try:
        return SyntheticSpec(kind=kind.strip(), **kwargs)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything one experiment run depends on; exactly one data source."""

    dataset: str | None = None
    synthetic: SyntheticSpec | None = None
    hierarchy: str | None = None
    policy: str = "coal"
    mode: str = "online"
    mellowness: float = 0.01
    learning_rate: float = 0.5
    norm_bound: float = DEFAULT_NORM_BOUND
    delta: float = 0.01
    seeds: int = 20
    out_dir: str = "results"
    budget_base: int = 10
    radius_mode: str = "mellow"
    kappa: float = DEFAULT_KAPPA
    test_fraction: float = 0.2
    synthetic_seed_base: int = 1_000_000
    seed_passive: int = 0

    def __post_init__(self):
        if (self.dataset is None) == (self.synthetic is None):
            raise ConfigError("exactly one of dataset/synthetic must be set")
        if self.policy not in POLICIES:
            raise ConfigError(f"unknown policy {self.policy!r}")
        if self.mode not in MODES:
            raise ConfigError(f"unknown mode {self.mode!r}")
        if self.radius_mode not in ("mellow", "theory"):
            raise ConfigError(f"unknown radius mode {self.radius_mode!r}")
        # written as range tests, so that NaN fails them
        if not (self.mellowness > 0 and self.learning_rate > 0 and self.norm_bound > 0):
            raise ConfigError("mellowness, learning rate, norm bound must be positive")
        if not self.kappa > 0:
            raise ConfigError("kappa must be positive")
        if self.radius_mode == "theory" and self.kappa < 2.0:
            raise ConfigError("theory radius needs kappa >= 2")
        if not 0.0 < self.delta <= 1.0 / math.e:
            raise ConfigError("delta must lie in (0, 1/e]")
        if self.seeds < 1 or self.budget_base < 1:
            raise ConfigError("seeds and budget base must be at least 1")
        if self.seed_passive < 0:
            raise ConfigError("seed_passive must be nonnegative")
        if not 0.0 < self.test_fraction <= 0.5:
            raise ConfigError("test fraction must lie in (0, 0.5]")
        if self.hierarchy is not None and self.dataset is None:
            raise ConfigError("a hierarchy only applies to a dataset")


@dataclass(frozen=True)
class CurvePoint:
    """One learning-curve checkpoint of one seed's run."""

    checkpoint_q: int
    queries: int
    examples_touched: int
    test_cost: float


def budget_schedule(q, k, base=10):
    """Query budget at checkpoint q: doubles per step from base * k."""
    if q < 1:
        raise ValueError("checkpoints are 1-based")
    return 2 ** (q - 1) * base * k


def auc(curve):
    """Area under a (performance, queries) curve over log2 query counts.

    Trapezoid rule on the log2-query axis. Needs at least two points with
    strictly increasing positive query counts.
    """
    pts = [(float(p), float(q)) for p, q in curve]
    if len(pts) < 2:
        raise ValueError("need at least two curve points")
    queries = [q for _, q in pts]
    if any(q <= 0 for q in queries) or any(
        b <= a for a, b in zip(queries, queries[1:])
    ):
        raise ValueError("query counts must be positive and strictly increasing")
    area = 0.0
    for (p1, q1), (p2, q2) in zip(pts, pts[1:]):
        area += 0.5 * (p1 + p2) * math.log2(q2 / q1)
    return area


def ensure_bias(example):
    """Inject the constant bias feature (index 0, value 1) when absent."""
    feats = example.features
    if feats.nnz and int(feats.indices[0]) == 0:
        return example
    return LabeledExample(sparse_vector([(0, 1.0)] + feats.pairs()), example.costs)


def _data_lines(lines):
    """(1-based line number, stripped text) of each line that holds an example."""
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if line and not line.startswith("#"):
            yield lineno, line


def _scan_max_label(lines):
    top = 0
    for _, line in _data_lines(lines):
        left = line.split("|", 1)[0]
        for tok in left.split():
            head = tok.partition(":")[0]
            try:
                top = max(top, int(head))
            except ValueError:
                continue
    if top < 1:
        raise DataError("no labels found in dataset")
    return top


def _read_lines(path):
    """Lines of a UTF-8 text file; any other encoding is a DataError."""
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.readlines()
    except UnicodeDecodeError as exc:
        raise DataError(f"{path} is not UTF-8 text: {exc}") from None


def load_dataset(path, k=None):
    """Parse a text dataset; k defaults to the largest label mentioned."""
    lines = _read_lines(path)
    if k is None:
        k = _scan_max_label(lines)
    examples = [parse_example(line, k, lineno) for lineno, line in _data_lines(lines)]
    if not examples:
        raise DataError(f"dataset {path} has no examples")
    return examples, k


def _require_full_costs(path, examples):
    """Reject a dataset with a line that leaves some label's cost unobserved.

    Without a hierarchy to rebuild costs, the learner may query any label on
    any training example and the test cost reads every label of a test one.
    """
    for j, ex in enumerate(examples):
        if not ex.costs.observed.all():
            missing = np.flatnonzero(~ex.costs.observed) + 1
            lineno = [n for n, _ in _data_lines(_read_lines(path))][j]
            raise DataError(
                f"{path} line {lineno}: no cost for label(s) "
                f"{', '.join(map(str, missing))}; without a hierarchy every line "
                f"needs a cost for each of the {ex.costs.k} labels"
            )


def load_hierarchy(path):
    return parse_hierarchy(_read_lines(path))


def fill_hierarchy_costs(examples, hierarchy):
    """Replace observed costs with tree distances from the true label.

    The true label of an example is its smallest observed minimum-cost label.
    Distances are divided by the tree's diameter, so the largest costs 1.
    """
    leaves = hierarchy.leaf_labels
    diameter = max(hierarchy.path_edges(a, b) for a in leaves for b in leaves)
    scale = 1.0 / diameter if diameter else 1.0
    filled = []
    for ex in examples:
        observed = ex.costs.observed_labels()
        best = min(observed, key=lambda y: (ex.costs.cost_of(y), y))
        filled.append(
            LabeledExample(ex.features, tree_distance_costs(hierarchy, best, scale))
        )
    return filled


def write_stream(path, examples):
    """Emit examples in the text format (one per line)."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for ex in examples:
            fh.write(serialize_example(ex) + "\n")


def evaluate_test_cost(state, test_examples):
    """Mean observed cost of the learner's predicted labels on a test set."""
    total = 0.0
    for ex in test_examples:
        total += ex.costs.cost_of(predict_label(state, ex.features))
    return total / len(test_examples)


@dataclass(frozen=True)
class ResultTable:
    """All rows and summaries of one run, plus where they were written."""

    rows: tuple  # (seed, CurvePoint) in emission order
    aucs: tuple  # (seed, auc or nan)
    summary: dict
    curve_path: str | None
    summary_path: str | None


def _load_streams(cfg):
    """Resolve (per-seed train streams, test stream, k, ambient dim)."""
    if cfg.dataset is not None:
        hierarchy = load_hierarchy(cfg.hierarchy) if cfg.hierarchy else None
        examples, k = load_dataset(cfg.dataset, hierarchy.k if hierarchy else None)
        if k < 2:
            source = cfg.hierarchy or cfg.dataset
            raise DataError(f"{source} has {k} label; the learner needs at least two")
        if hierarchy:
            examples = fill_hierarchy_costs(examples, hierarchy)
        else:
            _require_full_costs(cfg.dataset, examples)
        examples = [ensure_bias(ex) for ex in examples]
        n_test = max(1, round(cfg.test_fraction * len(examples)))
        if n_test >= len(examples):
            raise DataError("dataset too small for the test split")
        train, test = examples[:-n_test], examples[-n_test:]
        dim = 1 + max(ex.features.max_index for ex in examples)
        trains = {s: train for s in range(cfg.seeds)}
        return trains, test, k, dim

    spec = cfg.synthetic
    law = spec.margin_law()
    n_test = max(1, round(cfg.test_fraction * spec.n))
    test, _ = gen_stream(
        spec.k, spec.dim, law, n_test, cfg.synthetic_seed_base - 1, cost_noise="none"
    )
    trains = {}
    for s in range(cfg.seeds):
        trains[s], _ = gen_stream(
            spec.k, spec.dim, law, spec.n, cfg.synthetic_seed_base + s, cost_noise=spec.noise
        )
    return trains, test, spec.k, spec.dim + 1


def run_seed(cfg, seed, train, test, k, dim):
    """One seed's pass over the stream; returns its curve points."""
    rng = np.random.default_rng(seed)
    order = rng.permutation(len(train))
    schedule = RadiusSchedule(
        n=len(train),
        d=dim,
        k=k,
        delta_prob=cfg.delta,
        kappa=cfg.kappa,
        mode=cfg.radius_mode,
        mellowness=cfg.mellowness,
    )
    state = LearnerState(
        k,
        dim,
        schedule,
        policy=cfg.policy,
        mode=cfg.mode,
        base_rate=cfg.learning_rate,
        norm_bound=cfg.norm_bound,
    )
    points = []
    next_q = 1
    for pos, train_index in enumerate(order, start=1):
        ex = train[int(train_index)]
        decision = process_example(state, ex.features)
        if pos <= cfg.seed_passive:
            # forced warm-up rounds: query everything regardless of policy
            decision = replace(decision, to_query=tuple(range(1, k + 1)))
        observe_costs(state, ex.features, decision, ex.costs)
        while state.log.l2 >= budget_schedule(next_q, k, cfg.budget_base):
            points.append(
                CurvePoint(next_q, state.log.l2, pos, evaluate_test_cost(state, test))
            )
            next_q += 1
    if not points or state.log.l2 > points[-1].queries:
        points.append(
            CurvePoint(next_q, state.log.l2, len(order), evaluate_test_cost(state, test))
        )
    return points, state


def _curve_auc(points):
    pairs = []
    last = 0
    for p in points:
        if p.queries > last:
            pairs.append((-p.test_cost, p.queries))
            last = p.queries
    if len(pairs) < 2:
        return float("nan")
    return auc(pairs)


def _fmt(x):
    return repr(float(x))


def run_experiment(cfg):
    """Run every seed, write the curve and summary CSVs, return the table."""
    trains, test, k, dim = _load_streams(cfg)
    rows = []
    aucs = []
    for seed in range(cfg.seeds):
        points, _ = run_seed(cfg, seed, trains[seed], test, k, dim)
        rows.extend((seed, p) for p in points)
        aucs.append((seed, _curve_auc(points)))

    valid = [a for _, a in aucs if not math.isnan(a)]
    summary = {
        "policy": cfg.policy,
        "mellowness": cfg.mellowness,
        "seeds": cfg.seeds,
        "auc_median": float(np.median(valid)) if valid else float("nan"),
        "auc_q15": float(np.quantile(valid, 0.15)) if valid else float("nan"),
        "auc_q85": float(np.quantile(valid, 0.85)) if valid else float("nan"),
    }

    curve_path = summary_path = None
    if cfg.out_dir:
        os.makedirs(cfg.out_dir, exist_ok=True)
        tag = f"{cfg.policy}_mel{_fmt(cfg.mellowness)}"
        curve_path = os.path.join(cfg.out_dir, f"curve_{tag}.csv")
        with open(curve_path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write("seed,checkpoint_q,queries,examples_touched,test_cost\n")
            for seed, p in rows:
                fh.write(
                    f"{seed},{p.checkpoint_q},{p.queries},{p.examples_touched},"
                    f"{_fmt(p.test_cost)}\n"
                )
        summary_path = os.path.join(cfg.out_dir, f"summary_{tag}.csv")
        with open(summary_path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write("policy,mellowness,seeds,auc_median,auc_q15,auc_q85\n")
            fh.write(
                f"{cfg.policy},{_fmt(cfg.mellowness)},{cfg.seeds},"
                f"{_fmt(summary['auc_median'])},{_fmt(summary['auc_q15'])},"
                f"{_fmt(summary['auc_q85'])}\n"
            )

    return ResultTable(
        rows=tuple(rows),
        aucs=tuple(aucs),
        summary=summary,
        curve_path=curve_path,
        summary_path=summary_path,
    )
