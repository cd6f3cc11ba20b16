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
from dataclasses import MISSING, dataclass, fields

import numpy as np

from .cost_range import DEFAULT_KAPPA, DEFAULT_NORM_BOUND, RadiusSchedule
from .data import (
    DataError,
    content_lines,
    float_repr,
    parse_example,
    parse_hierarchy,
    prechecked,
    serialize_example,
    tree_distance_costs,
    LabeledExample,
    SparseVector,
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
    options = {f.name: f for f in fields(SyntheticSpec) if f.name != "kind"}
    kwargs = {}
    for item in filter(None, rest.split(",")):
        key, eq, value = item.partition("=")
        key = key.strip()
        if not eq:
            raise ConfigError(f"malformed synthetic option {item!r}")
        if key not in options:
            raise ConfigError(f"unknown synthetic option {key!r}")
        if key in kwargs:
            raise ConfigError(f"synthetic option {key!r} given twice")
        # field types are strings under the __future__ import
        convert = {"int": int, "float": float, "str": str.strip}[options[key].type]
        try:
            kwargs[key] = convert(value)
        except ValueError:
            raise ConfigError(f"bad value for synthetic option {key!r}: {value!r}") from None
    missing = {name for name, f in options.items() if f.default is MISSING} - kwargs.keys()
    if missing:
        raise ConfigError(f"synthetic spec missing {sorted(missing)}")
    return SyntheticSpec(kind=kind.strip(), **kwargs)  # raises ConfigError itself


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
        try:
            self.schedule(1, 1, 1)
        except ValueError as exc:
            raise ConfigError(str(exc)) from None
        # written as range tests, so that NaN fails them; exact mode doubles the bound's square
        if not (0.0 < self.learning_rate < math.inf and 0.0 < self.norm_bound < math.inf):
            raise ConfigError("learning rate and norm bound must be positive and finite")
        if not math.isfinite(2.0 * self.norm_bound * self.norm_bound):
            raise ConfigError(f"norm bound {self.norm_bound:g}: its doubled square overflows")
        if self.seeds < 1 or self.budget_base < 1:
            raise ConfigError("seeds and budget base must be at least 1")
        if self.seed_passive < 0:
            raise ConfigError("seed_passive must be nonnegative")
        if self.synthetic is not None and self.synthetic_seed_base < 1:  # test stream: base - 1
            raise ConfigError("synthetic seed base must be at least 1")
        if not 0.0 < self.test_fraction <= 0.5:
            raise ConfigError("test fraction must lie in (0, 0.5]")
        if self.hierarchy is not None and self.dataset is None:
            raise ConfigError("a hierarchy only applies to a dataset")

    def schedule(self, n, d, k):
        """The radius schedule of a stream of n examples, d features and k labels."""
        return RadiusSchedule(
            n=n,
            d=d,
            k=k,
            delta_prob=self.delta,
            kappa=self.kappa,
            mode=self.radius_mode,
            mellowness=self.mellowness,
        )


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
    # index 0 before checked indices keeps them increasing: nothing to check again
    biased = prechecked(SparseVector, np.r_[0, feats.indices], np.r_[1.0, feats.values])
    return LabeledExample(biased, example.costs)


def _scan_max_label(lines):
    top = 0
    for _, line in content_lines(lines):
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
    """Lines of a UTF-8 text file, with or without a BOM; any other encoding is a DataError."""
    try:
        with open(path, encoding="utf-8-sig") as fh:
            return fh.readlines()
    except UnicodeDecodeError as exc:
        raise DataError(f"{path} is not UTF-8 text: {exc}") from None


def load_dataset(path, k=None):
    """Parse a text dataset; k defaults to the largest label mentioned."""
    lines = _read_lines(path)
    if k is None:
        k = _scan_max_label(lines)
    examples = [parse_example(line, k, lineno) for lineno, line in content_lines(lines)]
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
            lineno = [n for n, _ in content_lines(_read_lines(path))][j]
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
    by_label = [tree_distance_costs(hierarchy, y, scale) for y in range(1, hierarchy.k + 1)]
    best = (np.argmin(np.where(ex.costs.observed, ex.costs.costs, np.inf)) for ex in examples)
    return [LabeledExample(ex.features, by_label[y]) for ex, y in zip(examples, best)]


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
        _require_finite_norm_sum(cfg, examples)
        n_test = max(1, round(cfg.test_fraction * len(examples)))
        if n_test >= len(examples):
            raise DataError("dataset too small for the test split")
        train, test = examples[:-n_test], examples[-n_test:]
        dim = 1 + max(ex.features.max_index for ex in examples)
        trains = {s: train for s in range(cfg.seeds)}
        return trains, test, k, dim

    spec = cfg.synthetic
    n_test = max(1, round(cfg.test_fraction * spec.n))
    test, _ = gen_stream(
        spec.k, spec.dim, spec.margin_law(), n_test, cfg.synthetic_seed_base - 1, cost_noise="none"
    )
    trains = {s: train_stream(cfg, s) for s in range(cfg.seeds)}
    return trains, test, spec.k, spec.dim + 1


def _require_finite_norm_sum(cfg, examples):
    """Reject a dataset whose squared feature norms sum past the float range.

    Exact mode sums them in its Gram rows, doubles those when it symmetrises
    them, and evaluates risks of weights up to norm_bound (online mode's step
    sizes sum them unscaled), so the sum must stay finite once scaled by
    2 max(1, norm_bound)^2. math.hypot never overflows on its way to a finite
    result.
    """
    norms = [math.hypot(*ex.features.values.tolist()) for ex in examples]
    reach = math.hypot(*norms) * max(1.0, cfg.norm_bound)
    if not math.isfinite(2.0 * reach * reach):
        raise DataError(
            f"{cfg.dataset}: the squared feature norms, summed over the examples, "
            "overflow once doubled and scaled by max(1, norm bound)^2"
        )


def train_stream(cfg, seed):
    """The generated train stream that seed plays, from cfg's synthetic spec."""
    spec = cfg.synthetic
    stream, _ = gen_stream(
        spec.k,
        spec.dim,
        spec.margin_law(),
        spec.n,
        cfg.synthetic_seed_base + seed,
        cost_noise=spec.noise,
    )
    return stream


def run_seed(cfg, seed, train, test, k, dim):
    """One seed's pass over the stream; returns its curve points."""
    rng = np.random.default_rng(seed)
    order = rng.permutation(len(train))
    state = LearnerState(
        k,
        dim,
        cfg.schedule(len(train), dim, k),
        policy=cfg.policy,
        mode=cfg.mode,
        base_rate=cfg.learning_rate,
        norm_bound=cfg.norm_bound,
    )
    points = []
    next_q = 1
    for pos, train_index in enumerate(order, start=1):
        ex = train[int(train_index)]
        # forced warm-up rounds play as passive ones: they query every label
        state.policy = "passive" if pos <= cfg.seed_passive else cfg.policy
        decision = process_example(state, ex.features)
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


def run_experiment(cfg):
    """Run every seed, write the curve and summary CSVs, return the table."""
    trains, test, k, dim = _load_streams(cfg)
    rows = []
    aucs = []
    for seed in range(cfg.seeds):
        # keep no state: the next seed would run beside this one's caches
        points = run_seed(cfg, seed, trains[seed], test, k, dim)[0]
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
        tag = f"{cfg.policy}_mel{float_repr(cfg.mellowness)}"
        curve_path = os.path.join(cfg.out_dir, f"curve_{tag}.csv")
        with open(curve_path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write("seed,checkpoint_q,queries,examples_touched,test_cost\n")
            for seed, p in rows:
                fh.write(
                    f"{seed},{p.checkpoint_q},{p.queries},{p.examples_touched},"
                    f"{float_repr(p.test_cost)}\n"
                )
        summary_path = os.path.join(cfg.out_dir, f"summary_{tag}.csv")
        with open(summary_path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write("policy,mellowness,seeds,auc_median,auc_q15,auc_q85\n")
            fh.write(
                f"{cfg.policy},{float_repr(cfg.mellowness)},{cfg.seeds},"
                f"{float_repr(summary['auc_median'])},{float_repr(summary['auc_q15'])},"
                f"{float_repr(summary['auc_q85'])}\n"
            )

    return ResultTable(
        rows=tuple(rows),
        aucs=tuple(aucs),
        summary=summary,
        curve_path=curve_path,
        summary_path=summary_path,
    )
