import math
import os
import re
import subprocess
import sys
import tracemalloc
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from coal import driver
from coal.cli import build_parser, main
from coal.data import DataError, full_costs, parse_hierarchy, partial_costs, sparse_vector
from coal.driver import LearnerState
from coal.harness import (
    ConfigError,
    CurvePoint,
    ExperimentConfig,
    ResultTable,
    SyntheticSpec,
    _curve_auc,
    _load_streams,
    auc,
    budget_schedule,
    ensure_bias,
    evaluate_test_cost,
    fill_hierarchy_costs,
    load_dataset,
    parse_synthetic_spec,
    run_experiment,
    run_seed,
    write_stream,
)
from coal.data import LabeledExample
from coal.synthetic import gen_stream, massart


def small_spec(n=60, k=3, dim=3, noise="bernoulli"):
    return SyntheticSpec(kind="massart", k=k, dim=dim, n=n, tau=0.3, noise=noise)


def small_config(tmp_path, **kwargs):
    defaults = dict(
        synthetic=small_spec(),
        seeds=2,
        out_dir=str(tmp_path / "results"),
        budget_base=2,
    )
    defaults.update(kwargs)
    return ExperimentConfig(**defaults)


def test_budget_schedule_anchors():
    assert budget_schedule(1, 20) == 200
    assert budget_schedule(2, 20) == 400
    assert budget_schedule(5, 9, base=10) == 1440
    with pytest.raises(ValueError):
        budget_schedule(0, 20)


def test_auc_anchors():
    # one doubling: the area is the midpoint performance; (0.8 + 0.9) / 2
    # rounds one ulp above the 0.85 literal, so pin the computed float
    assert auc([(0.8, 64), (0.9, 128)]) == (0.8 + 0.9) / 2
    assert auc([(0.8, 64), (0.9, 128)]) == pytest.approx(0.85, abs=1e-15)
    assert auc([(1.0, 10), (1.0, 40)]) == 2.0
    assert auc([(0.5, 8), (0.7, 16), (0.7, 32)]) == pytest.approx(0.6 + 0.7)


def test_auc_validation():
    with pytest.raises(ValueError):
        auc([(0.8, 64)])
    with pytest.raises(ValueError):
        auc([(0.8, 64), (0.9, 64)])
    with pytest.raises(ValueError):
        auc([(0.8, 0), (0.9, 64)])


def test_curve_auc_filters_stalled_checkpoints():
    points = [
        CurvePoint(1, 40, 10, 0.3),
        CurvePoint(2, 80, 20, 0.2),
        CurvePoint(3, 80, 30, 0.1),
    ]
    assert _curve_auc(points) == pytest.approx(auc([(-0.3, 40), (-0.2, 80)]))
    assert math.isnan(_curve_auc(points[:1]))


def test_parse_synthetic_spec_full():
    spec = parse_synthetic_spec("massart:k=5,dim=8,tau=0.3,n=4096,noise=none")
    assert spec == SyntheticSpec(kind="massart", k=5, dim=8, n=4096, tau=0.3, noise="none")


def test_parse_synthetic_spec_defaults():
    spec = parse_synthetic_spec("tsybakov:k=2,dim=4,n=100")
    assert (spec.tau0, spec.alpha, spec.beta) == (0.5, 2.0, 4.0)
    assert spec.noise == "bernoulli"


@pytest.mark.parametrize(
    "text",
    [
        "massart",  # no colon
        "massart:k=5,dim=8",  # missing n
        "massart:k=5,dim=8,n=10,speed=3",  # unknown key
        "massart:k=five,dim=8,n=10",  # bad int
        "massart:k=5,dim=8,n=10,tau",  # no '='
        "uniform:k=5,dim=8,n=10",  # unknown kind
        "massart:k=5,dim=2,n=10",  # dim < k
    ],
)
def test_parse_synthetic_spec_rejects(text):
    with pytest.raises(ConfigError):
        parse_synthetic_spec(text)


@pytest.mark.parametrize(
    "text, message",
    [
        ("massart:k=2,dim=2,n=3,foo=1", "unknown synthetic option 'foo'"),
        ("massart:k=2,dim=3,n=3,k=3", "synthetic option 'k' given twice"),
        ("massart:k=2,dim=2,n=3,noise=none,noise=bernoulli", "option 'noise' given twice"),
        ("massart:k=2,dim=2,n=3,tau=high", "bad value for synthetic option 'tau'"),
    ],
)
def test_parse_synthetic_spec_names_the_fault(text, message):
    with pytest.raises(ConfigError, match=message):
        parse_synthetic_spec(text)


def test_config_needs_exactly_one_source(tmp_path):
    with pytest.raises(ConfigError):
        ExperimentConfig()
    with pytest.raises(ConfigError):
        ExperimentConfig(dataset="x.txt", synthetic=small_spec())


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(policy="random"),
        dict(mode="batch"),
        dict(mellowness=0.0),
        dict(learning_rate=-1.0),
        dict(delta=0.5),  # above 1/e
        dict(seeds=0),
        dict(budget_base=0),
        dict(test_fraction=0.6),
        dict(radius_mode="loose"),
        dict(seed_passive=-1),
        dict(hierarchy="tree.txt"),  # hierarchy without a dataset
        dict(norm_bound=1e160),  # finite, but its square is not
        dict(synthetic_seed_base=0),  # the test stream would be drawn from seed -1
    ],
)
def test_config_validation(kwargs):
    with pytest.raises(ConfigError):
        ExperimentConfig(synthetic=small_spec(), **kwargs)


def test_ensure_bias():
    bare = LabeledExample(sparse_vector([(1, 2.0)]), full_costs([0.1, 0.9]))
    fixed = ensure_bias(bare)
    assert fixed.features.pairs() == [(0, 1.0), (1, 2.0)]
    assert ensure_bias(fixed) is fixed


def test_load_dataset_infers_k(tmp_path):
    path = tmp_path / "data.txt"
    path.write_text(
        "# comment line\n"
        "1:0.0 3:1.0 | 0:1.0 2:0.5\n"
        "\n"
        "2:0.25 | 1:0.125\n",
        encoding="utf-8",
    )
    examples, k = load_dataset(str(path))
    assert k == 3
    assert len(examples) == 2
    assert examples[0].costs.cost_of(3) == 1.0
    assert not examples[1].costs.is_observed(1)


def test_load_dataset_rejects_empty(tmp_path):
    path = tmp_path / "empty.txt"
    path.write_text("# nothing here\n", encoding="utf-8")
    with pytest.raises(DataError):
        load_dataset(str(path))


def test_write_stream_round_trip(tmp_path):
    stream, _ = gen_stream(3, 4, massart(0.25), 25, seed=6)
    path = tmp_path / "stream.txt"
    write_stream(str(path), stream)
    loaded, k = load_dataset(str(path))
    assert k == 3
    assert loaded == stream


def test_fill_hierarchy_costs():
    tree = parse_hierarchy(["0 0", "1 0", "2 0"])
    examples = [
        LabeledExample(sparse_vector([(0, 1.0)]), full_costs([0.0, 1.0])),
        LabeledExample(sparse_vector([(0, 1.0)]), full_costs([0.3, 0.3])),
    ]
    filled = fill_hierarchy_costs(examples, tree)
    # diameter 2 edges, so the far label costs exactly 1
    assert [filled[0].costs.cost_of(y) for y in (1, 2)] == [0.0, 1.0]
    # ties resolve to the smaller label
    assert [filled[1].costs.cost_of(y) for y in (1, 2)] == [0.0, 1.0]


def test_evaluate_test_cost():
    state = LearnerState(
        2,
        1,
        schedule=None,
        policy="passive",
        mode="online",
    )
    state.weights[:] = [[0.9], [0.1]]
    x = sparse_vector([(0, 1.0)])
    tests = [
        LabeledExample(x, full_costs([0.2, 0.7])),
        LabeledExample(x, full_costs([0.4, 0.9])),
    ]
    assert evaluate_test_cost(state, tests) == pytest.approx(0.8)


def per_example_test_cost(state, test):
    """evaluate_test_cost one example at a time: each example's (K, nnz)
    product, clamped to [0, 1], and the smallest of its cheapest labels."""
    total = 0.0
    for ex in test:
        x = ex.features
        predicted = np.clip(state.weights[:, x.indices] @ x.values, 0.0, 1.0)
        total += ex.costs.cost_of(int(np.argmin(predicted)) + 1)
    return total / len(test)


def random_split(rng, k, dim, n, nnz):
    """n test examples with up to nnz features each (some with none) and full costs."""
    split = []
    for _ in range(n):
        idx = np.sort(rng.choice(dim, size=int(rng.integers(0, nnz + 1)), replace=False))
        x = sparse_vector(list(zip(idx.tolist(), rng.uniform(-1.0, 1.0, idx.size).tolist())))
        split.append(LabeledExample(x, full_costs(rng.uniform(0.0, 1.0, k))))
    return split


def test_evaluate_test_cost_matches_per_example_prediction():
    # wide weights clamp many predictions at 0 or 1, so ties are common there
    rng = np.random.default_rng(31)
    ties = 0
    for _ in range(60):
        k, dim = int(rng.integers(2, 6)), int(rng.integers(1, 12))
        state = LearnerState(k, dim, schedule=None, mode="online")
        state.weights[:] = rng.uniform(-3.0, 3.0, (k, dim))
        split = random_split(rng, k, dim, int(rng.integers(1, 40)), dim)
        assert evaluate_test_cost(state, split) == per_example_test_cost(state, split)
        predicted = state.predicted_costs([ex.features for ex in split])
        ties += int(np.sum((predicted == predicted.min(axis=1, keepdims=True)).sum(axis=1) > 1))
    assert ties > 100


def test_evaluate_test_cost_ties_empty_examples_and_unobserved_costs():
    state = LearnerState(3, 2, schedule=None, mode="online")
    x = sparse_vector([(0, 1.0)])
    costs = full_costs([0.125, 0.25, 0.5])
    cases = (
        ([[0.5, 0.0], [-1.0, 0.0], [-2.0, 0.0]], x, 0.25),  # labels 2 and 3 clamp to 0: 2 wins
        ([[1.5, 0.0], [2.0, 0.0], [3.0, 0.0]], x, 0.125),  # all clamp to 1: label 1 wins
        ([[0.9, 0.0], [0.8, 0.0], [0.7, 0.0]], sparse_vector([]), 0.125),  # no features: label 1
    )
    for weights, features, want in cases:
        state.weights[:] = weights
        assert evaluate_test_cost(state, [LabeledExample(features, costs)]) == want
    both = [LabeledExample(x, costs), LabeledExample(sparse_vector([]), costs)]
    assert evaluate_test_cost(state, both) == (0.5 + 0.125) / 2
    unobserved = LabeledExample(x, partial_costs(3, {1: 0.0, 2: 0.0}))
    with pytest.raises(DataError, match="cost of label 3 is unobserved"):
        evaluate_test_cost(state, [LabeledExample(x, costs), unobserved])


def test_evaluate_test_cost_builds_no_dense_split():
    # a dense (n, dim) split would be 100 x 100 000 floats, 76 MiB
    rng = np.random.default_rng(37)
    k, dim = 5, 100_000
    state = LearnerState(k, dim, schedule=None, mode="online")
    state.weights[:] = rng.uniform(-1.0, 2.0, (k, dim))
    split = random_split(rng, k, dim, 100, 20)
    tracemalloc.start()
    try:
        got = evaluate_test_cost(state, split)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20
    assert got == per_example_test_cost(state, split)


def test_run_seed_passive_counts():
    cfg = ExperimentConfig(
        synthetic=small_spec(n=40, k=4, dim=4),
        policy="passive",
        seeds=1,
        out_dir="",
        budget_base=10,
    )
    train, _ = gen_stream(4, 4, massart(0.3), 40, seed=100)
    test, _ = gen_stream(4, 4, massart(0.3), 8, seed=101, cost_noise="none")
    points, state = run_seed(cfg, 0, train, test, 4, 5)
    assert (state.log.l1, state.log.l2) == (40, 160)
    assert [p.queries for p in points] == [40, 80, 160]
    assert [p.checkpoint_q for p in points] == [1, 2, 3]
    assert [p.examples_touched for p in points] == [10, 20, 40]
    assert points[-1].queries == state.log.l2  # no stray partial checkpoint


def test_run_seed_checkpoint_overshoot_bounded():
    cfg = ExperimentConfig(
        synthetic=small_spec(), policy="nodom", seeds=1, out_dir="", budget_base=2
    )
    train, _ = gen_stream(3, 3, massart(0.3), 60, seed=200)
    test, _ = gen_stream(3, 3, massart(0.3), 10, seed=201, cost_noise="none")
    points, state = run_seed(cfg, 0, train, test, 3, 4)
    for p in points[:-1]:
        boundary = budget_schedule(p.checkpoint_q, 3, 2)
        assert 0 <= p.queries - boundary < 3
    assert points[-1].queries == state.log.l2


def test_run_seed_deterministic():
    cfg = ExperimentConfig(
        synthetic=small_spec(), policy="coal", seeds=1, out_dir="", budget_base=2
    )
    train, _ = gen_stream(3, 3, massart(0.3), 60, seed=300)
    test, _ = gen_stream(3, 3, massart(0.3), 10, seed=301, cost_noise="none")
    first, _ = run_seed(cfg, 1, train, test, 3, 4)
    second, _ = run_seed(cfg, 1, train, test, 3, 4)
    assert first == second


def test_run_seed_forced_warmup_queries_everything(monkeypatch):
    # the warm-up rounds play as passive ones: they probe no cost range, and
    # every later round probes once per round, in either mode
    calls = {}
    for name in ("batch_cost_ranges", "cost_intervals"):

        def counted(*args, _name=name, _solver=getattr(driver, name), **kwargs):
            calls[_name] = calls.get(_name, 0) + 1
            return _solver(*args, **kwargs)

        monkeypatch.setattr(driver, name, counted)
    train, _ = gen_stream(3, 3, massart(0.3), 30, seed=400)
    test, _ = gen_stream(3, 3, massart(0.3), 5, seed=401, cost_noise="none")
    for mode, n_train, probes in (
        ("online", 30, {"batch_cost_ranges": 30 - 3}),
        ("exact", 5, {"cost_intervals": 5 - 3}),
    ):
        cfg = ExperimentConfig(
            synthetic=small_spec(),
            policy="coal",
            mode=mode,
            seeds=1,
            out_dir="",
            budget_base=2,
            mellowness=1e-9,
            seed_passive=3,
        )
        calls.clear()
        _, state = run_seed(cfg, 0, train[:n_train], test, 3, 4)
        assert state.log.masks[:3] == [0b111] * 3
        assert state.log.l2 >= 9
        assert calls == probes, mode


def test_run_experiment_writes_csv(tmp_path):
    cfg = small_config(tmp_path)
    table = run_experiment(cfg)
    assert table.curve_path.endswith("curve_coal_mel0.01.csv")
    with open(table.curve_path, encoding="utf-8") as fh:
        header = fh.readline().strip()
        assert header == "seed,checkpoint_q,queries,examples_touched,test_cost"
        rows = [line.strip().split(",") for line in fh]
    seeds_seen = {int(r[0]) for r in rows}
    assert seeds_seen <= {0, 1}
    with open(table.summary_path, encoding="utf-8") as fh:
        assert fh.readline().strip() == "policy,mellowness,seeds,auc_median,auc_q15,auc_q85"
        body = fh.readline().strip().split(",")
    assert body[0] == "coal" and body[2] == "2"
    if not math.isnan(table.summary["auc_median"]):
        assert float(body[3]) == table.summary["auc_median"]


def test_run_experiment_deterministic_bytes(tmp_path):
    table_a = run_experiment(small_config(tmp_path / "a"))
    table_b = run_experiment(small_config(tmp_path / "b"))
    with open(table_a.curve_path, "rb") as fh:
        bytes_a = fh.read()
    with open(table_b.curve_path, "rb") as fh:
        bytes_b = fh.read()
    assert bytes_a == bytes_b
    assert table_a.rows == table_b.rows
    assert table_a.aucs == table_b.aucs


# Exact-mode curve rows recorded before the game's constraint rows were fused
# into one augmented stack: (checkpoint_q, queries, examples_touched, test_cost).
EXACT_MODE_CURVE = [
    (1, 30, 11, 0.20378074527617515),
    (2, 60, 21, 0.20378074527617515),
    (3, 117, 40, 0.20378074527617515),
]


def test_exact_mode_curve_matches_recorded_values():
    spec = parse_synthetic_spec("massart:k=3,dim=4,tau=0.3,n=40,noise=none")
    table = run_experiment(ExperimentConfig(synthetic=spec, mode="exact", seeds=1, out_dir=""))
    assert len(table.rows) == len(EXACT_MODE_CURVE)
    for (seed, point), (checkpoint, queries, touched, test_cost) in zip(
        table.rows, EXACT_MODE_CURVE
    ):
        assert seed == 0 and point.checkpoint_q == checkpoint
        assert (point.queries, point.examples_touched) == (queries, touched)
        assert point.test_cost == pytest.approx(test_cost, abs=1e-12)


def test_run_experiment_no_out_dir():
    cfg = ExperimentConfig(synthetic=small_spec(n=30), seeds=1, out_dir="")
    table = run_experiment(cfg)
    assert table.curve_path is None and table.summary_path is None
    assert table.rows


def test_run_experiment_dataset_source(tmp_path):
    stream, _ = gen_stream(3, 3, massart(0.3), 50, seed=500)
    path = tmp_path / "train.txt"
    write_stream(str(path), stream)
    cfg = ExperimentConfig(
        dataset=str(path),
        policy="passive",
        seeds=2,
        out_dir=str(tmp_path / "out"),
        budget_base=2,
        test_fraction=0.2,
    )
    table = run_experiment(cfg)
    # 50 examples, 10 held out, passive queries 3 per round: 40 * 3 = 120
    finals = [p for seed, p in table.rows if p.examples_touched == 40]
    assert len(finals) == 2
    assert all(p.queries == 120 for p in finals)


def test_cli_synthetic_run(tmp_path, capsys):
    out = tmp_path / "out"
    code = main(
        [
            "--synthetic",
            "massart:k=3,dim=3,tau=0.3,n=40",
            "--seeds",
            "1",
            "--out",
            str(out),
            "--budget-base",
            "2",
        ]
    )
    assert code == 0
    printed = capsys.readouterr().out
    assert "curve rows written to" in printed
    assert (out / "curve_coal_mel0.01.csv").exists()


def test_cli_config_error(capsys):
    code = main(["--synthetic", "massart:k=3,dim=3,n=40", "--mellowness", "-1"])
    assert code == 2
    assert "configuration error" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["--synthetic", "massart:k=2,dim=2,n=10", "--kappa", "0"],
        ["--synthetic", "massart:k=2,dim=2,n=10", "--radius", "theory", "--kappa", "1.5"],
        ["--synthetic", "tsybakov:k=2,dim=2,tau0=0.5,alpha=2,beta=40,n=10"],
        ["--synthetic", "massart:k=2,dim=2,tau=0.9,n=10"],
        ["--synthetic", "massart:k=2,dim=2,tau=0.9,n=10", "--emit-stream", "s.txt"],
        # NaN fails every range test, so none of these may reach a run
        ["--synthetic", "massart:k=2,dim=2,n=20", "--mellowness", "nan"],
        ["--synthetic", "massart:k=2,dim=2,n=20", "--learning-rate", "nan"],
        ["--synthetic", "massart:k=2,dim=2,n=20", "--kappa", "nan"],
        ["--synthetic", "massart:k=2,dim=2,n=20", "--kappa", "nan", "--mode", "exact"],
        ["--synthetic", "massart:k=2,dim=2,n=20", "--norm-bound", "nan"],
        ["--synthetic", "massart:k=2,dim=2,n=20", "--norm-bound", "nan", "--mode", "exact"],
        ["--synthetic", "tsybakov:k=2,dim=2,tau0=0.5,alpha=nan,beta=1,n=20"],
        ["--synthetic", "tsybakov:k=2,dim=2,tau0=0.5,alpha=1,beta=nan,n=20"],
        # and neither may infinity, which makes the radii or the ball unbounded
        ["--synthetic", "massart:k=2,dim=2,n=20", "--learning-rate", "inf"],
        ["--synthetic", "massart:k=2,dim=2,n=20", "--kappa", "inf"],
        ["--synthetic", "massart:k=2,dim=2,n=20", "--norm-bound", "inf"],
        ["--synthetic", "massart:k=2,dim=2,n=20", "--norm-bound", "inf", "--mode", "exact"],
        ["--synthetic", "massart:k=2,dim=2,n=20", "--mellowness", "inf"],
        # an option the spec does not know, and one given twice
        ["--synthetic", "massart:k=2,dim=2,n=20,foo=1"],
        ["--synthetic", "massart:k=2,dim=3,n=20,k=3"],
    ],
)
def test_cli_rejects_bad_configuration_before_running(argv, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    code = main(argv + ["--seeds", "1", "--out", str(tmp_path / "out")])
    out, err = capsys.readouterr()
    assert code == 2
    assert not out
    assert any(line.startswith("configuration error:") for line in err.splitlines())
    assert "Traceback" not in err
    assert not list(tmp_path.iterdir())  # nothing ran, nothing written


def test_cli_without_out_dir_claims_no_files(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    code = main(["--synthetic", "massart:k=2,dim=2,n=20", "--seeds", "1", "--out", ""])
    out = capsys.readouterr().out
    assert code == 0 and "auc median" in out
    assert "written to" not in out
    assert not list(tmp_path.iterdir())


def test_cli_bad_spec(capsys):
    code = main(["--synthetic", "massart:k=3"])
    assert code == 2


def test_cli_missing_dataset(tmp_path, capsys):
    code = main(["--data", str(tmp_path / "absent.txt"), "--out", str(tmp_path)])
    assert code == 3
    assert "data error" in capsys.readouterr().err


def test_cli_malformed_dataset(tmp_path, capsys):
    path = tmp_path / "bad.txt"
    path.write_text("1:0.5 | junk\n", encoding="utf-8")
    code = main(["--data", str(path), "--out", str(tmp_path / "out")])
    assert code == 3


def test_cli_rejects_partial_costs_without_hierarchy(tmp_path, capsys):
    rng = np.random.default_rng(7)
    lines = []
    for n in range(1, 201):
        costs = rng.uniform(size=3)
        labels = (1, 2) if n % 3 == 0 else (1, 2, 3)
        head = " ".join(f"{y}:{costs[y - 1]:.3f}" for y in labels)
        lines.append(f"{head} | 1:{rng.uniform():.3f} 2:{rng.uniform():.3f}\n")
    data = tmp_path / "partial.txt"
    data.write_text("".join(lines), encoding="utf-8")
    for policy in ("passive", "coal"):
        argv = ["--data", str(data), "--policy", policy, "--seeds", "1"]
        code = main(argv + ["--out", str(tmp_path / policy)])
        assert code == 3
        err = capsys.readouterr().err
        assert "data error" in err and "line 3" in err and "label(s) 3" in err
    # a hierarchy rebuilds every cost from the best observed label
    tree = tmp_path / "tree.txt"
    tree.write_text("0 0\n1 0\n2 0\n3 0\n", encoding="utf-8")
    argv = ["--data", str(data), "--hierarchy", str(tree), "--seeds", "1"]
    assert main(argv + ["--out", str(tmp_path / "tree")]) == 0


@pytest.mark.parametrize("named", ["data.txt", "tree.txt"])
def test_cli_rejects_a_single_label(named, tmp_path, capsys):
    # every line names only label 1, or the tree has one leaf
    (tmp_path / "data.txt").write_text("1:0.2 | 1:0.5\n" * 10, encoding="utf-8")
    argv = ["--data", str(tmp_path / "data.txt"), "--seeds", "1", "--out", ""]
    if named == "tree.txt":
        (tmp_path / "tree.txt").write_text("0 0\n1 0\n", encoding="utf-8")
        argv += ["--hierarchy", str(tmp_path / "tree.txt")]
    code = main(argv)
    err = capsys.readouterr().err
    assert code == 3
    assert err.startswith("data error:") and named in err and "1 label" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("bad", ["data", "tree"])
def test_cli_rejects_files_that_are_not_utf8(bad, tmp_path, capsys):
    files = {"data": b"1:0.2 2:0.8 | 1:0.5\n" * 9, "tree": b"0 0\n1 0\n2 0\n"}
    files[bad] += b"# caf\xe9\n"  # Latin-1, not UTF-8
    for name, content in files.items():
        (tmp_path / name).write_bytes(content)
    argv = ["--data", str(tmp_path / "data"), "--hierarchy", str(tmp_path / "tree")]
    code = main(argv + ["--seeds", "1", "--out", ""])
    err = capsys.readouterr().err
    assert code == 3
    assert err.startswith("data error:") and str(tmp_path / bad) in err
    assert len(err.splitlines()) == 1 and "Traceback" not in err


@pytest.mark.parametrize("variant", ["bom", "tabs"])
def test_cli_reads_a_bom_and_tabs_like_plain_text(variant, tmp_path):
    rng = np.random.default_rng(5)
    lines = []
    for _ in range(40):
        costs = " ".join(f"{y}:{c:.3f}" for y, c in enumerate(rng.uniform(size=3), start=1))
        lines.append(f"{costs} | 1:{rng.normal():.3f} 2:{rng.normal():.3f}\n")
    plain = {"data": "".join(lines).encode(), "tree": b"# three leaves\n0 0\n1 0\n2 0\n3 0\n"}
    if variant == "bom":
        changed = {name: b"\xef\xbb\xbf" + text for name, text in plain.items()}
    else:
        changed = {name: text.replace(b" ", b"\t") for name, text in plain.items()}
    outputs = []
    for tag, files in (("plain", plain), (variant, changed)):
        for name, content in files.items():
            (tmp_path / f"{tag}.{name}").write_bytes(content)
        out = tmp_path / f"out-{tag}"
        argv = ["--data", str(tmp_path / f"{tag}.data"), "--seeds", "2", "--budget-base", "1"]
        assert main(argv + ["--hierarchy", str(tmp_path / f"{tag}.tree"), "--out", str(out)]) == 0
        outputs.append({path.name: path.read_bytes() for path in sorted(out.iterdir())})
    assert len(outputs[0]) == 2 and outputs[1] == outputs[0]


@pytest.mark.parametrize("mode", ["online", "exact"])
def test_cli_rejects_a_feature_whose_square_overflows(mode, tmp_path):
    # 1e200 is finite but its square is not; the learner would spin on NaNs.
    # A subprocess with a timeout fails, rather than hangs, if the spin returns.
    data = tmp_path / "huge.txt"
    data.write_text("1:0.0 2:1.0 | 1:1e200\n" + "1:1.0 2:0.0 | 1:0.5\n" * 4, encoding="utf-8")
    root = Path(__file__).resolve().parent.parent
    proc = subprocess.run(
        [sys.executable, "-m", "coal.cli", "--data", str(data), "--mode", mode, "--out", ""],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=str(root / "src")),
        timeout=60,
    )
    assert proc.returncode == 3, proc.stderr
    assert proc.stderr.startswith("data error:") and "1e200" in proc.stderr
    assert "(line 1, column 15)" in proc.stderr and "Traceback" not in proc.stderr


@pytest.mark.parametrize("mode", ["online", "exact"])
def test_cli_rejects_features_whose_squared_norm_overflows(mode, tmp_path):
    # each square is finite but their sum is not: online mode used to print
    # "auc median nan" and exact mode to exit with a LinAlgError traceback
    data = tmp_path / "wide-norm.txt"
    rest = "1:1.0 2:0.0 | 1:0.5\n" * 4
    data.write_text("1:0.0 2:1.0 | 1:1.3e154 2:1.3e154\n" + rest, encoding="utf-8")
    root = Path(__file__).resolve().parent.parent
    proc = subprocess.run(
        [sys.executable, "-m", "coal.cli", "--data", str(data), "--mode", mode, "--out", ""],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=str(root / "src")),
        timeout=60,
    )
    assert proc.returncode == 3, proc.stderr
    assert proc.stderr.startswith("data error:") and "squared norm" in proc.stderr
    assert "(line 1, column 13)" in proc.stderr and "Traceback" not in proc.stderr


@pytest.mark.parametrize("mode", ["online", "exact"])
def test_cli_rejects_squared_norms_whose_sum_overflows(mode, tmp_path):
    # each example's squared norm (1.44e308) is finite but their sum is not:
    # both modes used to print "auc median nan" and exit 0
    data = tmp_path / "heavy.txt"
    costs = [(i % 5) / 4 for i in range(40)]
    data.write_text("".join(f"1:{c} 2:{1 - c} | 1:1.2e154\n" for c in costs), encoding="utf-8")
    root = Path(__file__).resolve().parent.parent
    proc = subprocess.run(
        [sys.executable, "-m", "coal.cli", "--data", str(data), "--mode", mode, "--out", ""],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=str(root / "src")),
        timeout=60,
    )
    assert proc.returncode == 3, proc.stderr
    assert proc.stderr.startswith(f"data error: {data}:") and proc.stderr.count("\n") == 1
    assert "Traceback" not in proc.stderr


def run_cli_warnings_as_errors(*args):
    """coal.cli on a short synthetic stream, in a subprocess where any RuntimeWarning raises."""
    root = Path(__file__).resolve().parent.parent
    argv = ["--synthetic", "massart:k=3,dim=4,n=30", "--seeds", "1", "--out", "", *args]
    return subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-m", "coal.cli", *argv],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=str(root / "src")),
        timeout=120,
    )


def test_cli_rejects_a_norm_bound_whose_square_overflows():
    # exact mode's bracket squares the bound: 1e160 used to exit 1 with an OverflowError
    proc = run_cli_warnings_as_errors("--mode", "exact", "--norm-bound", "1e160")
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.startswith("configuration error:") and "1e+160" in proc.stderr
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize(
    "mode, setting",
    [
        (mode, setting)
        for setting in (
            ("--norm-bound", "1e150"),
            ("--norm-bound", "9e153"),  # near the largest accepted bound
            ("--radius", "theory", "--kappa", "1e300"),
        )
        for mode in ("online", "exact")
    ]
    + [(mode, ("--mellowness", "1e300")) for mode in ("exact", "online")]
    + [("exact", ("--mellowness", "1e308"))]
    + [("exact", ("--radius", "theory", "--kappa", "1e308"))]
    + [("online", ("--learning-rate", r)) for r in ("1e303", "1e308", repr(sys.float_info.max))],
)
def test_cli_runs_extreme_settings_without_a_runtime_warning(mode, setting):
    # in exact mode each used to exit 0 with overflow warnings from the
    # bracket, or, past a norm bound of 1e154, to exit 1; an infinite mellow
    # radius (1e308) made NaN game weights and exited 1, and a budget whose
    # product with its round overflowed warned. In online mode a learning
    # rate past 1e300 overflowed the sensitivities, whose inf times a zero
    # gap made NaN, and exited 1
    proc = run_cli_warnings_as_errors("--mode", mode, *setting)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == "" and "auc median" in proc.stdout


def huge_feature_file(tmp_path, value):
    """40 two-label lines `1:a 2:1-a | 1:x 2:0.5` (a uniform in [0, 1], x in
    [0.1, 1], drawn with random.seed(0)) whose sixth line has x = value."""
    import random

    random.seed(0)
    lines = []
    for n in range(40):
        a, x = random.random(), random.uniform(0.1, 1)
        lines.append(f"1:{a!r} 2:{1 - a!r} | 1:{value if n == 5 else x!r} 2:0.5\n")
    path = tmp_path / "huge.txt"
    path.write_text("".join(lines), encoding="utf-8")
    return path


@pytest.mark.parametrize("value", [1e149, 1e152])
def test_exact_mode_runs_features_whose_leverage_overflows(tmp_path, monkeypatch, value):
    # the probe's leverage x'G_eps^-1 x passes the float range here: it
    # used to exit 1 on "overflow encountered in matmul"; a leverage past
    # the range reads as unbounded, and 0 * inf makes no NaN
    data = huge_feature_file(tmp_path, value)
    root = Path(__file__).resolve().parent.parent
    proc = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-m", "coal.cli", "--data", str(data)]
        + ["--mode", "exact", "--seeds", "1", "--out", ""],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=str(root / "src")),
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert math.isfinite(float(re.search(r"auc median (\S+)", proc.stdout).group(1)))
    decisions, process = [], driver.process_example
    monkeypatch.setattr(
        "coal.harness.process_example", lambda *a: decisions.append(process(*a)) or decisions[-1]
    )
    table = run_experiment(ExperimentConfig(dataset=str(data), mode="exact", seeds=1, out_dir=""))
    assert math.isfinite(table.summary["auc_median"])
    ends, tols = np.array([(d.lo, d.hi) for d in decisions]), np.array([d.tol for d in decisions])
    assert len(ends) == 32 and ((ends >= 0.0) & (ends <= 1.0)).all()
    assert not np.isnan(tols).any()


def test_cli_runs_a_tiny_mellowness_in_exact_mode():
    # the game budget (12 / Delta)^2 used to raise OverflowError; it saturates at t_max
    proc = run_cli_warnings_as_errors("--mode", "exact", "--mellowness", "1e-300")
    assert proc.returncode == 0, proc.stderr
    assert "Traceback" not in proc.stderr


def wide_dataset(tmp_path):
    """60 lines of 3 labels whose sparse features reach index 49 999."""
    rng = np.random.default_rng(11)
    lines = []
    for n in range(60):
        idx = sorted(rng.choice(np.arange(1, 49_999), size=4, replace=False))
        idx += [49_999] * (n == 0)
        costs = " ".join(f"{y}:{c:.3f}" for y, c in enumerate(rng.uniform(size=3), start=1))
        feats = " ".join(f"{i}:{rng.normal():.3f}" for i in idx)
        lines.append(f"{costs} | {feats}\n")
    path = tmp_path / "wide.txt"
    path.write_text("".join(lines), encoding="utf-8")
    return path


def test_cli_online_runs_a_dataset_too_wide_for_dense_grams(tmp_path, capsys):
    argv = ["--data", str(wide_dataset(tmp_path)), "--seeds", "1", "--budget-base", "1"]
    assert main(argv + ["--mode", "online", "--out", str(tmp_path / "out")]) == 0
    assert "auc median" in capsys.readouterr().out


def test_cli_reports_out_of_memory_without_traceback(tmp_path, monkeypatch, capsys):
    # exact mode needs a 50000 x 50000 Gram here; raise numpy's error instead
    # of allocating it, since an overcommitting host would hand out the pages
    def too_wide(cfg):
        raise MemoryError(
            "Unable to allocate 18.6 GiB for an array with shape (50000, 50000) "
            "and data type float64"
        )

    monkeypatch.setattr("coal.cli.run_experiment", too_wide)
    argv = ["--data", str(wide_dataset(tmp_path)), "--mode", "exact", "--out", ""]
    code = main(argv)
    err = capsys.readouterr().err
    assert code == 3
    assert err.startswith("data error: out of memory in exact mode")
    assert "(50000, 50000)" in err and "Traceback" not in err


def test_readme_flag_defaults_match_parser():
    readme = (Path(__file__).parent.parent / "README.md").read_text(encoding="utf-8")
    rows = re.findall(r"^\| `(--[a-z-]+)[^`]*` \|([^|]*)\|", readme, re.MULTILINE)
    parser = build_parser()
    dests = {a.option_strings[0]: a.dest for a in parser._actions if a.option_strings}
    assert {flag for flag, _ in rows} == set(dests) - {"-h"}
    for flag, cell in rows:
        default = parser.get_default(dests[flag])
        documented = cell.strip().strip("`")
        if default is None:
            assert documented == "", flag
        else:
            assert type(default)(documented) == default, flag


def test_cli_flags_are_the_config_fields(monkeypatch):
    parser = build_parser()
    dests = {a.dest for a in parser._actions if a.option_strings} - {"help", "emit_stream"}
    names = {f.name for f in fields(ExperimentConfig)}
    assert dests <= names
    assert names - dests == {"synthetic_seed_base"}

    passed = []

    def capture(cfg):
        passed.append(cfg)
        nan = math.nan
        return ResultTable((), (), dict(auc_median=nan, auc_q15=nan, auc_q85=nan), None, None)

    monkeypatch.setattr("coal.cli.run_experiment", capture)
    spec = "massart:k=2,dim=2,n=10"
    assert main(["--synthetic", spec]) == 0
    assert passed.pop() == ExperimentConfig(synthetic=parse_synthetic_spec(spec))

    every_flag = dict(
        dataset="d.txt",
        hierarchy="t.txt",
        policy="nodom",
        mode="exact",
        mellowness=0.5,
        learning_rate=0.25,
        norm_bound=4.0,
        delta=0.1,
        seeds=3,
        out_dir="o",
        budget_base=4,
        radius_mode="theory",
        kappa=2.5,
        test_fraction=0.3,
        seed_passive=7,
    )
    defaults = {f.name: f.default for f in fields(ExperimentConfig)}
    assert all(value != defaults[name] for name, value in every_flag.items())
    flags = {"dataset": "--data", "out_dir": "--out", "radius_mode": "--radius"}
    argv = []
    for name, value in every_flag.items():
        argv += [flags.get(name, "--" + name.replace("_", "-")), str(value)]
    assert main(argv) == 0
    assert passed.pop() == ExperimentConfig(**every_flag)


def test_cli_emit_stream_is_seed_zeros_train_stream(tmp_path, capsys):
    spec = "massart:k=3,dim=4,tau=0.3,n=25"
    emitted = tmp_path / "emitted.txt"
    assert main(["--synthetic", spec, "--emit-stream", str(emitted)]) == 0
    trains, *_ = _load_streams(ExperimentConfig(synthetic=parse_synthetic_spec(spec), seeds=1))
    write_stream(tmp_path / "seed0.txt", trains[0])
    assert emitted.read_bytes() == (tmp_path / "seed0.txt").read_bytes()


def test_readme_library_example_runs(capsys):
    readme = (Path(__file__).parent.parent / "README.md").read_text(encoding="utf-8")
    (example,) = re.findall(r"^```python\n(.*?)^```", readme, re.MULTILINE | re.DOTALL)
    exec(compile(example, "README.md", "exec"), {})
    assert math.isfinite(float(capsys.readouterr().out))


def test_cli_emit_stream(tmp_path, capsys):
    path = tmp_path / "stream.txt"
    code = main(["--synthetic", "massart:k=2,dim=2,n=15", "--emit-stream", str(path)])
    assert code == 0
    examples, k = load_dataset(str(path))
    assert k == 2 and len(examples) == 15
    assert "wrote 15 examples" in capsys.readouterr().out


def test_cli_emit_stream_needs_synthetic(tmp_path, capsys):
    data = tmp_path / "d.txt"
    data.write_text("1:0.0 2:1.0 | 0:1.0\n", encoding="utf-8")
    code = main(["--data", str(data), "--emit-stream", str(tmp_path / "s.txt")])
    assert code == 2
