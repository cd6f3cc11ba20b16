import math
import re
from pathlib import Path

import numpy as np
import pytest

from coal.cli import build_parser, main
from coal.data import DataError, full_costs, parse_hierarchy, sparse_vector
from coal.driver import LearnerState
from coal.harness import (
    ConfigError,
    CurvePoint,
    ExperimentConfig,
    SyntheticSpec,
    _curve_auc,
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


def test_run_seed_forced_warmup_queries_everything():
    cfg = ExperimentConfig(
        synthetic=small_spec(),
        policy="coal",
        seeds=1,
        out_dir="",
        budget_base=2,
        mellowness=1e-9,
        seed_passive=3,
    )
    train, _ = gen_stream(3, 3, massart(0.3), 30, seed=400)
    test, _ = gen_stream(3, 3, massart(0.3), 5, seed=401, cost_noise="none")
    _, state = run_seed(cfg, 0, train, test, 3, 4)
    assert state.log.masks[:3] == [0b111] * 3
    assert state.log.l2 >= 9


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
