"""Golden output: the curve and summary CSV bytes of three fixed runs.

Each run's two CSVs are pinned by their sha256, so a change that moves any
learning curve by a single byte fails here, whatever its size. The pins
cover exact mode (feasibility games and the ledger refit), online mode (the
closed-form range probe) and the command line on a text dataset with a
label tree. A change that is meant to move these bytes updates the pins and
records the AUC before and after in CHANGES.md.
"""

import hashlib
from pathlib import Path

from coal.cli import main
from coal.harness import ExperimentConfig, parse_synthetic_spec, run_experiment, write_stream
from coal.synthetic import gen_stream, massart

TREE_LINES = "0 0\n6 0\n7 0\n1 6\n2 6\n3 7\n4 7\n5 0\n"

PINS = {
    "exact": (
        "33c1901dbcd25d141a7f32c8c624d23ee71f41c4f8feb7ff30093355d8b079a5",
        "dc71bf5660a5373f33b697a857345c88ff8080db91abec9a67a3f4851c4b7e1d",
    ),
    "online": (
        "93d470203ce2730917f2a2f1fde953a57ba529ff9f46a5eb51f40c15e7a1f6df",
        "460e1e3367c0cb3ceb58c4fa5223b0db6fb89ef4a907fcc50af2bde412dd6a14",
    ),
    "cli": (
        "3259e0b65b10c97c186179397eb6c1634b0e81150a0e8f29b3fbb2eff2ca096c",
        "a3edb3f07d952e7e6c15b2d1cf6945d05515d3089be886eb090d42c888198f75",
    ),
}


def csv_hashes(out_dir):
    out = Path(out_dir)
    (curve,) = out.glob("curve_*.csv")
    (summary,) = out.glob("summary_*.csv")
    return tuple(hashlib.sha256(p.read_bytes()).hexdigest() for p in (curve, summary))


def run_synthetic(spec, mode, out_dir):
    cfg = ExperimentConfig(
        synthetic=parse_synthetic_spec(spec), mode=mode, seeds=2, out_dir=str(out_dir)
    )
    run_experiment(cfg)
    return csv_hashes(out_dir)


def run_cli(tmp_path):
    examples, _ = gen_stream(5, 6, massart(0.3), 300, seed=11, cost_noise="none")
    write_stream(tmp_path / "train.txt", examples)
    (tmp_path / "tree.txt").write_text(TREE_LINES, encoding="utf-8")
    argv = [
        "--data", str(tmp_path / "train.txt"),
        "--hierarchy", str(tmp_path / "tree.txt"),
        "--seeds", "2",
        "--out", str(tmp_path / "cli"),
    ]  # fmt: skip
    assert main(argv) == 0
    return csv_hashes(tmp_path / "cli")


def test_exact_mode_bytes(tmp_path):
    got = run_synthetic("massart:k=3,dim=4,tau=0.3,n=40,noise=none", "exact", tmp_path)
    assert got == PINS["exact"]


def test_online_mode_bytes(tmp_path):
    got = run_synthetic("massart:k=3,dim=4,tau=0.3,n=400", "online", tmp_path)
    assert got == PINS["online"]


def test_cli_hierarchy_bytes(tmp_path):
    assert run_cli(tmp_path) == PINS["cli"]
