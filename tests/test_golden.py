"""Golden output: the curve and summary CSV bytes of nine fixed runs.

Each run's two CSVs are pinned by their sha256, so a change that moves any
learning curve by a single byte fails here, whatever its size. The pins
cover exact mode (feasibility games and the ledger refit), exact mode at a
small mellowness (where its intervals narrow and decide queries), the same
radius on Bernoulli costs (where the anchor often breaks a budget, so the
bracket leaves searches open and the games decide them), a long
exact run (about a thousand ledger prefixes per label, so the per-prefix
caches grow through many doublings), online mode (the closed-form range
probe) on a short stream and on a long one, the passive baseline in each
mode (no range probe, every label queried) and the command line on a text
dataset with a label tree. A change that is meant to move these bytes
updates the pins and records the AUC before and after in CHANGES.md. Each
pin keeps its summary's auc_median beside its hashes, so a moved pin's
failure gives the AUC before and after.
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
        "-0.4001182203140874",
    ),
    "exact-tight": (
        "c29a735d55d91889078ff9d392ab616d9a50beb75e1bd4f4a65a6d30980e9419",
        "e83478e66bdbd1520a6f89fac153080863fc1d9abb9a0be3e7d290a91c3ef375",
        "-0.3988564380146352",
    ),
    "exact-tight-noisy": (
        "ebfd0e326b63401b0c8a17814980b192868a794e42b8e7e56d8e3b8f400f0ca4",
        "0a42808af61ae05dd94a4c1342d66bffa3589b99c441d4d68bcf7c142ef6d6bc",
        "-0.5936636924940254",
    ),
    "exact-long": (
        "1e2dd0204f69b20c7033ab4c4ee1b22f429c7ed8ce8c88af0b363c709182e4d9",
        "9e4bbd50a53f613816907ac1970dc05f1bf5ce170c2148c64a9c415113075acc",
        "-1.7993749049203795",
    ),
    "online": (
        "93d470203ce2730917f2a2f1fde953a57ba529ff9f46a5eb51f40c15e7a1f6df",
        "460e1e3367c0cb3ceb58c4fa5223b0db6fb89ef4a907fcc50af2bde412dd6a14",
        "-1.5351203669795659",
    ),
    "online-long": (
        "78c185b65a6910f4f136dca853a3d4bf5d6cd54e534dce103b6c769f9f2647e9",
        "518b7658b31996d82925a7e130b413f778ed062aa0a6a8bc5d3dd3211fef8d26",
        "-2.1214400635309643",
    ),
    "exact-passive": (
        "bbb35e59d29221d8cc0f4e3bccc2f389b4e7bf408d2fbfe3dbaee8599fed4563",
        "5a018ae29f1ef3f90d66ff49048d0059641cf32f67fce77d2fb269782a619680",
        "-0.4075614905523503",
    ),
    "online-passive": (
        "4c409066d12d6a738226a248f787fa3be95ea153dae685bd281442cea85e1fc2",
        "662c363feed8bc863a8727584306a5a473014ac3925eb8f12a3b5481c98982ed",
        "-1.7880702285354177",
    ),
    "cli": (
        "3259e0b65b10c97c186179397eb6c1634b0e81150a0e8f29b3fbb2eff2ca096c",
        "a3edb3f07d952e7e6c15b2d1cf6945d05515d3089be886eb090d42c888198f75",
        "-1.1868911335200032",
    ),
}


def csv_hashes(out_dir):
    """The curve's and the summary's sha256, then the summary's auc_median text."""
    out = Path(out_dir)
    (curve,) = out.glob("curve_*.csv")
    (summary,) = out.glob("summary_*.csv")
    hashes = [hashlib.sha256(p.read_bytes()).hexdigest() for p in (curve, summary)]
    auc_median = summary.read_text(encoding="utf-8").splitlines()[1].split(",")[3]
    return (*hashes, auc_median)


def assert_pinned(name, got):
    """The hashes decide; a moved pin's message gives its auc_median, pinned and new."""
    want = PINS[name]
    assert got[:2] == want[:2], f"pin {name} moved: auc_median {want[2]} -> {got[2]}"


EXACT_SPEC = "massart:k=3,dim=4,tau=0.3,n=40,noise=none"
ONLINE_SPEC = "massart:k=3,dim=4,tau=0.3,n=400"


def run_synthetic(spec, mode, out_dir, seeds=2, **settings):
    cfg = ExperimentConfig(
        synthetic=parse_synthetic_spec(spec),
        mode=mode,
        seeds=seeds,
        out_dir=str(out_dir),
        **settings,
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
    got = run_synthetic(EXACT_SPEC, "exact", tmp_path)
    assert_pinned("exact", got)


def test_exact_mode_tight_bytes(tmp_path):
    # at mellowness 0.01 every exact interval is [0, 1]; at 1e-4 the
    # intervals narrow, so the games and the bracket decide queries
    got = run_synthetic(EXACT_SPEC, "exact", tmp_path, mellowness=1e-4)
    assert_pinned("exact-tight", got)


def test_exact_mode_tight_noisy_bytes(tmp_path):
    # Bernoulli costs at the tight radius: most searches the bracket leaves
    # open play games, about 4000 in 480 searches
    got = run_synthetic(
        "massart:k=3,dim=4,tau=0.3,n=80", "exact", tmp_path, seeds=1, mellowness=1e-4,
        synthetic_seed_base=1_001_000,
    )  # fmt: skip
    assert_pinned("exact-tight-noisy", got)


def test_exact_mode_long_run_bytes(tmp_path):
    got = run_synthetic("massart:k=5,dim=8,tau=0.3,n=1024", "exact", tmp_path, seeds=1)
    assert_pinned("exact-long", got)


def test_online_mode_bytes(tmp_path):
    got = run_synthetic(ONLINE_SPEC, "online", tmp_path)
    assert_pinned("online", got)


def test_online_mode_long_run_bytes(tmp_path):
    # the streams of perfbench's online-coal workload at its seed 1
    got = run_synthetic(
        "massart:k=5,dim=8,tau=0.3,n=4096", "online", tmp_path, synthetic_seed_base=1_001_000
    )
    assert_pinned("online-long", got)


def test_exact_passive_bytes(tmp_path):
    got = run_synthetic(EXACT_SPEC, "exact", tmp_path, policy="passive")
    assert_pinned("exact-passive", got)


def test_online_passive_bytes(tmp_path):
    got = run_synthetic(ONLINE_SPEC, "online", tmp_path, policy="passive")
    assert_pinned("online-passive", got)


def test_cli_hierarchy_bytes(tmp_path):
    assert_pinned("cli", run_cli(tmp_path))
