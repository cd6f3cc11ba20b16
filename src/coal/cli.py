"""Command-line front end for running cost-sensitive active learning curves.

Each flag but --emit-stream sets the ExperimentConfig field of the same
name (--data sets dataset, --out out_dir, --radius radius_mode), and the
parser takes its defaults from that class, so a setting is defined once.

Exit codes: 0 success, 2 configuration error, 3 data error (including a
dataset too wide for the memory its mode needs).
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import fields

from .data import DataError, ParseError
from .driver import MODES, POLICIES
from .harness import (
    ConfigError,
    ExperimentConfig,
    parse_synthetic_spec,
    run_experiment,
    train_stream,
    write_stream,
)


def build_parser():
    p = argparse.ArgumentParser(
        prog="coal",
        description=(
            "Stream a cost-sensitive dataset past an active learner and "
            "record learning-curve checkpoints at doubling query budgets."
        ),
    )
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument(
        "--data", dest="dataset", metavar="PATH", help="text dataset, one example per line"
    )
    src.add_argument(
        "--synthetic",
        metavar="SPEC",
        help="generated stream, e.g. 'massart:k=5,dim=8,tau=0.3,n=4096' or "
        "'tsybakov:k=5,dim=8,tau0=0.5,alpha=2,beta=4,n=4096'",
    )
    p.add_argument("--hierarchy", metavar="PATH", help="label tree ('node parent' lines)")
    p.add_argument("--policy", choices=POLICIES)
    p.add_argument("--mode", choices=MODES)
    p.add_argument("--mellowness", type=float)
    p.add_argument("--learning-rate", type=float)
    p.add_argument("--norm-bound", type=float)
    p.add_argument("--delta", type=float, help="radius confidence parameter")
    p.add_argument("--seeds", type=int)
    p.add_argument("--out", dest="out_dir", metavar="DIR")
    p.add_argument("--budget-base", type=int)
    p.add_argument("--radius", dest="radius_mode", choices=("mellow", "theory"))
    p.add_argument("--kappa", type=float)
    p.add_argument("--test-fraction", type=float)
    p.add_argument(
        "--seed-passive",
        type=int,
        metavar="N",
        help="force the first N rounds to query every label (warm-up)",
    )
    p.add_argument(
        "--emit-stream",
        metavar="PATH",
        help="with --synthetic: write the generated train stream as text and exit",
    )
    p.set_defaults(**{f.name: f.default for f in fields(ExperimentConfig)})
    return p


def main(argv=None):
    args = vars(build_parser().parse_args(argv))
    emit_stream = args.pop("emit_stream")
    try:
        if args["synthetic"]:
            args["synthetic"] = parse_synthetic_spec(args["synthetic"])
        cfg = ExperimentConfig(**args)
        if emit_stream and cfg.synthetic is None:
            raise ConfigError("--emit-stream requires --synthetic")
    except ValueError as exc:  # ConfigError included
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2

    try:
        if emit_stream:
            stream = train_stream(cfg, 0)
            write_stream(emit_stream, stream)
            print(f"wrote {len(stream)} examples to {emit_stream}")
            return 0
        table = run_experiment(cfg)
    except (ParseError, DataError, OSError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 3
    except MemoryError as exc:  # numpy's message names the array shape
        print(f"data error: out of memory in {cfg.mode} mode: {exc}", file=sys.stderr)
        return 3

    if table.curve_path is not None:
        print(f"curve rows written to {table.curve_path}")
        print(f"summary written to {table.summary_path}")
    print(
        "auc median {auc_median!r} (q15 {auc_q15!r}, q85 {auc_q85!r})".format(
            **table.summary
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
