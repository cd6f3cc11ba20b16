"""Command-line front end for running cost-sensitive active learning curves.

Exit codes: 0 success, 2 configuration error, 3 data error (including a
dataset too wide for the memory its mode needs).
"""

from __future__ import annotations

import argparse
import sys

from .cost_range import DEFAULT_KAPPA, DEFAULT_NORM_BOUND
from .data import DataError, ParseError
from .driver import MODES, POLICIES
from .harness import (
    ConfigError,
    ExperimentConfig,
    parse_synthetic_spec,
    run_experiment,
    write_stream,
)
from .synthetic import gen_stream


def build_parser():
    p = argparse.ArgumentParser(
        prog="coal",
        description=(
            "Stream a cost-sensitive dataset past an active learner and "
            "record learning-curve checkpoints at doubling query budgets."
        ),
    )
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--data", metavar="PATH", help="text dataset, one example per line")
    src.add_argument(
        "--synthetic",
        metavar="SPEC",
        help="generated stream, e.g. 'massart:k=5,dim=8,tau=0.3,n=4096' or "
        "'tsybakov:k=5,dim=8,tau0=0.5,alpha=2,beta=4,n=4096'",
    )
    p.add_argument("--hierarchy", metavar="PATH", help="label tree ('node parent' lines)")
    p.add_argument("--policy", choices=POLICIES, default="coal")
    p.add_argument("--mode", choices=MODES, default="online")
    p.add_argument("--mellowness", type=float, default=0.01)
    p.add_argument("--learning-rate", type=float, default=0.5)
    p.add_argument("--norm-bound", type=float, default=DEFAULT_NORM_BOUND)
    p.add_argument("--delta", type=float, default=0.01, help="radius confidence parameter")
    p.add_argument("--seeds", type=int, default=20)
    p.add_argument("--out", default="results", metavar="DIR")
    p.add_argument("--budget-base", type=int, default=10)
    p.add_argument("--radius", choices=("mellow", "theory"), default="mellow")
    p.add_argument("--kappa", type=float, default=DEFAULT_KAPPA)
    p.add_argument("--test-fraction", type=float, default=0.2)
    p.add_argument(
        "--seed-passive",
        type=int,
        default=0,
        metavar="N",
        help="force the first N rounds to query every label (warm-up)",
    )
    p.add_argument(
        "--emit-stream",
        metavar="PATH",
        help="with --synthetic: write the generated train stream as text and exit",
    )
    return p


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        synthetic = parse_synthetic_spec(args.synthetic) if args.synthetic else None
        cfg = ExperimentConfig(
            dataset=args.data,
            synthetic=synthetic,
            hierarchy=args.hierarchy,
            policy=args.policy,
            mode=args.mode,
            mellowness=args.mellowness,
            learning_rate=args.learning_rate,
            norm_bound=args.norm_bound,
            delta=args.delta,
            seeds=args.seeds,
            out_dir=args.out,
            budget_base=args.budget_base,
            radius_mode=args.radius,
            kappa=args.kappa,
            test_fraction=args.test_fraction,
            seed_passive=args.seed_passive,
        )
        if args.emit_stream and synthetic is None:
            raise ConfigError("--emit-stream requires --synthetic")
    except (ConfigError, ValueError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2

    try:
        if args.emit_stream:
            stream, _ = gen_stream(
                synthetic.k,
                synthetic.dim,
                synthetic.margin_law(),
                synthetic.n,
                cfg.synthetic_seed_base,
                cost_noise=synthetic.noise,
            )
            write_stream(args.emit_stream, stream)
            print(f"wrote {len(stream)} examples to {args.emit_stream}")
            return 0
        table = run_experiment(cfg)
    except (ParseError, DataError, OSError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 3
    except MemoryError as exc:  # numpy's message names the array shape
        print(f"data error: out of memory in {args.mode} mode: {exc}", file=sys.stderr)
        return 3

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
