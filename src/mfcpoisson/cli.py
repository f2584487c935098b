"""Command-line experiment driver.

Exit codes: 0 = success / all checks passed, 1 = a check failed,
2 = configuration or usage error, 3 = numerical failure (an ill-posed
Riccati system or a diverging particle cloud).
"""
from __future__ import annotations

import argparse
import sys

from . import __version__
from .config import ConfigError, load_config
from .errors import DivergenceError, IllPosedError
from .experiments import (
    VERIFY_KINDS,
    run_chattering,
    run_cost,
    run_riccati,
    run_simulate,
    run_verify,
)


def _worker_count(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"must be an integer, got {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mfcpoisson",
        description="Mean-field control with Poissonian common noise: "
        "Riccati solving, particle simulation and cross-verification.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", required=True, help="experiment JSON file")
    common.add_argument("--out", default="", help="output file path")
    common.add_argument("--seed", type=int, default=None, help="override sim.seed")
    common.add_argument(
        "--threads", type=_worker_count, default=1,
        help="forked worker processes (at least 1) for the scenarios of cost, chattering, "
        "verify optimality|fp|noise and compare-noise",
    )

    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("riccati", parents=[common], help="solve the backward Riccati system, write CSV")
    sub.add_parser("simulate", parents=[common], help="simulate optimal-feedback clouds, dump trajectories")
    sub.add_parser("cost", parents=[common], help="Monte Carlo cost of the optimal feedback")
    sub.add_parser("chattering", parents=[common], help="slab-approximation convergence study")
    verify = sub.add_parser("verify", parents=[common], help="run one cross-check")
    verify.add_argument("kind", choices=VERIFY_KINDS)
    sub.add_parser("compare-noise", parents=[common], help="common vs idiosyncratic jump regimes")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config)
        if args.seed is not None:
            raw = dict(cfg.raw)
            raw["sim"] = dict(raw["sim"], seed=int(args.seed))
            from .config import parse_config

            cfg = parse_config(raw)
        if args.command == "riccati":
            code, line = run_riccati(cfg, args.out or "riccati.csv")
        elif args.command == "simulate":
            code, line = run_simulate(cfg, args.out or "trajectories.csv")
        elif args.command == "cost":
            code, line = run_cost(cfg, args.out, threads=args.threads)
        elif args.command == "chattering":
            code, line = run_chattering(cfg, args.out, threads=args.threads)
        elif args.command == "verify":
            code, line = run_verify(args.kind, cfg, args.out, threads=args.threads)
        elif args.command == "compare-noise":
            code, line = run_verify("noise", cfg, args.out, threads=args.threads)
        else:  # pragma: no cover - argparse enforces the choices
            raise ConfigError(f"unknown command {args.command!r}")
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return 2
    except (DivergenceError, IllPosedError) as err:
        print(f"numerical failure: {err}", file=sys.stderr)
        return 3
    print(line)
    return code


if __name__ == "__main__":
    sys.exit(main())
