"""Command-line entry point.

Subcommands mirror the experiment kinds: region, simulate,
typicality-audit, aep-audit, packing-probe.  Exit code 0 on full
success, 1 when any sweep row recorded an error, 2 on config failure.
"""

from __future__ import annotations

import argparse
import json
import sys

from .harness import (
    KINDS,
    ParseError,
    ValidationError,
    config_from_dict,
    default_config,
    emit_report,
    read_config,
    run_experiment,
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="markovcoord",
        description="Coordination coding experiments over Markov channels",
    )
    sub = parser.add_subparsers(dest="kind", required=True)
    for kind in KINDS:
        p = sub.add_parser(kind, help=f"run a {kind} experiment")
        p.add_argument("--config", help="path to a JSON experiment config")
        p.add_argument("--out", help="output directory (overrides config)")
        p.add_argument("--seed", type=int, help="master seed (overrides config)")
        p.add_argument("--trials", type=int, help="trials per sweep point (overrides config)")
        p.add_argument("--print-defaults", action="store_true",
                       help="print the default config for this kind and exit")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.print_defaults:
        json.dump(default_config(args.kind), sys.stdout, indent=2, sort_keys=True)
        sys.stdout.write("\n")
        return 0
    if not args.config:
        print("error: --config is required (or use --print-defaults)", file=sys.stderr)
        return 2
    try:
        raw = read_config(args.config)
        overrides = {"master_seed": args.seed, "trials": args.trials,
                     "output_path": args.out}
        raw.update((k, v) for k, v in overrides.items() if v is not None)
        cfg = config_from_dict(raw, kind=args.kind)
    except (ParseError, ValidationError) as e:
        print(f"config error: {e}", file=sys.stderr)
        return 2
    records = run_experiment(cfg)
    paths = emit_report(records, cfg.output_path)
    n_err = sum(bool(r["error"]) for r in records.rows)
    print(f"{len(records.rows)} rows ({n_err} errors) -> {paths['records']}")
    return 1 if n_err else 0


if __name__ == "__main__":
    sys.exit(main())
