"""Command-line entry point: run named experiments, list the catalogue."""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys
from pathlib import Path
from typing import Optional, Sequence

from .experiments import EXPERIMENT_IDS, ExperimentConfig, emit, list_experiments, run

_OUT_ENV = "SCLAB_OUT_DIR"
_EXTENSIONS = {"json": ".json", "csv": ".csv", "text": ".txt"}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sclab",
        description="Desk-scale numerical experiments for scale-calculus "
        "counterexample maps.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run one experiment and print its report")
    run_p.add_argument("experiment", choices=sorted(EXPERIMENT_IDS))
    run_p.add_argument("--config", help="flat JSON config file")
    run_p.add_argument("--seed", type=int, help="override the sampling seed")
    run_p.add_argument(
        "--out",
        help=f"directory for the report file (default: ${_OUT_ENV} or stdout only)",
    )
    run_p.add_argument(
        "--format", choices=sorted(_EXTENSIONS), default="json", dest="fmt"
    )

    sub.add_parser("list", help="list the experiment catalogue")
    return parser


def _load_config(args) -> ExperimentConfig:
    """Build the effective config; every source passes the same validation."""
    if args.config:
        cfg = ExperimentConfig.from_file(args.config, seed=args.seed)
    elif args.seed is not None:
        cfg = ExperimentConfig(seed=args.seed)
    else:
        cfg = ExperimentConfig()
    out = args.out or os.environ.get(_OUT_ENV)
    if out:
        cfg = dataclasses.replace(cfg, out_dir=out)
    return cfg


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Exit status: 0 when every check passed, 1 when a check failed, 2 for a
    usage or config error or a report that cannot be written."""
    args = _build_parser().parse_args(argv)
    if args.command == "list":
        for eid, desc in list_experiments():
            print(f"{eid}: {desc}")
        return 0

    try:
        cfg = _load_config(args)
    except (OSError, ValueError) as exc:
        print(f"sclab: error: {exc}", file=sys.stderr)
        return 2
    report = run(args.experiment, cfg)
    rendered = emit(report, args.fmt)
    if cfg.out_dir:
        path = Path(cfg.out_dir) / f"{args.experiment}{_EXTENSIONS[args.fmt]}"
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(rendered)
        except OSError as exc:
            print(f"sclab: error: cannot write the report: {exc}", file=sys.stderr)
            return 2
        print(f"wrote {path}")
    else:
        sys.stdout.write(rendered)
    return 0 if report.passed else 1


if __name__ == "__main__":
    raise SystemExit(main())
