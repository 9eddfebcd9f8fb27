"""Command-line entry point.

Four subcommands wrap the file-level pipeline operations: simulate
renders a scenario into run inputs, run executes the mapping loop over
logged inputs, eval scores an estimate against ground truth, export
converts a landmark map document into PLY clouds. Every PipelineConfig
field is reachable as a flag (nested sections use a section prefix,
e.g. --tracker-iou-threshold); --config loads a JSON file first and
flags override it. SEMMAP_LOG selects the log level (debug, info,
warning, error).

Exit codes: 0 success, 1 usage error, 2 malformed or inconsistent
data or a path that cannot be read or written, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np

from .errors import MappingError, NumericalError
from .io_formats import parse_landmark_map, read_json, write_ply
from .pipeline import CONFIG_SECTIONS, PipelineConfig, cmd_eval, cmd_run, cmd_simulate

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_NUMERICAL = 3


def _flag(name: str) -> str:
    return "--" + name.replace("_", "-")


def _add_config_flags(parser: argparse.ArgumentParser) -> None:
    """One flag per PipelineConfig field; nested sections are prefixed."""
    parser.add_argument("--config", metavar="JSON",
                        help="pipeline config file; flags override it")
    group = parser.add_argument_group("pipeline config overrides")
    defaults = PipelineConfig()
    for f in fields(PipelineConfig):
        if f.name in CONFIG_SECTIONS:
            section = getattr(defaults, f.name)
            for sub in fields(type(section)):
                group.add_argument(
                    _flag(f"{f.name}_{sub.name}"),
                    dest=f"cfg_{f.name}__{sub.name}",
                    type=type(getattr(section, sub.name)), default=None,
                    help=f"{f.name}.{sub.name}")
        else:
            group.add_argument(
                _flag(f.name), dest=f"cfg_{f.name}",
                type=type(getattr(defaults, f.name)), default=None,
                help=f.name)


def _config_from_args(args: argparse.Namespace) -> PipelineConfig:
    """The config file's document with the flags merged in, read by
    PipelineConfig.from_dict once."""
    doc = read_json(args.config) if args.config else {}
    for key, value in vars(args).items():
        if not key.startswith("cfg_") or value is None:
            continue
        name = key[4:]
        if "__" in name:
            section, sub = name.split("__", 1)
            section_doc = doc.setdefault(section, {})
            if isinstance(section_doc, dict):  # else from_dict rejects it
                section_doc[sub] = value
        else:
            doc[name] = value
    return PipelineConfig.from_dict(doc)


def _cmd_simulate(args) -> int:
    info = cmd_simulate(args.scenario, args.out_dir)
    print(json.dumps(info, indent=2, sort_keys=True))
    return EXIT_OK


def _cmd_run(args) -> int:
    cfg = _config_from_args(args)
    manifest = cmd_run(args.detections, args.odometry, args.out_dir,
                       config=cfg)
    print(json.dumps(manifest.to_dict(), indent=2, sort_keys=True))
    return EXIT_OK


def _cmd_eval(args) -> int:
    report = cmd_eval(args.estimate, args.ground_truth, args.out_dir,
                      map_path=args.map, registry_path=args.registry,
                      baseline_path=args.baseline, timings_path=args.timings)
    print(json.dumps(report, indent=2, sort_keys=True))
    return EXIT_OK


def _cmd_export(args) -> int:
    lm_map = parse_landmark_map(args.map)
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    ordered = lm_map.ordered()
    merged = (np.vstack([lm.cloud.points for lm in ordered])
              if ordered else np.empty((0, 3)))
    write_ply(out / "cloud.ply", merged)
    written = ["cloud.ply"]
    if args.per_landmark:
        for lm in ordered:
            name = f"landmark_{lm.id:04d}_{lm.class_id}.ply"
            write_ply(out / name, lm.cloud.points)
            written.append(name)
    print(json.dumps({"landmarks": len(ordered),
                      "points": int(len(merged)),
                      "outputs": [str(out / n) for n in written]},
                     indent=2, sort_keys=True))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="semmap",
        description="semantic landmark mapping over logged detections")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate",
                       help="render a scenario config into run inputs")
    p.add_argument("scenario", help="scenario config JSON")
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("run", help="run the mapping pipeline over logs")
    p.add_argument("--detections", required=True, help="detection log")
    p.add_argument("--odometry", required=True, help="TUM trajectory")
    p.add_argument("--out-dir", required=True)
    _add_config_flags(p)
    p.set_defaults(func=_cmd_run)

    p = sub.add_parser("eval", help="score an estimate against ground truth")
    p.add_argument("--estimate", required=True, help="TUM trajectory")
    p.add_argument("--ground-truth", required=True, help="TUM trajectory")
    p.add_argument("--out-dir", required=True)
    p.add_argument("--map", help="landmark map JSON to score")
    p.add_argument("--registry", help="object registry JSON to score against")
    p.add_argument("--baseline", help="uncorrected trajectory for improvement")
    p.add_argument("--timings", help="timings.json from the run")
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("export", help="export landmark map clouds as PLY")
    p.add_argument("--map", required=True, help="landmark map JSON")
    p.add_argument("--out-dir", required=True)
    p.add_argument("--per-landmark", action="store_true",
                   help="also write one PLY per landmark")
    p.set_defaults(func=_cmd_export)
    return parser


def main(argv=None) -> int:
    level = os.environ.get("SEMMAP_LOG", "warning").upper()
    logging.basicConfig(level=getattr(logging, level, logging.WARNING))
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage problems; the contract says 1
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        return args.func(args)
    except NumericalError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except (MappingError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
