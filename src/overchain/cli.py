"""Command-line front end.

    overchain run CONFIG...        execute scenarios, print reports
    overchain validate CONFIG...   check configuration files only
    overchain report TRACE         recompute metrics from a stored trace
    overchain list                 show bundled scenario names

CONFIG arguments are file paths or bundled scenario names (see ``list``).
Exit codes: 0 all expectations pass, 1 at least one expectation failed,
2 configuration or usage error.
"""
from __future__ import annotations

import argparse
import json
import sys
from concurrent.futures import ProcessPoolExecutor
from importlib import resources
from itertools import repeat
from pathlib import Path
from typing import Optional

from .config import ConfigError, ScenarioConfig, load_scenario
from .report import build_report, compute_metrics, parse_trace, render_json, render_plain
from .world import run_scenario

__all__ = ["main"]


def bundled_scenarios() -> dict[str, Path]:
    root = resources.files("overchain") / "scenarios"
    out = {}
    for entry in sorted(root.iterdir(), key=lambda e: e.name):
        if entry.name.endswith(".yaml"):
            out[entry.name[:-5]] = Path(str(entry))
    return out


def resolve_config_path(arg: str) -> Path:
    path = Path(arg)
    if path.exists():
        return path
    bundled = bundled_scenarios()
    if arg in bundled:
        return bundled[arg]
    raise ConfigError(
        f"{arg}: no such file or bundled scenario "
        f"(bundled: {', '.join(sorted(bundled))})")


def _load(arg: str, seed: Optional[int]) -> ScenarioConfig:
    return load_scenario(resolve_config_path(arg), seed_override=seed)


def _render(report, format_: str) -> str:
    return render_json(report) if format_ == "json" else render_plain(report)


def _cmd_run(args) -> int:
    try:
        configs = [_load(arg, args.seed) for arg in args.configs]
    except ConfigError as exc:
        print(f"configuration error:\n{exc}", file=sys.stderr)
        return 2

    trace_target: Optional[Path] = Path(args.trace) if args.trace else None
    if trace_target and len(configs) > 1:
        trace_target.mkdir(parents=True, exist_ok=True)

    formats = repeat(args.format)
    if args.jobs > 1 and len(configs) > 1:
        with ProcessPoolExecutor(max_workers=args.jobs) as pool:
            results = list(pool.map(_job_entry, configs, formats))
    else:
        results = list(map(_job_entry, configs, formats))

    all_passed = True
    for name, passed, trace_text, rendered in results:
        sys.stdout.write(rendered)
        all_passed &= passed
        if trace_target:
            out = (trace_target / f"{name}.trace.jsonl"
                   if len(configs) > 1 else trace_target)
            out.write_text(trace_text)
    return 0 if all_passed else 1


def _job_entry(config: ScenarioConfig, format_: str):
    world = run_scenario(config)
    trace_text = world.engine.trace.text()
    report = build_report(trace_text, config)
    return config.name, report.passed, trace_text, _render(report, format_)


def _cmd_validate(args) -> int:
    failed = False
    for arg in args.configs:
        try:
            config = _load(arg, None)
        except ConfigError as exc:
            print(f"INVALID {arg}\n{exc}", file=sys.stderr)
            failed = True
        else:
            print(f"ok {arg} ({config.name}: {len(config.vehicles)} vehicles, "
                  f"{config.network.managers} managers, "
                  f"{len(config.script)} directives)")
    return 2 if failed else 0


def _cmd_report(args) -> int:
    try:
        text = Path(args.trace).read_text()
    except OSError as exc:
        print(f"cannot read trace: {exc}", file=sys.stderr)
        return 2
    config = None
    if args.config:
        try:
            config = _load(args.config, None)
        except ConfigError as exc:
            print(f"configuration error:\n{exc}", file=sys.stderr)
            return 2
    try:
        if config is not None:
            report = build_report(text, config)
        else:
            from .report import ScenarioReport
            metrics = compute_metrics(parse_trace(text))
            report = ScenarioReport(Path(args.trace).stem, 0, metrics, (), True)
    except (ValueError, TypeError):  # a malformed line, or a record that is no object
        problem = _bad_trace_line(text)
        if problem is None:
            raise
        print(problem, file=sys.stderr)
        return 2
    sys.stdout.write(_render(report, args.format))
    return 0 if report.passed else 1


def _bad_trace_line(text: str) -> Optional[str]:
    """``trace line N: ...`` for the first non-blank line of ``text`` that is
    not one JSON object, with lines numbered from 1; None if every line is."""
    for number, line in enumerate(text.splitlines(), 1):
        if not line.strip():
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError as exc:
            return f"trace line {number}: column {exc.colno}: {exc.msg}"
        if not isinstance(record, dict):
            return f"trace line {number}: not a JSON object"
    return None


def _cmd_list(_args) -> int:
    for name in bundled_scenarios():
        print(name)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="overchain",
        description="Deterministic vehicular overlay-ledger scenario runner")
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="execute one or more scenarios")
    run_p.add_argument("configs", nargs="+",
                       help="config file paths or bundled scenario names")
    run_p.add_argument("--seed", type=int, default=None,
                       help="override the config seed")
    run_p.add_argument("--trace", default=None,
                       help="write the trace here (a directory when "
                            "running several scenarios)")
    run_p.add_argument("--format", choices=("plain", "json"), default="plain")
    run_p.add_argument("--jobs", type=int, default=1,
                       help="run scenarios in parallel processes")
    run_p.set_defaults(func=_cmd_run)

    val_p = sub.add_parser("validate", help="validate configuration files")
    val_p.add_argument("configs", nargs="+")
    val_p.set_defaults(func=_cmd_validate)

    rep_p = sub.add_parser("report", help="recompute a report from a trace file")
    rep_p.add_argument("trace")
    rep_p.add_argument("--config", default=None,
                       help="evaluate this config's expectations too")
    rep_p.add_argument("--format", choices=("plain", "json"), default="plain")
    rep_p.set_defaults(func=_cmd_report)

    list_p = sub.add_parser("list", help="list bundled scenarios")
    list_p.set_defaults(func=_cmd_list)
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
