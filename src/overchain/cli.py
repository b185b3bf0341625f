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
import sys
from importlib import resources
from itertools import repeat
from pathlib import Path
from typing import Optional

from .config import ConfigError, ScenarioConfig, load_scenario
from .report import TraceError, build_report, render_json, render_plain
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

    trace: Optional[Path] = Path(args.trace) if args.trace else None
    in_dir = trace is not None and (len(configs) > 1 or trace.is_dir())
    files = [f"{config.name}.trace.jsonl" for config in configs]
    if in_dir and trace.exists() and not trace.is_dir():
        print(f"configuration error:\n{trace} is not a directory, "
              f"and {len(configs)} scenarios write their traces into one", file=sys.stderr)
        return 2
    if trace is not None:
        # checked before running; mkdir below makes a trace directory's missing parents
        parent = trace if in_dir else trace.parent
        while in_dir and not parent.exists() and parent != parent.parent:
            parent = parent.parent
        if not parent.is_dir():
            print(f"cannot write trace: no directory {parent}", file=sys.stderr)
            return 2
    if in_dir and len(set(files)) < len(files):
        duplicate = next(name for name in files if files.count(name) > 1)
        print(f"configuration error:\ntwo scenarios would write {trace / duplicate}",
              file=sys.stderr)
        return 2

    jobs = (configs, repeat(args.format), repeat(trace is not None))
    if args.jobs > 1 and len(configs) > 1:
        # imported here, since it costs the start-up of every other command
        from concurrent.futures import ProcessPoolExecutor

        # a forked pool starts all its workers at the first submit
        with ProcessPoolExecutor(max_workers=min(args.jobs, len(configs))) as pool:
            results = list(pool.map(_job_entry, *jobs))
    else:
        results = list(map(_job_entry, *jobs))

    all_passed = True
    for file, (passed, trace_text, rendered) in zip(files, results):
        if trace:  # before the report, so a path that fails prints no report
            try:
                if in_dir:
                    trace.mkdir(parents=True, exist_ok=True)
                (trace / file if in_dir else trace).write_text(trace_text)
            except OSError as exc:
                print(f"cannot write trace: {exc}", file=sys.stderr)
                return 2
        sys.stdout.write(rendered)
        all_passed &= passed
    return 0 if all_passed else 1


def _job_entry(config: ScenarioConfig, format_: str, keep_trace: bool):
    # the world is not held through the report: a collection may free it
    trace_text = run_scenario(config).engine.trace.text()
    report = build_report(trace_text, config)
    return report.passed, trace_text if keep_trace else None, _render(report, format_)


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
        text = Path(args.trace).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        print(f"cannot read trace: {exc}", file=sys.stderr)
        return 2
    config = ScenarioConfig(Path(args.trace).stem)  # no expectations
    if args.config:
        try:
            config = _load(args.config, None)
        except ConfigError as exc:
            print(f"configuration error:\n{exc}", file=sys.stderr)
            return 2
    try:
        report = build_report(text, config)
    except TraceError as exc:
        print(exc, file=sys.stderr)
        return 2
    sys.stdout.write(_render(report, args.format))
    return 0 if report.passed else 1


def _cmd_list(_args) -> int:
    for name in bundled_scenarios():
        print(name)
    return 0


def _jobs(text: str) -> int:
    try:
        jobs = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if jobs < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {jobs}")
    return jobs


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
                       help="write the trace to this file, or as NAME.trace.jsonl "
                            "into this directory if it is one or several scenarios run")
    run_p.add_argument("--format", choices=("plain", "json"), default="plain")
    run_p.add_argument("--jobs", type=_jobs, default=1,
                       help="run scenarios in this many parallel processes (at least 1)")
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
