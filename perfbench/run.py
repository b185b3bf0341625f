#!/usr/bin/env python3
"""overchain benchmark: one scenario workload run to completion, repeatedly,
in this process, with host-time metrics and a check of every output.

    python3 perfbench/run.py --workload trust_long --seed 17 --seconds 25 --trace 0

Run it from the root of a checkout; it imports overchain from ``src/``.
With ``--trace 0`` it repeats set-up, run and report until ``--seconds`` is
spent and prints the end-to-end metrics: medians over the repeats, each time
scaled to a reference host speed (see ``hostspeed.py``). With
``--trace 1`` it runs the workload once untraced and once under the span
tracer and prints the per-layer metrics. The last line of standard output is
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
``attempted`` and ``failed`` count the scenario's expectation checks over all
repeats, so ``failed / attempted`` is the workload's failed ratio.

See ``perfbench/README.md`` for the metric table and why each workload exists.
"""
from __future__ import annotations

import argparse
import gc
import hashlib
import json
import resource
import statistics
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
SRC = BENCH_DIR.parent / "src"

# workload -> (bundled scenario, or None for the library dict; default seed)
WORKLOADS = {
    "trust_long": ("trust_trend", 17),
    "flood": ("ddos_flood", 5),
    "fleet_scaled": (None, 7),
    "rollout_mix": ("full_demo", 23),
}
MIN_SAMPLES = 11  # fewest set-up and report timings behind a median
# Mean time of HostSpeed's fixed work on the machine the bounds were set on
# (a shared 2-core machine, Python 3.11); the scale of the reported seconds.
REFERENCE_WORK_S = 0.003

END_TO_END = (("setup_s", "s"), ("run_s", "s"), ("report_s", "s"),
              ("total_s", "s"), ("peak_rss_mb", "MB"))


def import_overchain():
    """Import overchain from this checkout's ``src/``, never from elsewhere."""
    package = SRC / "overchain"
    if not (package / "__init__.py").is_file():
        raise SystemExit(f"benchmark: no overchain sources at {package}")
    sys.path[:0] = [str(SRC), str(BENCH_DIR)]
    import overchain
    if Path(overchain.__file__).resolve().parent != package.resolve():
        raise SystemExit(f"benchmark: imported overchain from {overchain.__file__}")


import_overchain()

from overchain import config as config_mod  # noqa: E402
from overchain import report as report_mod  # noqa: E402
from overchain import world as world_mod  # noqa: E402
from fleet_scaled import FLEET_SCALED  # noqa: E402
from hostspeed import HostSpeed  # noqa: E402
from tracer import PAYLOAD_TYPES, Tracer  # noqa: E402

clock = time.perf_counter


def load_config(workload: str, seed: int):
    scenario, _ = WORKLOADS[workload]
    if scenario is None:
        return config_mod.parse_scenario(dict(FLEET_SCALED, seed=seed))
    path = SRC / "overchain" / "scenarios" / f"{scenario}.yaml"
    return config_mod.load_scenario(path, seed_override=seed)


def _direct(_name, fn, *args):
    return fn(*args)


def run_once(workload: str, seed: int, *, tracer: Tracer | None = None,
             speed: HostSpeed | None = None) -> dict:
    """Set up, run and report one scenario; return timings and outputs.
    ``marks`` are the four points in time that bound set-up, run and report."""
    call = tracer.call if tracer is not None else _direct
    mark = speed.mark if speed is not None else lambda: (clock(), 0.0)
    gc.collect()
    m0 = mark()
    config = call("config.load_scenario", load_config, workload, seed)
    world = world_mod.build_world(config)
    m1 = mark()
    # the steps of overchain.world.run_scenario, timed apart from set-up
    engine = world.engine
    world.driver.start(engine)
    engine.run(max_time=config.duration)
    engine.run()
    world.driver.finalize(engine)
    m2 = mark()
    text = engine.trace.text()
    report = report_mod.build_report(text, config)
    m3 = mark()
    return {
        "marks": (m0, m1, m2, m3),
        "run_s": HostSpeed.elapsed(m1, m2),
        "attempted": len(report.results),
        "failed": sum(not r.passed for r in report.results),
        "failures": [f"{r.metric} {r.op} {r.value} (actual {r.actual})"
                     for r in report.results if not r.passed],
        "identity": identity(text, engine),
        "world": world,
    }


def identity(text: str, engine) -> dict:
    """Fingerprint of one run's outputs, compared against baseline.json."""
    verification_count = 0
    for line in engine.trace.lines:
        if '"event":"block_validated"' in line:
            verification_count += json.loads(line)["verification_count"]
    return {
        "trace_sha256": hashlib.sha256(text.encode()).hexdigest(),
        "trace_lines": len(engine.trace.lines),
        "verification_count": verification_count,
        # every scheduled event is dispatched: the run drains the queue
        "dispatch_calls": engine._seq - engine.pending_events,
    }


def measure(workload: str, seed: int, seconds: float) -> tuple[dict, list]:
    """Time repeats of the workload for about ``seconds``, in seconds at the
    reference host speed (see hostspeed.py)."""
    start = clock()
    runs = []
    times = {"setup_s": [], "run_s": [], "report_s": [], "total_s": []}
    with HostSpeed(REFERENCE_WORK_S) as speed:
        while True:
            world = None  # free the previous run's world first
            runs.append(run_once(workload, seed, speed=speed))
            world = runs[-1].pop("world")
            if clock() - start + runs[-1]["run_s"] > seconds:
                break
        # Set-up and report take well under a second each, so the rest of
        # the time goes to extra samples of both.
        setup_and_report = []
        while clock() - start < seconds or len(runs) + len(setup_and_report) < MIN_SAMPLES:
            gc.collect()
            m0 = speed.mark()
            world_mod.build_world(load_config(workload, seed))
            m1 = speed.mark()
            report_mod.build_report(world.engine.trace.text(), world.config)
            setup_and_report.append((m0, m1, speed.mark()))
    for m0, m1, m2, m3 in (r["marks"] for r in runs):
        times["setup_s"].append(speed.scaled(m0, m1))
        times["run_s"].append(speed.scaled(m1, m2))
        times["report_s"].append(speed.scaled(m2, m3))
        times["total_s"].append(speed.scaled(m0, m3))
    for m0, m1, m2 in setup_and_report:
        times["setup_s"].append(speed.scaled(m0, m1))
        times["report_s"].append(speed.scaled(m1, m2))
    print(f"# {len(runs)} runs, {len(times['setup_s'])} set-ups and reports, "
          f"{len(speed.samples)} host speed samples in {clock() - start:.1f} s")
    print(f"# host speed {speed.speed():.4f} of reference; unscaled run_s "
          f"{statistics.median(r['run_s'] for r in runs):.6g}")
    metrics = {name: statistics.median(values) for name, values in times.items()}
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return metrics, runs


def layer_metrics(tracer: Tracer, traced: dict, plain: dict) -> dict:
    """Per-layer numbers from one traced run; ``plain`` is the untraced run."""
    calls, self_s, counts, peaks = tracer.calls, tracer.self_s, tracer.counts, tracer.peaks
    out = {}

    def count(name, value):
        out[name] = (value, "count")

    def seconds(name, value):
        out[name] = (value, "s")

    for name in ("crypto.verify", "crypto.sign", "crypto.digest",
                 "crypto.canonical_join", "crypto.generate_keypair",
                 "ledger.check_integrity", "ledger.validate_block",
                 "ledger.verify_chain", "ledger.append_block", "ledger.form_block",
                 "manager.receive_transaction", "manager.on_block", "manager.tick",
                 "manager.flush_turn", "manager.keylist.matches",
                 "simnet.trace.emit", "vehicle.handle", "services.handle"):
        count(f"{name}.calls", calls(name))
        seconds(f"{name}.self_s", self_s(name))
    verify_calls = calls("crypto.verify")
    count("crypto.verify.false", counts["crypto.verify.false"])
    out["crypto.verify.distinct_ratio"] = (
        len(tracer.verify_triples) / verify_calls if verify_calls else 0.0, "ratio")
    count("ledger.check_integrity.failed", counts["ledger.check_integrity.failed"])
    count("ledger.validate_block.rejected", counts["ledger.validate_block.rejected"])
    count("ledger.validate_block.verification_count",
          counts["ledger.validate_block.verification_count"])
    count("ledger.form_block.empty", counts["ledger.form_block.empty"])
    count("ledger.Transaction.body_bytes.calls", calls("ledger.Transaction.body_bytes"))
    count("ledger.Transaction.compute_t_id.calls", calls("ledger.Transaction.compute_t_id"))

    handlers = ("manager.handle", "vehicle.handle", "services.handle", "world.handle")
    dispatches = sum(calls(name) for name in handlers)
    count("simnet.dispatch.calls", dispatches)
    for payload in PAYLOAD_TYPES:
        name = f"simnet.dispatch.{payload}.calls"
        count(name, counts[name])
    count("simnet.queue.peak", peaks["simnet.queue.peak"])
    out["simnet.events_per_s"] = (dispatches / plain["run_s"], "1/s")
    seconds("simnet.engine.self_s", self_s("simnet.engine"))
    out["simnet.trace.bytes"] = (
        sum(len(line) + 1 for line in traced["world"].engine.trace.lines), "bytes")

    count("manager.keylist.entries.peak", peaks["manager.keylist.entries.peak"])
    count("manager.pool.peak", peaks["manager.pool.peak"])
    for reason in ("invalid", "duplicate", "no_match"):
        count(f"manager.drops.{reason}",
              sum(m.drops[reason] for m in traced["world"].managers))

    seconds("world.build_world.self_s", self_s("world.build_world"))
    seconds("world.finalize.s", tracer.total_s("world.finalize"))
    seconds("world.finalize.self_s", self_s("world.finalize"))
    seconds("config.load_scenario.s", tracer.total_s("config.load_scenario"))
    for name in ("report.trace_text", "report.parse_trace", "report.compute_metrics"):
        seconds(f"{name}.s", tracer.total_s(name))
    seconds("tracing.overhead_s", traced["run_s"] - plain["run_s"])
    return out


def write_spans(tracer: Tracer, workload: str, seed: int) -> Path:
    out_dir = BENCH_DIR / "out"
    out_dir.mkdir(exist_ok=True)
    path = out_dir / f"spans-{workload}-{seed}.jsonl"
    with path.open("w") as fh:
        for span_id, name, start, end, parent in tracer.spans:
            fh.write(json.dumps({"id": span_id, "name": name, "start": start,
                                 "end": end, "parent": parent}) + "\n")
    return path


def trace_run(workload: str, seed: int) -> tuple[dict, list, list]:
    plain = run_once(workload, seed)
    tracer = Tracer()
    tracer.install()
    try:
        traced = run_once(workload, seed, tracer=tracer)
    finally:
        tracer.uninstall()
    problems = []
    if traced["identity"] != plain["identity"]:
        problems.append("traced run's outputs differ from the untraced run's")
    metrics = layer_metrics(tracer, traced, plain)
    if metrics["ledger.validate_block.verification_count"][0] != \
            plain["identity"]["verification_count"]:
        problems.append("traced verification_count disagrees with the trace")
    if metrics["simnet.dispatch.calls"][0] != plain["identity"]["dispatch_calls"]:
        problems.append("traced dispatch count disagrees with the engine's")
    print(f"# spans written to {write_spans(tracer, workload, seed)}")
    return metrics, [plain, traced], problems


def compare_identity(workload: str, seed: int, runs: list) -> list:
    """Check that repeats agree; print how the outputs compare to the
    recorded baseline. A baseline mismatch is reported, not failed."""
    problems = []
    first = runs[0]["identity"]
    if any(r["identity"] != first for r in runs[1:]):
        problems.append("repeated runs of one seed produced different outputs")
    print(f"# identity {json.dumps(first, sort_keys=True)}")
    baseline = json.loads((BENCH_DIR / "baseline.json").read_text())[workload]
    if baseline["seed"] != seed:
        print(f"# identity not compared: baseline is for seed {baseline['seed']}")
        return problems
    for key, value in first.items():
        verdict = "match" if baseline[key] == value else f"MISMATCH (baseline {baseline[key]})"
        print(f"# identity {key}: {verdict}")
    return problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=None,
                        help="scenario seed (default: the workload's own)")
    parser.add_argument("--seconds", type=float, default=25.0,
                        help="time to spend on timed repeats")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    seed = WORKLOADS[args.workload][1] if args.seed is None else args.seed

    if args.trace:
        metrics, runs, problems = trace_run(args.workload, seed)
    else:
        values, runs = measure(args.workload, seed, args.seconds)
        metrics = {name: (values[name], unit) for name, unit in END_TO_END}
        problems = []
    problems += compare_identity(args.workload, seed, runs)

    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    for failure in sorted({f for r in runs for f in r["failures"]}):
        print(f"# FAILED expectation: {failure}")
    for problem in problems:
        print(f"# FAILED check: {problem}")
    print(f"# failed_ratio {failed / attempted:.6f} ({failed} of {attempted} checks)")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value} {unit}")
    print(json.dumps({
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
