"""Metric extraction and expectation checking over run traces.

Everything here is computed from the trace's records alone — no live
simulator state — so a stored trace file can be re-analyzed later and the
numbers reconcile exactly with the events that produced them.

``Metrics`` is fed one record at a time. A run's ``simnet.Trace`` feeds it
each record as it writes it, and ``text()`` is a ``TraceText`` carrying the
result only when every line was fed and read. ``build_report`` of any other
string, such as a saved file, decodes it line by line with ``parse_trace`` and
feeds the records to a fresh ``Metrics`` by ``compute_metrics``; both give the
same report, and a line either cannot read raises a ``TraceError`` naming it.
"""
from __future__ import annotations

import json
from collections import Counter, defaultdict
from dataclasses import dataclass
from typing import Any, Iterable, Iterator, Optional

from .config import EXPECTATION_OPS, ScenarioConfig

__all__ = [
    "ExpectationResult",
    "Metrics",
    "ScenarioReport",
    "TraceError",
    "TraceText",
    "build_report",
    "compute_metrics",
    "evaluate_expectations",
    "parse_trace",
    "render_json",
    "render_plain",
]


class TraceError(ValueError):
    """A bad trace line, named as ``trace line N: …`` (numbered from 1)."""


def parse_trace(text: str) -> Iterator[dict]:
    """The records of a JSON-lines trace, one per non-blank line of
    ``text.splitlines()``, each decoded on its own as it is used; the first bad
    line raises a ``TraceError``."""
    for number, line in enumerate(text.splitlines(), 1):
        if line.strip():
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                raise TraceError(f"trace line {number}: column {exc.colno}: {exc.msg}") from exc
            except ValueError as exc:  # e.g. an integer over the digit limit
                raise TraceError(f"trace line {number}: {exc}") from exc
            except RecursionError as exc:
                raise TraceError(f"trace line {number}: nested too deeply") from exc
            if not isinstance(record, dict):
                raise TraceError(f"trace line {number}: not a JSON object")
            yield record


# Reason strings each counter family can produce.  Pre-seeding them with zeros
# lets expectations assert "this never happened" without tripping over a
# missing key in a run where it indeed never happened.
_REJECTION_REASONS = ("invalid", "NotFromMyOem", "CloudAuthFailed", "DownloadMissing",
                      "HashMismatch", "NotAddressedToMe", "BadProviderSignature",
                      "DigestMismatch")
_DROP_REASONS = ("invalid", "duplicate", "no_match")
_CLAIM_VERDICTS = ("accepted", "AnchorNotFound", "KeyNotRegistered", "DigestMismatch")
_UPLOAD_ERRORS = ("UnknownAccount", "BadProof", "NoSession", "AccessDenied", "NotFound")
_SKIP_REASONS = ("all_above_threshold", "hysteresis")


def _zero_filled(counter: dict, keys: tuple) -> dict:
    merged = {key: 0 for key in keys}
    merged.update(counter)
    return dict(sorted(merged.items()))


# -- metric extraction --------------------------------------------------------------


# A generator's verification trend needs at least this many accepted blocks.
_TREND_MIN_BLOCKS = 9


def _verification_trend(validated: dict) -> dict:
    """Per-generator mean signature checks in the first vs final third of its
    accepted blocks (validators' view, averaged per block height)."""
    out: dict[str, Any] = {"ratio": {}, "first_third_mean": {}, "final_third_mean": {}}
    ratios = []
    for generator, by_height in sorted(validated.items()):
        series = [sum(counts) / len(counts)
                  for _, counts in sorted(by_height.items())]
        if len(series) < _TREND_MIN_BLOCKS:
            continue
        third = len(series) // 3
        first = sum(series[:third]) / third
        final = sum(series[-third:]) / third
        out["first_third_mean"][generator] = round(first, 6)
        out["final_third_mean"][generator] = round(final, 6)
        ratio = round(final / first, 6) if first > 0 else 0.0
        out["ratio"][generator] = ratio
        ratios.append(ratio)
    if ratios:
        out["max_ratio"] = max(ratios)
    return out


def _dtm_metrics(throughput: dict) -> dict:
    max_run = 0
    final_flags = []
    trajectories = {}
    for manager, rows in sorted(throughput.items()):
        rows = sorted(rows, key=lambda r: r["period"])  # a copy: result() changes nothing
        trajectories[manager] = [round(r["utilization"], 6) for r in rows]
        run = 0
        last_active = None
        for row in rows:
            low, high = row["band"]
            in_band = low <= row["utilization"] <= high
            if row["rate"] > 0:
                last_active = in_band
                if not in_band:
                    run += 1
                    max_run = max(max_run, run)
                else:
                    run = 0
            else:
                run = 0
        if last_active is not None:
            final_flags.append(last_active)
    return {
        "max_out_of_band_run": max_run,
        "final_in_band": int(all(final_flags)) if final_flags else 1,
        "utilization": trajectories,
    }


class Metrics:
    """The metrics of a trace, fed one record at a time: ``feed(record)`` reads
    a record, and ``result()`` gives the metrics of every record fed so far.
    ``result`` changes nothing, so feeding may go on after it.

    ``compute_metrics`` feeds the records of a decoded trace; ``simnet.Trace``
    feeds each record it writes. ``emit`` feeds its record through ``feed``. A
    positional writer feeds its fields: it counts its record in ``counts`` and,
    for the four events whose handler reads fields, calls the positional
    handler of the event's name: ``traffic_tx(t_id, recipient)``,
    ``tx_delivered(t_id, member, pending)``, ``tx_dropped(actor, t_id, reason)``
    or ``block_validated(generator, height, ok, verification_count)``, which
    ``feed`` calls too. An accumulator keeps tallies, and keeps whole only the
    records whose fields ``result`` reads (``throughput``, ``manager_summary``
    and ``scenario_end``), never a list of every record.
    """

    # what ``feed`` or ``result`` raises on a record it cannot read
    UNREADABLE = (KeyError, TypeError, ValueError, ArithmeticError)

    def __init__(self) -> None:
        # Records fed, by event: most records are only counted, and a writer
        # counts its own with one ``+= 1``.
        self.counts: dict = defaultdict(int)
        # Plain-dict tallies: ``d[k] = d.get(k, 0) + 1`` on an exact dict is what
        # the interpreter runs fastest.
        self._traffic_recipient = traffic_recipient = {}
        self._attack_target_obm = attack_target_obm = {}
        self._delivered_traffic = delivered_traffic = {}
        self._installs_by_version: dict = {}
        self._rejections: dict = {}
        self._drops_by_manager = drops_by_manager = {}
        self._deliveries = deliveries = {}
        self._attack = attack = {"sent": 0, "delivered": 0, "dropped": 0,
                                 "dropped_at_target_obm": 0}
        self._claims: dict = {}
        self._upload_errors: dict = {}
        self._handover_skipped: dict = {}
        self._blocks_formed: dict = {}
        self._validated = validated = {}  # generator -> height -> signature checks
        self._throughput: dict[str, list] = {}
        self._summaries: dict[str, dict] = {}
        self._scenario_end: Optional[dict] = None

        def traffic_tx(t_id, recipient):
            traffic_recipient[t_id] = recipient

        def tx_delivered(t_id, member, pending):
            kind = "pending" if pending else "final"
            deliveries[kind] = deliveries.get(kind, 0) + 1
            if pending and traffic_recipient.get(t_id) == member:
                delivered_traffic[t_id] = delivered_traffic.get(t_id, 0) + 1
            if t_id in attack_target_obm:
                attack["delivered"] += 1

        def tx_dropped(actor, t_id, reason):
            by_reason = drops_by_manager.get(actor)
            if by_reason is None:
                by_reason = drops_by_manager[actor] = {}
            by_reason[reason] = by_reason.get(reason, 0) + 1
            if t_id in attack_target_obm:
                attack["dropped"] += 1
                if attack_target_obm[t_id] == actor:
                    attack["dropped_at_target_obm"] += 1

        def block_validated(generator, height, ok, verification_count):
            if ok:
                validated.setdefault(generator, {}).setdefault(height, []).append(
                    verification_count)

        self.traffic_tx, self.tx_delivered = traffic_tx, tx_delivered
        self.tx_dropped, self.block_validated = tx_dropped, block_validated

        # One handler per event that moves more than its count.  Each reads its
        # fields in one fixed order, so a record missing several names the first.
        def tally(counter: dict, field: str):
            def on_record(line):
                key = line[field]
                counter[key] = counter.get(key, 0) + 1
            return on_record

        def on_attack_tx(line):
            attack_target_obm[line["t_id"]] = line["target_obm"]
            attack["sent"] += 1

        def on_throughput(line):
            self._throughput.setdefault(line["actor"], []).append(line)

        def on_manager_summary(line):
            self._summaries[line["actor"]] = line

        def on_scenario_end(line):
            self._scenario_end = line

        self._handlers = {
            "traffic_tx": lambda line: traffic_tx(line["t_id"], line["recipient"]),
            "attack_tx": on_attack_tx,
            "tx_delivered": lambda line: tx_delivered(line["t_id"], line["member"],
                                                      line["pending"]),
            "tx_dropped": lambda line: tx_dropped(line["actor"], line["t_id"],
                                                  line["reason"]),
            "installed": tally(self._installs_by_version, "version"),
            "update_rejected": tally(self._rejections, "reason"),
            "approval_rejected": tally(self._rejections, "reason"),
            "claim_verified": tally(self._claims, "verdict"),
            "upload_rejected": tally(self._upload_errors, "error"),
            "handover_skipped": tally(self._handover_skipped, "reason"),
            "block_formed": tally(self._blocks_formed, "actor"),
            "block_validated": lambda line: block_validated(
                line["generator"], line["height"], line["ok"], line["verification_count"]),
            "throughput": on_throughput,
            "manager_summary": on_manager_summary,
            "scenario_end": on_scenario_end,
        }

    @property
    def fed(self) -> int:
        """The records fed so far."""
        return sum(self.counts.values())

    def feed(self, record: dict) -> None:
        """Read one record. A record its handler cannot read raises, and is not
        counted."""
        event = record["event"]
        handler = self._handlers.get(event)
        if handler is not None:
            handler(record)
        self.counts[event] += 1

    def result(self) -> dict:
        """The metrics of the records fed so far."""
        counts = Counter(self.counts)  # 0 for an event the trace does not hold
        traffic_recipient, delivered_traffic = self._traffic_recipient, self._delivered_traffic
        traffic_sent = len(traffic_recipient)
        traffic_done = sum(1 for tid in traffic_recipient if delivered_traffic.get(tid, 0) >= 1)
        duplicates = sum(1 for tid in traffic_recipient if delivered_traffic.get(tid, 0) > 1)

        summaries, scenario_end = self._summaries, self._scenario_end
        heights = {m: s["blocks"] for m, s in sorted(summaries.items())}
        digests = {s["chain_digest"] for s in summaries.values()}
        sw_finals = [s["sw_finals"] for s in summaries.values()]
        blocks_formed = self._blocks_formed
        drops: dict = {}
        for by_reason in self._drops_by_manager.values():
            for reason, n in by_reason.items():
                drops[reason] = drops.get(reason, 0) + n

        return {
            "installs": counts["installed"],
            "installs_by_version": dict(sorted(self._installs_by_version.items())),
            "rejections": _zero_filled(self._rejections, _REJECTION_REASONS),
            "publishes": counts["published"],
            "publish_failures": counts["publish_failed"],
            "approvals": counts["approved"],
            "notifications": counts["update_notified"],
            "notifications_suppressed": counts["notify_suppressed"],
            "drops": _zero_filled(drops, _DROP_REASONS),
            "drops_by_manager": {m: dict(sorted(c.items()))
                                 for m, c in sorted(self._drops_by_manager.items())},
            "deliveries": dict(sorted(self._deliveries.items())),
            "pooled": counts["tx_pooled"],
            "parked": counts["tx_parked"],
            "unparked": counts["tx_unparked"],
            "anchors": counts["anchor"],
            "backups": counts["backup"],
            "countersigns": counts["countersigned"],
            "traffic": {
                "sent": traffic_sent,
                "delivered": traffic_done,
                "success": round(traffic_done / traffic_sent, 6) if traffic_sent else 1.0,
                "duplicate_deliveries": duplicates,
            },
            "attack": {
                **self._attack,
                "forged_publishes": counts["forged_publish"],
                "forged_finals": counts["forged_final"],
            },
            "claims": {"filed": counts["claim_filed"],
                       "verdicts": _zero_filled(self._claims, _CLAIM_VERDICTS)},
            "cloud": {
                "uploads": counts["record_uploaded"],
                "upload_errors": _zero_filled(self._upload_errors, _UPLOAD_ERRORS),
                "denied": counts["cloud_denied"],
                "tampered": counts["cloud_tampered"],
                "accounts_created": counts["account_created"],
                "accounts_closed": counts["account_closed"],
            },
            "handover": {"count": counts["handover"], "probes": counts["probe"],
                         "skipped": _zero_filled(self._handover_skipped, _SKIP_REASONS)},
            "blocks": {
                "per_generator": dict(sorted(blocks_formed.items())),
                "min_per_generator": min(blocks_formed.values()) if blocks_formed else 0,
                "rejected": counts["block_rejected"],
                "height_min": min(heights.values()) if heights else 0,
                "height_max": max(heights.values()) if heights else 0,
            },
            "verification": _verification_trend(self._validated),
            "dtm": _dtm_metrics(self._throughput),
            "chain": {
                "heights": heights,
                "digests_identical": int(len(digests) <= 1),
                "all_valid": int(bool(scenario_end and scenario_end["all_valid"])),
                "equal": int(bool(scenario_end and scenario_end["chains_equal"])),
                "residual_pool_max": max((s["pool_depth"] for s in summaries.values()),
                                         default=0),
                "residual_waiting_max": max((s["waiting"] for s in summaries.values()),
                                            default=0),
                "sw_finals_min": min(sw_finals) if sw_finals else 0,
                "sw_finals_max": max(sw_finals) if sw_finals else 0,
            },
        }


def compute_metrics(lines: Iterable[dict]) -> dict:
    """The metrics of a trace's records, read in one forward pass."""
    metrics = Metrics()
    feed = metrics.feed
    for line in lines:
        feed(line)
    return metrics.result()


# -- expectation checking --------------------------------------------------------------


@dataclass(frozen=True)
class ExpectationResult:
    metric: str
    op: str
    value: Any
    actual: Any
    passed: bool
    note: str = ""


def _lookup(metrics: dict, path: str):
    node: Any = metrics
    for part in path.split("."):
        if not isinstance(node, dict) or part not in node:
            raise KeyError(path)
        node = node[part]
    return node


def evaluate_expectations(metrics: dict, expectations) -> list[ExpectationResult]:
    results = []
    for exp in expectations:
        try:
            actual = _lookup(metrics, exp.metric)
        except KeyError:
            results.append(ExpectationResult(exp.metric, exp.op, exp.value,
                                             None, False, "metric not found"))
            continue
        if isinstance(actual, bool):
            actual = int(actual)
        passes = EXPECTATION_OPS.get(exp.op)
        if not isinstance(actual, (int, float)):
            ok, note = False, f"not a number: {actual!r}"
        elif passes is None:
            ok, note = False, f"unknown op {exp.op}"
        else:
            ok, note = passes(actual, exp.value, exp.tol), ""
        results.append(ExpectationResult(exp.metric, exp.op, exp.value,
                                         actual, ok, note))
    return results


@dataclass(frozen=True)
class ScenarioReport:
    name: str
    seed: int
    metrics: dict
    results: tuple
    passed: bool


class TraceText(str):
    """A trace's text whose ``metrics`` is the ``Metrics.result()`` of exactly
    its records. Every report built from one text shares that dict; nothing
    writes to a report's metrics. A slice, a join, a copy or a pickled one is
    a plain ``str``, so ``run --jobs`` sends its workers' traces as text."""

    metrics: dict

    def __reduce__(self):
        return str, (str(self),)


def build_report(trace_text: str, config: ScenarioConfig) -> ScenarioReport:
    """The report of a trace's text. A ``TraceText`` is reported from the
    metrics it carries. Any other string, such as a saved file, is decoded by
    ``parse_trace``; ``TraceError`` names a bad line, or the record ending the
    shortest prefix ``compute_metrics`` fails on, or says that the trace has
    no records."""
    if isinstance(trace_text, TraceText):
        return _report(trace_text.metrics, config)
    records = list(parse_trace(trace_text))
    if not records:  # every run writes records: an all-zero report would be made up
        raise TraceError("trace has no records")
    try:
        return _report(compute_metrics(records), config)
    except Metrics.UNREADABLE as exc:
        error = exc
    low, high = 0, len(records)  # records[:high] fails; records[:low] does not
    while high - low > 1:
        middle = (low + high) // 2
        try:
            compute_metrics(records[:middle])
            low = middle
        except Metrics.UNREADABLE as exc:
            high, error = middle, exc
    numbers = [number for number, line in enumerate(trace_text.splitlines(), 1) if line.strip()]
    problem = f"no field {error.args[0]!r}" if isinstance(error, KeyError) else error
    raise TraceError(f"trace line {numbers[high - 1]}: {problem}") from error


def _report(metrics: dict, config: ScenarioConfig) -> ScenarioReport:
    results = tuple(evaluate_expectations(metrics, config.expectations))
    passed = all(r.passed for r in results)
    return ScenarioReport(config.name, config.seed, metrics, results, passed)


# -- rendering ---------------------------------------------------------------------------


def _flatten(metrics: dict, prefix: str = "") -> list[tuple[str, Any]]:
    rows = []
    for key, value in metrics.items():
        path = f"{prefix}{key}"
        if isinstance(value, dict):
            rows.extend(_flatten(value, f"{path}."))
        elif isinstance(value, list):
            rows.append((path, f"[{len(value)} values]"))
        else:
            rows.append((path, value))
    return rows


def render_plain(report: ScenarioReport) -> str:
    verdict = "PASS" if report.passed else "FAIL"
    lines = [f"scenario {report.name}  seed {report.seed}  {verdict}"]
    rows = _flatten(report.metrics)
    width = max((len(k) for k, _ in rows), default=0)
    lines.append("-" * (width + 12))
    for key, value in rows:
        lines.append(f"{key:<{width}}  {value}")
    if report.results:
        lines.append("")
        lines.append("expectations:")
        for r in report.results:
            status = "PASS" if r.passed else "FAIL"
            note = f"  ({r.note})" if r.note else ""
            lines.append(f"  {status}  {r.metric} {r.op} {r.value}"
                         f"  actual={r.actual}{note}")
    return "\n".join(lines) + "\n"


def render_json(report: ScenarioReport) -> str:
    payload = {
        "name": report.name,
        "seed": report.seed,
        "passed": report.passed,
        "metrics": report.metrics,
        "expectations": [
            {"metric": r.metric, "op": r.op, "value": r.value,
             "actual": r.actual, "passed": r.passed, "note": r.note}
            for r in report.results
        ],
    }
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"
