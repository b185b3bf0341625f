"""Trace decoding: ``parse_trace`` gives exactly what decoding each non-blank
line on its own gives, and a bad line raises, through ``parse_trace`` and
``build_report`` alike, a ``TraceError`` that names the first line whose own
decode fails; ``build_report`` of a fed text holds less than the text, reports
a trace as it does when it decodes a plain string, and reads the fed metrics
only when they were fed exactly the text's lines; each event
``compute_metrics`` handles moves its metrics, and a record missing the first
field its handler reads is named by ``build_report``; ``Metrics.result``
changes nothing; every expectation op holds on its side of each bound."""
import copy
import dataclasses
import json
import pickle
import sys
import tracemalloc

import pytest

from overchain import report
from overchain.cli import bundled_scenarios
from overchain.config import EXPECTATION_OPS, Expectation, ScenarioConfig, load_scenario
from overchain.report import (
    ExpectationResult,
    Metrics,
    TraceError,
    TraceText,
    build_report,
    evaluate_expectations,
    parse_trace,
    render_json,
)
from overchain.simnet import Trace
from overchain.world import run_scenario


def per_line(text: str) -> list:
    return [json.loads(line) for line in text.splitlines() if line.strip()]


def per_line_error(text: str) -> str:
    """``trace line N: column C: msg`` for the first line whose own decode
    fails, numbered from 1."""
    for number, line in enumerate(text.splitlines(), 1):
        try:
            if line.strip():
                json.loads(line)
        except json.JSONDecodeError as exc:
            return f"trace line {number}: column {exc.colno}: {exc.msg}"
    raise AssertionError("every line decodes on its own")


def trace_errors(text: str) -> list[str]:
    """The ``TraceError`` that ``parse_trace`` raises on ``text``, and the one
    that ``build_report`` raises on it."""
    messages = []
    for read in (lambda: list(parse_trace(text)),
                 lambda: build_report(text, ScenarioConfig("hand_made"))):
        with pytest.raises(TraceError) as err:
            read()
        messages.append(str(err.value))
    return messages


@pytest.mark.parametrize("name", bundled_scenarios())
def test_bundled_traces_decode_as_per_line(bundled, name):
    text = bundled(name).trace_text
    assert list(parse_trace(text)) == per_line(text)


def test_build_report_holds_less_than_the_text(bundled):
    run = bundled("ddos_flood")
    text = run.trace_text
    assert isinstance(text, TraceText)  # so build_report reads the fed metrics
    tracemalloc.start()  # after the text exists, so only the report's own memory counts
    try:
        build_report(text, run.config)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < len(text)


@pytest.mark.parametrize("name", bundled_scenarios())
def test_decoded_report_renders_as_fed_report(bundled, name):
    run = bundled(name)
    assert isinstance(run.trace_text, TraceText)  # so build_report reads the fed metrics
    fed = render_json(build_report(run.trace_text, run.config))
    assert fed == render_json(build_report(str(run.trace_text), run.config))  # decoded


def test_fed_report_of_a_jittered_run_renders_as_the_decoded_report():
    config = load_scenario(bundled_scenarios()["trust_trend"], seed_override=3)
    config = dataclasses.replace(config,
                                 network=dataclasses.replace(config.network, jitter=0.5))
    text = run_scenario(config).engine.trace.text()
    assert isinstance(text, TraceText)
    fed = render_json(build_report(text, config))
    assert fed == render_json(build_report(str(text), config))


def test_trace_text_crosses_a_process_boundary_as_a_plain_str(bundled):
    text = bundled("wrsu_happy_path").trace_text
    for copied in (pickle.loads(pickle.dumps(text)), copy.copy(text), text[:]):
        assert type(copied) is str and copied == text


def test_a_line_from_outside_the_writers_is_decoded():
    config = ScenarioConfig("hand_made")
    trace = Trace()
    trace.emit(0.0, "veh0", "installed", version="v1")
    trace.lines.append(json.dumps(rec("installed", version="v2"), separators=(",", ":")))
    earlier = trace.text()
    assert type(earlier) is TraceText and (earlier.records, earlier.fed) == (2, 1)
    assert build_report(earlier, config).metrics["installs_by_version"] == {"v1": 1, "v2": 1}
    trace.emit(1.0, "veh0", "installed", version="v3")  # fed stays one record short of the lines
    text = trace.text()
    assert type(text) is TraceText and (text.records, text.fed) == (3, 2)
    assert build_report(text, config).metrics["installs_by_version"] == \
        {"v1": 1, "v2": 1, "v3": 1}
    # the metrics have now been fed as many records as the earlier text has
    # lines, but not its lines: it is still decoded
    assert trace.metrics.fed == earlier.records
    assert build_report(earlier, config).metrics["installs_by_version"] == {"v1": 1, "v2": 1}


def test_a_record_written_after_the_text_leaves_the_text_decoded():
    config = ScenarioConfig("hand_made")
    trace = Trace()
    trace.emit(0.0, "veh0", "installed", version="v1")
    text = trace.text()
    trace.emit(1.0, "veh0", "installed", version="v2")
    assert build_report(text, config).metrics["installs_by_version"] == {"v1": 1}
    assert build_report(trace.text(), config).metrics["installs_by_version"] == {"v1": 1, "v2": 1}


def test_a_written_record_the_metrics_cannot_read_fails_the_report():
    trace = Trace()
    trace.emit(0.0, "veh0", "installed", version="v1")
    trace.emit(1.0, "veh0", "installed")  # written, but not fed: it has no version
    earlier = trace.text()
    trace.emit(2.0, "veh0", "installed", version="v2")
    assert len(trace.lines) == 3 and trace.metrics.fed == 2 == earlier.records
    text = trace.text()
    assert type(text) is TraceText and (text.records, text.fed) == (3, 2)  # so decoded
    for either in (earlier, text):  # fed has caught up with the earlier text's lines
        with pytest.raises(TraceError, match=r"^trace line 2: no field 'version'$"):
            build_report(either, ScenarioConfig("hand_made"))


@pytest.mark.parametrize("text", ["", "\n", "\n \r\n", "\n  \r\n\t\n"])
def test_build_report_of_a_trace_without_records_raises(text):
    with pytest.raises(TraceError, match=r"^trace has no records$"):
        build_report(text, ScenarioConfig("empty"))


@pytest.mark.parametrize("text", [
    "",
    "\n\n  \n",
    '{"t":0.0,"actor":"a","event":"x"}',  # no final newline
    '{"t":0.0,"actor":"a","event":"x"}\r\n\r\n  {"t":1.5,"n":[1,{"k":null}]}  \r\n',
    '\n{"a":1}\n\n\t\n{"b":NaN,"c":-Infinity}\n',
])
def test_records_match_per_line_decode(text):
    records = parse_trace(text)
    assert iter(records) is records  # an iterator, not a list of every record
    assert list(records) == per_line(text)


@pytest.mark.parametrize("text", [
    '{"t":0.0,"actor":"a"}\n{"t":1.0,"actor":"b","ev\n{"t":2.0}\n',  # truncated
    '{"t":0.0}\n{"t":1.0}\n{"t":2.0,"act',  # truncated at the end
    '{"t":0.0}\n{"a":1},{"b":2}\n{"t":2.0}\n',  # two objects, comma-separated
    '{"t":0.0}\n{"a":1} {"b":2}\n',  # two objects, space-separated
    '{"a":1}\n[1\n2]\n',  # two lines that are one value only when joined
    '[1\n2],3,[4\n5]\n',  # joined, as many values as lines, but not objects
    '\ufeff{"t":0.0}\n',  # byte order mark
    '{"t":0.0}\n{"a":"x\x01y"}\n',  # raw control character in a string
    # past blank and \r\n lines, which count in the line number
    '{"t":0.0}\r\n\r\n  \n' * 20 + '{"t":1.0}\r\n\n{"t":2.0,"ev\r\n{"t":3.0}\n',
])
def test_malformed_line_raises_the_per_line_error(text):
    assert trace_errors(text) == [per_line_error(text)] * 2


# The characters besides "\n" at which ``str.splitlines`` ends a line: "\r" is
# JSON whitespace, "\x85" and "\u2028" may stand raw in a JSON string, and the
# others may stand nowhere in JSON.
LINE_BREAKS = ["\r", "\x0b", "\x0c", "\x1c", "\x85", "\u2028"]
RECORDS = '{"t":0.0,"actor":"a"}\n%s{"t":2.0}\n'


@pytest.mark.parametrize("text", [
    *(RECORDS % ('{"s":"x%sy"}\n' % c) for c in LINE_BREAKS),  # inside a string value
    *(RECORDS % ('{"a":1}%s{"b":2}\n' % c) for c in LINE_BREAKS),  # between two records
    *(RECORDS % ('{"a":%s1}\n' % c) for c in LINE_BREAKS),  # between two tokens
    RECORDS % "\n",  # a blank line
    RECORDS % " \t \n",  # a whitespace-only line
    # a blank line between halves of one record, with a line of two records
    # after them, so the count of non-blank lines matches the merged records
    RECORDS % '{"a":1\n\n"b":2}\n{"x":1},{"y":2}\n',
], ids=repr)
def test_a_line_break_besides_newline_decodes_as_per_line(text):
    try:
        expected = per_line(text)
    except json.JSONDecodeError:
        assert trace_errors(text) == [per_line_error(text)] * 2
    else:
        assert list(parse_trace(text)) == expected


@pytest.mark.parametrize("text", [
    '{"a":1\n"b":2}\n{"x":1},{"y":2}\n',
    '{"a":1\n\n"b":2}\n{"x":1},{"y":2}\n',
], ids=repr)
def test_lines_that_are_records_only_when_joined_name_the_first(text):
    # as many records as non-blank lines, had the lines been joined with commas
    assert trace_errors(text) == ["trace line 1: column 7: Expecting ',' delimiter"] * 2


@pytest.mark.parametrize("text", [
    '{"a":1}\n[1,2]\n{"b":2}\n',
    '{"a":1}\n"text"\n42\nnull\n',
])
def test_line_that_is_not_an_object_raises(text):
    assert trace_errors(text) == ["trace line 2: not a JSON object"] * 2


@pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"),
                    reason="this interpreter converts integers of any length")
def test_integer_over_the_digit_limit_names_its_line():
    text = '{"t":0}\r\n\n' * 30 + '{"t":' + "7" * 5000 + "}\n"
    for message in trace_errors(text):
        assert message.startswith("trace line 61: ")


def test_every_call_decodes_afresh():
    text = '{"a":[1]}\n'
    first, second = list(parse_trace(text)), list(parse_trace(text))
    assert first == second
    assert first[0] is not second[0]


def rec(event: str, **fields) -> dict:
    return {"t": 0.0, "actor": "obm0", "event": event, **fields}


def leaves(node, prefix: str = "") -> dict:
    """Each metric of ``node`` by its dotted path."""
    out = {}
    for key, value in node.items():
        if isinstance(value, dict):
            out.update(leaves(value, f"{prefix}{key}."))
        else:
            out[f"{prefix}{key}"] = value
    return out


def moved(before: list, record: dict) -> dict:
    """The metrics that ``record``, read after ``before``, sets or changes."""
    old = leaves(report.compute_metrics(before))
    new = leaves(report.compute_metrics([*before, record]))
    assert set(old) <= set(new)
    return {path: value for path, value in new.items() if old.get(path, object()) != value}


_VALIDATED = [rec("block_validated", ok=True, generator="obm1", height=height,
                  verification_count=6) for height in range(1, 9)]

# One case per handled event: the records read before it, the record, the first
# field its handler reads, and every metric it moves.
HANDLED = [
    ("traffic_tx", [], rec("traffic_tx", t_id="t1", recipient="v1"), "t_id",
     {"traffic.sent": 1, "traffic.success": 0.0}),
    ("attack_tx", [], rec("attack_tx", t_id="a1", target_obm="obm0"), "target_obm",
     {"attack.sent": 1}),
    ("tx_delivered", [rec("traffic_tx", t_id="t1", recipient="v1"),
                      rec("attack_tx", t_id="t1", target_obm="obm0")],
     rec("tx_delivered", pending=True, t_id="t1", member="v1"), "t_id",
     {"deliveries.pending": 1, "traffic.delivered": 1, "traffic.success": 1.0,
      "attack.delivered": 1}),
    ("tx_dropped", [rec("attack_tx", t_id="a1", target_obm="obm0")],
     rec("tx_dropped", reason="no_match", t_id="a1"), "actor",
     {"drops.no_match": 1, "drops_by_manager.obm0.no_match": 1, "attack.dropped": 1,
      "attack.dropped_at_target_obm": 1}),
    ("installed", [], rec("installed", version="v2"), "version",
     {"installs": 1, "installs_by_version.v2": 1}),
    ("update_rejected", [], rec("update_rejected", reason="HashMismatch"), "reason",
     {"rejections.HashMismatch": 1}),
    ("approval_rejected", [], rec("approval_rejected", reason="NotFromMyOem"), "reason",
     {"rejections.NotFromMyOem": 1}),
    ("claim_verified", [], rec("claim_verified", verdict="AnchorNotFound"), "verdict",
     {"claims.verdicts.AnchorNotFound": 1}),
    ("upload_rejected", [], rec("upload_rejected", error="BadProof"), "error",
     {"cloud.upload_errors.BadProof": 1}),
    ("handover_skipped", [], rec("handover_skipped", reason="hysteresis"), "reason",
     {"handover.skipped.hysteresis": 1}),
    ("block_formed", [], rec("block_formed", height=1), "actor",
     {"blocks.per_generator.obm0": 1, "blocks.min_per_generator": 1}),
    ("block_validated", _VALIDATED,
     rec("block_validated", ok=True, generator="obm1", height=9, verification_count=3),
     "generator",
     {"verification.first_third_mean.obm1": 6.0, "verification.final_third_mean.obm1": 5.0,
      "verification.ratio.obm1": 0.833333, "verification.max_ratio": 0.833333}),
    ("throughput", [],
     rec("throughput", period=1, rate=2.0, utilization=0.9, band=[0.4, 0.6]), "actor",
     {"dtm.utilization.obm0": [0.9], "dtm.max_out_of_band_run": 1, "dtm.final_in_band": 0}),
    ("manager_summary", [],
     rec("manager_summary", blocks=5, chain_digest="d0", sw_finals=2, pool_depth=3,
         waiting=1), "actor",
     {"chain.heights.obm0": 5, "blocks.height_min": 5, "blocks.height_max": 5,
      "chain.residual_pool_max": 3, "chain.residual_waiting_max": 1,
      "chain.sw_finals_min": 2, "chain.sw_finals_max": 2}),
    ("scenario_end", [], rec("scenario_end", all_valid=True, chains_equal=True), "all_valid",
     {"chain.all_valid": 1, "chain.equal": 1}),
]


def test_every_handled_event_has_a_case():
    assert len({event for event, *_ in HANDLED}) == len(HANDLED) == 15


@pytest.mark.parametrize("event, before, record, first_field, metrics", HANDLED,
                         ids=[case[0] for case in HANDLED])
def test_handled_event_moves_its_metrics(event, before, record, first_field, metrics):
    assert record["event"] == event
    assert moved(before, record) == metrics


@pytest.mark.parametrize("event, before, record, first_field, metrics", HANDLED,
                         ids=[case[0] for case in HANDLED])
def test_handled_event_without_its_first_field_names_the_record(
        event, before, record, first_field, metrics):
    record = {key: value for key, value in record.items() if key != first_field}
    text = "".join(json.dumps(r) + "\n" for r in [rec("tx_pooled"), *before, record])
    with pytest.raises(TraceError) as err:
        build_report(text, ScenarioConfig("hand_made"))
    assert str(err.value) == f"trace line {len(before) + 2}: no field {first_field!r}"


def test_block_validated_that_failed_moves_no_metric():
    assert moved(_VALIDATED, rec("block_validated", ok=False, generator="obm1",
                                 height=9, verification_count=3)) == {}


@pytest.mark.parametrize("event, path", [
    ("installed", "installs"), ("published", "publishes"),
    ("publish_failed", "publish_failures"), ("approved", "approvals"),
    ("update_notified", "notifications"), ("notify_suppressed", "notifications_suppressed"),
    ("tx_pooled", "pooled"), ("tx_parked", "parked"), ("tx_unparked", "unparked"),
    ("anchor", "anchors"), ("backup", "backups"), ("countersigned", "countersigns"),
    ("forged_publish", "attack.forged_publishes"), ("forged_final", "attack.forged_finals"),
    ("claim_filed", "claims.filed"), ("record_uploaded", "cloud.uploads"),
    ("cloud_denied", "cloud.denied"), ("cloud_tampered", "cloud.tampered"),
    ("account_created", "cloud.accounts_created"), ("account_closed", "cloud.accounts_closed"),
    ("handover", "handover.count"), ("probe", "handover.probes"),
    ("block_rejected", "blocks.rejected"),
])
def test_counted_event_moves_its_count(event, path):
    records = [rec(event, version="v2")] * 3
    assert leaves(report.compute_metrics(records))[path] == 3


@pytest.mark.parametrize("event", ["tx_received", "tx_broadcast", "no_such_event"])
def test_event_with_no_metric_moves_none(event):
    assert moved([], rec(event)) == {}


def test_result_changes_nothing_and_feeding_goes_on_after_it():
    records = [r for _, before, record, *_ in HANDLED for r in (*before, record)]
    # two managers' throughput periods out of order, which result() must not sort in place
    records += [rec("throughput", actor=actor, period=period, rate=1.0, utilization=u,
                    band=[0.4, 0.6])
                for actor, period, u in [("obm1", 3, 0.5), ("obm1", 1, 0.9), ("obm2", 2, 0.5),
                                         ("obm1", 2, 0.7), ("obm2", 1, 0.1)]]
    decoded = list(parse_trace("".join(json.dumps(r) + "\n" for r in records)))
    metrics = Metrics()
    for record in records[:-1]:
        metrics.feed(record)
    state = copy.deepcopy(vars(metrics))
    first, second = metrics.result(), metrics.result()
    assert first == second == report.compute_metrics(decoded[:-1])
    assert vars(metrics) == state
    metrics.feed(records[-1])
    assert metrics.result() == report.compute_metrics(decoded)
    assert metrics.result()["dtm"]["utilization"]["obm2"] == [0.1, 0.5]


# With tol 0.5, x.5 sits on a widened bound and x.25/x.75 on either side of
# it; every value is exact in binary. gt and lt take no tolerance.
EXPECTATION_CASES = [
    ({"m": {"x": 5}}, "eq", 5, 5, True, ""),
    ({"m": {"x": 5.5}}, "eq", 5, 5.5, True, ""),
    ({"m": {"x": 4.5}}, "eq", 5, 4.5, True, ""),
    ({"m": {"x": 5.75}}, "eq", 5, 5.75, False, ""),
    ({"m": {"x": 4.25}}, "eq", 5, 4.25, False, ""),
    ({"m": {"x": 5.75}}, "ne", 5, 5.75, True, ""),
    ({"m": {"x": 4.25}}, "ne", 5, 4.25, True, ""),
    ({"m": {"x": 5.5}}, "ne", 5, 5.5, False, ""),
    ({"m": {"x": 4.5}}, "ne", 5, 4.5, False, ""),
    ({"m": {"x": 4.5}}, "ge", 5, 4.5, True, ""),
    ({"m": {"x": 4.25}}, "ge", 5, 4.25, False, ""),
    ({"m": {"x": 5.5}}, "le", 5, 5.5, True, ""),
    ({"m": {"x": 5.75}}, "le", 5, 5.75, False, ""),
    ({"m": {"x": 5.25}}, "gt", 5, 5.25, True, ""),
    ({"m": {"x": 5}}, "gt", 5, 5, False, ""),
    ({"m": {"x": 4.75}}, "gt", 5, 4.75, False, ""),
    ({"m": {"x": 4.75}}, "lt", 5, 4.75, True, ""),
    ({"m": {"x": 5}}, "lt", 5, 5, False, ""),
    ({"m": {"x": 5.25}}, "lt", 5, 5.25, False, ""),
    ({"m": {"x": 2}}, "between", [1, 3], 2, True, ""),
    ({"m": {"x": 0.5}}, "between", [1, 3], 0.5, True, ""),
    ({"m": {"x": 3.5}}, "between", [1, 3], 3.5, True, ""),
    ({"m": {"x": 0.25}}, "between", [1, 3], 0.25, False, ""),
    ({"m": {"x": 3.75}}, "between", [1, 3], 3.75, False, ""),
    ({"m": {"x": True}}, "eq", 1, 1, True, ""),
    ({"m": {"x": False}}, "ge", 1, 0, False, ""),
    ({"m": {"x": "5"}}, "eq", 5, "5", False, "not a number: '5'"),
    ({"m": {"x": None}}, "eq", 5, None, False, "not a number: None"),
    ({"m": {}}, "eq", 5, None, False, "metric not found"),
    ({"m": 5}, "eq", 5, None, False, "metric not found"),
    ({"m": {"x": 5}}, "approx", 5, 5, False, "unknown op approx"),
]


@pytest.mark.parametrize("metrics, op, value, actual, passed, note", EXPECTATION_CASES)
def test_expectation_ops(metrics, op, value, actual, passed, note):
    exp = Expectation("m.x", op, value, tol=0.5)
    [result] = evaluate_expectations(metrics, [exp])
    assert result == ExpectationResult("m.x", op, value, actual, passed, note)
    assert type(result.actual) is type(actual)


def test_expectation_ops_have_a_case_each():
    assert set(EXPECTATION_OPS) <= {op for _, op, *_ in EXPECTATION_CASES}
