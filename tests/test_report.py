"""Trace decoding: ``parse_trace`` gives exactly what decoding each non-blank
line on its own gives, at every piece size, and a bad line raises a
``TraceError`` that names the first line whose own decode fails;
``build_report`` holds less than the trace text; ``read_report`` reports a
trace as ``build_report`` does."""
import json
import sys
import tracemalloc

import pytest

from overchain import report
from overchain.cli import bundled_scenarios
from overchain.report import TraceError, build_report, parse_trace, read_report, render_json


def piece_sizes(monkeypatch):
    """Set in turn each size of the pieces ``parse_trace`` cuts a trace into."""
    for size in (1, 7, 100, report._CHUNK):
        monkeypatch.setattr(report, "_CHUNK", size)
        yield size


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


@pytest.mark.parametrize("name", bundled_scenarios())
def test_bundled_traces_decode_as_per_line(bundled, name):
    text = bundled(name).trace_text
    assert list(parse_trace(text)) == per_line(text)


@pytest.mark.parametrize("name", ["ddos_flood", "full_demo", "wrsu_tampered"])
def test_bundled_traces_decode_as_per_line_in_small_pieces(bundled, monkeypatch, name):
    text = bundled(name).trace_text
    for size in piece_sizes(monkeypatch):
        assert list(parse_trace(text)) == per_line(text), size


def test_build_report_holds_less_than_the_text(bundled):
    run = bundled("ddos_flood")
    text = run.trace_text
    tracemalloc.start()  # after the text exists, so only the report's own memory counts
    try:
        build_report(text, run.config)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < len(text)


@pytest.mark.parametrize("name", bundled_scenarios())
def test_read_report_renders_as_build_report(bundled, name):
    run = bundled(name)
    assert (render_json(read_report(run.trace_text, run.config))
            == render_json(build_report(run.trace_text, run.config)))


@pytest.mark.parametrize("text", [
    "",
    "\n\n  \n",
    '{"t":0.0,"actor":"a","event":"x"}',  # no final newline
    '{"t":0.0,"actor":"a","event":"x"}\r\n\r\n  {"t":1.5,"n":[1,{"k":null}]}  \r\n',
    '\n{"a":1}\n\n\t\n{"b":NaN,"c":-Infinity}\n',
])
def test_records_match_per_line_decode(monkeypatch, text):
    for size in piece_sizes(monkeypatch):
        records = parse_trace(text)
        assert iter(records) is records  # an iterator, not a list of every record
        assert list(records) == per_line(text), size


@pytest.mark.parametrize("text", [
    '{"t":0.0,"actor":"a"}\n{"t":1.0,"actor":"b","ev\n{"t":2.0}\n',  # truncated
    '{"t":0.0}\n{"t":1.0}\n{"t":2.0,"act',  # truncated at the end
    '{"t":0.0}\n{"a":1},{"b":2}\n{"t":2.0}\n',  # two objects, comma-separated
    '{"t":0.0}\n{"a":1} {"b":2}\n',  # two objects, space-separated
    '{"a":1}\n[1\n2]\n',  # two lines that are one value only when joined
    '[1\n2],3,[4\n5]\n',  # joined, as many values as lines, but not objects
    '\ufeff{"t":0.0}\n',  # byte order mark
    '{"t":0.0}\n{"a":"x\x01y"}\n',  # raw control character in a string
    # past blank and \r\n lines, so in a later piece at every small size
    '{"t":0.0}\r\n\r\n  \n' * 20 + '{"t":1.0}\r\n\n{"t":2.0,"ev\r\n{"t":3.0}\n',
])
def test_malformed_line_raises_the_per_line_error(monkeypatch, text):
    for size in piece_sizes(monkeypatch):
        with pytest.raises(TraceError) as err:
            list(parse_trace(text))
        assert str(err.value) == per_line_error(text), size


@pytest.mark.parametrize("text", [
    '{"a":1}\n[1,2]\n{"b":2}\n',
    '{"a":1}\n"text"\n42\nnull\n',
])
def test_line_that_is_not_an_object_raises(monkeypatch, text):
    for _ in piece_sizes(monkeypatch):
        with pytest.raises(TraceError, match=r"^trace line 2: not a JSON object$"):
            list(parse_trace(text))


@pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"),
                    reason="this interpreter converts integers of any length")
def test_integer_over_the_digit_limit_names_its_line(monkeypatch):
    text = '{"t":0}\r\n\n' * 30 + '{"t":' + "7" * 5000 + "}\n"
    for _ in piece_sizes(monkeypatch):
        with pytest.raises(TraceError, match=r"^trace line 61: "):
            list(parse_trace(text))


def test_every_call_decodes_afresh():
    text = '{"a":[1]}\n'
    first, second = list(parse_trace(text)), list(parse_trace(text))
    assert first == second
    assert first[0] is not second[0]
