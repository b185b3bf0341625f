"""Trace decoding: ``parse_trace`` gives exactly what decoding each non-blank
line on its own gives, and a bad line raises a ``TraceError`` that names the
first line whose own decode fails; ``read_report`` reports a trace as
``build_report`` does."""
import json

import pytest

from overchain.cli import bundled_scenarios
from overchain.report import TraceError, build_report, parse_trace, read_report, render_json


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
    assert parse_trace(text) == per_line(text)


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
def test_records_match_per_line_decode(text):
    records = parse_trace(text)
    assert records == per_line(text)
    assert type(records) is list


@pytest.mark.parametrize("text", [
    '{"t":0.0,"actor":"a"}\n{"t":1.0,"actor":"b","ev\n{"t":2.0}\n',  # truncated
    '{"t":0.0}\n{"t":1.0}\n{"t":2.0,"act',  # truncated at the end
    '{"t":0.0}\n{"a":1},{"b":2}\n{"t":2.0}\n',  # two objects, comma-separated
    '{"t":0.0}\n{"a":1} {"b":2}\n',  # two objects, space-separated
    '{"a":1}\n[1\n2]\n',  # two lines that are one value only when joined
    '[1\n2],3,[4\n5]\n',  # joined, as many values as lines, but not objects
    '\ufeff{"t":0.0}\n',  # byte order mark
    '{"t":0.0}\n{"a":"x\x01y"}\n',  # raw control character in a string
])
def test_malformed_line_raises_the_per_line_error(text):
    with pytest.raises(TraceError) as err:
        parse_trace(text)
    assert str(err.value) == per_line_error(text)


@pytest.mark.parametrize("text", [
    '{"a":1}\n[1,2]\n{"b":2}\n',
    '{"a":1}\n"text"\n42\nnull\n',
])
def test_line_that_is_not_an_object_raises(text):
    with pytest.raises(TraceError, match=r"^trace line 2: not a JSON object$"):
        parse_trace(text)


def test_every_call_decodes_afresh():
    text = '{"a":[1]}\n'
    first, second = parse_trace(text), parse_trace(text)
    assert first == second
    assert first[0] is not second[0]
