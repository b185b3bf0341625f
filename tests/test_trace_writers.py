"""Each hot trace event has one producer: its positional writer.

``simnet.Trace`` writes ten hot events through positional writers
(``Trace.tx_pooled(t, actor, t_id, origin)`` and so on) and every other event
through ``emit``. ``tests/test_simnet.py`` checks that a
writer's line is ``emit``'s line for the same record; these checks parse
``src/overchain/`` with ``ast`` so that the two encodings of one event cannot
both be in use: no ``emit`` call names an event that has a writer, and every
writer has a caller in the package.
"""
import ast
from pathlib import Path

import overchain

PACKAGE = Path(overchain.__file__).parent
MODULES = sorted(PACKAGE.glob("*.py"))
WRITERS = ["block_appended", "block_validated", "countersigned", "traffic_tx",
           "trust_updated", "tx_broadcast", "tx_delivered", "tx_dropped", "tx_pooled",
           "tx_received"]


def method_calls(source: str) -> list[ast.Call]:
    """Every call of a method, whatever its receiver."""
    return [node for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)]


PACKAGE_CALLS = [call for path in MODULES for call in method_calls(path.read_text())]


def emitted_event(call: ast.Call) -> object:
    """The event an ``emit(t, actor, event, **fields)`` call names: its string
    literal, or the ast node when the event is not a literal."""
    args = dict(enumerate(call.args))
    args.update((2, kw.value) for kw in call.keywords if kw.arg == "event")
    event = args.get(2)
    return event.value if isinstance(event, ast.Constant) else event


def trace_writers() -> list[str]:
    """The methods ``Trace`` defines besides ``emit``, ``text`` and dunders."""
    tree = ast.parse((PACKAGE / "simnet.py").read_text())
    trace = next(node for node in tree.body
                 if isinstance(node, ast.ClassDef) and node.name == "Trace")
    return sorted(item.name for item in trace.body if isinstance(item, ast.FunctionDef)
                  and item.name not in ("emit", "text") and not item.name.startswith("__"))


def test_scanner_reads_the_event_by_position_and_keyword():
    source = ("def f(self, engine):\n"
              "    engine.trace.emit(engine.now, self.node_id, 'a', x=1)\n"
              "    trace.emit(now, node, event='b')\n"
              "    trace.emit(now, node, name)\n")
    events = [emitted_event(call) for call in method_calls(source)]
    assert events[:2] == ["a", "b"] and isinstance(events[2], ast.Name)


def test_trace_has_exactly_the_hot_event_writers():
    assert trace_writers() == WRITERS


def test_no_emit_call_names_an_event_that_has_a_writer():
    events = [emitted_event(call) for call in PACKAGE_CALLS if call.func.attr == "emit"]
    assert len(events) >= 40  # the scan sees the package's records at all
    assert [e for e in events if not isinstance(e, str)] == []  # every event a literal
    assert sorted(set(events) & set(WRITERS)) == []


def test_every_writer_has_a_caller_in_the_package():
    called = {call.func.attr for call in PACKAGE_CALLS}
    assert [name for name in WRITERS if name not in called] == []
