"""Event engine: ordering, determinism, link schedules, probes, quiescence,
and the trace's record encoding, by ``emit`` and by the positional writers."""
import enum
import hashlib
import heapq
import itertools
import json
import math
from random import Random

import pytest
from hypothesis import given, settings, strategies as st

from overchain.cli import bundled_scenarios
from overchain.ledger import BlockFault
from overchain.messages import AppRequest, BaseActor, Timer
from overchain.simnet import Engine, LinkModel, Trace


class Recorder(BaseActor):
    def __init__(self, node_id):
        super().__init__(node_id)
        self.log = []

    def handle(self, engine, payload):
        """Record plain values; deliver timers and replies as usual."""
        if hasattr(payload, "deliver"):
            super().handle(engine, payload)
        else:
            self.log.append((engine.now, payload))

    def send_now(self, engine, target):
        engine.send(self.node_id, target, engine.now)


def fresh(jitter=0.0, default_delay=10.0, seed=1):
    engine = Engine(seed, LinkModel(default_delay=default_delay, jitter=jitter))
    a, b = Recorder("a"), Recorder("b")
    engine.add_node(a)
    engine.add_node(b)
    return engine, a, b


def test_send_delivers_after_base_delay_no_jitter():
    engine, a, b = fresh()
    engine.send("a", "b", "hello")
    assert engine.run()
    assert b.log == [(10.0, "hello")]


def test_engine_refuses_a_second_node_of_one_id_and_a_delivery_to_no_node():
    engine, a, b = fresh()
    with pytest.raises(ValueError) as duplicate:
        engine.add_node(Recorder("a"))
    assert str(duplicate.value) == "duplicate node id 'a'" and engine.nodes["a"] is a
    with pytest.raises(KeyError) as unknown:
        engine.send("a", "nobody", "hello")
    assert unknown.value.args == ("unknown node 'nobody'",) and engine.pending_events == 0


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_engine_refuses_a_time_that_is_not_finite(bad):
    engine, a, b = fresh()
    engine.now = 4.0
    for delay in (3.0, 1.0, 2.0):
        engine.schedule(delay, "b", delay)
    with pytest.raises(ValueError) as by_delay:
        engine.schedule(bad, "b", "bad")
    assert str(by_delay.value) == f"delay must be a finite number, got {bad!r}"
    with pytest.raises(ValueError) as by_time:
        engine.schedule_at(bad, "b", "bad")
    assert str(by_time.value) == f"time must be a finite number, got {bad!r}"
    assert engine.pending_events == 3
    # a past time is clamped to now; a negative delay is queued before it, and runs at now
    engine.schedule_at(0.5, "b", "past")
    engine.schedule(-1.0, "b", "negative")
    assert engine.run()
    assert b.log == [(4.0, "negative"), (4.0, "past"), (5.0, 1.0), (6.0, 2.0), (7.0, 3.0)]
    assert engine.now == 7.0


def test_equal_time_events_deliver_in_enqueue_order():
    engine, a, b = fresh()
    for i in range(5):
        engine.schedule_at(7.0, "b", f"m{i}")
    engine.run()
    assert [p for _, p in b.log] == ["m0", "m1", "m2", "m3", "m4"]


def test_causality_no_event_before_send_time():
    engine, a, b = fresh(jitter=0.3)
    for i in range(50):
        engine.schedule_at(float(i), "a", Timer(a.send_now, ("b",)))
    engine.run()
    assert len(b.log) == 50
    for arrival, sent_at in b.log:
        assert arrival > sent_at  # delays strictly positive


def test_probe_rtt_symmetric_no_jitter():
    links = LinkModel(default_delay=5.0)
    links.set_link("v", "m", 12.0)
    engine = Engine(1, links)
    engine.add_node(Recorder("v")), engine.add_node(Recorder("m"))
    # mean of 3 round trips, 12 each way -> 24
    assert engine.probe_rtt("v", "m") == 24.0


def test_probe_rtt_sees_schedule_switch():
    links = LinkModel(default_delay=10.0)
    engine = Engine(1, links)
    engine.add_node(Recorder("v")), engine.add_node(Recorder("m"))
    assert engine.probe_rtt("v", "m") == 20.0  # the mean of 3 round trips of 10 + 10
    links.set_link("m", "v", 40.0)  # as move_vehicle does; both directions
    assert engine.probe_rtt("v", "m") == 80.0


def test_probe_rtt_takes_no_sample_count():
    engine = Engine(1, LinkModel(default_delay=10.0))
    engine.add_node(Recorder("v")), engine.add_node(Recorder("m"))
    with pytest.raises(TypeError) as err:
        engine.probe_rtt("v", "m", samples=3)
    assert str(err.value) == "Engine.probe_rtt() got an unexpected keyword argument 'samples'"
    with pytest.raises(TypeError) as err:
        engine.probe_rtt("v", "m", 3)
    assert str(err.value) == "Engine.probe_rtt() takes 3 positional arguments but 4 were given"


def test_probe_rtt_averages_three_jittered_round_trips():
    links = LinkModel(default_delay=10.0, jitter=0.5)
    engine = Engine(1, links)
    engine.add_node(Recorder("v")), engine.add_node(Recorder("m"))
    rng = Engine(1, links).rng("probe:v")  # the same stream probe_rtt draws from
    total = 0.0
    for _ in range(3):
        total += links.sample("v", "m", rng)
        total += links.sample("m", "v", rng)
    assert engine.probe_rtt("v", "m") == total / 3


BAD_DELAYS = [0.0, -0.0, -1.0, -math.inf, math.inf, math.nan]


@pytest.mark.parametrize("delay", BAD_DELAYS)
def test_link_model_refuses_a_default_delay_that_is_not_positive_and_finite(delay):
    with pytest.raises(ValueError, match="^default_delay must be a positive finite number"):
        LinkModel(default_delay=delay)


@pytest.mark.parametrize("delay", BAD_DELAYS)
def test_set_link_refuses_a_delay_that_is_not_positive_and_finite(delay):
    engine, a, b = fresh()
    engine.schedule_at(3.0, "b", "queued")
    with pytest.raises(ValueError, match="^delay must be a positive finite number"):
        engine.links.set_link("a", "b", delay)
    assert engine.links._base == {}  # the link keeps its delay
    engine.schedule_at(3.0, "a", Timer(a.send_now, ("b",)))
    engine.run()
    assert b.log == [(3.0, "queued"), (13.0, 3.0)]  # no delivery ahead of the queue


def test_link_delays_that_are_positive_and_finite_are_kept():
    links = LinkModel(default_delay=5e-324)
    links.set_link("a", "b", 1e308)
    assert links.default_delay == 5e-324 and links._base == {("a", "b"): 1e308,
                                                             ("b", "a"): 1e308}


@pytest.mark.parametrize("jitter", [-3.0, -1e-300, -math.inf, math.inf, math.nan])
def test_link_model_refuses_a_jitter_that_is_negative_or_not_finite(jitter):
    # -3.0 would deliver a send before ``now``, nan at a NaN time
    with pytest.raises(ValueError) as refused:
        LinkModel(default_delay=1.0, jitter=jitter)
    assert str(refused.value) == f"jitter must be a finite number of at least 0, got {jitter!r}"


@pytest.mark.parametrize("jitter", [0, 0.0, -0.0, 5e-324, 0.5, 1e308])
def test_link_model_keeps_a_jitter_of_zero_or_more(jitter):
    links = LinkModel(default_delay=1.0, jitter=jitter)
    assert links.jitter == jitter
    assert 1.0 <= links.sample("a", "b", Random(0)) <= 1.0 + jitter


def test_jitter_bounded_and_deterministic():
    engine1, _, b1 = fresh(jitter=0.2, seed=9)
    engine2, _, b2 = fresh(jitter=0.2, seed=9)
    for eng in (engine1, engine2):
        for i in range(20):
            eng.send("a", "b", i)
        eng.run()
    assert b1.log == b2.log
    for arrival, _ in b1.log:
        assert 10.0 <= arrival <= 12.0  # base 10, jitter fraction up to 0.2


def test_rng_streams_independent_and_stable():
    e1 = Engine(42, LinkModel())
    e2 = Engine(42, LinkModel())
    assert e1.rng("x").random() == e2.rng("x").random()
    assert e1.rng("x").random() != e1.rng("y").random()


def test_run_respects_max_time():
    engine, a, b = fresh()
    engine.schedule_at(100.0, "b", "late")
    assert engine.run(max_time=50.0) is False
    assert engine.pending_events == 1
    assert engine.run() is True
    assert b.log == [(100.0, "late")]


def test_request_response_round_trip():
    class Echo(BaseActor):
        def serve_ping(self, engine, request: AppRequest):
            return {"echo": request.data["value"]}

    engine = Engine(3, LinkModel(default_delay=2.0))
    echo, caller = Echo("server"), Recorder("client")
    engine.add_node(echo), engine.add_node(caller)
    results = []
    caller.send_request(engine, "server", "ping", {"value": 7},
                        lambda eng, data: results.append((eng.now, data)))
    engine.run()
    assert results == [(4.0, {"echo": 7})]


def test_replies_arriving_in_reverse_order_reach_their_own_continuations():
    class Echo(BaseActor):
        def serve_ping(self, engine, request: AppRequest):
            return {"server": self.node_id, **request.data}

    links = LinkModel(default_delay=1.0)
    links.set_link("client", "far", 10.0)
    engine = Engine(3, links)
    caller = Recorder("client")
    for node in (Echo("far"), Echo("near"), caller):
        engine.add_node(node)
    results = []
    for server, value in (("far", 1), ("near", 2)):  # far first; its reply lands last
        caller.send_request(engine, server, "ping", {"value": value},
                            lambda eng, data, server=server:
                            results.append((server, eng.now, data)))
    engine.run()
    assert results == [("near", 2.0, {"server": "near", "value": 2}),
                       ("far", 20.0, {"server": "far", "value": 1})]


def test_trace_lines_deterministic():
    t1, t2 = Trace(), Trace()
    for tr in (t1, t2):
        tr.emit(1.5, "n", "evt", value=3, name="x")
    assert t1.lines == t2.lines
    assert t1.lines[0] == '{"t":1.5,"actor":"n","event":"evt","value":3,"name":"x"}'


def test_trace_text_ends_every_line_with_a_newline():
    trace = Trace()
    assert trace.text() == ""
    for i in range(3):
        trace.emit(float(i), "n", "evt", i=i)
        assert trace.text() == "\n".join(trace.lines) + "\n"


class Tag(str, enum.Enum):
    RED = "red"


def dumps(t, actor, event, **fields) -> str:
    return json.dumps({"t": t, "actor": actor, "event": event, **fields},
                      separators=(",", ":"))


# Field sets whose encoding must equal ``json.dumps`` with compact separators.
EMIT_FIELDS = [
    {"floats": [0.1, 1e-07, 1e16, -0.0, 0.0, 2.5e-300, 1.7976931348623157e308]},
    {"specials": [float("nan"), float("inf"), float("-inf")]},
    {"yes": True, "no": False, "nothing": None, "int": -(2 ** 70), "zero": 0},
    {"nested": {"a": [1, [2, {"b": None}], {}], "c": {"d": []}}, "pair": (1, "x")},
    {"tag": Tag.RED, "tags": [Tag.RED], "by_tag": {Tag.RED: 1}},
    {"keys": {1: "int", 2.5: "float", True: "bool", None: "none"}},
    {"text": "h\u00e9llo \u2713 \U0001F600 \u2028", "control": "\x00\x1f\x7f\n\t\"\\/"},
    {},
]


@pytest.mark.parametrize("fields", EMIT_FIELDS)
def test_emit_encodes_like_json_dumps(fields):
    trace = Trace()
    trace.emit(1.5, "n\u00e9", "evt", **fields)
    assert trace.lines == [dumps(1.5, "n\u00e9", "evt", **fields)]


json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(), inner, max_size=4),
    max_leaves=12)


@given(st.floats(), st.text(), st.dictionaries(st.text(), json_values, max_size=5))
@settings(max_examples=200, deadline=None)
def test_emit_encodes_any_record_like_json_dumps(t, actor, fields):
    fields = {k: v for k, v in fields.items() if k not in ("t", "actor", "event")}
    trace = Trace()
    trace.emit(t, actor, "evt", **fields)
    assert trace.lines == [dumps(t, actor, "evt", **fields)]


# any text, and text made of the characters the encoder escapes
names = st.text() | st.text('"\\/\x00\x1f\x7f\n\té\u2028\ud800\U0001F600x')
times = (st.integers() | st.floats(allow_nan=False, allow_infinity=False)
         | st.sampled_from([-0.0, 1e16, 5e-324, 1.7976931348623157e308]))
flags = st.booleans()
counts = st.integers(0, 2 ** 53)
SCORES = [0.0, 0.1, 1e-07, 0.9]
FAULTS = [None, *(fault.value for fault in BlockFault)]

# Each positional writer's fields after ``t`` and ``actor``, in record order,
# with the values each may take.
WRITER_FIELDS = {
    "tx_pooled": {"t_id": names, "origin": names},
    "tx_dropped": {"t_id": names, "reason": names, "detail": names},
    "tx_delivered": {"t_id": names, "member": names, "pending": flags},
    "tx_received": {"t_id": names, "pending": flags},
    "tx_broadcast": {"t_id": names},
    "traffic_tx": {"t_id": names, "sender": names, "recipient": names},
    "countersigned": {"pending_t_id": names, "t_id": names},
    "block_validated": {"block_id": names, "height": counts, "generator": names, "ok": flags,
                        "fault": st.sampled_from(FAULTS), "verification_count": counts},
    "block_appended": {"block_id": names, "height": counts, "n_tx": counts,
                       "generator": names},
    "trust_updated": {"generator": names, "score": st.sampled_from(SCORES) | st.floats(0, 1),
                      "valid": counts, "invalid": counts},
}


def fed(trace: Trace) -> tuple:
    """What ``trace`` fed its metrics: the records by event, and the metrics."""
    return dict(trace.metrics.counts), trace.metrics.result()


def written_and_emitted(event, t, actor, fields) -> tuple[list, list]:
    """The lines of one record by its writer and by ``emit``, each also fed once,
    to the same metrics."""
    written, emitted = Trace(), Trace()
    getattr(written, event)(t, actor, *fields.values())
    emitted.emit(t, actor, event, **fields)
    assert fed(written) == fed(emitted)
    assert fed(written)[0] == {event: 1}
    return written.lines, emitted.lines


@pytest.mark.parametrize("event", sorted(WRITER_FIELDS))
@given(data=st.data(), t=times, actor=names)
@settings(max_examples=100, deadline=None)
def test_each_writer_writes_the_line_emit_writes(event, data, t, actor):
    fields = {name: data.draw(values, label=name)
              for name, values in WRITER_FIELDS[event].items()}
    written, emitted = written_and_emitted(event, t, actor, fields)
    assert written == emitted


@pytest.mark.parametrize("ok", [True, False])
@pytest.mark.parametrize("fault", FAULTS)
def test_block_writers_write_emit_lines_at_every_flag_fault_and_score(ok, fault):
    block_id = "0f" * 32
    for n, score in itertools.product([0, 1, 10, 2 ** 31, 2 ** 53 - 1, 2 ** 53], SCORES):
        for event, fields in [
            ("block_validated", {"block_id": block_id, "height": n, "generator": "obm1",
                                 "ok": ok, "fault": fault, "verification_count": n}),
            ("block_appended", {"block_id": block_id, "height": n, "n_tx": n,
                                "generator": "obm1"}),
            ("trust_updated", {"generator": "obm1", "score": score, "valid": n, "invalid": n}),
        ]:
            written, emitted = written_and_emitted(event, 12.5, "obm0", fields)
            assert written == emitted, (event, fields)


@pytest.mark.parametrize("event, fields", [
    ("block_validated", {"block_id": "00", "height": 2.5, "generator": "g", "ok": True,
                         "fault": None, "verification_count": 3.75}),
    ("block_appended", {"block_id": "00", "height": 1e16, "n_tx": 0.5, "generator": "g"}),
    ("trust_updated", {"generator": "g", "score": 1e-07, "valid": 1.5, "invalid": 2.0}),
])
def test_block_writers_format_every_number_as_the_encoder_does(event, fields):
    # a float where an int belongs keeps its fraction, as ``emit`` writes it
    written, emitted = written_and_emitted(event, 0, "obm0", fields)
    assert written == emitted
    numbers = [(name, v) for name, v in fields.items() if type(v) is float]
    assert all(f'"{name}":{v!r}' in written[0] for name, v in numbers)  # "%d" drops .5


@pytest.mark.parametrize("pending", [1, 0, None, "true"])
def test_a_writer_refuses_a_flag_that_is_not_a_bool(pending):
    trace = Trace()
    with pytest.raises(KeyError):
        trace.tx_received(1.0, "veh0", "00", pending)
    with pytest.raises(KeyError):
        trace.tx_delivered(1.0, "obm0", "00", "veh0", pending)
    assert trace.lines == []
    assert fed(trace) == fed(Trace())


def test_a_writer_refuses_a_name_that_is_not_a_string():
    trace = Trace()
    with pytest.raises(TypeError):
        trace.tx_broadcast(1.0, "obm0", None)
    with pytest.raises(TypeError):
        trace.tx_dropped(1.0, "obm0", "00", None, "detail")
    assert trace.lines == []
    assert fed(trace) == fed(Trace())


@pytest.mark.parametrize("name", sorted(bundled_scenarios()))
def test_every_bundled_trace_line_reencodes_to_itself(bundled, name):
    for line in bundled(name).trace_text.splitlines():
        assert json.dumps(json.loads(line), separators=(",", ":")) == line


def test_unencodable_value_raises_and_the_next_emit_is_unaffected():
    trace = Trace()
    items = [1, object()]
    with pytest.raises(TypeError, match="not JSON serializable"):
        trace.emit(0.0, "n", "bad", items=items)
    assert trace.lines == []
    with pytest.raises(TypeError, match="not JSON serializable"):
        trace.emit(0.0, "n", "installed", version="v1", items=items)
    assert trace.lines == []
    items[1] = 2  # the list the failed encode was inside, now encodable
    trace.emit(1.0, "n", "good", items=items, again=items)
    assert trace.lines == ['{"t":1.0,"actor":"n","event":"good","items":[1,2],"again":[1,2]}']
    clean = Trace()  # one that never saw the refused records
    clean.emit(1.0, "n", "good", items=items, again=items)
    assert fed(trace) == fed(clean)
    assert fed(trace)[1]["installs"] == 0



@given(st.lists(st.tuples(st.floats(min_value=0, max_value=100, allow_nan=False),
                          st.integers(0, 5)), min_size=1, max_size=40))
@settings(max_examples=200, deadline=None)
def test_dispatch_order_is_nondecreasing_time(events):
    engine = Engine(1, LinkModel())
    rec = Recorder("r")
    engine.add_node(rec)
    for at, val in events:
        engine.schedule_at(at, "r", val)
    engine.run()
    times = [t for t, _ in rec.log]
    assert times == sorted(times)
    assert len(rec.log) == len(events)


# -- dispatch order against a reference (time, seq) heap ---------------------------


class HeapEngine:
    """The engine's scheduling rules as one plain heap of (time, seq) events:
    the order ``Engine`` must keep. ``schedule_at`` queues a past time at
    ``now``; a negative delay is queued as it is, and its event runs at ``now``.
    Link streams are derived as ``Engine.rng`` documents: from the SHA-256 of
    ``"<seed>:link:<sender>"``."""

    def __init__(self, seed, links):
        self.seed, self.links = seed, links
        self.now, self.nodes, self._queue, self._seq, self._rngs = 0.0, {}, [], 0, {}

    def add_node(self, node):
        self.nodes[node.node_id] = node

    def _push(self, at, target, payload):
        self._seq += 1
        heapq.heappush(self._queue, (at, self._seq, target, payload))

    def send(self, sender, target, payload):
        if sender not in self._rngs:
            material = hashlib.sha256(f"{self.seed}:link:{sender}".encode()).digest()
            self._rngs[sender] = Random(int.from_bytes(material, "big"))
        self._push(self.now + self.links.sample(sender, target, self._rngs[sender]),
                   target, payload)

    def schedule(self, delay, target, payload):
        self._push(self.now + delay, target, payload)

    def schedule_at(self, at, target, payload):
        self._push(max(at, self.now), target, payload)

    def run(self, max_time=None):
        while self._queue:
            if max_time is not None and self._queue[0][0] > max_time:
                return False
            at, _, target, payload = heapq.heappop(self._queue)
            self.now = max(self.now, at)
            self.nodes[target].handle(self, payload)
        return True

    @property
    def pending_events(self):
        return len(self._queue)


class Player(BaseActor):
    """Logs each event it is handed, with the engine's clock and counters, then
    makes the pushes ``program`` lists for that event; every push carries the
    next event number."""

    def __init__(self, node_id, program, counter, log):
        super().__init__(node_id)
        self.program, self.counter, self.log = program, counter, log

    def handle(self, engine, payload):
        self.log.append((engine.now, self.node_id, payload, engine.pending_events, engine._seq))
        play(engine, self.node_id, self.program.get(payload, ()), self.counter)


def play(engine, sender, ops, counter):
    for kind, target, value in ops:
        event = next(counter)
        if kind == "send":
            engine.send(sender, target, event)
        elif kind == "schedule":
            engine.schedule(value, target, event)
        else:
            engine.schedule_at(value, target, event)


_PLAYERS = ("p", "q", "r")
_OPS = st.lists(st.tuples(st.sampled_from(["send", "schedule", "schedule_at"]),
                          st.sampled_from(_PLAYERS),
                          st.sampled_from([-1.0, 0.0, 0.5, 1.0, 2.0, 3.5])),  # a delay or a time
                max_size=4)


@given(start=_OPS, program=st.dictionaries(st.integers(0, 12), _OPS, max_size=8),
       jitter=st.sampled_from([0.0, 0.0, 0.5]),
       cuts=st.lists(st.sampled_from([0.0, 0.5, 1.0, 2.0, 3.0, 5.0]), max_size=3))
@settings(max_examples=300, deadline=None)
def test_dispatch_order_matches_a_time_and_sequence_heap(start, program, jitter, cuts):
    """Same-instant sends, zero and negative delays, ``schedule_at`` in the
    past, pushes made during a dispatch, jitter on and off and ``run(max_time)``
    cut-offs: the engine dispatches as the reference heap does, with
    the same clock, pending count and sequence number at every event."""
    runs = []
    for make in (Engine, HeapEngine):
        links = LinkModel(default_delay=1.0, jitter=jitter)
        links.set_link("p", "q", 0.5)
        engine, counter, log = make(4, links), itertools.count(), []
        for node_id in _PLAYERS:
            engine.add_node(Player(node_id, program, counter, log))
        play(engine, "p", start, counter)
        outcomes = []
        for cut in [*cuts, None]:
            outcomes.append((engine.run(max_time=cut), engine.now, engine.pending_events,
                             engine._seq, len(log)))
        runs.append((log, outcomes))
    assert runs[0] == runs[1]
