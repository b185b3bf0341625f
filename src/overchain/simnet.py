"""Deterministic discrete-event network simulation.

A single priority queue orders deliveries by (time, sequence number); ties are
broken by enqueue order, so a run is a pure function of configuration and
seed. All randomness flows from one master seed through named sub-streams, so
per-node behavior stays stable when unrelated configuration changes; a send
reads its sender's ``link:`` stream only when the links have jitter.

``Trace.emit(t, actor, event, **fields)`` writes any record. Ten events have a
positional writer instead, ``Trace.tx_pooled(t, actor, t_id, origin)`` and so
on, which formats the line that ``emit`` would write without building a dict:
the seven routing and traffic events that make up most of a run's records
(``tx_pooled``, ``tx_dropped``, ``tx_delivered``, ``tx_received``,
``tx_broadcast``, ``traffic_tx`` and ``countersigned``), and the three that
every manager writes once per block (``block_validated``, ``block_appended``
and ``trust_updated``), which are most of the end-of-run flush's records. An
event gets a writer only when it is at least 5% of some workload's records, or
most of the records of the end-of-run flush, which runs on one core; every
other event goes through ``emit``, and no ``emit`` call names an event that
has a writer.

The trace feeds each record it writes to its ``report.Metrics``
(``Trace.metrics``), so a run's report needs no decode of its own trace:
``emit`` feeds its record once it is encoded, and a writer counts its record
and, for ``traffic_tx``, ``tx_delivered``, ``tx_dropped`` and
``block_validated``, calls the positional handler of that name. ``text()``
carries their ``result()`` only when they stand for the text (``Trace.text``).
"""
from __future__ import annotations

import hashlib
import heapq
import math
from contextlib import suppress
from json.encoder import JSONEncoder, c_make_encoder, encode_basestring_ascii
from random import Random
from typing import Any, Optional

from .report import Metrics, TraceText


# ---------------------------------------------------------------------------
# structured trace
# ---------------------------------------------------------------------------

# The C encoder that ``JSONEncoder(separators=(",", ":")).encode`` builds on
# every call, built once with the same arguments, so a record encodes to the
# same bytes. No circular-reference markers: emitters pass plain values that
# cannot contain themselves, and a shared markers dict would keep stale ids
# after an encode that raised.
_encode_chunks = c_make_encoder(
    None,                        # markers
    JSONEncoder().default,       # raises TypeError for an unencodable value
    encode_basestring_ascii,     # ensure_ascii
    None, ":", ",",              # indent, key and item separators
    False, False, True)          # sort_keys, skipkeys, allow_nan

# The positional writers' value formats, each what ``_encode_chunks`` writes for
# its value: a string through the encoder's own escaping, a number (an int or a
# finite float, never a bool) by ``repr``, an optional string's None as
# ``null``, and a bool by this table. The table is keyed by type too, since
# ``1 == True``: any value but a bool raises ``KeyError``.
_q = encode_basestring_ascii
_JSON_BOOL = {(bool, True): "true", (bool, False): "false"}


class Trace:
    """Collects line-delimited structured records of everything observable.

    Lines are JSON with insertion-ordered keys; two runs with the same
    configuration and seed produce byte-identical output.
    """

    def __init__(self) -> None:
        self.lines: list[str] = []
        self.metrics = Metrics()  # fed every record written to ``lines``
        self._counts = self.metrics.counts

    def emit(self, t: float, actor: str, event: str, **fields: Any) -> None:
        record = {"t": t, "actor": actor, "event": event, **fields}
        self.lines.append("".join(_encode_chunks(record, 0)))
        try:
            self.metrics.feed(record)
        except Metrics.UNREADABLE:
            pass  # left uncounted: every later text() is a plain str, so decoded

    def text(self) -> str:
        """The lines, each ending in a newline: a ``report.TraceText`` carrying
        ``metrics.result()`` as taken now when there is a line, every line was
        fed and the result reads them; else a plain ``str``, which
        ``report.build_report`` decodes as it does a saved file."""
        lines, metrics = self.lines, self.metrics
        if lines and metrics.fed == len(lines):
            text = TraceText("\n".join([*lines, ""]))  # the join is freed before result()
            with suppress(Metrics.UNREADABLE):
                text.metrics = metrics.result()
                return text
        return "\n".join([*lines, ""])

    # -- positional writers: each line is byte for byte what ``emit`` writes for
    # the same fields, in the same order

    def tx_pooled(self, t: float, actor: str, t_id: str, origin: str) -> None:
        self.lines.append('{"t":%r,"actor":%s,"event":"tx_pooled","t_id":%s,"origin":%s}'
                          % (t, _q(actor), _q(t_id), _q(origin)))
        self._counts["tx_pooled"] += 1

    def tx_dropped(self, t: float, actor: str, t_id: str, reason: str, detail: str) -> None:
        self.lines.append('{"t":%r,"actor":%s,"event":"tx_dropped","t_id":%s,"reason":%s,'
                          '"detail":%s}' % (t, _q(actor), _q(t_id), _q(reason), _q(detail)))
        self.metrics.tx_dropped(actor, t_id, reason)
        self._counts["tx_dropped"] += 1

    def tx_delivered(self, t: float, actor: str, t_id: str, member: str, pending: bool) -> None:
        self.lines.append('{"t":%r,"actor":%s,"event":"tx_delivered","t_id":%s,"member":%s,'
                          '"pending":%s}' % (t, _q(actor), _q(t_id), _q(member),
                                             _JSON_BOOL[type(pending), pending]))
        self.metrics.tx_delivered(t_id, member, pending)
        self._counts["tx_delivered"] += 1

    def tx_received(self, t: float, actor: str, t_id: str, pending: bool) -> None:
        self.lines.append('{"t":%r,"actor":%s,"event":"tx_received","t_id":%s,"pending":%s}'
                          % (t, _q(actor), _q(t_id), _JSON_BOOL[type(pending), pending]))
        self._counts["tx_received"] += 1

    def tx_broadcast(self, t: float, actor: str, t_id: str) -> None:
        self.lines.append('{"t":%r,"actor":%s,"event":"tx_broadcast","t_id":%s}'
                          % (t, _q(actor), _q(t_id)))
        self._counts["tx_broadcast"] += 1

    def traffic_tx(self, t: float, actor: str, t_id: str, sender: str, recipient: str) -> None:
        self.lines.append('{"t":%r,"actor":%s,"event":"traffic_tx","t_id":%s,"sender":%s,'
                          '"recipient":%s}' % (t, _q(actor), _q(t_id), _q(sender), _q(recipient)))
        self.metrics.traffic_tx(t_id, recipient)
        self._counts["traffic_tx"] += 1

    def countersigned(self, t: float, actor: str, pending_t_id: str, t_id: str) -> None:
        self.lines.append('{"t":%r,"actor":%s,"event":"countersigned","pending_t_id":%s,'
                          '"t_id":%s}' % (t, _q(actor), _q(pending_t_id), _q(t_id)))
        self._counts["countersigned"] += 1

    def block_validated(self, t: float, actor: str, block_id: str, height: int,
                        generator: str, ok: bool, fault: Optional[str],
                        verification_count: int) -> None:
        self.lines.append('{"t":%r,"actor":%s,"event":"block_validated","block_id":%s,'
                          '"height":%r,"generator":%s,"ok":%s,"fault":%s,'
                          '"verification_count":%r}'
                          % (t, _q(actor), _q(block_id), height, _q(generator),
                             _JSON_BOOL[type(ok), ok], "null" if fault is None else _q(fault),
                             verification_count))
        self.metrics.block_validated(generator, height, ok, verification_count)
        self._counts["block_validated"] += 1

    def block_appended(self, t: float, actor: str, block_id: str, height: int, n_tx: int,
                       generator: str) -> None:
        self.lines.append('{"t":%r,"actor":%s,"event":"block_appended","block_id":%s,'
                          '"height":%r,"n_tx":%r,"generator":%s}'
                          % (t, _q(actor), _q(block_id), height, n_tx, _q(generator)))
        self._counts["block_appended"] += 1

    def trust_updated(self, t: float, actor: str, generator: str, score: float, valid: int,
                      invalid: int) -> None:
        self.lines.append('{"t":%r,"actor":%s,"event":"trust_updated","generator":%s,'
                          '"score":%r,"valid":%r,"invalid":%r}'
                          % (t, _q(actor), _q(generator), score, valid, invalid))
        self._counts["trust_updated"] += 1


# ---------------------------------------------------------------------------
# link model
# ---------------------------------------------------------------------------

class LinkModel:
    """Symmetric per-pair base delays with optional one-sided jitter.

    A node moves by ``set_link``: the new delay applies to every later send.
    """

    def __init__(self, default_delay: float = 5.0, jitter: float = 0.0):
        self.default_delay = _checked("default_delay", default_delay, 0)
        if not 0 <= jitter < math.inf:  # false for NaN too
            raise ValueError(f"jitter must be a finite number of at least 0, got {jitter!r}")
        self.jitter = jitter
        self._base: dict[tuple[str, str], float] = {}

    def set_link(self, a: str, b: str, delay: float) -> None:
        self._base[(a, b)] = self._base[(b, a)] = _checked("delay", delay, 0)

    def sample(self, a: str, b: str, rng: Random) -> float:
        base = self._base.get((a, b), self.default_delay)
        if self.jitter:
            return base * (1.0 + self.jitter * rng.random())
        return base


def _checked(name: str, value: float, low: float = -math.inf) -> float:
    """``value`` if it is a finite number above ``low``: a NaN or infinite time
    has no place in the queue's time order, and a link delay (``low`` 0) of 0
    or less would deliver at or before the send, ahead of events queued."""
    if not low < value < math.inf:  # false for NaN too
        kind = "positive finite" if low == 0 else "finite"
        raise ValueError(f"{name} must be a {kind} number, got {value!r}")
    return value


# ---------------------------------------------------------------------------
# engine
# ---------------------------------------------------------------------------

class Engine:
    """Single-threaded event loop. Nodes are objects exposing ``node_id`` and
    ``handle(engine, payload)``; each node's state is mutated only from its
    own deliveries."""

    def __init__(self, seed: int | str, links: LinkModel):
        self.seed = seed
        self.links = links
        self.trace = Trace()
        self.now = 0.0
        self.nodes: dict[str, Any] = {}
        self._queue: list[tuple[float, int, str, Any]] = []
        self._seq = 0
        self._rngs: dict[str, Random] = {}

    # -- nodes and randomness ------------------------------------------------

    def add_node(self, node: Any) -> None:
        if node.node_id in self.nodes:
            raise ValueError(f"duplicate node id {node.node_id!r}")
        self.nodes[node.node_id] = node

    def rng(self, stream: str) -> Random:
        rng = self._rngs.get(stream)
        if rng is None:
            material = hashlib.sha256(f"{self.seed}:{stream}".encode()).digest()
            rng = Random(int.from_bytes(material, "big"))
            self._rngs[stream] = rng
        return rng

    # -- scheduling ----------------------------------------------------------

    def _push(self, at: float, target: str, payload: Any) -> None:
        if target not in self.nodes:
            raise KeyError(f"unknown node {target!r}")
        self._seq += 1
        heapq.heappush(self._queue, (at, self._seq, target, payload))

    def send(self, sender: str, target: str, payload: Any) -> None:
        """Network send: delivery after the sampled link delay."""
        links = self.links
        if links.jitter:
            delay = links.sample(sender, target, self.rng(f"link:{sender}"))
        else:  # what ``sample`` returns without jitter, less a call per send
            delay = links._base.get((sender, target), links.default_delay)
        self._push(self.now + delay, target, payload)

    def schedule(self, delay: float, target: str, payload: Any) -> None:
        """Local timer on the target node (no network hop)."""
        self._push(self.now + _checked("delay", delay), target, payload)

    def schedule_at(self, at: float, target: str, payload: Any) -> None:
        self._push(max(_checked("time", at), self.now), target, payload)

    # -- measurements ---------------------------------------------------------

    def probe_rtt(self, sender: str, target: str, samples: int = 3) -> float:
        """Mean round-trip delay over ``samples`` simulated probe exchanges at
        the current link schedule. Consumes no simulated time."""
        rng = self.rng(f"probe:{sender}")
        total = 0.0
        for _ in range(samples):
            total += self.links.sample(sender, target, rng)
            total += self.links.sample(target, sender, rng)
        return total / samples

    # -- main loop -----------------------------------------------------------

    def run(self, max_time: Optional[float] = None) -> bool:
        """Dispatch events in (time, sequence) order until the queue drains.

        Returns True when the run went quiescent (no pending events); False if
        ``max_time`` was hit first with events still pending.
        """
        queue, nodes, pop = self._queue, self.nodes, heapq.heappop
        while queue:
            if max_time is not None and queue[0][0] > max_time:
                return False
            at, _, target, payload = pop(queue)
            if at > self.now:
                self.now = at
            nodes[target].handle(self, payload)
        return True

    @property
    def pending_events(self) -> int:
        return len(self._queue)
