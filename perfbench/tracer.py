"""Span tracer for the benchmark's traced run.

The tracer wraps overchain's public functions and methods from outside the
package: a module-level function is replaced in every ``overchain`` module
that binds it (``ledger``, ``services`` and the rest import names directly,
so patching ``crypto`` alone would miss their calls), and a method is
replaced on its class. Each wrapped call becomes a span (id, name, start,
end, parent id) kept in memory. Hot leaf functions are only aggregated into
call count, total time and self time, where self time is the span's duration
minus the time its child spans cover.

``Tracer.install()`` patches, ``Tracer.uninstall()`` restores the originals.
Wall-clock readings stay in the tracer; nothing reaches the simulation, so a
traced run produces the same trace bytes as an untraced one.
"""
from __future__ import annotations

import sys
import time
from collections import Counter, defaultdict

from overchain import crypto, ledger, manager, messages, report, simnet, world

# Node class name -> the layer whose handler a dispatch to that node runs.
HANDLER_LAYER = {
    "BlockManager": "manager",
    "Vehicle": "vehicle",
    "CloudStore": "services",
    "SwProvider": "services",
    "Oem": "services",
    "Insurer": "services",
    "TrafficDriver": "world",
    "Attacker": "world",
    "ScenarioDriver": "world",
}
PAYLOAD_TYPES = ("TxMessage", "BlockMessage", "DeliverTx", "UpdateNotice",
                 "Timer", "AppRequest", "AppResponse")


def overchain_modules() -> list:
    return [mod for name, mod in sorted(sys.modules.items())
            if name == "overchain" or name.startswith("overchain.")]


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple[int, str, float, float, int]] = []
        self.stats: dict[str, list] = defaultdict(lambda: [0, 0.0, 0.0])
        self.counts: Counter = Counter()
        self.peaks: Counter = Counter()
        self.verify_triples: set = set()
        self._stack: list[list] = []  # [span id, child seconds]
        self._next_id = 0
        self.patched: list[tuple] = []  # (owner, attribute, original)

    # -- spans -------------------------------------------------------------------

    def wrap(self, name, fn, *, leaf: bool = False, after=None):
        """Return ``fn`` wrapped in a span. ``name`` is a string or a function
        of the call's arguments; ``after(result, args)`` runs after the span
        closes, so its cost is not charged to any layer."""
        stack, stats, spans, clock = self._stack, self.stats, self.spans, time.perf_counter
        fixed = name if isinstance(name, str) else None

        def traced(*args, **kwargs):
            self._next_id += 1
            span_id = self._next_id
            parent = stack[-1][0] if stack else 0
            frame = [span_id, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                elapsed = end - start
                if stack:
                    stack[-1][1] += elapsed
                label = fixed or name(args)
                row = stats[label]
                row[0] += 1
                row[1] += elapsed
                row[2] += elapsed - frame[1]
                if not leaf:
                    spans.append((span_id, label, start, end, parent))
            if after is not None:
                after(result, args)
            return result

        traced.__wrapped__ = fn
        return traced

    def call(self, name: str, fn, *args):
        """Run ``fn(*args)`` as one span named ``name``."""
        return self.wrap(name, fn)(*args)

    # -- patching ----------------------------------------------------------------

    def patch_function(self, original, wrapper) -> int:
        """Replace ``original`` wherever an overchain module binds it."""
        sites = 0
        for mod in overchain_modules():
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, wrapper)
                    self.patched.append((mod, attr, original))
                    sites += 1
        return sites

    def patch_method(self, cls, attr: str, wrapper) -> None:
        self.patched.append((cls, attr, cls.__dict__[attr]))
        setattr(cls, attr, wrapper)

    def uninstall(self) -> None:
        while self.patched:
            owner, attr, original = self.patched.pop()
            setattr(owner, attr, original)

    def install(self) -> None:
        fn = self.patch_function
        method = self.patch_method
        wrap = self.wrap
        counts, peaks = self.counts, self.peaks

        def after_verify(ok, args):
            message, signature, public_key = args
            self.verify_triples.add((message, signature.data, public_key.data))
            if not ok:
                counts["crypto.verify.false"] += 1

        fn(crypto.verify, wrap("crypto.verify", crypto.verify, leaf=True,
                               after=after_verify))
        method(crypto.KeyPair, "sign",
               wrap("crypto.sign", crypto.KeyPair.sign, leaf=True))
        fn(crypto.digest, wrap("crypto.digest", crypto.digest, leaf=True))
        fn(crypto.canonical_join,
           wrap("crypto.canonical_join", crypto.canonical_join, leaf=True))
        fn(crypto.generate_keypair,
           wrap("crypto.generate_keypair", crypto.generate_keypair, leaf=True))

        def after_integrity(verdict, _args):
            if not verdict.ok:
                counts["ledger.check_integrity.failed"] += 1

        def after_validate(verdict, _args):
            counts["ledger.validate_block.verification_count"] += verdict.verification_count
            if not verdict.ok:
                counts["ledger.validate_block.rejected"] += 1

        def after_form(block, _args):
            if block is None:
                counts["ledger.form_block.empty"] += 1

        fn(ledger.check_integrity, wrap("ledger.check_integrity", ledger.check_integrity,
                                        after=after_integrity))
        fn(ledger.validate_block, wrap("ledger.validate_block", ledger.validate_block,
                                       after=after_validate))
        fn(ledger.verify_chain, wrap("ledger.verify_chain", ledger.verify_chain))
        fn(ledger.append_block, wrap("ledger.append_block", ledger.append_block))
        fn(ledger.form_block, wrap("ledger.form_block", ledger.form_block,
                                   after=after_form))
        for attr in ("body_bytes", "compute_t_id"):
            method(ledger.Transaction, attr,
                   wrap(f"ledger.Transaction.{attr}",
                        ledger.Transaction.__dict__[attr], leaf=True))

        # Every node's handle() is BaseActor.handle; name the span by the
        # layer of the receiving node and count payloads by type.
        def handler_name(args):
            node, _engine, payload = args
            counts[f"simnet.dispatch.{type(payload).__name__}.calls"] += 1
            return f"{HANDLER_LAYER.get(type(node).__name__, 'world')}.handle"

        method(messages.BaseActor, "handle",
               wrap(handler_name, messages.BaseActor.handle))
        method(simnet.Engine, "run", wrap("simnet.engine", simnet.Engine.run))

        def after_push(_result, args):
            depth = args[0].pending_events
            if depth > peaks["simnet.queue.peak"]:
                peaks["simnet.queue.peak"] = depth

        for attr in ("send", "schedule", "schedule_at"):
            original = simnet.Engine.__dict__[attr]
            method(simnet.Engine, attr, _after_only(original, after_push))
        method(simnet.Trace, "emit",
               wrap("simnet.trace.emit", simnet.Trace.emit, leaf=True))
        method(simnet.Trace, "text",
               wrap("report.trace_text", simnet.Trace.text))

        def after_manager(_result, args):
            pool = len(args[0].pool)
            if pool > peaks["manager.pool.peak"]:
                peaks["manager.pool.peak"] = pool

        for attr in ("receive_transaction", "on_block", "tick", "flush_turn"):
            method(manager.BlockManager, attr,
                   wrap(f"manager.{attr}", manager.BlockManager.__dict__[attr],
                        after=after_manager))
        method(manager.KeyList, "matches",
               wrap("manager.keylist.matches", manager.KeyList.matches, leaf=True))

        def after_add(_added, args):
            entries = len(args[0].entries)
            if entries > peaks["manager.keylist.entries.peak"]:
                peaks["manager.keylist.entries.peak"] = entries

        method(manager.KeyList, "add", _after_only(manager.KeyList.add, after_add))

        fn(world.build_world, wrap("world.build_world", world.build_world))
        method(world.ScenarioDriver, "finalize",
               wrap("world.finalize", world.ScenarioDriver.finalize))
        fn(report.parse_trace, wrap("report.parse_trace", report.parse_trace))
        fn(report.compute_metrics, wrap("report.compute_metrics", report.compute_metrics))

    # -- results -----------------------------------------------------------------

    def calls(self, name: str) -> int:
        return self.stats[name][0] if name in self.stats else 0

    def total_s(self, name: str) -> float:
        return self.stats[name][1] if name in self.stats else 0.0

    def self_s(self, name: str) -> float:
        return self.stats[name][2] if name in self.stats else 0.0


def _after_only(fn, after):
    """Wrap ``fn`` with a hook that reads state after each call, no span."""
    def hooked(*args, **kwargs):
        result = fn(*args, **kwargs)
        after(result, args)
        return result

    hooked.__wrapped__ = fn
    return hooked
