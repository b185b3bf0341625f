"""Shared fixtures: each bundled scenario is executed at most once per test
session and the (config, world, trace, report) tuple is cached for reuse; and
a count of backend signature verifies. Also ``trace_records``, the one way
tests read an actor's outcomes: from the trace, as the report does, and
``signed_block``, which seals any transactions into a block."""
import dataclasses
from dataclasses import dataclass
from typing import Optional

import pytest

from overchain import crypto
from overchain.cli import bundled_scenarios
from overchain.config import ScenarioConfig, load_scenario
from overchain.ledger import Block, Chain
from overchain.report import ScenarioReport, build_report, parse_trace
from overchain.world import World, run_scenario


def trace_records(trace_text: str, *events: str,
                  actor: Optional[str] = None) -> list[dict]:
    """The records of ``trace_text`` whose event is one of ``events`` (and
    whose actor is ``actor``, when given), in trace order."""
    return [r for r in parse_trace(trace_text)
            if r["event"] in events and (actor is None or r["actor"] == actor)]


def signed_block(chain: Chain, generator: crypto.KeyPair, transactions) -> Block:
    """A block of ``transactions`` on ``chain``'s head, signed by ``generator``
    and checked for nothing, as a rogue generator may send it."""
    draft = Block(crypto.ZERO_DIGEST, chain.head_hash, generator.public, chain.height,
                  tuple(transactions), crypto.Signature(bytes(64)))
    body = draft.signing_body()
    return dataclasses.replace(draft, block_id=crypto.digest(body),
                               generator_signature=generator.sign(body))


@dataclass
class ScenarioRun:
    config: ScenarioConfig
    world: World
    trace_text: str
    report: ScenarioReport

    @property
    def metrics(self) -> dict:
        return self.report.metrics


@pytest.fixture(scope="session")
def bundled():
    """Lazy cache: `bundled(name)` runs a bundled scenario once and memoizes."""
    paths = bundled_scenarios()
    cache: dict[str, ScenarioRun] = {}

    def get(name: str) -> ScenarioRun:
        if name not in cache:
            config = load_scenario(paths[name])
            world = run_scenario(config)
            trace_text = world.engine.trace.text()
            cache[name] = ScenarioRun(config, world, trace_text,
                                      build_report(trace_text, config))
        return cache[name]

    get.names = tuple(paths)
    return get


@pytest.fixture
def counted_verify(monkeypatch):
    """The signature of every backend verify, once each, wherever it runs: each
    one that ``sign`` hands to the verifier helper, which verifies it unless
    this process takes it, and each one passed to ``crypto.verify`` outside a
    take."""
    calls, taking = [], []
    real_verify, real_submit, real_take = crypto.verify, crypto._submit, crypto._Helper._take

    def counting_verify(message, signature, public_key):
        if not taking:  # a take verifies a triple counted when it was submitted
            calls.append(signature)
        return real_verify(message, signature, public_key)

    def counting_take(helper, index):
        taking.append(index)
        try:
            return real_take(helper, index)
        finally:
            taking.pop()

    def counting_submit(message, signature, public_key):
        pending = real_submit(message, signature, public_key)
        if pending is not None:  # None: no helper runs, so crypto.verify will
            calls.append(signature)
        return pending

    monkeypatch.setattr(crypto, "verify", counting_verify)
    monkeypatch.setattr(crypto, "_submit", counting_submit)
    monkeypatch.setattr(crypto._Helper, "_take", counting_take)
    return calls
