"""Cluster-head manager tests: admission routing, key-list delivery, parking,
scheduled generation, replication, trust reaction to corrupt blocks.

Frozen oracle values used below (computed from the trust/check definitions
independently of the implementation):
  - score after the first valid block with ramp 5: 1/(1+5) = 1/6
  - score after five valid blocks: 5/10 = 0.5
  - an invalid block resets the generator's score to 0.0
"""
from __future__ import annotations

import dataclasses

import pytest
from hypothesis import given, settings, strategies as st

from overchain import manager as manager_mod
from overchain.config import LedgerConfig, parse_scenario
from overchain.crypto import ZERO_DIGEST, digest, generate_keypair, issue_certificate
from overchain.ledger import (
    BlockFault,
    BlockVerdict,
    PayloadTag,
    build_transaction,
    countersign,
    schedule_block_turn,
    verify_chain,
)
from overchain.manager import BlockManager, KeyList, KeyListEntry, chain_summary
from overchain.messages import BaseActor, BlockMessage, DeliverTx, TxMessage, UpdateNotice
from overchain.report import compute_metrics, parse_trace
from overchain.simnet import Engine, LinkModel
from overchain.world import run_scenario

from conftest import forged_block, signed_block, trace_records


class Sink(BaseActor):
    """Records every payload delivered to it."""

    def __init__(self, node_id: str):
        super().__init__(node_id)
        self.got = []

    def handle(self, engine, payload) -> None:
        self.got.append(payload)


def build_world(n_managers: int = 2, *, delay: float = 1.0, **ledger_fields):
    links = LinkModel(default_delay=delay)
    engine = Engine(seed="mgr-test", links=links)
    managers = []
    for i in range(n_managers):
        managers.append(BlockManager(f"obm{i}", generate_keypair(f"obm{i}-key"),
                                     LedgerConfig(**ledger_fields)))
    ids = [m.node_id for m in managers]
    for m in managers:
        m.peers = [other for other in ids if other != m.node_id]
        for other in managers:
            m.manager_names[other.keypair.public] = other.node_id
        engine.add_node(m)
    return engine, managers


def single_tx(seed: str, p_t_id=ZERO_DIGEST):
    kp = generate_keypair(seed)
    return kp, build_transaction(
        p_t_id, digest(seed.encode()), PayloadTag.GENERIC, kp)


def tick_all(engine, managers, period_index: int) -> None:
    ids = [m.node_id for m in managers]
    turn = schedule_block_turn(period_index, ids)
    for m in managers:
        m.tick(engine, period_index, turn)


# -- key list -----------------------------------------------------------------


def test_key_list_add_is_idempotent_and_matches_both_orientations():
    a, b = generate_keypair("a").public, generate_keypair("b").public
    kl = KeyList()
    assert kl.add(KeyListEntry(a, b, "veh"))
    assert not kl.add(KeyListEntry(a, b, "veh"))
    assert len(kl.entries) == 1
    assert [e.member_id for e in kl.matches(a, b)] == ["veh"]
    assert [e.member_id for e in kl.matches(b, a)] == ["veh"]
    assert kl.matches(a, generate_keypair("c").public) == ()
    assert kl.matches(a, None) == ()


def test_key_list_remove_member_clears_only_that_member():
    a, b, c = (generate_keypair(s).public for s in "abc")
    kl = KeyList()
    kl.add(KeyListEntry(a, b, "veh1"))
    kl.add(KeyListEntry(c, b, "veh1"))
    kl.add(KeyListEntry(a, c, "veh2"))
    assert kl.remove_member("veh1") == 2
    assert [e.member_id for e in kl.entries] == ["veh2"]


_KEYS = tuple(generate_keypair(f"kl-{i}").public for i in range(3))
_MEMBERS = ("veh0", "veh1", "veh2")
_KEY_OPS = st.one_of(
    st.tuples(st.just("add"), st.sampled_from(_KEYS), st.sampled_from(_KEYS),
              st.sampled_from(_MEMBERS)),
    st.tuples(st.just("remove"), st.sampled_from(_MEMBERS)),
)


@given(st.lists(_KEY_OPS, max_size=30))
@settings(max_examples=300, deadline=None)
def test_key_list_index_agrees_with_linear_scan(ops):
    kl, ref = KeyList(), []
    for op in ops:
        if op[0] == "add":
            entry = KeyListEntry(*op[1:])
            assert kl.add(entry) == (entry not in ref)
            if entry not in ref:
                ref.append(entry)
        else:
            removed = [e for e in ref if e.member_id == op[1]]
            ref = [e for e in ref if e.member_id != op[1]]
            assert kl.remove_member(op[1]) == len(removed)
        assert kl.entries == ref
        for pk_1 in _KEYS:
            assert kl.matches(pk_1, None) == ()
            for pk_2 in _KEYS:
                expected = [e for e in ref
                            if (e.requester_pk, e.member_pk) in ((pk_1, pk_2), (pk_2, pk_1))]
                assert list(kl.matches(pk_1, pk_2)) == expected


def test_upload_key_pair_requires_membership():
    engine, (m,) = build_world(1)
    a, b = generate_keypair("a").public, generate_keypair("b").public
    assert not m.upload_key_pair(engine, "stranger", a, b)
    m.add_member("veh", "vehicle")
    assert m.upload_key_pair(engine, "veh", a, b)
    assert m.key_list.entries == [KeyListEntry(a, b, "veh")]


# -- admission and routing ------------------------------------------------------


def test_member_transaction_is_pooled_and_replicated_to_peers():
    engine, managers = build_world(3, block_size=1)
    relayed = []  # (receiving peer, message)
    for m in managers[1:]:
        def recording(engine, payload, node_id=m.node_id, real=m.handle):
            relayed.append((node_id, payload))
            real(engine, payload)
        m.handle = recording
    _, tx = single_tx("gen")
    # no peer holds an access entry for it, and it cannot be pooled yet
    unmatched = build_transaction(ZERO_DIGEST, digest(b"unmatched"),
                                  PayloadTag.GENERIC, generate_keypair("um-gen"),
                                  recipient_pk=generate_keypair("um-rcp").public)
    for sent in (tx, unmatched):
        engine.send("obm0", "obm0", TxMessage(sent, origin_member="veh"))
    engine.run()
    for m in managers:
        assert [t.t_id for t in m.pool.values()] == [tx.t_id]
    # only the first-hop manager counts a member origin; relays never re-relay
    assert engine.trace.text().count('"event":"tx_broadcast"') == 2
    assert [(node_id, type(msg), msg.tx, msg.origin_member) for node_id, msg in relayed] \
        == [(node_id, TxMessage, sent, None) for sent in (tx, unmatched)
            for node_id in ("obm1", "obm2")]
    for node_id in ("obm1", "obm2"):
        outcomes = [(r["event"], r["t_id"], r.get("origin"), r.get("reason"))
                    for r in trace_records(engine.trace.text(), "tx_pooled", "tx_dropped",
                                           actor=node_id)]
        assert outcomes == [("tx_pooled", tx.t_id.hex(), "peer", None),
                            ("tx_dropped", unmatched.t_id.hex(), None, "no_match")]


def test_key_pair_match_delivers_to_member_in_either_orientation():
    engine, (m,) = build_world(1)
    veh = Sink("veh")
    engine.add_node(veh)
    req = generate_keypair("requester")
    member = generate_keypair("member")
    m.add_member("veh", "vehicle")
    m.upload_key_pair(engine, "veh", req.public, member.public)

    pending = build_transaction(ZERO_DIGEST, digest(b"p1"),
                                PayloadTag.GENERIC, req, recipient_pk=member.public)
    reverse = build_transaction(ZERO_DIGEST, digest(b"p2"),
                                PayloadTag.GENERIC, member, recipient_pk=req.public)
    engine.send(m.node_id, m.node_id, TxMessage(pending, None))
    engine.send(m.node_id, m.node_id, TxMessage(reverse, None))
    engine.run()
    assert [p.tx.t_id for p in veh.got if isinstance(p, DeliverTx)] == [
        pending.t_id, reverse.t_id]
    assert list(m.pool.values()) == []  # pending transactions are never pooled


def test_countersigned_transaction_is_pooled_and_delivered():
    engine, (m,) = build_world(1)
    veh = Sink("veh")
    engine.add_node(veh)
    req = generate_keypair("requester")
    member = generate_keypair("member")
    m.add_member("veh", "vehicle")
    m.upload_key_pair(engine, "veh", req.public, member.public)

    pending = build_transaction(ZERO_DIGEST, digest(b"p"),
                                PayloadTag.GENERIC, req, recipient_pk=member.public)
    final = countersign(pending, member)
    engine.send(m.node_id, m.node_id, TxMessage(final, origin_member="veh"))
    engine.run()
    assert [t.t_id for t in m.pool.values()] == [final.t_id]
    assert [p.tx.t_id for p in veh.got] == [final.t_id]


def test_unmatched_relayed_pending_transaction_is_dropped_no_match():
    engine, managers = build_world(2)
    attacker = generate_keypair("attacker")
    target = generate_keypair("target")
    legit = generate_keypair("legit")
    # target's keys are registered at obm1 against a different requester
    managers[1].add_member("veh-target", "vehicle")
    managers[1].upload_key_pair(engine, "veh-target",
                                legit.public, target.public)
    attack = build_transaction(ZERO_DIGEST, digest(b"x"),
                               PayloadTag.GENERIC, attacker, recipient_pk=target.public)
    engine.send("obm0", "obm0", TxMessage(attack, origin_member="veh-att"))
    engine.run()
    assert managers[0].drops == {"invalid": 0, "duplicate": 0, "no_match": 0}
    assert managers[1].drops == {"invalid": 0, "duplicate": 0, "no_match": 1}
    for m in managers:
        assert list(m.pool.values()) == [] and attack.t_id not in m.chain.tx_index


def test_drop_partition_counts_invalid_duplicate_no_match():
    engine, (m,) = build_world(1)
    _, good = single_tx("ok")
    # tampered payload with a recomputed id: the id is consistent but the
    # signature no longer covers the body
    bad = dataclasses.replace(good, payload_digest=digest(b"tampered"))
    bad = dataclasses.replace(bad, t_id=bad.compute_t_id())
    _, orphan_parentless = single_tx("fine2")
    lone = build_transaction(ZERO_DIGEST, digest(b"l"),
                             PayloadTag.GENERIC, generate_keypair("who"),
                             recipient_pk=generate_keypair("whom").public)
    for msg in (good, bad, good, lone, orphan_parentless):
        engine.send(m.node_id, m.node_id, TxMessage(msg, None))
    engine.run()
    assert m.drops == {"invalid": 1, "duplicate": 1, "no_match": 1}
    assert len(m.pool) == 2


def test_transaction_that_a_block_brought_first_is_delivered_but_not_pooled_again():
    engine, (gen, peer, bystander) = build_world(3, block_size=1)
    veh = Sink("veh")
    engine.add_node(veh)
    req, member = generate_keypair("requester"), generate_keypair("member")
    peer.add_member("veh", "vehicle")
    peer.upload_key_pair(engine, "veh", req.public, member.public)
    pending = build_transaction(ZERO_DIGEST, digest(b"overtaken"),
                                PayloadTag.GENERIC, req, recipient_pk=member.public)
    final = countersign(pending, member)
    engine.send(gen.node_id, gen.node_id, TxMessage(final, None))  # pooled, not relayed
    engine.run()
    engine.now = 10.0
    gen.tick(engine, 0, gen.node_id)
    engine.run()
    for m in (peer, bystander):
        assert m.chain.tx_index == {final.t_id: (0, 0)}
    # the relay that the block overtook
    for m in (peer, bystander):
        engine.send(gen.node_id, m.node_id, TxMessage(final, None))
    engine.run()
    # the member still gets its final, once, and no second block can repeat it
    assert veh.got == [DeliverTx(final)]
    assert peer.pool == {} and bystander.pool == {}
    assert peer.drops == {"invalid": 0, "duplicate": 0, "no_match": 0}
    assert bystander.drops == {"invalid": 0, "duplicate": 1, "no_match": 0}
    assert [(r["t_id"], r["reason"], r["detail"])
            for r in trace_records(engine.trace.text(), "tx_dropped")] \
        == [(final.t_id.hex(), "duplicate", "arrived via block first")]
    assert [r["actor"] for r in trace_records(engine.trace.text(), "tx_pooled")] == ["obm0"]
    engine.now = 20.0
    assert not peer.flush_turn(engine) and not bystander.flush_turn(engine)


# -- parking -------------------------------------------------------------------


def test_child_parked_until_parent_arrives_then_pool_holds_both_in_order():
    engine, (m,) = build_world(1)
    kp, parent = single_tx("chain-gen")
    child = build_transaction(parent.t_id, digest(b"c"),
                              PayloadTag.GENERIC, kp)
    engine.send(m.node_id, m.node_id, TxMessage(child, None))
    engine.run()
    assert list(m.pool.values()) == [] and len(m.waiting) == 1
    engine.send(m.node_id, m.node_id, TxMessage(parent, None))
    engine.run()
    assert [t.t_id for t in m.pool.values()] == [parent.t_id, child.t_id]
    assert m.waiting == {}


def test_parked_transaction_that_a_block_brings_is_delivered_but_not_pooled_again():
    engine, (gen, peer, bystander) = build_world(3, block_size=2)
    veh = Sink("veh")
    engine.add_node(veh)
    req, member = generate_keypair("requester"), generate_keypair("member")
    peer.add_member("veh", "vehicle")
    peer.upload_key_pair(engine, "veh", req.public, member.public)
    _, parent = single_tx("chain-gen")
    child = countersign(build_transaction(parent.t_id, digest(b"c"),
                                          PayloadTag.GENERIC, req, recipient_pk=member.public),
                        member)
    for m in (peer, bystander):  # the relay of the child outruns its parent
        engine.send(gen.node_id, m.node_id, TxMessage(child, None))
    for tx in (parent, child):
        engine.send(gen.node_id, gen.node_id, TxMessage(tx, None))
    engine.run()
    assert list(peer.waiting) == list(bystander.waiting) == [child.t_id]
    engine.now = 10.0
    gen.tick(engine, 0, gen.node_id)  # one block holds both
    engine.run()
    assert veh.got == [DeliverTx(child)]
    for m in (peer, bystander):
        assert m.waiting == {} and m.pool == {}
        assert [tx.t_id for tx in m.chain.all_transactions()] == [parent.t_id, child.t_id]
    assert peer.drops == {"invalid": 0, "duplicate": 0, "no_match": 0}
    assert [(r["actor"], r["t_id"], r["reason"], r["detail"])
            for r in trace_records(engine.trace.text(), "tx_dropped")] \
        == [("obm2", child.t_id.hex(), "duplicate", "arrived via block first")]


def test_parked_transaction_expires_as_invalid():
    engine, (m,) = build_world(1, pending_timeout=30.0)
    kp, parent = single_tx("chain-gen")
    child = build_transaction(parent.t_id, digest(b"c"),
                              PayloadTag.GENERIC, kp)
    engine.send(m.node_id, m.node_id, TxMessage(child, None))
    engine.run()
    engine.now = 40.0
    m.expire_waiting(engine)
    assert m.waiting == {} and m.drops["invalid"] == 1


# -- scheduled generation and replication ----------------------------------------


def test_scheduled_turn_waits_for_a_full_block():
    engine, managers = build_world(2, block_size=5)
    _, tx = single_tx("only-one")
    engine.send("obm0", "obm0", TxMessage(tx, origin_member="veh"))
    engine.run()
    engine.now = 10.0
    tick_all(engine, managers, 0)
    engine.run()
    assert all(m.chain.height == 0 for m in managers)
    assert len(managers[0].pool) == 1  # still pooled, awaiting a full batch


def test_round_robin_turn_generates_and_replicates():
    engine, managers = build_world(3, block_period=10.0, block_size=1)
    _, tx = single_tx("payload")
    engine.send("obm0", "obm0", TxMessage(tx, origin_member="veh"))
    engine.run()

    engine.now = 10.0
    tick_all(engine, managers, 0)
    engine.run()
    turn = schedule_block_turn(0, [m.node_id for m in managers])
    heads = {m.node_id: m.chain.head_hash for m in managers}
    assert len(set(heads.values())) == 1
    for m in managers:
        assert m.chain.height == 1
        assert list(m.pool.values()) == []
        assert verify_chain(m.chain)
        if m.node_id != turn:
            assert m.trust.score(managers[int(turn[-1])].keypair.public) == pytest.approx(1 / 6)


def test_peer_block_removes_exactly_its_transactions_and_keeps_arrival_order():
    engine, managers = build_world(2, block_size=2)
    obm1 = managers[1]
    _, x = single_tx("peer-only")
    a, b, c, d = (single_tx(s)[1] for s in "abcd")
    engine.send("obm1", "obm1", TxMessage(x, None))
    engine.run()
    for tx in (a, b, c):
        engine.send("obm0", "obm0", TxMessage(tx, origin_member="veh"))
    engine.run()
    engine.send("obm1", "obm1", TxMessage(d, None))
    engine.run()
    assert list(obm1.pool) == [x.t_id, a.t_id, b.t_id, c.t_id, d.t_id]

    engine.now = 10.0
    tick_all(engine, managers, 0)  # obm0's turn: its block takes a, b
    engine.run()
    assert [tx.t_id for tx in managers[0].chain.blocks[0].transactions] == [a.t_id, b.t_id]
    assert [t.t_id for t in obm1.pool.values()] == [x.t_id, c.t_id, d.t_id]

    engine.now = 20.0
    tick_all(engine, managers, 1)  # obm1's turn: oldest-first from what is left
    engine.run()
    assert [tx.t_id for tx in obm1.chain.blocks[1].transactions] == [x.t_id, c.t_id]
    assert [t.t_id for t in obm1.pool.values()] == [d.t_id]


def test_only_turn_manager_generates():
    engine, managers = build_world(3, block_size=1)
    for i in range(3):
        _, tx = single_tx(f"tx{i}")
        engine.send("obm1", "obm1", TxMessage(tx, origin_member="veh"))
    engine.run()
    engine.now = 10.0
    tick_all(engine, managers, 2)  # 2 mod 3 -> obm2's turn
    engine.run()
    text = engine.trace.text()
    assert text.count('"event":"block_formed"') == 1
    assert '"actor":"obm2","event":"block_formed"' in text


def test_trust_ramps_to_half_after_five_valid_blocks():
    engine, managers = build_world(2, block_period=10.0, block_size=1)
    gen, watcher = managers
    for period in range(5):
        kp, tx = single_tx(f"batch{period}")
        engine.send("obm0", "obm0", TxMessage(tx, origin_member="veh"))
        engine.run()
        engine.now = (period + 1) * 10.0
        for m in managers:
            m.tick(engine, period, "obm0")
        engine.run()
    assert watcher.trust.score(gen.keypair.public) == pytest.approx(0.5)
    assert watcher.chain.height == 5


def test_corrupt_block_is_rejected_and_resets_trust():
    engine, managers = build_world(2, block_period=10.0, block_size=1)
    gen, watcher = managers
    for period in range(2):
        _, tx = single_tx(f"t{period}")
        engine.send("obm0", "obm0", TxMessage(tx, origin_member="veh"))
        engine.run()
        engine.now = (period + 1) * 10.0
        for m in managers:
            m.tick(engine, period, "obm0")
        engine.run()
    assert watcher.trust.score(gen.keypair.public) == pytest.approx(2 / 7)
    height_before = watcher.chain.height

    # at its next turn, with nothing pooled, the generator sends a block whose
    # generator signature covers other bytes
    engine.now = 30.0
    for m in managers:
        m.tick(engine, 2, "obm0")
    engine.send("obm0", "obm1", BlockMessage(forged_block(gen.chain, gen.keypair)))
    engine.run()
    assert watcher.chain.height == height_before  # rejected, not appended
    assert watcher.trust.score(gen.keypair.public) == 0.0
    text = engine.trace.text()
    assert '"fault":"bad_generator_sig"' in text


@pytest.mark.parametrize("repeat", ["committed", "twice_in_block"])
def test_every_peer_rejects_a_block_that_repeats_a_transaction(monkeypatch, repeat):
    # At its first turn with a pooled transaction, rogue obm1 broadcasts a
    # signed block whose second transaction repeats one already committed, or
    # its first; it keeps its own chain and pool, so its next turn is honest.
    # The run is test_scenarios' overtaken-relay config with a third manager,
    # so the rogue has two peers.
    honest_generate = BlockManager._generate
    sent = []

    def generate(self, engine, flush):
        if self.node_id != "obm1" or sent or flush or not self.pool or not self.chain.blocks:
            return honest_generate(self, engine, flush)
        first = next(iter(self.pool.values()))
        again = first if repeat == "twice_in_block" else self.chain.blocks[-1].transactions[0]
        sent.append(signed_block(self.chain, self.keypair, [first, again]))
        for peer in self.peers:
            engine.send(self.node_id, peer, BlockMessage(sent[0]))
        return False

    real_validate, verdicts = manager_mod._validate_block, []

    def validate(block, *args):
        verdict = real_validate(block, *args)
        if sent and block is sent[0]:
            verdicts.append(verdict)
        return verdict

    monkeypatch.setattr(BlockManager, "_generate", generate)
    monkeypatch.setattr(manager_mod, "_validate_block", validate)
    world = run_scenario(parse_scenario({
        "name": "rogue", "seed": 16, "duration": 120.0,
        "network": {"managers": 3, "default_delay": 5.0, "jitter": 1.0},
        "ledger": {"block_size": 1, "block_period": 10.0, "period_min": 10.0},
        "actors": {"vehicles": {"count": 2, "template": {"obm": "round_robin"}}},
        "traffic": {"phases": [{"start": 0.0, "stop": 100.0, "pairs": 1, "interval": 7.0}]},
    }))
    (block,) = sent
    assert block.height > 0
    assert verdicts == [BlockVerdict(False, BlockFault.BAD_TRANSACTION, 1, 0)] * 2
    text = world.engine.trace.text()
    records = trace_records(text, "block_validated", "trust_updated")
    rejections = [i for i, r in enumerate(records) if r["event"] == "block_validated"
                  and r["block_id"] == block.block_id.hex()]
    assert sorted(records[i]["actor"] for i in rejections) == ["obm0", "obm2"]
    for i in rejections:
        verdict, trust = records[i], records[i + 1]
        assert (verdict["ok"], verdict["fault"], verdict["verification_count"]) == \
            (False, "bad_transaction", 0)
        assert (trust["actor"], trust["generator"], trust["score"]) == \
            (verdict["actor"], "obm1", 0.0)
    scores = {}
    for r in records:  # no honest generator's trust ever drops
        if r["event"] == "trust_updated" and r["generator"] != "obm1":
            key = (r["actor"], r["generator"])
            assert r["score"] >= scores.get(key, 0.0)
            scores[key] = r["score"]
    metrics = compute_metrics(parse_trace(text))
    assert metrics["chain"]["equal"] == metrics["chain"]["all_valid"] == 1


# -- software-update notification -------------------------------------------------


def _sw_update_world(notify_requires_certificate=True, certify=True):
    engine, (m,) = build_world(1, notify_requires_certificate=notify_requires_certificate)
    veh = Sink("veh")
    svc = Sink("svc")
    engine.add_node(veh)
    engine.add_node(svc)
    m.add_member("veh", "vehicle")
    m.add_member("svc", "service")
    ca = generate_keypair("ca")
    oem = generate_keypair("oem")
    provider = generate_keypair("provider")
    m.ca_pk = ca.public
    if certify:
        m.certified[oem.public] = issue_certificate(ca, "oem", oem.public)
    pending = build_transaction(ZERO_DIGEST, digest(b"binary"),
                                PayloadTag.SW_UPDATE, provider, recipient_pk=oem.public)
    final = countersign(pending, oem)
    engine.send(m.node_id, m.node_id, TxMessage(final, None))
    engine.run()
    return engine, veh, svc, final


def test_certified_software_update_notifies_vehicle_members_only():
    engine, veh, svc, final = _sw_update_world()
    notices = [p for p in veh.got if isinstance(p, UpdateNotice)]
    assert [n.tx.t_id for n in notices] == [final.t_id]
    assert svc.got == []  # service members are not notified


def test_uncertified_countersigner_suppresses_notification():
    engine, veh, svc, _ = _sw_update_world(certify=False)
    assert veh.got == []
    assert '"event":"notify_suppressed"' in engine.trace.text()


def test_certificate_gate_can_be_disabled():
    _, veh, _, final = _sw_update_world(notify_requires_certificate=False, certify=False)
    assert [p.tx.t_id for p in veh.got] == [final.t_id]


# -- requests ---------------------------------------------------------------------


class Requester(BaseActor):
    def __init__(self, node_id: str):
        super().__init__(node_id)
        self.responses = []

    def ask(self, engine, target, kind, data):
        self.send_request(engine, target, kind, data,
                          lambda eng, resp: self.responses.append(resp))


def test_chain_lookup_finds_stored_transaction():
    engine, (m,) = build_world(1, block_size=1)
    asker = Requester("asker")
    engine.add_node(asker)
    _, tx = single_tx("stored")
    engine.send(m.node_id, m.node_id, TxMessage(tx, None))
    engine.run()
    engine.now = 10.0
    m.tick(engine, 0, m.node_id)
    engine.run()

    asker.ask(engine, m.node_id, "chain_lookup", {"t_id": tx.t_id})
    asker.ask(engine, m.node_id, "chain_lookup", {"t_id": digest(b"absent")})
    engine.run()
    found, missing = asker.responses
    assert found == {"tx": tx}
    assert found["tx"] is m.chain.blocks[-1].transactions[0]  # the stored object itself
    assert missing == {"tx": None}


def test_join_and_leave_cluster_manage_membership_and_keys():
    engine, (m,) = build_world(1)
    veh = Requester("veh9")
    engine.add_node(veh)
    req, member = generate_keypair("r"), generate_keypair("m")
    veh.ask(engine, m.node_id, "join_cluster", {
        "member_kind": "vehicle",
        "entries": [(req.public, member.public)],
    })
    engine.run()
    assert veh.responses == [{"ok": True}]
    assert m.members == {"veh9": "vehicle"}
    assert m.key_list.entries == [KeyListEntry(req.public, member.public, "veh9")]

    veh.ask(engine, m.node_id, "leave_cluster", {})
    engine.run()
    assert m.members == {}
    assert m.key_list.entries == []


# -- flush and summary --------------------------------------------------------------


def test_flush_turn_drains_pool_below_block_size():
    engine, (m,) = build_world(1, block_size=10)
    _, tx = single_tx("leftover")
    engine.send(m.node_id, m.node_id, TxMessage(tx, None))
    engine.run()
    engine.now = 5.0
    assert m.flush_turn(engine)
    assert list(m.pool.values()) == [] and m.chain.height == 1
    assert not m.flush_turn(engine)  # nothing left


def test_summary_reports_chain_digest_and_drop_partition():
    engine, (m,) = build_world(1)
    _, tx = single_tx("s")
    engine.send(m.node_id, m.node_id, TxMessage(tx, None))
    engine.run()
    m.emit_summary(engine, chain_summary(m.chain))
    line = [l for l in engine.trace.text().splitlines() if "manager_summary" in l][-1]
    assert '"pool_depth":1' in line and '"chain_digest":"' in line
