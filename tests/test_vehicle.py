"""Vehicle actor tests: storage anchoring, backup conservation, update
verification outcomes, soft handover, and claim filing.

Frozen oracle values:
  - digest of an empty record store = sha256(b"") =
    e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855
    (canonical join of zero fields is the empty byte string)
"""
from __future__ import annotations

import hashlib

import pytest

from overchain.config import VehicleSpec
from overchain.crypto import (
    ZERO_DIGEST,
    Digest,
    KeyRing,
    canonical_join,
    digest,
    generate_keypair,
)
from overchain.ledger import (
    Chain,
    PayloadTag,
    append_block,
    build_transaction,
    check_integrity,
    countersign,
    form_block,
)
from overchain.manager import BlockManager
from overchain.messages import BaseActor, DeliverTx, UpdateNotice
from overchain.services import CloudStore, Insurer
from overchain.simnet import Engine, LinkModel
from overchain.swformat import build_sw_binary, sw_object_id
from overchain.vehicle import (
    StorageRecord,
    Vehicle,
    storage_digest,
)

from conftest import pool_of, trace_records


class Sink(BaseActor):
    def __init__(self, node_id: str):
        super().__init__(node_id)
        self.got = []

    def handle(self, engine, payload) -> None:
        self.got.append(payload)


def make_engine(**link_kwargs):
    return Engine(seed="veh-test", links=LinkModel(**link_kwargs))


def make_vehicle(engine, spec=VehicleSpec("veh", "obm"), **kwargs):
    veh = Vehicle(spec, KeyRing("veh-keys"), **kwargs)
    engine.add_node(veh)
    return veh


# -- storage digests and anchoring -----------------------------------------------


def test_storage_digest_matches_independent_construction():
    records = [StorageRecord(1.0, "speed", b"90"), StorageRecord(2.0, "braking", b"hard")]
    expected = hashlib.sha256(canonical_join(
        canonical_join(b"1.0", b"speed", b"90"),
        canonical_join(b"2.0", b"braking", b"hard"),
    )).hexdigest()
    assert storage_digest(records).hex() == expected


def test_storage_digest_is_order_sensitive():
    a = StorageRecord(1.0, "speed", b"90")
    b = StorageRecord(2.0, "speed", b"91")
    assert storage_digest([a, b]) != storage_digest([b, a])


def test_anchor_of_empty_storage_is_valid_and_uses_empty_digest():
    engine = make_engine()
    obm = Sink("obm")
    engine.add_node(obm)
    veh = make_vehicle(engine)
    tx = veh.anchor_storage(engine)
    engine.run()
    assert tx.payload_digest.hex() == (
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855")
    assert check_integrity(tx).ok
    assert tx.payload_tag is PayloadTag.STORAGE_ANCHOR
    assert [m.tx.t_id for m in obm.got] == [tx.t_id]


def test_consecutive_anchors_chain_by_predecessor():
    engine = make_engine()
    engine.add_node(Sink("obm"))
    veh = make_vehicle(engine)
    first = veh.anchor_storage(engine)
    veh.in_vehicle_storage.append(StorageRecord(1.0, "speed", b"x"))
    second = veh.anchor_storage(engine)
    assert first.p_t_id == ZERO_DIGEST
    assert second.p_t_id == first.t_id
    assert second.pk_1 == first.pk_1


def test_anchors_use_stable_insurance_key_when_present():
    engine = make_engine()
    engine.add_node(Sink("obm"))
    account_key = generate_keypair("acct")
    veh = make_vehicle(engine, insurance_account=("acct-1", account_key))
    tx = veh.anchor_storage(engine)
    assert tx.pk_1 == account_key.public


def test_rotating_keys_break_anchor_linkage_on_purpose():
    engine = make_engine()
    engine.add_node(Sink("obm"))
    veh = Vehicle(VehicleSpec("veh", "obm"),
                  KeyRing("veh-keys", rotate_per_interaction=True))
    engine.add_node(veh)
    first = veh.anchor_storage(engine)
    second = veh.anchor_storage(engine)
    assert first.pk_1 != second.pk_1
    assert first.p_t_id == ZERO_DIGEST and second.p_t_id == ZERO_DIGEST


# -- backup transfer ---------------------------------------------------------------


def test_backup_moves_all_records_and_anchors_backup_digest():
    engine = make_engine()
    obm = Sink("obm")
    engine.add_node(obm)
    veh = make_vehicle(engine)
    originals = [StorageRecord(float(i), "location", bytes([i])) for i in range(5)]
    veh.in_vehicle_storage.extend(originals)
    tx = veh.transfer_to_backup(engine)
    assert veh.in_vehicle_storage == []
    assert veh.backup_store == originals
    assert tx.payload_tag is PayloadTag.BACKUP_ANCHOR
    assert tx.payload_digest == storage_digest(originals)


def test_backup_conservation_across_interleaved_appends():
    engine = make_engine()
    engine.add_node(Sink("obm"))
    veh = make_vehicle(engine)
    all_records = []
    for wave in range(3):
        batch = [StorageRecord(float(wave * 10 + i), "speed", bytes([wave, i]))
                 for i in range(4)]
        veh.in_vehicle_storage.extend(batch)
        all_records.extend(batch)
        veh.transfer_to_backup(engine)
    assert veh.backup_store + veh.in_vehicle_storage == all_records


def test_backup_of_empty_store_is_a_noop():
    engine = make_engine()
    obm = Sink("obm")
    engine.add_node(obm)
    veh = make_vehicle(engine)
    assert veh.transfer_to_backup(engine) is None
    assert obm.got == []


# -- storage integrity claims --------------------------------------------------------


def test_insurer_verdict_accepts_anchored_snapshot_and_rejects_edits():
    engine = make_engine()
    engine.add_node(Sink("obm"))
    account_key = generate_keypair("acct")
    veh = make_vehicle(engine, insurance_account=("acct-1", account_key))
    records = [StorageRecord(float(i), "speed", bytes([i])) for i in range(3)]
    veh.in_vehicle_storage.extend(records)
    anchor = veh.anchor_storage(engine)

    chain = Chain()
    append_block(chain, form_block(pool_of([anchor]), chain, generate_keypair("gen"), 1))
    stored = chain.get_tx(anchor.t_id)  # what the manager's chain lookup answers
    insurer = Insurer("insurer", generate_keypair("insurer"), "obm")
    insurer.pk_db["acct-1"] = account_key.public

    assert insurer._verdict("acct-1", records, stored) == "accepted"
    edited = [records[0], StorageRecord(1.0, "speed", b"\xff"), records[2]]
    assert insurer._verdict("acct-1", edited, stored) == "DigestMismatch"
    assert insurer._verdict("acct-1", records + [records[0]], stored) == "DigestMismatch"
    insurer.pk_db["acct-1"] = generate_keypair("other").public
    assert insurer._verdict("acct-1", records, stored) == "KeyNotRegistered"


# -- update verification ----------------------------------------------------------------


def wrsu_fixture(*, tamper=False, remove_object=False, wrong_oem=False,
                 drop_account=False, make_pending=False, acl=("sw/",),
                 account_seed="veh-cloud", blob=build_sw_binary("ecu0", "2.0", b"\x01" * 64)):
    engine = make_engine(default_delay=1.0)
    engine.add_node(Sink("obm"))
    cloud = CloudStore()
    engine.add_node(cloud)

    oem = generate_keypair("oem")
    provider = generate_keypair("provider")
    cloud.create_account("veh-acct", generate_keypair("veh-cloud").public, acl)
    veh_account = generate_keypair(account_seed)

    pending = build_transaction(ZERO_DIGEST, digest(blob),
                                PayloadTag.SW_UPDATE, provider,
                                recipient_pk=oem.public)
    tx = pending if make_pending else countersign(pending, oem)
    if not remove_object:
        stored = b"\x00" + blob[1:] if tamper else blob
        cloud.objects[sw_object_id(tx.payload_digest)] = stored

    veh = make_vehicle(
        engine,
        oem_pk=generate_keypair("other-oem").public if wrong_oem else oem.public,
        cloud_account=None if drop_account else ("veh-acct", veh_account),
    )
    engine.send("obm", "veh", UpdateNotice(tx))
    engine.run()
    return engine, veh, tx


def update_outcomes(engine) -> list[tuple[str, str]]:
    """(t_id, "installed" or the refusal reason) for each update the trace
    shows settled, in order."""
    return [(r["t_id"], r.get("reason", "installed"))
            for r in trace_records(engine.trace.text(),
                                   "update_verified", "update_rejected")]


def test_authentic_update_is_installed_with_matching_digest():
    engine, veh, tx = wrsu_fixture()
    assert veh.installed_sw == {"ecu0": ("2.0", tx.payload_digest.hex())}
    assert update_outcomes(engine) == [(tx.t_id.hex(), "installed")]
    assert '"event":"installed"' in engine.trace.text()


def test_tampered_cloud_binary_is_rejected_as_hash_mismatch():
    engine, veh, tx = wrsu_fixture(tamper=True)
    assert veh.installed_sw == {}
    assert update_outcomes(engine) == [(tx.t_id.hex(), "HashMismatch")]


def test_update_from_foreign_oem_is_rejected():
    engine, veh, tx = wrsu_fixture(wrong_oem=True)
    assert veh.installed_sw == {}
    assert update_outcomes(engine) == [(tx.t_id.hex(), "NotFromMyOem")]


def test_missing_cloud_object_is_reported():
    engine, _, tx = wrsu_fixture(remove_object=True)
    assert update_outcomes(engine) == [(tx.t_id.hex(), "DownloadMissing")]


def test_vehicle_without_cloud_account_cannot_verify():
    engine, _, tx = wrsu_fixture(drop_account=True)
    assert update_outcomes(engine) == [(tx.t_id.hex(), "CloudAuthFailed")]


@pytest.mark.parametrize("fixture, denied_ops", [
    ({"acl": []}, ["get"]),  # the account may not read sw/: AccessDenied
    ({"account_seed": "not-the-account-key"}, []),  # the proof fails: BadProof
])
def test_download_refused_for_a_reason_besides_a_missing_object_is_an_auth_failure(
        fixture, denied_ops):
    engine, veh, tx = wrsu_fixture(**fixture)
    assert veh.installed_sw == {}
    assert update_outcomes(engine) == [(tx.t_id_hex, "CloudAuthFailed")]
    denied = trace_records(engine.trace.text(), "cloud_denied")
    assert [r["op"] for r in denied] == denied_ops


@pytest.mark.parametrize("blob", [
    b"not an update container",
    build_sw_binary("ecu0", "2.0", b"body")[:-1],  # truncated
    build_sw_binary("ecu0", "2.0", b"body") + b"\x00",  # trailing bytes
])
def test_binary_that_matches_its_digest_but_does_not_parse_is_invalid(blob):
    engine, veh, tx = wrsu_fixture(blob=blob)
    assert veh.installed_sw == {}
    assert update_outcomes(engine) == [(tx.t_id_hex, "invalid")]
    assert '"event":"installed"' not in engine.trace.text()


def test_half_signed_update_notice_is_rejected_as_invalid():
    engine, veh, tx = wrsu_fixture(make_pending=True)
    assert veh.installed_sw == {}
    assert update_outcomes(engine) == [(tx.t_id.hex(), "invalid")]


def test_duplicate_update_notice_is_ignored():
    engine, veh, tx = wrsu_fixture()
    engine.send("obm", "veh", UpdateNotice(tx))
    engine.run()
    assert update_outcomes(engine) == [(tx.t_id.hex(), "installed")]


# -- deliveries and countersigning ---------------------------------------------------------


def test_delivered_pending_multisig_addressed_to_vehicle_is_countersigned():
    engine = make_engine(default_delay=1.0)
    obm = Sink("obm")
    engine.add_node(obm)
    veh = make_vehicle(engine)
    requester = generate_keypair("req")
    pending = build_transaction(ZERO_DIGEST, digest(b"offer"),
                                PayloadTag.GENERIC, requester,
                                recipient_pk=veh.keys.current.public)
    engine.send("obm", "veh", DeliverTx(pending))
    engine.run()
    finals = [m.tx for m in obm.got]
    assert len(finals) == 1 and finals[0].fully_signed
    assert finals[0].sig_2 is not None and finals[0].pk_1 == requester.public
    assert check_integrity(finals[0]).ok


def test_delivered_pending_for_unknown_key_is_recorded_but_not_signed():
    engine = make_engine(default_delay=1.0)
    obm = Sink("obm")
    engine.add_node(obm)
    veh = make_vehicle(engine)
    stranger = generate_keypair("a"), generate_keypair("b")
    pending = build_transaction(ZERO_DIGEST, digest(b"x"),
                                PayloadTag.GENERIC, stranger[0],
                                recipient_pk=stranger[1].public)
    engine.send("obm", "veh", DeliverTx(pending))
    engine.run()
    received = trace_records(engine.trace.text(), "tx_received")
    assert [r["t_id"] for r in received] == [pending.t_id.hex()]
    assert veh.last_final_tid == {}  # a pending transaction is not final
    assert obm.got == []


# -- soft handover ------------------------------------------------------------------------


def handover_world(delay_current, delay_other, *, threshold=100.0):
    links = LinkModel(default_delay=1.0)
    links.set_link("veh", "obm0", delay_current)
    links.set_link("veh", "obm1", delay_other)
    engine = Engine(seed="handover", links=links)
    managers = []
    for i in range(2):
        m = BlockManager(f"obm{i}", generate_keypair(f"obm{i}"))
        managers.append(m)
        engine.add_node(m)
    for m in managers:
        m.peers = [o.node_id for o in managers if o is not m]
    veh = Vehicle(VehicleSpec("veh", "obm0", handover_threshold=threshold,
                              candidate_obms=("obm0", "obm1")),
                  KeyRing("veh-keys"))
    engine.add_node(veh)
    requester = generate_keypair("req")
    veh.access_set.append((requester.public, veh.keys.current.public))
    managers[0].add_member("veh", "vehicle")
    managers[0].upload_key_pair(engine, "veh",
                                requester.public, veh.keys.current.public)
    return engine, managers, veh, requester


def test_handover_crosses_to_closer_manager_and_migrates_keys():
    engine, (m0, m1), veh, requester = handover_world(20.0, 4.0)
    veh.evaluate_handover(engine)
    engine.run()
    assert veh.obm_id == "obm1"
    assert len(trace_records(engine.trace.text(), "handover", actor="veh")) == 1
    assert "veh" in m1.members and "veh" not in m0.members
    assert [e for e in m0.key_list.entries if e.member_id == "veh"] == []
    assert len([e for e in m1.key_list.entries if e.member_id == "veh"]) == 1
    assert '"event":"handover"' in engine.trace.text()

    # handover liveness: an addressed transaction now arrives via the new manager
    from overchain.messages import TxMessage
    pending = build_transaction(ZERO_DIGEST, digest(b"post"),
                                PayloadTag.GENERIC, requester,
                                recipient_pk=veh.keys.current.public)
    engine.send("obm1", "obm1", TxMessage(pending, origin_member="tester"))
    engine.run()
    # the pending arrives, the vehicle countersigns, and the final echoes back
    received = trace_records(engine.trace.text(), "tx_received", actor="veh")
    assert received[0]["t_id"] == pending.t_id.hex()
    assert len(received) == 2 and not received[1]["pending"]
    # the echoed final is what the requester's next transaction chains on
    assert veh.last_final_tid == {requester.public: Digest.fromhex(received[1]["t_id"])}


def test_no_probe_while_a_handover_is_in_flight():
    engine, (m0, m1), veh, _ = handover_world(20.0, 4.0)
    veh.evaluate_handover(engine)  # probes, then asks obm1 to join
    veh.evaluate_handover(engine)  # the join is unanswered: no second probe
    assert len(trace_records(engine.trace.text(), "probe", actor="veh")) == 1
    engine.run()
    assert veh.obm_id == "obm1"
    assert len(trace_records(engine.trace.text(), "handover", actor="veh")) == 1


def test_handover_skipped_when_all_candidates_above_threshold():
    engine, (m0, m1), veh, _ = handover_world(300.0, 250.0, threshold=100.0)
    veh.evaluate_handover(engine)
    engine.run()
    assert veh.obm_id == "obm0"
    assert trace_records(engine.trace.text(), "handover", actor="veh") == []
    assert '"reason":"all_above_threshold"' in engine.trace.text()


def test_handover_skipped_inside_hysteresis_band():
    # 18 vs 20 round-trip: better, but not by the required 20%
    engine, (m0, m1), veh, _ = handover_world(10.0, 9.0)
    veh.evaluate_handover(engine)
    engine.run()
    assert veh.obm_id == "obm0"
    assert trace_records(engine.trace.text(), "handover", actor="veh") == []
    assert '"reason":"hysteresis"' in engine.trace.text()


def test_current_manager_best_means_no_action():
    engine, _, veh, _ = handover_world(4.0, 20.0)
    veh.evaluate_handover(engine)
    engine.run()
    assert veh.obm_id == "obm0"
    assert trace_records(engine.trace.text(), "handover", actor="veh") == []
    assert '"event":"handover_skipped"' not in engine.trace.text()


# -- claims ------------------------------------------------------------------------------


class FakeInsurer(BaseActor):
    def __init__(self, node_id: str, verdict: str):
        super().__init__(node_id)
        self.verdict = verdict
        self.claims = []

    def serve_file_claim(self, engine, request) -> dict:
        self.claims.append(request.data)
        return {"verdict": self.verdict}


def test_accident_anchors_snapshot_then_files_claim():
    engine = make_engine(default_delay=1.0)
    engine.add_node(Sink("obm"))
    insurer = FakeInsurer("insurer", "accepted")
    engine.add_node(insurer)
    veh = make_vehicle(engine, insurance_account=("acct-1", generate_keypair("acct")))
    veh.in_vehicle_storage.append(StorageRecord(1.0, "speed", b"swerve"))
    veh.trigger_accident(engine, insurer_id="insurer", claim_delay=5.0)
    engine.run()
    text = engine.trace.text()
    assert [r["verdict"] for r in trace_records(text, "claim_result")] == ["accepted"]
    claim = insurer.claims[0]
    [anchor] = trace_records(text, "anchor")
    assert claim["anchor_tid"].hex() == anchor["t_id"]
    assert claim["records"] == [StorageRecord(1.0, "speed", b"swerve")]
    assert storage_digest(claim["records"]).hex() == anchor["store_digest"]


def test_tampered_claim_alters_one_record_only_in_the_filed_copy():
    engine = make_engine(default_delay=1.0)
    engine.add_node(Sink("obm"))
    insurer = FakeInsurer("insurer", "DigestMismatch")
    engine.add_node(insurer)
    veh = make_vehicle(engine, insurance_account=("acct-1", generate_keypair("acct")))
    original = StorageRecord(1.0, "speed", b"swerve")
    veh.in_vehicle_storage.append(original)
    veh.trigger_accident(engine, insurer_id="insurer", claim_delay=0.0, tamper=True)
    engine.run()
    # the first payload byte flipped: "s" (0x73) becomes "r" (0x72)
    assert insurer.claims[0]["records"] == [StorageRecord(1.0, "speed", b"rwerve")]
    assert veh.in_vehicle_storage == [original]  # local store untouched
    assert [r["verdict"] for r in trace_records(engine.trace.text(), "claim_result")] \
        == ["DigestMismatch"]


# -- timer-driven behavior -----------------------------------------------------------------


def test_record_and_anchor_timers_accumulate_and_anchor_periodically():
    engine = make_engine(default_delay=1.0)
    obm = Sink("obm")
    engine.add_node(obm)
    veh = make_vehicle(engine, VehicleSpec("veh", "obm", record_interval=1.0,
                                           anchor_interval=5.0, backup_interval=7.0))
    veh.stop_at = 20.0
    veh.start(engine)
    # every periodic timer stops at stop_at, so the queue drains long before 100
    assert engine.run(max_time=100.0)
    records = veh.backup_store + veh.in_vehicle_storage
    # one record of each category per interval
    assert [(r.timestamp, r.category) for r in records] == [
        (float(t), category) for t in range(1, 21) for category in ("location", "speed")]
    anchors = trace_records(engine.trace.text(), "anchor", "backup")
    assert [(r["t"], r["event"]) for r in anchors] == [
        (5.0, "anchor"), (7.0, "backup"), (10.0, "anchor"), (14.0, "backup"),
        (15.0, "anchor"), (20.0, "anchor")]
    # a backup was queued a period before the record of its own instant
    assert [(r["moved"], r["backup_total"]) for r in anchors
            if r["event"] == "backup"] == [(12, 12), (14, 26)]
    assert len(veh.in_vehicle_storage) == 14
    assert len(obm.got) == 6  # one anchor transaction each, all delivered
