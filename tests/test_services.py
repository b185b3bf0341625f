"""Service actor tests: cloud object store, software provider, manufacturer
countersigning, and insurer account/claim handling — capped by a two-vehicle
update walkthrough asserting every step of the multisig flow end to end.
"""
from __future__ import annotations

import dataclasses

import pytest

from overchain.config import LedgerConfig, VehicleSpec
from overchain.crypto import (
    ZERO_DIGEST,
    KeyRing,
    digest,
    generate_keypair,
    issue_certificate,
)
from overchain.ledger import (
    PayloadTag,
    TxKind,
    build_transaction,
    check_integrity,
    countersign,
    verify_chain,
)
from overchain.manager import BlockManager
from overchain.messages import BaseActor
from overchain.services import CloudStore, Insurer, Oem, SwProvider
from overchain.simnet import Engine, LinkModel
from overchain.swformat import build_sw_binary, parse_sw_binary, sw_object_id
from overchain.vehicle import StorageRecord, Vehicle

from conftest import trace_records


class Sink(BaseActor):
    def __init__(self, node_id: str):
        super().__init__(node_id)
        self.got = []

    def handle(self, engine, payload) -> None:
        self.got.append(payload)


class Caller(BaseActor):
    """Test client that drives the cloud challenge-response protocol."""

    def __init__(self, node_id: str, account):
        super().__init__(node_id)
        self.account = account
        self.responses = []

    def call(self, engine, kind, data):
        self.cloud_call(engine, self.account, kind, data,
                        lambda eng, resp: self.responses.append(resp))


def cloud_world(**cloud_kwargs):
    engine = Engine(seed="svc-test", links=LinkModel(default_delay=1.0))
    cloud = CloudStore(**cloud_kwargs)
    engine.add_node(cloud)
    key = generate_keypair("acct-key")
    cloud.create_account("acct", key.public, ["acct/", "shared-note"])
    caller = Caller("client", ("acct", key))
    engine.add_node(caller)
    return engine, cloud, caller


# -- software binary container ---------------------------------------------------


def test_sw_binary_round_trip():
    blob = build_sw_binary("engine-ecu", "3.1.4", b"\x00\x01\x02" * 100)
    assert parse_sw_binary(blob) == ("engine-ecu", "3.1.4", b"\x00\x01\x02" * 100)


def test_sw_binary_empty_body_round_trip():
    assert parse_sw_binary(build_sw_binary("e", "1", b"")) == ("e", "1", b"")


@pytest.mark.parametrize("mangle", [
    lambda b: b"XXXX" + b[4:],          # wrong magic
    lambda b: b[:-3],                   # truncated
    lambda b: b + b"\x00",              # trailing bytes
    lambda b: b[:5],                    # cut inside a length prefix
])
def test_sw_binary_rejects_malformed_input(mangle):
    blob = build_sw_binary("ecu", "1.0", b"payload")
    with pytest.raises(ValueError):
        parse_sw_binary(mangle(blob))


# -- cloud store -------------------------------------------------------------------


def test_cloud_put_get_round_trip():
    engine, cloud, caller = cloud_world()
    caller.call(engine, "cloud_put", {"object": "acct/r1", "data": b"\xbe\xef"})
    caller.call(engine, "cloud_get", {"object": "acct/r1"})
    engine.run()
    assert caller.responses == [{"ok": True}, {"data": b"\xbe\xef"}]
    assert cloud.objects["acct/r1"] == b"\xbe\xef"


def test_cloud_acl_exact_entry_and_prefix_entry():
    engine, cloud, caller = cloud_world()
    caller.call(engine, "cloud_put", {"object": "shared-note", "data": b"\x00"})
    caller.call(engine, "cloud_put", {"object": "acct/deep/path", "data": b"\x01"})
    caller.call(engine, "cloud_put", {"object": "shared-note/sub", "data": b"\x02"})
    caller.call(engine, "cloud_put", {"object": "other/r1", "data": b"\x03"})
    engine.run()
    assert caller.responses == [
        {"ok": True}, {"ok": True},
        {"error": "AccessDenied"}, {"error": "AccessDenied"},
    ]


def test_cloud_get_outside_the_acl_is_denied_and_traced():
    engine, cloud, caller = cloud_world()
    cloud.objects["other/r1"] = b"\x03"
    caller.call(engine, "cloud_get", {"object": "other/r1"})
    engine.run()
    assert caller.responses == [{"error": "AccessDenied"}]
    denied = trace_records(engine.trace.text(), "cloud_denied")
    assert [(r["actor"], r["account"], r["object"], r["op"]) for r in denied] == [
        ("cloud", "acct", "other/r1", "get")]


def test_cloud_get_unknown_object_is_notfound():
    engine, cloud, caller = cloud_world()
    caller.call(engine, "cloud_get", {"object": "acct/missing"})
    engine.run()
    assert caller.responses == [{"error": "NotFound"}]


def test_cloud_auth_for_unknown_account_fails():
    engine, cloud, _ = cloud_world()
    ghost = Caller("ghost", ("nobody", generate_keypair("ghost")))
    engine.add_node(ghost)
    ghost.call(engine, "cloud_get", {"object": "acct/r1"})
    engine.run()
    assert ghost.responses == [{"error": "UnknownAccount"}]


def test_cloud_rejects_proof_from_wrong_key():
    engine, cloud, _ = cloud_world()
    impostor = Caller("impostor", ("acct", generate_keypair("not-the-account-key")))
    engine.add_node(impostor)
    impostor.call(engine, "cloud_get", {"object": "acct/r1"})
    engine.run()
    assert impostor.responses == [{"error": "BadProof"}]


def test_cloud_ops_without_session_are_refused():
    engine, cloud, caller = cloud_world()

    class Raw(BaseActor):
        def __init__(self):
            super().__init__("raw")
            self.resp = None

    raw = Raw()
    engine.add_node(raw)
    raw.send_request(engine, "cloud", "cloud_put",
                     {"object": "acct/r1", "data": b"\x00", "session": "session-99"},
                     lambda e, r: setattr(raw, "resp", r))
    engine.run()
    assert raw.resp == {"error": "NoSession"}


@pytest.mark.parametrize("kind, data, error", [
    # a proof for an account the store does not hold, as after a closure
    # between the challenge and the proof
    ("cloud_proof", {"account": "nobody", "nonce": bytes(32)}, "UnknownAccount"),
    # a proof of a nonce the store never issued, or already used
    ("cloud_proof", {"account": "acct", "nonce": bytes(32)}, "BadProof"),
    ("cloud_get", {"object": "acct/r1", "session": "session-99"}, "NoSession"),
])
def test_cloud_refuses_a_request_outside_the_handshake(kind, data, error):
    engine, cloud, caller = cloud_world()
    proof = generate_keypair("acct-key").sign(bytes(32))  # the account key's, on that nonce
    responses = []
    caller.send_request(engine, "cloud", kind, {**data, "proof": proof},
                        lambda eng, resp: responses.append(resp))
    engine.run()
    assert responses == [{"error": error}]
    assert cloud._sessions == {}


def test_closed_account_fails_auth_and_loses_sessions():
    engine, cloud, caller = cloud_world()
    caller.call(engine, "cloud_put", {"object": "acct/r1", "data": b"\xaa"})
    engine.run()
    assert cloud.close_account("acct") is True
    assert cloud.close_account("acct") is False
    assert cloud._sessions == {}
    caller.call(engine, "cloud_get", {"object": "acct/r1"})
    engine.run()
    assert caller.responses[-1] == {"error": "UnknownAccount"}
    # default policy retains stored objects after closure
    assert "acct/r1" in cloud.objects


def test_closing_account_can_purge_its_objects():
    engine, cloud, caller = cloud_world(retain_closed_objects=False)
    caller.call(engine, "cloud_put", {"object": "acct/r1", "data": b"\xaa"})
    engine.run()
    cloud.objects["sw/unrelated"] = b"keep"
    cloud.close_account("acct")
    assert "acct/r1" not in cloud.objects
    assert cloud.objects["sw/unrelated"] == b"keep"  # only the account prefix goes


def test_cloud_nonces_are_deterministic_per_seed():
    texts = []
    for _ in range(2):
        engine, cloud, caller = cloud_world()
        caller.call(engine, "cloud_put", {"object": "acct/r1", "data": b"\xaa"})
        engine.run()
        texts.append(engine.trace.text())
    assert texts[0] == texts[1]


# -- provider publication -------------------------------------------------------------


def provider_world(*, provider_acl=("sw/",)):
    engine = Engine(seed="pub-test", links=LinkModel(default_delay=1.0))
    cloud = CloudStore()
    engine.add_node(cloud)
    obm = Sink("obm0")
    engine.add_node(obm)
    oem_key = generate_keypair("oem")
    provider_key = generate_keypair("provider")
    account_key = generate_keypair("provider-cloud")
    cloud.create_account("provider-acct", account_key.public, list(provider_acl))
    provider = SwProvider("provider", provider_key, "obm0",
                          cloud_account=("provider-acct", account_key),
                          oem_pk=oem_key.public)
    engine.add_node(provider)
    return engine, cloud, obm, provider, oem_key


def test_publish_stores_blob_and_submits_pending_update():
    engine, cloud, obm, provider, oem_key = provider_world()
    provider.publish_update(engine, "ecu0", "2.0", b"fw-body")
    engine.run()
    blob = build_sw_binary("ecu0", "2.0", b"fw-body")
    assert cloud.objects[sw_object_id(digest(blob))] == blob
    [msg] = obm.got
    tx = msg.tx
    assert msg.origin_member == "provider"
    assert tx.kind is TxKind.MULTI and tx.sig_2 is None
    assert tx.payload_tag is PayloadTag.SW_UPDATE
    assert tx.payload_digest == digest(blob)
    assert tx.pk_2 == oem_key.public
    assert tx.p_t_id == ZERO_DIGEST
    assert check_integrity(tx).ok


def test_publish_without_write_access_submits_nothing():
    engine, cloud, obm, provider, _ = provider_world(provider_acl=())
    provider.publish_update(engine, "ecu0", "2.0", b"fw-body")
    engine.run()
    assert obm.got == []
    assert cloud.objects == {}
    assert '"event":"publish_failed"' in engine.trace.text()
    assert '"error":"AccessDenied"' in engine.trace.text()


def test_default_binary_body_is_deterministic():
    blobs = []
    for _ in range(2):
        engine, cloud, obm, provider, _ = provider_world()
        provider.publish_update(engine, "ecu0", "2.0")
        engine.run()
        blobs.append(dict(cloud.objects))
    assert blobs[0] == blobs[1] and len(blobs[0]) == 1


# -- manufacturer approval -------------------------------------------------------------


def oem_world():
    engine = Engine(seed="oem-test", links=LinkModel(default_delay=1.0))
    cloud = CloudStore()
    engine.add_node(cloud)
    obm = Sink("obm0")
    engine.add_node(obm)
    oem_key = generate_keypair("oem")
    account_key = generate_keypair("oem-cloud")
    cloud.create_account("oem-acct", account_key.public, ["sw/"])
    oem = Oem("oem", oem_key, "obm0",
              cloud_account=("oem-acct", account_key))
    engine.add_node(oem)
    provider_key = generate_keypair("provider")
    blob = build_sw_binary("ecu0", "2.0", b"fw-body")
    cloud.objects[sw_object_id(digest(blob))] = blob
    pending = build_transaction(ZERO_DIGEST, digest(blob),
                                PayloadTag.SW_UPDATE, provider_key,
                                recipient_pk=oem_key.public)
    return engine, cloud, obm, oem, pending, provider_key


def approvals(engine) -> list[tuple[str, str]]:
    """(pending t_id, final t_id) for each countersignature, from the trace."""
    return [(r["pending_t_id"], r["t_id"])
            for r in trace_records(engine.trace.text(), "approved")]


def approval_rejections(engine) -> list[tuple[str, str]]:
    """(t_id, reason) for each refused approval, from the trace."""
    return [(r["t_id"], r["reason"])
            for r in trace_records(engine.trace.text(), "approval_rejected")]


def test_oem_countersigns_after_independent_rehash():
    engine, cloud, obm, oem, pending, provider_key = oem_world()
    oem.approve(engine, pending)
    engine.run()
    [msg] = obm.got
    final = msg.tx
    assert approvals(engine) == [(pending.t_id.hex(), final.t_id.hex())]
    assert final.fully_signed and final.t_id != pending.t_id
    assert final.payload_digest == pending.payload_digest
    assert check_integrity(final).ok


def test_oem_rejects_when_cloud_object_differs_from_digest():
    engine, cloud, obm, oem, pending, _ = oem_world()
    object_id = sw_object_id(pending.payload_digest)
    cloud.objects[object_id] = b"\x00" + cloud.objects[object_id][1:]
    oem.approve(engine, pending)
    engine.run()
    assert obm.got == []
    assert approval_rejections(engine) == [(pending.t_id.hex(), "DigestMismatch")]


def test_oem_rejects_when_cloud_object_is_missing():
    engine, cloud, obm, oem, pending, _ = oem_world()
    cloud.objects.clear()
    oem.approve(engine, pending)
    engine.run()
    assert approval_rejections(engine) == [(pending.t_id.hex(), "DigestMismatch")]


def test_oem_rejects_forged_provider_signature():
    engine, cloud, obm, oem, pending, _ = oem_world()
    forged = dataclasses.replace(pending, sig_1=generate_keypair("forger").sign(b"x"))
    forged = dataclasses.replace(forged, t_id=forged.compute_t_id())
    oem.approve(engine, forged)
    engine.run()
    assert obm.got == []
    assert approval_rejections(engine) == [(forged.t_id.hex(), "BadProviderSignature")]


def test_oem_ignores_updates_addressed_elsewhere():
    engine, cloud, obm, oem, pending, provider_key = oem_world()
    other = build_transaction(ZERO_DIGEST, pending.payload_digest,
                              PayloadTag.SW_UPDATE, provider_key,
                              recipient_pk=generate_keypair("someone").public)
    oem.approve(engine, other)
    engine.run()
    assert approval_rejections(engine) == [(other.t_id.hex(), "NotAddressedToMe")]

    wrong_tag = build_transaction(ZERO_DIGEST, pending.payload_digest,
                                  PayloadTag.GENERIC, provider_key,
                                  recipient_pk=oem.keypair.public)
    oem.approve(engine, wrong_tag)
    engine.run()
    assert (wrong_tag.t_id.hex(), "NotAddressedToMe") in approval_rejections(engine)


def test_oem_leaves_already_final_transactions_alone():
    engine, cloud, obm, oem, pending, _ = oem_world()
    final = countersign(pending, oem.keypair)
    oem.approve(engine, final)
    engine.run()
    assert approvals(engine) == [] and approval_rejections(engine) == []
    assert obm.got == []


# -- insurer ---------------------------------------------------------------------------


def insurer_world():
    engine = Engine(seed="ins-test", links=LinkModel(default_delay=1.0))
    cloud = CloudStore()
    engine.add_node(cloud)
    manager = BlockManager("obm0", generate_keypair("obm0"), LedgerConfig(block_size=1))
    manager.manager_names[manager.keypair.public] = "obm0"
    engine.add_node(manager)
    insurer = Insurer("insurer", generate_keypair("insurer"), "obm0")
    engine.add_node(insurer)
    veh = Vehicle(VehicleSpec("veh", "obm0"), KeyRing("veh-keys"))
    engine.add_node(veh)
    manager.add_member("veh", "vehicle")
    manager.add_member("insurer", "service")
    return engine, cloud, manager, insurer, veh


def test_open_account_provisions_vehicle_and_uploads_access_keys():
    engine, cloud, manager, insurer, veh = insurer_world()
    account_id = insurer.open_account(engine, "veh", "owner-1")
    engine.run()
    assert veh.insurance_account is not None
    got_id, got_key = veh.insurance_account
    assert got_id == account_id
    assert got_key.public == insurer.pk_db[account_id]
    assert cloud.accounts[account_id] == got_key.public
    assert insurer.registry[account_id] == "owner-1"
    [entry] = [e for e in manager.key_list.entries if e.member_id == "veh"]
    assert entry.requester_pk == insurer.keypair.public
    assert entry.member_pk == got_key.public


def run_claim(*, tamper=False, skip_commit=False, foreign_key=False):
    engine, cloud, manager, insurer, veh = insurer_world()
    insurer.open_account(engine, "veh", "owner-1")
    engine.run()
    if foreign_key:
        veh.insurance_account = (veh.insurance_account[0], generate_keypair("rogue"))
    veh.in_vehicle_storage.extend(
        StorageRecord(float(i), "speed", bytes([i])) for i in range(4))
    veh.trigger_accident(engine, insurer_id="insurer", claim_delay=30.0, tamper=tamper)
    engine.run(max_time=10.0)  # anchor reaches the pool, claim still queued
    if not skip_commit:
        manager.tick(engine, period_index=0, turn_id="obm0")
    engine.run()
    return engine, manager, insurer, veh


def claim_results(engine) -> list[str]:
    """The verdict each claim brought back to the vehicle, from the trace."""
    return [r["verdict"] for r in trace_records(engine.trace.text(), "claim_result")]


def test_honest_claim_is_accepted_against_committed_anchor():
    engine, manager, insurer, veh = run_claim()
    assert claim_results(engine) == ["accepted"]
    assert trace_records(engine.trace.text(), "claim_verified")[-1]["verdict"] == "accepted"
    assert manager.chain.height == 1


def test_tampered_records_fail_digest_comparison():
    engine, _, _, _ = run_claim(tamper=True)
    assert claim_results(engine) == ["DigestMismatch"]


def test_claim_without_committed_anchor_is_rejected():
    engine, manager, _, _ = run_claim(skip_commit=True)
    assert claim_results(engine) == ["AnchorNotFound"]
    assert manager.chain.height == 0


def test_claim_signed_by_unregistered_key_is_rejected():
    engine, _, _, _ = run_claim(foreign_key=True)
    assert claim_results(engine) == ["KeyNotRegistered"]


def test_closed_account_surfaces_on_next_vehicle_upload():
    engine, cloud, manager, insurer, veh = insurer_world()
    veh.spec = dataclasses.replace(veh.spec, upload_categories=("speed",))
    insurer.open_account(engine, "veh", "owner-1")
    engine.run()
    account_id = veh.insurance_account[0]
    veh.cloud_account = veh.insurance_account
    cloud.acl[account_id].add(f"{account_id}/")
    record = StorageRecord(1.0, "speed", b"ok")
    veh.in_vehicle_storage.append(record)
    veh._upload_record(engine, record)
    engine.run()
    assert trace_records(engine.trace.text(), "upload_rejected") == []
    insurer.close_account(engine, account_id)
    engine.run()
    veh._upload_record(engine, record)
    engine.run()
    assert [r["error"] for r in trace_records(engine.trace.text(), "upload_rejected")] \
        == ["UnknownAccount"]


# -- two-vehicle update walkthrough ------------------------------------------------------
#
# Hand-traced expectation for one publish cycle on a single-cluster network:
#   1. provider stores the binary and submits a half-signed update
#   2. the manager routes that pending tx to the manufacturer (access pair)
#   3. the manufacturer re-downloads, re-hashes, countersigns, resubmits
#   4. the manager pools the final tx and notifies its vehicle members
#   5. both vehicles independently download, verify the digest, and install
#   6. the scheduled turn commits the final tx; lookups find it
#   7. the provider observes the final id and chains its next publish to it


def walkthrough_world():
    engine = Engine(seed="walk", links=LinkModel(default_delay=1.0))
    ca = generate_keypair("ca")
    cloud = CloudStore()
    engine.add_node(cloud)

    manager = BlockManager("obm0", generate_keypair("obm0"), LedgerConfig(block_size=1),
                           ca_pk=ca.public)
    manager.manager_names[manager.keypair.public] = "obm0"
    engine.add_node(manager)

    oem_key = generate_keypair("oem")
    provider_key = generate_keypair("provider")
    oem_cert = issue_certificate(ca, "oem", oem_key.public)

    for account, seed in [("provider-acct", "p-cloud"), ("oem-acct", "o-cloud"),
                          ("veh1-acct", "v1-cloud"), ("veh2-acct", "v2-cloud")]:
        cloud.create_account(account, generate_keypair(seed).public, ["sw/"])

    provider = SwProvider("provider", provider_key, "obm0",
                          cloud_account=("provider-acct", generate_keypair("p-cloud")),
                          oem_pk=oem_key.public)
    oem = Oem("oem", oem_key, "obm0",
              cloud_account=("oem-acct", generate_keypair("o-cloud")))
    engine.add_node(provider)
    engine.add_node(oem)

    vehicles = []
    for i in (1, 2):
        veh = Vehicle(VehicleSpec(f"veh{i}", "obm0"), KeyRing(f"veh{i}-keys"),
                      oem_pk=oem_key.public,
                      cloud_account=(f"veh{i}-acct", generate_keypair(f"v{i}-cloud")))
        engine.add_node(veh)
        vehicles.append(veh)

    manager.add_member("provider", "service")
    manager.add_member("oem", "service")
    for veh in vehicles:
        manager.add_member(veh.node_id, "vehicle")
    manager.certified[oem_key.public] = oem_cert
    # access pairs in both directions so each party sees the final transaction
    manager.upload_key_pair(engine, "oem",
                            provider_key.public, oem_key.public)
    manager.upload_key_pair(engine, "provider",
                            oem_key.public, provider_key.public)
    return engine, cloud, manager, provider, oem, vehicles


def test_update_walkthrough_single_cycle():
    engine, cloud, manager, provider, oem, (veh1, veh2) = walkthrough_world()
    provider.publish_update(engine, "ecu0", "2.0", b"fw-2.0")
    engine.run()

    blob = build_sw_binary("ecu0", "2.0", b"fw-2.0")
    # 1. binary stored under its content address
    assert cloud.objects[sw_object_id(digest(blob))] == blob
    # 2-3. pending routed to the manufacturer, exactly one approval back
    [(pending_tid, final_tid)] = approvals(engine)
    # 4. the pool holds the final tx, nothing was dropped anywhere
    assert [tx.t_id.hex() for tx in manager.pool.values()] == [final_tid]
    assert manager.drops == {"invalid": 0, "duplicate": 0, "no_match": 0}
    # 5. both vehicles installed the same digest the provider published
    expected = ("2.0", digest(blob).hex())
    assert veh1.installed_sw == {"ecu0": expected}
    assert veh2.installed_sw == {"ecu0": expected}
    assert [(r["event"], r["t_id"]) for r in trace_records(
        engine.trace.text(), "update_verified", "update_rejected", actor="veh1")] \
        == [("update_verified", final_tid)]
    # 6. the scheduled turn commits it; a lookup then succeeds
    manager.tick(engine, period_index=0, turn_id="obm0")
    engine.run()
    assert manager.chain.height == 1
    assert verify_chain(manager.chain)
    from overchain.crypto import Digest
    assert manager.chain.get_tx(Digest.fromhex(final_tid)) is not None
    # 7. the provider observed the final id for chaining
    assert provider.last_final_tid.hex() == final_tid


def test_update_walkthrough_second_publish_chains_to_first():
    engine, cloud, manager, provider, oem, vehicles = walkthrough_world()
    provider.publish_update(engine, "ecu0", "2.0", b"fw-2.0")
    engine.run()
    manager.tick(engine, period_index=0, turn_id="obm0")
    engine.run()
    first_final = provider.last_final_tid

    provider.publish_update(engine, "ecu0", "2.1", b"fw-2.1")
    engine.run()
    [msg] = [tx for tx in manager.pool.values()]
    assert msg.p_t_id == first_final
    assert [v.installed_sw["ecu0"][0] for v in vehicles] == ["2.1", "2.1"]


def test_update_walkthrough_is_deterministic():
    texts = []
    for _ in range(2):
        engine, cloud, manager, provider, oem, vehicles = walkthrough_world()
        provider.publish_update(engine, "ecu0", "2.0", b"fw-2.0")
        engine.run()
        manager.tick(engine, period_index=0, turn_id="obm0")
        engine.run()
        texts.append(engine.trace.text())
    assert texts[0] == texts[1]
