"""Smart-vehicle actor: local record storage with periodic on-chain hash
anchoring, backup transfer, delay-driven soft handover between cluster heads,
update verification and installation, and insurance claim filing.
"""
from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Optional

from .config import RECORD_CATEGORIES, VehicleSpec
from .crypto import (
    ZERO_DIGEST,
    Digest,
    KeyPair,
    KeyRing,
    PublicKey,
    canonical_join,
    digest,
)
from .ledger import (
    PayloadTag,
    Transaction,
    TxKind,
    build_transaction,
    check_integrity,
    countersign,
)
from .messages import AppRequest, BaseActor, Timer
from .swformat import parse_sw_binary, sw_object_id


@dataclass(frozen=True)
class StorageRecord:
    """One privacy-sensitive record kept in vehicle storage."""

    timestamp: float
    category: str
    payload: bytes

    def wire_bytes(self) -> bytes:
        return canonical_join(
            repr(self.timestamp).encode(), self.category.encode(), self.payload)


def storage_digest(records) -> Digest:
    """Canonical digest over an ordered record store."""
    return digest(canonical_join(*[r.wire_bytes() for r in records]))


class Vehicle(BaseActor):
    """A cluster member with a wireless interface to its current manager."""

    def __init__(
        self,
        spec: VehicleSpec,
        keys: KeyRing,
        *,
        oem_pk: Optional[PublicKey] = None,
        cloud_account: Optional[tuple[str, KeyPair]] = None,
        insurance_account: Optional[tuple[str, KeyPair]] = None,
    ):
        super().__init__(spec.vehicle_id)
        self.spec = spec
        self.keys = keys
        self.obm_id = spec.obm
        self.oem_pk = oem_pk
        self.cloud_account = cloud_account
        self.insurance_account = insurance_account

        self.in_vehicle_storage: list[StorageRecord] = []
        self.backup_store: list[StorageRecord] = []
        self.installed_sw: dict[str, tuple[str, str]] = {}  # ecu -> (version, digest hex)

        # access set: (requester pk, own pk) pairs this vehicle keeps uploaded
        # at its current manager, re-uploaded on handover
        self.access_set: list[tuple[PublicKey, PublicKey]] = []

        self.last_anchor_tid: dict[PublicKey, Digest] = {}  # per signing key
        self.last_final_tid: dict[PublicKey, Digest] = {}  # pk_1 -> last final t_id
        self.stop_at = float("inf")  # periodic timers stop after this time
        self._handover_in_flight = False
        self._record_seq = 0
        self._handled_updates: set[Digest] = set()

    # -- timers ----------------------------------------------------------------

    def start(self, engine) -> None:
        for action, interval in ((self.append_records, self.spec.record_interval),
                                 (self.anchor_storage, self.spec.anchor_interval),
                                 (self.transfer_to_backup, self.spec.backup_interval),
                                 (self.evaluate_handover, self.spec.probe_interval)):
            if interval > 0:
                engine.schedule(interval, self.node_id,
                                Timer(self._every, (action, interval)))

    def _every(self, engine, action, interval: float) -> None:
        """Run ``action`` now and again every ``interval`` up to stop_at."""
        action(engine)
        if engine.now + interval <= self.stop_at:
            engine.schedule(interval, self.node_id,
                            Timer(self._every, (action, interval)))

    # -- provisioning -----------------------------------------------------------

    def serve_provision_insurance(self, engine, request: AppRequest) -> dict:
        account_id = request.data["account"]
        account_key = request.data["account_key"]  # the key pair the insurer derived
        insurer_pk = request.data["insurer_pk"]
        self.insurance_account = (account_id, account_key)
        pair = (insurer_pk, account_key.public)
        if pair not in self.access_set:
            self.access_set.append(pair)
        engine.trace.emit(engine.now, self.node_id, "insurance_provisioned",
                          account=account_id)
        self.send_request(engine, self.obm_id, "upload_keys", {
            "entries": [pair],
        }, lambda eng, resp: None)
        return {"ok": True}

    # -- storage and anchoring ----------------------------------------------------

    def append_records(self, engine) -> None:
        for category in RECORD_CATEGORIES:
            payload = f"{category}@{engine.now:.3f}#{self._record_seq}".encode()
            record = StorageRecord(engine.now, category, payload)
            self.in_vehicle_storage.append(record)
            self._record_seq += 1
            if category in self.spec.upload_categories and self.insurance_account:
                self._upload_record(engine, record)

    def _anchor_key(self) -> KeyPair:
        """Anchors that an insurer must later attribute use the stable account
        key; otherwise the (possibly rotating) interaction key."""
        if self.insurance_account is not None:
            return self.insurance_account[1]
        return self.keys.interaction_key()

    def _submit_anchor(self, engine, store_digest: Digest, tag: PayloadTag) -> Transaction:
        """Submit an anchor of ``store_digest`` under the anchor key, chained
        on that key's previous anchor."""
        key = self._anchor_key()
        previous = self.last_anchor_tid.get(key.public, ZERO_DIGEST)
        tx = build_transaction(previous, store_digest, tag, key)
        self.last_anchor_tid[key.public] = tx.t_id
        self.submit(engine, tx)
        return tx

    def anchor_storage(self, engine) -> Transaction:
        store_digest = storage_digest(self.in_vehicle_storage)
        tx = self._submit_anchor(engine, store_digest, PayloadTag.STORAGE_ANCHOR)
        engine.trace.emit(engine.now, self.node_id, "anchor",
                          t_id=tx.t_id_hex, n_records=len(self.in_vehicle_storage),
                          store_digest=store_digest.hex())
        return tx

    def transfer_to_backup(self, engine) -> Optional[Transaction]:
        if not self.in_vehicle_storage:
            return None
        moved = len(self.in_vehicle_storage)
        self.backup_store.extend(self.in_vehicle_storage)
        self.in_vehicle_storage.clear()
        tx = self._submit_anchor(engine, storage_digest(self.backup_store),
                                 PayloadTag.BACKUP_ANCHOR)
        engine.trace.emit(engine.now, self.node_id, "backup",
                          t_id=tx.t_id_hex, moved=moved,
                          backup_total=len(self.backup_store))
        return tx

    # -- cloud access (challenge-response each time; no session caching) -----------

    def _upload_record(self, engine, record: StorageRecord) -> None:
        account_id = self.insurance_account[0]
        object_id = f"{account_id}/records/{self._record_seq}"

        def done(eng, resp):
            if "error" in resp:
                eng.trace.emit(eng.now, self.node_id, "upload_rejected",
                               object=object_id, error=resp["error"])
            else:
                eng.trace.emit(eng.now, self.node_id, "record_uploaded",
                               object=object_id, category=record.category)

        self.cloud_call(engine, self.insurance_account, "cloud_put",
                        {"object": object_id, "data": record.wire_bytes()},
                        done)

    # -- software update client -----------------------------------------------------

    def _reject_update(self, engine, tx: Transaction, reason: str) -> None:
        engine.trace.emit(engine.now, self.node_id, "update_rejected",
                          t_id=tx.t_id_hex, reason=reason)

    def handle_update_notification(self, engine, tx: Transaction) -> None:
        if tx.t_id in self._handled_updates:
            return
        self._handled_updates.add(tx.t_id)
        engine.trace.emit(engine.now, self.node_id, "update_received", t_id=tx.t_id_hex)
        verdict = check_integrity(tx)
        if not (verdict.ok and tx.fully_signed and tx.payload_tag is PayloadTag.SW_UPDATE):
            self._reject_update(engine, tx, "invalid")
            return
        if self.oem_pk is None or tx.pk_2 != self.oem_pk:
            self._reject_update(engine, tx, "NotFromMyOem")
            return
        if self.cloud_account is None:
            self._reject_update(engine, tx, "CloudAuthFailed")
            return

        def on_download(eng, resp):
            error = resp.get("error")
            if error == "NotFound":
                self._reject_update(eng, tx, "DownloadMissing")
                return
            if error is not None:
                self._reject_update(eng, tx, "CloudAuthFailed")
                return
            blob = resp["data"]
            if digest(blob) != tx.payload_digest:
                self._reject_update(eng, tx, "HashMismatch")
                return
            try:
                ecu, version, _body = parse_sw_binary(blob)
            except ValueError:
                self._reject_update(eng, tx, "invalid")
                return
            self.installed_sw[ecu] = (version, tx.payload_digest.hex())
            eng.trace.emit(eng.now, self.node_id, "update_verified", t_id=tx.t_id_hex)
            eng.trace.emit(eng.now, self.node_id, "installed",
                           ecu=ecu, version=version,
                           sw_digest=tx.payload_digest.hex())

        self.cloud_call(engine, self.cloud_account, "cloud_get",
                        {"object": sw_object_id(tx.payload_digest)}, on_download)

    # -- deliveries -------------------------------------------------------------------

    def _my_keypairs(self) -> list[KeyPair]:
        pairs = [self.keys.current, *self.keys.history]
        for account in (self.cloud_account, self.insurance_account):
            if account is not None:
                pairs.append(account[1])
        return pairs

    def on_delivered(self, engine, tx: Transaction) -> None:
        if tx.fully_signed:
            self.last_final_tid[tx.pk_1] = tx.t_id
        engine.trace.tx_received(engine.now, self.node_id, tx.t_id_hex, not tx.fully_signed)
        if tx.kind is TxKind.MULTI and tx.sig_2 is None:
            for keypair in self._my_keypairs():
                if keypair.public == tx.pk_2:
                    final = countersign(tx, keypair)
                    engine.trace.countersigned(engine.now, self.node_id, tx.t_id_hex,
                                               final.t_id_hex)
                    self.submit(engine, final)
                    return

    # -- soft handover ------------------------------------------------------------------

    def evaluate_handover(self, engine) -> None:
        if self._handover_in_flight or not self.spec.candidate_obms:
            return
        delays = {}
        for candidate in self.spec.candidate_obms:
            delays[candidate] = engine.probe_rtt(self.node_id, candidate)
        engine.trace.emit(engine.now, self.node_id, "probe",
                          delays={k: round(v, 6) for k, v in delays.items()})
        eligible = {c: d for c, d in delays.items() if d <= self.spec.handover_threshold}
        if not eligible:
            engine.trace.emit(engine.now, self.node_id, "handover_skipped",
                              reason="all_above_threshold")
            return
        best = min(eligible, key=lambda c: (eligible[c], c))
        if best == self.obm_id:
            return
        current_delay = delays.get(self.obm_id, float("inf"))
        if eligible[best] > self.spec.handover_improvement * current_delay:
            engine.trace.emit(engine.now, self.node_id, "handover_skipped",
                              reason="hysteresis")
            return
        self._start_handover(engine, best, delays)

    def _start_handover(self, engine, new_obm: str, delays: dict) -> None:
        self._handover_in_flight = True
        old_obm = self.obm_id
        entries = list(self.access_set)

        def on_joined(eng, resp):
            self.obm_id = new_obm  # connect before break
            eng.trace.emit(eng.now, self.node_id, "handover",
                           old=old_obm, new=new_obm,
                           delays={k: round(v, 6) for k, v in delays.items()})
            self.send_request(eng, old_obm, "leave_cluster", {}, on_left)

        def on_left(eng, resp):
            self._handover_in_flight = False

        self.send_request(engine, new_obm, "join_cluster",
                          {"member_kind": "vehicle", "entries": entries}, on_joined)

    # -- insurance claims -----------------------------------------------------------------

    def trigger_accident(self, engine, insurer_id: str, claim_delay: float = 0.0,
                         tamper: bool = False) -> None:
        """Accident handling: snapshot the store, anchor it, then file a claim
        referencing that anchor once it has had time to reach the chain."""
        snapshot = list(self.in_vehicle_storage)
        anchor = self.anchor_storage(engine)
        engine.trace.emit(engine.now, self.node_id, "accident",
                          anchor_t_id=anchor.t_id_hex, n_records=len(snapshot),
                          tamper=tamper)
        engine.schedule(max(claim_delay, 0.0), self.node_id, Timer(
            self._send_claim, (insurer_id, anchor.t_id, snapshot, tamper)))

    def _send_claim(self, engine, insurer_id: str, anchor_tid: Digest,
                    records: list[StorageRecord], tamper: bool) -> None:
        if tamper and records:  # ``records`` is this claim's own snapshot
            first = records[0]
            altered = bytes([first.payload[0] ^ 0x01]) + first.payload[1:]
            records[0] = dataclasses.replace(first, payload=altered)
        account_id = self.insurance_account[0] if self.insurance_account else ""
        tid_hex = anchor_tid.hex()

        def on_verdict(eng, resp):
            eng.trace.emit(eng.now, self.node_id, "claim_result",
                           anchor_t_id=tid_hex, verdict=resp["verdict"])

        engine.trace.emit(engine.now, self.node_id, "claim_filed",
                          anchor_t_id=tid_hex, n_records=len(records),
                          tampered=tamper)
        self.send_request(engine, insurer_id, "file_claim", {
            "account": account_id,
            "anchor_tid": anchor_tid,
            "records": records,
        }, on_verdict)
