"""Backend service actors: authenticated cloud object store, OEM approval of
published updates, the software provider's publish flow, and the insurer's
account lifecycle and claim verification.
"""
from __future__ import annotations

from typing import Optional

from .config import CLOUD_ID
from .crypto import (
    ZERO_DIGEST,
    Digest,
    KeyPair,
    PublicKey,
    digest,
    generate_keypair,
    verify,
)
from .ledger import (
    PayloadTag,
    Transaction,
    TxKind,
    build_transaction,
    check_integrity,
    countersign,
)
from .messages import AppRequest, BaseActor
from .swformat import build_sw_binary, sw_object_id
from .vehicle import storage_digest


class CloudStore(BaseActor):
    """Key-value object store with per-account ACLs behind challenge-response
    authentication. ACL entries ending in "/" grant the whole prefix. Closing an
    account ends its access, not its objects: they stay stored."""

    def __init__(self):
        super().__init__(CLOUD_ID)
        self.objects: dict[str, bytes] = {}
        self.accounts: dict[str, PublicKey] = {}
        self.acl: dict[str, set[str]] = {}
        self._nonces: dict[str, set[bytes]] = {}  # account -> outstanding challenges
        self._sessions: dict[str, str] = {}
        self._session_seq = 0

    # -- administration (trusted provisioning channel) --------------------------

    def create_account(self, account_id: str, pk: PublicKey, acl) -> None:
        self.accounts[account_id] = pk
        self.acl[account_id] = set(acl)

    def close_account(self, account_id: str) -> bool:
        existed = account_id in self.accounts
        self.accounts.pop(account_id, None)
        self.acl.pop(account_id, None)
        self._nonces.pop(account_id, None)
        self._sessions = {s: a for s, a in self._sessions.items() if a != account_id}
        return existed

    # -- request protocol ---------------------------------------------------------

    def serve_cloud_auth(self, engine, request: AppRequest) -> dict:
        account_id = request.data["account"]
        if account_id not in self.accounts:
            return {"error": "UnknownAccount"}
        nonce = engine.rng(f"cloud:{self.node_id}").getrandbits(256).to_bytes(32, "big")
        self._nonces.setdefault(account_id, set()).add(nonce)
        return {"nonce": nonce}

    def serve_cloud_proof(self, engine, request: AppRequest) -> dict:
        data = request.data
        account_id = data["account"]
        pk = self.accounts.get(account_id)
        if pk is None:
            return {"error": "UnknownAccount"}
        nonce = data.get("nonce")
        outstanding = self._nonces.get(account_id, set())
        if nonce not in outstanding:
            return {"error": "BadProof"}
        outstanding.discard(nonce)
        if not verify(nonce, data["proof"], pk):
            return {"error": "BadProof"}
        self._session_seq += 1
        session = f"session-{self._session_seq}"
        self._sessions[session] = account_id
        engine.trace.emit(engine.now, self.node_id, "cloud_session",
                          account=account_id, session=session)
        return {"session": session}

    def _access(self, engine, data: dict, op: str) -> tuple[Optional[str], Optional[dict]]:
        """The session's account and, when the request is refused, the error
        reply: NoSession, or AccessDenied (recorded as ``cloud_denied``) when
        no ACL entry of the account reaches the object."""
        account_id = self._sessions.get(data.get("session", ""))
        if account_id is None:
            return None, {"error": "NoSession"}
        object_id = data["object"]
        for entry in self.acl.get(account_id, ()):
            if entry == object_id or (entry.endswith("/") and object_id.startswith(entry)):
                return account_id, None
        engine.trace.emit(engine.now, self.node_id, "cloud_denied",
                          account=account_id, object=object_id, op=op)
        return account_id, {"error": "AccessDenied"}

    def serve_cloud_put(self, engine, request: AppRequest) -> dict:
        data = request.data
        account_id, refusal = self._access(engine, data, "put")
        if refusal is not None:
            return refusal
        object_id = data["object"]
        self.objects[object_id] = data["data"]
        engine.trace.emit(engine.now, self.node_id, "cloud_put",
                          account=account_id, object=object_id,
                          size=len(self.objects[object_id]))
        return {"ok": True}

    def serve_cloud_get(self, engine, request: AppRequest) -> dict:
        _, refusal = self._access(engine, request.data, "get")
        if refusal is not None:
            return refusal
        blob = self.objects.get(request.data["object"])
        if blob is None:
            return {"error": "NotFound"}
        return {"data": blob}

    def serve_admin_create_account(self, engine, request: AppRequest) -> dict:
        data = request.data
        self.create_account(data["account"], data["pk"], data.get("acl", []))
        engine.trace.emit(engine.now, self.node_id, "account_created",
                          account=data["account"])
        return {"ok": True}

    def serve_admin_close_account(self, engine, request: AppRequest) -> dict:
        account_id = request.data["account"]
        existed = self.close_account(account_id)
        engine.trace.emit(engine.now, self.node_id, "account_closed",
                          account=account_id, existed=existed)
        return {"ok": True, "existed": existed}


class SwProvider(BaseActor):
    """Software provider: stores a new binary in the cloud and submits the
    half-signed update transaction addressed to the OEM."""

    def __init__(self, node_id: str, keypair: KeyPair, obm_id: str, *,
                 cloud_account: tuple[str, KeyPair], oem_pk: PublicKey):
        super().__init__(node_id)
        self.keypair = keypair
        self.obm_id = obm_id
        self.cloud_account = cloud_account
        self.oem_pk = oem_pk
        self.last_final_tid: Digest = ZERO_DIGEST
        self.published: list[tuple[str, str, str]] = []  # (version, object id, pending tid)

    def publish_update(self, engine, ecu: str, version: str,
                       body: Optional[bytes] = None) -> None:
        if body is None:
            rng = engine.rng(f"binary:{self.node_id}:{version}")
            body = rng.getrandbits(8 * 256).to_bytes(256, "big")
        blob = build_sw_binary(ecu, version, body)
        blob_digest = digest(blob)
        object_id = sw_object_id(blob_digest)

        def on_stored(eng, resp):
            if "error" in resp:
                eng.trace.emit(eng.now, self.node_id, "publish_failed",
                               version=version, error=resp["error"])
                return
            pending = build_transaction(self.last_final_tid, blob_digest, PayloadTag.SW_UPDATE,
                                        self.keypair, recipient_pk=self.oem_pk)
            self.published.append((version, object_id, pending.t_id_hex))
            eng.trace.emit(eng.now, self.node_id, "published",
                           version=version, object=object_id,
                           t_id=pending.t_id_hex)
            self.submit(eng, pending)

        self.cloud_call(engine, self.cloud_account, "cloud_put",
                        {"object": object_id, "data": blob}, on_stored)

    def on_delivered(self, engine, tx: Transaction) -> None:
        if tx.fully_signed and tx.pk_1 == self.keypair.public:
            # countersign feedback: the recipient recomputed the final id
            self.last_final_tid = tx.t_id
            engine.trace.emit(engine.now, self.node_id, "final_observed",
                              t_id=tx.t_id_hex)


class Oem(BaseActor):
    """Vehicle manufacturer: re-verifies published binaries and countersigns
    the provider's pending update transactions."""

    def __init__(self, node_id: str, keypair: KeyPair, obm_id: str, *,
                 cloud_account: tuple[str, KeyPair]):
        super().__init__(node_id)
        self.keypair = keypair
        self.obm_id = obm_id
        self.cloud_account = cloud_account

    def on_delivered(self, engine, tx: Transaction) -> None:
        if not tx.fully_signed:
            self.approve(engine, tx)

    def _reject(self, engine, tx: Transaction, reason: str) -> None:
        engine.trace.emit(engine.now, self.node_id, "approval_rejected",
                          t_id=tx.t_id_hex, reason=reason)

    def approve(self, engine, pending: Transaction) -> None:
        """Verify a half-signed update end-to-end, then countersign it."""
        if pending.kind is not TxKind.MULTI or pending.pk_2 != self.keypair.public:
            self._reject(engine, pending, "NotAddressedToMe")
            return
        if pending.sig_2 is not None:
            return
        verdict = check_integrity(pending)
        if not verdict.ok:
            self._reject(engine, pending, "BadProviderSignature")
            return
        if pending.payload_tag is not PayloadTag.SW_UPDATE:
            self._reject(engine, pending, "NotAddressedToMe")
            return

        def on_download(eng, resp):
            if "error" in resp:
                self._reject(eng, pending, "DigestMismatch")
                return
            if digest(resp["data"]) != pending.payload_digest:
                self._reject(eng, pending, "DigestMismatch")
                return
            final = countersign(pending, self.keypair)
            eng.trace.emit(eng.now, self.node_id, "approved",
                           pending_t_id=pending.t_id_hex,
                           t_id=final.t_id_hex)
            self.submit(eng, final)

        self.cloud_call(engine, self.cloud_account, "cloud_get",
                        {"object": sw_object_id(pending.payload_digest)},
                        on_download)


class Insurer(BaseActor):
    """Insurance company: opens and closes vehicle cloud accounts, keeps the
    account-to-owner registry and key database, and verifies claims against
    anchors stored in the chain."""

    def __init__(self, node_id: str, keypair: KeyPair, obm_id: str):
        super().__init__(node_id)
        self.keypair = keypair
        self.obm_id = obm_id
        self.registry: dict[str, str] = {}  # account id -> owner identity
        self.pk_db: dict[str, PublicKey] = {}  # account id -> account pk
        self._account_seq = 0

    def open_account(self, engine, vehicle_id: str, owner_identity: str) -> str:
        self._account_seq += 1
        account_id = f"{self.node_id}-acct-{self._account_seq}"
        account_key = generate_keypair(f"{self.node_id}:account:{account_id}")
        self.registry[account_id] = owner_identity
        self.pk_db[account_id] = account_key.public

        def on_created(eng, resp):
            eng.trace.emit(eng.now, self.node_id, "account_opened",
                           account=account_id, vehicle=vehicle_id)
            self.send_request(eng, vehicle_id, "provision_insurance", {
                "account": account_id,
                "account_key": account_key,
                "insurer_pk": self.keypair.public,
            }, lambda e, r: None)

        self.send_request(engine, CLOUD_ID, "admin_create_account", {
            "account": account_id,
            "pk": account_key.public,
            "acl": [f"{account_id}/"],
        }, on_created)
        return account_id

    def close_account(self, engine, account_id: str) -> None:
        def on_closed(eng, resp):
            eng.trace.emit(eng.now, self.node_id, "account_closure",
                           account=account_id, existed=resp.get("existed"))

        self.send_request(engine, CLOUD_ID, "admin_close_account",
                          {"account": account_id}, on_closed)

    def serve_file_claim(self, engine, request: AppRequest) -> None:
        """Reply only once the anchor's ``chain_lookup`` has answered."""
        data = request.data
        account_id, anchor_tid = data["account"], data["anchor_tid"]

        def on_anchor(eng, resp):
            verdict = self._verdict(account_id, data["records"], resp["tx"])
            eng.trace.emit(eng.now, self.node_id, "claim_verified",
                           account=account_id, anchor_t_id=anchor_tid.hex(),
                           verdict=verdict)
            self.reply(eng, request, {"verdict": verdict})

        self.send_request(engine, self.obm_id, "chain_lookup",
                          {"t_id": anchor_tid}, on_anchor)

    def _verdict(self, account_id: str, records, anchor: Optional[Transaction]) -> str:
        if anchor is None:
            return "AnchorNotFound"
        registered_pk = self.pk_db.get(account_id)
        if registered_pk is None or anchor.pk_1 != registered_pk:
            return "KeyNotRegistered"
        if storage_digest(records) != anchor.payload_digest:
            return "DigestMismatch"
        return "accepted"
