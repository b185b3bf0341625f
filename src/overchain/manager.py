"""Cluster-head block manager: transaction admission and routing by key-pair
access entries, pooling, scheduled block generation, trust-weighted block
validation, and throughput adjustment.

Routing summary for an arriving transaction:
  - integrity failure (structure/signatures)            -> dropped (invalid)
  - already seen                                        -> dropped (duplicate)
  - predecessor not yet known                           -> parked until it is
  - key-pair matches an access entry                    -> delivered to member
  - fully signed, not yet in the chain                  -> pooled for a block
  - origin is a cluster member                          -> broadcast to peers
  - relayed, no match, not poolable                     -> dropped (no_match)
  - relayed, no match, already in the chain             -> dropped (duplicate)
A fully signed software-update transaction additionally notifies vehicle
members, gated on the countersigner holding a verifiable certificate.

The key list files each access entry under both ordered key pairs, so a
match is one dict lookup of ``(pk_1, pk_2)``. ``chain_summary`` works out a
chain's ``manager_summary`` figures, which the end of a run computes once per
distinct chain.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .config import LedgerConfig
from .crypto import (
    ZERO_DIGEST,
    Certificate,
    Digest,
    KeyPair,
    PublicKey,
    digest as _digest,
    verify_certificate,
)
from .ledger import (
    Block,
    Chain,
    PayloadTag,
    ThroughputState,
    Transaction,
    TrustTable,
    append_block,
    check_integrity,
    form_block,
)
from .ledger import validate_block as _validate_block
from .messages import (
    AppRequest,
    BaseActor,
    BlockMessage,
    DeliverTx,
    TxMessage,
    UpdateNotice,
)


@dataclass(frozen=True)
class KeyListEntry:
    """Access entry uploaded by a member: the named requester key may exchange
    transactions with the member's key, delivered to ``member_id``."""

    requester_pk: PublicKey
    member_pk: PublicKey
    member_id: str


class KeyList:
    """Ordered collection of access entries with pair matching in both
    orientations.

    Each entry is filed under both ordered key pairs, ``(r, m)`` and
    ``(m, r)``, which share one bucket: ``matches(pk_1, pk_2)`` is one lookup
    of ``(pk_1, pk_2)``, and finds the entries whose ``{r, m}`` is
    ``{pk_1, pk_2}``. A bucket is a tuple in insertion order, so ``matches``
    returns hits in ``entries`` order and hands out the bucket itself.
    """

    def __init__(self) -> None:
        self.entries: list[KeyListEntry] = []
        self._by_pair: dict[tuple[PublicKey, PublicKey], tuple[KeyListEntry, ...]] = {}

    def add(self, entry: KeyListEntry) -> bool:
        if entry in self._by_pair.get((entry.requester_pk, entry.member_pk), ()):
            return False
        self._file(entry)
        self.entries.append(entry)
        return True

    def _file(self, entry: KeyListEntry) -> None:
        r, m = entry.requester_pk, entry.member_pk
        self._by_pair[r, m] = self._by_pair[m, r] = self._by_pair.get((r, m), ()) + (entry,)

    def remove_member(self, member_id: str) -> int:
        before = len(self.entries)
        self.entries = [e for e in self.entries if e.member_id != member_id]
        self._by_pair = {}
        for e in self.entries:
            self._file(e)
        return before - len(self.entries)

    def matches(self, pk_1: PublicKey, pk_2: Optional[PublicKey]) -> tuple[KeyListEntry, ...]:
        return self._by_pair.get((pk_1, pk_2), ())  # no pair holds None


class BlockManager(BaseActor):
    """One overlay cluster head."""

    def __init__(self, node_id: str, keypair: KeyPair,
                 ledger: LedgerConfig = LedgerConfig(), *,
                 ca_pk: Optional[PublicKey] = None, period_floor: float = 0.0):
        super().__init__(node_id)
        self.keypair = keypair
        self.ledger = ledger
        self.ca_pk = ca_pk
        self.chain = Chain()
        self.trust = TrustTable(ledger)
        self.throughput = ThroughputState(ledger, period_floor)

        self.peers: list[str] = []
        self.manager_names: dict[PublicKey, str] = {}
        self.members: dict[str, str] = {}  # member id -> kind ("vehicle"/"service")
        self.key_list = KeyList()
        self.certified: dict[PublicKey, Certificate] = {}

        self.pool: dict[Digest, Transaction] = {}  # insertion (arrival) order
        self.seen_tids: set[Digest] = set()
        self.waiting: dict[Digest, tuple[Transaction, Optional[str], float]] = {}

        self.drops = {"invalid": 0, "duplicate": 0, "no_match": 0}
        self.delivered_count = 0
        self._window_count = 0
        self._last_tick_at = 0.0

    # -- membership and key lists ---------------------------------------------

    def add_member(self, member_id: str, kind: str = "vehicle") -> None:
        self.members[member_id] = kind

    def remove_member(self, member_id: str) -> None:
        self.members.pop(member_id, None)

    def upload_key_pair(self, engine, member_id: str, requester_pk: PublicKey,
                        member_pk: PublicKey) -> bool:
        """Record an access entry for a cluster member; idempotent."""
        if member_id not in self.members:
            engine.trace.emit(engine.now, self.node_id, "key_upload_rejected", member=member_id)
            return False
        added = self.key_list.add(KeyListEntry(requester_pk, member_pk, member_id))
        if added:
            engine.trace.emit(engine.now, self.node_id, "key_uploaded", member=member_id,
                              requester_pk=requester_pk.hex()[:16],
                              member_pk=member_pk.hex()[:16])
        return added

    def remove_member_keys(self, engine, member_id: str) -> int:
        removed = self.key_list.remove_member(member_id)
        engine.trace.emit(engine.now, self.node_id, "keys_removed", member=member_id,
                          removed=removed)
        return removed

    def generator_name(self, pk: PublicKey) -> str:
        return self.manager_names.get(pk, pk.hex()[:12])

    # -- requests ---------------------------------------------------------------

    def serve_join_cluster(self, engine, request: AppRequest) -> dict:
        member = request.sender
        self.add_member(member, request.data.get("member_kind", "vehicle"))
        for requester_pk, member_pk in request.data.get("entries", []):
            self.upload_key_pair(engine, member, requester_pk, member_pk)
        engine.trace.emit(engine.now, self.node_id, "member_joined", member=member)
        return {"ok": True}

    def serve_leave_cluster(self, engine, request: AppRequest) -> dict:
        member = request.sender
        self.remove_member_keys(engine, member)
        self.remove_member(member)
        engine.trace.emit(engine.now, self.node_id, "member_left", member=member)
        return {"ok": True}

    def serve_upload_keys(self, engine, request: AppRequest) -> dict:
        added = 0
        for requester_pk, member_pk in request.data.get("entries", []):
            if self.upload_key_pair(engine, request.sender, requester_pk, member_pk):
                added += 1
        return {"ok": request.sender in self.members, "added": added}

    def serve_chain_lookup(self, engine, request: AppRequest) -> dict:
        return {"tx": self.chain.get_tx(request.data["t_id"])}

    # -- transaction admission and routing ---------------------------------------

    def receive_transaction(self, engine, tx: Transaction, origin_member: Optional[str]) -> None:
        tid = tx.t_id
        if tid in self.seen_tids or tid in self.waiting:
            self._drop(engine, tx.t_id_hex, "duplicate", "")
            return
        verdict = check_integrity(tx)
        if not verdict.ok:
            self._drop(engine, tx.t_id_hex, "invalid", verdict.detail)
            return
        p = tx.p_t_id
        if p != ZERO_DIGEST and p not in self.chain.tx_index and p not in self.pool:
            self.waiting[tid] = (tx, origin_member, engine.now + self.ledger.pending_timeout)
            engine.trace.emit(engine.now, self.node_id, "tx_parked", t_id=tx.t_id_hex)
            return
        self._admit(engine, tx, origin_member)

    def _drop(self, engine, tid_hex: str, reason: str, detail: str) -> None:
        self.drops[reason] += 1
        engine.trace.tx_dropped(engine.now, self.node_id, tid_hex, reason, detail)

    def _admit(self, engine, tx: Transaction, origin_member: Optional[str]) -> None:
        tid, tid_hex, fully_signed = tx.t_id, tx.t_id_hex, tx.fully_signed
        self.seen_tids.add(tid)
        sinks = 0
        committed = tid in self.chain.tx_index  # a block brought it before this copy

        if fully_signed and not committed:
            self.pool[tid] = tx
            self._window_count += 1
            engine.trace.tx_pooled(engine.now, self.node_id, tid_hex,
                                   "member" if origin_member else "peer")
            sinks += 1

        for entry in self.key_list.matches(tx.pk_1, tx.pk_2):
            self.delivered_count += 1
            engine.trace.tx_delivered(engine.now, self.node_id, tid_hex, entry.member_id,
                                      not fully_signed)
            engine.send(self.node_id, entry.member_id, DeliverTx(tx))
            sinks += 1

        if fully_signed and tx.payload_tag is PayloadTag.SW_UPDATE:
            self._notify_update(engine, tx)

        if origin_member is not None and self.peers:
            engine.trace.tx_broadcast(engine.now, self.node_id, tid_hex)
            relay = TxMessage(tx, origin_member=None)  # frozen, so one serves every peer
            for peer in self.peers:
                engine.send(self.node_id, peer, relay)
            sinks += 1

        if sinks == 0:
            # terminal: nothing consumed it and it has nowhere further to go
            self.seen_tids.discard(tid)
            if committed:
                self._drop(engine, tid_hex, "duplicate", "arrived via block first")
            else:
                self._drop(engine, tid_hex, "no_match", "")
            return

        if fully_signed:
            self._unpark(engine, tid)

    def _notify_update(self, engine, tx: Transaction) -> None:
        tid_hex = tx.t_id_hex
        if self.ledger.notify_requires_certificate:
            cert = self.certified.get(tx.pk_2)
            if cert is None or self.ca_pk is None or not verify_certificate(cert, self.ca_pk):
                engine.trace.emit(engine.now, self.node_id, "notify_suppressed",
                                  t_id=tid_hex, reason="uncertified_countersigner")
                return
        for member_id, kind in self.members.items():
            if kind == "vehicle":
                engine.trace.emit(engine.now, self.node_id, "update_notified",
                                  t_id=tid_hex, member=member_id)
                engine.send(self.node_id, member_id, UpdateNotice(tx))

    def _unpark(self, engine, new_tid: Digest) -> None:
        """Admit any parked transactions whose predecessor just became known."""
        if not self.waiting:
            return
        ready = [tid for tid, (tx, _, _) in self.waiting.items() if tx.p_t_id == new_tid]
        for tid in ready:
            tx, origin, _ = self.waiting.pop(tid)
            engine.trace.emit(engine.now, self.node_id, "tx_unparked", t_id=tx.t_id_hex)
            self._admit(engine, tx, origin)

    def expire_waiting(self, engine, expire_all: bool = False) -> None:
        stale = [tx for tx, _, deadline in self.waiting.values()
                 if expire_all or deadline <= engine.now]
        for tx in stale:
            del self.waiting[tx.t_id]
            self._drop(engine, tx.t_id_hex, "invalid", "missing_predecessor")

    # -- block generation and validation -----------------------------------------

    def tick(self, engine, period_index: int, turn_id: str) -> None:
        """One block period boundary: adjust throughput, then generate if it is
        this manager's turn."""
        elapsed = engine.now - self._last_tick_at
        rate = self._window_count / elapsed if elapsed > 0 else 0.0
        utilization = self.throughput.adjust(rate, len(self.peers) + 1)
        engine.trace.emit(engine.now, self.node_id, "throughput",
                          period=period_index, rate=rate, utilization=utilization,
                          band=[self.ledger.utilization_low, self.ledger.utilization_high],
                          block_period=self.throughput.block_period,
                          pool_depth=len(self.pool), turn=turn_id == self.node_id)
        self._window_count = 0
        self._last_tick_at = engine.now
        self.expire_waiting(engine)
        if turn_id != self.node_id:
            return
        self._generate(engine, flush=False)

    def flush_turn(self, engine) -> bool:
        """End-of-run turn: drain remaining pooled transactions into a
        possibly shorter block. Returns True if a block was produced."""
        return self._generate(engine, flush=True)

    def _generate(self, engine, flush: bool) -> bool:
        block = form_block(self.pool, self.chain, self.keypair, self.ledger.block_size,
                           flush=flush)
        if block is None:
            return False
        append_block(self.chain, block)
        engine.trace.emit(engine.now, self.node_id, "block_formed",
                          block_id=block.block_id_hex, height=block.height,
                          n_tx=len(block.transactions), flush=flush)
        for peer in self.peers:
            engine.send(self.node_id, peer, BlockMessage(block))
        for tx in block.transactions:
            self._unpark(engine, tx.t_id)
        return True

    def on_block(self, engine, block: Block) -> None:
        sample_seed = engine.rng(f"validate:{self.node_id}").getrandbits(64)
        verdict = _validate_block(block, self.chain, self.trust, sample_seed)
        trace, now, node_id = engine.trace, engine.now, self.node_id
        block_id, height = block.block_id_hex, block.height
        generator = self.generator_name(block.generator_pk)
        fault = verdict.fault.value if verdict.fault else None
        trace.block_validated(now, node_id, block_id, height, generator, verdict.ok, fault,
                              verdict.verification_count)
        if not verdict.ok:
            rec = self.trust.record_invalid(block.generator_pk)
            trace.trust_updated(now, node_id, generator, rec.trust_score,
                                rec.valid_blocks_seen, rec.invalid_blocks_seen)
            trace.emit(now, node_id, "block_rejected", block_id=block_id, height=height,
                       fault=fault)
            return
        append_block(self.chain, block)
        rec = self.trust.record_valid(block.generator_pk)
        for tx in block.transactions:
            self.pool.pop(tx.t_id, None)
        trace.block_appended(now, node_id, block_id, height, len(block.transactions),
                             generator)
        trace.trust_updated(now, node_id, generator, rec.trust_score, rec.valid_blocks_seen,
                            rec.invalid_blocks_seen)
        for tx in block.transactions:
            self._unpark(engine, tx.t_id)

    # -- reporting ----------------------------------------------------------------

    def emit_summary(self, engine, summary: tuple[str, int]) -> str:
        """Emit ``manager_summary`` and return its ``chain_digest``. ``summary``
        is ``chain_summary(self.chain)``, which a caller works out once for
        every manager that holds the same chain."""
        chain_digest, sw_finals = summary
        engine.trace.emit(engine.now, self.node_id, "manager_summary",
                          pool_depth=len(self.pool), waiting=len(self.waiting),
                          blocks=self.chain.height, delivered=self.delivered_count,
                          drops=dict(self.drops), sw_finals=sw_finals,
                          chain_digest=chain_digest)
        return chain_digest


def chain_summary(chain: Chain) -> tuple[str, int]:
    """``manager_summary``'s ``chain_digest``, the hex SHA-256 of the chain's
    text, and ``sw_finals``, its fully signed software updates."""
    chain_digest = _digest("\n".join(chain.dump_lines()).encode()).hex()
    sw_finals = sum(1 for tx in chain.all_transactions()
                    if tx.payload_tag is PayloadTag.SW_UPDATE and tx.fully_signed)
    return chain_digest, sw_finals
