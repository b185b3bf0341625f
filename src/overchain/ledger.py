"""Core ledger: transactions, blocks, chains, trust scoring, throughput adjustment.

Transactions identify their signer(s) by public key only. A single-sig
transaction is complete as built; a multisig transaction starts half-signed
("pending") and becomes complete when the addressed party countersigns, which
recomputes its identifier. Each public key's transactions form a hash-linked
list through ``p_t_id`` starting from the all-zero digest.

Blocks are generated on a fixed round-robin turn schedule (no proof-of-work)
and receivers verify only a trust-dependent fraction of block contents; the
closing audit checks every transaction by the same rule.

Transactions and blocks are frozen, so each caches its checks on first use (a
transaction its integrity verdict and hex ``t_id``, a block its signing bytes,
id check, hex ``block_id`` and dump line): every node that is handed the same
object reuses them. A tampered copy (``dataclasses.replace``) is a new value
and is checked afresh. Signature verdicts are kept only by ``crypto.verified``,
on each ``Signature`` by exact message and key bytes, so a countersigned copy,
which shares its pending copy's ``sig_1`` object, does not verify ``sig_1``
again. ``BlockVerdict.verification_count`` still counts the simulated sample.
"""
from __future__ import annotations

import json
import math
import random
import struct
from dataclasses import dataclass
from enum import Enum
from typing import AbstractSet, Collection, Iterable, Optional, Sequence

from .config import LedgerConfig
from .crypto import (
    DIGEST_SIZE,
    SIGNATURE_SIZE,
    ZERO_DIGEST,
    Digest,
    KeyPair,
    PublicKey,
    Signature,
    cached,
    canonical_join,
    digest,
    verified,
)


class TxKind(str, Enum):
    SINGLE = "single"
    MULTI = "multi"


class PayloadTag(str, Enum):
    STORAGE_ANCHOR = "storage_anchor"
    BACKUP_ANCHOR = "backup_anchor"
    SW_UPDATE = "sw_update"
    INSURANCE_DATA = "insurance_data"
    GENERIC = "generic"


# ---------------------------------------------------------------------------
# transactions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Transaction:
    """One ledger entry. ``t_id`` is the digest of every other field, so any
    byte of the stored form is tamper-evident. Payload bytes live off-chain;
    only their digest is committed."""

    t_id: Digest
    p_t_id: Digest
    kind: TxKind
    pk_1: PublicKey
    sig_1: Signature
    pk_2: Optional[PublicKey]
    sig_2: Optional[Signature]
    payload_digest: Digest
    payload_tag: PayloadTag

    def signing_body(self) -> bytes:
        """Bytes covered by sig_1 and (for multisig) sig_2."""
        return _signing_body(self.p_t_id, self.payload_digest, self.pk_1, self.pk_2)

    def body_bytes(self) -> bytes:
        """Canonical serialization of every field except t_id."""
        return _body_bytes(self.p_t_id, self.kind, self.pk_1, self.sig_1, self.pk_2,
                           self.sig_2, self.payload_digest, self.payload_tag)

    def compute_t_id(self) -> Digest:
        return digest(self.body_bytes())

    def wire_bytes(self) -> bytes:
        return canonical_join(self.t_id) + self.body_bytes()

    @cached
    def _integrity(self) -> TxVerdict:
        """``check_integrity``'s verdict, computed once per value."""
        if self.kind is TxKind.SINGLE and (self.pk_2 is not None or self.sig_2 is not None):
            return TxVerdict(False, TxFault.MALFORMED, "single-sig with countersign fields")
        if self.kind is TxKind.MULTI and self.pk_2 is None:
            return TxVerdict(False, TxFault.MALFORMED, "multisig without recipient pk")
        if self.t_id != self.compute_t_id():
            return TxVerdict(False, TxFault.MALFORMED, "t_id does not match contents")
        body = self.signing_body()
        if not verified(body, self.sig_1, self.pk_1):
            return TxVerdict(False, TxFault.BAD_SIGNATURE, "sig_1 invalid")
        if self.sig_2 is not None and not verified(body, self.sig_2, self.pk_2):
            return TxVerdict(False, TxFault.BAD_SIGNATURE, "sig_2 invalid")
        return _TX_OK

    @cached
    def t_id_hex(self) -> str:
        """``t_id`` in hex, as trace records name it; formatted once per value."""
        return self.t_id.hex()

    @cached
    def fully_signed(self) -> bool:
        return self.kind is TxKind.SINGLE or self.sig_2 is not None

    def dump(self) -> str:
        """This transaction's object in ``Chain.dump_lines``, as compact JSON:
        its strings are hex digits or enum values, which need no escaping.
        ``from_json_obj`` reads it back."""
        return ('{"t_id":"%s","p_t_id":"%s","kind":"%s","pk_1":"%s","sig_1":"%s","pk_2":%s,'
                '"sig_2":%s,"payload_digest":"%s","payload_tag":"%s"}'
                % (self.t_id_hex, self.p_t_id.hex(), self.kind.value, self.pk_1.hex(),
                   self.sig_1.hex(), '"%s"' % self.pk_2.hex() if self.pk_2 else "null",
                   '"%s"' % self.sig_2.hex() if self.sig_2 else "null",
                   self.payload_digest.hex(), self.payload_tag.value))

    def to_json_obj(self) -> dict:
        return json.loads(self.dump())

    @classmethod
    def from_json_obj(cls, obj: dict) -> "Transaction":
        return cls(
            t_id=Digest.fromhex(obj["t_id"]),
            p_t_id=Digest.fromhex(obj["p_t_id"]),
            kind=TxKind(obj["kind"]),
            pk_1=PublicKey.fromhex(obj["pk_1"]),
            sig_1=Signature.fromhex(obj["sig_1"]),
            pk_2=PublicKey.fromhex(obj["pk_2"]) if obj.get("pk_2") else None,
            sig_2=Signature.fromhex(obj["sig_2"]) if obj.get("sig_2") else None,
            payload_digest=Digest.fromhex(obj["payload_digest"]),
            payload_tag=PayloadTag(obj["payload_tag"]),
        )


# ``canonical_join``'s layout, written out: every field but the optional pk_2
# and sig_2 has a fixed length, so its u32 length prefix is a constant.
_LEN_0, _LEN_32, _LEN_64 = (struct.pack(">I", n) for n in (0, DIGEST_SIZE, SIGNATURE_SIZE))
_KIND_FIELD = {kind: canonical_join(kind.value.encode()) for kind in TxKind}
_TAG_FIELD = {tag: canonical_join(tag.value.encode()) for tag in PayloadTag}


def _signing_body(p_t_id, payload_digest, pk_1, pk_2) -> bytes:
    if pk_2 is None:
        return b"".join((_LEN_32, p_t_id, _LEN_32, payload_digest, _LEN_32, pk_1))
    return b"".join((_LEN_32, p_t_id, _LEN_32, payload_digest, _LEN_32, pk_1, _LEN_32, pk_2))


def _body_bytes(p_t_id, kind, pk_1, sig_1, pk_2, sig_2, payload_digest, payload_tag) -> bytes:
    return b"".join((_LEN_32, p_t_id, _KIND_FIELD[kind], _LEN_32, pk_1, _LEN_64, sig_1,
                     _LEN_32 if pk_2 else _LEN_0, pk_2 or b"",
                     _LEN_64 if sig_2 else _LEN_0, sig_2 or b"",
                     _LEN_32, payload_digest, _TAG_FIELD[payload_tag]))


def _sealed(*fields) -> Transaction:
    """The transaction of ``fields`` (every field but t_id, in order) and its t_id."""
    return Transaction(digest(_body_bytes(*fields)), *fields)


def build_transaction(
    p_t_id: Digest,
    payload_digest: Digest,
    payload_tag: PayloadTag,
    generator: KeyPair,
    recipient_pk: Optional[PublicKey] = None,
) -> Transaction:
    """Build and sign a transaction as its generator (sig_1 holder): a pending
    multisig addressed to ``recipient_pk`` when one is given, else single-sig."""
    kind = TxKind.SINGLE if recipient_pk is None else TxKind.MULTI
    pk_1 = generator.public
    sig_1 = generator.sign(_signing_body(p_t_id, payload_digest, pk_1, recipient_pk))
    return _sealed(p_t_id, kind, pk_1, sig_1, recipient_pk, None, payload_digest, payload_tag)


def countersign(tx: Transaction, recipient: KeyPair) -> Transaction:
    """Complete a pending multisig as the addressed party. Recomputes t_id."""
    if tx.kind is not TxKind.MULTI:
        raise ValueError("only multisig transactions can be countersigned")
    if tx.sig_2 is not None:
        raise ValueError("transaction is already fully signed")
    if tx.pk_2 != recipient.public:
        raise ValueError("countersigner key does not match the addressed pk_2")
    sig_2 = recipient.sign(tx.signing_body())
    return _sealed(tx.p_t_id, tx.kind, tx.pk_1, tx.sig_1, tx.pk_2, sig_2,
                   tx.payload_digest, tx.payload_tag)


class TxFault(str, Enum):
    MALFORMED = "malformed"
    BAD_SIGNATURE = "bad_signature"
    MISSING_PREDECESSOR = "missing_predecessor"


@dataclass(frozen=True)
class TxVerdict:
    ok: bool
    fault: Optional[TxFault] = None
    detail: str = ""


_TX_OK = TxVerdict(True)  # frozen, so every passing check returns this one


def check_integrity(tx: Transaction) -> TxVerdict:
    """Structural and signature checks that need no chain context."""
    return tx._integrity


def validate_transaction(
    tx: Transaction,
    chain: "Chain",
    known: AbstractSet[Digest] = frozenset(),
) -> TxVerdict:
    """Full validation against a chain. ``known`` extends the predecessor
    lookup with identifiers visible outside the chain (e.g. pooled entries)."""
    verdict = check_integrity(tx)
    if not verdict.ok:
        return verdict
    if tx.p_t_id != ZERO_DIGEST and tx.p_t_id not in chain.tx_index and tx.p_t_id not in known:
        return TxVerdict(False, TxFault.MISSING_PREDECESSOR, "p_t_id unknown")
    return _TX_OK


# ---------------------------------------------------------------------------
# blocks and chains
# ---------------------------------------------------------------------------

def _block_body(prev_block_hash, generator_pk, height, transactions) -> bytes:
    """The bytes a block's generator signs and its id hashes."""
    return canonical_join(prev_block_hash, generator_pk, struct.pack(">Q", height),
                          *(tx.wire_bytes() for tx in transactions))


@dataclass(frozen=True)
class Block:
    block_id: Digest
    prev_block_hash: Digest
    generator_pk: PublicKey
    height: int
    transactions: tuple
    generator_signature: Signature

    def signing_body(self) -> bytes:
        return self._signing_body

    @cached
    def _signing_body(self) -> bytes:
        return _block_body(self.prev_block_hash, self.generator_pk, self.height,
                           self.transactions)

    def compute_block_id(self) -> Digest:
        return digest(self.signing_body())

    @cached
    def _id_ok(self) -> bool:
        return self.block_id == self.compute_block_id()

    @cached
    def block_id_hex(self) -> str:
        """``block_id`` in hex, as trace records name it; formatted once per value."""
        return self.block_id.hex()

    @cached
    def _dump_line(self) -> str:
        """``Chain.dump_lines``'s line for this block, formatted once per value as
        compact JSON, ``height`` by ``repr`` as the encoder writes an int.
        ``from_json_obj`` reads it back."""
        return ('{"height":%r,"block_id":"%s","prev_block_hash":"%s","generator_pk":"%s",'
                '"generator_signature":"%s","transactions":[%s]}'
                % (self.height, self.block_id_hex, self.prev_block_hash.hex(),
                   self.generator_pk.hex(), self.generator_signature.hex(),
                   ",".join([tx.dump() for tx in self.transactions])))

    def to_json_obj(self) -> dict:
        return json.loads(self._dump_line)

    @classmethod
    def from_json_obj(cls, obj: dict) -> "Block":
        return cls(
            block_id=Digest.fromhex(obj["block_id"]),
            prev_block_hash=Digest.fromhex(obj["prev_block_hash"]),
            generator_pk=PublicKey.fromhex(obj["generator_pk"]),
            height=obj["height"],
            transactions=tuple(Transaction.from_json_obj(t) for t in obj["transactions"]),
            generator_signature=Signature.fromhex(obj["generator_signature"]),
        )


class ChainError(Exception):
    pass


class Chain:
    """An append-only block sequence plus a transaction-id index."""

    def __init__(self) -> None:
        self.blocks: list[Block] = []
        self.tx_index: dict[Digest, tuple[int, int]] = {}

    @property
    def head_hash(self) -> Digest:
        return self.blocks[-1].block_id if self.blocks else ZERO_DIGEST

    @property
    def height(self) -> int:
        return len(self.blocks)

    def get_tx(self, t_id: Digest) -> Optional[Transaction]:
        pos = self.tx_index.get(t_id)
        if pos is None:
            return None
        h, i = pos
        return self.blocks[h].transactions[i]

    def all_transactions(self) -> Iterable[Transaction]:
        for block in self.blocks:
            yield from block.transactions

    def dump_lines(self) -> list[str]:
        """One structured text line per block, suitable for golden-file diffs."""
        return [b._dump_line for b in self.blocks]

    @classmethod
    def from_dump_lines(cls, lines: Sequence[str]) -> "Chain":
        chain = cls()
        for line in lines:
            block = Block.from_json_obj(json.loads(line))
            chain._append_unchecked(block)
        return chain

    def _append_unchecked(self, block: Block) -> None:
        self.blocks.append(block)
        for i, tx in enumerate(block.transactions):
            self.tx_index[tx.t_id] = (block.height, i)


def _dependency_order(
    pool: Collection[Transaction],
    chain: Chain,
    limit: int,
) -> list[Transaction]:
    """Select up to ``limit`` pool entries oldest-first, taking an entry only
    once its predecessor is in the chain or already selected."""
    chosen: list[Transaction] = []
    chosen_ids: set[Digest] = set()
    changed = True
    while changed and len(chosen) < limit:
        changed = False
        for tx in pool:
            if len(chosen) >= limit:
                break
            if tx.t_id in chosen_ids:
                continue
            p = tx.p_t_id
            if p == ZERO_DIGEST or p in chain.tx_index or p in chosen_ids:
                chosen.append(tx)
                chosen_ids.add(tx.t_id)
                changed = True
    return chosen


def form_block(
    pool: dict[Digest, Transaction],
    chain: Chain,
    generator: KeyPair,
    block_size: int,
    *,
    flush: bool = False,
) -> Optional[Block]:
    """Take oldest-first pooled transactions into a new signed block.

    ``pool`` maps each pooled transaction's ``t_id`` to it, in arrival order,
    as ``BlockManager.pool`` does. A scheduled turn requires a full batch of
    ``block_size`` ready entries and returns None otherwise; with
    ``flush=True`` (end-of-run drain) a shorter block is allowed. The chosen
    entries are deleted from ``pool`` by key, so a block costs O(block) when
    the oldest entries are ready, whatever the pool's size.
    """
    chosen = _dependency_order(pool.values(), chain, block_size)
    if not flush and len(chosen) < block_size:
        return None
    if not chosen:
        return None
    for tx in chosen:
        del pool[tx.t_id]
    fields = (chain.head_hash, generator.public, len(chain.blocks), tuple(chosen))
    body = _block_body(*fields)
    block = Block(digest(body), *fields, generator.sign(body))
    # Share the signing bytes with the pending verdict, which ``sign`` keyed
    # by them, instead of building a second copy.
    block.__dict__["_signing_body"] = body
    return block


def schedule_block_turn(period_index: int, manager_ids: Sequence[str]) -> str:
    """Round-robin turn: exactly one manager may append per period."""
    if not manager_ids:
        raise ValueError("no managers to schedule")
    return manager_ids[period_index % len(manager_ids)]


# ---------------------------------------------------------------------------
# trust-weighted block validation
# ---------------------------------------------------------------------------

class BlockFault(str, Enum):
    BROKEN_LINKAGE = "broken_linkage"
    BAD_GENERATOR_SIG = "bad_generator_sig"
    BAD_TRANSACTION = "bad_transaction"


@dataclass(frozen=True)
class BlockVerdict:
    ok: bool
    fault: Optional[BlockFault] = None
    bad_index: Optional[int] = None
    verification_count: int = 0


@dataclass
class TrustRecord:
    valid_blocks_seen: int = 0
    invalid_blocks_seen: int = 0
    trust_score: float = 0.0


class TrustTable:
    """Per-generator trust, with ``ledger``'s ``min_check_fraction`` and
    ``trust_ramp``. Trust ramps up with observed valid blocks and is zeroed by
    any invalid one; the verified fraction of future blocks from a generator is
    max(min_check_fraction, 1 - trust)."""

    def __init__(self, ledger: LedgerConfig = LedgerConfig()):
        self.ledger = ledger
        self.records: dict[PublicKey, TrustRecord] = {}

    def records_for(self, generator_pk: PublicKey) -> TrustRecord:
        rec = self.records.get(generator_pk)
        if rec is None:
            rec = TrustRecord()
            self.records[generator_pk] = rec
        return rec

    def score(self, generator_pk: PublicKey) -> float:
        rec = self.records.get(generator_pk)
        return rec.trust_score if rec else 0.0

    def record_valid(self, generator_pk: PublicKey) -> TrustRecord:
        rec = self.records_for(generator_pk)
        rec.valid_blocks_seen += 1
        rec.trust_score = min(
            1.0 - self.ledger.min_check_fraction,
            rec.valid_blocks_seen / (rec.valid_blocks_seen + self.ledger.trust_ramp),
        )
        return rec

    def record_invalid(self, generator_pk: PublicKey) -> TrustRecord:
        rec = self.records_for(generator_pk)
        rec.invalid_blocks_seen += 1
        rec.trust_score = 0.0
        return rec


def checks_for_trust(trust_score: float, block_len: int, min_check_fraction: float) -> int:
    """How many of a block's transactions a receiver verifies. Rounds up so at
    least one transaction is always checked."""
    fraction = max(min_check_fraction, 1.0 - trust_score)
    return min(block_len, math.ceil(fraction * block_len))


def _check_block(block: Block, chain: Chain, indices: Sequence[int]) -> BlockVerdict:
    """The one per-block rule, against ``chain``'s head: linkage, the block id
    and at least one transaction; no ``t_id`` already in the chain or twice in
    the block, on every transaction; the generator signature; then each of the
    ascending ``indices`` fully signed, intact and with a known predecessor."""
    transactions = block.transactions
    if (
        block.height != len(chain.blocks)
        or block.prev_block_hash != chain.head_hash
        or not block._id_ok
        or not transactions
    ):
        return BlockVerdict(False, BlockFault.BROKEN_LINKAGE)
    seen: set[Digest] = set()
    for i, tx in enumerate(transactions):
        if tx.t_id in chain.tx_index or tx.t_id in seen:
            return BlockVerdict(False, BlockFault.BAD_TRANSACTION, i)
        seen.add(tx.t_id)
    if not verified(block.signing_body(), block.generator_signature, block.generator_pk):
        return BlockVerdict(False, BlockFault.BAD_GENERATOR_SIG)

    known: set[Digest] = set()  # the ids of transactions[:i], grown along the indices
    before = 0
    for executed, i in enumerate(indices, 1):
        known.update(tx.t_id for tx in transactions[before:i])
        before = i
        tx = transactions[i]
        if not tx.fully_signed or not validate_transaction(tx, chain, known=known).ok:
            return BlockVerdict(False, BlockFault.BAD_TRANSACTION, i, executed)
    return BlockVerdict(True, verification_count=len(indices))


def validate_block(
    block: Block,
    chain: Chain,
    trust: TrustTable,
    sample_seed: int,
) -> BlockVerdict:
    """Receiver-side validation against the local chain head.

    Runs ``_check_block`` on a seeded uniform sample of the transactions whose
    size shrinks as the generator's trust grows. ``verification_count``
    reports how many sampled transactions were actually verified.
    """
    n = len(block.transactions)
    k = checks_for_trust(trust.score(block.generator_pk), n, trust.ledger.min_check_fraction)
    return _check_block(block, chain, sorted(random.Random(sample_seed).sample(range(n), k)))


def append_block(chain: Chain, block: Block) -> None:
    """Append a block already judged valid; re-checks linkage defensively."""
    if block.height != len(chain.blocks) or block.prev_block_hash != chain.head_hash:
        raise ChainError("stale prev_block_hash or height")
    if not block._id_ok:
        raise ChainError("block id does not match contents")
    chain._append_unchecked(block)


def verify_chain(chain: Chain) -> bool:
    """Full audit: replays the chain into a fresh one, checking each block by
    ``validate_block``'s rule on every transaction."""
    replay = Chain()
    for block in chain.blocks:
        if not _check_block(block, replay, range(len(block.transactions))).ok:
            return False
        replay._append_unchecked(block)
    return True


# ---------------------------------------------------------------------------
# throughput adjustment
# ---------------------------------------------------------------------------

class ThroughputState:
    """Feedback control of the block period against observed transaction rate,
    starting at ``ledger.block_period``.

    Utilization is observed_rate * block_period / (block_size * manager_count);
    outside ``ledger``'s dead band the period is scaled multiplicatively back
    toward the nearest band edge and clamped to [max(period_min, floor),
    period_max]. ``floor`` is the network's shortest fork-free period
    (``NetworkConfig.period_floor``).
    """

    def __init__(self, ledger: LedgerConfig, floor: float):
        self.ledger = ledger
        self.block_period = ledger.block_period
        self._lowest = max(ledger.period_min, floor)

    def utilization(self, observed_rate: float, manager_count: int) -> float:
        return observed_rate * self.block_period / (self.ledger.block_size * manager_count)

    def adjust(self, observed_rate: float, manager_count: int) -> float:
        """Apply one adjustment round; returns the pre-adjustment utilization."""
        ledger = self.ledger
        u = self.utilization(observed_rate, manager_count)
        if observed_rate <= 0:
            return u
        if u > ledger.utilization_high:
            self.block_period *= ledger.utilization_high / u
        elif u < ledger.utilization_low:
            self.block_period *= ledger.utilization_low / u
        self.block_period = min(ledger.period_max, max(self._lowest, self.block_period))
        return u
