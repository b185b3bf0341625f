"""Ledger unit tests.

Expected values below marked "oracle:" were computed independently from the
defining formulas (and frozen) before the module was written:
  - trust after v valid observations = min(1 - 0.1, v / (v + 5));
    after 5 valid blocks -> 0.5
  - checks per block of size 10 = ceil(max(0.1, 1 - trust) * 10);
    at trust 0.9 -> 1; at trust 0 -> 10
  - utilization u = rate * period / (size * manager_count);
    rate 8, period 10, size 10, 4 managers -> u = 2.0 -> period 10 -> 5.0
    rate 1 -> u = 0.25 -> period 10 -> 20.0
"""
import dataclasses
import json

import pytest

from overchain import crypto
from overchain.cli import bundled_scenarios
from overchain.config import LedgerConfig
from overchain.crypto import (
    SIGNATURE_SIZE,
    ZERO_DIGEST,
    Signature,
    canonical_join,
    digest,
    generate_keypair,
    verified,
)
from overchain.ledger import (
    Block,
    BlockFault,
    Chain,
    ChainError,
    PayloadTag,
    ThroughputState,
    Transaction,
    TrustTable,
    TxFault,
    TxKind,
    append_block,
    build_transaction,
    check_integrity,
    countersign,
    form_block,
    schedule_block_turn,
    validate_block,
    validate_transaction,
    verify_chain,
)

from conftest import pool_of, signed_block

GEN = generate_keypair("generator-obm")
ALICE = generate_keypair("alice")
BOB = generate_keypair("bob")


def single(signer=ALICE, p_t_id=ZERO_DIGEST, payload=b"payload", tag=PayloadTag.GENERIC):
    return build_transaction(p_t_id, digest(payload), tag, signer)


def pending(signer=ALICE, recipient=BOB, p_t_id=ZERO_DIGEST, payload=b"payload"):
    return build_transaction(
        p_t_id, digest(payload), PayloadTag.GENERIC, signer,
        recipient_pk=recipient.public,
    )


def chain_with(txs, generator=GEN, block_size=None):
    """Build a chain holding txs in one block (or several of block_size)."""
    chain = Chain()
    pool = pool_of(txs)
    size = block_size or max(1, len(pool))
    while pool:
        blk = form_block(pool, chain, generator, size, flush=True)
        assert blk is not None
        append_block(chain, blk)
    return chain


# ---------------------------------------------------------------------------
# transactions
# ---------------------------------------------------------------------------

def test_build_single_sig_transaction_shape():
    tx = single()
    assert tx.kind is TxKind.SINGLE
    assert tx.pk_2 is None and tx.sig_2 is None
    assert tx.fully_signed
    assert tx.t_id == tx.compute_t_id()
    assert tx.p_t_id == ZERO_DIGEST


def test_pending_multisig_not_fully_signed():
    tx = pending()
    assert tx.kind is TxKind.MULTI
    assert tx.pk_2 == BOB.public and tx.sig_2 is None
    assert not tx.fully_signed


def test_countersign_recomputes_t_id_and_completes():
    tx = pending()
    full = countersign(tx, BOB)
    assert full.fully_signed
    assert full.sig_2 is not None
    assert full.t_id != tx.t_id            # identifier covers the second signature
    assert full.p_t_id == tx.p_t_id        # generator's chain pointer unchanged
    assert full.t_id == full.compute_t_id()


def reference_build(kind, p_t_id, payload_digest, tag, generator, recipient_pk=None):
    """``build_transaction`` the long way: a zero-filled draft, a copy that
    adds sig_1, then a copy that adds the t_id of that copy."""
    draft = Transaction(ZERO_DIGEST, p_t_id, kind, generator.public,
                        Signature(bytes(SIGNATURE_SIZE)), recipient_pk, None,
                        payload_digest, tag)
    signed = dataclasses.replace(draft, sig_1=generator.sign(draft.signing_body()))
    return dataclasses.replace(signed, t_id=signed.compute_t_id())


def reference_countersign(tx, recipient):
    completed = dataclasses.replace(tx, sig_2=recipient.sign(tx.signing_body()))
    return dataclasses.replace(completed, t_id=completed.compute_t_id())


@pytest.mark.parametrize("shape", ["single", "multi_pending", "multi_countersigned"])
def test_builders_equal_the_draft_and_copy_construction(shape):
    args = (digest(b"parent"), digest(shape.encode()), PayloadTag.SW_UPDATE, ALICE)
    if shape == "single":
        tx, ref = build_transaction(*args), reference_build(TxKind.SINGLE, *args)
    else:
        tx = build_transaction(*args, recipient_pk=BOB.public)
        ref = reference_build(TxKind.MULTI, *args, recipient_pk=BOB.public)
        if shape == "multi_countersigned":
            tx, ref = countersign(tx, BOB), reference_countersign(ref, BOB)
    assert tx == ref  # Ed25519 signing is deterministic: every field is equal
    assert tx.t_id_hex == ref.t_id_hex == tx.t_id.hex()  # worked out on first read
    signers = [(tx.sig_1, tx.pk_1)] + ([(tx.sig_2, tx.pk_2)] if tx.sig_2 else [])
    if crypto._helper is not None:
        # each verdict is still pending, under the exact bytes _integrity recomputes
        for signature, public_key in signers:
            helper, _ = signature._verdicts[(tx.signing_body(), public_key)]
            assert helper is crypto._helper
    assert check_integrity(tx).ok and check_integrity(ref).ok


def joined_fields(data):
    """Split ``canonical_join`` output back into its fields."""
    fields, at = [], 0
    while at < len(data):
        size = int.from_bytes(data[at:at + 4], "big")
        fields.append(data[at + 4:at + 4 + size])
        at += 4 + size
    return fields


@pytest.mark.parametrize("shape", ["single", "multi_pending", "multi_countersigned"])
@pytest.mark.parametrize("tag", list(PayloadTag))
def test_transaction_layouts_equal_canonical_join_of_their_fields(shape, tag):
    args = (digest(b"parent"), digest(shape.encode()), tag, ALICE)
    if shape == "single":
        tx = build_transaction(*args)
    else:
        tx = build_transaction(*args, recipient_pk=BOB.public)
        if shape == "multi_countersigned":
            tx = countersign(tx, BOB)
    signed = {"p_t_id": tx.p_t_id, "payload_digest": tx.payload_digest, "pk_1": tx.pk_1}
    if tx.pk_2 is not None:
        signed["pk_2"] = tx.pk_2
    body = {"p_t_id": tx.p_t_id, "kind": tx.kind.value.encode(), "pk_1": tx.pk_1,
            "sig_1": tx.sig_1, "pk_2": tx.pk_2 or b"", "sig_2": tx.sig_2 or b"",
            "payload_digest": tx.payload_digest, "payload_tag": tx.payload_tag.value.encode()}
    for layout, fields in ((tx.signing_body(), signed), (tx.body_bytes(), body)):
        # field by field first, so a failure names the field that slipped
        assert dict(zip(fields, joined_fields(layout))) == fields
        assert layout == canonical_join(*fields.values())


def test_countersign_requires_matching_recipient():
    tx = pending(recipient=BOB)
    with pytest.raises(ValueError, match="^countersigner key does not match the addressed pk_2$"):
        countersign(tx, generate_keypair("mallory"))
    with pytest.raises(ValueError, match="^transaction is already fully signed$"):
        countersign(countersign(tx, BOB), BOB)
    with pytest.raises(ValueError, match="^only multisig transactions can be countersigned$"):
        countersign(single(), BOB)


def test_transaction_json_round_trip():
    tx = countersign(pending(), BOB)
    obj = tx.to_json_obj()
    assert Transaction.from_json_obj(obj) == tx
    assert obj["t_id"] == tx.t_id.hex() == Transaction.from_json_obj(obj).t_id_hex


def test_validate_ok_and_bad_signature():
    chain = Chain()
    tx = single()
    assert validate_transaction(tx, chain).ok

    forged = dataclasses.replace(tx, sig_1=BOB.sign(tx.signing_body()))
    forged = dataclasses.replace(forged, t_id=forged.compute_t_id())
    v = validate_transaction(forged, chain)
    assert not v.ok and v.fault is TxFault.BAD_SIGNATURE


def test_validate_missing_predecessor():
    chain = Chain()
    tx = single(p_t_id=digest(b"nowhere"))
    v = validate_transaction(tx, chain)
    assert not v.ok and v.fault is TxFault.MISSING_PREDECESSOR


def test_validate_predecessor_found_in_chain_or_known_set():
    first = single()
    chain = chain_with([first])
    second = single(p_t_id=first.t_id)
    assert validate_transaction(second, chain).ok

    # predecessor known only out-of-chain (e.g. pooled) is accepted via known set
    third = single(p_t_id=second.t_id)
    assert not validate_transaction(third, chain).ok
    assert validate_transaction(third, chain, known={second.t_id}).ok


def test_validate_malformed_t_id_and_kind():
    chain = Chain()
    tx = single()
    wrong_id = dataclasses.replace(tx, t_id=digest(b"junk"))
    v = validate_transaction(wrong_id, chain)
    assert not v.ok and v.fault is TxFault.MALFORMED

    # single-sig carrying a countersignature slot is malformed
    bad = dataclasses.replace(tx, pk_2=BOB.public)
    bad = dataclasses.replace(bad, t_id=bad.compute_t_id())
    v = validate_transaction(bad, chain)
    assert not v.ok and v.fault is TxFault.MALFORMED


def test_validate_pending_multisig_is_ok_while_pending():
    assert validate_transaction(pending(), Chain()).ok


# ---------------------------------------------------------------------------
# block formation and the turn schedule
# ---------------------------------------------------------------------------

def test_form_block_takes_exactly_block_size_oldest_first():
    txs = [single(payload=bytes([i])) for i in range(12)]
    pool = pool_of(txs)
    chain = Chain()
    blk = form_block(pool, chain, GEN, 10)
    assert [t.t_id for t in blk.transactions] == [t.t_id for t in txs[:10]]
    assert list(pool) == [t.t_id for t in txs[10:]]
    assert blk.height == 0 and blk.prev_block_hash == ZERO_DIGEST


def test_form_block_returns_none_below_size():
    txs = [single(payload=bytes([i])) for i in range(3)]
    pool = pool_of(txs)
    assert form_block(pool, Chain(), GEN, 10) is None
    assert list(pool) == [t.t_id for t in txs]


def test_form_block_flush_takes_remainder():
    pool = pool_of(single(payload=bytes([i])) for i in range(3))
    blk = form_block(pool, Chain(), GEN, 10, flush=True)
    assert blk is not None and len(blk.transactions) == 3
    assert pool == {}
    assert form_block({}, Chain(), GEN, 10, flush=True) is None


def test_form_block_waits_when_ready_subset_is_short_of_size():
    # a full pool with an unsatisfiable entry is not enough for a turn
    dangling = single(p_t_id=digest(b"unknown-parent"), payload=b"x")
    ok = single(payload=b"ok")
    pool = pool_of([dangling, ok])
    assert form_block(pool, Chain(), GEN, 2) is None
    assert pool == pool_of([dangling, ok]) and list(pool) == [dangling.t_id, ok.t_id]


def test_form_block_orders_dependent_transactions():
    a = single(payload=b"a")
    b = single(p_t_id=a.t_id, payload=b"b")
    # pool arrival order is successor-first (network reordering)
    pool = pool_of([b, a])
    blk = form_block(pool, Chain(), GEN, 2)
    assert [t.t_id for t in blk.transactions] == [a.t_id, b.t_id]


def test_form_block_skips_unsatisfied_dependency():
    dangling = single(p_t_id=digest(b"not-yet-anywhere"), payload=b"x")
    ok1, ok2 = single(payload=b"1"), single(payload=b"2")
    pool = pool_of([dangling, ok1, ok2])
    blk = form_block(pool, Chain(), GEN, 2)
    assert [t.t_id for t in blk.transactions] == [ok1.t_id, ok2.t_id]
    assert pool == pool_of([dangling])


def test_schedule_block_turn_round_robin():
    ids = ["m0", "m1", "m2", "m3"]
    assert [schedule_block_turn(i, ids) for i in range(6)] == [
        "m0", "m1", "m2", "m3", "m0", "m1"]
    # exclusivity: exactly one manager authorized per period
    for p in range(16):
        winners = [m for m in ids if schedule_block_turn(p, ids) == m]
        assert len(winners) == 1


def test_schedule_block_turn_refuses_an_empty_roster():
    with pytest.raises(ValueError, match="^no managers to schedule$"):
        schedule_block_turn(0, [])


# ---------------------------------------------------------------------------
# block validation, trust, appending
# ---------------------------------------------------------------------------

def test_validate_block_full_check_at_zero_trust():
    pool = [single(payload=bytes([i])) for i in range(10)]
    chain = Chain()
    blk = form_block(pool_of(pool), chain, GEN, 10)
    trust = TrustTable()
    v = validate_block(blk, chain, trust, sample_seed=1)
    assert v.ok
    # oracle: trust 0 -> f = 1.0 -> ceil(1.0 * 10) = 10 checks
    assert v.verification_count == 10


def test_validate_block_fraction_at_high_trust():
    pool = [single(payload=bytes([i])) for i in range(10)]
    chain = Chain()
    blk = form_block(pool_of(pool), chain, GEN, 10)
    trust = TrustTable()
    trust.records_for(GEN.public).trust_score = 0.9
    v = validate_block(blk, chain, trust, sample_seed=1)
    # oracle: ceil(max(0.1, 1 - 0.9) * 10) = 1
    assert v.ok and v.verification_count == 1


def test_validate_block_catches_forged_transaction_at_zero_trust():
    good = [single(payload=bytes([i])) for i in range(9)]
    forged = single(payload=b"evil")
    forged = dataclasses.replace(forged, sig_1=BOB.sign(forged.signing_body()))
    forged = dataclasses.replace(forged, t_id=forged.compute_t_id())
    chain = Chain()
    blk = form_block(pool_of(good + [forged]), chain, GEN, 10, flush=True)
    v = validate_block(blk, chain, TrustTable(), sample_seed=3)
    assert not v.ok
    assert v.fault is BlockFault.BAD_TRANSACTION
    assert v.bad_index == 9


def test_validate_block_bad_generator_signature():
    chain = Chain()
    blk = form_block(pool_of([single()]), chain, GEN, 1)
    tampered = dataclasses.replace(blk, generator_signature=BOB.sign(b"junk" * 16))
    v = validate_block(tampered, chain, TrustTable(), sample_seed=1)
    assert not v.ok and v.fault is BlockFault.BAD_GENERATOR_SIG


def test_validate_block_broken_linkage():
    chain = chain_with([single(payload=b"seed-block")])
    stale = form_block(pool_of([single(payload=b"late")]), Chain(), GEN, 1)  # built on empty chain
    v = validate_block(stale, chain, TrustTable(), sample_seed=1)
    assert not v.ok and v.fault is BlockFault.BROKEN_LINKAGE


def test_validate_block_accepts_same_block_predecessor():
    a = single(payload=b"a")
    b = single(p_t_id=a.t_id, payload=b"b")
    chain = Chain()
    blk = form_block(pool_of([a, b]), chain, GEN, 2)
    assert validate_block(blk, chain, TrustTable(), sample_seed=9).ok


def test_append_block_rejects_stale_prev_hash():
    chain = chain_with([single(payload=b"first")])
    stale = form_block(pool_of([single(payload=b"second")]), Chain(), GEN, 1)
    with pytest.raises(ChainError):
        append_block(chain, stale)


def test_append_updates_index():
    tx = single()
    chain = chain_with([tx])
    assert chain.get_tx(tx.t_id) == tx
    assert chain.tx_index[tx.t_id] == (0, 0)


# ---------------------------------------------------------------------------
# trust table
# ---------------------------------------------------------------------------

def test_trust_ramp_oracle_sequence():
    trust = TrustTable()  # min_check_fraction 0.1, trust_ramp 5
    pk = GEN.public
    # oracle: min(0.9, v/(v+5)) for v = 1..5
    expected = [1 / 6, 2 / 7, 3 / 8, 4 / 9, 0.5]
    for want in expected:
        trust.record_valid(pk)
        assert trust.score(pk) == pytest.approx(want)
    assert trust.score(pk) == 0.5  # oracle: 5 valid blocks -> exactly 0.5


def test_trust_capped_below_one_minus_floor():
    trust = TrustTable()
    pk = GEN.public
    for _ in range(500):
        trust.record_valid(pk)
    assert trust.score(pk) == pytest.approx(0.9)  # 1 - min_check_fraction


def test_trust_reset_on_invalid():
    trust = TrustTable()
    pk = GEN.public
    for _ in range(10):
        trust.record_valid(pk)
    assert trust.score(pk) > 0.6
    trust.record_invalid(pk)
    assert trust.score(pk) == 0.0
    rec = trust.records_for(pk)
    assert rec.invalid_blocks_seen == 1 and rec.valid_blocks_seen == 10


def test_unknown_generator_scores_zero():
    assert TrustTable().score(BOB.public) == 0.0


# ---------------------------------------------------------------------------
# throughput adjustment
# ---------------------------------------------------------------------------

def make_tp(period=10.0, floor=0.0):
    return ThroughputState(LedgerConfig(block_period=period, block_size=10,
                                        utilization_low=0.5, utilization_high=1.0,
                                        period_min=1.0, period_max=120.0), floor)


def test_throughput_overload_shrinks_period():
    tp = make_tp()
    u = tp.adjust(observed_rate=8.0, manager_count=4)
    assert u == pytest.approx(2.0)          # oracle
    assert tp.block_period == pytest.approx(5.0)  # oracle: 10 * (1.0 / 2.0)


def test_throughput_underload_grows_period():
    tp = make_tp()
    u = tp.adjust(observed_rate=1.0, manager_count=4)
    assert u == pytest.approx(0.25)          # oracle
    assert tp.block_period == pytest.approx(20.0)  # oracle: 10 * (0.5 / 0.25)


def test_throughput_dead_band_no_change():
    tp = make_tp()
    u = tp.adjust(observed_rate=3.0, manager_count=4)  # u = 0.75, inside [0.5, 1.0]
    assert u == pytest.approx(0.75)
    assert tp.block_period == 10.0


def test_throughput_zero_rate_unchanged():
    tp = make_tp()
    assert tp.adjust(observed_rate=0.0, manager_count=4) == 0.0
    assert tp.block_period == 10.0


def test_throughput_clamped_to_bounds():
    tp = make_tp()
    tp.adjust(observed_rate=4000.0, manager_count=4)
    assert tp.block_period == 1.0
    tp2 = make_tp()
    tp2.adjust(observed_rate=0.01, manager_count=4)
    assert tp2.block_period == 120.0


def test_throughput_never_shrinks_below_the_network_floor():
    tp = make_tp(floor=7.5)  # above period_min: the floor binds
    tp.adjust(observed_rate=4000.0, manager_count=4)
    assert tp.block_period == 7.5
    tp = make_tp(floor=0.5)  # below period_min: period_min binds
    tp.adjust(observed_rate=4000.0, manager_count=4)
    assert tp.block_period == 1.0


# ---------------------------------------------------------------------------
# chain verification and tamper evidence
# ---------------------------------------------------------------------------

def build_sample_chain():
    a = single(payload=b"a")
    b = single(p_t_id=a.t_id, payload=b"b")
    c = countersign(pending(payload=b"c"), BOB)
    return chain_with([a, b, c], block_size=2)


def test_verify_chain_true_for_honest_chain():
    chain = build_sample_chain()
    assert len(chain.blocks) == 2
    assert verify_chain(chain)


def test_verify_chain_detects_transaction_tamper():
    chain = build_sample_chain()
    blk = chain.blocks[0]
    tx = blk.transactions[0]
    bent = dataclasses.replace(tx, payload_digest=digest(b"swapped"))
    patched = dataclasses.replace(blk, transactions=(bent,) + blk.transactions[1:])
    chain.blocks[0] = patched
    assert not verify_chain(chain)


def test_verify_chain_detects_linkage_tamper():
    chain = build_sample_chain()
    blk = chain.blocks[1]
    chain.blocks[1] = dataclasses.replace(blk, prev_block_hash=digest(b"other"))
    assert not verify_chain(chain)


def test_verify_chain_detects_a_repeated_transaction():
    a = single(payload=b"a")
    chain = chain_with([a, single(payload=b"b")], block_size=1)
    append_block(chain, form_block(pool_of([a]), chain, GEN, 1))  # every block is sound alone
    assert [tx.t_id for tx in chain.all_transactions()].count(a.t_id) == 2
    assert not verify_chain(chain)


def test_chain_dump_lines_round_trip():
    chain = build_sample_chain()
    lines = chain.dump_lines()
    assert len(lines) == len(chain.blocks)
    restored = Chain.from_dump_lines(lines)
    assert restored.dump_lines() == lines
    assert verify_chain(restored)


def reference_obj(block: Block) -> dict:
    """The dump object of ``block``, built field by field."""
    def tx_obj(tx):
        return {"t_id": tx.t_id.hex(), "p_t_id": tx.p_t_id.hex(), "kind": tx.kind.value,
                "pk_1": tx.pk_1.hex(), "sig_1": tx.sig_1.hex(),
                "pk_2": tx.pk_2.hex() if tx.pk_2 else None,
                "sig_2": tx.sig_2.hex() if tx.sig_2 else None,
                "payload_digest": tx.payload_digest.hex(), "payload_tag": tx.payload_tag.value}
    return {"height": block.height, "block_id": block.block_id.hex(),
            "prev_block_hash": block.prev_block_hash.hex(),
            "generator_pk": block.generator_pk.hex(),
            "generator_signature": block.generator_signature.hex(),
            "transactions": [tx_obj(tx) for tx in block.transactions]}


def assert_dumps_its_json(block: Block) -> None:
    obj = reference_obj(block)
    assert block._dump_line == json.dumps(obj, separators=(",", ":"))
    assert block.to_json_obj() == obj
    assert [tx.to_json_obj() for tx in block.transactions] == obj["transactions"]
    assert Block.from_json_obj(obj) == block


@pytest.mark.parametrize("height", [0, 1, 2 ** 53])
def test_dump_line_is_the_json_of_every_kind_of_transaction_and_tag(height):
    final = countersign(pending(payload=b"final"), BOB)
    txs = [single(payload=b"one"), pending(payload=b"pending"), final,
           *(single(payload=tag.value.encode(), tag=tag) for tag in PayloadTag)]
    for transactions in [txs, txs[1:2], txs[2:3]]:
        block = dataclasses.replace(signed_block(Chain(), GEN, transactions), height=height)
        assert_dumps_its_json(block)
        assert block.block_id_hex == block.block_id.hex()


@pytest.mark.parametrize("name", bundled_scenarios())
def test_dump_line_is_the_json_of_every_bundled_final_block(bundled, name):
    blocks = {id(b): b for m in bundled(name).world.managers for b in m.chain.blocks}
    assert blocks
    for block in blocks.values():
        assert_dumps_its_json(block)


# ---------------------------------------------------------------------------
# cached verdicts: once per value, never carried over to a tampered copy
# ---------------------------------------------------------------------------

def flip(value):
    """The same value type with its first byte flipped."""
    data = bytearray(value)
    data[0] ^= 1
    return type(value)(bytes(data))


@pytest.mark.parametrize("field, rehash, fault, detail", [
    ("t_id", False, TxFault.MALFORMED, "t_id does not match contents"),
    ("sig_1", False, TxFault.MALFORMED, "t_id does not match contents"),
    ("sig_2", False, TxFault.MALFORMED, "t_id does not match contents"),
    ("payload_digest", False, TxFault.MALFORMED, "t_id does not match contents"),
    ("sig_1", True, TxFault.BAD_SIGNATURE, "sig_1 invalid"),
    ("sig_2", True, TxFault.BAD_SIGNATURE, "sig_2 invalid"),
    ("payload_digest", True, TxFault.BAD_SIGNATURE, "sig_1 invalid"),
])
def test_tampered_copy_of_checked_transaction_fails(field, rehash, fault, detail):
    tx = countersign(pending(payload=b"cached"), BOB)
    assert check_integrity(tx).ok  # the verdict is now cached on tx
    bent = dataclasses.replace(tx, **{field: flip(getattr(tx, field))})
    if rehash:  # a tamperer who also recomputes the identifier
        bent = dataclasses.replace(bent, t_id=bent.compute_t_id())
    verdict = check_integrity(bent)
    assert not verdict.ok
    assert (verdict.fault, verdict.detail) == (fault, detail)
    assert check_integrity(tx).ok


def validated_block():
    chain = Chain()
    blk = form_block(pool_of(single(payload=bytes([i])) for i in range(3)), chain, GEN, 3)
    assert validate_block(blk, chain, TrustTable(), sample_seed=1).ok
    append_block(chain, blk)
    assert verify_chain(chain)
    return chain, blk


def test_tampered_copy_of_validated_block_is_rejected():
    chain, blk = validated_block()
    assert "_id_ok" in vars(blk)  # the id check is now cached on blk
    bad_id = dataclasses.replace(blk, block_id=flip(blk.block_id))
    bad_sig = dataclasses.replace(blk, generator_signature=flip(blk.generator_signature))
    forged = single(payload=b"swapped-in")
    bad_tx = dataclasses.replace(blk, transactions=(forged,) + blk.transactions[1:])
    for tampered, fault in ((bad_id, BlockFault.BROKEN_LINKAGE),
                            (bad_sig, BlockFault.BAD_GENERATOR_SIG),
                            (bad_tx, BlockFault.BROKEN_LINKAGE)):
        verdict = validate_block(tampered, Chain(), TrustTable(), sample_seed=1)
        assert not verdict.ok and verdict.fault is fault
        chain.blocks[0] = tampered
        assert not verify_chain(chain)
    for tampered in (bad_id, bad_tx):
        with pytest.raises(ChainError, match="block id"):
            append_block(Chain(), tampered)
    chain.blocks[0] = blk
    assert verify_chain(chain)


def test_cached_verdicts_leave_value_semantics_alone():
    chain = build_sample_chain()
    fresh = Chain.from_dump_lines(chain.dump_lines())  # same values, nothing cached
    assert verify_chain(chain)
    block = chain.blocks[0]
    assert block.generator_signature._verdicts[(block.signing_body(), block.generator_pk)] is True
    assert "_id_ok" in vars(chain.blocks[0])
    assert "_integrity" in vars(chain.blocks[0].transactions[0])
    assert "_verdicts" in vars(chain.blocks[0].transactions[0].sig_1)
    assert "_integrity" not in vars(fresh.blocks[0].transactions[0])
    assert "_verdicts" not in vars(fresh.blocks[0].transactions[0].sig_1)
    assert chain.dump_lines() == fresh.dump_lines()
    for cached, plain in zip(chain.blocks, fresh.blocks):
        assert cached == plain and hash(cached) == hash(plain)
        assert cached.to_json_obj() == plain.to_json_obj()
        for tx, twin in zip(cached.transactions, plain.transactions):
            assert tx == twin and hash(tx) == hash(twin)
            assert tx.to_json_obj() == twin.to_json_obj()
            assert tx.sig_1 == twin.sig_1 and hash(tx.sig_1) == hash(twin.sig_1)
            assert tx.sig_1.hex() == twin.sig_1.hex()


def test_backend_verify_runs_once_per_signature(counted_verify):
    calls = counted_verify
    tx = countersign(pending(payload=b"counted"), BOB)
    for _ in range(3):
        assert check_integrity(tx).ok
    assert calls == [tx.sig_1, tx.sig_2]

    calls.clear()
    chain = Chain()
    blk = form_block(pool_of(single(payload=bytes([i])) for i in range(4)), chain, GEN, 4)
    for _ in range(3):
        verdict = validate_block(blk, chain, TrustTable(), sample_seed=1)
        # the simulated effort is still counted on every validation
        assert verdict.ok and verdict.verification_count == 4
    # the helper sees the transactions' signatures first, in-process
    # validation the generator's first: the same signatures, each once
    assert sorted(calls) == sorted([blk.generator_signature]
                                   + [t.sig_1 for t in blk.transactions])


def test_countersigned_copy_reuses_the_pending_sig_1_verdict(counted_verify):
    calls = counted_verify
    half = pending(payload=b"countersigned")
    assert check_integrity(half).ok
    done = countersign(half, BOB)
    assert done.sig_1 is half.sig_1
    assert check_integrity(done).ok
    assert calls == [half.sig_1, done.sig_2]


def test_signature_verdict_is_kept_per_message_and_key(counted_verify):
    calls = counted_verify
    other_body = single(payload=b"other").signing_body()
    calls.clear()  # count from the signature under test on
    tx = single(payload=b"keyed")
    body = tx.signing_body()
    assert verified(body, tx.sig_1, ALICE.public)
    assert not verified(other_body, tx.sig_1, ALICE.public)
    assert not verified(body, tx.sig_1, BOB.public)
    assert calls == [tx.sig_1] * 3
    # every verdict, true or false, is kept for its exact message and key
    assert verified(body, tx.sig_1, ALICE.public)
    assert not verified(other_body, tx.sig_1, ALICE.public)
    assert not verified(body, tx.sig_1, BOB.public)
    assert len(calls) == 3
