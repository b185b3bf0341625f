"""Randomized property tests for the core ledger invariants: transaction
validation (with forged/missing negations), per-public-key linked-list
structure of stored transactions, block-turn exclusivity, and one block rule
for live validation and the closing audit.

The acceptance suite re-runs these invariants at >=1000 seeded cases each with
an independent oracle; here hypothesis explores the same space during
development runs.
"""
import dataclasses
import random

from hypothesis import given, settings, strategies as st

from overchain.crypto import ZERO_DIGEST, digest, generate_keypair, verify
from overchain.ledger import (
    Chain,
    PayloadTag,
    TrustTable,
    TxKind,
    append_block,
    build_transaction,
    countersign,
    form_block,
    schedule_block_turn,
    validate_block,
    validate_transaction,
    verify_chain,
)

from conftest import pool_of, signed_block

KEYS = [generate_keypair(f"prop-actor-{i}") for i in range(4)]
OTHER = generate_keypair("prop-outsider")


def oracle_validate(tx, chain, known=frozenset()):
    """Independent re-derivation of the transaction-validity rule, written
    directly against the crypto primitives (not the ledger's checker)."""
    if tx.kind is TxKind.SINGLE and (tx.pk_2 is not None or tx.sig_2 is not None):
        return "malformed"
    if tx.kind is TxKind.MULTI and tx.pk_2 is None:
        return "malformed"
    if tx.t_id != digest(tx.body_bytes()):
        return "malformed"
    if not verify(tx.signing_body(), tx.sig_1, tx.pk_1):
        return "bad_signature"
    if tx.sig_2 is not None and not verify(tx.signing_body(), tx.sig_2, tx.pk_2):
        return "bad_signature"
    if tx.p_t_id != ZERO_DIGEST and tx.p_t_id not in chain.tx_index and tx.p_t_id not in known:
        return "missing_predecessor"
    return "ok"


@st.composite
def tx_cases(draw):
    """A (transaction, chain, known) triple in a random state: honest, forged
    signature, broken identifier, countersigned, pending, or dangling chain."""
    rng = random.Random(draw(st.integers(min_value=0, max_value=2**32)))
    signer = KEYS[rng.randrange(len(KEYS))]
    chain = Chain()
    known = set()

    base = build_transaction(
        ZERO_DIGEST, digest(rng.randbytes(8)), PayloadTag.GENERIC, signer)
    place = rng.random()
    if place < 0.4:
        blk = form_block(pool_of([base]), chain, KEYS[0], 1)
        append_block(chain, blk)
        p_t_id = base.t_id
    elif place < 0.6:
        known.add(base.t_id)
        p_t_id = base.t_id
    elif place < 0.8:
        p_t_id = ZERO_DIGEST
    else:
        p_t_id = digest(rng.randbytes(8))  # dangling

    if rng.random() < 0.5:
        tx = build_transaction(
            p_t_id, digest(rng.randbytes(8)), PayloadTag.GENERIC, signer)
    else:
        recipient = KEYS[(KEYS.index(signer) + 1) % len(KEYS)]
        tx = build_transaction(
            p_t_id, digest(rng.randbytes(8)), PayloadTag.GENERIC,
            signer, recipient_pk=recipient.public)
        if rng.random() < 0.6:
            tx = countersign(tx, recipient)

    corrupt = rng.random()
    if corrupt < 0.25:
        tx = dataclasses.replace(tx, sig_1=OTHER.sign(tx.signing_body()))
        tx = dataclasses.replace(tx, t_id=tx.compute_t_id())
    elif corrupt < 0.35:
        tx = dataclasses.replace(tx, t_id=digest(rng.randbytes(8)))
    elif corrupt < 0.45 and tx.sig_2 is not None:
        tx = dataclasses.replace(tx, sig_2=OTHER.sign(tx.signing_body()))
        tx = dataclasses.replace(tx, t_id=tx.compute_t_id())
    return tx, chain, frozenset(known)


@given(tx_cases())
@settings(max_examples=400, deadline=None)
def test_validation_matches_oracle(case):
    tx, chain, known = case
    verdict = validate_transaction(tx, chain, known=known)
    expected = oracle_validate(tx, chain, known)
    got = "ok" if verdict.ok else verdict.fault.value
    assert got == expected


@given(st.integers(min_value=0, max_value=2**32))
@settings(max_examples=300, deadline=None)
def test_per_key_linked_list_structure(seed):
    """Interleaved generators, shuffled arrival, multi-block chains: each key's
    stored transactions must form exactly one zero-rooted linked list."""
    rng = random.Random(seed)
    actors = {i: {"kp": KEYS[i], "last": ZERO_DIGEST, "made": []} for i in range(3)}
    made = []
    for n in range(rng.randrange(2, 14)):
        a = actors[rng.randrange(3)]
        tx = build_transaction(
            a["last"], digest(rng.randbytes(6)), PayloadTag.GENERIC, a["kp"])
        a["last"] = tx.t_id
        a["made"].append(tx.t_id)
        made.append(tx)
    rng.shuffle(made)  # network-style reordering before pooling

    chain = Chain()
    pool = pool_of(made)
    guard = 0
    while pool:
        blk = form_block(pool, chain, KEYS[3], rng.randrange(1, 5), flush=True)
        if blk is None:
            break
        append_block(chain, blk)
        guard += 1
        assert guard < 100
    assert not pool
    assert verify_chain(chain)

    # rebuild each key's list from the chain and compare with creation order
    by_pk = {}
    for tx in chain.all_transactions():
        by_pk.setdefault(tx.pk_1, []).append(tx)
    for i, a in actors.items():
        stored = by_pk.get(a["kp"].public, [])
        assert [t.t_id for t in stored] == a["made"]
        expect_prev = ZERO_DIGEST
        for t in stored:
            assert t.p_t_id == expect_prev
            expect_prev = t.t_id


@given(st.lists(st.text(alphabet="abcdef", min_size=1, max_size=4), min_size=1,
                max_size=8, unique=True),
       st.integers(min_value=0, max_value=10_000))
@settings(max_examples=500, deadline=None)
def test_block_turn_exclusivity(ids, period):
    winner = schedule_block_turn(period, ids)
    assert winner in ids
    assert [m for m in ids if schedule_block_turn(period, ids) == m] == [winner]
    # rotation is fair: over len(ids) consecutive periods each id wins once
    wins = [schedule_block_turn(period + k, ids) for k in range(len(ids))]
    assert sorted(wins) == sorted(ids)


@st.composite
def mutated_chains(draw):
    """An honest chain of 2-5 blocks, or one mutation of it: a transaction
    repeated, a transaction dropped, an empty block inserted, or two blocks
    swapped. Every block is re-signed, so only the block rule can tell."""
    rng = random.Random(draw(st.integers(min_value=0, max_value=2**32)))
    last = {}
    made = []
    for _ in range(rng.randrange(3, 12)):
        signer, recipient = rng.sample(KEYS, 2)
        p_t_id = last.get(signer.public, ZERO_DIGEST)
        payload = digest(rng.randbytes(8))
        if rng.random() < 0.7:
            tx = build_transaction(p_t_id, payload, PayloadTag.GENERIC, signer)
        else:
            tx = countersign(build_transaction(p_t_id, payload, PayloadTag.GENERIC,
                                               signer, recipient_pk=recipient.public), recipient)
        last[signer.public] = tx.t_id
        made.append(tx)
    cuts = sorted(rng.sample(range(1, len(made)), rng.randrange(1, min(4, len(made) - 1) + 1)))
    blocks = [made[a:b] for a, b in zip([0] + cuts, cuts + [len(made)])]

    mutation = draw(st.sampled_from(["none", "repeat", "drop", "empty", "swap"]))
    if mutation == "repeat":
        target = rng.choice(blocks)
        target.insert(rng.randrange(len(target) + 1), rng.choice(made))
    elif mutation == "drop":
        target = rng.choice(blocks)
        del target[rng.randrange(len(target))]
    elif mutation == "empty":
        blocks.insert(rng.randrange(len(blocks) + 1), [])
    elif mutation == "swap":
        i, j = rng.sample(range(len(blocks)), 2)
        blocks[i], blocks[j] = blocks[j], blocks[i]

    chain = Chain()
    for transactions in blocks:
        append_block(chain, signed_block(chain, KEYS[0], transactions))
    return mutation, chain


@given(mutated_chains())
@settings(max_examples=200, deadline=None)
def test_audit_accepts_exactly_the_chains_whose_blocks_all_validate(case):
    mutation, chain = case
    prefix = Chain()
    every_block_valid = True
    for block in chain.blocks:  # at zero trust the sample is every transaction
        every_block_valid &= validate_block(block, prefix, TrustTable(), sample_seed=0).ok
        append_block(prefix, block)
    assert verify_chain(chain) == every_block_valid
    if mutation == "none":
        assert every_block_valid
    elif mutation in ("repeat", "empty"):
        assert not every_block_valid
