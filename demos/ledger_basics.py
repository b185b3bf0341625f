"""Walk through the ledger library on its own: keys, transactions, pooling,
scheduled block turns, trust-weighted validation, and full-chain audits.

Run:  python3 demos/ledger_basics.py
"""
import dataclasses
import json

from overchain.config import LedgerConfig
from overchain.crypto import digest, generate_keypair
from overchain.ledger import (
    Chain,
    PayloadTag,
    TrustTable,
    ZERO_DIGEST,
    append_block,
    build_transaction,
    checks_for_trust,
    countersign,
    form_block,
    schedule_block_turn,
    validate_block,
    validate_transaction,
    verify_chain,
)


def main() -> None:
    # Two parties and one cluster head that will generate blocks.
    alice = generate_keypair("demo:alice")
    bob = generate_keypair("demo:bob")
    obm = generate_keypair("demo:obm0")

    # A single-signature entry, then a two-party entry that bob completes.
    # Each of alice's entries links to her previous one through p_t_id.
    note = build_transaction(ZERO_DIGEST, digest(b"odometer snapshot"),
                             PayloadTag.GENERIC, alice)
    pending = build_transaction(note.t_id, digest(b"ride agreement"),
                                PayloadTag.GENERIC, alice, recipient_pk=bob.public)
    agreement = countersign(pending, bob)
    print(f"single-sig entry      {note.t_id.hex()[:16]}…")
    print(f"pending two-party     {pending.t_id.hex()[:16]}…  fully_signed="
          f"{pending.fully_signed}")
    print(f"countersigned final   {agreement.t_id.hex()[:16]}…  fully_signed="
          f"{agreement.fully_signed}")

    # The cluster head pools fully signed entries and appends on its turn.
    chain = Chain()
    pool = {tx.t_id: tx for tx in (note, agreement)}  # by t_id, in arrival order
    managers = ["obm0", "obm1", "obm2", "obm3"]
    print(f"\nround-robin turns: "
          f"{[schedule_block_turn(p, managers) for p in range(6)]}")
    block = form_block(pool, chain, obm, block_size=2)
    append_block(chain, block)
    print(f"block 0: {len(block.transactions)} entries, "
          f"id {block.block_id_hex[:16]}…")

    # A validating peer checks a trust-dependent sample of signatures, as
    # its ledger settings say.
    ledger = LedgerConfig(min_check_fraction=0.1, trust_ramp=5)
    trust = TrustTable(ledger)
    for round_ in range(8):
        score = trust.score(obm.public)
        n_checks = checks_for_trust(score, block_len=10,
                                    min_check_fraction=ledger.min_check_fraction)
        verdict = validate_block(block, Chain(), trust, sample_seed=round_)
        trust.record_valid(obm.public)
        print(f"  after {round_} valid blocks: trust={score:.3f}, "
              f"verifies {n_checks}/10 signatures (this block: "
              f"{verdict.verification_count}/{len(block.transactions)})")

    # Full audit, then prove that any stored byte flip is caught.
    print(f"\nfull audit: {verify_chain(chain)}")
    tampered_tx = dataclasses.replace(block.transactions[0],
                                      payload_digest=digest(b"rewritten"))
    tampered_block = dataclasses.replace(
        block, transactions=(tampered_tx, *block.transactions[1:]))
    broken = Chain.from_dump_lines(
        [json.dumps(tampered_block.to_json_obj(), separators=(",", ":"))])
    print(f"audit after payload rewrite: {verify_chain(broken)}")

    # Chain context matters too: an entry whose predecessor is unknown parks.
    orphan = build_transaction(digest(b"never committed"), digest(b"payload"),
                               PayloadTag.GENERIC, alice)
    verdict = validate_transaction(orphan, chain)
    print(f"orphan entry verdict: ok={verdict.ok}, fault={verdict.fault}")


if __name__ == "__main__":
    main()
