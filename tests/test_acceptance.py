"""Acceptance suite: one test per shipped guarantee, each printing the
observed numbers. Run with ``pytest -v`` for a one-line verdict per item."""
import json
import random
from collections import Counter, defaultdict

from overchain.cli import bundled_scenarios
from overchain.config import load_scenario
from overchain.crypto import Digest, generate_keypair
from overchain.ledger import (
    Chain,
    PayloadTag,
    Signature,
    Transaction,
    TxFault,
    TxKind,
    ZERO_DIGEST,
    append_block,
    build_transaction,
    countersign,
    form_block,
    schedule_block_turn,
    validate_transaction,
    verify_chain,
)
from overchain.crypto import digest
from overchain.report import parse_trace
from overchain.world import run_scenario

import dataclasses

from conftest import pool_of, trace_records


# -- 1: a published update reaches every vehicle and every ledger copy ---------------


def test_criterion_01_update_installs_fleet_wide_with_digest_equality(bundled):
    run = bundled("wrsu_happy_path")
    published = trace_records(run.trace_text, "published")
    assert len(published) == 1
    published_digest = published[0]["object"].split("/", 1)[1]

    installed = trace_records(run.trace_text, "installed")
    assert len(installed) == 20
    assert len({l["actor"] for l in installed}) == 20
    assert all(l["sw_digest"] == published_digest for l in installed)

    final_tid = Digest.fromhex(trace_records(run.trace_text, "approved")[0]["t_id"])
    for manager in run.world.managers:
        assert final_tid in manager.chain.tx_index, manager.node_id
    print(f"\n  installs 20/20, digest {published_digest[:12]}…, "
          f"final committed at {len(run.world.managers)}/4 managers")


# -- 2: a tampered binary is refused by the whole fleet ------------------------------


def test_criterion_02_tampered_binary_installs_nowhere(bundled):
    run = bundled("wrsu_tampered")
    assert run.metrics["installs"] == 0
    rejected = trace_records(run.trace_text, "update_rejected")
    assert len(rejected) == 20
    assert all(l["reason"] == "HashMismatch" for l in rejected)
    assert len({l["actor"] for l in rejected}) == 20
    print("\n  installs 0/20, HashMismatch 20/20 across 20 distinct vehicles")


# -- 3: impersonated publishers get no signature and no installs ----------------------


def test_criterion_03_impersonation_yields_no_countersignature(bundled):
    run = bundled("wrsu_impersonation")
    assert run.metrics["attack"]["forged_publishes"] == 1
    assert run.metrics["attack"]["forged_finals"] == 1
    assert run.metrics["installs"] == 0
    assert run.metrics["approvals"] == 0
    assert trace_records(run.trace_text, "approved") == []
    assert run.metrics["rejections"]["NotFromMyOem"] == 20
    print("\n  forged submissions 2, OEM countersignatures 0, installs 0, "
          "vehicle refusals 20")


# -- 4: transaction floods die at the cluster head ------------------------------------


def test_criterion_04_flood_is_dropped_while_legit_traffic_flows(bundled):
    run = bundled("ddos_flood")
    attack = run.metrics["attack"]
    assert attack["sent"] == 1000
    assert attack["delivered"] == 0
    assert attack["dropped_at_target_obm"] == 1000
    assert attack["dropped"] >= 1000
    assert run.metrics["traffic"]["sent"] >= 500
    assert run.metrics["traffic"]["success"] == 1.0
    print(f"\n  flood 1000 sent, 0 delivered, 1000 dropped at the victim's "
          f"manager; legit traffic {run.metrics['traffic']['sent']} sent, "
          f"100% delivered")


# -- 5: verification effort decays as generator trust accumulates ---------------------


def test_criterion_05_signature_checks_decay_with_trust(bundled):
    run = bundled("trust_trend")
    blocks = run.metrics["blocks"]
    assert blocks["min_per_generator"] >= 30
    trend = run.metrics["verification"]
    assert trend["ratio"], "no generator produced enough blocks to grade"
    for generator, ratio in trend["ratio"].items():
        first = trend["first_third_mean"][generator]
        final = trend["final_third_mean"][generator]
        assert final <= 0.5 * first, (generator, first, final)
    assert trend["max_ratio"] <= 0.5
    print(f"\n  >=30 valid blocks per generator "
          f"(min {blocks['min_per_generator']}), check-effort ratio "
          f"final/first third <= {trend['max_ratio']} for all generators")


# -- 6: chain audits pass everywhere and any stored byte flip is caught ---------------


def flip_hex_char(line: str, index: int) -> str:
    old = line[index]
    assert old in "0123456789abcdef"
    new = "1" if old == "0" else "0"
    return line[:index] + new + line[index + 1:]


def mutate_field(lines, block_index, path) -> list:
    """Flip one hex character inside the named field of one stored block."""
    obj = json.loads(lines[block_index])
    node = obj
    for part in path[:-1]:
        node = node[part]
    field = node[path[-1]]
    line = lines[block_index]
    # locate this exact hex string in the serialized line and flip its middle
    start = line.index(field)
    mutated_line = flip_hex_char(line, start + len(field) // 2)
    out = list(lines)
    out[block_index] = mutated_line
    return out


def test_criterion_06_full_audits_pass_and_single_byte_flips_fail(bundled):
    for name in bundled.names:
        run = bundled(name)
        dumps = {m.node_id: m.chain.dump_lines() for m in run.world.managers}
        for manager in run.world.managers:
            assert verify_chain(manager.chain), (name, manager.node_id)
        assert len({"\n".join(d) for d in dumps.values()}) == 1, name

    lines = bundled("wrsu_happy_path").world.managers[0].chain.dump_lines()
    assert len(lines) >= 2
    mid = len(lines) // 2
    targets = [
        (mid, ("prev_block_hash",)),
        (mid, ("generator_signature",)),
        (mid, ("transactions", 0, "t_id")),
        (mid, ("transactions", 0, "sig_1")),
        (mid, ("transactions", 0, "payload_digest")),
    ]
    for block_index, path in targets:
        mutated = Chain.from_dump_lines(mutate_field(lines, block_index, path))
        assert not verify_chain(mutated), path
    print(f"\n  full audit true at 4/4 managers for {len(bundled.names)} "
          f"scenarios, stored copies byte-identical; 5/5 single-byte "
          f"mutations detected")


# -- 7: throughput adaptation recovers the utilization band after a load step ----------


def test_criterion_07_load_step_returns_to_band_within_five_periods(bundled):
    run = bundled("throughput_load_step")
    dtm = run.metrics["dtm"]
    assert any(u > 1.0 for series in dtm["utilization"].values() for u in series), \
        "the load step never left the band; the scenario is not probing anything"
    assert dtm["max_out_of_band_run"] <= 5
    assert dtm["final_in_band"] == 1
    print(f"\n  longest out-of-band run {dtm['max_out_of_band_run']} periods "
          f"(<= 5), all managers end inside the band")


# -- 8: soft handover is atomic: one switch, clean key migration, no double delivery ----


def test_criterion_08_single_handover_migrates_keys_without_duplicates(bundled):
    run = bundled("handover")
    assert run.metrics["handover"]["count"] == 1

    old = run.world.managers[0]
    assert [e for e in old.key_list.entries if e.member_id == "veh0"] == []
    assert "veh0" not in old.members

    lines = list(parse_trace(run.trace_text))
    handover_at = next(l["t"] for l in lines if l["event"] == "handover")
    after = {l["t_id"] for l in lines
             if l["event"] == "traffic_tx" and l["sender"] == "veh0"
             and l["t"] > handover_at}
    assert len(after) >= 10
    deliveries = Counter(l["t_id"] for l in lines
                         if l["event"] == "tx_delivered" and l["pending"]
                         and l["member"] == "veh1" and l["t_id"] in after)
    assert set(deliveries) == after
    assert set(deliveries.values()) == {1}
    print(f"\n  exactly 1 handover, old manager holds 0 key entries for the "
          f"moved vehicle, {len(after)} post-handover transactions each "
          f"delivered exactly once")


# -- 9: insurance claims settle on ledger evidence --------------------------------------


def test_criterion_09_claims_follow_anchored_evidence(bundled):
    run = bundled("insurance")
    outcomes = {l["actor"]: l["verdict"]
                for l in trace_records(run.trace_text, "claim_result")}
    assert outcomes == {"veh0": "accepted", "veh1": "DigestMismatch"}

    closed_at = next(l["t"] for l in trace_records(run.trace_text, "account_closed"))
    veh2_rejects = [l for l in trace_records(run.trace_text, "upload_rejected")
                    if l["actor"] == "veh2" and l["error"] == "UnknownAccount"]
    assert veh2_rejects and all(l["t"] >= closed_at for l in veh2_rejects)
    veh2_uploads = [l for l in trace_records(run.trace_text, "record_uploaded")
                    if l["actor"] == "veh2"]
    assert veh2_uploads and all(l["t"] < closed_at for l in veh2_uploads)
    print(f"\n  honest claim accepted, tampered claim DigestMismatch, "
          f"{len(veh2_rejects)} post-closure uploads refused UnknownAccount")


# -- 10: identical seeds give byte-identical traces --------------------------------------


def test_criterion_10_same_seed_runs_are_byte_identical():
    path = bundled_scenarios()["handover"]
    first = run_scenario(load_scenario(path)).engine.trace.text()
    second = run_scenario(load_scenario(path)).engine.trace.text()
    assert first == second
    assert len(first.splitlines()) > 1000
    print(f"\n  two fresh runs, {len(first.splitlines())} trace lines each, "
          f"byte-identical")


# -- 11: randomized properties of the ledger core ----------------------------------------


def test_criterion_11a_transaction_validation_matches_oracle():
    rng = random.Random("acceptance:tx-validation")
    keys = [generate_keypair(f"prop:key:{i}") for i in range(8)]
    recipients = [generate_keypair(f"prop:rcpt:{i}") for i in range(4)]

    chain = Chain()
    seedpool = [build_transaction(ZERO_DIGEST,
                                  digest(f"seed:{i}".encode()),
                                  PayloadTag.GENERIC, keys[i % len(keys)])
                for i in range(24)]
    append_block(chain, form_block(pool_of(seedpool), chain,
                                   generate_keypair("prop:gen"), 24, flush=True))
    committed = [tx.t_id for tx in chain.blocks[0].transactions]
    known = {digest(f"known:{i}".encode()) for i in range(16)}

    cases = Counter()
    for i in range(1200):
        key = rng.choice(keys)
        kind = rng.choice((TxKind.SINGLE, TxKind.MULTI))
        rcpt = rng.choice(recipients) if kind is TxKind.MULTI else None
        good_pred = rng.choice(
            [ZERO_DIGEST, rng.choice(committed), rng.choice(sorted(
                known, key=lambda d: d.hex()))])
        payload = digest(f"case:{i}".encode())
        mutation = rng.choice(("ok", "ok_countersigned", "missing_pred",
                               "bad_sig1", "bad_sig2", "stale_tid",
                               "single_with_recipient", "multi_without_recipient"))
        cases[mutation] += 1

        if mutation == "missing_pred":
            pred = digest(f"nowhere:{i}".encode())
        else:
            pred = good_pred

        if mutation == "multi_without_recipient":
            draft = Transaction(ZERO_DIGEST, pred, TxKind.MULTI, key.public,
                                Signature(b"\x00" * 64), None, None,
                                payload, PayloadTag.GENERIC)
            signed = dataclasses.replace(draft, sig_1=key.sign(draft.signing_body()))
            tx = dataclasses.replace(signed, t_id=signed.compute_t_id())
            expect = (False, TxFault.MALFORMED)
        else:
            tx = build_transaction(pred, payload, PayloadTag.GENERIC, key,
                                   recipient_pk=rcpt.public if rcpt else None)
            if mutation in ("ok_countersigned", "bad_sig2") and kind is TxKind.MULTI:
                tx = countersign(tx, rcpt)
            if mutation in ("ok", "ok_countersigned"):
                expect = (True, None)
            elif mutation == "missing_pred":
                expect = (False, TxFault.MISSING_PREDECESSOR)
            elif mutation == "bad_sig1":
                broken = dataclasses.replace(tx, sig_1=key.sign(b"wrong message"))
                tx = dataclasses.replace(broken, t_id=broken.compute_t_id())
                expect = (False, TxFault.BAD_SIGNATURE)
            elif mutation == "bad_sig2":
                if kind is TxKind.SINGLE:
                    expect = (True, None)  # nothing to break on a single-sig
                else:
                    broken = dataclasses.replace(tx, sig_2=rcpt.sign(b"wrong"))
                    tx = dataclasses.replace(broken, t_id=broken.compute_t_id())
                    expect = (False, TxFault.BAD_SIGNATURE)
            elif mutation == "stale_tid":
                tx = dataclasses.replace(tx, payload_digest=digest(b"swapped"))
                expect = (False, TxFault.MALFORMED)
            elif mutation == "single_with_recipient":
                if kind is TxKind.MULTI:
                    expect = (True, None)  # already multisig: leave it valid
                else:
                    tx = dataclasses.replace(tx, pk_2=recipients[0].public)
                    expect = (False, TxFault.MALFORMED)

        verdict = validate_transaction(tx, chain, known)
        assert (verdict.ok, verdict.fault) == expect, (i, mutation, verdict)

    assert sum(cases.values()) >= 1000
    assert all(count >= 50 for count in cases.values()), cases
    print(f"\n  {sum(cases.values())} randomized validations matched the "
          f"oracle across {len(cases)} construction classes")


def test_criterion_11b_each_key_forms_a_linked_list_in_the_chain():
    rng = random.Random("acceptance:linked-list")
    total = 0
    for trial in range(30):
        keys = [generate_keypair(f"ll:{trial}:{k}")
                for k in range(rng.randint(2, 5))]
        last = {k.public: ZERO_DIGEST for k in keys}
        expected = {k.public: [] for k in keys}
        pool = []
        for i in range(rng.randint(35, 50)):
            key = rng.choice(keys)
            tx = build_transaction(last[key.public],
                                   digest(f"ll:{trial}:{i}".encode()),
                                   PayloadTag.GENERIC, key)
            last[key.public] = tx.t_id
            expected[key.public].append((tx.p_t_id, tx.t_id))
            pool.append(tx)
        total += len(pool)

        rng.shuffle(pool)
        generator = generate_keypair(f"ll:gen:{trial}")
        chain = Chain()
        pool = pool_of(pool)
        while pool:
            block = form_block(pool, chain, generator,
                               rng.randint(1, 7), flush=True)
            assert block is not None, "ready transactions must always drain"
            append_block(chain, block)
        assert verify_chain(chain)

        recovered = defaultdict(list)
        for tx in chain.all_transactions():
            recovered[tx.pk_1].append((tx.p_t_id, tx.t_id))
        assert dict(recovered) == {k: v for k, v in expected.items() if v}
    assert total >= 1000
    print(f"\n  {total} transactions over 30 randomized chains: every key's "
          f"entries recovered as an intact linked list")


def test_criterion_11c_block_turns_are_exclusive_and_fair():
    rng = random.Random("acceptance:turns")
    for case in range(1000):
        ids = [f"m{case}.{i}" for i in range(rng.randint(1, 8))]
        rng.shuffle(ids)
        start = rng.randrange(0, 10_000)
        cycle = [schedule_block_turn(p, ids) for p in range(start, start + len(ids))]
        assert all(turn in ids for turn in cycle)
        assert sorted(cycle) == sorted(ids)  # one turn each, nobody twice
        assert schedule_block_turn(start, ids) == cycle[0]  # deterministic
    print("\n  1000 randomized schedules: exactly one generator per period, "
          "full rotation every cycle")
