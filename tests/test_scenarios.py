"""End-to-end scenario behavior: bundled configurations, cross-cutting world
checks that single-module tests cannot see, and the command-line front end."""
import concurrent.futures
import dataclasses
import errno
import hashlib
import json
import os
import struct
import subprocess
import sys

import pytest

from overchain import cli, crypto
from overchain import services as services_mod
from overchain import world as world_mod
from overchain.cli import bundled_scenarios, main
from overchain.config import LedgerConfig, load_scenario, parse_scenario
from overchain.crypto import ZERO_DIGEST, digest, generate_keypair
from overchain.ledger import Chain, PayloadTag, build_transaction, countersign
from overchain.manager import chain_summary
from overchain.messages import BlockMessage
from overchain.report import build_report, compute_metrics, parse_trace
from overchain.world import Attacker, build_world, run_scenario

from conftest import forged_block, trace_records

NAMES = tuple(bundled_scenarios())


# -- bundled scenarios ----------------------------------------------------------------


def test_expected_scenarios_are_bundled():
    assert set(NAMES) == {
        "ddos_flood", "full_demo", "handover", "handover_flapping",
        "handover_sparse", "insurance", "throughput_load_step", "trust_trend",
        "wrsu_happy_path", "wrsu_impersonation", "wrsu_tampered",
    }


@pytest.mark.parametrize("name", NAMES)
def test_bundled_scenario_meets_expectations(bundled, name):
    run = bundled(name)
    assert run.config.expectations, "bundled scenarios must self-check"
    failed = [r for r in run.report.results if not r.passed]
    assert not failed, "\n".join(
        f"{r.metric} {r.op} {r.value} actual={r.actual} {r.note}" for r in failed)


def test_same_seed_rerun_is_byte_identical(bundled):
    run = bundled("insurance")
    fresh = run_scenario(load_scenario(bundled_scenarios()["insurance"]))
    assert fresh.engine.trace.text() == run.trace_text


def test_report_from_saved_trace_matches_in_memory(bundled, tmp_path):
    run = bundled("insurance")
    path = tmp_path / "saved.trace.jsonl"
    path.write_text(run.trace_text)
    again = build_report(path.read_text(), run.config)
    assert again.metrics == run.metrics
    assert again.passed


# -- configuration reaches the actors ---------------------------------------------------

NON_DEFAULT_LEDGER = {
    "block_size": 7, "block_period": 13.0, "min_check_fraction": 0.3, "trust_ramp": 9,
    "utilization_low": 0.2, "utilization_high": 2.5, "period_min": 2.0,
    "period_max": 90.0, "pending_timeout": 17.0, "notify_requires_certificate": False,
}


def test_every_ledger_setting_reaches_every_manager_and_specs_reach_vehicles():
    assert set(NON_DEFAULT_LEDGER) == {f.name for f in dataclasses.fields(LedgerConfig)}
    default = LedgerConfig()
    assert all(getattr(default, k) != v for k, v in NON_DEFAULT_LEDGER.items())
    config = parse_scenario({
        "name": "settings", "network": {"managers": 3}, "ledger": NON_DEFAULT_LEDGER,
        "actors": {"vehicles": {
            "count": 3,
            "template": {"probe_interval": 4.0, "candidate_obms": "all"},
            "overrides": {"veh1": {"obm": "obm0", "handover_threshold": 30.0}}}},
    })
    world = build_world(config)
    engine = world.engine
    engine.now = 5.0
    orphan = build_transaction(digest(b"unknown predecessor"),
                               digest(b"anchor"), PayloadTag.GENERIC,
                               generate_keypair("orphan"))
    provider, oem = generate_keypair("provider"), generate_keypair("uncertified-oem")
    update = countersign(build_transaction(
        ZERO_DIGEST, digest(b"fw"), PayloadTag.SW_UPDATE, provider,
        recipient_pk=oem.public), oem)
    for m in world.managers:
        tp = m.throughput
        assert m.trust.ledger is tp.ledger is config.ledger
        assert tp.block_period == 13.0
        tp.adjust(observed_rate=1e9, manager_count=1)  # far over the band: the floor binds
        assert tp.block_period == config.network.period_floor == 5.0
        m.receive_transaction(engine, orphan, None)
        assert m.waiting[orphan.t_id][2] == 5.0 + 17.0  # parking deadline
        m.receive_transaction(engine, update, None)
    # no certificate is needed, so every vehicle member hears of the update
    notified = [r["member"] for r in parse_trace(engine.trace.text())
                if r["event"] == "update_notified"]
    assert sorted(notified) == ["veh0", "veh1", "veh2"]

    assert [v.spec for v in world.vehicles.values()] == list(config.vehicles)
    veh1 = world.vehicles["veh1"]
    assert (veh1.node_id, veh1.obm_id, veh1.spec.handover_threshold,
            veh1.spec.candidate_obms) == ("veh1", "obm0", 30.0, ("obm0", "obm1", "obm2"))


# -- a corrupt generator is contained by distributed validation ------------------------


def byzantine_config():
    return parse_scenario({
        "name": "byzantine", "seed": 9, "duration": 120.0,
        "network": {"managers": 4, "default_delay": 5.0},
        "ledger": {"block_size": 4, "block_period": 10.0,
                   "utilization_low": 0.0, "utilization_high": 1.0e9},
        "actors": {"vehicles": {"count": 8}},
        "traffic": {"phases": [
            {"start": 0.0, "stop": 110.0, "pairs": 2, "interval": 2.0}]},
    })


def test_corrupt_generator_is_rejected_and_chains_stay_equal(monkeypatch):
    config = byzantine_config()
    world = build_world(config)
    rogue = world.managers[1]
    sent_at = []

    def generate(engine, flush):
        # at its first two scheduled turns, rogue obm1 sends each peer a block
        # whose generator signature covers other bytes, and keeps its pool
        if flush or len(sent_at) == 2:
            return honest_generate(engine, flush)
        block = forged_block(rogue.chain, rogue.keypair, f"junk:{len(sent_at)}")
        sent_at.append(engine.now)
        for peer in rogue.peers:
            engine.send(rogue.node_id, peer, BlockMessage(block))
        return False

    honest_generate = rogue._generate
    monkeypatch.setattr(rogue, "_generate", generate)
    world.driver.start(world.engine)
    world.engine.run(max_time=config.duration)
    world.engine.run()
    world.driver.finalize(world.engine)

    lines = list(parse_trace(world.engine.trace.text()))
    metrics = compute_metrics(lines)

    turns = [l["t"] for l in lines if l["event"] == "throughput" and l["actor"] == "obm1"
             and l["turn"]]
    assert sent_at == turns[:2]  # periods 1 and 5, obm1's first two turns

    rejected = [l for l in lines if l["event"] == "block_rejected"]
    assert len(rejected) == 6  # 2 bad blocks x 3 honest peers
    assert all(l["fault"] == "bad_generator_sig" for l in rejected)
    assert metrics["blocks"]["rejected"] == 6

    # every honest peer zeroes its trust in the rogue, then lets it recover
    trust_lines = [(i, l) for i, l in enumerate(lines)
                   if l["event"] == "trust_updated" and l["generator"] == "obm1"
                   and l["actor"] != "obm1"]
    resets = [i for i, l in trust_lines if l["score"] == 0.0]
    assert {lines[i]["actor"] for i in resets} == {"obm0", "obm2", "obm3"}
    assert any(i > max(resets) and l["score"] > 0.0 for i, l in trust_lines)

    # the bad blocks never landed anywhere: all chains identical and sound
    assert metrics["chain"]["equal"] == 1
    assert metrics["chain"]["all_valid"] == 1
    assert len(set(metrics["chain"]["heights"].values())) == 1


def test_a_manager_with_a_different_chain_makes_chains_unequal():
    config = byzantine_config()
    world = build_world(config)
    world.driver.start(world.engine)
    world.engine.run(max_time=config.duration)
    world.engine.run()
    short = world.managers[3]  # a sound prefix of the chain the others hold
    short.chain = Chain.from_dump_lines(short.chain.dump_lines()[:-1])
    world.driver.finalize(world.engine)

    text = world.engine.trace.text()
    digests = {r["actor"]: r["chain_digest"]
               for r in trace_records(text, "manager_summary")}
    assert digests["obm0"] == digests["obm1"] == digests["obm2"] != digests["obm3"]
    assert [m.emit_summary(world.engine, chain_summary(m.chain)) for m in world.managers] == \
        [digests[m.node_id] for m in world.managers]
    (end,) = trace_records(text, "scenario_end")
    assert end["chains_equal"] is False and end["all_valid"] is True


# -- key material is derived only where a run uses it -----------------------------------


@pytest.fixture
def derived_seeds(monkeypatch):
    """The seed of every ``generate_keypair`` call, wherever it is bound."""
    seeds = []
    real = crypto.generate_keypair

    def counting(seed):
        seeds.append(seed)
        return real(seed)

    for module in (crypto, world_mod, services_mod):
        monkeypatch.setattr(module, "generate_keypair", counting)
    return seeds


@pytest.mark.parametrize("name, at_build, in_run", [
    ("trust_trend", 11, 11),  # 45 and 45 when every key was derived at build
    ("ddos_flood", 25, 35),  # 45 and 65
    ("full_demo", 45, 45),  # 49 and 49
    ("insurance", 18, 21),  # 24 in the run when each vehicle derived its insurance key again
])
def test_build_world_derives_only_the_keys_a_run_uses(derived_seeds, name,
                                                       at_build, in_run):
    config = load_scenario(bundled_scenarios()[name])
    world = build_world(config)
    assert len(derived_seeds) == at_build
    world.driver.start(world.engine)
    world.engine.run(max_time=config.duration)
    world.engine.run()
    world.driver.finalize(world.engine)
    assert len(derived_seeds) == in_run
    assert len(set(derived_seeds)) == in_run  # no key is derived twice


def test_vehicles_have_cloud_accounts_only_with_an_oem():
    for name, has_oem in (("trust_trend", False), ("ddos_flood", False),
                          ("full_demo", True), ("wrsu_happy_path", True)):
        world = build_world(load_scenario(bundled_scenarios()[name]))
        assert (world.oem is not None) == has_oem
        for vid, vehicle in world.vehicles.items():
            if has_oem:
                assert vehicle.cloud_account[0] == f"{vid}-acct"
                assert world.cloud.accounts[f"{vid}-acct"] == \
                    vehicle.cloud_account[1].public
            else:
                assert vehicle.cloud_account is None
        vehicle_accounts = [a for a in world.cloud.accounts
                            if a.startswith("veh") and a.endswith("-acct")]
        assert len(vehicle_accounts) == (len(world.vehicles) if has_oem else 0)


def test_attacker_derives_its_second_key_on_first_use(derived_seeds):
    attacker = Attacker("atk1", "obm0", "s:1")
    assert derived_seeds == ["s:1:key:atk1"]
    second = attacker.second_keypair
    assert attacker.second_keypair is second
    assert derived_seeds == ["s:1:key:atk1", "s:1:key:atk1:2"]
    # the key the attacker derived in __init__ before it was derived on use
    assert second.public.hex() == \
        "79cdcf371b4b8c8826f9f70f4aab631126c7d7f1d037e203617655645a6c906e"


# -- the period floor keeps chains equal under legal timing ------------------------------


def test_period_floor_keeps_chains_equal_under_load():
    # Overload shrinks the block period; below the manager-to-manager delay at
    # full jitter, these runs forked with 304 and 4,344 rejected blocks.
    for managers, jitter, pairs, stop, floor in [(2, 0.0, 15, 100.0, 5.0),
                                                 (4, 0.5, 20, 180.0, 7.5)]:
        config = parse_scenario({
            "name": "fork", "seed": 3, "duration": stop + 20.0,
            "network": {"managers": managers, "default_delay": 5.0, "jitter": jitter},
            "actors": {"vehicles": {"count": 2 * pairs}},
            "traffic": {"phases": [
                {"start": 0.0, "stop": stop, "pairs": pairs, "interval": 1.0}]},
        })
        assert config.network.period_floor == floor
        trace_text = run_scenario(config).engine.trace.text()
        metrics = compute_metrics(parse_trace(trace_text))
        assert metrics["chain"]["equal"] == 1
        assert metrics["blocks"]["rejected"] == 0
        periods = [r["block_period"] for r in trace_records(trace_text, "throughput")]
        assert min(periods) == floor  # the floor, not period_min 1.0, binds


def test_a_block_that_overtakes_a_relay_does_not_commit_the_transaction_twice():
    # With jitter, obm1's block holding a final reaches obm0 before obm1's relay
    # of it. obm0 must still deliver the relayed final to its member, but must
    # not pool it, or its next block repeats the transaction.
    world = run_scenario(parse_scenario({
        "name": "dup", "seed": 16, "duration": 120.0,
        "network": {"managers": 2, "default_delay": 5.0, "jitter": 1.0},
        "ledger": {"block_size": 1, "block_period": 10.0, "period_min": 10.0},
        "actors": {"vehicles": {"count": 2, "template": {"obm": "round_robin"}}},
        "traffic": {"phases": [{"start": 0.0, "stop": 100.0, "pairs": 1, "interval": 7.0}]},
    }))
    committed = set()
    for m in world.managers:
        t_ids = [tx.t_id.hex() for tx in m.chain.all_transactions()]
        assert len(t_ids) == len(set(t_ids)) == 15
        committed |= set(t_ids)
    trace_text = world.engine.trace.text()
    # obm0 delivered exactly one final that it never pooled: the overtaken relay
    delivered = {r["t_id"] for r in trace_records(trace_text, "tx_delivered", actor="obm0")
                 if not r["pending"]}
    pooled = {r["t_id"] for r in trace_records(trace_text, "tx_pooled", actor="obm0")}
    assert len(delivered - pooled) == 1
    # every member receives every final exactly once
    for vid in world.vehicles:
        received = [r["t_id"] for r in trace_records(trace_text, "tx_received", actor=vid)
                    if not r["pending"]]
        assert sorted(received) == sorted(committed)
    metrics = compute_metrics(parse_trace(trace_text))
    assert metrics["chain"]["equal"] == metrics["chain"]["all_valid"] == 1
    assert metrics["deliveries"]["final"] == 30
    assert metrics["drops"] == {"duplicate": 0, "invalid": 0, "no_match": 0}


# -- anchoring soundness, recomputed independently --------------------------------------


def independent_store_digest(records) -> str:
    """Re-derive the record-store digest from raw fields: length-prefixed
    concatenation per record, then over the record sequence, then SHA-256."""
    def join(fields):
        return b"".join(struct.pack(">I", len(f)) + f for f in fields)
    blobs = [join([repr(r.timestamp).encode(), r.category.encode(), r.payload])
             for r in records]
    return hashlib.sha256(join(blobs)).hexdigest()


def test_committed_anchors_match_recomputed_storage_digests(bundled):
    run = bundled("insurance")
    veh0 = run.world.vehicles["veh0"]
    assert not veh0.backup_store  # storage only ever grew in this scenario
    account_pk = veh0.insurance_account[1].public

    history = veh0.in_vehicle_storage
    prefix_digests = {independent_store_digest(history[:i])
                      for i in range(len(history) + 1)}

    chain = run.world.managers[0].chain
    anchors = [tx for tx in chain.all_transactions()
               if tx.payload_tag is PayloadTag.STORAGE_ANCHOR
               and tx.pk_1 == account_pk]
    assert len(anchors) >= 2
    for tx in anchors:
        assert tx.payload_digest.hex() in prefix_digests


# -- flood accounting -------------------------------------------------------------------


def test_flood_transactions_never_reach_pools_or_chains(bundled):
    run = bundled("ddos_flood")
    lines = list(parse_trace(run.trace_text))
    attack_tids = {l["t_id"] for l in lines if l["event"] == "attack_tx"}
    assert len(attack_tids) == 1000

    pooled = {l["t_id"] for l in lines if l["event"] == "tx_pooled"}
    assert not attack_tids & pooled

    for manager in run.world.managers:
        chain_tids = {d.hex() for d in manager.chain.tx_index}
        assert not attack_tids & chain_tids

    # each flood transaction is dropped exactly once at the victim's manager
    target = next(l["target_obm"] for l in lines if l["event"] == "attack_tx")
    at_target = [l["t_id"] for l in lines
                 if l["event"] == "tx_dropped" and l["actor"] == target
                 and l["t_id"] in attack_tids]
    assert sorted(at_target) == sorted(attack_tids)


def test_key_listed_attackers_get_through_and_others_do_not():
    config = parse_scenario({
        "name": "keyed-flood", "seed": 21, "duration": 80.0,
        "network": {"managers": 4},
        "actors": {"vehicles": {"count": 4}},
        "script": [{"at": 10.0, "do": "start_ddos", "attackers": 4,
                    "keyed_attackers": 2, "tx_per_attacker": 25,
                    "target": "veh0", "interval": 1.0}],
    })
    world = run_scenario(config)
    metrics = compute_metrics(parse_trace(world.engine.trace.text()))

    # 2 of 4 attackers hold key-list entries at the victim's manager: their
    # 50 submissions are delivered there; the other 50 are dropped there.
    # Every submission also dies at the managers with neither a key match
    # nor a broadcast duty (keyed: 2 each, unkeyed: 3 each).
    assert metrics["attack"] == {
        "sent": 100, "delivered": 50, "dropped": 250,
        "dropped_at_target_obm": 50, "forged_publishes": 0, "forged_finals": 0,
    }
    # the victim countersigns what its access list admitted, nothing else
    assert metrics["countersigns"] == 50


def test_with_one_manager_attackers_flood_from_the_target_manager_itself():
    config = parse_scenario({
        "name": "lone-flood", "seed": 5, "duration": 40.0,
        "network": {"managers": 1},
        "actors": {"vehicles": {"count": 2}},
        "script": [{"at": 5.0, "do": "start_ddos", "attackers": 2,
                    "tx_per_attacker": 5, "target": "veh1", "interval": 1.0}],
    })
    world = run_scenario(config)
    assert [world.engine.nodes[a].obm_id for a in ("atk1", "atk2")] == ["obm0", "obm0"]
    metrics = compute_metrics(parse_trace(world.engine.trace.text()))
    # no other cluster to flood from, and no peer to relay to: every submission
    # dies as no_match at the victim's own manager
    assert metrics["attack"] == {
        "sent": 10, "delivered": 0, "dropped": 10,
        "dropped_at_target_obm": 10, "forged_publishes": 0, "forged_finals": 0,
    }
    assert world.managers[0].drops["no_match"] == 10


def test_a_directive_without_a_target_leaves_a_failure_record():
    config = parse_scenario({
        "name": "no-target", "duration": 80.0,
        "actors": {"oem": {}, "providers": [{"id": "swp"}], "insurer": {},
                   "vehicles": {"count": 1}},
        "script": [{"at": 1.0, "do": "publish_update", "ecu": "e", "version": "1"},
                   {"at": 60.0, "do": "tamper_cloud_object", "version": "2"},
                   {"at": 61.0, "do": "tamper_cloud_object", "object": "sw/absent"},
                   {"at": 62.0, "do": "close_account", "vehicle": "veh0"}],
    })
    text = run_scenario(config).engine.trace.text()
    failures = trace_records(text, "tamper_failed", "directive_failed", "cloud_tampered")
    assert failures == [
        # version 2 was never published, so no object holds it
        {"t": 60.0, "actor": "driver", "event": "tamper_failed", "object": "?"},
        {"t": 61.0, "actor": "driver", "event": "tamper_failed", "object": "sw/absent"},
        # veh0 never opened an insurance account
        {"t": 62.0, "actor": "driver", "event": "directive_failed", "action": "close_account",
         "vehicle": "veh0", "reason": "no insurance account"},
    ]
    # the provider published version 1 only, before the tampers
    assert [(r["version"], r["t"] < 60.0) for r in trace_records(text, "published")] == [
        ("1", True)]


# -- soft handover migrates key material -------------------------------------------------


def test_handover_moves_membership_and_key_entries(bundled):
    run = bundled("handover")
    old = run.world.managers[0]
    new = run.world.managers[1]
    veh0 = run.world.vehicles["veh0"]

    assert veh0.obm_id == new.node_id
    assert "veh0" not in old.members
    assert [e for e in old.key_list.entries if e.member_id == "veh0"] == []
    assert "veh0" in new.members
    assert [e for e in new.key_list.entries if e.member_id == "veh0"] != []


# -- command-line front end ---------------------------------------------------------------


TINY = """\
name: tiny
seed: 1
duration: 30.0
network: {managers: 2}
actors: {vehicles: {count: 2}}
traffic: {phases: [{start: 0.0, stop: 20.0, pairs: 1, interval: 5.0}]}
expectations:
  - {metric: traffic.success, op: eq, value: 1.0}
  - {metric: chain.equal, op: eq, value: 1}
"""


@pytest.fixture()
def tiny_config(tmp_path):
    path = tmp_path / "tiny.yaml"
    path.write_text(TINY)
    return path


def test_cli_run_passing_config_exits_zero(tiny_config, capsys):
    assert main(["run", str(tiny_config)]) == 0
    out = capsys.readouterr().out
    assert "scenario tiny" in out and "PASS" in out


def test_cli_run_failed_expectation_exits_one(tmp_path, capsys):
    path = tmp_path / "sad.yaml"
    path.write_text(TINY + "  - {metric: installs, op: eq, value: 99}\n")
    assert main(["run", str(path)]) == 1
    assert "FAIL" in capsys.readouterr().out


def test_cli_run_bad_config_exits_two(tmp_path, capsys):
    path = tmp_path / "bad.yaml"
    path.write_text("name: x\nduration: -5\n")
    assert main(["run", str(path)]) == 2
    assert "configuration error" in capsys.readouterr().err


def test_cli_run_missing_file_exits_two(capsys):
    assert main(["run", "/nonexistent/nowhere.yaml"]) == 2
    assert "no such file or bundled scenario" in capsys.readouterr().err


@pytest.mark.parametrize("jobs", ["0", "-3"])
def test_cli_run_jobs_below_one_is_a_usage_error(tiny_config, capsys, jobs):
    with pytest.raises(SystemExit) as exited:
        main(["run", str(tiny_config), "--jobs", jobs])
    assert exited.value.code == 2
    captured = capsys.readouterr()
    assert f"argument --jobs: must be at least 1, got {jobs}" in captured.err
    assert captured.out == ""  # refused before any scenario ran


def test_cli_run_jobs_not_an_integer_is_a_usage_error(tiny_config, capsys):
    with pytest.raises(SystemExit) as exited:
        main(["run", str(tiny_config), "--jobs", "abc"])
    assert exited.value.code == 2
    captured = capsys.readouterr()
    assert captured.err.endswith("error: argument --jobs: invalid int value: 'abc'\n")
    assert captured.out == ""


def test_cli_run_accepts_bundled_names(capsys):
    # resolution only: validate is enough to prove the name lookup works
    assert main(["validate", "insurance", "handover"]) == 0
    out = capsys.readouterr().out
    assert out.count("ok ") == 2


def test_cli_validate_reports_invalid(tmp_path, capsys):
    good = tmp_path / "good.yaml"
    good.write_text(TINY)
    bad = tmp_path / "bad.yaml"
    bad.write_text("duration: nope\n")
    latin1 = tmp_path / "latin1.yaml"
    latin1.write_bytes("name: café\n".encode("latin-1"))
    assert main(["validate", str(good), str(bad), str(latin1)]) == 2
    captured = capsys.readouterr()
    assert "ok" in captured.out
    assert captured.err.count("INVALID") == 2


def test_cli_seed_override_and_json_format(tiny_config, capsys):
    assert main(["run", str(tiny_config), "--seed", "99",
                 "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["seed"] == 99
    assert payload["passed"] is True


def test_cli_trace_then_report_round_trip(tiny_config, tmp_path, capsys):
    trace = tmp_path / "tiny.trace.jsonl"
    assert main(["run", str(tiny_config), "--trace", str(trace),
                 "--format", "json"]) == 0
    direct = json.loads(capsys.readouterr().out)

    assert main(["report", str(trace), "--config", str(tiny_config),
                 "--format", "json"]) == 0
    recomputed = json.loads(capsys.readouterr().out)
    assert recomputed["metrics"] == direct["metrics"]
    assert recomputed["passed"] is True

    # without a config there are no expectations to fail
    assert main(["report", str(trace)]) == 0


def test_cli_report_of_a_crlf_copy_prints_what_run_printed(tiny_config, tmp_path, capsys):
    trace = tmp_path / "tiny.trace.jsonl"
    assert main(["run", str(tiny_config), "--trace", str(trace), "--format", "json"]) == 0
    direct = capsys.readouterr().out
    crlf = tmp_path / "crlf.jsonl"
    crlf.write_bytes(trace.read_bytes().replace(b"\n", b"\r\n"))
    assert crlf.read_bytes().count(b"\r\n") == trace.read_bytes().count(b"\n") > 0
    assert main(["report", str(crlf), "--config", str(tiny_config), "--format", "json"]) == 0
    assert capsys.readouterr().out == direct


def test_cli_report_with_a_bad_config_exits_two(tiny_config, tmp_path, capsys):
    trace = tmp_path / "tiny.trace.jsonl"
    assert main(["run", str(tiny_config), "--trace", str(trace)]) == 0
    capsys.readouterr()
    bad = tmp_path / "bad.yaml"
    bad.write_text("name: bad\nduration: -5\n")
    assert main(["report", str(trace), "--config", str(bad)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "configuration error:\nduration: must be greater than 0.0\n"


def test_cli_report_missing_trace_exits_two(capsys):
    assert main(["report", "/nonexistent/trace.jsonl"]) == 2
    assert "cannot read trace" in capsys.readouterr().err


@pytest.mark.parametrize("bad_line, message", [
    ('{"t":1,"event":', "trace line 3: column 16: Expecting value"),
    ("[1,2]", "trace line 3: not a JSON object"),
    ("{}", "trace line 3: no field 'event'"),
    ('{"t":1,"actor":"obm0","event":"tx_dropped","t_id":"00"}',
     "trace line 3: no field 'reason'"),
    ('{"event":[]}', "trace line 3: unhashable type: 'list'"),
    ('{"t":1,"actor":"obm0","event":"block_validated","ok":true,"generator":"obm1",'
     '"height":1,"verification_count":"x"}',
     "trace line 3: unsupported operand type(s) for +: 'int' and 'str'"),
    # malformed lines that one decode of the whole trace would merge into
    # three sound records
    ('{"t":0,"actor":"a","event":"x","n":[1\n2]}\n'
     '{"t":1,"actor":"a","event":"y"},{"t":2,"actor":"a","event":"z"}',
     "trace line 3: column 38: Expecting ',' delimiter"),
    pytest.param("[" * 100000, "trace line 3: nested too deeply", id="nested_too_deeply"),
])
def test_cli_report_names_the_bad_trace_line_and_exits_two(tiny_config, tmp_path, capsys,
                                                          bad_line, message):
    good = tmp_path / "good.jsonl"
    assert main(["run", str(tiny_config), "--trace", str(good)]) == 0
    lines = good.read_text().splitlines()
    bad = tmp_path / "bad.jsonl"
    bad.write_text("\n".join(lines[:1] + [""] + [bad_line] + lines[1:]) + "\n")
    capsys.readouterr()
    for extra in ([], ["--config", str(tiny_config)]):
        assert main(["report", str(bad), *extra]) == 2
        captured = capsys.readouterr()
        assert captured.err.strip() == message and captured.out == ""


def test_cli_report_names_a_record_that_clashes_with_an_earlier_one(tmp_path, capsys):
    # each record is sound alone; sorting both periods of obm0 fails
    rows = [{"t": t, "actor": "obm0", "event": "throughput", "period": period,
             "rate": 1.0, "utilization": 0.5, "band": [0.5, 1.0]}
            for t, period in ((10.0, 1), (20.0, "2"))]
    trace = tmp_path / "clash.jsonl"
    trace.write_text("".join(json.dumps(row) + "\n" for row in rows))
    assert main(["report", str(trace)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == (
        "trace line 2: '<' not supported between instances of 'str' and 'int'\n")


def test_cli_report_integer_over_the_digit_limit_exits_two(tmp_path, capsys):
    trace = tmp_path / "huge.jsonl"
    trace.write_text('{"t":' + "7" * 5000 + "}\n")
    assert main(["report", str(trace)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("trace line 1: ")
    assert captured.err.count("\n") == 1


@pytest.mark.parametrize("text", ["", "\n\n  \n"])
def test_cli_report_trace_without_records_exits_two(tmp_path, capsys, text):
    trace = tmp_path / "empty.jsonl"
    trace.write_text(text)
    assert main(["report", str(trace)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == "trace has no records\n"


def test_cli_report_trace_not_utf8_exits_two(tmp_path, capsys):
    trace = tmp_path / "utf16.jsonl"
    trace.write_bytes(b"\xff\xfe{}\n")
    assert main(["report", str(trace)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("cannot read trace: ")
    assert captured.err.count("\n") == 1


def test_cli_run_writes_the_trace_into_an_existing_directory(tiny_config, tmp_path, capsys):
    assert main(["run", str(tiny_config), "--trace", str(tmp_path)]) == 0
    assert "scenario tiny " in capsys.readouterr().out
    trace = tmp_path / "tiny.trace.jsonl"
    assert main(["report", str(trace), "--config", str(tiny_config)]) == 0


def test_cli_run_unwritable_trace_exits_two(tiny_config, tmp_path, monkeypatch, capsys):
    other = tmp_path / "tiny2.yaml"
    other.write_text(TINY.replace("name: tiny", "name: tiny2"))
    blocker = tmp_path / "file"
    blocker.write_text("")
    ran = []
    monkeypatch.setattr(cli, "run_scenario", ran.append)
    for target, configs in ((blocker / "t.jsonl", [str(tiny_config)]),
                            (blocker / "dir", [str(tiny_config), str(other)]),
                            (blocker / "a" / "dir", [str(tiny_config), str(other)]),
                            (tmp_path / "missing" / "t.jsonl", [str(tiny_config)])):
        assert main(["run", *configs, "--trace", str(target)]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("cannot write trace: ")
        assert captured.err.count("\n") == 1
        assert ran == [] and not (tmp_path / "missing").exists()


def test_cli_run_trace_write_that_fails_exits_two(tiny_config, tmp_path, capsys):
    # the directory passes the checks made before the run; the file in it is a directory
    (tmp_path / "tiny.trace.jsonl").mkdir()
    assert main(["run", str(tiny_config), "--trace", str(tmp_path)]) == 2
    captured = capsys.readouterr()
    error = IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR),
                              str(tmp_path / "tiny.trace.jsonl"))
    assert captured.out == "" and captured.err == f"cannot write trace: {error}\n"


def test_cli_run_makes_a_missing_trace_directory(tiny_config, tmp_path, capsys):
    other = tmp_path / "tiny2.yaml"
    other.write_text(TINY.replace("name: tiny", "name: tiny2"))
    target = tmp_path / "a" / "b"
    assert main(["run", str(tiny_config), str(other), "--trace", str(target)]) == 0
    assert sorted(p.name for p in target.iterdir()) == [
        "tiny.trace.jsonl", "tiny2.trace.jsonl"]


def test_cli_run_two_scenarios_of_one_name_into_a_directory_exits_two(
        tiny_config, tmp_path, capsys):
    other = tmp_path / "other.yaml"
    other.write_text(TINY)  # another file, the same scenario name
    for configs in ([tiny_config] * 2, [tiny_config, other]):
        target = tmp_path / "traces"
        assert main(["run", *map(str, configs), "--trace", str(target)]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == (
            f"configuration error:\ntwo scenarios would write {target / 'tiny.trace.jsonl'}\n")
        assert not target.exists()


def test_cli_run_several_scenarios_into_an_existing_file_exits_two_before_running(
        tiny_config, tmp_path, monkeypatch, capsys):
    other = tmp_path / "tiny2.yaml"
    other.write_text(TINY.replace("name: tiny", "name: tiny2"))
    target = tmp_path / "traces.jsonl"
    target.write_text("kept\n")
    ran = []
    monkeypatch.setattr(cli, "_job_entry", lambda *job: ran.append(job))
    assert main(["run", str(tiny_config), str(other), "--trace", str(target)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == (
        f"configuration error:\n{target} is not a directory, "
        "and 2 scenarios write their traces into one\n")
    assert ran == [] and target.read_text() == "kept\n"


def test_cli_run_jobs_start_no_more_workers_than_scenarios(
        tiny_config, tmp_path, monkeypatch, capsys):
    other = tmp_path / "tiny2.yaml"
    other.write_text(TINY.replace("name: tiny", "name: tiny2"))
    sizes = []

    class RecordingExecutor:  # records the pool size, runs the jobs in this process
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc_info):
            return False

        def map(self, fn, *iterables):
            return map(fn, *iterables)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingExecutor)
    assert main(["run", str(tiny_config), str(other), "--jobs", "64"]) == 0
    assert sizes == [2]
    out = capsys.readouterr().out
    assert "scenario tiny " in out and "scenario tiny2 " in out


def test_cli_parallel_jobs(tiny_config, tmp_path, capsys):
    other = tmp_path / "tiny2.yaml"
    other.write_text(TINY.replace("name: tiny", "name: tiny2"))
    outputs = []
    for jobs in ("2", "1"):
        assert main(["run", str(tiny_config), str(other), "--jobs", jobs]) == 0
        outputs.append(capsys.readouterr().out)
    assert "scenario tiny " in outputs[0] and "scenario tiny2 " in outputs[0]
    assert outputs[0] == outputs[1]  # parallel output is the serial output


def test_cli_parallel_jobs_write_the_serial_traces(tiny_config, tmp_path, capsys):
    # a worker's trace text comes back across the process boundary as a plain str
    other = tmp_path / "tiny2.yaml"
    other.write_text(TINY.replace("name: tiny", "name: tiny2"))
    outputs, traces = [], []
    for jobs in ("2", "1"):
        out_dir = tmp_path / f"traces{jobs}"
        assert main(["run", str(tiny_config), str(other), "--jobs", jobs, "--format", "json",
                     "--trace", str(out_dir)]) == 0
        outputs.append(capsys.readouterr().out)
        traces.append({path.name: path.read_bytes() for path in out_dir.iterdir()})
    assert sorted(traces[0]) == ["tiny.trace.jsonl", "tiny2.trace.jsonl"]
    assert all(traces[0].values())
    assert traces[0] == traces[1]
    assert outputs[0] == outputs[1]


def test_importing_the_cli_leaves_out_the_process_pool():
    # only `run --jobs` above 1 uses it, so no other command pays its import
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = "import sys, overchain.cli; print('concurrent.futures.process' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out == "False\n"


def test_cli_list_names_every_bundled_scenario(capsys):
    assert main(["list"]) == 0
    printed = capsys.readouterr().out.split()
    assert printed == sorted(NAMES)
