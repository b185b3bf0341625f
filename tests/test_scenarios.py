"""End-to-end scenario behavior: bundled configurations, cross-cutting world
checks that single-module tests cannot see, and the command-line front end."""
import dataclasses
import hashlib
import json
import struct

import pytest

from overchain.cli import bundled_scenarios, main
from overchain.config import LedgerConfig, load_scenario, parse_scenario
from overchain.crypto import ZERO_DIGEST, digest, generate_keypair
from overchain.ledger import PayloadTag, TxKind, build_transaction, countersign
from overchain.report import build_report, compute_metrics, parse_trace
from overchain.world import build_world, run_scenario

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
    orphan = build_transaction(TxKind.SINGLE, digest(b"unknown predecessor"),
                               digest(b"anchor"), PayloadTag.GENERIC,
                               generate_keypair("orphan"))
    provider, oem = generate_keypair("provider"), generate_keypair("uncertified-oem")
    update = countersign(build_transaction(
        TxKind.MULTI, ZERO_DIGEST, digest(b"fw"), PayloadTag.SW_UPDATE, provider,
        recipient_pk=oem.public), oem)
    for m in world.managers:
        tp = m.throughput
        assert (tp.block_size, tp.block_period, tp.utilization_low, tp.utilization_high,
                tp.period_min, tp.period_max) == (7, 13.0, 0.2, 2.5, 2.0, 90.0)
        assert (m.trust.min_check_fraction, m.trust.trust_ramp) == (0.3, 9)
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


def test_corrupt_generator_is_rejected_and_chains_stay_equal():
    config = byzantine_config()
    world = build_world(config)
    rogue = world.managers[1]
    rogue.corrupt_periods = {1, 5}  # two of obm1's scheduled turns
    world.driver.start(world.engine)
    world.engine.run(max_time=config.duration)
    world.engine.run()
    world.driver.finalize(world.engine)

    lines = parse_trace(world.engine.trace.text())
    metrics = compute_metrics(lines)

    emitted = [l for l in lines if l["event"] == "corrupt_block_emitted"]
    assert len(emitted) == 2 and all(l["actor"] == "obm1" for l in emitted)

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
    lines = parse_trace(run.trace_text)
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


# -- soft handover migrates key material -------------------------------------------------


def test_handover_moves_membership_and_key_entries(bundled):
    run = bundled("handover")
    old = run.world.managers[0]
    new = run.world.managers[1]
    veh0 = run.world.vehicles["veh0"]

    assert veh0.obm_id == new.node_id
    assert "veh0" not in old.members
    assert old.key_list.entries_for("veh0") == []
    assert "veh0" in new.members
    assert len(new.key_list.entries_for("veh0")) >= 1


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
    assert main(["validate", str(good), str(bad)]) == 2
    captured = capsys.readouterr()
    assert "ok" in captured.out
    assert "INVALID" in captured.err


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


def test_cli_report_missing_trace_exits_two(capsys):
    assert main(["report", "/nonexistent/trace.jsonl"]) == 2
    assert "cannot read trace" in capsys.readouterr().err


@pytest.mark.parametrize("bad_line, message", [
    ('{"t":1,"event":', "trace line 3: column 16: Expecting value"),
    ("[1,2]", "trace line 3: not a JSON object"),
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


def test_cli_parallel_jobs(tiny_config, tmp_path, capsys):
    other = tmp_path / "tiny2.yaml"
    other.write_text(TINY.replace("name: tiny", "name: tiny2"))
    outputs = []
    for jobs in ("2", "1"):
        assert main(["run", str(tiny_config), str(other), "--jobs", jobs]) == 0
        outputs.append(capsys.readouterr().out)
    assert "scenario tiny " in outputs[0] and "scenario tiny2 " in outputs[0]
    assert outputs[0] == outputs[1]  # parallel output is the serial output


def test_cli_list_names_every_bundled_scenario(capsys):
    assert main(["list"]) == 0
    printed = capsys.readouterr().out.split()
    assert printed == sorted(NAMES)
