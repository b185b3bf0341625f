"""The traced run must see every call it claims to count and must not
disturb the simulation it measures.

Run with ``python3 -m pytest perfbench/tests -q`` from the repository root.
"""
import cProfile
import pstats

import run
from overchain import crypto, ledger, manager, report, services, vehicle, world
from tracer import Tracer, overchain_modules

PATCHED_FUNCTIONS = (
    crypto.verify, crypto.digest, crypto.canonical_join, crypto.generate_keypair,
    ledger.check_integrity, ledger.validate_block, ledger.verify_chain,
    ledger.append_block, ledger.form_block, world.build_world,
    report.parse_trace, report.compute_metrics,
)


def test_every_import_site_is_patched_and_restored():
    before = {id(fn) for fn in PATCHED_FUNCTIONS}
    tracer = Tracer()
    tracer.install()
    try:
        leftovers = [f"{mod.__name__}.{attr}"
                     for mod in overchain_modules()
                     for attr, value in vars(mod).items() if id(value) in before]
        assert leftovers == []
        patched_modules = {owner for owner, _, _ in tracer.patched}
        for mod in (crypto, ledger, services, vehicle, manager, world):
            assert mod in patched_modules, mod.__name__
        assert services.verify is crypto.verify  # services' own binding
    finally:
        tracer.uninstall()
    assert tracer.patched == []
    assert services.verify.__name__ == "verify" and not hasattr(services.verify, "__wrapped__")
    assert manager._validate_block is ledger.validate_block


def _backend_verify_calls(profile: cProfile.Profile) -> int:
    return sum(row[1] for (_, _, name), row in pstats.Stats(profile).stats.items()
               if name.startswith("<method 'verify'") and "Ed25519PublicKey" in name)


def test_verify_count_matches_cprofile_and_trace_is_unchanged():
    profile = cProfile.Profile()
    profile.enable()
    try:
        profiled = run.run_once("rollout_mix", 23)
    finally:
        profile.disable()
    metrics, (plain, traced), problems = run.trace_run("rollout_mix", 23)
    assert problems == []
    # services verifies cloud proofs through its own ``verify`` binding
    assert metrics["services.handle.calls"][0] > 0
    assert metrics["crypto.verify.calls"][0] == _backend_verify_calls(profile)
    assert traced["identity"]["trace_sha256"] == plain["identity"]["trace_sha256"]
    assert profiled["identity"] == plain["identity"]
