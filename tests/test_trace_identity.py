"""Golden trace and report hashes: every bundled scenario at its own seed must
produce exactly these trace bytes and this ``render_json`` report. A change
that alters either on purpose updates the hash here, and says why; a speed-up
or refactor must leave all of them.
"""
import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import overchain
from overchain.cli import bundled_scenarios
from overchain.report import render_json

GOLDEN_TRACE_SHA256 = {
    "ddos_flood": "ad7419dc19bad72b5c32e286682a89134703abd8dbd9b9befded861dc58b9872",
    "full_demo": "17c3b8087b39bcb592867753d93124d053d922dcd7a940bb0b50b251ae302415",
    "handover": "4cdc94c12834d423b9c5c0ce0a03e932d5b43e73ba42c26e748ecdf57a344b31",
    "handover_flapping": "e99c38ad3388ed8526b510c4050f5c39beb95ff29d3836fa17654d93e588a67e",
    "handover_sparse": "6b81cabc17f54db1b5e1bdd22d6465b7955506b922493cd8e5c67c4b9c4bac41",
    "insurance": "8a2318d25a62613d2fff686977d0c03b8f19fd5ddfd0b8c32b8b7877f802a43a",
    "throughput_load_step": "13b04174bbd40b5c8df0b020472e9aea1f18c44d4df5ec97c915699e51aef910",
    "trust_trend": "f446bc16101c563cd20811ad6ac8f61e2927da124f23a79dda78cda695db4046",
    "wrsu_happy_path": "5a04fc24c86ccce05b0706cbf9bc2085744d9e18897c70082e2cb0cfe23e52bb",
    "wrsu_impersonation": "a81330bc3b0af54898088f42a4c71095a5729114a20d7500fe5ee405187c8b79",
    "wrsu_tampered": "643efa25199a38dfb0cc9b8ea03be47e4531bfd715695437f63ac003ca38befe",
}

GOLDEN_REPORT_SHA256 = {
    "ddos_flood": "66c39c91833f287d5726b1cbda95bf6a8c8f55aea8541f302241f1c7e40c8800",
    "full_demo": "502a3bfd168acfe6fee92d88dd08ba25fcd92e32514093ef5fbc2def7979da80",
    "handover": "1a20740d3ae9509d0341db5eed073315a2d9ad1831de9413cf45ab9621a60f21",
    "handover_flapping": "59265aeca8d1aa388fd8b55b647c4976e2ad5a46066e9b8fe3d331b3f48327dd",
    "handover_sparse": "5881e1cc0359dc0f748eb4a435f91459ef41badfb1d4bea93652bec19ada4646",
    "insurance": "e0953b1bbe9f81b2c6f3602dfddc3e589112775db0d082935374612bebdce752",
    "throughput_load_step": "d82067f8ac672d7acb98774a3d8c992bebbf5122f761d5e0091184670ac23c88",
    "trust_trend": "dc6f7ed31c4d1a6e6c94002eeea90c24bb32af5b8f6db758e8636bcef3665180",
    "wrsu_happy_path": "329eed55ae1feb4e96810bb53573d05c7a51d26d4ca9e140b819d847b842c17d",
    "wrsu_impersonation": "ee58ba73dbc21a82b9d0b5e11cf7a3616ac3087c06b107ebf863f3e0c2df1b35",
    "wrsu_tampered": "1db2e65ffdb6705d63394596c65128bdafcf6c24500381e5ca79d55c250d6cf2",
}


def test_every_bundled_scenario_has_a_golden_hash():
    assert sorted(GOLDEN_TRACE_SHA256) == sorted(bundled_scenarios())
    assert sorted(GOLDEN_REPORT_SHA256) == sorted(bundled_scenarios())


@pytest.mark.parametrize("name", sorted(GOLDEN_TRACE_SHA256))
def test_trace_is_byte_identical(bundled, name):
    trace = bundled(name).trace_text.encode()
    assert hashlib.sha256(trace).hexdigest() == GOLDEN_TRACE_SHA256[name]


@pytest.mark.parametrize("name", sorted(GOLDEN_REPORT_SHA256))
def test_report_is_byte_identical(bundled, name):
    report = render_json(bundled(name).report).encode()
    assert hashlib.sha256(report).hexdigest() == GOLDEN_REPORT_SHA256[name]


@pytest.mark.parametrize("hash_seed", ["0", "424242"])
def test_cli_trace_is_independent_of_python_hash_seed(tmp_path, hash_seed):
    names = ["insurance", "wrsu_happy_path"]
    src = str(Path(overchain.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONHASHSEED=hash_seed,
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    subprocess.run([sys.executable, "-m", "overchain.cli", "run", *names,
                    "--trace", str(tmp_path)],
                   env=env, check=True, capture_output=True)
    for name in names:
        trace = (tmp_path / f"{name}.trace.jsonl").read_bytes()
        assert hashlib.sha256(trace).hexdigest() == GOLDEN_TRACE_SHA256[name], name
