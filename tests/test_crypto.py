"""Primitive-level checks: signing, digests, certificates, canonical bytes,
rotation, and the verifier helper."""
import hashlib
import os
import pickle
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest
from cryptography.hazmat.primitives.asymmetric.ed25519 import Ed25519PrivateKey
from hypothesis import given, settings, strategies as st

import overchain
from overchain import crypto
from overchain.crypto import (
    DIGEST_SIZE,
    PUBLIC_KEY_SIZE,
    SIGNATURE_SIZE,
    ZERO_DIGEST,
    Certificate,
    Digest,
    KeyPair,
    KeyRing,
    PublicKey,
    Signature,
    canonical_join,
    digest,
    generate_keypair,
    issue_certificate,
    verified,
    verify,
    verify_certificate,
)


# ---------------------------------------------------------------------------
# canonical serialization
# ---------------------------------------------------------------------------

def test_canonical_join_layout():
    # u32 big-endian length prefix per field, fields in order
    assert canonical_join(b"ab", b"c") == b"\x00\x00\x00\x02ab\x00\x00\x00\x01c"
    assert canonical_join() == b""
    assert canonical_join(b"") == b"\x00\x00\x00\x00"


def test_canonical_join_is_injective_on_field_boundaries():
    # the classic ambiguity ("ab","c") vs ("a","bc") must not collide
    assert canonical_join(b"ab", b"c") != canonical_join(b"a", b"bc")
    assert canonical_join(b"ab") != canonical_join(b"a", b"b")


@given(st.lists(st.binary(max_size=40), max_size=6),
       st.lists(st.binary(max_size=40), max_size=6))
@settings(max_examples=300, deadline=None)
def test_canonical_join_injective_property(a, b):
    if a != b:
        assert canonical_join(*a) != canonical_join(*b)


# ---------------------------------------------------------------------------
# digests
# ---------------------------------------------------------------------------

def test_digest_is_sha256():
    assert digest(b"hello") == hashlib.sha256(b"hello").digest()
    assert len(digest(b"")) == DIGEST_SIZE


def test_zero_digest_and_hex_round_trip():
    assert ZERO_DIGEST == bytes(32)
    d = digest(b"x")
    assert Digest.fromhex(d.hex()) == d


def test_digest_rejects_wrong_length():
    with pytest.raises(ValueError):
        Digest(b"short")


# ---------------------------------------------------------------------------
# fixed-size value types
# ---------------------------------------------------------------------------

VALUE_TYPES = [(Digest, DIGEST_SIZE), (PublicKey, PUBLIC_KEY_SIZE),
               (Signature, SIGNATURE_SIZE)]


@pytest.mark.parametrize("cls, size", VALUE_TYPES)
def test_value_type_rejects_wrong_length(cls, size):
    for n in (0, size - 1, size + 1):
        with pytest.raises(ValueError, match=f"{cls.__name__} must be {size} bytes"):
            cls(bytes(n))
        with pytest.raises(ValueError, match=f"{cls.__name__} must be {size} bytes"):
            cls.fromhex("ab" * n)
    value = cls.fromhex("ab" * size)
    assert type(value) is cls and value == b"\xab" * size


@pytest.mark.parametrize("cls, size", VALUE_TYPES)
def test_value_type_equals_and_hashes_as_its_bytes(cls, size):
    raw = bytes(range(size))
    value = cls(raw)
    assert value == raw and hash(value) == hash(raw)
    assert value != cls(bytes(size)) and value != raw[:-1]
    assert {raw: "x"}[value] == "x" and {value: "y"}[raw] == "y"
    assert value.hex() == raw.hex()


@pytest.mark.parametrize("cls, size", VALUE_TYPES)
def test_value_type_repr_is_short(cls, size):
    assert repr(cls(bytes(range(size)))) == f"{cls.__name__}(000102030405…)"


@pytest.mark.parametrize("cls, size", VALUE_TYPES)
def test_value_type_data_is_plain_bytes(cls, size):
    raw = bytes(range(size))
    assert type(cls(raw).data) is bytes and cls(raw).data == raw


def test_public_key_pickles_after_it_has_verified():
    kp = generate_keypair("pickled-key")
    assert verify(b"message", kp.sign(b"message"), kp.public)  # caches the backend key
    copy = pickle.loads(pickle.dumps(kp.public))
    assert type(copy) is PublicKey and copy == kp.public and vars(copy) == {}


# ---------------------------------------------------------------------------
# key pairs and signatures
# ---------------------------------------------------------------------------

def test_keypair_deterministic_from_seed():
    a = generate_keypair("node-1")
    b = generate_keypair("node-1")
    c = generate_keypair("node-2")
    assert a.public == b.public and a.secret == b.secret
    assert a.public != c.public


def test_derived_key_pair_keeps_its_backend_key_and_signs_as_the_secret_does():
    ring = KeyRing("kept-backend")
    for kp in (generate_keypair("kept-backend"), ring.current, ring.rotate()):
        backend = vars(kp)["_backend"]  # set at derivation, before any sign
        assert backend.public_key().public_bytes_raw() == kp.public
        from_secret = Ed25519PrivateKey.from_private_bytes(kp.secret)
        for message in (b"", b"kept"):
            assert kp.sign(message) == from_secret.sign(message)
        copy = pickle.loads(pickle.dumps(kp))  # the backend key object stays behind
        assert copy == kp and "_backend" not in vars(copy)
        assert copy.sign(b"kept") == kp.sign(b"kept")


def test_seed_types():
    assert generate_keypair(7).public == generate_keypair(7).public
    assert generate_keypair(b"raw").public == generate_keypair(b"raw").public
    assert generate_keypair(7).public != generate_keypair("7-different").public


def test_sign_verify_round_trip_and_tamper():
    kp = generate_keypair("signer")
    msg = b"attest this"
    s = kp.sign(msg)
    assert verify(msg, s, kp.public)
    assert not verify(msg + b"!", s, kp.public)
    assert not verify(msg, s, generate_keypair("other").public)
    flipped = Signature(bytes([s[0] ^ 1]) + s[1:])
    assert not verify(msg, flipped, kp.public)
    assert verify(msg, kp.sign(bytearray(msg)), kp.public)  # any bytes-like message


@given(st.binary(max_size=256), st.integers(min_value=0, max_value=2**32))
@settings(max_examples=1000, deadline=None)
def test_sign_verify_round_trip_property(message, seed):
    kp = generate_keypair(seed)
    assert verify(message, kp.sign(message), kp.public)


@given(st.binary(min_size=1, max_size=128), st.integers(min_value=0, max_value=999),
       st.data())
@settings(max_examples=300, deadline=None)
def test_bit_flip_breaks_signature_property(message, seed, data):
    kp = generate_keypair(seed)
    sig = kp.sign(message)
    pos = data.draw(st.integers(min_value=0, max_value=len(message) - 1))
    bit = data.draw(st.integers(min_value=0, max_value=7))
    mutated = bytearray(message)
    mutated[pos] ^= 1 << bit
    assert not verify(bytes(mutated), sig, kp.public)


# ---------------------------------------------------------------------------
# verifier helper
# ---------------------------------------------------------------------------

needs_fork = pytest.mark.skipif(not hasattr(os, "fork"), reason="the helper is forked")


def run_cli(*args, timeout=120):
    src = str(Path(overchain.__file__).resolve().parents[1])
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, *args], env=env, capture_output=True,
                          text=True, timeout=timeout)


@needs_fork
def test_helper_answers_each_triple_with_the_verdict_of_verify():
    kp, other = generate_keypair("helper"), generate_keypair("helper-other")
    big = bytes(range(256)) * 1024  # 256 KiB: one frame spans several pipe reads
    good, big_sig = kp.sign(b"good"), kp.sign(big)
    triples = [
        (b"good", good, kp.public),
        (b"bad", good, kp.public),  # signature of another message
        (b"good", Signature(bytes([good[0] ^ 1]) + good[1:]), kp.public),
        (b"good", good, other.public),
        (b"good", good, PublicKey(b"\xff" * PUBLIC_KEY_SIZE)),  # not a curve point
        (big, big_sig, kp.public),
        (big[:-1] + b"!", big_sig, kp.public),
        (b"", kp.sign(b""), kp.public),
    ]
    helper = crypto._Helper()
    try:
        indices = [helper.submit(*triple) for triple in triples]
        assert indices == list(range(len(triples)))
        assert [helper.answer(i) for i in indices] == [verify(*t) for t in triples] \
            == [True, False, False, False, False, True, False, True]
    finally:
        helper.close()
        os.waitpid(helper.pid, 0)


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="F_SETPIPE_SZ is Linux's")
def test_unread_verdicts_never_block_submit_on_a_one_page_pipe():
    import fcntl
    import select
    kp = generate_keypair("one-page")
    good = kp.sign(b"good")
    triples = [(b"good", good, kp.public), (b"bad", good, kp.public)]
    expected = [verify(*t) for t in triples]
    count = 2 * select.PIPE_BUF + 3  # without reads, the helper would stop after PIPE_BUF

    def hang(signum, frame):
        raise TimeoutError("submit and the helper blocked each other")

    helper = crypto._Helper()
    previous = signal.signal(signal.SIGALRM, hang)
    signal.alarm(60)
    try:
        fcntl.fcntl(helper._verdicts, fcntl.F_SETPIPE_SZ, os.sysconf("SC_PAGE_SIZE"))
        indices = [helper.submit(*triples[i % 2]) for i in range(count)]
        assert [helper.answer(i) for i in indices] == [expected[i % 2] for i in range(count)]
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
        helper.close()  # the helper then exits, whether it was reading or writing
        os.waitpid(helper.pid, 0)


def test_sign_never_sets_a_verdict_by_itself():
    kp = generate_keypair("pending")
    stored = kp.sign(b"message")._verdicts.get((b"message", kp.public))
    if crypto._helper is None:  # no helper here: ``verified`` verifies in-process
        assert stored is None
    else:
        helper, index = stored
        assert helper is crypto._helper and helper.answer(index) is True


def test_signature_pickles_as_its_bytes_and_verifies_afresh_on_load():
    kp = generate_keypair("pickled")
    pending, resolved = kp.sign(b"message"), kp.sign(b"resolved")
    assert verified(b"resolved", resolved, kp.public)
    assert not verified(b"other", resolved, kp.public)
    for sig, message in ((pending, b"message"), (resolved, b"resolved")):
        copy = pickle.loads(pickle.dumps(sig))
        assert type(copy) is Signature and copy == sig
        assert copy._verdicts == {}  # neither a pending nor a settled verdict travels
        assert verified(message, copy, kp.public)
        assert not verified(b"other", copy, kp.public)
        assert copy._verdicts == {(message, kp.public): True, (b"other", kp.public): False}


@needs_fork
def test_killed_helper_raises_instead_of_hanging(monkeypatch):
    helper = crypto._Helper()
    monkeypatch.setattr(crypto, "_helper", helper)
    kp = generate_keypair("killed")
    before = kp.sign(b"before")
    assert verified(b"before", before, kp.public)
    os.kill(helper.pid, signal.SIGKILL)
    with pytest.raises(RuntimeError, match=rf"process {helper.pid} exited with status -9"):
        verified(b"after", kp.sign(b"after"), kp.public)
    with pytest.raises(RuntimeError, match="status -9"):
        kp.sign(b"later")
    helper.close()


@needs_fork
def test_verdict_pending_at_a_fork_is_verified_in_the_child(monkeypatch):
    helper = crypto._Helper()
    monkeypatch.setattr(crypto, "_helper", helper)
    os.kill(helper.pid, signal.SIGSTOP)  # the verdict cannot arrive before the fork
    try:
        kp = generate_keypair("inherited")
        good = kp.sign(b"good")
        pid = os.fork()
        if pid == 0:
            status = 1
            try:
                if (crypto._helper is None
                        and verified(b"good", good, kp.public)
                        and not verified(b"bad", good, kp.public)):
                    status = 0
            finally:
                os._exit(status)
        deadline = time.monotonic() + 60
        while (done := os.waitpid(pid, os.WNOHANG))[0] == 0 and time.monotonic() < deadline:
            time.sleep(0.01)
        if done[0] == 0:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        assert done[0] == pid and os.waitstatus_to_exitcode(done[1]) == 0
    finally:
        os.kill(helper.pid, signal.SIGCONT)
    assert verified(b"good", good, kp.public)  # the parent's helper still answers
    helper.close()
    os.waitpid(helper.pid, 0)


def test_parallel_jobs_forked_from_a_process_with_a_helper_match_serial():
    # The parent signs first, so its helper runs when the pool forks workers.
    scenarios = '"wrsu_happy_path", "wrsu_tampered", "--format", "json"'
    outputs = []
    for jobs in ("2", "1"):
        proc = run_cli("-c", "import sys; "
                       "from overchain.crypto import generate_keypair; "
                       "generate_keypair('parent').sign(b'start the helper'); "
                       "from overchain.cli import main; "
                       f"sys.exit(main(['run', {scenarios}, '--jobs', '{jobs}']))")
        assert proc.returncode == 0, proc.stderr
        outputs.append(proc.stdout)
    assert outputs[0] == outputs[1] and '"wrsu_tampered"' in outputs[0]


def test_run_raises_no_fork_deprecation_warning():
    # Python 3.12+ warns when a process with threads forks.
    proc = run_cli("-W", "error::DeprecationWarning", "-m", "overchain.cli",
                   "run", "wrsu_happy_path")
    assert proc.returncode == 0, proc.stderr


# ---------------------------------------------------------------------------
# certificates
# ---------------------------------------------------------------------------

def test_certificate_issue_and_verify():
    ca = generate_keypair("ca")
    subject = generate_keypair("oem")
    cert = issue_certificate(ca, "oem-1", subject.public)
    assert verify_certificate(cert, ca.public)
    assert not verify_certificate(cert, generate_keypair("rogue-ca").public)


def test_certificate_reads_its_signature_verdict(counted_verify):
    ca, subject = generate_keypair("ca"), generate_keypair("counted")
    cert = issue_certificate(ca, "counted-1", subject.public)
    assert verify_certificate(cert, ca.public) and verify_certificate(cert, ca.public)
    assert counted_verify == [cert.ca_signature]  # one backend verify, wherever it ran


def test_certificate_single_bit_tamper_fails():
    ca = generate_keypair("ca")
    subject = generate_keypair("svc")
    cert = issue_certificate(ca, "svc-7", subject.public)

    # tampered identity
    bad_ident = Certificate("svc-8", cert.subject_pk, cert.ca_signature)
    assert not verify_certificate(bad_ident, ca.public)

    # flip one bit in the subject key
    pk = bytearray(cert.subject_pk)
    pk[5] ^= 0x10
    bad_pk = Certificate(cert.subject_identity, PublicKey(bytes(pk)), cert.ca_signature)
    assert not verify_certificate(bad_pk, ca.public)

    # flip one bit in the signature
    sig = bytearray(cert.ca_signature)
    sig[0] ^= 0x01
    bad_sig = Certificate(cert.subject_identity, cert.subject_pk, Signature(bytes(sig)))
    assert not verify_certificate(bad_sig, ca.public)


# ---------------------------------------------------------------------------
# key rotation
# ---------------------------------------------------------------------------

def test_rotation_no_duplicate_public_keys():
    ring = KeyRing("veh-1", rotate_per_interaction=True)
    seen = [ring.interaction_key().public for _ in range(50)]
    assert len(set(seen)) == 50, "per-interaction keys must all be fresh"
    # history retains every retired key
    assert set(ring.all_public_keys()) == set(seen)


def test_rotation_disabled_reuses_current():
    ring = KeyRing("veh-2", rotate_per_interaction=False)
    keys = {ring.interaction_key().public for _ in range(10)}
    assert len(keys) == 1
    assert ring.history == []


def test_explicit_rotate_retires_key():
    ring = KeyRing("veh-3")
    first = ring.current
    second = ring.rotate()
    assert first.public != second.public
    assert ring.history == [first]
    assert ring.current is second


def test_keyring_derives_each_key_on_first_use(monkeypatch):
    derived = []
    real = crypto.generate_keypair
    monkeypatch.setattr(crypto, "generate_keypair",
                        lambda seed: derived.append(seed) or real(seed))
    # the public keys KeyRing("veh-9") gave when it derived key 0 in __init__
    keys = [PublicKey(bytes.fromhex(h)) for h in (
        "a871eca1af832c7b4d95bf0b8445ae21a5612ecc9be952745c6ab6c1fd93b463",
        "02b207b70a78970ce4c65d3e88e77f265717207b038bafaefec303cc7ded1b98",
        "400ac9a03c3ad6c78e146ea23140e2f8db68ae1ceb76596b3f17cba9e071f37f")]

    ring = KeyRing("veh-9")
    assert derived == []
    assert ring.current.public == keys[0] and ring.current is ring.current
    assert len(derived) == 1
    assert ring.rotate().public == keys[1]
    assert ring.all_public_keys() == keys[:2] and len(derived) == 2

    rotating = KeyRing("veh-9", rotate_per_interaction=True)
    assert derived[2:] == []
    assert [rotating.interaction_key().public for _ in range(3)] == keys
    assert rotating.all_public_keys() == keys and len(derived) == 5

    unread = KeyRing("veh-9")  # a rotation first retires key 0, as it always did
    assert unread.rotate().public == keys[1]
    assert unread.all_public_keys() == keys[:2] and len(derived) == 7


def test_keyring_deterministic():
    a, b = KeyRing("same-seed"), KeyRing("same-seed")
    a.rotate(), b.rotate()
    assert a.current.public == b.current.public
