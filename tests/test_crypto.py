"""Primitive-level checks: signing, digests, certificates, canonical bytes,
rotation, and the verifier helper."""
import contextlib
import copy
import functools
import hashlib
import itertools
import os
import pickle
import select
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
    with pytest.raises(TypeError, match=r"^unsupported seed type: <class 'float'>$"):
        generate_keypair(7.0)


def test_keypair_repr_shows_the_public_key_and_never_the_secret():
    kp = generate_keypair("repr")
    assert repr(kp) == f"KeyPair(public={kp.public!r})"
    assert kp.secret.hex()[:12] not in repr(kp)


def test_cached_read_on_the_class_is_the_descriptor():
    descriptor = vars(crypto.KeyPair)["_backend"]
    assert isinstance(descriptor, crypto.cached)
    assert crypto.KeyPair._backend is descriptor


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


@contextlib.contextmanager
def fails_after(seconds):
    """Raise ``TimeoutError`` in the block once it has run ``seconds``."""
    def hang(signum, frame):
        raise TimeoutError(f"still waiting after {seconds} s")

    previous = signal.signal(signal.SIGALRM, hang)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


@contextlib.contextmanager
def stopped_helper(monkeypatch):
    """A new helper for this process, stopped for the block: it begins no
    triple before the block ends."""
    helper = crypto._start_helper()
    monkeypatch.setattr(crypto, "_helper", helper)
    os.kill(helper.pid, signal.SIGSTOP)
    os.waitid(os.P_PID, helper.pid, os.WSTOPPED | os.WNOWAIT)  # stopped, not stopping
    try:
        yield helper
    finally:
        os.kill(helper.pid, signal.SIGCONT)


def settled(helper, index: int, triple) -> bool:
    """The verdict ``helper`` settles onto the signature of its ``index``-th
    triple, ``triple``."""
    message, signature, public_key = triple
    helper.settle(index)
    return signature._verdicts[(message, public_key)]


def in_child(check) -> bool:
    """Whether ``check()`` is true in a forked child given 60 s to run it."""
    pid = os.fork()
    if pid == 0:
        status = 1
        try:
            status = 0 if check() else 1
        finally:
            os._exit(status)
    deadline = time.monotonic() + 60
    while (done := os.waitpid(pid, os.WNOHANG))[0] == 0 and time.monotonic() < deadline:
        time.sleep(0.01)
    if done[0] == 0:
        os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)
    return done[0] == pid and os.waitstatus_to_exitcode(done[1]) == 0


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
    helper = crypto._start_helper()
    try:
        indices = [helper.submit(*triple) for triple in triples]
        assert indices == list(range(len(triples)))
        assert [settled(helper, i, t) for i, t in zip(indices, triples)] \
            == [verify(*t) for t in triples] \
            == [True, False, False, False, False, True, False, True]
    finally:
        helper.close()
        os.waitpid(helper.pid, 0)


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="F_SETPIPE_SZ is Linux's")
def test_unread_verdicts_never_block_submit_on_a_one_page_pipe():
    import fcntl
    kp = generate_keypair("one-page")
    good = kp.sign(b"good")
    triples = [(b"good", good, kp.public), (b"bad", good, kp.public)]
    expected = [verify(*t) for t in triples]
    count = 2 * select.PIPE_BUF + 3  # without reads, the helper would stop after PIPE_BUF
    helper = crypto._start_helper()
    try:
        with fails_after(60):  # else submit and the helper blocked each other
            fcntl.fcntl(helper._verdicts, fcntl.F_SETPIPE_SZ, os.sysconf("SC_PAGE_SIZE"))
            sent = []
            for i in range(count):
                message, signature, public_key = triples[i % 2]
                sent.append((message, Signature(signature), public_key))  # a record each
                assert helper.submit(*sent[i]) == i
                if i % 16 == 15:  # an early need: this process takes it or newer triples
                    assert settled(helper, i - 8, sent[i - 8]) == expected[(i - 8) % 2]
            assert [settled(helper, i, t) for i, t in enumerate(sent)] \
                == [expected[i % 2] for i in range(count)]
    finally:
        helper.close()  # the helper then exits, whether it was reading or writing
        os.waitpid(helper.pid, 0)


@needs_fork
def test_helper_holds_nothing_once_its_signatures_are_settled(monkeypatch):
    helper = crypto._start_helper()
    monkeypatch.setattr(crypto, "_helper", helper)
    kp = generate_keypair("bounded")
    count = 3 * select.PIPE_BUF  # each slot of the board used three times
    try:
        with fails_after(60):
            messages = [i.to_bytes(2, "big") for i in range(count)]
            signatures = [kp.sign(message) for message in messages]
            assert all(verified(m, s, kp.public) for m, s in zip(messages, signatures))
        assert helper._sent == count
        held = {name: value for name, value in vars(helper).items()
                if isinstance(value, (bytes, bytearray, dict, list, set)) and value}
        assert held == {}  # no record outlives the settling of its signature
    finally:
        helper.close()
        os.waitpid(helper.pid, 0)


def test_sign_never_sets_a_verdict_by_itself():
    kp = generate_keypair("pending")
    signature = kp.sign(b"message")
    stored = signature._verdicts.get((b"message", kp.public))
    if crypto._helper is None:  # no helper here: ``verified`` verifies in-process
        assert stored is None
    else:
        helper, index = stored
        assert helper is crypto._helper
        assert settled(helper, index, (b"message", signature, kp.public)) is True


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
    helper = crypto._start_helper()
    monkeypatch.setattr(crypto, "_helper", helper)
    kp = generate_keypair("killed")
    before = kp.sign(b"before")
    assert verified(b"before", before, kp.public)
    os.kill(helper.pid, signal.SIGKILL)
    # Wait for the exit, so the next frame meets a closed pipe rather than a
    # helper that has not begun it; WNOWAIT leaves the status for the error.
    os.waitid(os.P_PID, helper.pid, os.WEXITED | os.WNOWAIT)
    with pytest.raises(RuntimeError, match=rf"process {helper.pid} exited with status -9"):
        verified(b"after", kp.sign(b"after"), kp.public)
    with pytest.raises(RuntimeError, match="status -9"):
        kp.sign(b"later")
    helper.close()


@needs_fork
def test_helper_exits_quietly_when_its_parent_closes_the_answer_pipe(capfd):
    kp = generate_keypair("closed")
    signature = kp.sign(b"0")  # before the fork, so no other child holds the new pipes
    helper = crypto._start_helper()
    os.kill(helper.pid, signal.SIGSTOP)
    os.waitid(os.P_PID, helper.pid, os.WSTOPPED | os.WNOWAIT)
    for i in range(50):  # queued while stopped: its first answer meets a closed pipe
        helper.submit(str(i).encode(), signature, kp.public)
    helper.close()
    os.kill(helper.pid, signal.SIGCONT)
    with fails_after(60):
        _, status = os.waitpid(helper.pid, 0)
    assert os.waitstatus_to_exitcode(status) == 0
    assert capfd.readouterr().err == ""


@needs_fork
def test_verdict_pending_at_a_fork_is_verified_in_the_child(monkeypatch):
    kp = generate_keypair("inherited")
    with stopped_helper(monkeypatch) as helper:  # the verdict cannot arrive before the fork
        good = kp.sign(b"good")
        assert in_child(lambda: crypto._helper is None
                        and verified(b"good", good, kp.public)
                        and not verified(b"bad", good, kp.public))
        assert helper._board[:] == bytes(len(helper._board))  # the child flagged nothing
    assert verified(b"good", good, kp.public)  # the parent's pending verdict still settles
    helper.close()
    os.waitpid(helper.pid, 0)


@needs_fork
def test_forked_helper_never_writes_the_board(monkeypatch):
    kp = generate_keypair("one-writer")
    good = kp.sign(b"good")
    triples = [(b"good" if i % 3 else b"bad", Signature(good), kp.public) for i in range(20)]
    with fails_after(60):  # else settle waited on the stopped helper
        with stopped_helper(monkeypatch) as helper:  # fewer frames than a pipe holds
            for triple in triples:
                helper.submit(*triple)
            assert settled(helper, 12, triples[12]) is verify(*triples[12])
            taken = set(range(len(triples))) - set(helper._queued)  # 12 and every newer one
        while helper._read < helper._sent:  # the resumed helper answers every frame
            helper.receive()
    assert [settled(helper, i, t) for i, t in enumerate(triples)] \
        == [verify(*t) for t in triples]
    assert helper._board[:] == bytes(i in taken for i in range(len(helper._board)))
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


def test_frame_ends_only_once_the_whole_frame_is_in_the_buffer():
    kp, message = generate_keypair("frame"), b"framed"
    frame = crypto._U32.pack(len(message)) + message + kp.sign(message) + kp.public
    buf = b"prefix" + frame
    assert len(frame) == 4 + len(message) + SIGNATURE_SIZE + PUBLIC_KEY_SIZE
    assert crypto._frame(buf, 6) == len(buf)
    assert crypto._frame(buf + b"next", 6) == len(buf)  # a following frame's bytes
    for cut in (0, 3):  # the length header is cut short
        assert crypto._frame(buf[:6 + cut], 6) is None
    for cut in (4, len(frame) - 1):  # the body is cut short
        assert crypto._frame(buf[:6 + cut], 6) is None


# -- the helper's protocol in one process ------------------------------------


class Blocked(Exception):
    """The parent side would wait for an answer the helper has yet to write."""


class Sig(Signature):
    """A signature whose verdicts go with a deep copy of a ``Model``."""

    def __deepcopy__(self, memo):
        twin = Sig(self)
        twin.__dict__.update(copy.deepcopy(vars(self), memo))
        return twin


class Model:
    """Both sides of one verifier helper in this process, each step run when
    the caller says. The parent side is a real ``crypto._Helper`` over a
    ``bytearray`` board of ``slots`` take flags, with this model as both of its
    byte channels; the helper side runs ``crypto._frame`` and ``_answer`` on the
    frames the parent wrote. The answer channel holds ``slots`` bytes, as a
    pipe holds ``PIPE_BUF``.

    ``moves`` names each step either side can take next. The parent submits
    its triples in order and settles each submitted one, in any order, one at
    a time. Each round of ``settle`` is split into its poll of the answer
    channel and the ``_step`` it makes with that result, so the helper can act
    in between. The helper checks a frame's flag, then writes its answer. The
    steps check what the protocol promises:
    - the helper answers "taken" exactly for the triples taken before it
      checks their flag, with one byte per frame, and never waits to write it;
    - a triple leaves ``_queued`` with ``verify``'s verdict on its signature;
    - the parent reads only while an answer is due or ready, and ``settle``
      never waits."""

    def __init__(self, triples, slots: int):
        self.triples = [(message, Sig(signature), key) for message, signature, key in triples]
        self.expected = [verify(*triple) for triple in triples]
        self.board = bytearray(slots)
        self.parent = crypto._Helper(self.board, self, self, 0)
        self.frames, self.sent = b"", 0  # the triple channel: all it was sent
        self.answers, self.written = b"", 0  # the answer channel: bytes not yet read
        self.index, self.offset, self.reply = 0, 0, None  # the helper side: its frame, its answer
        # the parent side: the triple it settles, what its poll saw, those settled
        self.settling, self.polled, self.settled = None, None, frozenset()
        self.races = 0  # takes of a triple whose flag the helper had checked

    # the parent side's byte channels
    def write(self, frame) -> int:
        self.frames += bytes(frame)
        self.sent += 1
        return len(frame)

    def read(self, size: int) -> bytes:
        if not self.answers:
            assert self.settling is None, "settle would wait for an answer"
            assert self.written < self.sent, "a read with no answer due would wait forever"
            raise Blocked
        data, self.answers = self.answers[:size], self.answers[size:]
        return data

    def ready(self) -> bool:
        return bool(self.answers)

    def state(self) -> tuple:
        parent = self.parent
        verdicts = tuple(vars(signature).get("_verdicts", {}).get((message, key))
                         for message, signature, key in self.triples)
        return (parent._sent, parent._read, tuple(parent._queued), verdicts,
                bytes(self.board), self.sent, self.answers, self.index, self.reply,
                self.settling, self.polled, self.settled)

    def moves(self) -> dict:
        moves = {}
        if self.settling is None:
            if self.parent._sent < len(self.triples):
                moves["submit"] = lambda: self.parent.submit(*self.triples[self.parent._sent])
            for index in set(range(self.parent._sent)) - self.settled:
                moves[f"settle {index}"] = functools.partial(self.settle, index)
        elif self.polled is None:
            moves["poll"] = self.poll
        else:
            moves["step"] = self.step
        if self.index < self.sent:
            if self.reply is None:
                moves["answer"] = self.answer
            else:
                moves["write"] = self.write_answer
        return moves

    # the parent side's steps
    def settle(self, index: int) -> None:
        self.settling = index
        self.check_settled()

    def poll(self) -> None:
        self.polled = self.ready()

    def step(self) -> None:
        read, queued = self.parent._read, set(self.parent._queued)
        self.parent._step(self.polled)
        if self.parent._read == read:  # a take
            (taken,) = queued - set(self.parent._queued)
            # the helper has checked the flags of the frames before ``index``,
            # and that of ``index`` once it has a reply
            self.races += taken < self.index + (self.reply is not None)
        self.polled = None
        self.check_settled()

    def check_settled(self) -> None:
        index = self.settling
        if index not in self.parent._queued:
            message, signature, key = self.triples[index]
            assert signature._verdicts[(message, key)] is self.expected[index], \
                f"triple {index} settled with a verdict other than verify's"
            self.settling, self.settled = None, self.settled | {index}

    # the helper side's steps
    def answer(self) -> None:
        end = crypto._frame(self.frames, self.offset)
        self.reply = crypto._answer(self.board, self.index, self.frames, self.offset, end)
        taken = self.index not in self.parent._queued
        assert (self.reply == crypto._TAKEN) is taken, \
            f"frame {self.index} answered {self.reply!r}, taken {taken}"

    def write_answer(self) -> None:
        assert len(self.reply) == 1, "one answer byte per frame"
        assert len(self.answers) < len(self.board), "the helper would wait to write an answer"
        self.answers += self.reply
        self.written += 1
        self.offset = crypto._frame(self.frames, self.offset)
        self.index, self.reply = self.index + 1, None

    def serve(self) -> None:
        """Answer every frame sent, in order, as the forked helper does."""
        while self.index < self.sent:
            self.answer()
            self.write_answer()


def explore(model: Model) -> tuple[int, int]:
    """Run every interleaving of ``model``'s steps, each state once; return
    the number of states and of races, steps where both sides verify one
    triple. Every run must end with each triple settled, one answer per frame
    and nothing queued."""
    keys = {id(key): key for _, _, key in model.triples}  # shared by every copy
    seen, todo, races = {model.state()}, [model], 0
    while todo:
        model = todo.pop()
        moved = False
        for name in model.moves():
            twin = copy.deepcopy(model, dict(keys))
            try:
                twin.moves()[name]()
            except Blocked:
                continue
            moved = True
            races += twin.races - model.races
            if (state := twin.state()) not in seen:
                seen.add(state)
                todo.append(twin)
        if not moved:
            parent = model.parent
            assert model.settled == set(range(len(model.triples))), "neither side can move"
            assert model.written == model.sent == parent._sent == len(model.triples)
            assert parent._queued == {} and parent._read + len(model.answers) == parent._sent
    return len(seen), races


def alternating(count: int) -> list:
    """``count`` triples, valid and not in turn, over one signature."""
    kp = generate_keypair("interleaved")
    good = kp.sign(b"good")
    return [(b"good" if i % 2 == 0 else b"bad", good, kp.public) for i in range(count)]


@pytest.mark.parametrize("count, slots", [(4, 2), (4, 3), (3, 4), (5, 2), (5, 3)])
def test_helper_protocol_holds_in_every_interleaving(count, slots):
    # Over 2 or 3 slots, submit reads answers early and later triples reuse
    # the flags of earlier ones; 3 triples over 4 slots need neither.
    states, races = explore(Model(alternating(count), slots))
    print(f"{count} triples over {slots} slots: {states} states, {races} races")
    assert races > 0  # both sides verify a triple in some interleaving


def test_settle_never_waits_on_a_helper_that_stalls_before_it_writes():
    for order in itertools.permutations(range(3)):
        model = Model(alternating(3), slots=4)
        for triple in model.triples:
            model.parent.submit(*triple)
        model.answer()  # frame 0's flag is checked, and its answer never written
        for index in order:  # a wait would raise ``Blocked``
            assert settled(model.parent, index, model.triples[index]) is model.expected[index]
        assert model.parent._queued == {}
        model.write_answer()
        model.serve()
        assert model.answers == bytes([model.expected[0]]) + crypto._TAKEN * 2


def test_verdicts_come_without_a_stopped_helper_which_then_answers_taken(monkeypatch):
    kp = generate_keypair("stopped")
    model = Model([], slots=4)  # its helper side takes no step until ``serve``
    monkeypatch.setattr(crypto, "_helper", model.parent)
    good = kp.sign(b"good")
    bad = Signature(bytes([good[0] ^ 1]) + good[1:])
    bad.__dict__["_verdicts"] = {  # pending, as ``sign`` leaves it
        (b"good", kp.public): crypto._submit(b"good", bad, kp.public)}
    assert verified(b"good", good, kp.public) is verify(b"good", good, kp.public) is True
    assert verified(b"good", bad, kp.public) is verify(b"good", bad, kp.public) is False
    model.serve()
    assert model.answers == crypto._TAKEN * 2


def test_interrupted_take_fails_the_helper(monkeypatch):
    def interrupted(message, signature, public_key):
        raise KeyboardInterrupt

    kp = generate_keypair("interrupted")
    model = Model([], slots=4)
    monkeypatch.setattr(crypto, "_helper", model.parent)
    signature = kp.sign(b"message")
    with monkeypatch.context() as patch, pytest.raises(KeyboardInterrupt):
        patch.setattr(crypto, "verify", interrupted)
        verified(b"message", signature, kp.public)  # taken, then cut short
    model.serve()  # "taken", for a triple with no verdict: nothing reads it
    assert model.answers == crypto._TAKEN
    with pytest.raises(RuntimeError, match="taken from the verifier queue was not verified"):
        verified(b"message", signature, kp.public)
    with pytest.raises(RuntimeError, match="was not verified"):
        kp.sign(b"later")


class InterruptingVerdicts(dict):
    """A signature's verdicts, where every store is cut short."""

    def __setitem__(self, key, value):
        raise KeyboardInterrupt


def test_interrupted_receive_fails_the_helper(monkeypatch):
    kp = generate_keypair("interrupted-receive")
    model = Model([], slots=4)
    monkeypatch.setattr(crypto, "_helper", model.parent)
    first, second = kp.sign(b"first"), kp.sign(b"second")
    model.serve()  # both answered, neither read
    first.__dict__["_verdicts"] = InterruptingVerdicts(first._verdicts)
    with pytest.raises(KeyboardInterrupt):
        verified(b"second", second, kp.public)  # reads both answers, cut short at the first
    assert 0 not in model.parent._queued  # its verdict is still the pending entry
    for signature, message in ((first, b"first"), (second, b"second")):
        with pytest.raises(RuntimeError, match="answer from the signature verifier process"):
            verified(message, signature, kp.public)
    with pytest.raises(RuntimeError, match="was not stored"):
        kp.sign(b"later")


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

def public_keys(ring):
    """Every public key ``ring`` has held, oldest first."""
    return [kp.public for kp in [*ring.history, ring.current]]


def test_rotation_no_duplicate_public_keys():
    ring = KeyRing("veh-1", rotate_per_interaction=True)
    seen = [ring.interaction_key().public for _ in range(50)]
    assert len(set(seen)) == 50, "per-interaction keys must all be fresh"
    # history retains every retired key
    assert set(public_keys(ring)) == set(seen)


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
    assert public_keys(ring) == keys[:2] and len(derived) == 2

    rotating = KeyRing("veh-9", rotate_per_interaction=True)
    assert derived[2:] == []
    assert [rotating.interaction_key().public for _ in range(3)] == keys
    assert public_keys(rotating) == keys and len(derived) == 5

    unread = KeyRing("veh-9")  # a rotation first retires key 0, as it always did
    assert unread.rotate().public == keys[1]
    assert public_keys(unread) == keys[:2] and len(derived) == 7


def test_keyring_deterministic():
    a, b = KeyRing("same-seed"), KeyRing("same-seed")
    a.rotate(), b.rotate()
    assert a.current.public == b.current.public
