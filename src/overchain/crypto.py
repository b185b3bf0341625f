"""Signature, digest, and certificate primitives shared by the ledger and actors.

Every signed or hashed structure in the package serializes through
``canonical_join`` (length-prefixed field concatenation), so byte layouts are
unambiguous and no two distinct field sequences collide.

Signatures are real Ed25519 (via the ``cryptography`` package) over raw
32-byte keys; digests are SHA-256. Key generation is deterministic given a
seed so whole simulation runs are reproducible.

``KeyPair.sign`` also hands each signature it makes to a verifier helper, a
child process that checks it on another core while this process goes on (see
"verifier helper" below).
"""
from __future__ import annotations

import gc
import hashlib
import os
import signal
import struct
import sys
import threading
from dataclasses import dataclass
from functools import cached_property
from typing import NoReturn, Optional

from cryptography.exceptions import InvalidSignature
from cryptography.hazmat.primitives.asymmetric.ed25519 import (
    Ed25519PrivateKey,
    Ed25519PublicKey,
)

DIGEST_SIZE = 32
PUBLIC_KEY_SIZE = 32
SIGNATURE_SIZE = 64


def canonical_join(*fields: bytes) -> bytes:
    """Concatenate fields, each prefixed by its u32 big-endian length."""
    out = bytearray()
    for field in fields:
        out += struct.pack(">I", len(field))
        out += field
    return bytes(out)


def _seed_bytes(seed: int | str | bytes) -> bytes:
    if isinstance(seed, bytes):
        return seed
    if isinstance(seed, str):
        return seed.encode()
    if isinstance(seed, int):
        return str(seed).encode()
    raise TypeError(f"unsupported seed type: {type(seed)!r}")


# ---------------------------------------------------------------------------
# value types
# ---------------------------------------------------------------------------

class _FixedBytes(bytes):
    """Raw bytes of one fixed length. Values compare and hash as their bytes;
    ``hex`` and ``fromhex`` are inherited, and ``fromhex`` checks the length too."""

    SIZE: int

    def __new__(cls, data: bytes):
        if len(data) != cls.SIZE:
            raise ValueError(f"{cls.__name__} must be {cls.SIZE} bytes, got {len(data)}")
        return super().__new__(cls, data)

    def __repr__(self) -> str:  # keep traces and test output readable
        return f"{type(self).__name__}({self.hex()[:12]}…)"

    # Plain-bytes view, kept only for perfbench/tracer.py; the package itself
    # passes these values wherever bytes are expected.
    data = property(bytes)


class Digest(_FixedBytes):
    """A SHA-256 output; also used as transaction/block identifier."""

    SIZE = DIGEST_SIZE


ZERO_DIGEST = Digest(b"\x00" * DIGEST_SIZE)


def digest(data: bytes) -> Digest:
    return Digest(hashlib.sha256(data).digest())


class PublicKey(_FixedBytes):
    """Raw Ed25519 public key bytes."""

    SIZE = PUBLIC_KEY_SIZE

    @cached_property
    def _backend(self) -> Ed25519PublicKey:
        return Ed25519PublicKey.from_public_bytes(self)


class Signature(_FixedBytes):
    """Raw Ed25519 signature bytes."""

    SIZE = SIGNATURE_SIZE

    @cached_property
    def _verdicts(self) -> dict[tuple[bytes, bytes], bool | _Pending]:
        """``verify`` results for this object, keyed by (message, public key
        bytes). ``KeyPair.sign`` stores a ``_Pending`` verdict here, which
        ``ledger._verify_once`` resolves."""
        return {}


@dataclass(frozen=True)
class KeyPair:
    """An Ed25519 key pair. ``secret`` is the raw 32-byte private seed."""

    public: PublicKey
    secret: bytes

    @cached_property
    def _backend(self) -> Ed25519PrivateKey:
        return Ed25519PrivateKey.from_private_bytes(self.secret)

    def sign(self, message: bytes) -> Signature:
        message = bytes(message)  # a key of the verdict dict; no copy when already bytes
        signature = Signature(self._backend.sign(message))
        pending = _submit(message, signature, self.public)
        if pending is not None:
            signature._verdicts[(message, self.public)] = pending
        return signature

    def __repr__(self) -> str:
        return f"KeyPair(public={self.public!r})"


def generate_keypair(seed: int | str | bytes) -> KeyPair:
    """Derive a key pair deterministically from an arbitrary seed."""
    secret = hashlib.sha256(canonical_join(b"keypair", _seed_bytes(seed))).digest()
    private = Ed25519PrivateKey.from_private_bytes(secret)
    public = PublicKey(private.public_key().public_bytes_raw())
    return KeyPair(public=public, secret=secret)


def verify(message: bytes, signature: Signature, public_key: PublicKey) -> bool:
    """True iff the signature is valid; never raises on bad input."""
    try:
        public_key._backend.verify(signature, message)
        return True
    except (InvalidSignature, ValueError):
        return False


# ---------------------------------------------------------------------------
# verifier helper
# ---------------------------------------------------------------------------
#
# The Ed25519 backend holds the interpreter lock while it verifies, so a thread
# cannot overlap verification with the simulation; a second process can. The
# first ``KeyPair.sign`` of a process forks one helper. Every signature that
# process makes goes to the helper with its exact message and key, and the
# helper runs ``verify`` on it. The signature keeps a ``_Pending`` verdict,
# which is read back only when a node first needs it. A verdict is never
# taken from the act of signing: every one comes from ``verify``.

_FRAME_HEADER = struct.Struct(">I")  # message length; signature and key follow


class _Pending:
    """A verdict the helper has not returned yet, with the triple it checks;
    ``seq`` is its place in the helper's answers."""

    __slots__ = ("message", "signature", "public_key", "helper", "seq")

    def __init__(self, message: bytes, signature: Signature, public_key: PublicKey,
                 helper: _Helper, seq: int):
        self.message = message
        self.signature = signature
        self.public_key = public_key
        self.helper = helper
        self.seq = seq

    def result(self) -> bool:
        """The helper's verdict, waiting for it if it has not arrived. In a
        process forked before it arrived, ``verify`` runs here instead."""
        helper = self.helper
        while len(helper.answers) <= self.seq:
            if helper.inherited:
                return verify(self.message, self.signature, self.public_key)
            helper.receive(block=True)
        return helper.answers[self.seq] == 1

    def __reduce__(self):  # another process cannot read this one's helper
        return verify, (self.message, self.signature, self.public_key)


class _Helper:
    """One forked verifier process and the two pipes to it. Triples go out as
    frames (u32 big-endian message length, message, signature, public key);
    verdicts come back as one byte each (1 valid, 0 not), in the same order,
    and ``answers`` keeps them all: one byte per signature this process made."""

    def __init__(self) -> None:
        triples_in, self._triples = os.pipe()
        self._verdicts, verdicts_out = os.pipe()
        self.pid = os.fork()
        if self.pid == 0:
            os.close(self._triples)
            os.close(self._verdicts)
            _serve(triples_in, verdicts_out)
        os.close(triples_in)
        os.close(verdicts_out)
        os.set_blocking(self._verdicts, False)
        self.answers = bytearray()
        self._sent = 0
        self._failure: Optional[str] = None
        self.inherited = False  # True in a process forked from the owner

    def submit(self, message: bytes, signature: Signature,
               public_key: PublicKey) -> _Pending:
        # Taking the ready verdicts first keeps the verdict pipe from filling
        # while this process writes, so neither side can block the other.
        self.receive(block=False)
        frame = memoryview(_FRAME_HEADER.pack(len(message)) + message
                           + signature + public_key)
        try:
            while frame:
                frame = frame[os.write(self._triples, frame):]
        except BrokenPipeError:
            self._fail()
        except BaseException:  # a frame cut short would misalign every later one
            self._failure = "a frame to the signature verifier process was cut short"
            raise
        pending = _Pending(message, signature, public_key, self, self._sent)
        self._sent += 1
        return pending

    def receive(self, block: bool) -> None:
        """Take the verdicts the helper has written; with ``block``, wait
        until it has written at least one more."""
        if self._failure is not None:
            raise RuntimeError(self._failure)
        try:
            answers = os.read(self._verdicts, 1 << 16)
        except BlockingIOError:
            if not block:
                return
            os.set_blocking(self._verdicts, True)
            try:
                answers = os.read(self._verdicts, 1 << 16)
            finally:
                os.set_blocking(self._verdicts, False)
        if not answers:
            self._fail()
        self.answers += answers

    def _fail(self) -> NoReturn:
        """The helper closed its end: it has exited, so report how."""
        if self._failure is None:
            _, status = os.waitpid(self.pid, 0)
            self._failure = (f"signature verifier process {self.pid} exited "
                             f"with status {os.waitstatus_to_exitcode(status)}")
        raise RuntimeError(self._failure)

    def close(self) -> None:
        """Close this process's ends of the pipes; the helper then exits."""
        os.close(self._triples)
        os.close(self._verdicts)


def _serve(triples: int, verdicts: int) -> NoReturn:
    """The helper's loop: verify each framed triple in order and answer it;
    exit when every writer has closed the triple pipe."""
    status = 1
    try:
        signal.signal(signal.SIGINT, signal.SIG_IGN)  # ^C is the parent's to handle
        gc.disable()  # the loop makes no cycles; a collection would copy the parent's heap
        buf = bytearray()
        while chunk := os.read(triples, 1 << 16):
            buf += chunk
            start = 0
            while len(buf) - start >= _FRAME_HEADER.size:
                sig_at = start + _FRAME_HEADER.size + _FRAME_HEADER.unpack_from(buf, start)[0]
                key_at = sig_at + SIGNATURE_SIZE
                end = key_at + PUBLIC_KEY_SIZE
                if end > len(buf):
                    break
                ok = verify(bytes(buf[start + _FRAME_HEADER.size:sig_at]),
                            Signature(buf[sig_at:key_at]), PublicKey(buf[key_at:end]))
                os.write(verdicts, b"\x01" if ok else b"\x00")
                start = end
            del buf[:start]
        status = 0
    except Exception:
        sys.excepthook(*sys.exc_info())
    finally:
        os._exit(status)


_helper: Optional[_Helper] = None
_helper_tried = False  # whether this process has decided to start one


def _submit(message: bytes, signature: Signature, public_key: PublicKey) -> Optional[_Pending]:
    """Send one triple to this process's helper, starting it on first use.
    None where no helper runs: without ``os.fork`` or ``os.sched_getaffinity``,
    on one usable core, or when other threads run, since a forked child gets
    only the forking thread and could wait forever on a lock another held."""
    global _helper, _helper_tried
    if _helper is None:
        if _helper_tried:
            return None
        _helper_tried = True
        if (not hasattr(os, "fork") or not hasattr(os, "sched_getaffinity")
                or len(os.sched_getaffinity(0)) < 2 or threading.active_count() > 1):
            return None
        _helper = _Helper()
    return _helper.submit(message, signature, public_key)


def _forget_helper() -> None:
    """In a forked child: drop the parent's helper, whose pipes are the parent's.
    Its pending verdicts are then settled in-process; a first ``sign`` here
    starts this process's own helper."""
    global _helper, _helper_tried
    if _helper is not None:
        _helper.inherited = True
        _helper.close()
    _helper, _helper_tried = None, False


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_helper)


# ---------------------------------------------------------------------------
# certificates
# ---------------------------------------------------------------------------

def _certificate_body(identity: str, subject_pk: PublicKey) -> bytes:
    return canonical_join(b"certificate", identity.encode(), subject_pk)


@dataclass(frozen=True)
class Certificate:
    """Binds a service identity (manufacturer, provider, cloud, insurer) to a key."""

    subject_identity: str
    subject_pk: PublicKey
    ca_signature: Signature


def issue_certificate(ca: KeyPair, identity: str, subject_pk: PublicKey) -> Certificate:
    body = _certificate_body(identity, subject_pk)
    return Certificate(identity, subject_pk, ca.sign(body))


def verify_certificate(cert: Certificate, ca_pk: PublicKey) -> bool:
    body = _certificate_body(cert.subject_identity, cert.subject_pk)
    return verify(body, cert.ca_signature, ca_pk)


# ---------------------------------------------------------------------------
# rotating key rings
# ---------------------------------------------------------------------------

class KeyRing:
    """Holds an actor's current signing key plus the history of retired keys.

    With ``rotate_per_interaction`` enabled, ``interaction_key`` hands out a
    fresh key pair for every new interaction so outbound transactions are not
    linkable by public key. Retired keys stay in ``history`` so the actor can
    still recognize material signed with them.
    """

    def __init__(self, seed: int | str | bytes, rotate_per_interaction: bool = False):
        self._seed = _seed_bytes(seed)
        self._counter = 0
        self._used = False
        self.rotate_per_interaction = rotate_per_interaction
        self.history: list[KeyPair] = []
        self.current = self._derive(0)

    def _derive(self, counter: int) -> KeyPair:
        return generate_keypair(canonical_join(self._seed, str(counter).encode()))

    def rotate(self) -> KeyPair:
        """Retire the current key and switch to a newly derived one."""
        self.history.append(self.current)
        self._counter += 1
        self.current = self._derive(self._counter)
        self._used = False
        return self.current

    def interaction_key(self) -> KeyPair:
        """Key to sign the next interaction with; rotates first if policy demands."""
        if self.rotate_per_interaction and self._used:
            self.rotate()
        self._used = True
        return self.current

    def all_public_keys(self) -> list[PublicKey]:
        return [kp.public for kp in self.history] + [self.current.public]
