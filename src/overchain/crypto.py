"""Signature, digest, and certificate primitives shared by the ledger and actors.

Every signed or hashed structure in the package has the layout of
``canonical_join`` (length-prefixed field concatenation), so byte layouts are
unambiguous and no two distinct field sequences collide.

Signatures are real Ed25519 (via the ``cryptography`` package) over raw
32-byte keys; digests are SHA-256. Key generation is deterministic given a
seed so whole simulation runs are reproducible.

``KeyPair.sign`` also hands each signature it makes to a verifier helper, a
child process that checks it on another core while this process goes on; this
process verifies queued signatures itself rather than wait for the helper (see
"verifier helper" below).
"""
from __future__ import annotations

import gc
import hashlib
import mmap
import operator
import os
import select
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


_U32 = struct.Struct(">I")  # the length before each joined field and each helper frame


def canonical_join(*fields: bytes) -> bytes:
    """Concatenate fields, each prefixed by its u32 big-endian length."""
    parts = []
    for field in fields:
        parts.append(_U32.pack(len(field)))
        parts.append(field)
    return b"".join(parts)


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

    def __reduce__(self):
        # A copy carries the bytes only: no backend key object, which cannot be
        # pickled, and no signature verdicts, so a loaded copy verifies afresh.
        return type(self), (bytes(self),)

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
    def _verdicts(self) -> dict[tuple[bytes, bytes], bool | tuple[_Helper, int]]:
        """``verify`` results for this object, keyed by (message, public key
        bytes). ``KeyPair.sign`` stores a pending verdict here, the helper and
        the triple's index in its answers; ``verified`` reads them, and a
        triple taken from the helper's queue gets its verdict here."""
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
        if pending is not None:  # a new object: skip ``cached_property``'s lock
            signature.__dict__["_verdicts"] = {(message, self.public): pending}
        return signature

    def __repr__(self) -> str:
        return f"KeyPair(public={self.public!r})"

    def __reduce__(self):  # a copy carries no backend key object, which cannot be pickled
        return KeyPair, (self.public, self.secret)


def generate_keypair(seed: int | str | bytes) -> KeyPair:
    """Derive a key pair deterministically from an arbitrary seed."""
    secret = hashlib.sha256(canonical_join(b"keypair", _seed_bytes(seed))).digest()
    private = Ed25519PrivateKey.from_private_bytes(secret)
    keypair = KeyPair(public=PublicKey(private.public_key().public_bytes_raw()), secret=secret)
    keypair.__dict__["_backend"] = private  # derived once: ``sign`` uses this key
    return keypair


def _valid(message, signature, public_key, backend) -> bool:
    """Ed25519 verify with the key object ``backend(public_key)``: False, never
    an exception, on bad input such as a key that is not a curve point."""
    try:
        backend(public_key).verify(signature, message)
        return True
    except (InvalidSignature, ValueError):
        return False


_key_of = operator.attrgetter("_backend")  # a ``PublicKey``'s cached key object


def verify(message: bytes, signature: Signature, public_key: PublicKey) -> bool:
    """True iff the signature is valid; never raises on bad input."""
    return _valid(message, signature, public_key, _key_of)


def verified(message: bytes, signature: Signature, public_key: PublicKey) -> bool:
    """``verify``, remembered on the signature object for the exact message and
    key bytes, so every node handed the same signature checks it once. A verdict
    still pending in this process's helper comes from ``_Helper.answer``, then is
    kept; one pending in the helper of a process this one was forked from is
    verified here."""
    verdicts = signature._verdicts
    key = (message, public_key)
    ok = verdicts.get(key)
    if ok is not True and ok is not False:
        if ok is not None and ok[0] is _helper:
            ok = _helper.answer(ok[1])
        else:
            ok = verify(message, signature, public_key)
        verdicts[key] = ok
    return ok


# ---------------------------------------------------------------------------
# verifier helper
# ---------------------------------------------------------------------------
#
# The Ed25519 backend holds the interpreter lock while it verifies, so a thread
# cannot overlap verification with the simulation; a second process can. The
# first ``KeyPair.sign`` of a process forks one helper. Every signature that
# process makes goes to the helper with its exact message and key, and the
# helper runs ``verify`` on it. The signature keeps a pending verdict, which
# ``verified`` reads back only when a node first needs it. A verdict is never
# taken from the act of signing: every one comes from ``verify``.
#
# Both processes work from the helper's queue. The helper verifies triples from
# the front, in order. This process verifies one itself rather than wait for
# it: the triple a node needs, if the helper has not begun it, and, while the
# helper works on the one needed, the newest triple the helper has not begun.
# Such a triple is "taken": this process marks it on a board the two processes
# share, and the helper answers it with a "taken" byte instead of verifying it.
# Marking and beginning can race, and then both processes verify the triple;
# both verdicts come from ``verify``, so they agree. A dead helper is still
# reported by the next pipe read or write: the frame of the next signature, or
# the wait for a verdict the helper had begun.

_TAKEN = b"\x02"  # the helper's answer to a triple its parent has taken
_SLOTS = select.PIPE_BUF  # more than the triples ever sent with answers unread
_WORD = struct.Struct("Q")  # one native word of the board


def _slot(index: int) -> int:
    """The board offset of the taken mark of the ``index``-th triple."""
    return _WORD.size * (1 + index % _SLOTS)


class _Helper:
    """One forked verifier process, the two pipes to it and the board the two
    share. Triples go out as frames (u32 big-endian message length, message,
    signature, public key); answers come back as one byte each (1 valid, 0 not,
    2 taken), in the same order. ``answers`` keeps the verdicts read so far,
    one byte per triple, in order, with this process's verdict in place of a
    "taken" byte.

    The board is an anonymous shared ``mmap`` made before the fork. Its first
    word is the number of frames the helper has begun, which the helper stores
    before it reads the frame's mark. Word ``1 + i % _SLOTS`` holds ``i + 1``
    once this process has taken triple ``i``, which it does only while the
    helper has not begun it. Fewer than ``PIPE_BUF`` triples are ever sent and
    their answers not yet read (see below), so a mark is overwritten only after
    the helper has answered its triple.

    Answers are read only when needed: by ``answer``, for one not yet read,
    and by ``submit``, before a frame that could leave ``PIPE_BUF`` of them
    unread. A pipe holds at least ``PIPE_BUF`` bytes, so the helper always has
    room for the answer to every frame it has been sent, taken or not. It never
    blocks on the verdict pipe, so it goes on reading frames and every write of
    ``submit`` completes: neither process can block the other."""

    def __init__(self) -> None:
        self._board = mmap.mmap(-1, _WORD.size * (1 + _SLOTS))
        triples_in, self._triples = os.pipe()
        self._verdicts, verdicts_out = os.pipe()
        self.pid = os.fork()
        if self.pid == 0:
            os.close(self._triples)
            os.close(self._verdicts)
            _serve(triples_in, verdicts_out, self._board)
        os.close(triples_in)
        os.close(verdicts_out)
        self.answers = bytearray()
        self._sent = 0
        # triples sent and neither answered nor taken, oldest first, by index
        self._queued: dict[int, tuple[bytes, Signature, PublicKey]] = {}
        self._taken: dict[int, bool] = {}  # verdicts of triples taken, until answered
        self._failure: Optional[str] = None

    def submit(self, message: bytes, signature: Signature, public_key: PublicKey) -> int:
        """Send one triple; returns its index in ``answers``."""
        if self._failure is not None:
            raise RuntimeError(self._failure)
        # Reading here keeps at most PIPE_BUF - 1 answers unread, this frame's
        # included, so the helper can answer this frame without blocking and
        # so goes on draining the write below.
        if self._sent - len(self.answers) >= select.PIPE_BUF - 1:
            self.receive()
        frame = memoryview(_U32.pack(len(message)) + message
                           + signature + public_key)
        try:
            while frame:
                frame = frame[os.write(self._triples, frame):]
        except BrokenPipeError:
            self._fail()
        except BaseException:  # a frame cut short would misalign every later one
            self._failure = "a frame to the signature verifier process was cut short"
            raise
        self._queued[self._sent] = (message, signature, public_key)
        self._sent += 1
        return self._sent - 1

    def answer(self, index: int) -> bool:
        """The verdict for the ``index``-th triple. This process verifies the
        triple itself if the helper has not begun it; while the helper works on
        it, this process verifies the newest triples the helper has not begun,
        and it waits only when there is none left."""
        if self._failure is not None:
            raise RuntimeError(self._failure)
        while len(self.answers) <= index:
            if index in self._taken:
                return self._taken[index]
            begun = _WORD.unpack_from(self._board)[0]
            if begun <= index:
                return self._take(index)
            newest = next(reversed(self._queued), -1)
            if begun == index + 1 and newest >= begun:
                self._take(newest)
            else:
                self.receive()
        return self.answers[index] == 1

    def _take(self, index: int) -> bool:
        """Verify the ``index``-th triple here, marking it first so that the
        helper skips it; its signature keeps the verdict."""
        try:
            message, signature, public_key = self._queued.pop(index)
            _WORD.pack_into(self._board, _slot(index), index + 1)
            ok = self._taken[index] = verify(message, signature, public_key)
        except BaseException:  # its answer would have no verdict to stand for
            self._failure = "a signature taken from the verifier queue was not verified"
            raise
        signature._verdicts[(message, public_key)] = ok
        return ok

    def receive(self) -> None:
        """Wait until the helper has written at least one answer not yet read,
        then read every one it has written. Call it only while one is due."""
        if self._failure is not None:
            raise RuntimeError(self._failure)
        answers = os.read(self._verdicts, 1 << 16)
        if not answers:
            self._fail()
        start = len(self.answers)
        self.answers += answers
        for index in range(start, len(self.answers)):
            if self._queued.pop(index, None) is None:  # taken: our verdict stands
                self.answers[index] = self._taken.pop(index)

    def _fail(self) -> NoReturn:
        """The helper closed its end: it has exited, so report how."""
        if self._failure is None:
            _, status = os.waitpid(self.pid, 0)
            self._failure = (f"signature verifier process {self.pid} exited "
                             f"with status {os.waitstatus_to_exitcode(status)}")
        raise RuntimeError(self._failure)

    def close(self) -> None:
        """Close this process's ends of the pipes and its map of the board;
        the helper then exits."""
        os.close(self._triples)
        os.close(self._verdicts)
        self._board.close()


def _serve(triples: int, verdicts: int, board: mmap.mmap) -> NoReturn:
    """The helper's loop: for each framed triple in order, store on ``board``
    that it has begun it, then answer "taken" if the parent has marked it, or
    else verify it straight from the frame's bytes and answer the verdict; exit
    when every writer has closed the triple pipe. It keeps no decoded keys: it
    outlives a run when the process goes on to another, and nothing may be
    remembered from one run to the next."""
    status = 1
    try:
        signal.signal(signal.SIGINT, signal.SIG_IGN)  # ^C is the parent's to handle
        gc.disable()  # the loop makes no cycles; a collection would copy the parent's heap
        buf = bytearray()
        begun = 0
        while chunk := os.read(triples, 1 << 16):
            buf += chunk
            start = 0
            while len(buf) - start >= _U32.size:
                sig_at = start + _U32.size + _U32.unpack_from(buf, start)[0]
                key_at = sig_at + SIGNATURE_SIZE
                end = key_at + PUBLIC_KEY_SIZE
                if end > len(buf):
                    break
                begun += 1
                _WORD.pack_into(board, 0, begun)
                if _WORD.unpack_from(board, _slot(begun - 1))[0] == begun:
                    answer = _TAKEN
                elif _valid(buf[start + _U32.size:sig_at], buf[sig_at:key_at],
                            bytes(buf[key_at:end]), Ed25519PublicKey.from_public_bytes):
                    answer = b"\x01"
                else:
                    answer = b"\x00"
                os.write(verdicts, answer)
                start = end
            del buf[:start]
        status = 0
    except Exception:
        sys.excepthook(*sys.exc_info())
    finally:
        os._exit(status)


_helper: Optional[_Helper] = None
_helper_tried = False  # whether this process has decided to start one


def _submit(message: bytes, signature: Signature,
            public_key: PublicKey) -> Optional[tuple[_Helper, int]]:
    """Send one triple to this process's helper, starting it on first use, and
    return its pending verdict. None where no helper runs: without ``os.fork``
    or ``os.sched_getaffinity``, on one usable core, or when other threads run,
    since a forked child gets only the forking thread and could wait forever on
    a lock another held."""
    global _helper, _helper_tried
    if _helper is None:
        if _helper_tried:
            return None
        _helper_tried = True
        if (not hasattr(os, "fork") or not hasattr(os, "sched_getaffinity")
                or len(os.sched_getaffinity(0)) < 2 or threading.active_count() > 1):
            return None
        _helper = _Helper()
    return _helper, _helper.submit(message, signature, public_key)


def _forget_helper() -> None:
    """In a forked child: drop the parent's helper, whose pipes and board are
    the parent's. ``verified`` then settles its pending verdicts in-process,
    with no mark on the parent's board; a first ``sign`` here starts this
    process's own helper."""
    global _helper, _helper_tried
    if _helper is not None:
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
    return verified(body, cert.ca_signature, ca_pk)


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

    @cached_property
    def current(self) -> KeyPair:
        """The key in use: key ``n`` after ``n`` rotations, derived on first read."""
        return self._derive(self._counter)

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
