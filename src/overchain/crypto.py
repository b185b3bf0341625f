"""Signature, digest, and certificate primitives shared by the ledger and actors.

Every signed or hashed structure in the package has the layout of
``canonical_join`` (length-prefixed field concatenation), so byte layouts are
unambiguous and no two distinct field sequences collide.

Signatures are real Ed25519 (via the ``cryptography`` package) over raw
32-byte keys; digests are SHA-256. Key generation is deterministic given a
seed so whole simulation runs are reproducible.

``KeyPair.sign`` also hands each signature it makes to a verifier helper, a
child process that checks it on another core (see "verifier helper" below).
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

class cached:
    """``functools.cached_property`` without its lock. The first read stores
    the value in the instance's ``__dict__``, where every later read finds it
    without calling the descriptor. On CPython 3.11 that lock makes a first
    read cost about 1 us, against about 0.2 us here; no value of this package
    is read from two threads."""

    def __init__(self, fn):
        self.fn, self.name, self.__doc__ = fn, fn.__name__, fn.__doc__

    def __set_name__(self, owner, name: str) -> None:
        self.name = name

    def __get__(self, obj, owner=None):
        if obj is None:
            return self
        value = obj.__dict__[self.name] = self.fn(obj)
        return value


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


# Builds a value whose source guarantees its size, without ``__new__``'s check.
_unchecked = bytes.__new__


def digest(data: bytes) -> Digest:
    return _unchecked(Digest, hashlib.sha256(data).digest())


class PublicKey(_FixedBytes):
    """Raw Ed25519 public key bytes."""

    SIZE = PUBLIC_KEY_SIZE

    @cached
    def _backend(self) -> Ed25519PublicKey:
        return Ed25519PublicKey.from_public_bytes(self)


class Signature(_FixedBytes):
    """Raw Ed25519 signature bytes."""

    SIZE = SIGNATURE_SIZE

    @cached
    def _verdicts(self) -> dict[tuple[bytes, bytes], bool | tuple[_Helper, int]]:
        """``verify`` results for this object, keyed by (message, public key
        bytes). ``KeyPair.sign`` stores a pending verdict here, the helper and
        the triple's index in its queue, which the helper's side replaces with
        the verdict when the triple settles; ``verified`` reads them."""
        return {}


@dataclass(frozen=True)
class KeyPair:
    """An Ed25519 key pair. ``secret`` is the raw 32-byte private seed."""

    public: PublicKey
    secret: bytes

    @cached
    def _backend(self) -> Ed25519PrivateKey:
        return Ed25519PrivateKey.from_private_bytes(self.secret)

    def sign(self, message: bytes) -> Signature:
        message = bytes(message)  # a key of the verdict dict; no copy when already bytes
        signature = _unchecked(Signature, self._backend.sign(message))  # always 64 bytes
        pending = _submit(message, signature, self.public)
        if pending is not None:  # a new object: its first verdict goes in directly
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
    still pending in this process's helper is settled there; one pending in the
    helper of a process this one was forked from is verified here."""
    verdicts = signature._verdicts
    key = (message, public_key)
    ok = verdicts.get(key)
    if ok is not True and ok is not False:
        if ok is not None and ok[0] is _helper:
            _helper.settle(ok[1])
            ok = verdicts[key]
        else:
            ok = verdicts[key] = verify(message, signature, public_key)
    return ok


# ---------------------------------------------------------------------------
# verifier helper
# ---------------------------------------------------------------------------
#
# The Ed25519 backend holds the interpreter lock while it verifies, so only a
# second process can overlap verification with the simulation. The first
# ``KeyPair.sign`` of a process forks one helper, which runs ``verify`` on every
# signature that process makes, with its exact message and key, while the
# signature keeps a pending verdict; a verdict never comes from the act of
# signing. This process never waits on a verdict: it verifies ("takes") a
# queued triple itself instead, and flags it on a shared board that only this
# process writes, so the helper skips it (see ``_Helper``). Each side's steps
# are plain functions over a board and byte channels, so a test runs both in
# one process.

_TAKEN = b"\x02"  # the helper's answer to a triple its parent has taken


class _Pipe(int):
    """A pipe end's file descriptor, as a byte channel."""

    def write(self, data) -> int:
        return os.write(self, data)

    def read(self, size: int) -> bytes:
        return os.read(self, size)

    @cached
    def _poll(self):
        poll = select.poll()  # not ``select.select``, which refuses descriptors of 1024 and up
        poll.register(self, select.POLLIN)
        return poll

    def ready(self) -> bool:
        """Whether ``read`` returns at once: bytes wait, or every writer has closed."""
        return bool(self._poll.poll(0))


class _Helper:
    """This process's side of one verifier helper, over a board of take flags
    and a byte channel each way. Triples go out as frames (u32 big-endian
    message length, message, signature, public key); answers come back as one
    byte each (1 valid, 0 not, 2 taken), in the same order. A triple is in
    ``_queued`` exactly until its signature holds a verdict, from a take or
    from its answer; ``_sent`` and ``_read`` count frames and answers.

    Only this process writes the board's ``n`` one-byte flags: ``submit``
    clears flag ``i % n`` before it sends triple ``i``, and ``_take`` sets it
    before it verifies the triple. The helper reads the flag of each frame and
    answers a set one "taken" without verifying; a take after that read means
    both verify the triple with ``verify``. ``submit`` reads answers so that
    fewer than ``n`` are ever due, so triple ``i`` is answered and read before
    its flag is cleared for triple ``i + n``. As the forked board has
    ``PIPE_BUF`` flags and a pipe holds ``PIPE_BUF`` bytes or more, the helper
    never blocks on an answer and drains every write of ``submit``."""

    def __init__(self, board, triples, verdicts, pid: int) -> None:
        self._board, self._triples, self._verdicts, self.pid = board, triples, verdicts, pid
        self._slots = len(board)  # n: the take flags
        self._sent = self._read = 0
        self._queued: dict[int, tuple[bytes, Signature, PublicKey]] = {}  # oldest first
        self._failure: Optional[str] = None

    def submit(self, message: bytes, signature: Signature, public_key: PublicKey) -> int:
        """Send one triple; returns its index. Reads first so fewer than n stay due."""
        if self._failure is not None:
            raise RuntimeError(self._failure)
        if self._sent - self._read >= self._slots - 1:
            self.receive()
        self._board[self._sent % self._slots] = 0
        frame = memoryview(_U32.pack(len(message)) + message + signature + public_key)
        try:
            while frame:
                frame = frame[self._triples.write(frame):]
        except BrokenPipeError:
            self._fail()
        except BaseException:  # a frame cut short would misalign every later one
            self._failure = "a frame to the signature verifier process was cut short"
            raise
        self._queued[self._sent] = (message, signature, public_key)
        self._sent += 1
        return self._sent - 1

    def settle(self, index: int) -> None:
        """Return once the ``index``-th triple's signature holds its verdict,
        without waiting: store answers while some can be read at once, else
        take the newest queued triple, until that one is settled."""
        if self._failure is not None:
            raise RuntimeError(self._failure)
        while index in self._queued:
            self._step(self._verdicts.ready())

    def _step(self, ready: bool) -> None:
        """One round of ``settle``, with ``ready`` as last polled from the answers."""
        if ready:
            self.receive()
        else:
            self._take(next(reversed(self._queued)))

    def _take(self, index: int) -> None:
        """Verify the ``index``-th triple here, flagging it first so that the
        helper skips it; its signature keeps the verdict."""
        try:
            message, signature, public_key = self._queued.pop(index)
            self._board[index % self._slots] = 1
            signature._verdicts[(message, public_key)] = verify(message, signature, public_key)
        except BaseException:  # its signature would be left with no verdict
            self._failure = "a signature taken from the verifier queue was not verified"
            raise

    def receive(self) -> None:
        """Wait for an answer, then store every one written on its triple's
        signature, unless taken. Call it only while an answer is due or ready."""
        if self._failure is not None:
            raise RuntimeError(self._failure)
        try:
            answers = self._verdicts.read(1 << 16)
            start, self._read = self._read, self._read + len(answers)
            for index, answer in enumerate(answers, start):
                if (triple := self._queued.pop(index, None)) is not None:
                    message, signature, public_key = triple
                    signature._verdicts[(message, public_key)] = answer == 1
        except BaseException:  # answers read, or a triple popped, with no verdict stored
            self._failure = "an answer from the signature verifier process was not stored"
            raise
        if not answers:
            self._fail()

    def _fail(self) -> NoReturn:
        """The helper closed its end: it has exited, so report how."""
        if self._failure is None:
            _, status = os.waitpid(self.pid, 0)
            self._failure = (f"signature verifier process {self.pid} exited "
                             f"with status {os.waitstatus_to_exitcode(status)}")
        raise RuntimeError(self._failure)

    def close(self) -> None:
        """Close this process's pipe ends and board map: the helper exits."""
        os.close(self._triples)
        os.close(self._verdicts)
        self._board.close()


def _start_helper() -> _Helper:
    """Fork a verifier helper over a new shared board and two pipes."""
    board = mmap.mmap(-1, select.PIPE_BUF)
    triples_in, triples = os.pipe()
    verdicts, verdicts_out = os.pipe()
    pid = os.fork()
    if pid == 0:
        os.close(triples)
        os.close(verdicts)
        _serve(triples_in, verdicts_out, board)
    os.close(triples_in)
    os.close(verdicts_out)
    return _Helper(board, _Pipe(triples), _Pipe(verdicts), pid)


def _frame(buf, start: int) -> Optional[int]:
    """The offset just after the frame at ``start`` of ``buf``; None while
    ``buf`` holds only part of it."""
    if len(buf) - start < _U32.size:
        return None
    end = start + _U32.size + _U32.unpack_from(buf, start)[0] + SIGNATURE_SIZE + PUBLIC_KEY_SIZE
    return end if end <= len(buf) else None


def _answer(board, index: int, buf, start: int, end: int) -> bytes:
    """The helper's answer to the ``index``-th frame, ``buf[start:end]``: "taken"
    if flagged on ``board``, else the byte of ``verify``'s verdict on its bytes."""
    if board[index % len(board)]:
        return _TAKEN
    key_at = end - PUBLIC_KEY_SIZE
    sig_at = key_at - SIGNATURE_SIZE
    return bytes([_valid(buf[start + _U32.size:sig_at], buf[sig_at:key_at],
                         bytes(buf[key_at:end]), Ed25519PublicKey.from_public_bytes)])


def _serve(triples: int, verdicts: int, board: mmap.mmap) -> NoReturn:
    """The helper's loop: for each framed triple in order, write its
    ``_answer``; exit, with status 0, when every writer has closed the triple
    pipe or every reader the answer pipe. It only reads the board.
    It keeps no decoded keys: it outlives a run when the process goes on to
    another, and nothing may be remembered from one run to the next."""
    status = 1
    try:
        signal.signal(signal.SIGINT, signal.SIG_IGN)  # ^C is the parent's to handle
        gc.disable()  # the loop makes no cycles; a collection would copy the parent's heap
        buf, index = bytearray(), 0
        while chunk := os.read(triples, 1 << 16):
            buf += chunk
            start = 0
            while end := _frame(buf, start):
                os.write(verdicts, _answer(board, index, buf, start, end))
                start, index = end, index + 1
            del buf[:start]
        status = 0
    except BrokenPipeError:  # the parent closed its end: no one is left to answer
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
        _helper = _start_helper()
    return _helper, _helper.submit(message, signature, public_key)


def _forget_helper() -> None:
    """In a forked child: drop the parent's helper, whose pipes and board are
    the parent's. ``verified`` then verifies its pending verdicts in-process,
    with no flag set on the parent's board; a first ``sign`` here starts this
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

    @cached
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
