"""Signature, digest, and certificate primitives shared by the ledger and actors.

Every signed or hashed structure in the package serializes through
``canonical_join`` (length-prefixed field concatenation), so byte layouts are
unambiguous and no two distinct field sequences collide.

Signatures are real Ed25519 (via the ``cryptography`` package) over raw
32-byte keys; digests are SHA-256. Key generation is deterministic given a
seed so whole simulation runs are reproducible.
"""
from __future__ import annotations

import hashlib
import struct
from dataclasses import dataclass
from functools import cached_property

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
    def _verdicts(self) -> dict[tuple[bytes, bytes], bool]:
        """``verify`` results for this object, keyed by (message, public key bytes)."""
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
        return Signature(self._backend.sign(message))

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
