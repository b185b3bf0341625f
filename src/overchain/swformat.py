"""Self-describing container format for update binaries stored in the cloud:
a magic tag plus the ``canonical_join`` of target ECU name, version string and
body; and the cloud object id each binary is stored under.
"""
from __future__ import annotations

import struct

from .crypto import Digest, canonical_join

MAGIC = b"SWUP"
SW_OBJECT_PREFIX = "sw/"  # cloud object ids and the account ACLs that reach them


def sw_object_id(payload_digest: Digest) -> str:
    """Content-addressed cloud object id for an update binary."""
    return SW_OBJECT_PREFIX + payload_digest.hex()


def build_sw_binary(ecu: str, version: str, body: bytes) -> bytes:
    return MAGIC + canonical_join(ecu.encode(), version.encode(), body)


def parse_sw_binary(blob: bytes) -> tuple[str, str, bytes]:
    """Return (ecu, version, body); raises ValueError on malformed input."""
    if blob[:4] != MAGIC:
        raise ValueError("not an update container")
    offset = 4
    parts = []
    for _ in range(3):
        if offset + 4 > len(blob):
            raise ValueError("truncated update container")
        (length,) = struct.unpack_from(">I", blob, offset)
        offset += 4
        if offset + length > len(blob):
            raise ValueError("truncated update container")
        parts.append(blob[offset:offset + length])
        offset += length
    if offset != len(blob):
        raise ValueError("trailing bytes in update container")
    return parts[0].decode(), parts[1].decode(), parts[2]
