"""CRC32C page trailers: detect torn and misdirected page writes.

Every on-disk page slot is the 4096-byte payload followed by an 8-byte
trailer::

    payload (PAGE_SIZE bytes) | magic "XPG1" | crc32c u32 LE

The checksum covers the payload *plus the page id*, so a page written
to the wrong offset (a misdirected write — the checksum would otherwise
still match) fails verification too.  CRC32C (Castagnoli, polynomial
0x1EDC6F41 reflected) is the checksum used by ext4 metadata, iSCSI and
RocksDB; the stdlib only ships CRC32 (zlib), so a slicing-by-8
table-driven implementation lives here — ~350 µs per page in CPython,
paid only at physical I/O (buffer-pool hits never touch it).
"""

from __future__ import annotations

import struct
from functools import lru_cache

from repro.errors import ChecksumError

_POLY = 0x82F63B78  # CRC32C (Castagnoli), reflected


def _build_tables() -> list[list[int]]:
    table0 = [0] * 256
    for i in range(256):
        crc = i
        for _ in range(8):
            crc = (crc >> 1) ^ _POLY if crc & 1 else crc >> 1
        table0[i] = crc
    tables = [table0]
    for _ in range(7):
        previous = tables[-1]
        tables.append([(previous[i] >> 8) ^ table0[previous[i] & 0xFF] for i in range(256)])
    return tables


_T0, _T1, _T2, _T3, _T4, _T5, _T6, _T7 = _build_tables()


def crc32c(data: bytes, crc: int = 0) -> int:
    """The CRC32C of ``data``, continuing from ``crc`` (slicing-by-8)."""
    crc ^= 0xFFFFFFFF
    words = len(data) // 8
    if words:
        for word in struct.unpack_from(f"<{words}Q", data):
            low = (crc ^ word) & 0xFFFFFFFF
            high = word >> 32
            crc = (
                _T7[low & 0xFF]
                ^ _T6[(low >> 8) & 0xFF]
                ^ _T5[(low >> 16) & 0xFF]
                ^ _T4[low >> 24]
                ^ _T3[high & 0xFF]
                ^ _T2[(high >> 8) & 0xFF]
                ^ _T1[(high >> 16) & 0xFF]
                ^ _T0[high >> 24]
            )
    for byte in memoryview(data)[words * 8 :]:
        crc = (crc >> 8) ^ _T0[(crc ^ byte) & 0xFF]
    return crc ^ 0xFFFFFFFF


TRAILER_MAGIC = b"XPG1"
_TRAILER = struct.Struct("<4sI")
TRAILER_SIZE = _TRAILER.size


def page_crc(page_id: int, payload: bytes) -> int:
    """CRC32C over the payload then the page id (catches misdirection)."""
    return crc32c(page_id.to_bytes(4, "little"), crc32c(payload))


def seal_page(page_id: int, payload: bytes) -> bytes:
    """The payload with its trailer appended: one on-disk slot."""
    return payload + _TRAILER.pack(TRAILER_MAGIC, page_crc(page_id, payload))


def seal_zero_page(page_id: int, size: int) -> bytes:
    """``seal_page(page_id, bytes(size))``, without hashing the zeros again.

    The CRC of the zero payload is computed once per size; each page
    then only extends it with its 4-byte id.
    """
    return bytes(size) + _TRAILER.pack(
        TRAILER_MAGIC, crc32c(page_id.to_bytes(4, "little"), _zero_crc(size))
    )


@lru_cache(maxsize=8)
def _zero_crc(size: int) -> int:
    return crc32c(bytes(size))


def verify_page(path: str, page_id: int, slot: bytes) -> bytes:
    """Split a slot into its payload, raising :class:`ChecksumError`
    when the trailer magic or CRC does not match the contents."""
    payload, trailer = slot[:-TRAILER_SIZE], slot[-TRAILER_SIZE:]
    magic, stored = _TRAILER.unpack(trailer)
    computed = page_crc(page_id, payload)
    if magic != TRAILER_MAGIC or stored != computed:
        raise ChecksumError(path, page_id, stored, computed)
    return payload
