"""On-disk record format of the write-ahead log.

The WAL is a magic header followed by a sequence of length-prefixed,
CRC-checksummed records, in the spirit of ZODB's append-only transaction log:

.. code-block:: text

    +----------+----------------+----------------+---------------------+
    | MAGIC    | length (u32le) | crc32 (u32le)  | payload (JSON) ...  |
    +----------+----------------+----------------+---------------------+

Each payload is a compact, canonically-sorted JSON object carrying at least a
log sequence number (``"lsn"``) and a record kind (``"k"``).  The LSN lives in
the payload — not in the framing — so that log compaction can rewrite the file
while keeping snapshot watermarks meaningful.

Reading tolerates a *torn tail*: a crash mid-append leaves a truncated or
corrupt final record, and replay stops cleanly at the last record whose
checksum verifies — everything before it is durable, everything after it never
was.  Anything else that fails to verify is refused with
:class:`~repro.errors.StoreError`: a bad magic header (the file is not a WAL),
a checksum failure with bytes after the bad frame (mid-log corruption, which
must never be truncated away), and a checksummed payload that is not a JSON
object.

The hot record kinds have their own encoders (:func:`encode_write`,
:func:`encode_message`, :func:`encode_reads`) that format the sorted-key JSON
directly; each returns exactly the bytes :func:`encode_record` would, and
hands any value it cannot format exactly that way back to it.
"""

from __future__ import annotations

import json
import struct
import zlib
from dataclasses import dataclass
from json.encoder import encode_basestring_ascii
from math import isfinite
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional

from repro.errors import StoreError

#: File magic identifying a repro WAL (includes a format version).
MAGIC = b"RPROWAL1\n"

#: Per-record framing: payload length and CRC-32 of the payload bytes.
_FRAME = struct.Struct("<II")

#: Record kinds appearing in the log.
KIND_WRITE = "w"
KIND_READS = "r"
KIND_MESSAGE = "m"


#: Verified payloads decoded per ``json.loads`` call in :func:`scan_wal`.
DECODE_BATCH = 256


def _frame(data: bytes) -> bytes:
    return _FRAME.pack(len(data), zlib.crc32(data)) + data


def encode_record(payload: Dict[str, Any]) -> bytes:
    """Frame one payload as a length-prefixed, checksummed record."""
    return _frame(json.dumps(payload, separators=(",", ":"), sort_keys=True).encode("utf-8"))


# The encoders below take their fast path only for values whose JSON text is
# exactly their repr: a finite float, a plain int, or a str escaped by
# ``encode_basestring_ascii``.  Anything else (NaN, inf, bool, subclasses)
# goes through ``encode_record``, so the bytes never differ from it.


def encode_write(lsn: int, key: str, time: float, value_size: int) -> bytes:
    """Frame a backend-write record (kind ``w``); same bytes as :func:`encode_record`."""
    if (type(lsn) is int and type(key) is str and type(time) is float and isfinite(time)
            and type(value_size) is int):
        key = encode_basestring_ascii(key)
        return _frame(f'{{"k":"w","key":{key},"lsn":{lsn!r},"t":{time!r},"vs":{value_size!r}}}'
                      .encode())
    return encode_record({"k": KIND_WRITE, "key": key, "lsn": lsn, "t": time, "vs": value_size})


def encode_message(lsn: int, kind: str, key: str, time: float, version: int) -> bytes:
    """Frame a freshness-message record (kind ``m``); same bytes as :func:`encode_record`."""
    if (type(lsn) is int and type(kind) is str and type(key) is str and type(time) is float
            and isfinite(time) and type(version) is int):
        key, kind = encode_basestring_ascii(key), encode_basestring_ascii(kind)
        return _frame(f'{{"k":"m","key":{key},"lsn":{lsn!r},"mk":{kind},"t":{time!r},'
                      f'"v":{version!r}}}'.encode())
    return encode_record(
        {"k": KIND_MESSAGE, "key": key, "lsn": lsn, "mk": kind, "t": time, "v": version}
    )


def encode_reads(lsn: int, count: int) -> bytes:
    """Frame a read-delta record (kind ``r``); same bytes as :func:`encode_record`."""
    if type(lsn) is int and type(count) is int:
        return _frame(f'{{"k":"r","lsn":{lsn!r},"n":{count!r}}}'.encode())
    return encode_record({"k": KIND_READS, "lsn": lsn, "n": count})


@dataclass(slots=True)
class WalScan:
    """Outcome of scanning a WAL file (filled in by :func:`scan_wal`)."""

    records: int = 0
    bytes_read: int = 0
    #: Bytes of a truncated or checksum-failing tail that were ignored.
    torn_bytes: int = 0
    #: Highest LSN seen among the complete records.
    last_lsn: int = 0


def scan_wal(path: str | Path, scan: Optional[WalScan] = None) -> Iterator[Dict[str, Any]]:
    """Yield every complete record payload in ``path``, in log order.

    A missing file yields nothing (an empty log is a valid log).  A torn tail
    — an incomplete final frame, or a final frame whose checksum fails —
    stops iteration silently; pass a :class:`WalScan` to observe how many
    bytes were dropped.  Every frame's checksum is verified one by one; the
    verified payloads are then decoded ``DECODE_BATCH`` at a time.

    Raises:
        StoreError: If the file exists but does not start with the WAL magic,
            if a frame fails its checksum with bytes after it (mid-log
            corruption), or if a verified payload is not a JSON object.  The
            records before the bad frame are yielded first.
    """
    path = Path(path)
    if scan is None:
        scan = WalScan()
    if not path.exists():
        return
    data = path.read_bytes()
    if not data.startswith(MAGIC):
        raise StoreError(f"{path} is not a write-ahead log (bad magic)")
    offset = len(MAGIC)
    total = len(data)
    payloads: List[bytes] = []
    ends: List[int] = []
    corrupt = False
    while offset < total:
        if offset + _FRAME.size > total:
            break
        length, crc = _FRAME.unpack_from(data, offset)
        start = offset + _FRAME.size
        end = start + length
        if end > total:
            break
        payload = data[start:end]
        if zlib.crc32(payload) != crc:
            # Only the final frame can be torn by a crash mid-append; a bad
            # frame with bytes after it means durable history was damaged.
            corrupt = end < total
            break
        payloads.append(payload)
        ends.append(end)
        offset = end
        if len(payloads) == DECODE_BATCH:
            yield from _decode_batch(path, payloads, ends, scan)
            payloads.clear()
            ends.clear()
    yield from _decode_batch(path, payloads, ends, scan)
    if corrupt:
        raise StoreError(
            f"{path}: corrupt WAL frame at byte {offset} (checksum mismatch before "
            f"the end of the log); last verified LSN is {scan.last_lsn}"
        )
    scan.torn_bytes = total - offset


def _decode_batch(
    path: Path, payloads: List[bytes], ends: List[int], scan: WalScan
) -> Iterator[Dict[str, Any]]:
    """Decode checksummed payloads with one ``json.loads`` and yield them in order."""
    try:
        records = json.loads(b"[" + b",".join(payloads) + b"]")
    except ValueError:
        records = []
    if len(records) != len(payloads) or any(type(record) is not dict for record in records):
        # Some payload is not one JSON object: decode frame by frame to name it.
        records = _decode_each(path, payloads, ends, scan)
    for record, end in zip(records, ends):
        scan.records += 1
        scan.bytes_read = end
        scan.last_lsn = max(scan.last_lsn, int(record.get("lsn", 0)))
        yield record


def _decode_each(
    path: Path, payloads: List[bytes], ends: List[int], scan: WalScan
) -> Iterator[Dict[str, Any]]:
    for payload, end in zip(payloads, ends):
        try:
            record = json.loads(payload)
        except ValueError:
            record = None
        if type(record) is not dict:
            raise StoreError(
                f"{path}: WAL frame at byte {end - len(payload) - _FRAME.size} passes its "
                f"checksum but its payload is not a JSON object; last verified LSN is "
                f"{scan.last_lsn}"
            )
        yield record
