"""WAL codec: byte-identical per-kind encoders, batched scan, corruption refusal."""

import hashlib
import json
import math
import struct
import zlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.__main__ import main
from repro.cluster import ClusterSimulation, ReplicationConfig
from repro.errors import StoreError
from repro.store import StoreConfig, WalScan, WriteAheadLog, recover_datastore, scan_wal
from repro.store.format import (
    DECODE_BATCH,
    KIND_MESSAGE,
    KIND_READS,
    KIND_WRITE,
    MAGIC,
    encode_message,
    encode_reads,
    encode_record,
    encode_write,
)
from repro.store.wal import Journal
from repro.workload.poisson import PoissonZipfWorkload

#: sha256 of every store file one seeded 3-node run writes, per policy.
#: Recorded before the per-kind encoders replaced ``json.dumps`` on the
#: append path; the on-disk format must never drift from these bytes.
GOLDEN_STORE_DIGESTS = {
    "invalidate": {
        "snapshot-00000001.json": "f07aa10d1c86423b490931caa35746e6af9d2f049f519c0c66b748c8427478fd",
        "snapshot-00000002.json": "eb19b77c29dff5e2543053d798d0f1b534469313497a4beaff5e6fc0b97135f2",
        "snapshot-00000003.json": "ae07cbc0bee6d02771a8bbdfdb5021117e1d3360e5243139ad5b495e25aed236",
        "wal.log": "83037561075a5c3cc324c9ed79d8a2f5a5d71565e8e5c9ba0fa144b0f6133c76",
    },
    "update": {
        "snapshot-00000001.json": "abcbb1781093bb27b03905c7e761b8f7d42c14b1cb0cbab00b9ba298eb32a375",
        "snapshot-00000002.json": "dd9d0627af89607200eabb4995d02f91a1e3a00dfaea7ee43b686bd9d386a930",
        "snapshot-00000003.json": "a725378c44a26063a60a4cf5e5eacb5d41fc19ac7d3ddf1aa9c23b174bffd7bb",
        "wal.log": "d5231bcbce3e47c66a65cd1a263abdde03a480bf684ad4f6325448febcfc8c99",
    },
    "adaptive": {
        "snapshot-00000001.json": "6a580eee525310493885ad452efe91b68bbfc6d27529461bf515c233260329ba",
        "snapshot-00000002.json": "f1eb0185415eaa5e881e3530f609e75bc06608f92745a6c1229b5fc14bfdd88f",
        "snapshot-00000003.json": "afbe67d16d0870dda49ae51ee531a05b066f32b1790d9d70ee32225bb72f7ea5",
        "wal.log": "7668c4963daa4641916565972bf2f5e8d887c1f51c62346ccd48452a276201a9",
    },
}


@pytest.mark.parametrize("policy", sorted(GOLDEN_STORE_DIGESTS))
def test_store_files_match_the_golden_digests(tmp_path, policy) -> None:
    workload = PoissonZipfWorkload(num_keys=60, rate_per_key=10.0, seed=7)
    ClusterSimulation(
        workload=workload.iter_requests(6.0),
        policy=policy,
        num_nodes=3,
        staleness_bound=0.5,
        replication=ReplicationConfig(factor=2, read_policy="round-robin"),
        duration=6.0,
        workload_name="poisson",
        seed=7,
        # No compaction: the WAL keeps every record the run appended.
        store=StoreConfig(str(tmp_path), snapshot_interval=2.0, compact=False),
    ).run()
    digests = {
        path.name: hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(tmp_path.iterdir())
    }
    assert digests == GOLDEN_STORE_DIGESTS[policy]


# --------------------------------------------------------------------------- #
# Per-kind encoders: byte-identical to encode_record for any input
# --------------------------------------------------------------------------- #
#: Any text, lone surrogates included (quotes, backslashes and control
#: characters come with the full alphabet; the samples pin them).
TEXT = st.text(st.characters(exclude_categories=())) | st.sampled_from(
    ["", '"', "\\", "\x00\x1f\x7f", "\ud800", "caf\u00e9 \u2603", "k\"e\\y\n"]
)
FLOATS = st.floats() | st.sampled_from(
    [-0.0, 5e-324, 1e300, math.nan, math.inf, -math.inf]
)
INTS = st.integers(min_value=-(2**80), max_value=2**80) | st.sampled_from(
    [0, -1, 2**63, -(2**64), True, False]
)
NUMBERS = FLOATS | INTS
CODEC_SETTINGS = settings(derandomize=True, max_examples=300, deadline=None)


@CODEC_SETTINGS
@given(lsn=INTS, key=TEXT, time=NUMBERS, value_size=NUMBERS)
def test_write_encoder_matches_encode_record(lsn, key, time, value_size) -> None:
    expected = encode_record({"k": KIND_WRITE, "key": key, "lsn": lsn, "t": time, "vs": value_size})
    assert encode_write(lsn, key, time, value_size) == expected


@CODEC_SETTINGS
@given(lsn=INTS, kind=TEXT, key=TEXT, time=NUMBERS, version=NUMBERS)
def test_message_encoder_matches_encode_record(lsn, kind, key, time, version) -> None:
    expected = encode_record(
        {"k": KIND_MESSAGE, "key": key, "lsn": lsn, "mk": kind, "t": time, "v": version}
    )
    assert encode_message(lsn, kind, key, time, version) == expected


@CODEC_SETTINGS
@given(lsn=INTS, count=NUMBERS)
def test_reads_encoder_matches_encode_record(lsn, count) -> None:
    assert encode_reads(lsn, count) == encode_record({"k": KIND_READS, "lsn": lsn, "n": count})


def test_encoders_write_the_canonical_payload_text() -> None:
    assert encode_write(3, "k\u00e9", 1.5, 128)[8:] == (
        b'{"k":"w","key":"k\\u00e9","lsn":3,"t":1.5,"vs":128}'
    )
    assert encode_message(4, "update", "k", 0.1, 7)[8:] == (
        b'{"k":"m","key":"k","lsn":4,"mk":"update","t":0.1,"v":7}'
    )
    assert encode_reads(5, 2)[8:] == b'{"k":"r","lsn":5,"n":2}'


# --------------------------------------------------------------------------- #
# Batched decode: same records and WalScan fields as a frame-by-frame reader
# --------------------------------------------------------------------------- #
def reference_scan(data: bytes):
    """Decode ``data`` one frame at a time, the way the log was read before batching."""
    records, scan = [], WalScan()
    offset = len(MAGIC)
    while offset < len(data):
        if offset + 8 > len(data):
            break
        length, crc = struct.unpack_from("<II", data, offset)
        end = offset + 8 + length
        if end > len(data) or zlib.crc32(data[offset + 8:end]) != crc:
            break
        record = json.loads(data[offset + 8:end])
        records.append(record)
        scan.records += 1
        scan.bytes_read = end
        scan.last_lsn = max(scan.last_lsn, record["lsn"])
        offset = end
    scan.torn_bytes = len(data) - offset
    return records, scan


def write_journal(path, count: int) -> None:
    """Write ``count`` mixed-kind records through the journal hooks."""
    wal = WriteAheadLog(path, flush_every=50)
    journal = Journal(wal)
    while wal.last_lsn < count:
        if wal.last_lsn % 3 == 0:
            journal.note_read()
        if wal.last_lsn % 5 == 4:
            journal.log_message("invalidate", f"key-{wal.last_lsn}", wal.last_lsn * 0.5, 2)
        else:
            journal.log_write(f"key-{wal.last_lsn % 7}", wal.last_lsn * 0.25, 64)
    journal.sync()
    wal.close()


@pytest.mark.parametrize("count", [3 * DECODE_BATCH, 3 * DECODE_BATCH + 1])
@pytest.mark.parametrize(
    "tail",
    [b"", encode_reads(10**6, 1)[:5], encode_reads(10**6, 1)[:-1] + b"?"],
    ids=["clean", "half-frame", "bad-final-crc"],
)
def test_batched_scan_matches_the_frame_by_frame_reference(tmp_path, count, tail) -> None:
    path = tmp_path / "wal.log"
    write_journal(path, count)
    # Trim to exactly ``count`` records, so the tail sits just past a batch
    # boundary (3 full batches) or one record after it.
    data = path.read_bytes()
    expected, _ = reference_scan(data)
    cut = len(MAGIC) + sum(len(encode_record(record)) for record in expected[:count])
    path.write_bytes(data[:cut] + tail)
    expected, expected_scan = reference_scan(path.read_bytes())
    assert len(expected) == count

    scan = WalScan()
    assert list(scan_wal(path, scan)) == expected
    assert scan == expected_scan
    assert scan.torn_bytes == len(tail)

    reopened = WriteAheadLog(path)
    assert reopened.last_lsn == expected_scan.last_lsn == count
    reopened.close()
    assert path.stat().st_size == cut


# --------------------------------------------------------------------------- #
# Corruption: refused with a named offset, never truncated
# --------------------------------------------------------------------------- #
def frame(payload: bytes) -> bytes:
    return struct.pack("<II", len(payload), zlib.crc32(payload)) + payload


def record_offsets(path):
    """Byte offset of every frame in a clean log."""
    offsets, offset = [], len(MAGIC)
    for record in scan_wal(path):
        offsets.append(offset)
        offset += len(encode_record(record))
    return offsets


def flip_bit(path, offset: int) -> bytes:
    data = bytearray(path.read_bytes())
    data[offset] ^= 0x01
    path.write_bytes(bytes(data))
    return bytes(data)


def test_a_bit_flip_in_the_first_record_is_refused_not_truncated(tmp_path) -> None:
    path = tmp_path / "wal.log"
    write_journal(path, 100)
    first = record_offsets(path)[0]
    corrupted = flip_bit(path, first + 12)  # inside record 1's payload
    with pytest.raises(StoreError, match=rf"byte {first}\b.*last verified LSN is 0"):
        list(scan_wal(path))
    with pytest.raises(StoreError, match=rf"byte {first}\b"):
        WriteAheadLog(path)
    assert path.read_bytes() == corrupted


def test_mid_log_corruption_yields_the_verified_prefix_then_raises(tmp_path) -> None:
    path = tmp_path / "wal.log"
    write_journal(path, 100)
    offsets = record_offsets(path)
    flip_bit(path, offsets[49] + 10)  # record 50's payload
    seen = []
    with pytest.raises(StoreError, match=rf"byte {offsets[49]}\b.*last verified LSN is 49"):
        for record in scan_wal(path):
            seen.append(record["lsn"])
    assert seen == list(range(1, 50))


@pytest.mark.parametrize(
    "payload", [b"not json", b"[1, 2]", b'{"lsn": 4},{"lsn": 5}'], ids=["garbage", "array", "two"]
)
@pytest.mark.parametrize("final", [False, True], ids=["mid-log", "final"])
def test_a_checksummed_non_object_payload_is_refused(tmp_path, payload, final) -> None:
    path = tmp_path / "wal.log"
    good = [encode_reads(lsn, 1) for lsn in (1, 2, 3)]
    bad_at = len(MAGIC) + sum(map(len, good))
    after = b"" if final else encode_reads(6, 1)
    path.write_bytes(MAGIC + b"".join(good) + frame(payload) + after)
    seen = []
    with pytest.raises(StoreError, match=rf"byte {bad_at}\b.*not a JSON object"):
        for record in scan_wal(path):
            seen.append(record["lsn"])
    assert seen == [1, 2, 3]


def test_recovery_and_inspect_refuse_a_corrupt_log(tmp_path, capsys) -> None:
    root = tmp_path / "store"
    root.mkdir()
    wal_path = StoreConfig(str(root)).wal_path
    write_journal(wal_path, 20)
    flip_bit(wal_path, record_offsets(wal_path)[4] + 10)
    with pytest.raises(StoreError, match="corrupt WAL frame"):
        recover_datastore(root)
    assert main(["store", "inspect", "--dir", str(root)]) == 1
    assert "corrupt WAL frame" in capsys.readouterr().err
