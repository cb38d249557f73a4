"""Failure injection: crashes mid-write, bit rot, and recovery."""

import os

import pytest

from repro.errors import StorageError
from repro.storage.kvstore import KVStore


def _fill(path, items):
    with KVStore(path) as kv:
        for k, v in items:
            kv.put(k, v)


class TestTornWrites:
    def test_torn_tail_value_is_dropped(self, tmp_path):
        """A crash mid-value leaves a partial trailing record; reopening
        recovers by truncating it, keeping every earlier record."""
        path = str(tmp_path / "kv.log")
        _fill(path, [("a", b"alpha"), ("b", b"beta" * 100)])
        size = os.path.getsize(path)
        with open(path, "r+b") as f:
            f.truncate(size - 37)  # tear into the last value
        with KVStore(path) as kv:
            assert kv.get("a") == b"alpha"
            assert "b" not in kv
            # The store is writable again after recovery.
            kv.put("c", b"gamma")
            assert kv.get("c") == b"gamma"

    def test_torn_tail_header_is_dropped(self, tmp_path):
        path = str(tmp_path / "kv.log")
        _fill(path, [("a", b"alpha")])
        with open(path, "ab") as f:
            f.write(b"\x52")  # one stray byte: less than a header
        with KVStore(path) as kv:
            assert kv.get("a") == b"alpha"
            assert len(kv) == 1

    def test_torn_tail_key_is_dropped(self, tmp_path):
        path = str(tmp_path / "kv.log")
        _fill(path, [("a", b"alpha")])
        import struct
        with open(path, "ab") as f:
            # A valid header announcing a 100-byte key, but no key bytes.
            f.write(struct.pack("<IIQI", 0x56535452, 100, 5, 0))
        with KVStore(path) as kv:
            assert kv.get("a") == b"alpha"


class TestRecoveryCounters:
    """Reopen repair is observable: truncations and byte fates counted."""

    def test_clean_open_counts_no_truncations(self, tmp_path):
        path = str(tmp_path / "kv.log")
        _fill(path, [("a", b"alpha"), ("b", b"beta")])
        with KVStore(path) as kv:
            assert kv.torn_truncations == 0
            assert kv.dropped_bytes == 0
            assert kv.recovered_bytes == len(b"alpha") + len(b"beta")

    def test_torn_tail_counters_account_for_the_damage(self, tmp_path):
        path = str(tmp_path / "kv.log")
        _fill(path, [("a", b"alpha"), ("b", b"beta" * 100)])
        size = os.path.getsize(path)
        with open(path, "r+b") as f:
            f.truncate(size - 37)  # tear into the last value
        with KVStore(path) as kv:
            assert kv.torn_truncations == 1
            # The dropped span is the torn record's surviving prefix:
            # 20-byte header + 1-byte key + 400-byte value, short 37.
            assert kv.dropped_bytes == 20 + 1 + 400 - 37
            assert kv.recovered_bytes == len(b"alpha")

    def test_stray_byte_is_counted_as_dropped(self, tmp_path):
        path = str(tmp_path / "kv.log")
        _fill(path, [("a", b"alpha")])
        with open(path, "ab") as f:
            f.write(b"\x52")
        with KVStore(path) as kv:
            assert kv.torn_truncations == 1
            assert kv.dropped_bytes == 1
            assert kv.recovered_bytes == len(b"alpha")

    def test_metrics_registry_exposes_recovery_counters(self, tmp_path):
        from repro.obs.metrics import MetricsRegistry

        path = str(tmp_path / "kv.log")
        _fill(path, [("a", b"alpha"), ("b", b"beta" * 100)])
        size = os.path.getsize(path)
        with open(path, "r+b") as f:
            f.truncate(size - 37)
        with KVStore(path) as kv:
            registry = MetricsRegistry()
            registry.observe_kvstore(kv)
            gauges = registry.snapshot()["gauges"]
            assert gauges["kv.torn_truncations"] == 1
            assert gauges["kv.dropped_bytes"] == kv.dropped_bytes
            assert gauges["kv.recovered_bytes"] == len(b"alpha")


class TestBitRot:
    def test_verify_detects_flipped_bit(self, tmp_path):
        path = str(tmp_path / "kv.log")
        _fill(path, [("seg", bytes(range(256)) * 8)])
        with KVStore(path) as kv:
            val_off, val_len = kv._index[b"seg"]
        with open(path, "r+b") as f:
            f.seek(val_off + val_len // 2)
            byte = f.read(1)
            f.seek(val_off + val_len // 2)
            f.write(bytes([byte[0] ^ 0x40]))
        with KVStore(path) as kv:
            # Unverified reads return the rotten data...
            assert kv.get("seg") != bytes(range(256)) * 8
            # ...verification catches it.
            with pytest.raises(StorageError, match="checksum"):
                kv.get("seg", verify=True)

    def test_verify_passes_on_clean_data(self, tmp_path):
        path = str(tmp_path / "kv.log")
        _fill(path, [("seg", b"payload")])
        with KVStore(path) as kv:
            assert kv.get("seg", verify=True) == b"payload"

    def test_mid_file_corruption_still_raises(self, tmp_path):
        """Only *trailing* damage is recoverable; corruption in the body is
        an integrity failure the store must refuse to silently skip."""
        path = str(tmp_path / "kv.log")
        _fill(path, [("a", b"one"), ("b", b"two")])
        with open(path, "r+b") as f:
            f.seek(0)
            f.write(b"XXXX")  # destroy the first record's magic
        with pytest.raises(StorageError, match="corrupt"):
            KVStore(path)


class TestErosionResilience:
    def test_erosion_of_missing_segments_is_harmless(self, tmp_path):
        """Applying an erosion plan twice, or after manual deletions, never
        errors — deletions are idempotent."""
        from repro.clock import SimClock
        from repro.codec.encoder import Encoder
        from repro.storage.lifespan import apply_erosion_step
        from repro.storage.segment_store import SegmentStore
        from repro.storage.sharding import ShardedDiskArray
        from repro.video.coding import Coding
        from repro.video.fidelity import Fidelity
        from repro.video.format import StorageFormat
        from repro.video.segment import Segment

        fmt = StorageFormat(Fidelity.parse("bad-100p-1/30-50%"),
                            Coding("fastest", 5))
        kv = KVStore(str(tmp_path / "seg.log"))
        store = SegmentStore(kv, ShardedDiskArray(1))
        enc = Encoder(clock=SimClock())
        for i in range(40):
            store.put(enc.encode(Segment("cam", i), fmt, 0.2))
        store.delete("cam", fmt, 3)  # manual hole
        plan = {(1, fmt): 0.5}
        first = apply_erosion_step(store, "cam", plan, 40 * 8.0, 10)
        second = apply_erosion_step(store, "cam", plan, 40 * 8.0, 10)
        assert first > 0
        assert second == 0
        kv.close()
