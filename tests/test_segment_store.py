"""Segment store: per-format indexing and footprint accounting."""

import pytest
from hypothesis import given, strategies as st

from repro.clock import SimClock
from repro.codec.encoder import Encoder
from repro.errors import StorageError
from repro.storage.disk import DiskModel
from repro.storage.kvstore import KVStore
from repro.storage.segment_store import (
    SegmentStore,
    _escape_label,
    _fmt_key,
    _parse_fmt,
    _unescape_label,
)
from repro.video.coding import Coding, RAW, coding_space
from repro.video.fidelity import Fidelity, fidelity_space
from repro.video.format import StorageFormat
from repro.video.segment import Segment

FMT_A = StorageFormat(Fidelity.parse("good-540p-1/6-100%"), Coding("fast", 10))
FMT_B = StorageFormat(Fidelity.parse("best-200p-1-100%"), RAW)


@pytest.fixture()
def store(tmp_path):
    kv = KVStore(str(tmp_path / "segments.log"))
    yield SegmentStore(kv, DiskModel(clock=SimClock()))
    kv.close()


def _encode(fmt, index, materialize=False):
    return Encoder(clock=SimClock()).encode(
        Segment("cam", index), fmt, activity=0.4, materialize=materialize
    )


def test_put_get_roundtrip(store):
    encoded = _encode(FMT_A, 0)
    store.put(encoded)
    got = store.meta("cam", FMT_A, 0)
    assert got.size_bytes == encoded.size_bytes
    assert got.n_frames == encoded.n_frames
    assert got.fmt == FMT_A
    assert got.segment.t0 == 0.0


def test_meta_does_not_charge_disk(store):
    store.put(_encode(FMT_A, 0))
    spent = store.disk.clock.spent("disk")
    store.meta("cam", FMT_A, 0)
    assert store.disk.clock.spent("disk") == spent


def test_indices_and_formats(store):
    for i in (0, 1, 5):
        store.put(_encode(FMT_A, i))
    store.put(_encode(FMT_B, 1))
    assert store.indices("cam", FMT_A) == [0, 1, 5]
    assert store.indices("cam", FMT_B) == [1]
    labels = sorted(f.label for f in store.formats("cam"))
    assert labels == sorted([FMT_A.label, FMT_B.label])


def test_footprint_accounting(store):
    a0, a1 = _encode(FMT_A, 0), _encode(FMT_A, 1)
    b0 = _encode(FMT_B, 0)
    for e in (a0, a1, b0):
        store.put(e)
    assert store.footprint("cam", FMT_A) == a0.size_bytes + a1.size_bytes
    assert store.footprint("cam", FMT_B) == b0.size_bytes
    assert store.footprint("cam") == store.total_bytes()
    assert store.segment_count("cam", FMT_A) == 2


def test_delete_updates_footprint(store):
    e = _encode(FMT_A, 0)
    store.put(e)
    assert store.delete("cam", FMT_A, 0)
    assert store.footprint("cam", FMT_A) == 0
    assert not store.delete("cam", FMT_A, 0)
    assert not store.contains("cam", FMT_A, 0)


def test_payload_roundtrip(store):
    e = _encode(FMT_B, 3, materialize=True)
    store.put(e)
    assert store.payload("cam", FMT_B, 3) == e.payload


def test_footprints_survive_reopen(tmp_path):
    path = str(tmp_path / "segments.log")
    kv = KVStore(path)
    store = SegmentStore(kv, DiskModel(clock=SimClock()))
    e = _encode(FMT_A, 0)
    store.put(e)
    kv.close()

    kv2 = KVStore(path)
    store2 = SegmentStore(kv2, DiskModel(clock=SimClock()))
    assert store2.footprint("cam", FMT_A) == e.size_bytes
    assert store2.indices("cam", FMT_A) == [0]
    kv2.close()


def test_overwrite_does_not_double_count(store):
    e = _encode(FMT_A, 0)
    store.put(e)
    store.put(e)
    assert store.footprint("cam", FMT_A) == e.size_bytes
    assert store.segment_count("cam", FMT_A) == 1


class TestMissingSegmentErrors:
    """Point lookups on absent segments raise a StorageError that names
    (stream, format, index) — never the KV backend's raw-key error."""

    @pytest.mark.parametrize("lookup", ["meta", "payload"])
    def test_missing_segment_names_the_lookup(self, store, lookup):
        with pytest.raises(StorageError) as err:
            getattr(store, lookup)("nocam", FMT_A, 17)
        message = str(err.value)
        assert "nocam" in message
        assert FMT_A.label in message
        assert "17" in message
        assert "key not found" not in message  # the backend error text

    def test_missing_index_of_present_format_also_named(self, store):
        store.put(_encode(FMT_A, 0))
        with pytest.raises(StorageError) as err:
            store.meta("cam", FMT_A, 5)
        assert "index=5" in str(err.value)


class TestBucketPruning:
    """Deleting the last segment of a (stream, format) removes its
    accounting bucket instead of leaving a zero-byte entry behind."""

    def test_delete_prunes_empty_buckets(self, store):
        store.put(_encode(FMT_A, 0))
        store.put(_encode(FMT_A, 1))
        store.put(_encode(FMT_B, 0))
        store.delete("cam", FMT_A, 0)
        assert len(store._footprint) == 2  # bucket still half full
        store.delete("cam", FMT_A, 1)
        assert len(store._footprint) == 1  # FMT_A bucket gone, not zeroed
        assert len(store._count) == 1
        assert store.footprint("cam", FMT_A) == 0
        assert store.segment_count("cam", FMT_A) == 0
        store.delete("cam", FMT_B, 0)
        assert store._footprint == {}
        assert store._count == {}
        assert store.total_bytes() == 0

    def test_reingest_after_prune_counts_fresh(self, store):
        e = _encode(FMT_A, 0)
        store.put(e)
        store.delete("cam", FMT_A, 0)
        store.put(e)
        assert store.footprint("cam", FMT_A) == e.size_bytes
        assert store.segment_count("cam", FMT_A) == 1


class TestFormatKeyRoundtrip:
    """The _fmt_key/_parse_fmt encoding must roundtrip every format."""

    def test_all_fidelity_coding_combinations_roundtrip(self):
        """Property over the full space: 600 fidelities x 26 codings."""
        codings = list(coding_space())
        for fidelity in fidelity_space():
            for coding in codings:
                fmt = StorageFormat(fidelity, coding)
                key = _fmt_key(fmt)
                assert "/" not in key, key  # keys are "/"-structured
                assert _parse_fmt(key) == fmt

    @given(st.text(alphabet=st.sampled_from(" |/%-abc025"), max_size=30))
    def test_escaping_roundtrips_hostile_labels(self, label):
        """Labels containing spaces, '|', '/' or '%' roundtrip exactly."""
        escaped = _escape_label(label)
        assert "/" not in escaped
        assert " " not in escaped
        assert "|" not in escaped
        assert _unescape_label(escaped) == label

    @given(
        a=st.text(alphabet=st.sampled_from(" |/%-ab1"), max_size=12),
        b=st.text(alphabet=st.sampled_from(" |/%-ab1"), max_size=12),
    )
    def test_escaping_is_injective(self, a, b):
        if a != b:
            assert _escape_label(a) != _escape_label(b)

    def test_malformed_key_rejected(self):
        with pytest.raises(StorageError):
            _parse_fmt("no-space-separator")

    def test_raw_and_sampled_formats_store_and_list(self, store):
        """End to end through the store: a RAW format and a '/'-sampled
        fidelity coexist and are listed back as the exact same formats."""
        store.put(_encode(FMT_A, 0))
        store.put(_encode(FMT_B, 0))
        assert sorted(f.label for f in store.formats("cam")) == sorted(
            [FMT_A.label, FMT_B.label]
        )
