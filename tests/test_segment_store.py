"""Segment store: per-format indexing and footprint accounting."""

import dataclasses
import os
import shutil
import tempfile

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.clock import SimClock
from repro.codec.encoder import Encoder
from repro.errors import StorageError
from repro.storage.kvstore import KVStore
from repro.storage.segment_store import (
    _EPOCH_KEY,
    SegmentStore,
    StoredSegment,
    _escape_label,
    _fmt_key,
    _parse_fmt,
    _unescape_label,
)
from repro.storage.sharding import ShardedDiskArray
from repro.video.coding import Coding, RAW, coding_space
from repro.video.fidelity import Fidelity, fidelity_space
from repro.video.format import StorageFormat
from repro.video.segment import Segment

FMT_A = StorageFormat(Fidelity.parse("good-540p-1/6-100%"), Coding("fast", 10))
FMT_B = StorageFormat(Fidelity.parse("best-200p-1-100%"), RAW)


@pytest.fixture()
def store(tmp_path):
    kv = KVStore(str(tmp_path / "segments.log"))
    yield SegmentStore(kv, ShardedDiskArray(1))
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
    spent = store.array.clock.spent("disk")
    store.meta("cam", FMT_A, 0)
    assert store.array.clock.spent("disk") == spent


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
    store = SegmentStore(kv, ShardedDiskArray(1))
    e = _encode(FMT_A, 0)
    store.put(e)
    kv.close()

    kv2 = KVStore(path)
    store2 = SegmentStore(kv2, ShardedDiskArray(1))
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
        assert len(store._buckets) == 2  # bucket still half full
        store.delete("cam", FMT_A, 1)
        assert len(store._buckets) == 1  # FMT_A bucket gone, not zeroed
        assert store.footprint("cam", FMT_A) == 0
        assert store.segment_count("cam", FMT_A) == 0
        store.delete("cam", FMT_B, 0)
        assert store._buckets == {}
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


# -- the books are the log ----------------------------------------------------

SMALL = Fidelity.parse("worst-60p-1/30-50%")  # byte-sized payloads
BOOK_FORMATS = (StorageFormat(SMALL, RAW), StorageFormat(SMALL, Coding("fast", 10)),
                StorageFormat(SMALL, Coding("fast", 100)))
BOOK_STREAMS = ("cam", "dash")
BOOK_INDICES = range(4)

_keys = st.tuples(st.sampled_from(BOOK_STREAMS), st.sampled_from(BOOK_FORMATS),
                  st.sampled_from(BOOK_INDICES))
#: ("put", key, activity, seconds, with a payload, epoch-tagged), and the
#: other writers; a put over a stored key overwrites it.
_steps = st.one_of(
    st.tuples(st.just("put"), _keys, st.sampled_from((0.1, 0.5, 0.9)),
              st.sampled_from((8.0, 4.0)), st.booleans(), st.booleans()),
    st.tuples(st.just("delete"), _keys),
    st.tuples(st.just("commit_replica"), _keys, st.integers(0, 3)),
    st.just(("rebalance",)),
    st.just(("commit_epoch",)),
    st.just(("reopen",)),
)


def _open(path, replication):
    kv = KVStore(path)
    return kv, SegmentStore(kv, ShardedDiskArray(4, replication=replication))


def _typed(value):
    """``value`` with each field's type beside it, so that comparing two
    of these compares types as well as values."""
    if isinstance(value, StoredSegment):
        return [(f.name, type(getattr(value, f.name)), getattr(value, f.name))
                for f in dataclasses.fields(value)]
    if isinstance(value, list):
        return [_typed(v) for v in value]
    return type(value), value


def _answers(store):
    """Everything a store answers from its books, over every key the
    steps can touch."""
    out = {"total": _typed(store.total_bytes()), "streams": store.streams()}
    for stream in BOOK_STREAMS:
        out["formats", stream] = store.formats(stream)
        out["footprint", stream] = _typed(store.footprint(stream))
        for fmt in BOOK_FORMATS:
            out["indices", stream, fmt] = _typed(store.indices(stream, fmt))
            out["footprint", stream, fmt] = _typed(store.footprint(stream, fmt))
            out["count", stream, fmt] = _typed(store.segment_count(stream, fmt))
            for index in BOOK_INDICES:
                out["meta", stream, fmt, index] = (
                    _typed(store.meta(stream, fmt, index))
                    if store.contains(stream, fmt, index) else None)
    return out


def _records(store):
    return {(stream, fmt_text, index): _typed(list(record))
            for (stream, fmt_text), bucket in store._buckets.items()
            for index, record in bucket.records.items()}


def _assert_books_are_the_log(store, path, model):
    """The live store answers what a fresh store over (a copy of) its log
    answers, and what the steps put there.

    The copy commits the in-flight epoch first, so the fresh store keeps
    an uncommitted epoch's records, as the live store does until it is
    reopened; the rollback itself is checked against ``model``.
    """
    store.kv.flush()
    copy = path + ".copy"
    shutil.copyfile(path, copy)
    with KVStore(copy) as kv:
        kv.put(_EPOCH_KEY, str(store.begin_epoch()).encode("utf-8"))
        fresh = SegmentStore(kv, ShardedDiskArray(
            4, replication=store.array.replication))
        assert _answers(store) == _answers(fresh)
        assert _records(store) == _records(fresh)
    os.remove(copy)
    for stream in BOOK_STREAMS:
        for fmt in BOOK_FORMATS:
            for index in BOOK_INDICES:
                encoded = model.get((stream, fmt, index))
                if encoded is None:
                    assert not store.contains(stream, fmt, index)
                    continue
                meta = store.meta(stream, fmt, index)
                assert (meta.size_bytes, meta.n_frames, meta.activity,
                        meta.seconds, meta.has_payload) == (
                    encoded.size_bytes, encoded.n_frames, encoded.activity,
                    encoded.segment.seconds, encoded.payload is not None)
                assert store.payload(stream, fmt, index) == encoded.payload
                assert meta.shard == store.shard_of(stream, fmt, index)
    assert store.total_bytes() == sum(e.size_bytes for e in model.values())


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(steps=st.lists(_steps, min_size=1, max_size=20),
       replication=st.sampled_from((1, 2)))
@example(steps=[  # a rebalance moves a materialized segment, a rebuilt
    # copy commits to an epoch-tagged one, and a delete empties a bucket
    ("put", ("cam", BOOK_FORMATS[0], 0), 0.5, 8.0, True, False),
    ("put", ("cam", BOOK_FORMATS[0], 2), 0.5, 8.0, False, True),
    ("rebalance",),
    ("commit_replica", ("cam", BOOK_FORMATS[0], 0), 3),
    ("commit_replica", ("cam", BOOK_FORMATS[0], 2), 3),
    ("commit_epoch",),
    ("put", ("dash", BOOK_FORMATS[2], 1), 0.9, 8.0, False, False),
    ("delete", ("dash", BOOK_FORMATS[2], 1)),
    ("reopen",),
], replication=2)
@example(steps=[  # a committed segment, overwritten in an epoch that a
    # reopen rolls back: the key is gone, not restored
    ("put", ("cam", BOOK_FORMATS[1], 0), 0.5, 8.0, True, False),
    ("put", ("cam", BOOK_FORMATS[1], 0), 0.9, 4.0, False, True),
    ("commit_replica", ("cam", BOOK_FORMATS[1], 0), 3),
    ("reopen",),
], replication=2)
@example(steps=[  # an unreplicated epoch-tagged record gains a copy set,
    # which its record then lists after the epoch
    ("put", ("cam", BOOK_FORMATS[0], 1), 0.5, 8.0, True, True),
    ("commit_replica", ("cam", BOOK_FORMATS[0], 1), 0),
    ("commit_replica", ("cam", BOOK_FORMATS[0], 1), 2),
    ("rebalance",),
    ("commit_epoch",),
    ("reopen",),
], replication=1)
def test_books_equal_a_fresh_store_over_the_same_log(steps, replication):
    """Every writer keeps the books equal to the log: after each step,
    every lookup equals, value and type alike, a fresh store's over the
    same log, and the books hold exactly the records it decodes."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "segments.log")
        kv, store = _open(path, replication)
        model = {}  # (stream, fmt, index) -> the EncodedSegment put there
        pending = set()  # keys whose latest put an uncommitted epoch tags
        try:
            for step in steps:
                kind = step[0]
                if kind == "put":
                    key, activity, seconds, payload, tagged = step[1:]
                    stream, fmt, index = key
                    encoded = Encoder(clock=SimClock()).encode(
                        Segment(stream, index, seconds), fmt,
                        activity=activity, materialize=payload)
                    store.put(encoded, epoch=(store.begin_epoch() if tagged
                                              else None))
                    model[key] = encoded
                    (pending.add if tagged else pending.discard)(key)
                elif kind == "delete":
                    key = step[1]
                    assert store.delete(*key) == (key in model)
                    model.pop(key, None)
                    pending.discard(key)
                elif kind == "commit_replica":
                    (stream, fmt, index), shard = step[1:]
                    fmt_text = _fmt_key(fmt)
                    if ((stream, fmt, index) in model and shard not in
                            store.array.replicas(stream, fmt_text, index)):
                        store.commit_replica(stream, fmt_text, index, shard)
                elif kind == "rebalance":
                    store.rebalance()
                elif kind == "commit_epoch":
                    store.commit_epoch(store.begin_epoch())
                    pending.clear()
                else:  # reopen: an uncommitted epoch's segments roll back
                    kv.close()
                    kv, store = _open(path, replication)
                    for key in pending:
                        del model[key]
                    pending.clear()
                _assert_books_are_the_log(store, path, model)
        finally:
            kv.close()
