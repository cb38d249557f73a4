"""Encoder instances and decode costs: cost charging, segment records."""

import pytest

from repro.clock import SimClock
from repro.codec.encoder import Encoder
from repro.errors import StorageError
from repro.retrieval.reader import SegmentReader
from repro.storage.disk import DiskModel
from repro.storage.kvstore import KVStore
from repro.storage.segment_store import SegmentStore
from repro.video.coding import Coding, RAW
from repro.video.fidelity import Fidelity
from repro.video.format import StorageFormat
from repro.video.segment import Segment


def _fmt(fid, coding):
    return StorageFormat(Fidelity.parse(fid), coding)


@pytest.fixture()
def clock():
    return SimClock()


def test_encode_charges_ingest_time(clock):
    enc = Encoder(clock=clock)
    fmt = _fmt("best-720p-1-100%", Coding("slowest", 250))
    enc.encode(Segment("s", 0), fmt, activity=0.35)
    expected = enc.model.encode_seconds_per_video_second(
        fmt.fidelity, fmt.coding) * 8.0
    assert clock.spent("ingest") == pytest.approx(expected)


def test_encoded_segment_record(clock):
    enc = Encoder(clock=clock)
    fmt = _fmt("good-540p-1/6-100%", Coding("fast", 10))
    out = enc.encode(Segment("cam", 5), fmt, activity=0.5)
    assert out.segment.index == 5
    assert out.fmt == fmt
    assert out.n_frames == int(5 * 8)  # 1/6 of 30 fps over 8 seconds
    assert out.size_bytes > 0
    assert out.payload is None
    assert out.key.startswith("cam/")


def test_materialized_payload_matches_size(clock):
    enc = Encoder(clock=clock)
    fmt = _fmt("bad-100p-1/30-50%", Coding("fastest", 5))
    out = enc.encode(Segment("cam", 0), fmt, activity=0.2, materialize=True)
    assert out.payload is not None
    assert len(out.payload) == max(1, out.size_bytes)


def test_materialized_payload_deterministic(clock):
    enc = Encoder(clock=clock)
    fmt = _fmt("bad-100p-1/30-50%", Coding("fastest", 5))
    a = enc.encode(Segment("cam", 0), fmt, 0.2, materialize=True)
    b = enc.encode(Segment("cam", 0), fmt, 0.2, materialize=True)
    assert a.payload == b.payload


def test_encoder_counters(clock):
    enc = Encoder(clock=clock)
    fmt = _fmt("good-540p-1-100%", Coding("med", 50))
    enc.encode(Segment("s", 0), fmt, 0.3)
    enc.encode(Segment("s", 1), fmt, 0.3)
    assert enc.segments_encoded == 2
    assert enc.bytes_produced > 0


@pytest.fixture()
def reader_for(tmp_path):
    """Builds a reader over a store holding just one encoded segment."""
    kvs = []

    def build(encoded, consumer):
        kv = KVStore(str(tmp_path / f"seg{len(kvs)}.log"))
        kvs.append(kv)
        store = SegmentStore(kv, DiskModel(clock=SimClock()))
        store.put(encoded)
        return SegmentReader(store, encoded.fmt, Fidelity.parse(consumer))

    yield build
    for kv in kvs:
        kv.close()


def test_decode_charges_decode_time(clock, reader_for):
    enc = Encoder(clock=clock)
    fmt = _fmt("best-720p-1-100%", Coding("slowest", 250))
    encoded = enc.encode(Segment("s", 0), fmt, 0.35)
    reader = reader_for(encoded, "good-540p-1-100%")
    (out,) = reader.assess_many("s", [0])
    # The retrieve task runs on the decoder and books "decode" time.
    assert reader.category == "decode"
    assert out.n_frames == encoded.n_frames  # same sampling: all frames
    assert out.retrieval_seconds == encoded.n_frames * enc.model.decode_frame_seconds(
        fmt.fidelity, fmt.coding
    )


def test_decode_with_chunk_skip(clock, reader_for):
    enc = Encoder(clock=clock)
    fmt = _fmt("best-720p-1-100%", Coding("fast", 10))
    encoded = enc.encode(Segment("s", 0), fmt, 0.35)
    reader = reader_for(encoded, "good-540p-1/30-100%")
    (out,) = reader.assess_many("s", [0])
    n_decoded = round(out.retrieval_seconds
                      / enc.model.decode_frame_seconds(fmt.fidelity,
                                                       fmt.coding))
    assert out.n_frames == 8  # one frame per second over 8 s
    assert n_decoded < encoded.n_frames  # chunks were skipped
    assert n_decoded >= out.n_frames


def test_decode_rejects_raw(clock, reader_for):
    # Raw segments are read from disk, never decoded: their retrieve
    # task books disk time, and only the disk transfer is costed.
    enc = Encoder(clock=clock)
    encoded = enc.encode(Segment("s", 0), _fmt("best-200p-1-100%", RAW), 0.35)
    reader = reader_for(encoded, "best-200p-1-100%")
    (out,) = reader.assess_many("s", [0])
    assert reader.category == "disk"
    disk = reader.store.disk
    frame_bytes = enc.model.raw_frame_bytes(encoded.fmt.fidelity)
    assert out.retrieval_seconds == (encoded.n_frames * frame_bytes
                                     / disk.read_bandwidth
                                     + disk.request_overhead)


def test_decode_rejects_poorer_store(clock, reader_for):
    enc = Encoder(clock=clock)
    encoded = enc.encode(
        Segment("s", 0), _fmt("good-200p-1/6-100%", Coding("med", 50)), 0.35
    )
    with pytest.raises(StorageError):
        reader_for(encoded, "best-540p-1/6-100%")
