"""Ingestion: budgets, transcoder fan-out, pipeline accounting."""

from collections import Counter

import pytest

from repro.clock import SimClock
from repro.errors import BudgetError
from repro.ingest.budget import IngestBudget, cores_required
from repro.ingest.pipeline import IngestionPipeline
from repro.ingest.transcoder import Transcoder
from repro.storage.kvstore import KVStore
from repro.storage.segment_store import SegmentStore
from repro.storage.sharding import ShardedDiskArray
from repro.units import DAY, GB
from repro.video import content, datasets
from repro.video.coding import Coding, RAW
from repro.video.content import ContentModel
from repro.video.fidelity import Fidelity, INGEST_FPS
from repro.video.format import StorageFormat
from repro.video.segment import Segment

FORMATS = [
    StorageFormat(Fidelity.parse("best-720p-1-100%"), Coding("slowest", 250)),
    StorageFormat(Fidelity.parse("good-540p-1/6-100%"), Coding("slow", 250)),
    StorageFormat(Fidelity.parse("best-200p-1-100%"), RAW),
]


class TestBudget:
    def test_cores_required_sums_encode_costs(self):
        total = cores_required(FORMATS)
        parts = [cores_required([f]) for f in FORMATS]
        assert total == pytest.approx(sum(parts))
        assert total > 1.0  # the golden slowest format alone needs cores

    def test_unlimited_budget_allows_anything(self):
        assert IngestBudget().allows(FORMATS)
        assert IngestBudget().headroom(FORMATS) == float("inf")

    def test_tight_budget_rejects(self):
        assert not IngestBudget(0.1).allows(FORMATS)
        assert IngestBudget(0.1).headroom(FORMATS) < 0

    def test_allows_and_headroom_agree_at_the_boundary(self):
        """Regression: ``allows`` used a 1e-9 tolerance that ``headroom``
        lacked, so a set could be allowed yet report negative headroom."""
        required = cores_required(FORMATS)
        # exactly on budget
        exact = IngestBudget(required)
        assert exact.allows(FORMATS)
        assert exact.headroom(FORMATS) >= 0.0
        # over budget by less than the tolerance: allowed, zero headroom
        within = IngestBudget(required - 5e-10)
        assert within.allows(FORMATS)
        assert within.headroom(FORMATS) == 0.0
        # over budget beyond the tolerance: rejected, negative headroom
        beyond = IngestBudget(required - 1e-6)
        assert not beyond.allows(FORMATS)
        assert beyond.headroom(FORMATS) < 0.0

    @pytest.mark.parametrize("cores", [0.1, 1.0, 2.5, 100.0, None])
    def test_allows_iff_headroom_nonnegative(self, cores):
        budget = IngestBudget(cores)
        assert budget.allows(FORMATS) == (budget.headroom(FORMATS) >= 0.0)


class TestTranscoder:
    def test_fan_out_one_segment_per_format(self):
        t = Transcoder(FORMATS, clock=SimClock())
        outs = t.transcode(Segment("cam", 0), activity=0.4)
        assert [o.fmt for o in outs] == FORMATS

    def test_cpu_utilization_metric(self):
        t = Transcoder(FORMATS, clock=SimClock())
        assert t.cpu_utilization_percent == pytest.approx(
            t.cores_required * 100.0
        )

    def test_budget_enforced_at_construction(self):
        with pytest.raises(BudgetError):
            Transcoder(FORMATS, budget=IngestBudget(0.01))


@pytest.fixture()
def store(tmp_path):
    kv = KVStore(str(tmp_path / "seg.log"))
    yield SegmentStore(kv, ShardedDiskArray(1))
    kv.close()


class TestPipeline:
    def test_ingest_segments_stores_everything(self, store):
        pipe = IngestionPipeline("tucson", FORMATS, store=store,
                                 clock=SimClock())
        pipe.ingest_segments(4)
        for fmt in FORMATS:
            assert store.indices("tucson", fmt) == [0, 1, 2, 3]

    def test_ingest_requires_store(self):
        pipe = IngestionPipeline("tucson", FORMATS, clock=SimClock())
        with pytest.raises(ValueError):
            pipe.ingest_segments(1)

    def test_ingest_charges_clock(self, store):
        clock = SimClock()
        pipe = IngestionPipeline("tucson", FORMATS, store=store, clock=clock)
        pipe.ingest_segments(2)
        assert clock.spent("ingest") > 0

    def test_report_extrapolates_day(self):
        pipe = IngestionPipeline("jackson", FORMATS, clock=SimClock())
        report = pipe.report()
        assert report.bytes_per_day == pytest.approx(
            report.bytes_per_second * DAY
        )
        assert set(report.per_format_bytes_per_second) == {
            f.label for f in FORMATS
        }
        assert report.bytes_per_second == pytest.approx(
            sum(report.per_format_bytes_per_second.values())
        )
        # A handful of formats lands in the tens-to-hundreds of GB/day.
        assert 10 * GB < report.bytes_per_day < 3000 * GB

    def test_dashcam_costs_more_than_park(self):
        """Figure 11b: intense motion makes dashcam the most expensive
        stream to store by a wide margin (for encoded formats; raw frames
        do not care about motion)."""
        encoded = FORMATS[:2]
        dash = IngestionPipeline("dashcam", encoded, clock=SimClock()).report()
        park = IngestionPipeline("park", encoded, clock=SimClock()).report()
        assert dash.bytes_per_day > 1.8 * park.bytes_per_day

    def test_activity_cached(self):
        pipe = IngestionPipeline("jackson", FORMATS, clock=SimClock())
        a = pipe.mean_activity()
        assert pipe.mean_activity() == a


class TestSharedGroundTruth:
    """Stream aliases of one dataset read one content model."""

    ALIASES = ("cam0", "cam1", "cam2", "cam3")
    SEGMENTS = 12  # 96 s of footage, so two track windows

    def ingest_aliases(self, store, dataset):
        for alias in self.ALIASES:
            IngestionPipeline(dataset, FORMATS, store=store, clock=SimClock(),
                              stream=alias).ingest_segments(self.SEGMENTS)

    def test_aliases_generate_each_window_and_clip_each_segment_once(
            self, store, monkeypatch):
        monkeypatch.setattr(datasets, "_MODELS", {})  # no model built yet
        windows, clips = Counter(), Counter()

        def counted_rng_for(*key, _rng_for=content.rng_for):
            if key[1] == "window":
                windows[key] += 1
            return _rng_for(*key)

        def counted_clip(model, t0, duration, fps=INGEST_FPS,
                         _clip=ContentModel.clip):
            clips[t0, duration, fps] += 1
            return _clip(model, t0, duration, fps)

        monkeypatch.setattr(content, "rng_for", counted_rng_for)
        monkeypatch.setattr(ContentModel, "clip", counted_clip)
        self.ingest_aliases(store, "tucson")
        assert windows == {("tucson", "window", 0): 1,
                           ("tucson", "window", 1): 1}
        assert clips == {(Segment("cam0", i).t0, 8.0, 2): 1
                         for i in range(self.SEGMENTS)}

    @pytest.mark.parametrize("dataset", ["jackson", "dashcam"])
    def test_recorded_activity_equals_a_fresh_models(self, store, dataset):
        self.ingest_aliases(store, dataset)
        params = datasets.get_dataset(dataset).params
        for alias in self.ALIASES:
            # One model per stream, as each pipeline once built its own.
            fresh = ContentModel(dataset, params)
            for fmt in FORMATS:
                assert store.indices(alias, fmt) == list(range(self.SEGMENTS))
                for index in range(self.SEGMENTS):
                    meta = store.meta(alias, fmt, index)
                    want = fresh.clip(meta.segment.t0, meta.seconds,
                                      fps=2).mean_activity()
                    assert meta.activity.hex() == want.hex()
