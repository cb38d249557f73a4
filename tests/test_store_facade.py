"""The VStore facade: configure / ingest / query / execute / age."""

import pytest

from repro.core.store import VStore
from repro.errors import ConfigurationError, QueryError
from repro.operators.library import default_library
from repro.units import DAY


@pytest.fixture(scope="module")
def store(tmp_path_factory):
    workdir = str(tmp_path_factory.mktemp("vstore"))
    lib = default_library(names=("Diff", "S-NN", "NN", "Motion", "License",
                                 "OCR"))
    with VStore(workdir=workdir, library=lib) as s:
        s.configure()
        yield s


def test_configure_is_cached(store):
    a = store.configure()
    b = store.configure()
    assert a is b
    assert store.configure(force=True) is not a


def test_unconfigured_store_rejects_use(tmp_path):
    s = VStore()
    with pytest.raises(ConfigurationError):
        _ = s.configuration


def test_analytic_query(store):
    report = store.query("A", dataset="jackson", accuracy=0.9,
                         duration=3600.0)
    assert report.speed > 1.0
    assert report.scheme == "VStore"


def test_ingest_and_execute(store):
    store.ingest("jackson", n_segments=6)
    result = store.execute("A", dataset="jackson", accuracy=0.8,
                           t0=0.0, t1=48.0)
    assert result.video_seconds == 48.0
    assert result.compute_seconds > 0
    assert result.speed > 1.0
    # The cascade narrows: later stages touch no more segments.
    touched = [result.segments_per_stage[op] for op in ("Diff", "S-NN", "NN")]
    assert touched == sorted(touched, reverse=True)
    assert touched[0] == 6


def test_execute_is_an_observed_run(tmp_path):
    """execute runs through the store's one run path: the run becomes
    last_run and feeds the drift detector and the metrics registry."""
    lib = default_library(names=("Diff", "S-NN", "NN"))
    with VStore(workdir=str(tmp_path / "w"), library=lib) as s:
        s.configure()
        s.ingest("jackson", n_segments=2)
        result = s.execute("A", dataset="jackson", accuracy=0.8,
                           t0=0.0, t1=16.0)
        [outcome] = s.last_run.outcomes
        assert outcome.result is result
        assert s.drift.samples == 1
        counters = s.metrics.snapshot()["counters"]
        assert counters["executor.runs"] == 1
        assert counters["executor.queries"] == 1


def test_execution_beats_golden_only_scheme(store):
    """End to end through real storage: the derived SF set outruns
    consuming from the golden format (Figure 11a's mechanism)."""
    from repro.query.alternatives import one_to_n_scheme

    store.ingest("jackson", n_segments=4)
    vstore = store.execute("A", "jackson", 0.8, 0.0, 32.0)
    capped = store.execute_many([dict(
        query="A", dataset="jackson", accuracy=0.8, t0=0.0, t1=32.0,
        scheme=one_to_n_scheme(store.configuration),
    )])[0].result
    assert vstore.speed >= capped.speed


def test_ingestion_report(store):
    report = store.ingestion_report("jackson")
    assert report.cores_required > 0
    assert report.bytes_per_day > 0


def test_age_executes_erosion(tmp_path):
    lib = default_library(names=("Motion", "License", "OCR"))
    with VStore(workdir=str(tmp_path / "w"), library=lib,
                lifespan_days=2) as s:
        config = s.configure()
        s.ingest("dashcam", n_segments=10)
        # Far in the future: everything is past the 2-day lifespan.
        deleted = s.age("dashcam", now_seconds=10 * DAY)
        assert deleted == 10 * len(config.storage_formats)


def test_execute_requires_workdir():
    s = VStore()
    s.configure()
    with pytest.raises(QueryError):
        s.execute("A", dataset="jackson", accuracy=0.9, t0=0.0, t1=8.0)


def test_empty_execute_range_rejected(store):
    with pytest.raises(QueryError):
        store.execute("A", dataset="jackson", accuracy=0.9, t0=8.0, t1=8.0)


def test_close_is_idempotent(tmp_path):
    s = VStore(workdir=str(tmp_path / "w"))
    s.close()
    s.close()  # second close must be a no-op, not an error
    assert s.closed
    with VStore(workdir=str(tmp_path / "w2")) as nested:
        nested.close()  # __exit__ after an explicit close is fine too
    assert nested.closed


def test_closed_store_rejects_use(tmp_path):
    from repro.errors import StorageError

    lib = default_library(names=("Diff", "S-NN", "NN"))
    s = VStore(workdir=str(tmp_path / "w"), library=lib)
    s.configure()
    s.ingest("jackson", n_segments=2)
    s.close()
    with pytest.raises(StorageError, match="closed"):
        s.engine("jackson")
    with pytest.raises(StorageError, match="closed"):
        s.execute("A", dataset="jackson", accuracy=0.9, t0=0.0, t1=8.0)
    with pytest.raises(StorageError, match="closed"):
        s.ingest("jackson", n_segments=1)
    with pytest.raises(StorageError, match="closed"):
        s.executor()
    with pytest.raises(StorageError, match="closed"):
        s.age("jackson", now_seconds=0.0)


def test_close_without_workdir_still_guards(tmp_path):
    from repro.errors import StorageError

    s = VStore()
    s.configure()
    s.close()
    s.close()
    with pytest.raises(StorageError, match="closed"):
        s.query("A", dataset="jackson", accuracy=0.9, duration=60.0)
