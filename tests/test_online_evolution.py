"""Online evolution under query-mix drift: the end-to-end contract.

The scenario mirrors :mod:`repro.analysis.drift`: a store configured for
the query-B operators (whose golden format is rich enough to serve
anything) faces a drifted all-query-A mix.  These tests pin the four
load-bearing properties of the stack:

* the incremental re-planner is a no-op on a stationary mix and matches
  the from-scratch derivation;
* ``evolve_online`` materializes the missing formats with background
  jobs, commits the epoch, retires dropped formats, and actually makes
  the drifted queries cheaper;
* foreground query *results* are bit-identical with and without
  background jobs contending — evolution may slow queries down, never
  change their answers;
* an epoch that never committed rolls back at reopen (crash recovery),
  while a committed evolution survives a restart byte-for-byte.
"""

import pytest

from repro.clock import SimClock
from repro.codec.decoder import DecoderPool
from repro.codec.encoder import Encoder
from repro.core.config import derive_configuration
from repro.core.evolve import (
    decide_consumers,
    legacy_configuration,
    reencode_jobs,
    replan_incremental,
)
from repro.core.store import VStore
from repro.operators.library import Consumer, default_library
from repro.query.scheduler import OperatorContextPool
from repro.storage.disk import DiskBandwidthPool
from repro.units import SEGMENT_SECONDS

PHASE1 = (Consumer("Motion", 0.9), Consumer("License", 0.9),
          Consumer("OCR", 0.9))
PHASE2 = (Consumer("Diff", 0.9), Consumer("S-NN", 0.9), Consumer("NN", 0.9))
OPERATORS = tuple(c.operator for c in PHASE1 + PHASE2)
N_SEGMENTS = 4
T1 = N_SEGMENTS * SEGMENT_SECONDS - 1.0


def build_store(workdir, consumers=PHASE1, shards=1) -> VStore:
    store = VStore(workdir=str(workdir),
                   library=default_library(names=OPERATORS), shards=shards)
    store.configure(consumers=list(consumers))
    store.ingest("jackson", n_segments=N_SEGMENTS)
    return store


def specs(query: str, count: int):
    return [{"query": query, "dataset": "jackson", "accuracy": 0.9,
             "t0": 0.0, "t1": T1} for _ in range(count)]


def adopt_legacy(store: VStore) -> None:
    decisions = decide_consumers(
        store.library, PHASE2, clock=store.clock,
        known={d.consumer: d for d in store.configuration.decisions},
    )
    store.adopt(legacy_configuration(store.configuration, decisions))


def pools():
    return {"disk_pool": DiskBandwidthPool(1),
            "decoder_pool": DecoderPool(1),
            "operator_pool": OperatorContextPool(2)}


def retrieval_seconds(outcomes):
    return sum(t.duration
               for o in outcomes if o.session.klass == 0
               for stage in o.session.plan.stages
               for t in stage.tasks if t.kind == "retrieve")


# -- incremental re-planning --------------------------------------------------


def test_stationary_replan_is_a_noop(tmp_path):
    with build_store(tmp_path) as store:
        config = store.configuration
        replan = replan_incremental(config, store.library, list(PHASE1))
        assert not replan.changed
        assert not replan.added and not replan.removed
        assert ({sf.label for sf in replan.configuration.plan.formats}
                == {sf.label for sf in config.plan.formats})
        # Every consumer was already decided: zero new profiling runs.
        assert replan.configuration.stats.operator_runs == 0


def test_incremental_matches_from_scratch_on_stationary_mix(tmp_path):
    with build_store(tmp_path) as store:
        replan = replan_incremental(store.configuration, store.library,
                                    list(PHASE1))
        scratch = derive_configuration(
            store.library, consumers=list(PHASE1),
            profile_datasets=store.profile_datasets,
        )
        assert ({sf.label for sf in replan.configuration.plan.formats}
                == {sf.label for sf in scratch.plan.formats})
        golden = next(sf.label for sf in replan.configuration.plan.formats
                      if sf.golden)
        assert golden == next(sf.label for sf in scratch.plan.formats
                              if sf.golden)


def test_replan_warm_start_reuses_coding_memos(tmp_path):
    with build_store(tmp_path) as store:
        profiler = store.configuration.coding_profiler
        runs_before = profiler.stats.runs
        hits_before = profiler.stats.memo_hits
        replan_incremental(store.configuration, store.library, list(PHASE1))
        # Stationary: every coding-surface probe is a memo hit on the
        # warm profiler — not a single fresh run.
        assert profiler.stats.runs == runs_before
        assert profiler.stats.memo_hits > hits_before


def test_replan_rejects_empty_mix(tmp_path):
    from repro.errors import ConfigurationError

    with build_store(tmp_path) as store:
        with pytest.raises(ConfigurationError):
            replan_incremental(store.configuration, store.library, [])


# -- evolve_online ------------------------------------------------------------


@pytest.fixture()
def drifted_store(tmp_path):
    """Phase-1 store that served phase-1, then saw a drifted phase-2 mix."""
    with build_store(tmp_path / "drifted") as store:
        store.execute_many(specs("B", 4))
        adopt_legacy(store)
        store.execute_many(specs("A", 4))
        yield store


def test_evolve_online_materializes_commits_and_improves(drifted_store):
    store = drifted_store
    assert store.drift.drifted
    before = retrieval_seconds(store.execute_many(specs("A", 2))) / 2.0

    report = store.evolve_online(foreground=specs("A", 1), **pools())
    replan = report.replan
    assert replan.changed and replan.added
    assert report.epoch == 1
    assert store.segments.committed_epoch == 1
    assert report.reencoded_segments == N_SEGMENTS * len(replan.added)
    # Every added format is now materialized for every stored segment...
    for sf in replan.added:
        assert store.segments.indices("jackson", sf.fmt) == \
            list(range(N_SEGMENTS))
    # ...and every dropped format is gone.
    for sf in replan.removed:
        assert store.segments.indices("jackson", sf.fmt) == []
    # The shared run really interleaved foreground and background work.
    assert len(report.foreground) == 1
    assert report.jobs
    assert report.stats.makespan > 0

    after = retrieval_seconds(store.execute_many(specs("A", 2))) / 2.0
    assert after < 0.5 * before
    # Adopting the evolved plan re-pinned the drift baseline.
    store.execute_many(specs("A", 4))
    assert store.drift.drift_score() < store.drift.threshold


def test_last_run_is_the_retirement_run(drifted_store):
    """evolve_online makes two runs, and the store's last run is the
    second: the retirement jobs."""
    store = drifted_store
    report = store.evolve_online(foreground=specs("A", 1), **pools())
    assert report.retired_segments > 0
    retirement = report.outcomes[report.stats.n_queries:]
    assert store.last_run.outcomes == retirement
    assert all(o.session.query.name.startswith("retire:")
               for o in retirement)
    # The fixture's two runs, then evolution's shared and retirement runs.
    assert store.metrics.snapshot()["counters"]["executor.runs"] == 4


def test_evolution_preserves_query_answers(drifted_store):
    store = drifted_store
    before = store.execute_many(specs("A", 1) + specs("B", 1))
    store.evolve_online(**pools())
    after = store.execute_many(specs("A", 1) + specs("B", 1))
    for pre, post in zip(before, after):
        assert post.result.positives_per_stage == \
            pre.result.positives_per_stage
        assert post.result.segments_per_stage == \
            pre.result.segments_per_stage


def test_foreground_results_bit_identical_under_contention(tmp_path):
    """The acceptance bar: background jobs may delay foreground queries,
    but their results — positives, segment counts, planned task durations —
    are bit-identical to an uncontended run of the same specs."""
    fleet = specs("A", 2) + specs("B", 1)

    with build_store(tmp_path / "alone") as alone:
        adopt_legacy(alone)
        baseline = alone.execute_many(fleet, **pools())

    with build_store(tmp_path / "contended") as store:
        adopt_legacy(store)
        store.execute_many(specs("A", 4))  # warm the drift window
        report = store.evolve_online(foreground=fleet, **pools())

    assert len(report.foreground) == len(baseline)
    for base, contended in zip(baseline, report.foreground):
        assert contended.session.klass == 0
        assert contended.result.positives_per_stage == \
            base.result.positives_per_stage
        assert contended.result.segments_per_stage == \
            base.result.segments_per_stage
        base_tasks = [(t.kind, t.duration)
                      for st in base.session.plan.stages for t in st.tasks]
        cont_tasks = [(t.kind, t.duration)
                      for st in contended.session.plan.stages
                      for t in st.tasks]
        assert base_tasks == cont_tasks
    # Background jobs ran in class 1 and did real work on shared pools.
    assert all(o.session.klass == 1 for o in report.jobs)
    assert report.stats.busy_seconds


def test_evolve_without_drift_is_harmless(tmp_path):
    with build_store(tmp_path) as store:
        store.execute_many(specs("B", 4))
        report = store.evolve_online(**pools())
        assert not report.replan.changed
        assert report.reencoded_segments == 0
        assert report.retired_segments == 0


# -- crash recovery (format epochs) -------------------------------------------


def test_reencode_reads_fold_in_a_degraded_shard(tmp_path):
    """A re-encode job reads each golden segment as a foreground read
    would: from the serving shard, at its degraded bandwidth."""
    with build_store(tmp_path / "degraded", shards=2) as store:
        for shard in range(store.n_shards):
            store.disk_array.degrade_shard(shard, 8.0)
        segments = store.segments
        golden = store.configuration.plan.golden.fmt
        (job,) = reencode_jobs(segments, "jackson", [golden], golden,
                               epoch=segments.begin_epoch())
        reads = [task for task in job.tasks if task.kind == "read"]
        assert len(reads) == N_SEGMENTS
        for index, task in enumerate(reads):
            bandwidth, overhead = segments.array.read_params_at(
                segments.shard_of("jackson", golden, index))
            size = segments.meta("jackson", golden, index).size_bytes
            assert task.duration == size / bandwidth + overhead


def test_uncommitted_epoch_rolls_back_at_reopen(drifted_store):
    store = drifted_store
    segments = store.segments
    golden = store.configuration.plan.golden.fmt
    meta = segments.meta("jackson", golden, 0)
    target = next(
        sf.fmt for sf in replan_incremental(
            store.configuration, store.library,
            store.drift.demanded_consumers(),
        ).added
    )

    epoch = segments.begin_epoch()
    encoded = Encoder(SimClock()).encode(
        meta.segment, target, meta.activity
    )
    segments.put(encoded, epoch=epoch, charge=False)
    assert segments.indices("jackson", target) == [0]

    # Crash before commit_epoch: the orphan segment must not survive.
    store.reopen()
    assert store.segments.committed_epoch == 0
    assert store.segments.indices("jackson", target) == []
    assert store.segments.indices("jackson", golden) == \
        list(range(N_SEGMENTS))


def test_committed_evolution_survives_reopen(drifted_store):
    store = drifted_store
    report = store.evolve_online(**pools())
    assert report.replan.changed
    before = store.execute_many(specs("A", 1))

    store.reopen()
    assert store.segments.committed_epoch == report.epoch
    for sf in report.replan.added:
        assert store.segments.indices("jackson", sf.fmt) == \
            list(range(N_SEGMENTS))
    after = store.execute_many(specs("A", 1))
    assert retrieval_seconds(after) == retrieval_seconds(before)
    assert after[0].result.positives_per_stage == \
        before[0].result.positives_per_stage
