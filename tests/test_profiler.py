"""Operator and coding profilers: memoization and accounting."""

import pytest

from repro.clock import SimClock
from repro.operators.library import default_library
from repro.profiler.coding_profiler import CodingProfiler
from repro.profiler.profiler import OperatorProfiler, select_profile_clip
from repro.video.coding import Coding, RAW
from repro.video.fidelity import Fidelity, richest_fidelity
from repro.video.format import StorageFormat


def test_profile_measures_accuracy_and_speed(jackson_profiler):
    p = jackson_profiler.profile("NN", richest_fidelity())
    assert p.accuracy == pytest.approx(1.0, abs=1e-6)
    assert p.consumption_speed > 0


def test_memoization_avoids_repeated_runs():
    lib = default_library(names=("Diff",))
    prof = OperatorProfiler(lib, "tucson")
    fid = Fidelity.parse("good-200p-1/6-100%")
    first = prof.profile("Diff", fid)
    runs = prof.stats.runs
    second = prof.profile("Diff", fid)
    assert second is first
    assert prof.stats.runs == runs
    assert prof.stats.memo_hits == 1


def test_profiling_charges_simulated_time():
    lib = default_library(names=("License",))
    clock = SimClock()
    prof = OperatorProfiler(lib, "dashcam", clock=clock)
    prof.profile("License", richest_fidelity())
    assert clock.spent("profiling") > 0
    assert prof.stats.seconds == pytest.approx(clock.spent("profiling"))
    assert prof.stats.runs_by_operator["License"] == 1


def test_slow_operators_dominate_profiling_time():
    """Figure 14: License contributes most of the profiling delay."""
    lib = default_library(names=("Diff", "License"))
    prof = OperatorProfiler(lib, "dashcam")
    fid = richest_fidelity()
    prof.profile("Diff", fid)
    prof.profile("License", fid)
    t = prof.stats.seconds_by_operator
    assert t["License"] > 3 * t["Diff"]


def test_reset_and_clear(jackson_profiler):
    lib = default_library(names=("Diff",))
    prof = OperatorProfiler(lib, "tucson")
    fid = richest_fidelity()
    prof.profile("Diff", fid)
    prof.reset_stats()
    assert prof.stats.runs == 0
    prof.clear_memo()
    prof.profile("Diff", fid)
    assert prof.stats.runs == 1


def test_select_profile_clip_has_content():
    for dataset in ("jackson", "miami", "tucson", "dashcam", "park", "airport"):
        clip = select_profile_clip(dataset)
        assert len(clip.tracks) >= 2
        assert any(t.plate for t in clip.tracks)


def test_coding_profiler_memoizes():
    prof = CodingProfiler(activity=0.4)
    fmt = StorageFormat(Fidelity.parse("good-540p-1/6-100%"), Coding("med", 50))
    a = prof.profile(fmt)
    assert prof.stats.runs == 1
    b = prof.profile(fmt)
    assert b is a
    assert prof.stats.memo_hits == 1


def test_coding_profile_values():
    prof = CodingProfiler(activity=0.4)
    fmt = StorageFormat(richest_fidelity(), Coding("slowest", 250))
    p = prof.profile(fmt)
    assert p.bytes_per_second > 0
    assert p.ingest_cost > 0
    assert p.base_retrieval_speed > 1


def test_coding_profiler_raw_format():
    prof = CodingProfiler(activity=0.4)
    fmt = StorageFormat(Fidelity.parse("best-200p-1-100%"), RAW)
    p = prof.profile(fmt)
    assert p.bytes_per_second == 200 * 200 * 1.5 * 30
    assert p.ingest_cost < 0.01


def test_retrieval_speed_accounts_profiling():
    from fractions import Fraction
    prof = CodingProfiler(activity=0.4)
    fmt = StorageFormat(Fidelity.parse("best-540p-1-100%"), Coding("fast", 10))
    sparse = prof.retrieval_speed(fmt, Fraction(1, 30))
    dense = prof.retrieval_speed(fmt, Fraction(1))
    assert sparse > dense  # chunk skipping
    assert prof.stats.runs == 1  # one unique format profiled
