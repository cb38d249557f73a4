"""The vectorized profiling plane must be bit-identical to the scalar path.

Every ProfileTable cell is checked against the per-call scalar code it
replaces: exact float equality, not approx — the planner's plans (and the
paper tables derived from them) must not move by a ULP when the table is
switched on.
"""

import pytest

from repro.codec.model import DEFAULT_CODEC
from repro.codec.tables import clear_profile_table_cache, get_profile_table
from repro.errors import CodecError
from repro.profiler.coding_profiler import CodingProfiler
from repro.retrieval.speed import retrieval_speed
from repro.storage.disk import DEFAULT_DISK
from repro.video.coding import Coding, RAW, coding_space
from repro.video.fidelity import Fidelity, SAMPLING_RATES, fidelity_space
from repro.video.format import StorageFormat

from oracles import scalar_profiler

ACTIVITY = 0.6


@pytest.fixture(scope="module")
def table():
    return get_profile_table(DEFAULT_CODEC, DEFAULT_DISK, ACTIVITY)


@pytest.fixture(scope="module")
def fidelity_sample():
    # Every 7th option covers all knob values in under a second of checks.
    return list(fidelity_space())[::7]


class TestGridParity:
    def test_encoded_profiles_match_scalar(self, table, fidelity_sample):
        for fid in fidelity_sample:
            for coding in coding_space(include_raw=False):
                fmt = StorageFormat(fid, coding)
                assert table.profile_values(fmt) == (
                    DEFAULT_CODEC.encoded_bytes_per_second(
                        fid, coding, ACTIVITY
                    ),
                    DEFAULT_CODEC.encode_seconds_per_video_second(
                        fid, coding
                    ),
                    retrieval_speed(fmt, None, DEFAULT_CODEC, DEFAULT_DISK),
                )

    def test_raw_profiles_match_scalar(self, table, fidelity_sample):
        for fid in fidelity_sample:
            fmt = StorageFormat(fid, RAW)
            assert table.profile_values(fmt) == (
                DEFAULT_CODEC.raw_bytes_per_second(fid),
                DEFAULT_CODEC.encode_seconds_per_video_second(fid, RAW),
                retrieval_speed(fmt, None, DEFAULT_CODEC, DEFAULT_DISK),
            )

    def test_retrieval_matches_scalar_per_sampling(
        self, table, fidelity_sample
    ):
        for fid in fidelity_sample[::5]:
            for coding in list(coding_space(include_raw=False))[::3] + [RAW]:
                fmt = StorageFormat(fid, coding)
                for sampling in SAMPLING_RATES:
                    try:
                        expected = retrieval_speed(
                            fmt, sampling, DEFAULT_CODEC, DEFAULT_DISK
                        )
                    except CodecError:
                        # Consumer faster than the store: the table returns
                        # None and the profiler falls back (and raises).
                        assert table.retrieval_speed(fmt, sampling) is None
                        continue
                    assert table.retrieval_speed(fmt, sampling) == expected

    def test_storage_rank_matches_scalar_sort(self, table, fidelity_sample):
        for fid in fidelity_sample[::10]:
            expected = sorted(
                coding_space(include_raw=False),
                key=lambda c: DEFAULT_CODEC.encoded_bytes_per_second(
                    fid, c, ACTIVITY
                ),
            )
            assert list(table.storage_rank(fid)) == expected


class TestTableCache:
    def test_tables_shared_per_key(self):
        a = get_profile_table(DEFAULT_CODEC, DEFAULT_DISK, 0.41)
        b = get_profile_table(DEFAULT_CODEC, DEFAULT_DISK, 0.41)
        assert a is b
        assert get_profile_table(DEFAULT_CODEC, DEFAULT_DISK, 0.42) is not a

    def test_profilers_share_one_table(self):
        p1 = CodingProfiler(activity=0.43)
        p2 = CodingProfiler(activity=0.43)
        assert p1.table is p2.table

    def test_clear_cache_rebuilds(self):
        a = get_profile_table(DEFAULT_CODEC, DEFAULT_DISK, 0.44)
        clear_profile_table_cache()
        assert get_profile_table(DEFAULT_CODEC, DEFAULT_DISK, 0.44) is not a


class TestProfilerModes:
    def test_scalar_path_is_not_an_option(self):
        with pytest.raises(TypeError):
            CodingProfiler(activity=ACTIVITY, use_table=False)

    def test_profile_identical_with_and_without_table(self):
        scalar = scalar_profiler(activity=ACTIVITY)
        table = CodingProfiler(activity=ACTIVITY)
        for fid in list(fidelity_space())[::37]:
            for coding in [RAW] + list(coding_space(include_raw=False))[::7]:
                fmt = StorageFormat(fid, coding)
                a, b = scalar.profile(fmt), table.profile(fmt)
                assert a.bytes_per_second == b.bytes_per_second
                assert a.ingest_cost == b.ingest_cost
                assert a.base_retrieval_speed == b.base_retrieval_speed
        # Identical simulated profiling effort, too.
        assert scalar.stats.runs == table.stats.runs
        assert scalar.stats.seconds == table.stats.seconds

    def test_retrieval_speed_memoized_per_sampling(self):
        from fractions import Fraction

        prof = CodingProfiler(activity=0.4)
        fmt = StorageFormat(Fidelity.parse("best-540p-1-100%"),
                            Coding("fast", 10))
        first = prof.retrieval_speed(fmt, Fraction(1, 30))
        runs, hits = prof.stats.runs, prof.stats.memo_hits
        again = prof.retrieval_speed(fmt, Fraction(1, 30))
        assert again == first
        assert prof.stats.runs == runs  # no new profiling run
        assert prof.stats.memo_hits == hits + 1  # one memoized lookup
        # A different sampling rate is a different memo entry, not a rerun.
        prof.retrieval_speed(fmt, Fraction(1))
        assert prof.stats.runs == runs
