"""Figure 6: video retrieval can bottleneck consumption.

(a) License: consumption can outrun decoding when the on-disk video is the
    richest ingest format, but not when stored at the consumed fidelity;
(b) Motion: consumption outruns decoding even at matching fidelity — such
    consumers need raw frames.
"""

from repro.profiler.profiler import OperatorProfiler
from repro.retrieval.speed import retrieval_speed
from repro.video.coding import Coding, RAW
from repro.video.fidelity import Fidelity, richest_fidelity
from repro.video.format import StorageFormat

CODING = Coding("slowest", 250)


def test_fig6a_license(benchmark, record, full_library):
    profiler = OperatorProfiler(full_library, "dashcam")
    fidelities = [
        Fidelity.parse("good-540p-1/6-75%"),
        Fidelity.parse("bad-540p-1/6-100%"),
        Fidelity.parse("good-540p-1/6-100%"),
    ]

    def measure():
        rows = []
        golden = StorageFormat(richest_fidelity(), CODING)
        for fid in fidelities:
            profile = profiler.profile("License", fid)
            from_golden = retrieval_speed(golden, fid.sampling)
            same_fid = retrieval_speed(StorageFormat(fid, CODING),
                                       fid.sampling)
            rows.append((fid.label, profile.accuracy,
                         profile.consumption_speed, from_golden, same_fid))
        return rows

    rows = benchmark(measure)
    lines = [f"{'fidelity':>22} {'F1':>5} {'consume':>9} {'dec@golden':>11} "
             f"{'dec@same':>9}"]
    for label, acc, cons, golden, same in rows:
        lines.append(f"{label:>22} {acc:>5.2f} {cons:>8.0f}x {golden:>10.0f}x "
                     f"{same:>8.0f}x")
    record("Figure 6a — License", "\n".join(lines))

    for _, _, cons, from_golden, same_fid in rows:
        # Decoding the golden format bottlenecks consumption...
        assert cons > from_golden
        # ...while decoding video stored at the consumed fidelity keeps up.
        assert same_fid > cons


def test_fig6b_motion_needs_raw(benchmark, record, full_library):
    profiler = OperatorProfiler(full_library, "dashcam")
    fidelities = [
        Fidelity.parse("bad-180p-1/6-100%"),
        Fidelity.parse("best-180p-1-100%"),
    ]

    def measure():
        rows = []
        for fid in fidelities:
            profile = profiler.profile("Motion", fid)
            same_fid = retrieval_speed(StorageFormat(fid, CODING),
                                       fid.sampling)
            raw = retrieval_speed(StorageFormat(fid, RAW), fid.sampling)
            rows.append((fid.label, profile.accuracy,
                         profile.consumption_speed, same_fid, raw))
        return rows

    rows = benchmark(measure)
    lines = [f"{'fidelity':>22} {'F1':>5} {'consume':>10} {'dec@same':>9} "
             f"{'raw':>9}"]
    for label, acc, cons, same, raw in rows:
        lines.append(f"{label:>22} {acc:>5.2f} {cons:>9.0f}x {same:>8.0f}x "
                     f"{raw:>8.0f}x")
    record("Figure 6b — Motion", "\n".join(lines))

    for _, _, cons, same_fid, raw in rows:
        # Even matching-fidelity decoding is too slow for Motion...
        assert cons > same_fid
        # ...and raw frames close (most of) the gap.
        assert raw > 5 * same_fid
