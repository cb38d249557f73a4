"""Unit tests for the query-mix drift detector (the evolution trigger)."""

from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.drift import DriftDetector
from repro.operators.library import Consumer


def _outcome(operator: str, accuracy: float = 0.9, stream: str = "cam",
             seconds: float = 1.0, klass: int = 0):
    """A minimal stand-in for a QueryOutcome: one single-stage plan whose
    task durations sum to ``seconds``."""
    task = SimpleNamespace(duration=seconds)
    stage = SimpleNamespace(operator=operator, tasks=[task])
    session = SimpleNamespace(
        klass=klass, accuracy=accuracy, stream=stream,
        plan=SimpleNamespace(stages=[stage]),
    )
    return SimpleNamespace(session=session)


def test_empty_detector_is_quiet():
    d = DriftDetector()
    assert d.samples == 0
    assert d.drift_score() == 0.0
    assert not d.drifted


def test_unrebased_window_scores_full_drift():
    d = DriftDetector(min_samples=2)
    d.observe(_outcome("Diff"))
    d.observe(_outcome("Diff"))
    # Never rebased: everything the window wants is unanticipated.
    assert d.drift_score() == 1.0
    assert d.drifted


def test_pending_rebase_pins_from_first_window():
    d = DriftDetector(min_samples=3)
    d.rebase()  # empty window: baseline pins itself later
    d.observe(_outcome("Diff"))
    d.observe(_outcome("NN"))
    assert d.drift_score() == 0.0  # still pending
    assert not d.drifted
    d.observe(_outcome("Diff"))
    # min_samples reached: the observed mix became the baseline.
    assert d.drift_score() == 0.0
    assert not d.drifted


def test_stationary_mix_never_drifts():
    d = DriftDetector(min_samples=4)
    d.rebase()
    for _ in range(20):
        d.observe(_outcome("Motion"))
        d.observe(_outcome("OCR"))
        assert d.drift_score() == pytest.approx(0.0)
    assert not d.drifted


def test_disjoint_mix_drifts():
    d = DriftDetector(window=8, min_samples=4)
    d.rebase()
    for _ in range(8):
        d.observe(_outcome("Motion"))
    assert not d.drifted
    for _ in range(8):
        d.observe(_outcome("Diff"))
    # The window now holds only Diff demand; the baseline only Motion.
    assert d.drift_score() == pytest.approx(1.0)
    assert d.drifted


def test_partial_shift_scores_between():
    d = DriftDetector(window=8, min_samples=2)
    d.rebase()
    for _ in range(8):
        d.observe(_outcome("Motion"))
    for _ in range(4):
        d.observe(_outcome("Diff"))
    # Half of the window's mass moved to an unanticipated consumer.
    assert d.drift_score() == pytest.approx(0.5)


def test_background_outcomes_are_skipped():
    d = DriftDetector(min_samples=1)
    d.rebase()
    d.observe(_outcome("reencode", klass=1, seconds=100.0))
    assert d.samples == 0
    assert d.demand_by_consumer() == {}


def test_window_trims_to_length():
    d = DriftDetector(window=4)
    for i in range(10):
        d.observe(_outcome("Diff", stream=f"cam{i}"))
    assert d.samples == 4
    assert set(d.demand_by_stream()) == {f"cam{i}" for i in range(6, 10)}


def test_demanded_consumers_heaviest_first():
    d = DriftDetector()
    d.observe(_outcome("Diff", seconds=1.0))
    d.observe(_outcome("NN", seconds=5.0))
    d.observe(_outcome("Motion", seconds=2.0))
    assert d.demanded_consumers() == [
        Consumer("NN", 0.9), Consumer("Motion", 0.9), Consumer("Diff", 0.9),
    ]


def test_accuracy_is_part_of_the_consumer():
    d = DriftDetector(window=8, min_samples=2)
    d.rebase()
    for _ in range(4):
        d.observe(_outcome("NN", accuracy=0.9))
    for _ in range(4):
        d.observe(_outcome("NN", accuracy=0.7))
    # Same operator at a new accuracy point is demand drift too.
    assert d.drift_score() == pytest.approx(0.5)


def test_rebase_on_live_window_pins_immediately():
    d = DriftDetector(min_samples=2)
    d.observe(_outcome("Diff"))
    d.observe(_outcome("Diff"))
    d.rebase()
    assert d.drift_score() == 0.0
    d.observe(_outcome("Diff"))
    assert d.drift_score() == pytest.approx(0.0)


def test_min_samples_gates_drifted_flag():
    d = DriftDetector(min_samples=4)
    d.rebase()
    d.observe(_outcome("Diff"))
    # Score 0 while pending, and too few samples to flag regardless.
    assert not d.drifted
    d2 = DriftDetector(min_samples=4)
    for _ in range(3):
        d2.observe(_outcome("Diff"))
    assert d2.drift_score() == 1.0  # unrebased
    assert not d2.drifted  # but below min_samples


#: Scores one fixed mix of 18 consumers (a random.Random(3) draw, 64
#: baseline and 64 current queries) and prints the score's float.hex.
_SCORE_SCRIPT = """
import random
from types import SimpleNamespace
from repro.core.drift import DriftDetector

def outcome(op, acc, seconds):
    stage = SimpleNamespace(operator=op,
                            tasks=[SimpleNamespace(duration=seconds)])
    return SimpleNamespace(session=SimpleNamespace(
        klass=0, accuracy=acc, stream="cam",
        plan=SimpleNamespace(stages=[stage])))

rng = random.Random(3)
ops = ["Diff", "S-NN", "NN", "Motion", "License", "OCR", "Opflow", "Color",
       "Contour"]
d = DriftDetector(window=64, min_samples=4)
for phase in range(2):
    if phase:
        d.rebase()
    for _ in range(64):
        d.observe(outcome(rng.choice(ops), rng.choice([0.95, 0.9, 0.8, 0.7]),
                          rng.uniform(0.1, 9.0)))
print(d.drift_score().hex())
"""


def test_drift_score_does_not_depend_on_the_hash_seed(under_hash_seed):
    # Consumers hash their operator string, so a sum over a set of them
    # would add in a seed-dependent order and move the last bits.
    scores = {seed: under_hash_seed(_SCORE_SCRIPT, seed)
              for seed in ("0", "12345")}
    assert scores["0"] == scores["12345"]
    assert float.fromhex(scores["0"]) > 0.0


_OPS = ("Diff", "NN", "Motion", "OCR")


@st.composite
def _runs(draw):
    """A detector configuration plus a run's outcomes to fold."""
    window = draw(st.integers(0, 12))
    min_samples = draw(st.integers(1, 14))
    warm = draw(st.lists(st.sampled_from(_OPS), max_size=16))
    pending = draw(st.booleans())
    outcomes = draw(st.lists(
        st.tuples(st.sampled_from(_OPS), st.sampled_from((0.9, 0.7)),
                  st.floats(0.25, 8.0), st.sampled_from((0, 0, 1))),
        max_size=60,
    ))
    return window, min_samples, warm, pending, outcomes


@settings(max_examples=200, deadline=None)
@given(_runs())
def test_observe_run_matches_folding_every_outcome(run):
    window, min_samples, warm, pending, outcomes = run
    detectors = []
    for _ in range(2):
        d = DriftDetector(window=window, min_samples=min_samples)
        if pending:
            # A plan adopted before any query ran: the baseline pins from
            # the first min_samples queries, unless the warm-up pins it.
            d.rebase()
        for op in warm:
            d.observe(_outcome(op))
        detectors.append(d)
    fast, oracle = detectors
    run_outcomes = [_outcome(op, accuracy=acc, seconds=sec, klass=klass)
                    for op, acc, sec, klass in outcomes]
    fast.observe_run(run_outcomes)
    for outcome in run_outcomes:
        oracle.observe(outcome)
    assert list(fast._recent) == list(oracle._recent)
    assert fast._baseline == oracle._baseline
    assert list(fast._baseline) == list(oracle._baseline)
    assert fast._pending == oracle._pending
    assert fast.drift_score().hex() == oracle.drift_score().hex()
