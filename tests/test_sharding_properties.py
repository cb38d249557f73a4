"""Property tests for shard placement and rebalancing (Hypothesis).

Three families of invariants:

* placement is *deterministic* per policy — replaying the same placement
  sequence onto a fresh array reproduces the exact assignment;
* each policy honors its imbalance bound (round-robin: per-shard key
  counts within one; locality over hot segments: byte loads within one
  segment of each other);
* :func:`plan_rebalance` never loses or duplicates a key, conserves every
  key's footprint, and leaves the byte imbalance no larger than the
  largest single key; on replicated arrays it never grows the imbalance
  and never moves a primary onto a shard holding one of its copies.
"""

import os

import pytest
from hypothesis import given, settings, strategies as st

from repro.storage.sharding import (
    HashPlacement,
    LocalityAwarePlacement,
    PLACEMENTS,
    RoundRobinPlacement,
    ShardedDiskArray,
    plan_rebalance,
)

N_SHARDS = int(os.environ.get("SHARDS", "4"))

# One placement request: (stream, format text, index, bytes, activity).
_placements = st.lists(
    st.tuples(
        st.sampled_from(["cam00", "cam01", "dash"]),
        st.sampled_from(["f-raw", "f-enc", "f-low"]),
        st.integers(min_value=0, max_value=15),
        st.integers(min_value=1, max_value=1_000_000),
        st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
    ),
    max_size=40,
)

_shard_counts = st.integers(min_value=1, max_value=8)


def _play(policy, n_shards, placements, replication=1):
    array = ShardedDiskArray(n_shards, placement=policy,
                             replication=replication)
    for stream, fmt, index, nbytes, activity in placements:
        array.place(stream, fmt, index, float(nbytes), activity)
    return array


@given(placements=_placements, n_shards=_shard_counts,
       policy_name=st.sampled_from(sorted(PLACEMENTS)))
@settings(max_examples=60, deadline=None)
def test_assignment_is_deterministic_per_policy(placements, n_shards,
                                                policy_name):
    """Replaying one placement history gives the same assignment, for
    every policy — including the stateful round-robin counter."""
    a = _play(PLACEMENTS[policy_name](), n_shards, placements)
    b = _play(PLACEMENTS[policy_name](), n_shards, placements)
    assert a.assignments() == b.assignments()


@given(placements=_placements, n_shards=_shard_counts)
@settings(max_examples=60, deadline=None)
def test_round_robin_key_counts_within_one(placements, n_shards):
    array = _play(RoundRobinPlacement(), n_shards, placements)
    counts = array.shard_keys
    assert max(counts) - min(counts) <= 1


@given(placements=_placements, n_shards=_shard_counts)
@settings(max_examples=60, deadline=None)
def test_hash_ignores_arrival_order(placements, n_shards):
    forward = _play(HashPlacement(), n_shards, placements)
    backward = _play(HashPlacement(), n_shards, list(reversed(placements)))
    # Shard choice is order-independent; recorded bytes legitimately keep
    # the last overwrite, so only the placement is compared.
    assert {k: s for k, (s, _) in forward.assignments().items()} == {
        k: s for k, (s, _) in backward.assignments().items()
    }


@given(placements=_placements, n_shards=_shard_counts)
@settings(max_examples=60, deadline=None)
def test_colocating_policies_keep_segment_formats_together(placements,
                                                           n_shards):
    """Hash and locality placement put all formats of one (stream, index)
    segment on one shard."""
    for policy in (HashPlacement(), LocalityAwarePlacement()):
        array = _play(policy, n_shards, placements)
        by_segment = {}
        for (stream, fmt, index), (shard, _) in array.assignments().items():
            by_segment.setdefault((stream, index), set()).add(shard)
        assert all(len(shards) == 1 for shards in by_segment.values())


@given(
    segments=st.lists(
        st.tuples(st.integers(min_value=0, max_value=63),
                  st.integers(min_value=1, max_value=1_000_000)),
        max_size=30, unique_by=lambda s: s[0],
    ),
    n_shards=_shard_counts,
)
@settings(max_examples=60, deadline=None)
def test_locality_hot_byte_imbalance_within_one_segment(segments, n_shards):
    """All-hot placement is greedy least-loaded: shard byte loads can
    never differ by more than the largest single segment."""
    array = ShardedDiskArray(n_shards, placement=LocalityAwarePlacement())
    for index, nbytes in segments:
        array.place("cam", "f", index, float(nbytes), activity=1.0)
    if segments:
        assert array.byte_imbalance <= max(n for _, n in segments)
    else:
        assert array.byte_imbalance == 0.0


@given(placements=_placements, n_shards=_shard_counts,
       policy_name=st.sampled_from(sorted(PLACEMENTS)))
@settings(max_examples=60, deadline=None)
def test_rebalance_plan_conserves_keys_and_bytes(placements, n_shards,
                                                 policy_name):
    """Applying the rebalance plan relabels shards only: same key set,
    same per-key bytes, total bytes conserved, imbalance bounded."""
    array = _play(PLACEMENTS[policy_name](), n_shards, placements)
    before = array.assignments()
    moves = plan_rebalance(before, range(n_shards),
                           array.replica_assignments())

    after = dict(before)
    for key, src, dst in moves:
        shard, nbytes = after[key]
        assert shard == src  # the plan moves keys from where they are
        assert 0 <= dst < n_shards
        after[key] = (dst, nbytes)

    assert set(after) == set(before)  # no key lost or duplicated
    assert {k: b for k, (_, b) in after.items()} == {
        k: b for k, (_, b) in before.items()
    }  # footprints conserved

    def loads(assignment):
        totals = [0.0] * n_shards
        for shard, nbytes in assignment.values():
            totals[shard] += nbytes
        return totals

    assert sum(loads(after)) == sum(loads(before))
    gap_before = max(loads(before)) - min(loads(before))
    gap_after = max(loads(after)) - min(loads(after))
    assert gap_after <= gap_before
    if before:
        # The greedy mover guarantees the residual gap is below the
        # largest single key (the best any per-key scheme can promise).
        assert gap_after <= max(b for _, b in before.values())


@given(placements=_placements, n_shards=_shard_counts,
       replication=st.integers(min_value=1, max_value=3),
       failed=st.none() | st.integers(min_value=0, max_value=7))
@settings(max_examples=60, deadline=None)
def test_rebalance_applied_to_array_matches_plan(placements, n_shards,
                                                 replication, failed):
    """Reassigning through the array keeps its books consistent with a
    from-scratch replay of the final replica sets.  On replicated arrays
    no move collides with a copy (``reassign`` would raise) and the
    imbalance over every stored copy never grows.  With a failed shard
    the plan runs over the survivors and moves nothing onto it."""
    replication = min(replication, n_shards)
    array = _play(HashPlacement(), n_shards, placements, replication)
    if failed is not None:
        array.fail_shard(failed % n_shards)
    # A promoted survivor leads its copy set, as the planner assumes.
    assert all(copies[0] == array.locate(*key)
               for key, copies in array.replica_assignments().items())
    usable = [i for i in range(n_shards) if not array.is_failed(i)]
    gap_before = array.byte_imbalance
    moves = plan_rebalance(array.assignments(), usable,
                           array.replica_assignments())
    for (stream, fmt, index), src, dst in moves:
        assert dst in usable
        assert array.reassign(stream, fmt, index, dst) == src
    rebuilt = [0.0] * n_shards
    sizes = array.assignments()
    for key, copies in array.replica_assignments().items():
        assert len(set(copies)) == len(copies)
        for shard in copies:
            rebuilt[shard] += sizes[key][1]
    for i in range(n_shards):
        assert array.shard_bytes[i] == rebuilt[i]
    assert array.byte_imbalance <= gap_before


# ---------------------------------------------------------------------------
# Replicated arrays under random fail -> rebuild interleavings
# ---------------------------------------------------------------------------

# One scripted operation: (op, key index, shard-ish integer).  The shard
# argument is folded modulo the array size; inapplicable ops are no-ops,
# so every generated script is valid on every array.
_fault_ops = st.lists(
    st.tuples(
        st.sampled_from(["place", "fail", "recover", "rebuild",
                         "forget", "reassign", "migrate"]),
        st.integers(min_value=0, max_value=11),
        st.integers(min_value=0, max_value=7),
    ),
    max_size=60,
)


def _check_books(array):
    """Byte conservation + locate/assignments/replica consistency."""
    per_shard_bytes = [0.0] * array.n_shards
    per_shard_keys = [0] * array.n_shards
    for key, replicas in array.replica_assignments().items():
        assert replicas, f"{key} placed but replica-less"
        assert len(set(replicas)) == len(replicas), "duplicate replica shard"
        assert array.locate(*key) == replicas[0], "primary drifted"
        nbytes = array.assignments()[key][1]
        for shard in replicas:
            per_shard_bytes[shard] += nbytes
            per_shard_keys[shard] += 1
    for i in range(array.n_shards):
        assert array.shard_bytes[i] == pytest.approx(per_shard_bytes[i])
        assert array.shard_keys[i] == per_shard_keys[i]
    # A failed shard holds no live replica bookkeeping at all.
    for i in array.failed_shards:
        assert per_shard_bytes[i] == 0.0
        assert per_shard_keys[i] == 0


@given(ops=_fault_ops, n_shards=st.integers(min_value=2, max_value=6))
@settings(max_examples=60, deadline=None)
def test_fail_rebuild_interleavings_keep_books_consistent(ops, n_shards):
    """reassign/migrate/forget interleaved with shard failures and replica
    rebuilds conserve bytes and keep locate/assignments consistent."""
    from repro.errors import ShardFailedError, StorageError

    array = ShardedDiskArray(n_shards, placement="round-robin",
                             replication=min(2, n_shards))
    pending = []  # (key, nbytes, source) rebuild work from failures
    for op, idx, arg in ops:
        shard = arg % n_shards
        key = ("cam", "fmt", idx)
        if op == "place":
            if len(array.failed_shards) < n_shards:
                array.place(*key, float((idx + 1) * 10))
        elif op == "fail":
            pending.extend(array.fail_shard(shard))
        elif op == "recover":
            array.recover_shard(shard)
        elif op == "rebuild" and pending:
            wkey, nbytes, _source = pending.pop(0)
            if array.locate(*wkey) is None:
                continue  # lost or forgotten in the meantime
            holders = set(array.replicas(*wkey))
            dests = [i for i in range(n_shards)
                     if not array.is_failed(i) and i not in holders]
            if dests:
                array.add_replica(*wkey, dests[0])
        elif op == "forget":
            array.forget(*key)
        elif op in ("reassign", "migrate"):
            src = array.locate(*key)
            if src is None:
                continue
            if shard == src:
                assert array.reassign(*key, shard) == src  # no-op
            elif array.is_failed(shard) or shard in array.replicas(*key):
                with pytest.raises(StorageError):
                    array.reassign(*key, shard)
            else:
                array.reassign(*key, shard)
        _check_books(array)
    # End state: no key ever references a failed shard, and total bytes
    # equal the per-key footprints times their live replica counts.
    total = sum(
        array.assignments()[key][1] * len(replicas)
        for key, replicas in array.replica_assignments().items()
    )
    assert sum(array.shard_bytes) == pytest.approx(total)
