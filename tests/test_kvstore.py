"""The LMDB-stand-in key-value store: durability, tombstones, compaction."""

import os

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import StorageError
from repro.storage.kvstore import KVStore


@pytest.fixture()
def store(tmp_path):
    with KVStore(str(tmp_path / "kv.log")) as kv:
        yield kv


def test_put_get_roundtrip(store):
    store.put("a", b"hello")
    assert store.get("a") == b"hello"


def test_get_missing_raises(store):
    with pytest.raises(StorageError):
        store.get("nope")
    assert store.get_optional("nope") is None


def test_overwrite_returns_latest(store):
    store.put("k", b"v1")
    store.put("k", b"v2")
    assert store.get("k") == b"v2"
    assert len(store) == 1


def test_delete_and_tombstone(store):
    store.put("k", b"v")
    assert store.delete("k")
    assert "k" not in store
    assert not store.delete("k")  # second delete is a no-op
    with pytest.raises(StorageError):
        store.get("k")


def test_mb_size_values(store):
    blob = os.urandom(2 * 1024 * 1024)
    store.put("segment", blob)
    assert store.get("segment") == blob


def test_keys_prefix_scan(store):
    for k in ("cam1/0", "cam1/1", "cam2/0"):
        store.put(k, b"x")
    assert list(store.keys("cam1/")) == ["cam1/0", "cam1/1"]
    assert list(store.keys()) == ["cam1/0", "cam1/1", "cam2/0"]


def test_persistence_across_reopen(tmp_path):
    path = str(tmp_path / "kv.log")
    with KVStore(path) as kv:
        kv.put("a", b"1")
        kv.put("b", b"2")
        kv.delete("a")
    with KVStore(path) as kv:
        assert "a" not in kv
        assert kv.get("b") == b"2"
        assert len(kv) == 1


def test_live_bytes_tracking(store):
    store.put("a", b"xxxx")
    store.put("b", b"yy")
    assert store.live_bytes == 6
    store.put("a", b"x")
    assert store.live_bytes == 3
    store.delete("b")
    assert store.live_bytes == 1


def test_compaction_reclaims_space(tmp_path):
    path = str(tmp_path / "kv.log")
    with KVStore(path) as kv:
        for i in range(20):
            kv.put("hot", bytes(1000))  # 19 dead versions
        kv.put("cold", b"keep")
        before = kv.file_bytes
        reclaimed = kv.compact()
        assert reclaimed > 0
        assert kv.file_bytes < before
        assert kv.get("hot") == bytes(1000)
        assert kv.get("cold") == b"keep"
    # Still intact after reopen.
    with KVStore(path) as kv:
        assert kv.get("cold") == b"keep"


def test_corruption_detected(tmp_path):
    path = str(tmp_path / "kv.log")
    with KVStore(path) as kv:
        kv.put("a", b"1")
    with open(path, "r+b") as f:
        f.seek(0)
        f.write(b"\xde\xad\xbe\xef")
    with pytest.raises(StorageError):
        KVStore(path)


@settings(max_examples=30, deadline=None)
@given(
    ops=st.lists(
        st.tuples(
            st.sampled_from(["put", "delete"]),
            st.text(alphabet="abcde", min_size=1, max_size=3),
            st.binary(max_size=64),
        ),
        max_size=40,
    )
)
def test_matches_dict_model(tmp_path_factory, ops):
    """The store behaves exactly like a dict, including across reopen."""
    path = str(tmp_path_factory.mktemp("kv") / "kv.log")
    model = {}
    with KVStore(path) as kv:
        for op, key, value in ops:
            if op == "put":
                kv.put(key, value)
                model[key] = value
            else:
                assert kv.delete(key) == (key in model)
                model.pop(key, None)
        assert {k: kv.get(k) for k in kv.keys()} == model
    with KVStore(path) as kv:
        assert {k: kv.get(k) for k in kv.keys()} == model
        kv.compact()
        assert {k: kv.get(k) for k in kv.keys()} == model


def test_write_batch_applies_all(store):
    store.put("stale", b"old")
    store.write_batch({"a": b"1", "b": b"2"}, deletes=["stale"])
    assert store.get("a") == b"1"
    assert store.get("b") == b"2"
    assert "stale" not in store


def test_write_batch_durable_across_reopen(tmp_path):
    path = str(tmp_path / "kv.log")
    with KVStore(path) as kv:
        kv.write_batch({f"seg/{i}": bytes([i]) * 64 for i in range(8)})
    with KVStore(path) as kv:
        assert len(kv) == 8
        assert kv.get("seg/3") == bytes([3]) * 64
