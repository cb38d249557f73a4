"""Storage and consumption formats (Section 3.1)."""

import ast
import copy
import pickle

import pytest

from repro.video.coding import Coding, RAW, coding_space
from repro.video.fidelity import Fidelity, fidelity_space
from repro.video.format import ConsumptionFormat, StorageFormat, raw_format


def _fid(label):
    return Fidelity.parse(label)


def test_labels_look_like_the_paper():
    sf = StorageFormat(_fid("best-720p-1-100%"), Coding("slowest", 250))
    assert sf.label == "best-720p-1-100% 250-slowest"
    cf = ConsumptionFormat(_fid("good-540p-1/6-100%"))
    assert cf.label == "good-540p-1/6-100%"


def test_raw_flag():
    assert raw_format(_fid("best-200p-1-100%")).is_raw
    assert not StorageFormat(_fid("best-200p-1-100%"), Coding("fast", 10)).is_raw


def test_can_supply_requires_richer_fidelity():
    sf = StorageFormat(_fid("good-540p-1/2-100%"), Coding("slowest", 250))
    assert sf.can_supply(ConsumptionFormat(_fid("good-540p-1/6-75%")))
    assert sf.can_supply(ConsumptionFormat(_fid("bad-200p-1/30-50%")))
    assert not sf.can_supply(ConsumptionFormat(_fid("best-540p-1/6-100%")))
    assert not sf.can_supply(ConsumptionFormat(_fid("good-720p-1/6-100%")))


def test_with_coding_swaps_only_coding():
    sf = StorageFormat(_fid("good-540p-1/2-100%"), Coding("slowest", 250))
    sf2 = sf.with_coding(RAW)
    assert sf2.fidelity == sf.fidelity
    assert sf2.is_raw


# -- the interned formats ----------------------------------------------------

def test_every_format_is_one_canonical_value():
    seen = set()
    for fid in fidelity_space():
        for coding in coding_space():
            fmt = StorageFormat(fid, coding)
            assert StorageFormat(fidelity=fid, coding=coding) is fmt
            assert fmt.fidelity is fid and fmt.coding is coding
            assert fmt.index == fid.index * 26 + coding.index == hash(fmt)
            assert fmt.label == f"{fid.label} {coding.label}"
            assert fmt.is_raw == coding.raw
            fidelity_text, _, coding_text = fmt.label.rpartition(" ")
            for copied in (
                StorageFormat(Fidelity.parse(fidelity_text),
                              Coding.parse(coding_text)),
                pickle.loads(pickle.dumps(fmt)),
                copy.deepcopy(fmt),
            ):
                assert copied == fmt and hash(copied) == hash(fmt)
                assert copied is fmt
            seen.add(fmt)
    assert len(seen) == 600 * 26


def test_format_takes_a_fidelity_and_a_coding():
    fid = _fid("best-720p-1-100%")
    with pytest.raises(TypeError):
        StorageFormat(RAW, fid)
    with pytest.raises(TypeError):
        StorageFormat("best-720p-1-100%", RAW)


#: Prints every lattice point's hash, then the format labels of a small
#: configuration; both must not depend on PYTHONHASHSEED.
_HASH_SCRIPT = """
from repro.core.config import derive_configuration
from repro.operators.library import default_library
from repro.video.coding import coding_space
from repro.video.fidelity import fidelity_space
from repro.video.format import StorageFormat

print([hash(f) for f in fidelity_space()])
print([hash(c) for c in coding_space()])
print([hash(StorageFormat(f, c)) for f in fidelity_space()
       for c in coding_space()])
config = derive_configuration(default_library(names=("Diff", "License")))
print([sf.label for sf in config.plan.formats])
"""


def test_lattice_hashes_and_plans_do_not_depend_on_the_hash_seed(
        under_hash_seed):
    runs = [under_hash_seed(_HASH_SCRIPT, seed).splitlines()
            for seed in ("0", "12345")]
    assert runs[0] == runs[1]
    assert runs[0][0] == repr(list(range(600)))
    assert len(ast.literal_eval(runs[0][3])) >= 2  # a real plan was made
