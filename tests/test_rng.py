"""Deterministic seeded randomness."""

from repro.rng import rng_for, stable_seed


def test_stable_seed_is_deterministic():
    assert stable_seed("a", 1, 2.5) == stable_seed("a", 1, 2.5)


def test_stable_seed_distinguishes_context():
    assert stable_seed("a", 1) != stable_seed("a", 2)
    assert stable_seed("a") != stable_seed("b")


def test_stable_seed_order_matters():
    assert stable_seed("a", "b") != stable_seed("b", "a")


def test_rng_for_reproducible_streams():
    a = rng_for("dataset", 7).normal(size=16)
    b = rng_for("dataset", 7).normal(size=16)
    assert (a == b).all()


def test_rng_for_independent_streams():
    a = rng_for("dataset", 7).normal(size=16)
    b = rng_for("dataset", 8).normal(size=16)
    assert (a != b).any()


def test_importing_rng_loads_numpy_random(under_hash_seed):
    """``numpy.random`` loads with this module, not on the first
    ``rng_for`` call, so a cold build never pays for the import."""
    out = under_hash_seed(
        "import sys, repro.rng; print('numpy.random' in sys.modules)", "0"
    )
    assert out.strip() == "True"
