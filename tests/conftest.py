"""Shared fixtures: libraries, profilers, and sample content.

Session-scoped fixtures cache the expensive objects (profilers memoize
hundreds of runs; configurations derive in ~1 s) so the suite stays fast.
"""

from __future__ import annotations

import os
import subprocess
import sys

import pytest

import repro
from repro.core.config import derive_configuration


def pytest_addoption(parser):
    parser.addoption(
        "--update-golden",
        action="store_true",
        default=False,
        help="rewrite the golden trace files under tests/golden/ from the "
             "current scheduler behavior instead of comparing against them",
    )
from repro.operators.library import default_library
from repro.profiler.coding_profiler import CodingProfiler
from repro.profiler.profiler import OperatorProfiler
from repro.video.datasets import get_dataset


@pytest.fixture(scope="session")
def library():
    """The full nine-operator Table-2 library at the default accuracies."""
    return default_library()


@pytest.fixture(scope="session")
def query_library():
    """Only the six operators used by the benchmark queries A and B."""
    return default_library(names=("Diff", "S-NN", "NN", "Motion", "License",
                                  "OCR"))


@pytest.fixture(scope="session")
def jackson_profiler(library):
    return OperatorProfiler(library, "jackson")


@pytest.fixture(scope="session")
def dashcam_profiler(library):
    return OperatorProfiler(library, "dashcam")


@pytest.fixture(scope="session")
def jackson_clip(jackson_profiler):
    return jackson_profiler.clip


@pytest.fixture(scope="session")
def dashcam_clip(dashcam_profiler):
    return dashcam_profiler.clip


@pytest.fixture(scope="session")
def coding_profiler():
    return CodingProfiler(activity=0.35)


@pytest.fixture(scope="session")
def configuration(query_library):
    """The full derived configuration over the six query operators."""
    return derive_configuration(query_library)


@pytest.fixture()
def jackson_content():
    return get_dataset("jackson").content()


@pytest.fixture(scope="session")
def under_hash_seed():
    """``run(script, seed)``: the stdout of a Python snippet run in a fresh
    interpreter under ``PYTHONHASHSEED=seed``, with ``repro`` importable."""
    src = os.path.dirname(os.path.dirname(repro.__file__))

    def run(script: str, seed: str) -> str:
        path = os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=path)
        return subprocess.run([sys.executable, "-c", script], env=env,
                              check=True, capture_output=True,
                              text=True).stdout

    return run
