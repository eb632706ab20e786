"""The process settings that importing imbnode makes."""
import os
import subprocess
import sys
from pathlib import Path

import pytest

import conftest
import imbnode

SRC = str(Path(imbnode.__file__).resolve().parent.parent)
PROBE = "import imbnode, os; print(os.environ.get('OPENBLAS_NUM_THREADS'), os.environ.get('OMP_NUM_THREADS'))"


def probe(prelude="", **env):
    clean = {k: v for k, v in os.environ.items() if k not in imbnode._BLAS_THREAD_VARS}
    out = subprocess.run(
        [sys.executable, "-c", prelude + PROBE],
        env={**clean, "PYTHONPATH": SRC, **env},
        capture_output=True,
        text=True,
        check=True,
    )
    return out.stdout.split()


def test_blas_pinned_to_one_thread_by_default():
    assert probe() == ["1", "None"]


def test_blas_thread_count_from_environment_wins():
    assert probe(OMP_NUM_THREADS="3") == ["None", "3"]
    assert probe(OPENBLAS_NUM_THREADS="2") == ["2", "None"]


def test_no_pin_once_numpy_is_loaded():
    assert probe("import numpy; ") == ["None", "None"]


def test_suite_runs_blas_as_the_cli_does():
    # tests/conftest.py imports imbnode before any test module imports NumPy
    if any(v in conftest.ENV_BEFORE_IMBNODE for v in imbnode._BLAS_THREAD_VARS):
        pytest.skip("the environment sets a BLAS thread count")
    assert not conftest.NUMPY_BEFORE_IMBNODE
    assert [os.environ.get(v) for v in imbnode._BLAS_THREAD_VARS] == [None, "1", "1", "1"]
