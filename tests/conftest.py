"""Import imbnode before any test module imports NumPy, so the suite runs
BLAS with the settings the CLI and perfbench run it with (one thread unless
the environment sets a thread count).

The `split_floor` fixture lets a test choose which n x n passes
`kernels._split` spreads over threads, and counts the thread pools the
passes make."""
import os
import sys

ENV_BEFORE_IMBNODE = dict(os.environ)
NUMPY_BEFORE_IMBNODE = "numpy" in sys.modules

import imbnode  # noqa: E402,F401
import pytest  # noqa: E402
from imbnode import kernels  # noqa: E402

SPLIT_THREADS = 3  # more ranges than a 2-CPU machine would cut, so more inner bounds


@pytest.fixture()
def split_floor(monkeypatch):
    """A setter ``(floor, inline=False)`` of the element count from which
    passes split: 0 splits every pass into `SPLIT_THREADS` ranges (fewer if
    it has fewer units), math.inf none; ``inline`` runs the ranges in turn
    on the calling thread, as a grid worker does. The setter's
    ``executors`` lists each thread pool a pass made during the test."""
    import concurrent.futures

    made = []

    class Counted(concurrent.futures.ThreadPoolExecutor):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            made.append(self)

    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", Counted)
    monkeypatch.setattr(kernels, "_threads", SPLIT_THREADS)

    def set_floor(floor, inline=False):
        monkeypatch.setattr(kernels, "_SPLIT_FLOOR", floor)
        monkeypatch.setattr(kernels, "_inline", inline)

    set_floor.executors = made
    return set_floor
