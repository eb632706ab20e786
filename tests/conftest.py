"""Import imbnode before any test module imports NumPy, so the suite runs
BLAS with the settings the CLI and perfbench run it with (one thread unless
the environment sets a thread count).

The `part_count` fixture lets a test choose how many parts the passes over
an n x n block-packed storage take, whatever n, and counts the helper
threads' executors and the work handed to them."""
import math
import os
import sys

ENV_BEFORE_IMBNODE = dict(os.environ)
NUMPY_BEFORE_IMBNODE = "numpy" in sys.modules

import imbnode  # noqa: E402,F401
import pytest  # noqa: E402
from imbnode import kernels  # noqa: E402


@pytest.fixture()
def part_count(monkeypatch):
    """A setter ``(parts, inline=False)`` of the parts every pass takes: 1,
    or 2 (the second on the helper thread, even on one CPU); ``inline`` runs
    both on the calling thread, as a grid worker does. Two parts also stand
    for the 1024-node rule of the products the tape's ops hand off. The
    setter's ``executors`` lists each helper executor made during the test:
    one per training run, or per pass outside a run. Each counts the calls
    handed to it in ``submitted``."""
    import concurrent.futures

    made = []

    class Counted(concurrent.futures.ThreadPoolExecutor):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            self.submitted = 0
            made.append(self)

        def submit(self, *args, **kwargs):
            self.submitted += 1
            return super().submit(*args, **kwargs)

    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", Counted)
    monkeypatch.setattr(kernels, "_threads", 2)

    def set_parts(parts, inline=False):
        monkeypatch.setattr(kernels, "_TWO_PARTS", 0 if parts == 2 else math.inf)
        monkeypatch.setattr(kernels, "_inline", inline)

    set_parts.executors = made
    return set_parts
