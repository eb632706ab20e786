"""Import imbnode before any test module imports NumPy, so the suite runs
BLAS with the settings the CLI and perfbench run it with (one thread unless
the environment sets a thread count)."""
import os
import sys

ENV_BEFORE_IMBNODE = dict(os.environ)
NUMPY_BEFORE_IMBNODE = "numpy" in sys.modules

import imbnode  # noqa: E402,F401
