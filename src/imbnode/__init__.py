"""Imbalanced node classification toolkit.

Latent-space minority oversampling over a two-block message-passing
network, a bilinear edge generator that attaches synthetic nodes to the
graph, the classical sampling/weighting baselines, and an experiment
harness with imbalance-aware metrics.

Importing the package steadies the run time of training, which allocates
and multiplies many n x hidden float64 matrices per epoch:

- BLAS runs on one thread unless the environment sets a thread count.
  Products this small gain little from threads, and a threaded call waits
  for its slowest thread, so with other load on the machine epoch times
  swing with that load. The pin acts through the environment, so only when
  ``imbnode`` is imported before NumPy. The edge loss keeps its n x n
  scores in block-packed upper storage, and from 1024 nodes on ``kernels`` itself,
  not BLAS, deals each pass over them to two fixed parts, the second on a
  thread that the pass starts and joins before it returns; a grid's worker
  processes run both parts in turn on one thread each. The parts depend on
  n alone, so the bits do too, not the CPU count.
- On Linux, glibc malloc serves blocks up to 32 MB from its heap and keeps up
  to 256 MB of freed heap, so each epoch reuses the pages of the last one.
  glibc's default, adaptive thresholds hand the pages of these matrices
  back to the kernel and fault them in again, about 3k faults per epoch on
  a 3.1k-node graph.
"""

import ctypes
import os
import sys

_BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS")
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3  # mallopt parameters from <malloc.h>


def _steady_runtime() -> None:
    if "numpy" not in sys.modules and not any(v in os.environ for v in _BLAS_THREAD_VARS):
        for var in _BLAS_THREAD_VARS[1:]:
            os.environ[var] = "1"
    if sys.platform.startswith("linux"):
        mallopt = getattr(ctypes.CDLL(None), "mallopt", None)
        if mallopt is not None:
            mallopt(_M_MMAP_THRESHOLD, 32 << 20)
            mallopt(_M_TRIM_THRESHOLD, 256 << 20)


_steady_runtime()

from .graph import (
    ClassStats,
    Graph,
    SplitMasks,
    generate_sbm_graph,
    imbalance_ratio,
    load_graph,
    make_artificial_imbalance,
    make_proportional_split,
)
from .metrics import MetricsReport, accuracy, auc_macro, f_macro, full_report
from .optim import ParamStore, adam_step
from .oversample import (
    SamplingPlan,
    SyntheticBatch,
    baseline_duplicate,
    baseline_raw_smote,
    nearest_same_class,
    plan_from_scale,
    reweight_vector,
    smote_interpolate,
)
from .train import GS_VARIANTS, VARIANTS, RunRecord, TrainConfig, train

__version__ = "0.1.0"

__all__ = [
    "ClassStats",
    "Graph",
    "SplitMasks",
    "generate_sbm_graph",
    "imbalance_ratio",
    "load_graph",
    "make_artificial_imbalance",
    "make_proportional_split",
    "MetricsReport",
    "accuracy",
    "auc_macro",
    "f_macro",
    "full_report",
    "ParamStore",
    "adam_step",
    "SamplingPlan",
    "SyntheticBatch",
    "baseline_duplicate",
    "baseline_raw_smote",
    "nearest_same_class",
    "plan_from_scale",
    "reweight_vector",
    "smote_interpolate",
    "GS_VARIANTS",
    "VARIANTS",
    "RunRecord",
    "TrainConfig",
    "train",
]
