"""Parameter store, Adam updates, and checkpoint round-tripping."""
from __future__ import annotations

import numpy as np

from .tape import Mat, param


class ParamStore:
    """Named trainable matrices with per-entry Adam state.

    Iteration order is insertion order, which fixes the update order and
    keeps runs reproducible.
    """

    def __init__(self):
        self._entries: dict[str, Mat] = {}
        self._m: dict[str, np.ndarray] = {}
        self._v: dict[str, np.ndarray] = {}
        self._t: dict[str, int] = {}

    def add(self, name: str, value) -> Mat:
        if name in self._entries:
            raise ValueError(f"parameter {name!r} already present")
        p = param(value)
        p.grad = np.zeros_like(p.value)
        self._entries[name] = p
        self._m[name] = np.zeros_like(p.value)
        self._v[name] = np.zeros_like(p.value)
        self._t[name] = 0
        return p

    def __getitem__(self, name: str) -> Mat:
        return self._entries[name]

    def __contains__(self, name: str) -> bool:
        return name in self._entries

    def names(self):
        return list(self._entries)

    def zero_grads(self) -> None:
        for p in self._entries.values():
            p.zero_grad()

    def snapshot(self) -> dict[str, np.ndarray]:
        return {k: p.value.copy() for k, p in self._entries.items()}

    def restore(self, snap: dict[str, np.ndarray]) -> None:
        for k, v in snap.items():
            self._entries[k].value[...] = v

    def save(self, path) -> None:
        """Binary dump of named matrices (npz); round-trips exactly."""
        np.savez(path, **{k: p.value for k, p in self._entries.items()})

    @classmethod
    def load(cls, path) -> "ParamStore":
        store = cls()
        with np.load(path) as blob:
            for k in blob.files:
                store.add(k, blob[k])
        return store


def glorot(rows: int, cols: int, rng: np.random.Generator) -> np.ndarray:
    """Uniform init in +-sqrt(6 / (fan_in + fan_out))."""
    limit = np.sqrt(6.0 / (rows + cols))
    return rng.uniform(-limit, limit, size=(rows, cols))


ADAM_BETAS = (0.9, 0.999)
ADAM_EPS = 1e-8


def adam_step(store: ParamStore, lr: float = 1e-3, weight_decay: float = 0.0, names=None) -> None:
    """One Adam update, betas `ADAM_BETAS` and eps `ADAM_EPS`, for the named
    parameters (all by default).

    Weight decay enters as an L2 term added to the gradient before the
    moment updates (the classic coupled form). Gradients are zeroed after
    the step; entries whose grad was never populated still decay.
    """
    b1, b2 = ADAM_BETAS
    for name in names if names is not None else store.names():
        p = store._entries[name]
        if p.grad is None:
            p.grad = np.zeros_like(p.value)
        g = p.grad if weight_decay == 0.0 else p.grad + weight_decay * p.value
        store._t[name] += 1
        t = store._t[name]
        m = store._m[name]
        v = store._v[name]
        m *= b1
        m += (1.0 - b1) * g
        v *= b2
        v += (1.0 - b2) * g * g
        m_hat = m / (1.0 - b1**t)
        v_hat = v / (1.0 - b2**t)
        p.value -= lr * m_hat / (np.sqrt(v_hat) + ADAM_EPS)
        p.grad[...] = 0.0
