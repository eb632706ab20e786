"""Adam oracle tests and checkpoint round-trips."""
import numpy as np
import pytest

import oracles
from imbnode import tape
from imbnode.optim import ParamStore, adam_step, glorot


def scalar_adam_reference(x0, grads, lr, wd, b1, b2, eps):
    """Independent scalar recurrence: classic Adam with L2 added to the grad."""
    x, m, v = x0, 0.0, 0.0
    for t, g in enumerate(grads, start=1):
        g = g + wd * x
        m = b1 * m + (1 - b1) * g
        v = b2 * v + (1 - b2) * g * g
        m_hat = m / (1 - b1**t)
        v_hat = v / (1 - b2**t)
        x = x - lr * m_hat / (np.sqrt(v_hat) + eps)
    return x


def test_single_scalar_step_matches_reference():
    store = ParamStore()
    p = store.add("w", [[0.7]])
    p.grad = np.array([[0.3]])
    adam_step(store, lr=0.01, weight_decay=0.05)
    expected = scalar_adam_reference(0.7, [0.3], 0.01, 0.05, 0.9, 0.999, 1e-8)
    assert p.value[0, 0] == pytest.approx(expected, rel=1e-14)


def test_multi_step_scalar_sequence_matches_reference():
    grads = [0.3, -0.2, 0.05, 0.4]
    store = ParamStore()
    p = store.add("w", [[-1.2]])
    for g in grads:
        p.grad = np.array([[g]])
        adam_step(store, lr=0.003, weight_decay=5e-4)
    expected = scalar_adam_reference(-1.2, grads, 0.003, 5e-4, 0.9, 0.999, 1e-8)
    assert p.value[0, 0] == pytest.approx(expected, rel=1e-13)


def test_zero_grad_zero_decay_is_fixed_point():
    store = ParamStore()
    p = store.add("w", np.ones((2, 3)))
    before = p.value.copy()
    adam_step(store, lr=0.1, weight_decay=0.0)
    np.testing.assert_array_equal(p.value, before)


def test_zero_lr_changes_nothing():
    store = ParamStore()
    p = store.add("w", np.ones((2, 2)))
    p.grad = np.full((2, 2), 3.0)
    adam_step(store, lr=0.0, weight_decay=5e-4)
    np.testing.assert_array_equal(p.value, np.ones((2, 2)))


def test_grads_zeroed_after_step():
    store = ParamStore()
    p = store.add("w", np.ones((2, 2)))
    p.grad = np.full((2, 2), 3.0)
    adam_step(store, lr=0.01)
    np.testing.assert_array_equal(p.grad, np.zeros((2, 2)))


def test_names_subset_only_touches_named():
    store = ParamStore()
    a = store.add("a", np.ones((2, 2)))
    b = store.add("b", np.ones((2, 2)))
    a.grad = np.full((2, 2), 1.0)
    b.grad = np.full((2, 2), 1.0)
    adam_step(store, lr=0.1, names=("a",))
    assert not np.array_equal(a.value, np.ones((2, 2)))
    np.testing.assert_array_equal(b.value, np.ones((2, 2)))
    np.testing.assert_array_equal(b.grad, np.full((2, 2), 1.0))


def test_deterministic_across_runs():
    def run():
        rng = np.random.default_rng(42)
        store = ParamStore()
        w = store.add("w", glorot(4, 3, rng))
        x = tape.const(rng.normal(size=(5, 4)))
        for _ in range(7):
            loss = oracles.total_sum(oracles.sigmoid(oracles.matmul(x, w)))
            tape.backward(loss)
            adam_step(store, lr=0.01, weight_decay=5e-4)
        return w.value.copy()

    first, second = run(), run()
    assert np.array_equal(first, second)


def test_checkpoint_round_trip_exact(tmp_path):
    rng = np.random.default_rng(0)
    store = ParamStore()
    store.add("W1", rng.normal(size=(6, 4)))
    store.add("S", rng.normal(size=(4, 4)))
    path = tmp_path / "ckpt.npz"
    store.save(path)
    loaded = ParamStore.load(path)
    assert loaded.names() == store.names()
    for name in store.names():
        np.testing.assert_array_equal(loaded[name].value, store[name].value)


def test_glorot_range_and_determinism():
    a = glorot(10, 20, np.random.default_rng(3))
    b = glorot(10, 20, np.random.default_rng(3))
    limit = np.sqrt(6.0 / 30.0)
    assert np.all(np.abs(a) <= limit)
    np.testing.assert_array_equal(a, b)
