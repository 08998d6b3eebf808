import numpy as np
import pytest

from cst import autodiff as ad
from cst.params import (CheckpointError, ParamStore, load_checkpoint,
                        save_checkpoint)
from helpers import assert_close


def test_adam_first_step_matches_closed_form():
    store = ParamStore()
    p = store.create("w", np.zeros(3))
    p.grad = np.array([1.0, -2.0, 0.5])
    store.adam_step(lr=0.1)
    # bias-corrected first step is -lr * g / (|g| + eps)
    assert_close(p.values, [-0.1, 0.1, -0.1], rtol=1e-6, atol=1e-9)
    assert np.all(p.grad == 0.0)


def test_adam_zero_gradient_leaves_parameters_unchanged():
    store = ParamStore()
    p = store.create("w", np.array([1.5, -0.5]))
    p.zero_grad()
    store.adam_step(lr=0.1)
    assert np.all(p.values == [1.5, -0.5])


def test_adam_descends_a_quadratic():
    # minimize (theta - 3)^2 for 100 steps at lr 0.1 from 0
    store = ParamStore()
    p = store.create("theta", np.array([0.0]))
    for _ in range(100):
        x = store["theta"]
        diff = ad.add_scalar(x, -3.0)
        loss = ad.sum_(ad.mul(diff, diff))
        ad.backward(loss)
        store.adam_step(lr=0.1)
    assert abs(p.values[0] - 3.0) < 0.05


def test_adam_rejects_nonfinite_gradient():
    store = ParamStore()
    p = store.create("w", np.zeros(2))
    p.grad = np.array([np.nan, 0.0])
    with pytest.raises(ad.AutodiffError, match="w"):
        store.adam_step(lr=0.1)


def test_duplicate_name_rejected():
    store = ParamStore()
    store.create("a", np.zeros(1))
    with pytest.raises(KeyError):
        store.create("a", np.zeros(1))


def test_checkpoint_round_trip_bit_identical(tmp_path):
    r = np.random.default_rng(7)
    store = ParamStore()
    store.create("layer1.weight", r.normal(size=(4, 5)))
    store.create("layer1.bias", r.normal(size=(5,)))
    store.create("deep.nested.scale", r.normal(size=(2, 3, 4)))
    path = tmp_path / "test.ckpt"
    save_checkpoint(store, path)
    loaded = load_checkpoint(path)
    assert loaded.names() == store.names()
    for name in store.names():
        assert np.array_equal(loaded[name].values, store[name].values)
    # a second save of the loaded store is byte-identical
    path2 = tmp_path / "again.ckpt"
    save_checkpoint(loaded, path2)
    assert path.read_bytes() == path2.read_bytes()


def test_checkpoint_missing_file():
    with pytest.raises(CheckpointError, match="not found"):
        load_checkpoint("/nonexistent/nowhere.ckpt")


def test_checkpoint_bad_magic(tmp_path):
    path = tmp_path / "bad.ckpt"
    path.write_bytes(b"NOPE" + b"\x00" * 16)
    with pytest.raises(CheckpointError, match="magic"):
        load_checkpoint(path)


def test_checkpoint_truncation_detected(tmp_path):
    store = ParamStore()
    store.create("w", np.arange(6, dtype=np.float64).reshape(2, 3))
    path = tmp_path / "full.ckpt"
    save_checkpoint(store, path)
    clipped = tmp_path / "clipped.ckpt"
    clipped.write_bytes(path.read_bytes()[:-9])
    with pytest.raises(CheckpointError):
        load_checkpoint(clipped)


def test_checkpoint_preserves_forward_output(tmp_path):
    r = np.random.default_rng(11)
    store = ParamStore()
    store.create("w", r.normal(size=(3, 3)))
    x = ad.constant(r.normal(size=(2, 3)))
    before = ad.matmul(x, store["w"]).values
    path = tmp_path / "fw.ckpt"
    save_checkpoint(store, path)
    loaded = load_checkpoint(path)
    after = ad.matmul(x, loaded["w"]).values
    assert np.array_equal(before, after)
