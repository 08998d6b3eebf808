"""Correlation transformer: collapse schedule, masking semantics, gradients."""

import numpy as np
import pytest

from cst import autodiff as ad
from cst.params import ParamStore
from cst.seeding import rng_for
from cst.transformer import (CorrTransformerConfig, forward_corr_transformer,
                             init_corr_transformer, pool_support_mask)

from helpers import assert_close, check_param_gradients

MICRO = CorrTransformerConfig(in_channels=4, channels=8, attn_heads=2,
                              norm_groups=2, support_grid=(3, 3),
                              pool_kernels=(3, 1))


def _ready(cfg: CorrTransformerConfig, seed: int = 0) -> ParamStore:
    store = ParamStore()
    init_corr_transformer(store, cfg, rng_for(seed, "t"))
    return store


def _z0(cfg: CorrTransformerConfig, tq: int, seed: int = 1) -> np.ndarray:
    h, w = cfg.support_grid
    rng = rng_for(seed, "z0")
    return rng.uniform(-1.0, 1.0, size=(tq, 1 + h * w, cfg.in_channels))


def test_config_validation():
    with pytest.raises(ValueError):
        CorrTransformerConfig(channels=10, attn_heads=4).validate()
    with pytest.raises(ValueError):
        CorrTransformerConfig(pool_kernels=(4, 4)).validate()
    with pytest.raises(ValueError):
        CorrTransformerConfig(support_grid=(10, 10)).validate()


def test_reference_token_collapse():
    """145 -> 10 -> 2 on the 12x12 support grid with 4x4 then 3x3 pooling."""
    cfg = CorrTransformerConfig(in_channels=72, channels=16)
    store = _ready(cfg)
    clf, seg, internals = forward_corr_transformer(
        store, cfg, _z0(cfg, 3), None, collect=True)
    assert internals["token_counts"] == [145, 10, 2]
    assert clf.values.shape == (3, 16)
    assert seg.values.shape == (3, 16)


def test_all_ones_mask_equals_unmasked():
    store = _ready(MICRO)
    z0 = _z0(MICRO, 2)
    clf_a, seg_a = forward_corr_transformer(store, MICRO, z0, None)
    clf_b, seg_b = forward_corr_transformer(store, MICRO, z0,
                                            np.ones(MICRO.support_grid))
    assert np.array_equal(clf_a.values, clf_b.values)
    assert np.array_equal(seg_a.values, seg_b.values)


def test_masked_keys_get_exactly_zero_weight():
    store = _ready(MICRO, seed=2)
    z0 = _z0(MICRO, 2, seed=3)
    mask = np.ones((3, 3))
    mask[1, :] = 0.0
    _, _, internals = forward_corr_transformer(store, MICRO, z0, mask,
                                               collect=True)
    attn = internals["attention"][0]          # (Tq, heads, Nq, Nk)
    dropped = 1 + np.flatnonzero(mask.reshape(-1) == 0.0)
    assert np.all(attn[:, :, :, dropped] == 0.0)
    # Row 0 is the class-correlation token and always attendable.
    assert np.all(attn[:, :, :, 0] > 0.0)
    assert_close(attn.sum(axis=-1), np.ones(attn.shape[:-1]), atol=1e-12)


def test_all_zero_mask_keeps_row_0():
    store = _ready(MICRO, seed=8)
    z0 = _z0(MICRO, 2, seed=9)
    clf, seg, internals = forward_corr_transformer(
        store, MICRO, z0, np.zeros(MICRO.support_grid), collect=True)
    for attn in internals["attention"]:       # (Tq, heads, Nq, Nk) per layer
        assert np.all(attn[..., 0] == 1.0)
        assert np.all(attn[..., 1:] == 0.0)
    assert np.all(np.isfinite(clf.values)) and np.all(np.isfinite(seg.values))


def test_mask_changes_output():
    store = _ready(MICRO, seed=4)
    z0 = _z0(MICRO, 2, seed=5)
    mask = np.ones((3, 3))
    mask[0, 0] = 0.0
    clf_a, _ = forward_corr_transformer(store, MICRO, z0, None)
    clf_b, _ = forward_corr_transformer(store, MICRO, z0, mask)
    assert not np.array_equal(clf_a.values, clf_b.values)


def test_pool_support_mask_any_survivor():
    mask = np.zeros((4, 4))
    mask[2, 3] = 1.0
    pooled = pool_support_mask(mask, 2)
    assert pooled.shape == (2, 2)
    assert pooled.tolist() == [[0.0, 0.0], [0.0, 1.0]]
    assert pool_support_mask(np.zeros((4, 4)), 2).sum() == 0.0


def test_shape_guards():
    store = _ready(MICRO)
    with pytest.raises(ad.ShapeError):
        forward_corr_transformer(store, MICRO, _z0(MICRO, 2)[:, :-1], None)
    with pytest.raises(ad.ShapeError):
        forward_corr_transformer(store, MICRO, _z0(MICRO, 2), np.ones((2, 2)))


def test_layer1_carries_projection_layer2_identity():
    store = _ready(CorrTransformerConfig(in_channels=72, channels=128))
    assert "corr_transformer.layer1.shortcut.weight" in store
    assert "corr_transformer.layer2.shortcut.weight" not in store
    # Matched widths drop the learned shortcut entirely.
    even = _ready(CorrTransformerConfig(in_channels=8, channels=8,
                                        attn_heads=2, norm_groups=2))
    assert "corr_transformer.layer1.shortcut.weight" not in even


def test_reference_parameter_count():
    store = _ready(CorrTransformerConfig())
    assert store.count("corr_transformer") == 153984


def test_gradients_micro_config():
    store = _ready(MICRO, seed=6)
    z0 = _z0(MICRO, 2, seed=7)
    mask = np.ones((3, 3))
    mask[0, 1] = 0.0

    def build_loss():
        clf, seg = forward_corr_transformer(store, MICRO, z0, mask)
        w1 = np.linspace(0.5, 1.5, clf.values.size).reshape(clf.values.shape)
        w2 = np.linspace(-1.0, 1.0, seg.values.size).reshape(seg.values.shape)
        return ad.add(ad.sum_(ad.mul(clf, ad.constant(w1))),
                      ad.sum_(ad.mul(seg, ad.constant(w2))))

    names = sorted(n for n in store.entries if n.startswith("corr_transformer"))
    check_param_gradients(store, names, build_loss, "transformer")
