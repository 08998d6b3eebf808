"""Correlation volumes against brute-force cosine recomputation."""

import numpy as np

from cst.backbone import BackboneConfig, TokenBundle, synthetic_tokens
from cst.correlation import assemble_z0_batch, correlate
from cst.seeding import rng_for

from helpers import assert_close


def _bundle(seed: int, grid=(6, 6), layers=2, heads=3, dim=8):
    """Random dense bundle; correlation only needs shapes, not geometry."""
    rng = rng_for(seed, "corrtest")
    t = grid[0] * grid[1]
    return TokenBundle(
        image_tokens=rng.normal(size=(layers, heads, dim, t)),
        class_tokens=rng.normal(size=(layers, heads, dim)),
        last_q=rng.normal(size=(heads, 1 + t, dim)),
        last_k=rng.normal(size=(heads, 1 + t, dim)),
        grid=grid)


def _cos(a, b):
    na = np.linalg.norm(a)
    nb = np.linalg.norm(b)
    if na < 1e-12 or nb < 1e-12:
        return 0.0
    return float(a @ b) / (na * nb)


def test_multihead_shapes_and_bounds():
    q, s = _bundle(1), _bundle(2)
    vol = correlate(q, s)
    assert vol.cls_corr.shape == (36, 6)
    assert vol.img_corr.shape == (36, 36, 6)
    assert np.abs(vol.cls_corr).max() <= 1.0 + 1e-9
    assert np.abs(vol.img_corr).max() <= 1.0 + 1e-9


def test_multihead_matches_bruteforce():
    q, s = _bundle(3, grid=(3, 4)), _bundle(4, grid=(2, 5))
    vol = correlate(q, s)
    for t in range(12):
        for l in range(2):
            for m in range(3):
                ch = l * 3 + m
                expect = _cos(q.image_tokens[l, m, :, t], s.class_tokens[l, m])
                assert_close(vol.cls_corr[t, ch], expect, atol=1e-12)
                for u in range(10):
                    expect = _cos(q.image_tokens[l, m, :, t],
                                  s.image_tokens[l, m, :, u])
                    assert_close(vol.img_corr[t, u, ch], expect, atol=1e-12)


def test_singlehead_matches_bruteforce():
    """Single-head mode concatenates heads before normalizing: L channels."""
    q, s = _bundle(5, grid=(3, 3)), _bundle(6, grid=(3, 3))
    vol = correlate(q, s, use_multihead=False)
    assert vol.cls_corr.shape == (9, 2)
    for t in range(9):
        for l in range(2):
            qa = q.image_tokens[l, :, :, t].reshape(-1)
            assert_close(vol.cls_corr[t, l],
                         _cos(qa, s.class_tokens[l].reshape(-1)), atol=1e-12)
            for u in range(9):
                sa = s.image_tokens[l, :, :, u].reshape(-1)
                assert_close(vol.img_corr[t, u, l], _cos(qa, sa), atol=1e-12)


def test_scale_invariance():
    q, s = _bundle(7), _bundle(8)
    scaled = TokenBundle(image_tokens=q.image_tokens * 3.7,
                         class_tokens=q.class_tokens * 0.2,
                         last_q=q.last_q, last_k=q.last_k, grid=q.grid)
    a, b = correlate(q, s), correlate(scaled, s)
    assert_close(a.cls_corr, b.cls_corr, atol=1e-12)
    assert_close(a.img_corr, b.img_corr, atol=1e-12)


def test_zero_token_correlates_to_zero():
    q, s = _bundle(9), _bundle(10)
    q.image_tokens[:, :, :, 0] = 0.0
    vol = correlate(q, s)
    assert np.all(vol.cls_corr[0] == 0.0)
    assert np.all(vol.img_corr[0] == 0.0)


def test_support_permutation_equivariance():
    q, s = _bundle(11), _bundle(12)
    perm = rng_for(0, "perm").permutation(36)
    shuffled = TokenBundle(image_tokens=s.image_tokens[:, :, :, perm],
                           class_tokens=s.class_tokens,
                           last_q=s.last_q, last_k=s.last_k, grid=s.grid)
    a, b = correlate(q, s), correlate(q, shuffled)
    assert_close(b.img_corr, a.img_corr[:, perm], atol=1e-12)
    assert_close(b.cls_corr, a.cls_corr, atol=1e-12)


def test_assemble_z0_layout():
    q, s = _bundle(13), _bundle(14)
    vol = correlate(q, s)
    batch = assemble_z0_batch(vol)
    assert batch.shape == (36, 37, 6)
    assert_close(batch[:, 0], vol.cls_corr, atol=0)
    assert_close(batch[:, 1:], vol.img_corr, atol=0)


def test_desk_backbone_channel_count():
    cfg = BackboneConfig()
    from cst.backbone import random_grid_image
    rng = rng_for(20, "img")
    img = random_grid_image("a", rng, [1, 2], 1, 6)
    qb = synthetic_tokens(img, cfg, 0)
    sb = synthetic_tokens(img, cfg, 1)
    assert correlate(qb, sb).channels == 8
    assert correlate(qb, sb, use_multihead=False).channels == 2
