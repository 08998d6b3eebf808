"""Plain-numpy forward pass of the correlation model, written from the method.

It shares no code with `cst` beyond reading parameter arrays by name, so a
fault in the tape's kernels or in the model wiring shows up as a difference
from `cst.model.forward_volume` / `cst.objective.compute_loss`.

Method, per transformer layer with pooling kernel k:
  - query/key/value are affine maps of the tokens; query rows other than the
    class row 0 are k x k mean-pooled on the support grid;
  - multi-head scaled dot-product attention where masked support keys take
    no part in the softmax (row 0 always does);
  - output map, plus a pooled (and, where the width changes, projected)
    shortcut, then group normalisation;
  - one linear feed-forward with residual, then group normalisation;
  - the support mask is mean-pooled and kept where any cell was kept.
Heads: two convolutions with a ReLU between (1x1 for classification, 3x3 for
segmentation), a 2-way softmax (over the spatial mean for classification,
per pixel for segmentation), foreground channel 1.
Loss: binary cross-entropy on both outputs, total = lam * clf + seg.
"""

from __future__ import annotations

import numpy as np

LOG_FLOOR = 1e-12
NORM_EPS = 1e-12


def _group_norm(x, scale, shift, groups):
    c = x.shape[-1]
    g = x.reshape(x.shape[:-1] + (groups, c // groups))
    mu = g.mean(axis=-1, keepdims=True)
    var = ((g - mu) ** 2).mean(axis=-1, keepdims=True)
    return ((g - mu) / np.sqrt(var + NORM_EPS)).reshape(x.shape) * scale + shift


def _pool_rows(x, grid, k):
    """Row 0 passes; rows 1.. form an (h, w) grid pooled k x k."""
    t, _, c = x.shape
    h, w = grid
    body = x[:, 1:].reshape(t, h // k, k, w // k, k, c).mean(axis=(2, 4))
    return np.concatenate([x[:, :1], body.reshape(t, -1, c)], axis=1)


def _attention(q, key, val, keep, heads):
    t, nq, c = q.shape
    nk = key.shape[1]
    dh = c // heads
    qh = q.reshape(t, nq, heads, dh)
    kh = key.reshape(t, nk, heads, dh)
    vh = val.reshape(t, nk, heads, dh)
    logits = np.einsum("tqhd,tkhd->thqk", qh, kh) / np.sqrt(dh)
    logits = np.where(keep, logits, -np.inf)
    weights = np.exp(logits - logits.max(axis=-1, keepdims=True))
    weights /= weights.sum(axis=-1, keepdims=True)
    return np.einsum("thqk,tkhd->tqhd", weights, vh).reshape(t, nq, c)


def transformer(params, corr_cfg, z0, mask):
    """(T_q, 1+h*w, C_in) tokens -> (clf_tokens, seg_tokens), each (T_q, C)."""
    z = z0
    grid = tuple(corr_cfg.support_grid)
    for layer, k in zip(("layer1", "layer2"), corr_cfg.pool_kernels):
        base = f"corr_transformer.{layer}"

        def lin(name, x):
            return x @ params[f"{base}.{name}.weight"] + params[f"{base}.{name}.bias"]

        keep = np.ones(1 + grid[0] * grid[1], dtype=bool)
        if mask is not None:
            keep[1:] = mask.reshape(-1) > 0
        mixed = _attention(_pool_rows(lin("query", z), grid, k),
                           lin("key", z), lin("value", z), keep,
                           corr_cfg.attn_heads)
        shortcut = _pool_rows(z, grid, k)
        if f"{base}.shortcut.weight" in params:
            shortcut = lin("shortcut", shortcut)
        attended = _group_norm(lin("aggregate", mixed) + shortcut,
                               params[f"{base}.attn_norm.scale"],
                               params[f"{base}.attn_norm.shift"],
                               corr_cfg.norm_groups)
        z = _group_norm(lin("feedforward", attended) + attended,
                        params[f"{base}.ff_norm.scale"],
                        params[f"{base}.ff_norm.shift"], corr_cfg.norm_groups)
        if mask is not None:
            h, w = grid
            mask = (mask.reshape(h // k, k, w // k, k).max(axis=(1, 3)) > 0)
        grid = (grid[0] // k, grid[1] // k)
    return z[:, 0], z[:, 1]


def _conv(x, weight, bias):
    """Zero-padded 'same' convolution of (C_in, H, W) by (C_out, C_in, k, k)."""
    cout, cin, k, _ = weight.shape
    _, h, w = x.shape
    p = k // 2
    xp = np.pad(x, ((0, 0), (p, p), (p, p)))
    cols = np.stack([xp[:, i:i + h, j:j + w]
                     for i in range(k) for j in range(k)], axis=1)
    return (np.einsum("oin,inhw->ohw", weight.reshape(cout, cin, k * k), cols)
            + bias[:, None, None])


def _softmax(x, axis):
    e = np.exp(x - x.max(axis=axis, keepdims=True))
    return e / e.sum(axis=axis, keepdims=True)


def _head(params, prefix, tokens, grid):
    h, w = grid
    x = tokens.reshape(h, w, -1).transpose(2, 0, 1)
    x = np.maximum(_conv(x, params[f"{prefix}.conv1.weight"],
                         params[f"{prefix}.conv1.bias"]), 0.0)
    return _conv(x, params[f"{prefix}.conv2.weight"],
                 params[f"{prefix}.conv2.bias"])


def forward(params, model_cfg, volume, mask):
    """Foreground probability (scalar) and per-cell map on the query grid."""
    if not model_cfg.corr.decoupled_heads:
        raise ValueError("reference covers decoupled heads only")
    z0 = np.concatenate([volume.cls_corr[:, None, :], volume.img_corr], axis=1)
    clf_tokens, seg_tokens = transformer(params, model_cfg.corr, z0, mask)
    grid = tuple(volume.query_grid)
    clf_logits = _head(params, "clf_head", clf_tokens, grid).mean(axis=(1, 2))
    clf_prob = _softmax(clf_logits, 0)[1]
    seg_prob = _softmax(_head(params, "seg_head", seg_tokens, grid), 0)[1]
    return float(clf_prob), seg_prob


def bce(prob, target):
    prob = np.asarray(prob, dtype=np.float64)
    target = np.asarray(target, dtype=np.float64)
    return float(-np.mean(target * np.log(prob + LOG_FLOOR)
                          + (1.0 - target) * np.log(1.0 - prob + LOG_FLOOR)))


def losses(clf_prob, seg_prob, y_clf, y_seg, lam):
    loss_clf = bce(clf_prob, y_clf)
    loss_seg = bce(seg_prob, y_seg)
    return {"loss_clf": loss_clf, "loss_seg": loss_seg,
            "loss_total": lam * loss_clf + loss_seg}
