"""Masked correlation transformer with progressive support pooling.

Two layers. Each layer spatially pools its image-token rows once (the
class-correlation row is exempt) and projects the query from those pooled
rows; an affine map commutes with the mean pool, so this equals pooling the
projected rows. Keys and values are projected from row 0 and the support
positions the mask keeps, and from nothing else, so attention runs over
exactly the attendable tokens. Heads are aggregated through a learned output
map and the pooled rows come back as the residual; a single feed-forward
linear with its own residual follows. Group normalization (4 groups) closes
both sublayers.

Layer 1's query/key/value and shortcut maps also carry the channel projection
(in_channels -> channels), so the token width changes once, up front; layer
2's shortcut is the identity since extents already match. Keeping the
projection inside these maps (instead of a separate input layer plus
projection shortcuts everywhere) is what holds the parameter count near the
reference design budget.

Token counts collapse 1+T_s -> 1+T_s/k1^2 -> 2; the surviving two tokens are
the classification token (row 0 lineage) and the fully pooled image token.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from . import autodiff as ad
from .params import ParamStore, init_linear, init_norm


@dataclass(frozen=True)
class CorrTransformerConfig:
    in_channels: int = 72
    channels: int = 128
    attn_heads: int = 4
    norm_groups: int = 4
    support_grid: Tuple[int, int] = (12, 12)
    pool_kernels: Tuple[int, int] = (4, 3)
    decoupled_heads: bool = True

    def validate(self) -> None:
        if self.channels % self.attn_heads:
            raise ValueError(f"channels {self.channels} not divisible by "
                             f"{self.attn_heads} attention heads")
        if self.channels % self.norm_groups:
            raise ValueError(f"channels {self.channels} not divisible by "
                             f"{self.norm_groups} norm groups")
        h, w = self.support_grid
        for k in self.pool_kernels:
            if h % k or w % k:
                raise ValueError(f"pool kernel {k} does not tile grid {h}x{w}")
            h, w = h // k, w // k
        if (h, w) != (1, 1):
            raise ValueError(f"pool kernels {self.pool_kernels} leave a "
                             f"{h}x{w} grid; must collapse to 1x1")

    def stage_grids(self) -> list:
        grids = [self.support_grid]
        h, w = self.support_grid
        for k in self.pool_kernels:
            h, w = h // k, w // k
            grids.append((h, w))
        return grids


def init_corr_transformer(store: ParamStore, cfg: CorrTransformerConfig,
                          rng: np.random.Generator) -> None:
    cfg.validate()
    c_in, c = cfg.in_channels, cfg.channels
    for layer, d_in in (("layer1", c_in), ("layer2", c)):
        base = f"corr_transformer.{layer}"
        for name in ("query", "key", "value"):
            init_linear(store, f"{base}.{name}", d_in, c, rng)
        if d_in != c:
            init_linear(store, f"{base}.shortcut", d_in, c, rng)
        init_linear(store, f"{base}.aggregate", c, c, rng)
        init_norm(store, f"{base}.attn_norm", c)
        init_linear(store, f"{base}.feedforward", c, c, rng)
        init_norm(store, f"{base}.ff_norm", c)


def _linear(store: ParamStore, name: str, x: ad.Tensor) -> ad.Tensor:
    return ad.add(ad.matmul(x, store[f"{name}.weight"]), store[f"{name}.bias"])


def _pool_rows(z: ad.Tensor, grid: Tuple[int, int], k: int) -> ad.Tensor:
    """Pool the image-token rows of (..., 1+T, C); row 0 passes through."""
    head = ad.take(z, -2, [0])
    body = ad.take(z, -2, np.arange(1, z.values.shape[-2]))
    return ad.concat([head, ad.avg_pool_grid(body, grid, k)], axis=-2)


def pool_support_mask(mask: np.ndarray, k: int) -> np.ndarray:
    """Average-pool a binary grid mask and re-binarize at > 0, so a window
    containing any foreground stays attendable."""
    h, w = mask.shape
    pooled = mask.reshape(h // k, k, w // k, k).mean(axis=(1, 3))
    return (pooled > 0.0).astype(np.float64)


def _split_heads(x: ad.Tensor, heads: int) -> ad.Tensor:
    b, n, c = x.values.shape
    return ad.transpose(ad.reshape(x, (b, n, heads, c // heads)), (0, 2, 1, 3))


def _merge_heads(x: ad.Tensor) -> ad.Tensor:
    b, h, n, dh = x.values.shape
    return ad.reshape(ad.transpose(x, (0, 2, 1, 3)), (b, n, h * dh))


def forward_corr_transformer(store: ParamStore, cfg: CorrTransformerConfig,
                             z0: np.ndarray,
                             support_mask: Optional[np.ndarray],
                             collect: bool = False):
    """Run the two-stage transformer on a (T_q, 1+T_s, in_channels) stack.

    support_mask is a binary (h, w) array on the support grid, or None for an
    unmasked forward. Keys and values come from row 0 and the support rows
    the mask keeps (every row without one); the mask is pooled alongside the
    rows for layer 2. Returns (clf_tokens, seg_tokens) as (T_q, channels)
    Tensors, plus an internals dict when collect is set, whose attention maps
    span every key row and read exactly 0 on the dropped ones.
    """
    tq, n_tokens, c_in = z0.shape
    h, w = cfg.support_grid
    if n_tokens != 1 + h * w:
        raise ad.ShapeError(f"transformer: {n_tokens} tokens != 1+{h}x{w}")
    if c_in != cfg.in_channels:
        raise ad.ShapeError(f"transformer: {c_in} channels != {cfg.in_channels}")
    if support_mask is not None and support_mask.shape != (h, w):
        raise ad.ShapeError(f"transformer: mask {support_mask.shape} != grid {h}x{w}")

    internals = {"token_counts": [n_tokens], "attention": []}
    z = ad.constant(z0)
    mask = support_mask
    grid = (h, w)
    heads = cfg.attn_heads
    scale = 1.0 / np.sqrt(cfg.channels / heads)

    for layer, k in zip(("layer1", "layer2"), cfg.pool_kernels):
        base = f"corr_transformer.{layer}"
        rows = z.values.shape[1]
        kept = (np.arange(rows) if mask is None
                else np.concatenate([[0], 1 + np.flatnonzero(mask > 0.0)]))
        pooled = _pool_rows(z, grid, k)
        attendable = ad.take(z, 1, kept)
        qh = _split_heads(_linear(store, f"{base}.query", pooled), heads)
        key = _split_heads(_linear(store, f"{base}.key", attendable), heads)
        val = _split_heads(_linear(store, f"{base}.value", attendable), heads)

        logits = ad.scale(ad.matmul(qh, ad.transpose(key, (0, 1, 3, 2))), scale)
        attn = ad.softmax(logits, axis=-1)
        gathered = _merge_heads(ad.matmul(attn, val))
        aggregated = _linear(store, f"{base}.aggregate", gathered)

        shortcut = pooled
        if f"{base}.shortcut.weight" in store:
            shortcut = _linear(store, f"{base}.shortcut", pooled)
        attended = ad.group_norm(ad.add(aggregated, shortcut),
                                 store[f"{base}.attn_norm.scale"],
                                 store[f"{base}.attn_norm.shift"],
                                 cfg.norm_groups)
        ff = _linear(store, f"{base}.feedforward", attended)
        z = ad.group_norm(ad.add(ff, attended),
                          store[f"{base}.ff_norm.scale"],
                          store[f"{base}.ff_norm.shift"],
                          cfg.norm_groups)

        if collect:
            full = np.zeros(attn.values.shape[:-1] + (rows,))
            full[..., kept] = attn.values
            internals["attention"].append(full)
        grid = (grid[0] // k, grid[1] // k)
        if mask is not None:
            mask = pool_support_mask(mask, k)
        internals["token_counts"].append(z.values.shape[1])

    clf_tokens = ad.reshape(ad.take(z, 1, [0]), (tq, cfg.channels))
    seg_tokens = ad.reshape(ad.take(z, 1, [1]), (tq, cfg.channels))
    if collect:
        return clf_tokens, seg_tokens, internals
    return clf_tokens, seg_tokens
