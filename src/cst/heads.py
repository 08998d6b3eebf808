"""Task heads over the transformer's two output tokens.

The classification head mixes channels with 1x1 convolutions and averages
spatially before a 2-way softmax; the segmentation head uses 3x3 convolutions
for local context, softmaxes per pixel, and upsamples the foreground
probability to the query image size. Channel 0 is background, channel 1
foreground. With decoupled heads off, classification is instead derived from
the segmentation probabilities downstream (spatial mean).
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from . import autodiff as ad
from .params import ParamStore, init_conv

NUM_OUT = 2  # background / foreground


def init_heads(store: ParamStore, channels: int, width: int,
               rng: np.random.Generator, decoupled: bool = True) -> None:
    if decoupled:
        init_conv(store, "clf_head.conv1", channels, width, 1, rng)
        init_conv(store, "clf_head.conv2", width, NUM_OUT, 1, rng)
    init_conv(store, "seg_head.conv1", channels, width, 3, rng)
    init_conv(store, "seg_head.conv2", width, NUM_OUT, 3, rng)


def _tokens_to_map(tokens: ad.Tensor, grid: Tuple[int, int]) -> ad.Tensor:
    h, w = grid
    c = tokens.values.shape[-1]
    return ad.transpose(ad.reshape(tokens, (h, w, c)), (2, 0, 1))


def _two_conv(store: ParamStore, prefix: str, x: ad.Tensor) -> ad.Tensor:
    x = ad.conv2d(x, store[f"{prefix}.conv1.weight"], store[f"{prefix}.conv1.bias"])
    x = ad.relu(x)
    return ad.conv2d(x, store[f"{prefix}.conv2.weight"], store[f"{prefix}.conv2.bias"])


def classify(store: ParamStore, clf_tokens: ad.Tensor,
             grid: Tuple[int, int]) -> ad.Tensor:
    """Foreground probability of the query, as a (1,) tensor."""
    logits = _two_conv(store, "clf_head", _tokens_to_map(clf_tokens, grid))
    pooled = ad.global_avg_pool(logits)
    probs = ad.softmax(pooled, axis=0)
    return ad.take(probs, 0, [1])


def segment(store: ParamStore, seg_tokens: ad.Tensor, grid: Tuple[int, int],
            out_hw: Optional[Tuple[int, int]] = None) -> ad.Tensor:
    """Per-pixel foreground probability, upsampled to out_hw when given."""
    logits = _two_conv(store, "seg_head", _tokens_to_map(seg_tokens, grid))
    probs = ad.softmax(logits, axis=0)
    fg = ad.reshape(ad.take(probs, 0, [1]), grid)
    if out_hw is not None and tuple(out_hw) != tuple(grid):
        fg = ad.bilinear_resize(fg, tuple(out_hw))
    return fg


def coupled_classify(seg_prob: ad.Tensor) -> ad.Tensor:
    """Classification via the segmentation mask: spatial mean foreground mass."""
    return ad.reshape(ad.mean(seg_prob), (1,))
