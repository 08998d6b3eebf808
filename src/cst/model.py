"""Composition of correlation volume, transformer, and task heads."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from .backbone import TokenBundle, resize_support_grid
from .correlation import CorrelationVolume, assemble_z0_batch, correlate
from .heads import classify, coupled_classify, init_heads, segment
from .objective import PredictionPair
from .params import ParamStore
from .seeding import rng_for
from .transformer import (CorrTransformerConfig, forward_corr_transformer,
                          init_corr_transformer)


@dataclass(frozen=True)
class ModelConfig:
    corr: CorrTransformerConfig
    head_width: int = 128
    use_multihead: bool = True


def init_model(store: ParamStore, cfg: ModelConfig, seed: int) -> None:
    init_corr_transformer(store, cfg.corr, rng_for(seed, "init", "transformer"))
    init_heads(store, cfg.corr.channels, cfg.head_width,
               rng_for(seed, "init", "heads"), decoupled=cfg.corr.decoupled_heads)


def prepare_volume(query: TokenBundle, support: TokenBundle,
                   cfg: ModelConfig) -> CorrelationVolume:
    """Resize the support grid to the transformer's and correlate; cheap
    enough to build for every forward, so callers do not cache it."""
    support = resize_support_grid(support, cfg.corr.support_grid)
    volume = correlate(query, support, use_multihead=cfg.use_multihead)
    if volume.channels != cfg.corr.in_channels:
        raise ValueError(f"volume has {volume.channels} channels, transformer "
                         f"expects {cfg.corr.in_channels}")
    return volume


def forward_volume(store: ParamStore, cfg: ModelConfig,
                   volume: CorrelationVolume,
                   support_mask: Optional[np.ndarray],
                   out_hw: Optional[Tuple[int, int]] = None) -> PredictionPair:
    """Full differentiable pass from an assembled volume to a PredictionPair."""
    clf_tokens, seg_tokens = forward_corr_transformer(
        store, cfg.corr, assemble_z0_batch(volume), support_mask)
    grid = volume.query_grid
    seg_prob = segment(store, seg_tokens, grid, out_hw)
    if cfg.corr.decoupled_heads:
        clf_prob = classify(store, clf_tokens, grid)
    else:
        clf_prob = coupled_classify(seg_prob)
    return PredictionPair(clf_prob=clf_prob, seg_prob=seg_prob)


def count_model_params(store: ParamStore) -> dict:
    counts = {
        "corr_transformer": store.count("corr_transformer"),
        "clf_head": store.count("clf_head"),
        "seg_head": store.count("seg_head"),
    }
    if store.count("enhancer"):
        counts["enhancer"] = store.count("enhancer")
    counts["total"] = sum(counts.values())
    return counts
