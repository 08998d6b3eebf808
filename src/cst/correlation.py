"""Cosine correlation volumes between query and support token bundles.

For every (layer, head) channel the volume holds the query-token/class-token
correlations and the full query/support token correlation map. Channels are
ordered layer-major (channel = layer * heads + head). With multi-head
correlation off, the per-layer head tokens are concatenated into one long
vector before normalization, collapsing M*L channels to L.

Bundles come from a frozen backbone, so everything here is plain numpy; the
first differentiable value downstream is the transformer input built from
these volumes as a constant.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .backbone import TokenBundle

EPS_NORM = 1e-12


@dataclass
class CorrelationVolume:
    cls_corr: np.ndarray   # (T_q, channels)
    img_corr: np.ndarray   # (T_q, T_s, channels)
    query_grid: tuple
    support_grid: tuple

    @property
    def channels(self) -> int:
        return self.cls_corr.shape[1]


def _unit_columns(x: np.ndarray) -> np.ndarray:
    """Normalize the C axis (axis -2) of (..., C, T) token maps."""
    norms = np.sqrt((x * x).sum(axis=-2, keepdims=True))
    return np.where(norms < EPS_NORM, 0.0, x / np.maximum(norms, EPS_NORM))


def correlate(query: TokenBundle, support: TokenBundle,
              use_multihead: bool = True) -> CorrelationVolume:
    if query.layers != support.layers or query.heads != support.heads:
        raise ValueError("correlate: bundle layer/head extents differ")
    l, m, c, tq = query.image_tokens.shape
    ts = support.tokens
    if not use_multihead:   # one head whose width is all M*C features
        m, c = 1, m * c
    fq = _unit_columns(query.image_tokens.reshape(l, m, c, tq))
    fs = _unit_columns(support.image_tokens.reshape(l, m, c, ts))
    hs = _unit_columns(support.class_tokens.reshape(l, m, c, 1))
    fq_rows = fq.swapaxes(-1, -2)                     # (L, M, Tq, C)
    cls = np.matmul(fq_rows, hs).reshape(l * m, tq)   # (L*M, Tq)
    img = np.matmul(fq_rows, fs).reshape(l * m, tq, ts)
    return CorrelationVolume(cls_corr=cls.T, img_corr=img.transpose(1, 2, 0),
                             query_grid=query.grid, support_grid=support.grid)


def assemble_z0_batch(volume: CorrelationVolume) -> np.ndarray:
    """(T_q, 1+T_s, channels) transformer input: for each query position, the
    class-correlation row 0, then the support-token correlation rows."""
    return np.concatenate([volume.cls_corr[:, None, :], volume.img_corr], axis=1)
