"""Pseudo-ground-truth masks from the backbone's final attention layer.

The per-head score at image position i is the cosine between that position's
final-layer key row and the class-token query row. Raw pseudo-masks average
the heads, reshape to the token grid, bilinearly resize to the target, and
threshold at alpha (default -0.1). A query known to lack the class
short-circuits to an all-background mask instead of thresholding a map that
means nothing for it.

The enhancer is a three-layer 3x3 conv stack over the M head channels,
sigmoid output, trained with binary cross-entropy against the few available
GT masks; its binarization threshold is 0.5. Everything in this module
produces plain numpy masks: no gradient ever flows out of a pseudo-mask.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Tuple

import numpy as np

from . import autodiff as ad
from .autodiff import bilinear_resize_array
from .backbone import TokenBundle
from .objective import binary_ce
from .params import ParamStore, init_conv

ALPHA = -0.1
ENHANCER_WIDTH = 32
ENHANCER_BATCH = 8


@dataclass
class MaskMap:
    values: np.ndarray   # (H, W), binary 0/1 or real scores
    binary: bool

    @property
    def shape(self) -> tuple:
        return self.values.shape

    def validate(self) -> None:
        if self.binary and not np.isin(self.values, (0.0, 1.0)).all():
            raise ValueError("binary mask carries values outside {0, 1}")


@dataclass
class AttentionStack:
    scores: np.ndarray   # (M, T) per-head cosine scores in [-1, 1]
    grid: Tuple[int, int]

    def validate(self) -> None:
        m, t = self.scores.shape
        if t != self.grid[0] * self.grid[1]:
            raise ValueError(f"attention stack: T={t} != grid {self.grid}")
        if np.abs(self.scores).max() > 1.0 + 1e-9:
            raise ValueError("attention stack: cosine scores outside [-1, 1]")


def _unit_rows(x: np.ndarray) -> np.ndarray:
    norms = np.linalg.norm(x, axis=-1, keepdims=True)
    return np.where(norms < 1e-12, 0.0, x / np.maximum(norms, 1e-12))


def attention_scores(image: TokenBundle, probe: TokenBundle) -> AttentionStack:
    """Cosine of each image key row against the probe's class query row.

    With probe == image this is the support's own saliency map; with a query
    bundle as `image` it scores the query against the support's class.
    """
    if image.heads != probe.heads:
        raise ValueError("attention_scores: head counts differ")
    keys = _unit_rows(image.last_k[:, 1:, :])          # (M, T, C)
    cls = _unit_rows(probe.last_q[:, 0, :])[:, :, None]  # (M, C, 1)
    scores = np.matmul(keys, cls)[:, :, 0]
    stack = AttentionStack(scores=scores, grid=image.grid)
    stack.validate()
    return stack


def raw_pseudomask(stack: AttentionStack, y_clf: int,
                   target: Tuple[int, int], alpha: float = ALPHA) -> MaskMap:
    """Head-average, resize to target, threshold at > alpha.

    y_clf is the image-level presence label; absent classes yield an
    all-background mask directly.
    """
    if y_clf == 0:
        return MaskMap(values=np.zeros(target), binary=True)
    mean_map = stack.scores.mean(axis=0).reshape(stack.grid)
    resized = bilinear_resize_array(mean_map, target)
    return MaskMap(values=(resized > alpha).astype(np.float64), binary=True)


def downsample_mask(mask: np.ndarray, target: Tuple[int, int]) -> np.ndarray:
    """Image-resolution binary mask -> support-grid binary mask (> 0.5)."""
    resized = bilinear_resize_array(mask.astype(np.float64), target)
    return (resized > 0.5).astype(np.float64)


# ---------------------------------------------------------------------------
# mask enhancer
# ---------------------------------------------------------------------------

def init_enhancer(store: ParamStore, heads: int, rng: np.random.Generator,
                  width: int = ENHANCER_WIDTH) -> None:
    init_conv(store, "enhancer.conv1", heads, width, 3, rng)
    init_conv(store, "enhancer.conv2", width, width, 3, rng)
    init_conv(store, "enhancer.conv3", width, 1, 3, rng)


def _enhancer_forward(store: ParamStore, stack: AttentionStack) -> ad.Tensor:
    h, w = stack.grid
    x = ad.constant(stack.scores.reshape(-1, h, w))
    x = ad.relu(ad.conv2d(x, store["enhancer.conv1.weight"],
                          store["enhancer.conv1.bias"]))
    x = ad.relu(ad.conv2d(x, store["enhancer.conv2.weight"],
                          store["enhancer.conv2.bias"]))
    x = ad.conv2d(x, store["enhancer.conv3.weight"], store["enhancer.conv3.bias"])
    return ad.sigmoid(ad.reshape(x, (h, w)))


def enhance(store: ParamStore, stack: AttentionStack, y_clf: int,
            target: Tuple[int, int]) -> MaskMap:
    """Enhancer probabilities resized to target, binarized at >= 0.5."""
    if y_clf == 0:
        return MaskMap(values=np.zeros(target), binary=True)
    probs = _enhancer_forward(store, stack).values
    resized = bilinear_resize_array(probs, target)
    return MaskMap(values=(resized >= 0.5).astype(np.float64), binary=True)


def train_enhancer(store: ParamStore, pairs: Sequence[tuple], lr: float,
                   steps: int, batch: int = ENHANCER_BATCH) -> list:
    """Fit the enhancer with BCE on (AttentionStack, GT mask) pairs.

    One step is an Adam update on a deterministic rotating mini-batch. GT
    masks may be at any resolution; predictions are resized to match.
    Returns the per-step mean losses.
    """
    if not pairs:
        raise ValueError("train_enhancer: no training pairs")
    names = [n for n in store.names() if n.startswith("enhancer.")]
    batch = min(batch, len(pairs))
    losses = []
    for step in range(steps):
        members = [pairs[(step * batch + j) % len(pairs)] for j in range(batch)]
        terms = []
        for stack, gt in members:
            probs = _enhancer_forward(store, stack)
            probs = ad.bilinear_resize(probs, gt.shape)
            terms.append(binary_ce(probs, gt.astype(np.float64)))
        loss = ad.mean(ad.concat([ad.reshape(t, (1,)) for t in terms], 0))
        ad.backward(loss)
        store.adam_step(lr, names=names)
        losses.append(loss.item())
    return losses


def write_pgm(mask: np.ndarray, path) -> None:
    """8-bit binary PGM (P5), foreground 255, background 0."""
    h, w = mask.shape
    data = (np.asarray(mask) > 0.5).astype(np.uint8) * 255
    with open(path, "wb") as fh:
        fh.write(f"P5\n{w} {h}\n255\n".encode("ascii"))
        fh.write(data.tobytes())


def read_pgm(path) -> np.ndarray:
    """Read an 8-bit P5 PGM into a uint8 array."""
    with open(path, "rb") as fh:
        data = fh.read()
    fields = []
    idx = 0
    while len(fields) < 4:
        while idx < len(data) and data[idx:idx + 1].isspace():
            idx += 1
        if data[idx:idx + 1] == b"#":
            while idx < len(data) and data[idx] != 0x0A:
                idx += 1
            continue
        start = idx
        while idx < len(data) and not data[idx:idx + 1].isspace():
            idx += 1
        fields.append(data[start:idx])
    if fields[0] != b"P5":
        raise ValueError(f"not a P5 PGM: {path}")
    w, h, maxval = int(fields[1]), int(fields[2]), int(fields[3])
    if maxval != 255:
        raise ValueError(f"unsupported PGM maxval {maxval}")
    pixels = np.frombuffer(data, dtype=np.uint8, count=h * w, offset=idx + 1)
    return pixels.reshape(h, w).copy()
