"""Training losses and the episodic decision rule.

Both losses are 2-way cross-entropies: one on the image-level foreground
probability, one averaged over pixels of the upsampled segmentation map. The
total weighs classification by lambda (default 0.1) and adds segmentation.

At inference, per-class responses are averaged over the K shots; a class is
predicted present when its response exceeds delta, and a pixel is labeled
background (N+1) only when every class response at that pixel is <= delta,
otherwise by argmax with lowest-index tie-breaking.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import autodiff as ad

LAMBDA_CLF = 0.1
DELTA = 0.5
LOG_FLOOR = 1e-12


@dataclass
class PredictionPair:
    clf_prob: ad.Tensor   # (1,) foreground probability
    seg_prob: ad.Tensor   # (H, W) foreground probabilities


@dataclass
class LossReport:
    loss_clf: ad.Tensor
    loss_seg: ad.Tensor
    loss_total: ad.Tensor

    def floats(self) -> dict:
        return {"loss_clf": self.loss_clf.item(),
                "loss_seg": self.loss_seg.item(),
                "loss_total": self.loss_total.item()}


def binary_ce(prob: ad.Tensor, target: np.ndarray) -> ad.Tensor:
    """Mean two-way cross-entropy between probabilities and 0/1 targets."""
    t = ad.constant(target)
    pos = ad.mul(t, ad.log(ad.add_scalar(prob, LOG_FLOOR)))
    inv = ad.add_scalar(ad.scale(prob, -1.0), 1.0)
    neg = ad.mul(ad.add_scalar(ad.scale(t, -1.0), 1.0),
                 ad.log(ad.add_scalar(inv, LOG_FLOOR)))
    return ad.scale(ad.mean(ad.add(pos, neg)), -1.0)


def compute_loss(pred: PredictionPair, y_clf: int, y_seg: np.ndarray,
                 lam: float = LAMBDA_CLF) -> LossReport:
    """y_clf in {0,1}; y_seg a binary (H, W) map matching pred.seg_prob."""
    if y_seg.shape != pred.seg_prob.values.shape:
        raise ad.ShapeError(
            f"compute_loss: target {y_seg.shape} vs prediction "
            f"{pred.seg_prob.values.shape}")
    loss_clf = binary_ce(pred.clf_prob, np.array([float(y_clf)]))
    loss_seg = binary_ce(pred.seg_prob, y_seg.astype(np.float64))
    total = ad.add(ad.scale(loss_clf, lam), loss_seg)
    return LossReport(loss_clf=loss_clf, loss_seg=loss_seg, loss_total=total)


@dataclass
class EpisodePrediction:
    clf_decision: np.ndarray   # (N,) 0/1 presence decisions
    seg_labels: np.ndarray     # (H, W) labels in 1..N+1, N+1 is background
    clf_responses: np.ndarray  # (N,) shot-averaged probabilities
    seg_responses: np.ndarray  # (N, H, W)


def predict_episode(pairs: Sequence[Sequence[tuple]],
                    delta: float = DELTA) -> EpisodePrediction:
    """Combine per-(class, shot) responses into episode decisions.

    pairs[n][k] is (clf_prob, seg_prob) as plain floats/arrays for class n,
    shot k; responses are averaged over shots first.
    """
    n_way = len(pairs)
    clf = np.array([np.mean([float(np.asarray(p[0]).reshape(())) for p in shots])
                    for shots in pairs])
    seg = np.stack([np.mean([np.asarray(p[1], dtype=np.float64) for p in shots],
                            axis=0) for shots in pairs])
    decisions = (clf > delta).astype(np.int64)
    best = seg.argmax(axis=0)
    background = np.all(seg <= delta, axis=0)
    labels = np.where(background, n_way + 1, best + 1)
    return EpisodePrediction(clf_decision=decisions, seg_labels=labels,
                             clf_responses=clf, seg_responses=seg)
