"""Episodic training and evaluation driver.

The three supervision regimes differ only in where masks come from: ground
truth (pixel), raw attention pseudo-masks (image), or the trained enhancer
with ground truth for the flagged subset (mixed). A resolver centralizes
that choice and counts every ground-truth touch and pseudo-mask generation,
so regime hygiene is something tests can assert rather than trust.

Training is 1-way 1-shot throughout; wider episodes appear only at
evaluation, where per-class responses are combined by the decision rule in
`objective`. Validation draws a fixed episode set from the training fold and
the best-scoring parameters are the ones a run returns.
"""

from __future__ import annotations

import json
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from . import autodiff as ad
from .autodiff import AutodiffError
from .backbone import BackboneConfig, TokenBundle
from .episodes import (BundleCache, Episode, Manifest, Record,
                       assign_mixed_labels, class_binary_mask, sample_episode)
from .metrics import MetricAccumulator
from .model import ModelConfig, forward_volume, init_model, prepare_volume
from .objective import DELTA, LAMBDA_CLF, LossReport, compute_loss, predict_episode
from .params import ParamStore, save_checkpoint
from .pseudomask import (ALPHA, AttentionStack, attention_scores,
                         downsample_mask, enhance, init_enhancer,
                         raw_pseudomask, train_enhancer)
from .seeding import rng_for

REGIMES = ("image", "mixed", "pixel")


class TrainerError(RuntimeError):
    pass


@dataclass
class TrainConfig:
    model: ModelConfig
    backbone: BackboneConfig
    supervision: str = "pixel"
    pixel_fraction: float = 0.1
    steps: int = 500
    lr: float = 1e-3
    lam: float = LAMBDA_CLF
    delta: float = DELTA
    alpha: float = ALPHA
    batch_episodes: int = 1
    episode_pool: int = 0       # >0 cycles a fixed pre-sampled pool
    val_interval: int = 100
    val_episodes: int = 20
    enhancer_steps: int = 150
    enhancer_lr: float = 1e-3
    seed: int = 0

    def validate(self) -> None:
        if self.supervision not in REGIMES:
            raise TrainerError(f"unknown supervision regime: {self.supervision}")
        for name in ("steps", "batch_episodes", "val_interval", "val_episodes"):
            if getattr(self, name) < 1:
                raise TrainerError(f"{name} must be positive")
        # Every float setting, by its config key, with the closed range the
        # method allows; learning rates must also be nonzero.
        ranges = {"pixel_fraction": (self.pixel_fraction, 0.0, 1.0),
                  "lambda_clf": (self.lam, 0.0, math.inf),
                  "delta": (self.delta, 0.0, 1.0),
                  "alpha": (self.alpha, -1.0, 1.0),
                  "backbone_sigma": (self.backbone.sigma, 0.0, math.inf),
                  "lr": (self.lr, 0.0, math.inf),
                  "enhancer_lr": (self.enhancer_lr, 0.0, math.inf)}
        for name, (value, low, high) in ranges.items():
            if not (math.isfinite(value) and low <= value <= high):
                raise TrainerError(f"{name} must be finite and lie in "
                                   f"[{low}, {high}], got {value}")
        for name in ("lr", "enhancer_lr"):
            if getattr(self, name) == 0.0:
                raise TrainerError(f"{name} must be positive")


@dataclass
class Counters:
    gt_mask_model_reads: int = 0
    pseudo_masks_generated: int = 0


class SupervisionResolver:
    """Masks for one regime, at image resolution; callers pool as needed.

    In mixed mode the flagged subset keeps ground truth during training;
    outside training (and for every unflagged record) masks come from the
    enhancer. The image regime never touches ground truth at all, which the
    counters make checkable.
    """

    def __init__(self, store: ParamStore, cfg: TrainConfig, cache: BundleCache,
                 flagged: frozenset, train_mode: bool, counters: Counters):
        self.store = store
        self.cfg = cfg
        self.cache = cache
        self.flagged = flagged
        self.train_mode = train_mode
        self.counters = counters
        self._stacks: Dict[str, AttentionStack] = {}

    def bundle(self, record: Record) -> TokenBundle:
        return self.cache.get(record)

    def self_stack(self, record: Record) -> AttentionStack:
        stack = self._stacks.get(record.name)
        if stack is None:
            bundle = self.bundle(record)
            stack = attention_scores(bundle, bundle)
            self._stacks[record.name] = stack
        return stack

    def _gt(self, record: Record, class_id: int) -> np.ndarray:
        self.counters.gt_mask_model_reads += 1
        return class_binary_mask(record, class_id)

    def _uses_gt(self, record: Record) -> bool:
        if self.cfg.supervision == "pixel":
            return True
        return (self.cfg.supervision == "mixed" and self.train_mode
                and record.name in self.flagged)

    def support_mask(self, record: Record, class_id: int) -> np.ndarray:
        """Supports carry their designated class, so presence is a given."""
        if self._uses_gt(record):
            return self._gt(record, class_id)
        self.counters.pseudo_masks_generated += 1
        shape = record.grid().shape
        if self.cfg.supervision == "image":
            return raw_pseudomask(self.self_stack(record), 1, shape,
                                  self.cfg.alpha).values
        return enhance(self.store, self.self_stack(record), 1, shape).values

    def query_target(self, query: Record, class_id: int,
                     probe: TokenBundle) -> Tuple[int, np.ndarray]:
        """Training target for the query; probe is the support's bundle
        (its class rows ask "where is my class in this image")."""
        y_clf = 1 if class_id in query.classes else 0
        if self._uses_gt(query):
            return y_clf, self._gt(query, class_id)
        self.counters.pseudo_masks_generated += 1
        stack = attention_scores(self.bundle(query), probe)
        shape = query.grid().shape
        if self.cfg.supervision == "image":
            return y_clf, raw_pseudomask(stack, y_clf, shape,
                                         self.cfg.alpha).values
        return y_clf, enhance(self.store, stack, y_clf, shape).values


@dataclass
class TrainResult:
    store: ParamStore
    config: TrainConfig
    history: List[dict]
    best_miou: float
    best_step: int
    counters: Counters
    flagged: frozenset
    cache: BundleCache
    episode_pool: List[Episode] = field(default_factory=list)
    enhancer_losses: List[float] = field(default_factory=list)


def _pretrain_enhancer(store: ParamStore, cfg: TrainConfig,
                       resolver: SupervisionResolver,
                       manifest: Manifest) -> List[float]:
    records = sorted((r for r in manifest.records if r.name in resolver.flagged),
                     key=lambda r: r.name)
    if not records:
        raise TrainerError("mixed supervision flagged no records; "
                           "raise pixel_fraction")
    pairs = [(resolver.self_stack(rec), resolver._gt(rec, rec.designated))
             for rec in records]
    return train_enhancer(store, pairs, cfg.enhancer_lr, cfg.enhancer_steps)


def _train_episode(store: ParamStore, cfg: TrainConfig,
                   resolver: SupervisionResolver, ep: Episode) -> LossReport:
    class_id = ep.classes[0]
    support = ep.supports[0][0]
    query_bundle = resolver.bundle(ep.query)
    support_bundle = resolver.bundle(support)
    volume = prepare_volume(query_bundle, support_bundle, cfg.model)
    grid_mask = downsample_mask(resolver.support_mask(support, class_id),
                                cfg.model.corr.support_grid)
    y_clf, y_seg = resolver.query_target(ep.query, class_id, support_bundle)
    pred = forward_volume(store, cfg.model, volume, grid_mask,
                          out_hw=ep.query.grid().shape)
    return compute_loss(pred, y_clf, y_seg, cfg.lam)


def run_episodes(store: ParamStore, cfg: TrainConfig,
                 episodes: Sequence[Episode], resolver: SupervisionResolver,
                 class_ids: Sequence[int], workers: int = 1) -> dict:
    """Forward a batch of episodes and aggregate metrics.

    Bundles and masks are resolved serially up front, so every bundle-cache
    fill, pseudo-mask and counter update happens on the calling thread. The
    per-episode forwards then only read the store and the prepared inputs,
    so they may fan out over threads. Accumulators merge in episode order
    either way.
    """
    grid = cfg.model.corr.support_grid
    prepared = []
    for ep in episodes:
        supports = [[(resolver.bundle(rec),
                      downsample_mask(resolver.support_mask(rec, ep.classes[n]),
                                      grid))
                     for rec in ep.supports[n]] for n in range(ep.way)]
        prepared.append((ep, resolver.bundle(ep.query), supports))

    def one(item) -> MetricAccumulator:
        ep, query_bundle, supports = item
        out_hw = ep.query.grid().shape
        pairs = []
        for shots in supports:
            responses = []
            for bundle, mask in shots:
                volume = prepare_volume(query_bundle, bundle, cfg.model)
                pred = forward_volume(store, cfg.model, volume, mask,
                                      out_hw=out_hw)
                responses.append((float(pred.clf_prob.values[0]),
                                  pred.seg_prob.values.copy()))
            pairs.append(responses)
        acc = MetricAccumulator(class_ids)
        acc.update(predict_episode(pairs, cfg.delta), ep)
        return acc

    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            parts = list(pool.map(one, prepared))
    else:
        parts = [one(item) for item in prepared]
    total = MetricAccumulator(class_ids)
    for part in parts:
        total.merge(part)
    return total.finalize()


def train(cfg: TrainConfig, manifest: Manifest,
          cache: Optional[BundleCache] = None,
          out_dir: Optional[Path] = None) -> TrainResult:
    """Meta-train on 1-way 1-shot episodes; returns the best-validation model.

    The returned store holds the best parameters (also what gets
    checkpointed); the full loss/validation history rides along as a list of
    JSON-ready records.
    """
    cfg.validate()
    cache = cache if cache is not None else BundleCache(cfg.backbone)
    store = ParamStore()
    init_model(store, cfg.model, cfg.seed)
    flagged = (assign_mixed_labels(manifest, cfg.pixel_fraction)
               if cfg.supervision == "mixed" else frozenset())
    counters = Counters()
    resolver = SupervisionResolver(store, cfg, cache, flagged, True, counters)

    enhancer_losses: List[float] = []
    if cfg.supervision == "mixed":
        init_enhancer(store, cfg.backbone.heads,
                      rng_for(cfg.seed, "init", "enhancer"))
        enhancer_losses = _pretrain_enhancer(store, cfg, resolver, manifest)
    model_names = [n for n in store.entries if not n.startswith("enhancer.")]

    rng_episodes = rng_for(cfg.seed, "episodes")
    pool: List[Episode] = []
    if cfg.episode_pool:
        pool = [sample_episode(manifest, 1, 1, rng_episodes)
                for _ in range(cfg.episode_pool)]

    history: List[dict] = []
    best_miou, best_step = -1.0, 0
    best_values = store.clone_values()
    drawn = 0
    for step in range(cfg.steps):
        sums = np.zeros(3)
        for _ in range(cfg.batch_episodes):
            if pool:
                ep = pool[drawn % len(pool)]
            else:
                ep = sample_episode(manifest, 1, 1, rng_episodes)
            drawn += 1
            try:
                report = _train_episode(store, cfg, resolver, ep)
                floats = report.floats()
                ad.backward(ad.scale(report.loss_total,
                                     1.0 / cfg.batch_episodes))
            except (AutodiffError, ValueError) as exc:
                raise TrainerError(f"step {step + 1}: {exc}") from exc
            sums += (floats["loss_clf"], floats["loss_seg"],
                     floats["loss_total"])
        store.adam_step(cfg.lr, model_names)
        mean = sums / cfg.batch_episodes
        history.append({"step": step + 1, "loss_clf": mean[0],
                        "loss_seg": mean[1], "loss_total": mean[2]})
        if (step + 1) % cfg.val_interval == 0 or step + 1 == cfg.steps:
            rng_val = rng_for(cfg.seed, "val")
            val_eps = [sample_episode(manifest, 1, 1, rng_val)
                       for _ in range(cfg.val_episodes)]
            val = run_episodes(store, cfg, val_eps, resolver, manifest.classes)
            if val["miou"] > best_miou:
                best_miou = val["miou"]
                best_step = step + 1
                best_values = store.clone_values()
            history.append({"step": step + 1, "val_miou": val["miou"],
                            "val_exact_ratio": val["exact_ratio"],
                            "best_miou": best_miou})

    store.load_values(best_values)
    if out_dir is not None:
        out_dir = Path(out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        write_history(history, out_dir / "history.jsonl")
        save_checkpoint(store, out_dir / "best.ckpt")
    return TrainResult(store=store, config=cfg, history=history,
                       best_miou=best_miou, best_step=best_step,
                       counters=counters, flagged=flagged, cache=cache,
                       episode_pool=pool, enhancer_losses=enhancer_losses)


def evaluate(store: ParamStore, cfg: TrainConfig, manifest: Manifest,
             way: int, shot: int, episodes: int, seed: int,
             cache: Optional[BundleCache] = None, workers: int = 1,
             counters: Optional[Counters] = None) -> dict:
    """N-way K-shot evaluation; support masks follow cfg.supervision with
    the regime's test-time policy (no ground truth outside pixel mode)."""
    cfg.validate()
    if cfg.supervision == "mixed" and "enhancer.conv1.weight" not in store.entries:
        raise TrainerError("mixed evaluation needs enhancer parameters "
                           "in the checkpoint")
    cache = cache if cache is not None else BundleCache(cfg.backbone)
    counters = counters if counters is not None else Counters()
    resolver = SupervisionResolver(store, cfg, cache, frozenset(), False,
                                   counters)
    rng = rng_for(seed, "eval")
    try:
        eps = [sample_episode(manifest, way, shot, rng)
               for _ in range(episodes)]
    except ValueError as exc:
        raise TrainerError(str(exc)) from exc
    report = run_episodes(store, cfg, eps, resolver, manifest.classes,
                          workers=workers)
    report["way"] = way
    report["shot"] = shot
    return report


def write_history(history: Sequence[dict], path) -> None:
    lines = [json.dumps(rec) for rec in history]
    Path(path).write_text("\n".join(lines) + "\n")


def read_history(path) -> List[dict]:
    text = Path(path).read_text()
    return [json.loads(line) for line in text.splitlines() if line.strip()]
