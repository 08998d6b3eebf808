"""Workloads: one seeded data set and one train-then-evaluate round each.

A round is three operations on the public API: one `train()` call (with
validation and artifacts written to a fresh directory), then `evaluate()` of
the returned model on the held-out fold, 2-way 1-shot, once with
`workers=1` and once with `workers=2` on the same episodes. The workloads
weigh the two halves differently; see README.md for why each exists.
"""

from __future__ import annotations

import hashlib
import json
import resource
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

from cst.backbone import BackboneConfig
from cst.episodes import BundleCache, Manifest, generate_synthetic_dataset
from cst.model import ModelConfig
from cst.trainer import Counters, TrainConfig, evaluate, train
from cst.transformer import CorrTransformerConfig

TRAIN_IMAGES = 60
TRAIN_CLASSES = (1, 2, 3)
TEST_IMAGES = 40
TEST_CLASSES = (4, 5)
NUM_CLASS_IDS = 8
WAY, SHOT = 2, 1
WORKERS = 2
OPS_PER_ROUND = 3
BACKWARD = "autodiff.backward_calls"


@dataclass(frozen=True)
class Workload:
    name: str
    supervision: str
    width: int              # transformer channels and head width
    steps: int
    val_interval: int
    val_episodes: int
    enhancer_steps: int
    eval_episodes: int
    default_seed: int


WORKLOADS = {w.name: w for w in (
    Workload("train_mixed_c32", "mixed", 32, steps=10, val_interval=5,
             val_episodes=4, enhancer_steps=40, eval_episodes=10,
             default_seed=11),
    Workload("train_pixel_c128", "pixel", 128, steps=3, val_interval=3,
             val_episodes=2, enhancer_steps=150, eval_episodes=6,
             default_seed=12),
    # 34 episodes make 68 volume lookups per evaluate(), past the trainer's
    # 64-entry volume cache, so eviction runs.
    Workload("eval_image_2w1s", "image", 32, steps=8, val_interval=8,
             val_episodes=2, enhancer_steps=150, eval_episodes=34,
             default_seed=13),
)}


@dataclass
class Inputs:
    workload: Workload
    seed: int
    cfg: TrainConfig
    train_set: Manifest
    test_set: Manifest
    cache: BundleCache


def build_inputs(workload: Workload, seed: int) -> Inputs:
    """Seeded data sets with every token bundle built up front, so the timed
    operations never run the synthetic backbone."""
    backbone = BackboneConfig()
    in_channels = backbone.layers * backbone.heads
    model = ModelConfig(corr=CorrTransformerConfig(in_channels=in_channels,
                                                   channels=workload.width),
                        head_width=workload.width)
    cfg = TrainConfig(model=model, backbone=backbone,
                      supervision=workload.supervision, pixel_fraction=0.1,
                      steps=workload.steps, val_interval=workload.val_interval,
                      val_episodes=workload.val_episodes,
                      enhancer_steps=workload.enhancer_steps, seed=seed)
    train_set = generate_synthetic_dataset(TRAIN_IMAGES, TRAIN_CLASSES,
                                           NUM_CLASS_IDS, seed=seed, fold=0)
    test_set = generate_synthetic_dataset(TEST_IMAGES, TEST_CLASSES,
                                          NUM_CLASS_IDS, seed=seed, fold=1)
    cache = BundleCache(backbone)
    for record in train_set.records + test_set.records:
        cache.get(record)
    return Inputs(workload, seed, cfg, train_set, test_set, cache)


@dataclass
class Round:
    out_dir: Path
    failed: int = 0
    train_s: Optional[float] = None
    eval_s: dict = field(default_factory=dict)      # workers -> seconds
    result: object = None
    reports: dict = field(default_factory=dict)     # workers -> report
    counters: dict = field(default_factory=dict)    # workers -> Counters
    wall_s: float = 0.0
    serial_peak_rss_mb: float = 0.0                 # after workers=1
    eval_backward_calls: int = 0                    # traced rounds only

    def fingerprint(self) -> Optional[str]:
        if self.failed:
            return None
        digest = hashlib.sha256()
        for tensor in self.result.store.entries.values():
            digest.update(tensor.values.tobytes())
        digest.update(json.dumps([self.result.history, self.reports[1]],
                                 sort_keys=True).encode())
        return digest.hexdigest()


def _failed(what: str) -> None:
    print(f"operation failed: {what}", file=sys.stderr)
    traceback.print_exc(file=sys.stderr)


def run_round(inputs: Inputs, out_dir: Path, tracer=None) -> Round:
    """One train-then-evaluate round; with a tracer, also counts the
    backward passes made during evaluation."""
    rnd = Round(out_dir=out_dir)
    start = time.perf_counter()
    try:
        rnd.result = train(inputs.cfg, inputs.train_set, cache=inputs.cache,
                           out_dir=out_dir)
        rnd.train_s = time.perf_counter() - start
    except Exception:   # a failed operation is counted, and the run goes on
        _failed("train")
        rnd.failed = OPS_PER_ROUND
        rnd.wall_s = time.perf_counter() - start
        return rnd
    backward_mark = tracer.snapshot().get(BACKWARD, 0) if tracer else 0
    for workers in (1, WORKERS):
        counters = Counters()
        t0 = time.perf_counter()
        try:
            rnd.reports[workers] = evaluate(
                rnd.result.store, inputs.cfg, inputs.test_set, WAY, SHOT,
                inputs.workload.eval_episodes, inputs.seed, cache=inputs.cache,
                workers=workers, counters=counters)
            rnd.eval_s[workers] = time.perf_counter() - t0
            rnd.counters[workers] = counters
            if workers == 1:
                rnd.serial_peak_rss_mb = resource.getrusage(
                    resource.RUSAGE_SELF).ru_maxrss / 1024
        except Exception:   # e.g. a race in threaded evaluation
            _failed(f"evaluate(workers={workers})")
            rnd.failed += 1
    if tracer:
        rnd.eval_backward_calls = tracer.snapshot().get(BACKWARD, 0) - backward_mark
    rnd.wall_s = time.perf_counter() - start
    return rnd
