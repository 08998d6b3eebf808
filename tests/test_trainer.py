"""Training driver: regimes, hygiene counters, determinism, evaluation."""

import json
import threading

import numpy as np
import pytest

from cst.backbone import BackboneConfig
from cst.episodes import BundleCache, generate_synthetic_dataset
from cst.model import ModelConfig
from cst.trainer import (Counters, SupervisionResolver, TrainConfig,
                         TrainerError, evaluate, read_history, run_episodes,
                         train, write_history)
from cst.transformer import CorrTransformerConfig

BB = BackboneConfig()
MODEL = ModelConfig(corr=CorrTransformerConfig(in_channels=8, channels=16,
                                               attn_heads=4, norm_groups=4),
                    head_width=16)
MANIFEST = generate_synthetic_dataset(18, [1, 2, 3], 6, seed=21, fold=0)
CACHE = BundleCache(BB)


def _cfg(**kw) -> TrainConfig:
    base = dict(model=MODEL, backbone=BB, supervision="pixel", steps=3,
                val_interval=2, val_episodes=3, enhancer_steps=6, seed=1)
    base.update(kw)
    return TrainConfig(**base)


def test_config_validation():
    with pytest.raises(TrainerError):
        _cfg(supervision="full").validate()
    with pytest.raises(TrainerError):
        _cfg(pixel_fraction=1.5).validate()
    with pytest.raises(TrainerError):
        _cfg(steps=0).validate()
    with pytest.raises(TrainerError):
        _cfg(lr=float("nan")).validate()
    with pytest.raises(TrainerError):
        _cfg(enhancer_lr=0.0).validate()
    for bad in ({"alpha": float("nan")}, {"alpha": float("inf")},
                {"alpha": -1.5}, {"delta": float("nan")}, {"delta": 1.5},
                {"lam": float("nan")}, {"lam": -0.1}):
        with pytest.raises(TrainerError):
            _cfg(**bad).validate()
    for sigma in (float("nan"), -0.1):
        with pytest.raises(TrainerError):
            _cfg(backbone=BackboneConfig(sigma=sigma)).validate()


def test_pixel_run_shape_of_history():
    res = train(_cfg(), MANIFEST, cache=CACHE)
    train_recs = [r for r in res.history if "loss_total" in r]
    val_recs = [r for r in res.history if "val_miou" in r]
    assert len(train_recs) == 3
    assert [r["step"] for r in train_recs] == [1, 2, 3]
    assert len(val_recs) == 2          # step 2 and the forced final step
    assert all(np.isfinite(r["loss_total"]) for r in train_recs)
    assert res.best_miou >= 0.0
    # Best-so-far column never decreases.
    bests = [r["best_miou"] for r in val_recs]
    assert bests == sorted(bests)


def test_pixel_never_generates_pseudomasks():
    res = train(_cfg(), MANIFEST, cache=CACHE)
    assert res.counters.pseudo_masks_generated == 0
    assert res.counters.gt_mask_model_reads > 0


def test_image_never_reads_gt():
    res = train(_cfg(supervision="image"), MANIFEST, cache=CACHE)
    assert res.counters.gt_mask_model_reads == 0
    assert res.counters.pseudo_masks_generated > 0


def test_mixed_uses_both_and_flags_floor():
    res = train(_cfg(supervision="mixed", pixel_fraction=0.25), MANIFEST,
                cache=CACHE)
    assert len(res.flagged) == 4       # floor(0.25 * 18)
    assert res.counters.gt_mask_model_reads > 0
    assert res.counters.pseudo_masks_generated > 0
    assert res.enhancer_losses, "enhancer pre-training must have run"


def test_mixed_without_flagged_records_errors():
    with pytest.raises(TrainerError):
        train(_cfg(supervision="mixed", pixel_fraction=0.0), MANIFEST,
              cache=CACHE)


def test_mixed_full_fraction_reproduces_pixel_history():
    a = train(_cfg(), MANIFEST, cache=CACHE).history
    b = train(_cfg(supervision="mixed", pixel_fraction=1.0), MANIFEST,
              cache=CACHE).history
    assert [json.dumps(r) for r in a] == [json.dumps(r) for r in b]


def test_repeat_run_is_bit_identical():
    a = train(_cfg(seed=5), MANIFEST, cache=CACHE)
    b = train(_cfg(seed=5), MANIFEST, cache=CACHE)
    assert [json.dumps(r) for r in a.history] == [json.dumps(r) for r in b.history]
    for name, tensor in a.store.entries.items():
        assert np.array_equal(tensor.values, b.store.entries[name].values)


def test_episode_pool_cycles_fixed_set():
    res = train(_cfg(episode_pool=4, steps=5), MANIFEST, cache=CACHE)
    assert len(res.episode_pool) == 4


def test_failing_step_is_identified():
    # A one-layer backbone yields 4 correlation channels against the model's
    # 8; the driver must name the step that died.
    with pytest.raises(TrainerError, match="step 1"):
        train(_cfg(), MANIFEST, cache=BundleCache(BackboneConfig(layers=1)))


def test_evaluate_report_and_workers():
    cfg = _cfg()
    res = train(cfg, MANIFEST, cache=CACHE)
    serial = evaluate(res.store, cfg, MANIFEST, way=2, shot=1, episodes=6,
                      seed=9, cache=CACHE)
    threaded = evaluate(res.store, cfg, MANIFEST, way=2, shot=1, episodes=6,
                        seed=9, cache=CACHE, workers=3)
    assert serial == threaded
    assert serial["episodes"] == 6
    assert serial["way"] == 2
    assert 0.0 <= serial["miou"] <= 1.0


class _ThreadRecordingCache(BundleCache):
    def __init__(self, cfg):
        super().__init__(cfg)
        self.threads = set()

    def get(self, record):
        self.threads.add(threading.get_ident())
        return super().get(record)


def test_evaluate_threads_only_read():
    # Pixel support masks never touch bundles, so any support bundle not
    # resolved up front would first be fetched inside a worker thread.
    cfg = _cfg()
    res = train(cfg, MANIFEST, cache=CACHE)
    cache = _ThreadRecordingCache(BB)
    threaded = evaluate(res.store, cfg, MANIFEST, way=2, shot=1, episodes=6,
                        seed=9, cache=cache, workers=2)
    assert cache.threads == {threading.get_ident()}
    serial = evaluate(res.store, cfg, MANIFEST, way=2, shot=1, episodes=6,
                      seed=9, cache=CACHE)
    assert threaded == serial


def test_evaluate_mixed_needs_enhancer():
    cfg = _cfg()
    res = train(cfg, MANIFEST, cache=CACHE)
    bad = _cfg(supervision="mixed")
    with pytest.raises(TrainerError):
        evaluate(res.store, bad, MANIFEST, way=1, shot=1, episodes=2, seed=0,
                 cache=CACHE)


def test_eval_counters_follow_regime():
    cfg = _cfg(supervision="image")
    res = train(cfg, MANIFEST, cache=CACHE)
    counters = Counters()
    evaluate(res.store, cfg, MANIFEST, way=1, shot=1, episodes=4, seed=2,
             cache=CACHE, counters=counters)
    assert counters.gt_mask_model_reads == 0
    assert counters.pseudo_masks_generated > 0


def test_run_episodes_on_explicit_list():
    cfg = _cfg(episode_pool=3, steps=2, val_interval=5)
    res = train(cfg, MANIFEST, cache=CACHE)
    resolver = SupervisionResolver(res.store, cfg, CACHE, res.flagged, True,
                                   Counters())
    report = run_episodes(res.store, cfg, res.episode_pool, resolver,
                          MANIFEST.classes)
    assert report["episodes"] == 3


def test_history_file_roundtrip(tmp_path):
    res = train(_cfg(), MANIFEST, cache=CACHE)
    path = tmp_path / "history.jsonl"
    write_history(res.history, path)
    assert read_history(path) == res.history


def test_out_dir_artifacts(tmp_path):
    train(_cfg(), MANIFEST, cache=CACHE, out_dir=tmp_path / "run")
    assert (tmp_path / "run" / "history.jsonl").exists()
    assert (tmp_path / "run" / "best.ckpt").exists()
