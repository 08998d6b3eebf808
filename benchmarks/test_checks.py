"""The benchmark's checks pass on true outputs and fail on corrupted ones.

Runs one round of a tiny workload (width 8, a 12-image fold, two steps) and
feeds each check a corrupted copy of what it inspects: a flipped gradient
sign, a perturbed parameter, an altered report, a changed checkpoint byte,
broken regime counters and a differing repeat.

    python3 -m pytest benchmarks
"""

import copy
import sys
from dataclasses import replace
from pathlib import Path

HERE = Path(__file__).resolve().parent
for _path in (HERE, HERE.parent / "src"):
    if str(_path) not in sys.path:
        sys.path.insert(0, str(_path))

import pytest  # noqa: E402

import checks  # noqa: E402
import workloads  # noqa: E402
from cst.backbone import BackboneConfig  # noqa: E402
from cst.episodes import BundleCache, generate_synthetic_dataset  # noqa: E402
from cst.model import ModelConfig  # noqa: E402
from cst.trainer import Counters, TrainConfig  # noqa: E402
from cst.transformer import CorrTransformerConfig  # noqa: E402

SEED = 5


@pytest.fixture(scope="module")
def run(tmp_path_factory):
    """Inputs and one completed mixed-supervision round at toy size."""
    backbone = BackboneConfig()
    model = ModelConfig(corr=CorrTransformerConfig(in_channels=8, channels=8),
                        head_width=8)
    cfg = TrainConfig(model=model, backbone=backbone, supervision="mixed",
                      pixel_fraction=0.25, steps=2, val_interval=2,
                      val_episodes=2, enhancer_steps=2, seed=SEED)
    workload = replace(workloads.WORKLOADS["train_mixed_c32"], eval_episodes=2)
    train_set = generate_synthetic_dataset(12, (1, 2, 3), 8, seed=SEED, fold=0)
    test_set = generate_synthetic_dataset(8, (4, 5), 8, seed=SEED, fold=1)
    inputs = workloads.Inputs(workload, SEED, cfg, train_set, test_set,
                              BundleCache(backbone))
    rnd = workloads.run_round(inputs, tmp_path_factory.mktemp("round"))
    assert rnd.failed == 0
    return inputs, rnd


def test_all_checks_pass_on_true_outputs(run):
    inputs, rnd = run
    assert checks.check_run(inputs, [rnd, rnd]) == []


def _window(inputs):
    return checks.fixed_inputs(inputs.train_set, inputs.cache, inputs.cfg,
                               inputs.seed, checks.FD_WINDOW)


def test_flipped_gradient_sign_fails(run):
    inputs, rnd = run
    store = checks.copy_store(rnd.result.store)
    window = _window(inputs)
    recorded = checks.model_gradients(store, inputs.cfg, window)
    assert checks.check_model_gradients(store, inputs.cfg, window, recorded) == []
    flipped = {name: -g for name, g in recorded.items()}
    assert checks.check_model_gradients(store, inputs.cfg, window, flipped)


def test_flipped_enhancer_gradient_sign_fails(run):
    inputs, rnd = run
    store = checks.copy_store(rnd.result.store)
    pairs = checks.enhancer_pairs(inputs.train_set, inputs.cache,
                                  rnd.result.flagged)
    recorded = checks.enhancer_gradients(store, pairs)
    assert set(recorded) == {n for n in store.names() if n.startswith("enhancer.")}
    assert checks.check_enhancer_gradients(store, pairs, recorded) == []
    flipped = {name: -g for name, g in recorded.items()}
    assert checks.check_enhancer_gradients(store, pairs, flipped)


def test_perturbed_parameter_fails_forward(run):
    inputs, rnd = run
    store = checks.copy_store(rnd.result.store)
    full = checks.fixed_inputs(inputs.train_set, inputs.cache, inputs.cfg,
                               inputs.seed)
    params = {n: t.values.copy() for n, t in store.entries.items()}
    assert checks.check_forward(store, inputs.cfg, full, params) == []
    store["seg_head.conv2.bias"].values[1] += 1e-6
    assert checks.check_forward(store, inputs.cfg, full, params)


def test_altered_report_fails_metrics_and_threading(run):
    inputs, rnd = run
    drawn = []
    with checks.recorded_episodes(drawn):
        report = checks.trainer.evaluate(rnd.result.store, inputs.cfg,
                                         inputs.test_set, 2, 1, 3, SEED,
                                         cache=inputs.cache)
    want = checks.recompute_report(rnd.result.store, inputs.cfg, inputs.cache,
                                   drawn, inputs.test_set.classes)
    assert checks.compare_reports(report, want) == []
    assert checks.check_threading(report, copy.deepcopy(report)) == []
    for key, delta in (("miou", 1e-9), ("exact_ratio", 1.0 / 3)):
        altered = dict(report, **{key: report[key] + delta})
        assert checks.compare_reports(altered, want)
        assert checks.check_threading(report, altered)


def test_changed_checkpoint_byte_fails(run, tmp_path):
    _, rnd = run
    data = bytearray((rnd.out_dir / "best.ckpt").read_bytes())
    data[-1] ^= 0x01
    path = tmp_path / "best.ckpt"
    path.write_bytes(bytes(data))
    assert checks.check_checkpoint(rnd.result.store, rnd.out_dir / "best.ckpt") == []
    assert checks.check_checkpoint(rnd.result.store, path)
    path.write_bytes(bytes(data[:-8]))
    assert checks.check_checkpoint(rnd.result.store, path)


def test_broken_regime_counters_fail():
    none, gt, pseudo = Counters(), Counters(3, 0), Counters(0, 3)
    both = Counters(3, 3)
    assert checks.check_hygiene("pixel", gt, gt) == []
    assert checks.check_hygiene("image", pseudo, pseudo) == []
    assert checks.check_hygiene("mixed", both, pseudo) == []
    assert checks.check_hygiene("pixel", both, gt)
    assert checks.check_hygiene("image", both, pseudo)
    assert checks.check_hygiene("mixed", gt, pseudo)
    assert checks.check_hygiene("mixed", both, both)
    assert checks.check_hygiene("image", pseudo, none)


def test_differing_repeat_fails(run):
    _, rnd = run
    assert checks.check_repeats([rnd.fingerprint()] * 3) == []
    assert checks.check_repeats([rnd.fingerprint(), "0" * 64])
