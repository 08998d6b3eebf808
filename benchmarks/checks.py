"""Correctness checks the benchmark runs on every run, outside the timed part.

Every check is exact or compares float64 values with a fixed tolerance, so it
holds on every run and seed; none rests on a timing or on how well a model
learned. Each returns a list of problems, empty when the check passes.
"""

from __future__ import annotations

from contextlib import contextmanager
from pathlib import Path
from typing import Callable, Dict, List, Sequence

import numpy as np

import reference
from cst import autodiff as ad
from cst import trainer
from cst.correlation import CorrelationVolume
from cst.episodes import Manifest, class_binary_mask, sample_episode
from cst.model import forward_volume, prepare_volume
from cst.objective import compute_loss
from cst.params import CheckpointError, ParamStore, load_checkpoint
from cst.pseudomask import (attention_scores, downsample_mask, enhance,
                            raw_pseudomask, train_enhancer)
from cst.seeding import rng_for

FD_STEP = 1e-6
FD_RTOL = 1e-3
FD_ATOL = 1e-7
FORWARD_ATOL = 1e-9
MIOU_ATOL = 1e-12
# The finite-difference pass runs on a window of the query grid; the model is
# defined for any query grid, and the window keeps ~80 forwards cheap at the
# CLI default width.
FD_WINDOW = (6, 6, 4, 4)   # top, left, height, width


def copy_store(store: ParamStore) -> ParamStore:
    out = ParamStore()
    for name, tensor in store.entries.items():
        out.create(name, tensor.values.copy())
    return out


# ---------------------------------------------------------------------------
# run-level checks
# ---------------------------------------------------------------------------

def check_checkpoint(store: ParamStore, path: Path) -> List[str]:
    """best.ckpt reloads bit-equal to the store train() returned."""
    try:
        loaded = load_checkpoint(path)
    except CheckpointError as exc:
        return [f"checkpoint: {exc}"]
    if list(store.entries) != list(loaded.entries):
        return ["checkpoint: parameter names or order differ"]
    return [f"checkpoint: {name} differs"
            for name, tensor in store.entries.items()
            if tensor.values.shape != loaded[name].values.shape
            or tensor.values.tobytes() != loaded[name].values.tobytes()]


def check_hygiene(supervision: str, train_counters, eval_counters) -> List[str]:
    """pixel generates no pseudo-masks, image reads no GT mask, mixed trains
    on both; outside pixel, evaluation reads no GT mask."""
    problems = []
    t, e = train_counters, eval_counters
    if supervision == "pixel":
        if t.pseudo_masks_generated or e.pseudo_masks_generated:
            problems.append("hygiene: pixel run generated pseudo-masks")
        if not t.gt_mask_model_reads or not e.gt_mask_model_reads:
            problems.append("hygiene: pixel run read no GT mask")
    elif supervision == "image":
        if t.gt_mask_model_reads or e.gt_mask_model_reads:
            problems.append("hygiene: image run read GT masks")
        if not t.pseudo_masks_generated or not e.pseudo_masks_generated:
            problems.append("hygiene: image run generated no pseudo-mask")
    else:
        if not t.gt_mask_model_reads or not t.pseudo_masks_generated:
            problems.append("hygiene: mixed training did not use both sources")
        if e.gt_mask_model_reads or not e.pseudo_masks_generated:
            problems.append("hygiene: mixed evaluation must use enhancer "
                            "masks only")
    return problems


def check_threading(report_w1: dict, report_w2: dict) -> List[str]:
    if report_w1 != report_w2:
        return ["threading: workers=1 and workers=2 reports differ"]
    return []


def check_repeats(fingerprints: Sequence) -> List[str]:
    """Every round gives bit-identical history, parameters and reports."""
    return [f"repeat: round {i + 1} differs from round 1"
            for i, fp in enumerate(fingerprints) if fp != fingerprints[0]]


# ---------------------------------------------------------------------------
# a fixed 1-way 1-shot episode with ground-truth masks
# ---------------------------------------------------------------------------

def fixed_inputs(manifest: Manifest, cache, cfg, seed: int, window=None):
    """(volume, support grid mask, y_clf, y_seg) of a seeded episode,
    optionally cropped to a window of the query grid."""
    ep = sample_episode(manifest, 1, 1, rng_for(seed, "benchmark", "check"))
    cls, support = ep.classes[0], ep.supports[0][0]
    volume = prepare_volume(cache.get(ep.query), cache.get(support), cfg.model)
    mask = downsample_mask(class_binary_mask(support, cls),
                           cfg.model.corr.support_grid)
    y_clf = 1 if cls in ep.query.classes else 0
    y_seg = class_binary_mask(ep.query, cls)
    if window is not None:
        top, left, h, w = window
        gh, gw = volume.query_grid
        rows = (np.arange(top, top + h)[:, None] * gw
                + np.arange(left, left + w)[None, :]).reshape(-1)
        volume = CorrelationVolume(cls_corr=volume.cls_corr[rows],
                                   img_corr=volume.img_corr[rows],
                                   query_grid=(h, w),
                                   support_grid=volume.support_grid)
        y_seg = y_seg[top:top + h, left:left + w]
    return volume, mask, y_clf, y_seg


def _loss(store, cfg, inputs):
    volume, mask, y_clf, y_seg = inputs
    pred = forward_volume(store, cfg.model, volume, mask, out_hw=y_seg.shape)
    return compute_loss(pred, y_clf, y_seg, cfg.lam)


# ---------------------------------------------------------------------------
# gradients
# ---------------------------------------------------------------------------

def check_gradients(loss_of: Callable[[], float], recorded: Dict[str, np.ndarray],
                    store: ParamStore, label: str) -> List[str]:
    """Central differences against recorded gradients, one coordinate per
    parameter group: the one with the largest recorded magnitude."""
    problems = []
    for name, grad in recorded.items():
        idx = int(np.argmax(np.abs(grad)))
        values = store[name].values.reshape(-1)
        keep = values[idx]
        values[idx] = keep + FD_STEP
        up = loss_of()
        values[idx] = keep - FD_STEP
        down = loss_of()
        values[idx] = keep
        numeric = (up - down) / (2.0 * FD_STEP)
        got = float(grad.reshape(-1)[idx])
        if abs(numeric - got) > FD_ATOL + FD_RTOL * max(abs(numeric), abs(got)):
            problems.append(f"gradient: {label} {name}[{idx}] backward {got:.6e} "
                            f"vs finite difference {numeric:.6e}")
    return problems


def model_gradients(store: ParamStore, cfg, inputs) -> Dict[str, np.ndarray]:
    names = [n for n in store.names() if not n.startswith("enhancer.")]
    for name in names:
        store[name].zero_grad()
    ad.backward(_loss(store, cfg, inputs).loss_total)
    return {name: store[name].grad.copy() for name in names}


def check_model_gradients(store: ParamStore, cfg, inputs,
                          recorded=None) -> List[str]:
    recorded = recorded if recorded is not None else model_gradients(store, cfg, inputs)
    return check_gradients(lambda: _loss(store, cfg, inputs).loss_total.item(),
                           recorded, store, "model")


@contextmanager
def _captured_update(store: ParamStore, sink: Dict[str, np.ndarray]):
    """Swap the store's Adam update for one that only records gradients, so
    train_enhancer yields its loss and its backward gradients unchanged."""
    def capture(lr, names=None):
        for name in names:
            sink[name] = store[name].grad.copy()
            store[name].zero_grad()

    store.adam_step = capture
    try:
        yield
    finally:
        del store.adam_step


def enhancer_pairs(manifest: Manifest, cache, flagged) -> list:
    records = sorted((r for r in manifest.records if r.name in flagged),
                     key=lambda r: r.name)
    return [(attention_scores(cache.get(r), cache.get(r)),
             class_binary_mask(r, r.designated)) for r in records]


def enhancer_gradients(store: ParamStore, pairs) -> Dict[str, np.ndarray]:
    recorded: Dict[str, np.ndarray] = {}
    with _captured_update(store, recorded):
        train_enhancer(store, pairs, 0.0, 1)
    return recorded


def check_enhancer_gradients(store: ParamStore, pairs, recorded=None) -> List[str]:
    recorded = recorded if recorded is not None else enhancer_gradients(store, pairs)

    def loss_of():
        with _captured_update(store, {}):
            return train_enhancer(store, pairs, 0.0, 1)[0]

    return check_gradients(loss_of, recorded, store, "enhancer")


# ---------------------------------------------------------------------------
# forward against the plain-numpy reference
# ---------------------------------------------------------------------------

def check_forward(store: ParamStore, cfg, inputs, params=None) -> List[str]:
    """forward_volume and compute_loss against reference.py, to 1e-9.
    `params` are the arrays the reference reads (default: the store's)."""
    params = params if params is not None else {
        n: t.values for n, t in store.entries.items()}
    volume, mask, y_clf, y_seg = inputs
    pred = forward_volume(store, cfg.model, volume, mask, out_hw=y_seg.shape)
    got = compute_loss(pred, y_clf, y_seg, cfg.lam).floats()
    clf, seg = reference.forward(params, cfg.model, volume, mask)
    want = reference.losses(clf, seg, y_clf, y_seg, cfg.lam)
    diffs = {"clf_prob": abs(float(pred.clf_prob.values[0]) - clf),
             "seg_prob": float(np.max(np.abs(pred.seg_prob.values - seg)))}
    diffs.update({k: abs(got[k] - want[k]) for k in want})
    return [f"forward: {k} differs from the reference by {d:.3e}"
            for k, d in diffs.items() if not d <= FORWARD_ATOL]


# ---------------------------------------------------------------------------
# evaluation metrics, recomputed
# ---------------------------------------------------------------------------

@contextmanager
def recorded_episodes(sink: list):
    """Record the episodes trainer draws, by wrapping its sampler."""
    original = trainer.sample_episode

    def record(*args, **kwargs):
        ep = original(*args, **kwargs)
        sink.append(ep)
        return ep

    trainer.sample_episode = record
    try:
        yield
    finally:
        trainer.sample_episode = original


def _support_mask(store, cfg, cache, record, class_id):
    """Test-time support mask of each regime, as the README documents it."""
    if cfg.supervision == "pixel":
        return class_binary_mask(record, class_id)
    bundle = cache.get(record)
    stack = attention_scores(bundle, bundle)
    shape = record.grid().shape
    if cfg.supervision == "image":
        return raw_pseudomask(stack, 1, shape, cfg.alpha).values
    return enhance(store, stack, 1, shape).values


def _decide(responses, delta):
    """Present when the shot-mean class response exceeds delta; a pixel is
    background (N+1) unless some class response exceeds delta, else the
    first class with the highest response."""
    n = len(responses)
    present = [int(np.mean([c for c, _ in shots]) > delta) for shots in responses]
    maps = [np.mean([s for _, s in shots], axis=0) for shots in responses]
    h, w = maps[0].shape
    labels = np.empty((h, w), dtype=np.int64)
    for i in range(h):
        for j in range(w):
            vals = [float(m[i, j]) for m in maps]
            top = max(vals)
            labels[i, j] = n + 1 if top <= delta else vals.index(top) + 1
    return present, labels


def recompute_report(store, cfg, cache, episodes, class_ids) -> dict:
    inter = {int(c): 0 for c in class_ids}
    union = {int(c): 0 for c in class_ids}
    exact = 0
    grid = cfg.model.corr.support_grid
    for ep in episodes:
        query = cache.get(ep.query)
        responses = []
        for n in range(ep.way):
            shots = []
            for support in ep.supports[n]:
                mask = downsample_mask(
                    _support_mask(store, cfg, cache, support, ep.classes[n]), grid)
                volume = prepare_volume(query, cache.get(support), cfg.model)
                pred = forward_volume(store, cfg.model, volume, mask,
                                      out_hw=ep.query.grid().shape)
                shots.append((float(pred.clf_prob.values[0]),
                              pred.seg_prob.values))
            responses.append(shots)
        present, labels = _decide(responses, cfg.delta)
        truth = [int(c in ep.query.classes) for c in ep.classes]
        exact += int(present == truth)
        confusion = np.zeros((ep.way + 2, ep.way + 2), dtype=np.int64)
        for p, g in zip(labels.reshape(-1), ep.query_seg_gt.reshape(-1)):
            confusion[p, g] += 1
        for n, cls in enumerate(ep.classes, start=1):
            inter[cls] += int(confusion[n, n])
            union[cls] += int(confusion[n, :].sum() + confusion[:, n].sum()
                              - confusion[n, n])
    per_class = {str(c): inter[c] / union[c] for c in sorted(inter) if union[c]}
    values = list(per_class.values())
    return {"exact_ratio": exact / len(episodes),
            "miou": sum(values) / len(values) if values else 0.0,
            "per_class_iou": per_class, "episodes": len(episodes)}


def compare_reports(got: dict, want: dict) -> List[str]:
    problems = []
    for key in ("episodes", "exact_ratio", "per_class_iou"):
        if got.get(key) != want[key]:
            problems.append(f"metrics: {key} {got.get(key)} vs recomputed "
                            f"{want[key]}")
    if not abs(got.get("miou", np.nan) - want["miou"]) <= MIOU_ATOL:
        problems.append(f"metrics: miou {got.get('miou')} vs recomputed "
                        f"{want['miou']}")
    return problems


def check_metrics(store, cfg, manifest, cache, seed, way=2, shot=1,
                  episodes=3) -> List[str]:
    drawn: list = []
    with recorded_episodes(drawn):
        report = trainer.evaluate(store, cfg, manifest, way, shot, episodes,
                                  seed, cache=cache)
    want = recompute_report(store, cfg, cache, drawn, manifest.classes)
    return compare_reports(report, want)


# ---------------------------------------------------------------------------
# all checks of one run
# ---------------------------------------------------------------------------

def check_run(inputs, rounds) -> List[str]:
    """Every check, on the rounds of one run and the workload's inputs."""
    problems = []
    done = [r for r in rounds if not r.failed]
    if not done:
        return ["no round completed, so nothing could be checked"]
    problems += check_repeats([r.fingerprint() for r in done])
    for rnd in done:
        problems += check_threading(rnd.reports[1], rnd.reports[2])
        if vars(rnd.counters[1]) != vars(rnd.counters[2]):
            problems.append("threading: workers=1 and workers=2 counters differ")
    first = done[0]
    result = first.result
    cfg = inputs.cfg
    problems += check_checkpoint(result.store, first.out_dir / "best.ckpt")
    problems += check_hygiene(cfg.supervision, result.counters,
                              first.counters[1])
    store = copy_store(result.store)
    window = fixed_inputs(inputs.train_set, inputs.cache, cfg, inputs.seed,
                          FD_WINDOW)
    problems += check_model_gradients(store, cfg, window)
    if cfg.supervision == "mixed":
        pairs = enhancer_pairs(inputs.train_set, inputs.cache, result.flagged)
        problems += check_enhancer_gradients(store, pairs)
    full = fixed_inputs(inputs.train_set, inputs.cache, cfg, inputs.seed)
    problems += check_forward(store, cfg, full)
    problems += check_metrics(store, cfg, inputs.test_set, inputs.cache,
                              inputs.seed)
    return problems
