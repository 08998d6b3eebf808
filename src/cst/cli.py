"""Command-line front end.

Commands: gen-data, train, eval, pseudomask, plot. Configuration is a flat
key=value file; every key has a typed default, unknown keys are rejected,
and `--set key=value` (then the dedicated flags) override file values. The
resolved configuration is written next to a run's outputs so artifacts are
reproducible from the directory alone.

Failures exit with status 2 and a single machine-parseable stderr line:
`cst: error: <CODE>: <detail>`.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
from pathlib import Path
from typing import Dict, List, Optional

from .backbone import BackboneConfig, TokenFileError
from .episodes import (BundleCache, Manifest, ManifestError,
                       class_binary_mask, export_dataset,
                       generate_synthetic_dataset, load_manifest)
from .metrics import write_report
from .model import ModelConfig, count_model_params, init_model
from .params import CheckpointError, ParamStore, load_checkpoint
from .pseudomask import (attention_scores, enhance, init_enhancer,
                         raw_pseudomask, write_pgm)
from .seeding import rng_for
from .svgplot import history_chart, mask_panel, write_svg
from .trainer import TrainConfig, TrainerError, evaluate, read_history, train
from .transformer import CorrTransformerConfig

log = logging.getLogger("cst.cli")

# key -> (parser, default); file/--set values arrive as strings
def _parse_bool(text: str) -> bool:
    low = text.strip().lower()
    if low in ("true", "1", "yes"):
        return True
    if low in ("false", "0", "no"):
        return False
    raise ValueError(f"not a boolean: {text}")


def _parse_ints(text: str) -> tuple:
    return tuple(int(part) for part in text.split(",") if part.strip())


CONFIG_SCHEMA: Dict[str, tuple] = {
    "backbone_layers": (int, 2),
    "backbone_heads": (int, 4),
    "backbone_head_dim": (int, 16),
    "backbone_grid": (int, 16),
    "backbone_sigma": (float, 0.05),
    "channels": (int, 128),
    "support_grid": (int, 12),
    "pool_kernels": (_parse_ints, (4, 3)),
    "attn_heads": (int, 4),
    "norm_groups": (int, 4),
    "decoupled_heads": (_parse_bool, True),
    "use_multihead": (_parse_bool, True),
    "head_width": (int, 128),
    "supervision": (str, "pixel"),
    "pixel_fraction": (float, 0.1),
    "steps": (int, 500),
    "lr": (float, 1e-3),
    "lambda_clf": (float, 0.1),
    "delta": (float, 0.5),
    "alpha": (float, -0.1),
    "batch_episodes": (int, 1),
    "episode_pool": (int, 0),
    "val_interval": (int, 100),
    "val_episodes": (int, 20),
    "enhancer_steps": (int, 150),
    "enhancer_lr": (float, 1e-3),
    "seed": (int, 0),
    "num_class_ids": (int, 8),
}


class CliError(RuntimeError):
    def __init__(self, code: str, detail: str):
        super().__init__(f"{code}: {detail}")
        self.code = code
        self.detail = detail


def _set_key(config: Dict, key: str, raw: str, origin: str) -> None:
    if key not in CONFIG_SCHEMA:
        raise CliError("CONFIG_KEY_UNKNOWN", f"{key} ({origin})")
    parser = CONFIG_SCHEMA[key][0]
    try:
        config[key] = parser(raw)
    except ValueError as exc:
        raise CliError("CONFIG_VALUE_INVALID", f"{key}={raw} ({exc})")


def resolve_config(path: Optional[str], overrides: List[str]) -> Dict:
    config = {key: default for key, (_, default) in CONFIG_SCHEMA.items()}
    if path is not None:
        file_path = Path(path)
        if not file_path.exists():
            raise CliError("CONFIG_NOT_FOUND", str(file_path))
        for lineno, line in enumerate(file_path.read_text().splitlines(), 1):
            stripped = line.split("#", 1)[0].strip()
            if not stripped:
                continue
            if "=" not in stripped:
                raise CliError("CONFIG_VALUE_INVALID",
                               f"{file_path}:{lineno}: expected key=value")
            key, raw = (part.strip() for part in stripped.split("=", 1))
            _set_key(config, key, raw, f"{file_path}:{lineno}")
    for item in overrides:
        if "=" not in item:
            raise CliError("CONFIG_VALUE_INVALID", f"--set {item}")
        key, raw = (part.strip() for part in item.split("=", 1))
        _set_key(config, key, raw, "--set")
    return config


def format_config(config: Dict) -> str:
    lines = []
    for key in CONFIG_SCHEMA:
        value = config[key]
        if isinstance(value, bool):
            text = "true" if value else "false"
        elif isinstance(value, tuple):
            text = ",".join(str(v) for v in value)
        else:
            text = repr(value) if isinstance(value, float) else str(value)
        lines.append(f"{key} = {text}")
    return "\n".join(lines) + "\n"


def build_configs(config: Dict) -> TrainConfig:
    backbone = BackboneConfig(
        layers=config["backbone_layers"], heads=config["backbone_heads"],
        head_dim=config["backbone_head_dim"],
        grid=(config["backbone_grid"], config["backbone_grid"]),
        sigma=config["backbone_sigma"])
    in_channels = (backbone.layers * backbone.heads
                   if config["use_multihead"] else backbone.layers)
    corr = CorrTransformerConfig(
        in_channels=in_channels, channels=config["channels"],
        attn_heads=config["attn_heads"], norm_groups=config["norm_groups"],
        support_grid=(config["support_grid"], config["support_grid"]),
        pool_kernels=config["pool_kernels"],
        decoupled_heads=config["decoupled_heads"])
    try:
        corr.validate()
    except ValueError as exc:
        raise CliError("CONFIG_VALUE_INVALID", str(exc))
    model = ModelConfig(corr=corr, head_width=config["head_width"],
                        use_multihead=config["use_multihead"])
    cfg = TrainConfig(
        model=model, backbone=backbone, supervision=config["supervision"],
        pixel_fraction=config["pixel_fraction"], steps=config["steps"],
        lr=config["lr"], lam=config["lambda_clf"], delta=config["delta"],
        alpha=config["alpha"], batch_episodes=config["batch_episodes"],
        episode_pool=config["episode_pool"],
        val_interval=config["val_interval"],
        val_episodes=config["val_episodes"],
        enhancer_steps=config["enhancer_steps"],
        enhancer_lr=config["enhancer_lr"], seed=config["seed"])
    try:
        cfg.validate()
    except TrainerError as exc:
        raise CliError("CONFIG_VALUE_INVALID", str(exc))
    return cfg


def _load_manifest(path: str, num_class_ids: int) -> Manifest:
    if not Path(path).exists():
        raise CliError("MANIFEST_NOT_FOUND", path)
    try:
        return load_manifest(path, num_class_ids)
    except ManifestError as exc:
        raise CliError("MANIFEST_INVALID", str(exc))


def _load_checkpoint(path: str) -> ParamStore:
    if not Path(path).exists():
        raise CliError("CHECKPOINT_NOT_FOUND", path)
    try:
        return load_checkpoint(path)
    except CheckpointError as exc:
        raise CliError("CHECKPOINT_INVALID", str(exc))


def _check_model_shapes(store: ParamStore, cfg: TrainConfig) -> None:
    """Reject a checkpoint whose parameters differ in name or shape from the
    ones the resolved configuration builds: the model's, plus the enhancer's
    when the checkpoint holds any."""
    expected = ParamStore()
    init_model(expected, cfg.model, cfg.seed)
    if any(name.startswith("enhancer.") for name in store.entries):
        init_enhancer(expected, cfg.backbone.heads,
                      rng_for(cfg.seed, "init", "enhancer"))
    differ = sorted(set(store.entries) ^ set(expected.entries))
    if differ:
        raise CliError("CHECKPOINT_INVALID", "parameters in only one of "
                       f"checkpoint and configuration: {', '.join(differ)}")
    for name, tensor in expected.entries.items():
        if store[name].shape != tensor.shape:
            raise CliError("CHECKPOINT_INVALID",
                           f"{name}: {store[name].shape} vs {tensor.shape}")


def _apply_flag_overrides(config: Dict, args: argparse.Namespace) -> None:
    for flag, key in (("seed", "seed"), ("supervision", "supervision"),
                      ("pixel_fraction", "pixel_fraction")):
        value = getattr(args, flag, None)
        if value is not None:
            _set_key(config, key, str(value), f"--{flag.replace('_', '-')}")


def cmd_gen_data(args: argparse.Namespace) -> int:
    classes = _parse_ints(args.classes)
    if not classes:
        raise CliError("CONFIG_VALUE_INVALID", f"--classes {args.classes}")
    manifest = generate_synthetic_dataset(
        args.images, classes, args.num_class_ids, seed=args.seed,
        grid=(args.grid, args.grid), fold=args.fold)
    path = export_dataset(manifest, args.out)
    print(json.dumps({"manifest": str(path), "records": len(manifest.records),
                      "classes": list(manifest.classes)}))
    return 0


def cmd_train(args: argparse.Namespace) -> int:
    config = resolve_config(args.config, args.set or [])
    _apply_flag_overrides(config, args)
    cfg = build_configs(config)
    manifest = _load_manifest(args.manifest, config["num_class_ids"])
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "config.resolved").write_text(format_config(config))
    cache = BundleCache(cfg.backbone, root=Path(args.manifest).parent)
    try:
        result = train(cfg, manifest, cache=cache, out_dir=out_dir)
    except TrainerError as exc:
        raise CliError("TRAIN_FAILED", str(exc))
    write_svg(history_chart(result.history), out_dir / "history.svg")
    log.info("trained %d steps, best val mIoU %.4f at step %d",
             cfg.steps, result.best_miou, result.best_step)
    print(json.dumps({"best_miou": result.best_miou,
                      "best_step": result.best_step,
                      "params": count_model_params(result.store),
                      "out": str(out_dir)}))
    return 0


def cmd_eval(args: argparse.Namespace) -> int:
    config = resolve_config(args.config, args.set or [])
    _apply_flag_overrides(config, args)
    cfg = build_configs(config)
    manifest = _load_manifest(args.manifest, config["num_class_ids"])
    store = _load_checkpoint(args.ckpt)
    _check_model_shapes(store, cfg)
    cache = BundleCache(cfg.backbone, root=Path(args.manifest).parent)
    try:
        report = evaluate(store, cfg, manifest, way=args.way, shot=args.shot,
                          episodes=args.episodes, seed=args.seed or 0,
                          cache=cache, workers=args.workers)
    except TrainerError as exc:
        raise CliError("EVAL_FAILED", str(exc))
    if args.out:
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        (out_dir / "config.resolved").write_text(format_config(config))
        write_report(report, out_dir / "report.json")
    print(json.dumps(report))
    return 0


def cmd_pseudomask(args: argparse.Namespace) -> int:
    config = resolve_config(args.config, args.set or [])
    _apply_flag_overrides(config, args)
    cfg = build_configs(config)
    manifest = _load_manifest(args.manifest, config["num_class_ids"])
    by_name = {rec.name: rec for rec in manifest.records}
    record = by_name.get(args.record)
    if record is None:
        raise CliError("RECORD_NOT_FOUND", args.record)
    cache = BundleCache(cfg.backbone, root=Path(args.manifest).parent)
    bundle = cache.get(record)
    stack = attention_scores(bundle, bundle)
    shape = record.grid().shape
    raw = raw_pseudomask(stack, 1, shape, cfg.alpha)
    gt = class_binary_mask(record, record.designated)
    out_dir = Path(args.out) / "masks"
    out_dir.mkdir(parents=True, exist_ok=True)
    write_pgm(raw.values, out_dir / f"{record.name}_raw.pgm")
    panels = [("gt", gt), ("raw", raw.values)]
    if args.ckpt:
        store = _load_checkpoint(args.ckpt)
        if "enhancer.conv1.weight" not in store.entries:
            raise CliError("CHECKPOINT_INVALID",
                           f"{args.ckpt} has no enhancer parameters")
        _check_model_shapes(store, cfg)
        enhanced = enhance(store, stack, 1, shape)
        write_pgm(enhanced.values, out_dir / f"{record.name}_enhanced.pgm")
        panels.append(("enhanced", enhanced.values))
    write_svg(mask_panel(panels), out_dir / f"{record.name}.svg")
    agreement = float((raw.values == gt).mean())
    print(json.dumps({"record": record.name, "raw_gt_agreement": agreement,
                      "out": str(out_dir)}))
    return 0


def cmd_plot(args: argparse.Namespace) -> int:
    path = Path(args.history)
    if not path.exists():
        raise CliError("HISTORY_NOT_FOUND", str(path))
    history = read_history(path)
    if not history:
        raise CliError("HISTORY_INVALID", f"{path} is empty")
    write_svg(history_chart(history), args.out)
    print(json.dumps({"out": args.out, "records": len(history)}))
    return 0


def _add_config_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--config", help="flat key=value configuration file")
    sub.add_argument("--set", action="append", metavar="KEY=VALUE",
                     help="override one configuration key")
    sub.add_argument("--seed", type=int, default=None)
    sub.add_argument("--supervision", choices=("image", "mixed", "pixel"),
                     default=None)
    sub.add_argument("--pixel-fraction", dest="pixel_fraction", type=float,
                     default=None)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cst",
        description="few-shot classification + segmentation on frozen "
                    "backbone correlations")
    commands = parser.add_subparsers(dest="command", required=True)

    gen = commands.add_parser("gen-data", help="write a synthetic dataset")
    gen.add_argument("--out", required=True)
    gen.add_argument("--images", type=int, default=100)
    gen.add_argument("--classes", default="1,2,3")
    gen.add_argument("--num-class-ids", dest="num_class_ids", type=int,
                     default=8)
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--fold", type=int, default=0)
    gen.add_argument("--grid", type=int, default=16)
    gen.set_defaults(func=cmd_gen_data)

    tr = commands.add_parser("train", help="meta-train on 1-way 1-shot episodes")
    _add_config_flags(tr)
    tr.add_argument("--manifest", required=True)
    tr.add_argument("--out", required=True)
    tr.set_defaults(func=cmd_train)

    ev = commands.add_parser("eval", help="N-way K-shot evaluation")
    _add_config_flags(ev)
    ev.add_argument("--manifest", required=True)
    ev.add_argument("--ckpt", required=True)
    ev.add_argument("--out")
    ev.add_argument("--way", type=int, default=2)
    ev.add_argument("--shot", type=int, default=1)
    ev.add_argument("--episodes", type=int, default=100)
    ev.add_argument("--workers", type=int, default=1)
    ev.set_defaults(func=cmd_eval)

    pm = commands.add_parser("pseudomask",
                             help="export attention masks for one record")
    _add_config_flags(pm)
    pm.add_argument("--manifest", required=True)
    pm.add_argument("--record", required=True)
    pm.add_argument("--out", required=True)
    pm.add_argument("--ckpt", help="checkpoint with enhancer parameters")
    pm.set_defaults(func=cmd_pseudomask)

    pl = commands.add_parser("plot", help="render a history file as SVG")
    pl.add_argument("--history", required=True)
    pl.add_argument("--out", required=True)
    pl.set_defaults(func=cmd_plot)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    level = os.environ.get("CST_LOG")
    if level:
        logging.basicConfig(stream=sys.stderr,
                            level=getattr(logging, level.upper(), logging.INFO),
                            format="%(levelname)s %(name)s: %(message)s")
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except CliError as exc:
        print(f"cst: error: {exc.code}: {exc.detail}", file=sys.stderr)
        return 2
    except TokenFileError as exc:
        print(f"cst: error: TOKENS_INVALID: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
