"""Command-line behavior: config resolution, artifacts, error codes, SVG."""

import json

import numpy as np
import pytest

from cst.cli import (CliError, build_configs, format_config, main,
                     resolve_config)
from cst.model import init_model
from cst.params import ParamStore, save_checkpoint
from cst.pseudomask import init_enhancer
from cst.seeding import rng_for
from cst.svgplot import history_chart, line_chart, mask_panel

SMALL = ["--set", "channels=16", "--set", "head_width=16",
         "--set", "steps=3", "--set", "val_interval=2",
         "--set", "val_episodes=2", "--set", "enhancer_steps=4",
         "--set", "num_class_ids=6"]


@pytest.fixture(scope="module")
def dataset(tmp_path_factory):
    root = tmp_path_factory.mktemp("data")
    assert main(["gen-data", "--out", str(root), "--images", "15",
                 "--classes", "1,2,3", "--num-class-ids", "6",
                 "--seed", "4"]) == 0
    return root / "manifest.json"


def test_defaults_resolve():
    config = resolve_config(None, [])
    assert config["channels"] == 128
    assert config["pool_kernels"] == (4, 3)
    assert config["supervision"] == "pixel"
    build_configs(config)   # must not raise


def test_config_file_and_overrides(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("# comment\nchannels = 32\nsteps=7\n\nalpha = -0.2\n")
    config = resolve_config(str(path), ["channels=64"])
    assert config["channels"] == 64    # --set wins over the file
    assert config["steps"] == 7
    assert config["alpha"] == -0.2


def test_config_errors(tmp_path):
    with pytest.raises(CliError) as err:
        resolve_config(None, ["not_a_key=1"])
    assert err.value.code == "CONFIG_KEY_UNKNOWN"
    with pytest.raises(CliError) as err:
        resolve_config(None, ["steps=many"])
    assert err.value.code == "CONFIG_VALUE_INVALID"
    with pytest.raises(CliError) as err:
        resolve_config(str(tmp_path / "none.cfg"), [])
    assert err.value.code == "CONFIG_NOT_FOUND"
    bad = tmp_path / "bad.cfg"
    bad.write_text("just words\n")
    with pytest.raises(CliError) as err:
        resolve_config(str(bad), [])
    assert err.value.code == "CONFIG_VALUE_INVALID"


def test_incompatible_geometry_is_config_error():
    with pytest.raises(CliError) as err:
        build_configs(resolve_config(None, ["pool_kernels=5,2"]))
    assert err.value.code == "CONFIG_VALUE_INVALID"


def test_format_config_round_trips(tmp_path):
    config = resolve_config(None, ["channels=32", "lr=0.005"])
    text = format_config(config)
    path = tmp_path / "resolved.cfg"
    path.write_text(text)
    again = resolve_config(str(path), [])
    assert again == config


def test_gen_data_manifest_loads(dataset):
    payload = json.loads(dataset.read_text())
    assert len(payload["records"]) == 15
    assert all((dataset.parent / r["mask"]).exists()
               for r in payload["records"])


def test_train_eval_pipeline(dataset, tmp_path, capsys):
    out = tmp_path / "run"
    assert main(["train", "--manifest", str(dataset), "--out", str(out),
                 "--seed", "2", *SMALL]) == 0
    summary = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert "best_miou" in summary and "params" in summary
    for name in ("config.resolved", "history.jsonl", "best.ckpt",
                 "history.svg"):
        assert (out / name).exists(), name

    assert main(["eval", "--manifest", str(dataset), "--ckpt",
                 str(out / "best.ckpt"), "--out", str(out), "--way", "2",
                 "--episodes", "3", "--seed", "6", *SMALL]) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["episodes"] == 3
    assert report["way"] == 2


def test_train_determinism_via_cli(dataset, tmp_path, capsys):
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        assert main(["train", "--manifest", str(dataset), "--out", str(out),
                     "--seed", "3", *SMALL]) == 0
        outs.append(out)
    capsys.readouterr()
    for artifact in ("history.jsonl", "best.ckpt", "config.resolved",
                     "history.svg"):
        a = (outs[0] / artifact).read_bytes()
        b = (outs[1] / artifact).read_bytes()
        assert a == b, artifact


def test_pseudomask_command(dataset, tmp_path, capsys):
    out = tmp_path / "pm"
    assert main(["pseudomask", "--manifest", str(dataset), "--record",
                 "img_0_0002", "--out", str(out), *SMALL]) == 0
    info = json.loads(capsys.readouterr().out.strip())
    assert 0.0 <= info["raw_gt_agreement"] <= 1.0
    assert (out / "masks" / "img_0_0002_raw.pgm").exists()
    assert (out / "masks" / "img_0_0002.svg").exists()


def test_plot_command(dataset, tmp_path, capsys):
    run = tmp_path / "run"
    main(["train", "--manifest", str(dataset), "--out", str(run),
          "--seed", "1", *SMALL])
    assert main(["plot", "--history", str(run / "history.jsonl"),
                 "--out", str(tmp_path / "h.svg")]) == 0
    capsys.readouterr()
    assert (tmp_path / "h.svg").read_text().startswith("<svg")


def test_error_exit_codes(dataset, tmp_path, capsys):
    ckpt = tmp_path / "small.ckpt"
    store = ParamStore()
    init_model(store, build_configs(resolve_config(None, SMALL[1::2])).model, 0)
    save_checkpoint(store, ckpt)
    # Single-head correlation keeps the model independent of the backbone
    # head count, so only the 4-head enhancer disagrees with backbone_heads=2.
    single = [*SMALL, "--set", "use_multihead=false"]
    enh_ckpt = tmp_path / "enhancer.ckpt"
    store = ParamStore()
    init_model(store, build_configs(resolve_config(None, single[1::2])).model, 0)
    init_enhancer(store, 4, rng_for(0, "init", "enhancer"))
    save_checkpoint(store, enh_ckpt)
    two_heads = [*single, "--set", "backbone_heads=2"]
    two_class = tmp_path / "two"
    assert main(["gen-data", "--out", str(two_class), "--images", "8",
                 "--classes", "4,5", "--num-class-ids", "6"]) == 0
    cases = [
        (["eval", "--manifest", str(dataset), "--ckpt",
          str(tmp_path / "no.ckpt"), *SMALL], "CHECKPOINT_NOT_FOUND"),
        (["train", "--manifest", str(tmp_path / "no.json"), "--out",
          str(tmp_path / "x"), *SMALL], "MANIFEST_NOT_FOUND"),
        (["pseudomask", "--manifest", str(dataset), "--record", "ghost",
          "--out", str(tmp_path / "y"), *SMALL], "RECORD_NOT_FOUND"),
        (["plot", "--history", str(tmp_path / "no.jsonl"), "--out",
          str(tmp_path / "z.svg")], "HISTORY_NOT_FOUND"),
        (["train", "--manifest", str(dataset), "--out", str(tmp_path / "w"),
          "--config", str(tmp_path / "no.cfg")], "CONFIG_NOT_FOUND"),
        (["train", "--manifest", str(dataset), "--out", str(tmp_path / "v"),
          *SMALL, "--set", "lr=nan"], "CONFIG_VALUE_INVALID"),
        (["eval", "--manifest", str(two_class / "manifest.json"), "--ckpt",
          str(ckpt), "--way", "3", *SMALL], "EVAL_FAILED"),
        (["eval", "--manifest", str(dataset), "--ckpt", str(ckpt), *SMALL,
          "--set", "channels=32"], "CHECKPOINT_INVALID"),
        (["eval", "--manifest", str(dataset), "--ckpt", str(enh_ckpt),
          "--supervision", "mixed", *two_heads], "CHECKPOINT_INVALID"),
        (["pseudomask", "--manifest", str(dataset), "--record", "img_0_0002",
          "--out", str(tmp_path / "u"), "--ckpt", str(enh_ckpt), *two_heads],
         "CHECKPOINT_INVALID"),
    ]
    for setting in ("alpha=nan", "alpha=inf", "delta=nan", "delta=1.5",
                    "backbone_sigma=nan", "lambda_clf=nan"):
        cases.append((["train", "--manifest", str(dataset), "--out",
                       str(tmp_path / "v"), *SMALL, "--set", setting],
                      "CONFIG_VALUE_INVALID"))
    for argv, code in cases:
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"cst: error: {code}:"), (code, err)
        assert err.count("\n") == 1, (code, err)
    assert not (tmp_path / "v").exists()


def test_line_chart_is_deterministic():
    series = {"a": [(0, 1.0), (1, 0.5), (2, 0.25)],
              "b": [(0, 0.1), (2, 0.9)]}
    one = line_chart(series, "t", "x", "y")
    two = line_chart(series, "t", "x", "y")
    assert one == two
    assert one.count("<polyline") == 2
    with pytest.raises(ValueError):
        line_chart({}, "t", "x", "y")


def test_mask_panel_draws_cells():
    mask = np.zeros((3, 3))
    mask[1, 1] = 1.0
    svg = mask_panel([("gt", mask), ("raw", np.ones((3, 3)))])
    # one filled cell + 9 filled cells + 2 frames + 1 background
    assert svg.count("<rect") == 13


def test_history_chart_includes_validation_series():
    history = [{"step": 1, "loss_total": 1.0},
               {"step": 2, "loss_total": 0.5},
               {"step": 2, "val_miou": 0.3, "best_miou": 0.3}]
    svg = history_chart(history)
    assert "val_miou" in svg and "loss_total" in svg
