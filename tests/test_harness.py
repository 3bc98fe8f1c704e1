import dataclasses
import json
import os
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import numpy.testing as npt
import pytest

import ttalign as tl
from ttalign import harness
from ttalign.cli import main as cli_main
from ttalign.errors import ContractError, DataError, FormatError

from conftest import TINY_GEN


# -- synthetic generation ---------------------------------------------------------


def test_gen_same_seed_is_byte_identical():
    a_src, a_test = harness.gen_synthetic(TINY_GEN, seed=9)
    b_src, b_test = harness.gen_synthetic(TINY_GEN, seed=9)
    assert a_src.images.tobytes() == b_src.images.tobytes()
    assert a_test.images.tobytes() == b_test.images.tobytes()
    assert np.array_equal(a_src.labels, b_src.labels)


def test_gen_null_shift_statistically_identical():
    cfg = dataclasses.replace(TINY_GEN, n_source=400, n_test=400,
                              shift=harness.ShiftSpec("mean-offset", 0.0))
    src, test = harness.gen_synthetic(cfg, seed=3)
    a, b = src.images.astype(np.float64), test.images.astype(np.float64)
    pooled_std = np.sqrt((a.var() + b.var()) / 2)
    bound = 3.0 * pooled_std * np.sqrt(1.0 / a.size + 1.0 / b.size)
    assert abs(a.mean() - b.mean()) < bound


def test_gen_mean_offset_measured():
    cfg = dataclasses.replace(TINY_GEN, n_source=400, n_test=400,
                              shift=harness.ShiftSpec("mean-offset", 0.5))
    src, test = harness.gen_synthetic(cfg, seed=4)
    diff = test.images.astype(np.float64).mean() - src.images.astype(np.float64).mean()
    assert abs(diff - 0.5) < 0.02


def test_gen_labels_balanced():
    src, _ = harness.gen_synthetic(TINY_GEN, seed=5)
    counts = np.bincount(src.labels, minlength=TINY_GEN.n_classes)
    assert counts.max() - counts.min() <= 1


def test_gen_rejects_single_class():
    cfg = dataclasses.replace(TINY_GEN, class_names=("only",))
    with pytest.raises(ContractError):
        harness.gen_synthetic(cfg, seed=0)


@pytest.mark.parametrize("kind", harness.SHIFT_KINDS)
def test_shift_magnitude_zero_is_identity(kind):
    rng = np.random.default_rng(6)
    imgs = rng.normal(size=(3, 1, 8, 8))
    out = harness.apply_shift(imgs, harness.ShiftSpec(kind, 0.0))
    npt.assert_array_equal(out, imgs)


def test_shift_kinds_move_the_right_statistic():
    rng = np.random.default_rng(7)
    imgs = rng.normal(size=(16, 1, 16, 16))
    shifted = harness.apply_shift(imgs, harness.ShiftSpec("mean-offset", 0.7))
    npt.assert_allclose(shifted.mean() - imgs.mean(), 0.7, atol=1e-12)
    scaled = harness.apply_shift(imgs, harness.ShiftSpec("contrast-scale", 1.0))
    npt.assert_allclose(scaled.std(), imgs.std() / 2.0, atol=1e-12)
    blurred = harness.apply_shift(imgs, harness.ShiftSpec("blur", 1.0))
    assert blurred.std() < imgs.std()


def test_shift_spec_validation():
    with pytest.raises(ContractError):
        harness.ShiftSpec("sharpen", 1.0)
    with pytest.raises(ContractError):
        harness.ShiftSpec("blur", -0.5)


# -- dataset files -----------------------------------------------------------------


def test_dataset_round_trip(tmp_path):
    src, _ = harness.gen_synthetic(TINY_GEN, seed=8)
    harness.save_dataset(src, tmp_path / "ds")
    loaded = harness.load_dataset(tmp_path / "ds")
    assert loaded.meta == src.meta
    assert np.array_equal(loaded.images, src.images)
    assert np.array_equal(loaded.labels, src.labels)


def test_dataset_size_mismatch_detected(tmp_path):
    src, _ = harness.gen_synthetic(TINY_GEN, seed=8)
    harness.save_dataset(src, tmp_path / "ds")
    with open(tmp_path / "ds" / "images.f32", "ab") as fh:
        fh.write(b"\x00" * 4)
    with pytest.raises(FormatError):
        harness.load_dataset(tmp_path / "ds")


def test_dataset_missing_meta(tmp_path):
    with pytest.raises(FormatError):
        harness.load_dataset(tmp_path)


def test_dataset_malformed_meta_value(tmp_path):
    src, _ = harness.gen_synthetic(TINY_GEN, seed=8)
    harness.save_dataset(src, tmp_path / "ds")
    meta = tmp_path / "ds" / "meta.txt"
    meta.write_text(meta.read_text().replace("n_samples=96", "n_samples=x8"))
    with pytest.raises(FormatError, match="malformed"):
        harness.load_dataset(tmp_path / "ds")


def test_dataset_n_classes_must_match_class_names(tmp_path):
    src, _ = harness.gen_synthetic(TINY_GEN, seed=8)
    harness.save_dataset(src, tmp_path / "ds")
    meta = tmp_path / "ds" / "meta.txt"
    meta.write_text(meta.read_text().replace("n_classes=3", "n_classes=7"))
    with pytest.raises(FormatError, match="n_classes"):
        harness.load_dataset(tmp_path / "ds")


def _set_meta(directory, fields, n_floats):
    """Rewrite ``fields`` in meta.txt and give it ``n_floats`` zero pixels
    and n_samples labels (none when negative)."""
    meta = directory / "meta.txt"
    lines = [
        f"{k}={fields[k]}" if k in fields else f"{k}={v}"
        for k, v in (line.split("=", 1) for line in meta.read_text().splitlines())
    ]
    meta.write_text("\n".join(lines) + "\n")
    np.zeros(n_floats, "<f4").tofile(directory / "images.f32")
    np.zeros(max(fields["n_samples"], 0), "<u4").tofile(directory / "labels.u32")


@pytest.mark.parametrize("fields, n_floats", [
    ({"n_samples": 0, "channels": -1}, 0),
    ({"n_samples": 1, "height": -4, "width": -4}, 16),
    ({"n_samples": -1, "channels": -1}, 16),
    ({"n_samples": 0, "width": 0}, 0),
], ids=["negative-channels", "negative-height-width", "negative-samples", "zero-width"])
def test_dataset_meta_rejects_bad_dimensions(tmp_path, fields, n_floats):
    """Dimensions whose product still matches the image file would otherwise
    reach numpy's reshape and end in a raw ValueError, or load as a dataset
    of zero-width images."""
    src, _ = harness.gen_synthetic(TINY_GEN, seed=8)
    harness.save_dataset(src, tmp_path / "ds")
    _set_meta(tmp_path / "ds", fields, n_floats)
    with pytest.raises(FormatError, match="n_samples >= 0"):
        harness.load_dataset(tmp_path / "ds")


def test_dataset_meta_not_utf8(tmp_path):
    src, _ = harness.gen_synthetic(TINY_GEN, seed=8)
    harness.save_dataset(src, tmp_path / "ds")
    meta = tmp_path / "ds" / "meta.txt"
    meta.write_bytes(meta.read_bytes().replace(b"split=", b"split=\xff"))
    with pytest.raises(FormatError, match="UTF-8"):
        harness.load_dataset(tmp_path / "ds")


def test_bundle_invariants():
    meta = harness.DatasetMeta(2, 1, 4, 4, 2, ("a", "b"), "test")
    with pytest.raises(DataError):
        harness.DatasetBundle(meta, np.zeros((3, 1, 4, 4), np.float32),
                              np.zeros(2, np.uint32))
    with pytest.raises(DataError):
        harness.DatasetBundle(meta, np.zeros((2, 1, 4, 4), np.float32),
                              np.array([0, 5], np.uint32))


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_bundle_rejects_non_finite_pixel(value):
    meta = harness.DatasetMeta(2, 1, 4, 4, 2, ("a", "b"), "test")
    images = np.zeros((2, 1, 4, 4), np.float32)
    images[1, 0, 2, 3] = value
    with pytest.raises(DataError, match="non-finite"):
        harness.DatasetBundle(meta, images, np.zeros(2, np.uint32))


# -- evaluation ---------------------------------------------------------------------


def test_eval_record_count_and_aggregates(tiny_model, tiny_stats, tiny_data):
    _, _, test = tiny_data
    config = tl.TTAConfig(beta=100.0, n_views=6, seed=2)
    report = harness.run_eval(tiny_model, test, tiny_stats, config, limit=10)
    assert report.n_samples == 10 and len(report.records) == 10
    assert 0.0 <= report.top1 <= 1.0
    acc = np.mean([r["correct"] for r in report.records])
    assert abs(acc - report.top1) < 1e-12


def test_eval_same_seed_reports_identical(tiny_model, tiny_stats, tiny_data, tmp_path):
    _, _, test = tiny_data
    config = tl.TTAConfig(beta=100.0, n_views=6, seed=3)
    dirs = []
    for tag in ("a", "b"):
        report = harness.run_eval(tiny_model, test, tiny_stats, config, limit=8)
        harness.write_report(report, tmp_path / tag)
        dirs.append(tmp_path / tag)
    for name in ("records.jsonl", "summary.json"):
        assert (dirs[0] / name).read_bytes() == (dirs[1] / name).read_bytes()


def test_eval_workers_do_not_change_results(tiny_model, tiny_stats, tiny_data, tmp_path):
    _, _, test = tiny_data
    config = tl.TTAConfig(beta=100.0, n_views=6, seed=4)
    r1 = harness.run_eval(tiny_model, test, tiny_stats, config, limit=8, workers=1)
    r3 = harness.run_eval(tiny_model, test, tiny_stats, config, limit=8, workers=3)
    harness.write_report(r1, tmp_path / "w1")
    harness.write_report(r3, tmp_path / "w3")
    for name in ("records.jsonl", "summary.json"):
        assert (tmp_path / "w1" / name).read_bytes() == (tmp_path / "w3" / name).read_bytes()


def test_entropy_only_close_to_zero_shot_in_distribution(tiny_model, tiny_data):
    # on unshifted data a tiny-lr entropy-only update should not move accuracy
    cfg = dataclasses.replace(TINY_GEN, n_test=100)
    val = harness.gen_source_val(cfg, seed=77)
    frozen = harness.zero_shot_top1(tiny_model, val, prompt_seed=0)
    report = harness.run_eval(
        tiny_model, val, None,
        tl.TTAConfig(beta=0.0, n_views=6, learning_rate=5e-4, seed=5),
    )
    assert abs(report.top1 - frozen) <= 0.02 + 1e-9


# -- ablations ---------------------------------------------------------------------


def test_ablation_rejects_multi_or_unknown_axis(tiny_model, tiny_data):
    _, _, test = tiny_data
    config = tl.TTAConfig(beta=0.0, n_views=4)
    with pytest.raises(ContractError):
        harness.run_ablation(tiny_model, test, None, config, "beta,n_views", [1])
    with pytest.raises(ContractError):
        harness.run_ablation(tiny_model, test, None, config, "granularity", [1])
    with pytest.raises(ContractError):
        harness.run_ablation(tiny_model, test, None, config, "beta", [])


def test_beta_sweep_zero_row_equals_entropy_only(tiny_model, tiny_stats, tiny_data):
    _, _, test = tiny_data
    base = tl.TTAConfig(beta=100.0, n_views=6, seed=8)
    sweep = harness.run_ablation(
        tiny_model, test, tiny_stats, base, "beta", [0.0, 1.0, 100.0], limit=6
    )
    assert len(sweep["rows"]) == 3
    baseline = harness.run_eval(
        tiny_model, test, None, dataclasses.replace(base, beta=0.0), limit=6
    )
    zero_row_report = sweep["reports"][0]
    assert zero_row_report.top1 == baseline.top1
    assert zero_row_report.records == baseline.records


def test_view_count_shrinks_statistic_variance(tiny_model, tiny_stats, tiny_data):
    # the step-0 alignment loss is a statistic of the view set; its variance
    # over view draws must fall as the number of views grows
    _, _, test = tiny_data
    img = test.images[0].astype(np.float64)
    variances = []
    for n_views in (4, 16, 64):
        config = tl.TTAConfig(beta=100.0, n_views=n_views, seed=9)
        losses = []
        for s in range(12):
            prompts = tl.PromptState(tiny_model.config, seed=0)
            ep = tl.adapt_and_predict(img, tiny_model, prompts, tiny_stats, config,
                                      view_seed=1000 + s)
            losses.append(ep.align_losses[0])
        variances.append(np.var(losses))
    assert variances[0] > variances[1] > variances[2]


def test_latency_grows_with_steps(tiny_model, tiny_stats, tiny_data):
    _, _, test = tiny_data
    base = tl.TTAConfig(beta=100.0, n_views=8, seed=10)
    # Each row is tens of milliseconds of wall time, so a stall of a few
    # milliseconds on a shared machine can reverse one sweep's order; the
    # minimum over three sweeps is the row's cost.
    sweeps = [
        harness.run_ablation(tiny_model, test, tiny_stats, base, "n_steps", [1, 2, 4], limit=6)
        for _ in range(3)
    ]
    lat = [min(sweep["rows"][i]["latency_per_sample_s"] for sweep in sweeps) for i in range(3)]
    assert lat[0] < lat[1] < lat[2]


def test_ablation_table_and_files(tiny_model, tiny_stats, tiny_data, tmp_path):
    _, _, test = tiny_data
    base = tl.TTAConfig(beta=100.0, n_views=4, seed=11)
    sweep = harness.run_ablation(
        tiny_model, test, tiny_stats, base, "align_loss", ["l1", "l2"], limit=4
    )
    harness.write_ablation(sweep, tmp_path)
    with open(tmp_path / "ablation.json") as fh:
        doc = json.load(fh)
    assert doc["axis"] == "align_loss" and len(doc["rows"]) == 2
    table = harness.format_ablation_table(sweep)
    assert "l1" in table and "l2" in table
    assert (tmp_path / "align_loss=l1" / "summary.json").exists()


# -- command line ----------------------------------------------------------------------


TINY_CFG_TEXT = """
# desk-scale config for CLI tests
image_size=16
patch_size=8
embed_dim_v=16
embed_dim_t=16
feature_dim=16
n_vision_layers=3
n_text_layers=2
n_heads=2
mlp_ratio=2
prompt_depth=2
class_names=ripple,checker,grid
n_source=72
n_test=18
noise_sigma=0.25
n_views=6
learning_rate=0.005
"""


@pytest.fixture(scope="module")
def cli_workspace(tmp_path_factory):
    """gen-data -> pretrain -> compute-stats, once per module."""
    root = tmp_path_factory.mktemp("cli")
    cfg = root / "run.cfg"
    cfg.write_text(TINY_CFG_TEXT)
    data = root / "data"
    rc = cli_main(["--seed", "7", "--config", str(cfg), "--out", str(data),
                   "gen-data", "--shift-kind", "mean-offset", "--shift-magnitude", "0.6"])
    assert rc == 0
    ckpt_dir = root / "model"
    rc = cli_main(["--seed", "7", "--config", str(cfg), "--out", str(ckpt_dir),
                   "pretrain", "--data", str(data / "source"), "--epochs", "4",
                   "--val-data", str(data / "val")])
    assert rc == 0
    stats_dir = root / "stats"
    rc = cli_main(["--seed", "7", "--config", str(cfg), "--out", str(stats_dir),
                   "compute-stats", "--ckpt", str(ckpt_dir / "checkpoint.bin"),
                   "--data", str(data / "source"), "--max-order", "5"])
    assert rc == 0
    return {
        "cfg": cfg,
        "data": data,
        "ckpt": ckpt_dir / "checkpoint.bin",
        "stats": stats_dir / "stats.bin",
        "root": root,
    }


def test_cli_unknown_flag_is_usage_error():
    assert cli_main(["--frobnicate"]) == 1


def test_cli_unknown_command_is_usage_error():
    assert cli_main(["explode"]) == 1


@pytest.mark.parametrize("flag", ["--tta-mode", "--prompt-reg-lambda", "--optimizer",
                                  "--include-cls-in-stats"])
def test_cli_removed_flag_is_usage_error(cli_workspace, tmp_path, capsys, flag):
    ws = cli_workspace
    rc = cli_main(["--config", str(ws["cfg"]), "--out", str(tmp_path / "e"),
                   "eval", "--ckpt", str(ws["ckpt"]), "--data", str(ws["data"] / "test"),
                   "--stats", str(ws["stats"]), "--limit", "1", flag, "0"])
    assert rc == 1
    assert f"unrecognized arguments: {flag}" in capsys.readouterr().err


def test_cli_compute_stats_include_cls_is_usage_error(cli_workspace, tmp_path):
    ws = cli_workspace
    rc = cli_main(["--config", str(ws["cfg"]), "--out", str(tmp_path / "s"), "compute-stats",
                   "--ckpt", str(ws["ckpt"]), "--data", str(ws["data"] / "source"),
                   "--include-cls"])
    assert rc == 1


@pytest.mark.parametrize("head, tail", [
    ([], ["--epochs", "0"]),
    ([], ["--epochs", "-2"]),
    ([], ["--batch-size", "0"]),
    ([], ["--lr", "nan"]),
    ([], ["--lr", "0"]),
    ([], ["--lr", "inf"]),
    (["--seed", "-1"], []),
])
def test_cli_pretrain_bad_value_exits_2(cli_workspace, tmp_path, capsys, head, tail):
    ws = cli_workspace
    rc = cli_main([*head, "--config", str(ws["cfg"]), "--out", str(tmp_path / "m"), "pretrain",
                   "--data", str(ws["data"] / "source"), *tail])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1, err
    assert not (tmp_path / "m" / "checkpoint.bin").exists()


def test_cli_eval_without_stats_exits_2(cli_workspace, capsys):
    ws = cli_workspace
    rc = cli_main(["--config", str(ws["cfg"]), "--out", str(ws["root"] / "noeval"),
                   "eval", "--ckpt", str(ws["ckpt"]), "--data", str(ws["data"] / "test")])
    assert rc == 2
    assert "requires --stats" in capsys.readouterr().err


@pytest.mark.parametrize("flags, cfg_line", [
    ([], "align_layers="),
    (["--beta", "nan"], ""),
    (["--beta", "inf"], ""),
    (["--lr", "0"], ""),
    (["--lr", "-0.001"], ""),
    (["--lr", "inf"], ""),
    ([], "crop_min_scale=0"),
    ([], "crop_min_scale=1.5"),
    # malformed values, unknown keys and values TTAConfig refuses, from the
    # file, a flag or ablate --values
    ([], "n_views=abc"),
    ([], "n_view=1"),
    ([], "mode=bogus"),
    ([], "update_coupling=maybe"),
    ([], "align_layers=1,x"),
    ([], "seed=x"),
    ([], "shift=gamma"),
    (["--align-layers", "1,x"], ""),
    (["--n-views", "2.5"], ""),
    (["--beta", "ten"], ""),
    (["--axis", "mode", "--values", "episodic"], ""),
    (["--weight-decay", "inf"], ""),
    (["--axis", "beta", "--values", "0,x"], ""),
    (["--axis", "align_layers", "--values", "1+x"], ""),
    (["--axis", "n_views", "--values", "4,8.5"], ""),
    # out-of-range weight decay, from a flag
    (["--weight-decay", "-5"], ""),
    (["--weight-decay", "nan"], ""),
    # removed: the prompt_reg_lambda key and axis, and mode=continuous
    (["--axis", "prompt_reg_lambda", "--values", "0"], ""),
    ([], "prompt_reg_lambda=inf"),
    ([], "mode=continuous"),
    ([], "prompt_reg_lambda=0"),
    (["--filter-ratio", "0"], ""),
    # removed: the optimizer and include_cls_in_stats keys
    ([], "optimizer=adamw"),
    ([], "include_cls_in_stats=false"),
    # a negative limit, no worker, a prompt seed outside [0, 2**64)
    (["--limit", "-1"], ""),
    (["--workers", "0"], ""),
    (["--prompt-seed", "-1"], ""),
    (["--prompt-seed", str(2**64)], ""),
])
def test_cli_invalid_tta_config_exits_2(cli_workspace, tmp_path, capsys, flags, cfg_line):
    ws = cli_workspace
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(ws["cfg"].read_text() + cfg_line + "\n")
    command = "ablate" if "--axis" in flags else "eval"
    rc = cli_main(["--config", str(cfg), "--out", str(tmp_path / "e"),
                   command, "--ckpt", str(ws["ckpt"]), "--data", str(ws["data"] / "test"),
                   "--stats", str(ws["stats"]), "--limit", "1", *flags])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1, err


def test_cli_eval_writes_report(cli_workspace):
    ws = cli_workspace
    out = ws["root"] / "eval"
    rc = cli_main(["--seed", "7", "--config", str(ws["cfg"]), "--out", str(out),
                   "eval", "--ckpt", str(ws["ckpt"]), "--data", str(ws["data"] / "test"),
                   "--stats", str(ws["stats"]), "--limit", "6"])
    assert rc == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["n_samples"] == 6
    assert (out / "records.jsonl").read_text().count("\n") == 6


def test_cli_seed_reproducibility(cli_workspace):
    ws = cli_workspace
    outs = []
    for tag in ("r1", "r2"):
        out = ws["root"] / tag
        rc = cli_main(["--seed", "7", "--config", str(ws["cfg"]), "--out", str(out),
                       "eval", "--ckpt", str(ws["ckpt"]), "--data", str(ws["data"] / "test"),
                       "--stats", str(ws["stats"]), "--limit", "5"])
        assert rc == 0
        outs.append(out)
    for name in ("records.jsonl", "summary.json"):
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()


def test_cli_adapt_verbose(cli_workspace, capsys):
    ws = cli_workspace
    rc = cli_main(["--seed", "7", "--config", str(ws["cfg"]), "--out", str(ws["root"] / "adapt"),
                   "adapt", "--ckpt", str(ws["ckpt"]), "--data", str(ws["data"] / "test"),
                   "--stats", str(ws["stats"]), "--index", "1"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "step 0:" in out and "entropy=" in out and "align=" in out


def test_cli_ablate(cli_workspace, capsys):
    ws = cli_workspace
    out = ws["root"] / "ablate"
    rc = cli_main(["--seed", "7", "--config", str(ws["cfg"]), "--out", str(out),
                   "ablate", "--ckpt", str(ws["ckpt"]), "--data", str(ws["data"] / "test"),
                   "--stats", str(ws["stats"]), "--axis", "beta", "--values", "0,100",
                   "--limit", "4"])
    assert rc == 0
    assert (out / "ablation.json").exists()
    assert "axis: beta" in capsys.readouterr().out


def test_cli_ablate_reruns_give_identical_table(cli_workspace):
    """ablation.json holds no clock reading; the latencies go to
    ablation_timing.json."""
    ws = cli_workspace
    outs = [ws["root"] / f"ablate-rerun-{i}" for i in range(2)]
    for out in outs:
        rc = cli_main(["--seed", "7", "--config", str(ws["cfg"]), "--out", str(out),
                       "ablate", "--ckpt", str(ws["ckpt"]), "--data", str(ws["data"] / "test"),
                       "--stats", str(ws["stats"]), "--axis", "n_steps", "--values", "1,2",
                       "--limit", "4"])
        assert rc == 0
    first, second = ((out / "ablation.json").read_bytes() for out in outs)
    assert first == second
    assert b"latency" not in first
    timing = json.loads((outs[0] / "ablation_timing.json").read_text())
    assert [row["value"] for row in timing["rows"]] == [1, 2]
    assert all(row["latency_per_sample_s"] > 0 for row in timing["rows"])


def test_cli_stats_hash_mismatch_exits_2(cli_workspace, tmp_path):
    ws = cli_workspace
    # stats built for a different model
    other_dir = tmp_path / "other"
    rc = cli_main(["--seed", "8", "--config", str(ws["cfg"]), "--out", str(other_dir),
                   "pretrain", "--data", str(ws["data"] / "source"), "--epochs", "1"])
    assert rc == 0
    rc = cli_main(["--seed", "7", "--config", str(ws["cfg"]), "--out", str(tmp_path / "e"),
                   "eval", "--ckpt", str(other_dir / "checkpoint.bin"),
                   "--data", str(ws["data"] / "test"), "--stats", str(ws["stats"]),
                   "--limit", "2"])
    assert rc == 2


def test_cli_dataset_files_exist(cli_workspace):
    ws = cli_workspace
    for split in ("source", "val", "test"):
        for name in ("meta.txt", "images.f32", "labels.u32"):
            assert (ws["data"] / split / name).exists()


# -- config parsing: one path for file values, flags and ablate --values -----------------


class _Captured(Exception):
    """Raised by a stand-in for the run so a test can read what the CLI built."""


def _captured_call(monkeypatch, ws, tmp_path, name, argv_head, argv_tail, cfg_lines=()):
    """Run the CLI with ``harness.<name>`` replaced; return its arguments."""
    seen = {}

    def stand_in(*args, **kwargs):
        seen["args"] = args
        raise _Captured

    monkeypatch.setattr(harness, name, stand_in)
    cfg = tmp_path / "run.cfg"
    cfg.write_text(ws["cfg"].read_text() + "".join(line + "\n" for line in cfg_lines))
    command = "eval" if name == "run_eval" else "ablate"
    with pytest.raises(_Captured):
        cli_main([*argv_head, "--config", str(cfg), "--out", str(tmp_path / "o"), command,
                  "--ckpt", str(ws["ckpt"]), "--data", str(ws["data"] / "test"),
                  "--stats", str(ws["stats"]), *argv_tail])
    return seen["args"]


# The workspace config sets n_views=6 and learning_rate=0.005; every case
# below lists the TTAConfig fields it expects beyond those.
@pytest.mark.parametrize("cfg_lines, head, tail, expect", [
    ((), [], [], {}),
    ((), [], ["--beta", "10"], {"beta": 10.0}),
    ((), [], ["--n-views", "8"], {"n_views": 8}),
    ((), [], ["--filter-ratio", "0.25"], {"filter_ratio": 0.25}),
    ((), [], ["--lr", "0.01"], {"learning_rate": 0.01}),
    ((), [], ["--learning-rate", "0.02"], {"learning_rate": 0.02}),
    ((), [], ["--n-steps", "2"], {"n_steps": 2}),
    ((), [], ["--align-layers", "1,3"], {"align_layers": (1, 3)}),
    ((), [], ["--align-loss", "cmd-3"], {"align_loss": "cmd-3"}),
    ((), [], ["--weight-decay", "0"], {"weight_decay": 0.0}),
    (("weight_decay=0.5",), [], ["--weight-decay", "0"], {"weight_decay": 0.0}),
    ((), [], ["--align-loss", "kl"], {"align_loss": "kl"}),
    ((), [], ["--weight-decay", "0.01"], {"weight_decay": 0.01}),
    ((), [], ["--freeze-coupling"], {"update_coupling": False}),
    ((), [], ["--align-loss", "l2"], {"align_loss": "l2"}),
    ((), ["--seed", "5"], [], {"seed": 5}),
    (("beta=10",), [], [], {"beta": 10.0}),
    (("n_views=8",), [], [], {"n_views": 8}),
    (("filter_ratio=0.5",), [], [], {"filter_ratio": 0.5}),
    (("learning_rate=1e-3",), [], [], {"learning_rate": 1e-3}),
    (("n_steps=0",), [], [], {"n_steps": 0}),
    (("align_layers=2",), [], [], {"align_layers": (2,)}),
    (("align_loss=kl",), [], [], {"align_loss": "kl"}),
    (("mode=episodic",), [], [], {"mode": "episodic"}),
    (("weight_decay=0",), [], [], {"weight_decay": 0.0}),
    (("align_loss=cmd-4",), [], [], {"align_loss": "cmd-4"}),
    (("weight_decay=0.5",), [], [], {"weight_decay": 0.5}),
    (("seed=3",), [], [], {"seed": 3}),
    (("update_coupling=off",), [], [], {"update_coupling": False}),
    (("update_coupling=no",), [], [], {"update_coupling": False}),
    (("crop_min_scale=0.5",), [], [], {"crop_min_scale": 0.5}),
    # flags override the file
    (("beta=10",), [], ["--beta", "20"], {"beta": 20.0}),
    (("align_layers=1,2,3",), [], ["--align-layers", "2"], {"align_layers": (2,)}),
    (("seed=3",), ["--seed", "5"], [], {"seed": 5}),
    (("update_coupling=true",), [], ["--freeze-coupling"], {"update_coupling": False}),
    # the merged config is checked, not the file alone
    (("weight_decay=-1",), [], ["--weight-decay", "0.5"], {"weight_decay": 0.5}),
])
def test_cli_tta_config_from_file_and_flags(
    cli_workspace, tmp_path, monkeypatch, cfg_lines, head, tail, expect
):
    args = _captured_call(monkeypatch, cli_workspace, tmp_path, "run_eval", head, tail, cfg_lines)
    config = args[3]
    want = tl.TTAConfig(**{"n_views": 6, "learning_rate": 0.005, **expect})
    assert config == want
    for f in dataclasses.fields(want):
        assert type(getattr(config, f.name)) is type(getattr(want, f.name)), f.name
    assert all(type(x) is int for x in config.align_layers)


ABLATE_VALUES = {
    "beta": ("0,1.5,100", [0.0, 1.5, 100.0]),
    "n_views": ("4,8", [4, 8]),
    "n_steps": ("0,2", [0, 2]),
    "align_loss": ("l1,cmd-4", ["l1", "cmd-4"]),
    "align_layers": ("1+2+3,2", [(1, 2, 3), (2,)]),
}


@pytest.mark.parametrize("axis", harness.ABLATION_AXES)
def test_cli_ablate_values_parse(cli_workspace, tmp_path, monkeypatch, axis):
    raw, want = ABLATE_VALUES[axis]
    args = _captured_call(monkeypatch, cli_workspace, tmp_path, "run_ablation", [],
                          ["--axis", axis, "--values", raw])
    assert args[4] == axis
    values = args[5]
    assert values == want
    assert [type(v) for v in values] == [type(w) for w in want]
    for v, w in zip(values, want):
        if isinstance(w, tuple):
            assert [type(x) for x in v] == [type(x) for x in w]


@pytest.mark.parametrize("axis", harness.ABLATION_AXES)
def test_every_ablation_axis_changes_the_records(tiny_model, tiny_stats, tiny_data, axis):
    # an axis whose values all give the same records sweeps nothing
    _, _, test = tiny_data
    base = tl.TTAConfig(beta=100.0, n_views=4, learning_rate=5e-3, seed=3)
    values = ABLATE_VALUES[axis][1][:2]
    sweep = harness.run_ablation(tiny_model, test, tiny_stats, base, axis, values, limit=2)
    first, second = (report.records for report in sweep["reports"])
    assert first != second


@pytest.mark.parametrize("head, tail", [
    (["--seed", "x"], []),
    ([], ["--n-source", "x"]),
    ([], ["--noise-sigma", "loud"]),
    (["--seed", "-1"], []),
    (["--seed", str(2**64)], []),
])
def test_cli_gen_data_bad_value_exits_2(cli_workspace, tmp_path, capsys, head, tail):
    rc = cli_main([*head, "--config", str(cli_workspace["cfg"]), "--out", str(tmp_path / "d"),
                   "gen-data", *tail])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1, err


def _tree_bytes(root):
    return {p.relative_to(root): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


@pytest.mark.parametrize("command", ["gen-data", "pretrain", "grad-check"])
def test_cli_omitted_seed_is_seed_0(cli_workspace, tmp_path, capsys, command):
    ws = cli_workspace
    tail = {
        "gen-data": ["gen-data"],
        "pretrain": ["pretrain", "--data", str(ws["data"] / "source"), "--epochs", "1"],
        "grad-check": ["grad-check", "--episodes", "1"],
    }[command]
    runs = []
    for tag, seed_flags in (("omitted", []), ("zero", ["--seed", "0"])):
        out = tmp_path / tag
        rc = cli_main([*seed_flags, "--config", str(ws["cfg"]), "--out", str(out), *tail])
        assert rc == 0
        printed = capsys.readouterr().out.replace(str(out), "<out>")
        runs.append((printed, _tree_bytes(out)))
    assert runs[0] == runs[1]


@pytest.mark.parametrize("flags", [
    ["--episodes", "0"], ["--episodes", "-3"],
    ["--episodes", "1", "--step", "0"], ["--episodes", "1", "--step", "nan"],
])
def test_cli_grad_check_unrunnable_check_exits_2(tmp_path, capsys, flags):
    rc = cli_main(["--out", str(tmp_path / "g"), "grad-check", *flags])
    assert rc == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error:") and err.count("\n") == 1, err


@pytest.mark.parametrize("missing", ["ckpt", "stats", "images.f32", "labels.u32"])
def test_cli_missing_artifact_exits_2(cli_workspace, tmp_path, capsys, missing):
    ws = cli_workspace
    data = tmp_path / "test"
    data.mkdir()
    for name in ("meta.txt", "images.f32", "labels.u32"):
        if name != missing:
            (data / name).write_bytes((ws["data"] / "test" / name).read_bytes())
    ckpt = tmp_path / "none.bin" if missing == "ckpt" else ws["ckpt"]
    stats = tmp_path / "none.bin" if missing == "stats" else ws["stats"]
    rc = cli_main(["--config", str(ws["cfg"]), "--out", str(tmp_path / "e"),
                   "eval", "--ckpt", str(ckpt), "--data", str(data), "--stats", str(stats),
                   "--limit", "1"])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1, err


@pytest.mark.parametrize("command", ["compute-stats", "adapt", "eval", "ablate"])
@pytest.mark.parametrize("mismatch, gen_change", [
    ("image size", {"image_size": 32}),
    ("channels", {"channels": 2}),
    ("class names", {"class_names": ("ripple", "checker", "mesh")}),
])
def test_cli_dataset_checkpoint_mismatch_exits_2(
    cli_workspace, tmp_path, capsys, command, mismatch, gen_change
):
    ws = cli_workspace
    gen = harness.GenConfig(n_source=4, n_test=4, image_size=16,
                            class_names=("ripple", "checker", "grid"))
    source, _ = harness.gen_synthetic(dataclasses.replace(gen, **gen_change), seed=0)
    harness.save_dataset(source, tmp_path / "data")
    tail = {"compute-stats": [], "adapt": ["--stats", str(ws["stats"])],
            "eval": ["--stats", str(ws["stats"])],
            "ablate": ["--stats", str(ws["stats"]), "--axis", "beta", "--values", "0"]}[command]
    rc = cli_main(["--out", str(tmp_path / "o"), command, "--ckpt", str(ws["ckpt"]),
                   "--data", str(tmp_path / "data"), *tail])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error: dataset does not fit the model") and err.count("\n") == 1, err
    assert mismatch in err


def test_cli_pretrain_config_dataset_mismatch_exits_2(cli_workspace, tmp_path, capsys):
    ws = cli_workspace
    cfg = tmp_path / "run.cfg"
    cfg.write_text(ws["cfg"].read_text() + "class_names=ripple,checker,mesh\n")
    rc = cli_main(["--config", str(cfg), "--out", str(tmp_path / "m"), "pretrain",
                   "--data", str(ws["data"] / "source"), "--epochs", "1"])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error: dataset does not fit the model: class names"), err
    assert not (tmp_path / "m" / "checkpoint.bin").exists()


@pytest.mark.parametrize("command", ["compute-stats", "adapt", "eval", "ablate"])
@pytest.mark.parametrize("cfg_line, ok", [
    ("temperature=5", False),
    ("n_heads=1", False),
    ("image_size=32", False),
    ("class_names=ripple,checker,mesh", False),
    ("temperature=100", True),
    ("n_heads=2", True),
])
def test_cli_model_keys_must_match_checkpoint(cli_workspace, tmp_path, capsys, command,
                                              cfg_line, ok):
    ws = cli_workspace
    cfg = tmp_path / "run.cfg"
    cfg.write_text(ws["cfg"].read_text() + cfg_line + "\n")
    tail = {"compute-stats": [], "adapt": ["--stats", str(ws["stats"])],
            "eval": ["--stats", str(ws["stats"]), "--limit", "1"],
            "ablate": ["--stats", str(ws["stats"]), "--axis", "beta", "--values", "0",
                       "--limit", "1"]}[command]
    data = ws["data"] / ("source" if command == "compute-stats" else "test")
    rc = cli_main(["--config", str(cfg), "--out", str(tmp_path / "o"), command,
                   "--ckpt", str(ws["ckpt"]), "--data", str(data), *tail])
    err = capsys.readouterr().err
    if ok:
        assert rc == 0, err
    else:
        assert rc == 2
        key = cfg_line.split("=")[0]
        assert err.startswith(f"error: config sets {key}=") and err.count("\n") == 1, err


def test_cli_malformed_meta_exits_2(cli_workspace, tmp_path, capsys):
    ws = cli_workspace
    data = tmp_path / "test"
    data.mkdir()
    for name in ("images.f32", "labels.u32"):
        (data / name).write_bytes((ws["data"] / "test" / name).read_bytes())
    meta = (ws["data"] / "test" / "meta.txt").read_text()
    (data / "meta.txt").write_text(meta.replace("n_samples=18", "n_samples=x8"))
    rc = cli_main(["--config", str(ws["cfg"]), "--out", str(tmp_path / "e"),
                   "eval", "--ckpt", str(ws["ckpt"]), "--data", str(data),
                   "--stats", str(ws["stats"]), "--limit", "1"])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error: meta.txt has a malformed value") and err.count("\n") == 1, err


def test_cli_negative_meta_dimension_exits_2(cli_workspace, tmp_path, capsys):
    ws = cli_workspace
    data = tmp_path / "test"
    data.mkdir()
    for name in ("meta.txt", "images.f32", "labels.u32"):
        (data / name).write_bytes((ws["data"] / "test" / name).read_bytes())
    _set_meta(data, {"n_samples": 1, "height": -4, "width": -4}, 16)
    rc = cli_main(["--config", str(ws["cfg"]), "--out", str(tmp_path / "e"),
                   "eval", "--ckpt", str(ws["ckpt"]), "--data", str(data),
                   "--stats", str(ws["stats"]), "--limit", "1"])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error: meta.txt needs n_samples >= 0") and err.count("\n") == 1, err


def test_cli_bool_checkpoint_config_exits_2(cli_workspace, tmp_path, capsys):
    ws = cli_workspace
    raw = ws["ckpt"].read_bytes()
    (cfg_len,) = struct.unpack_from("<I", raw, 12)
    cfg = json.dumps({**json.loads(raw[16 : 16 + cfg_len]), "prompt_depth": True}).encode()
    ckpt = tmp_path / "checkpoint.bin"
    ckpt.write_bytes(raw[:12] + struct.pack("<I", len(cfg)) + cfg + raw[16 + cfg_len :])
    rc = cli_main(["--config", str(ws["cfg"]), "--out", str(tmp_path / "e"),
                   "eval", "--ckpt", str(ckpt), "--data", str(ws["data"] / "test"),
                   "--stats", str(ws["stats"]), "--limit", "1"])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "prompt_depth" in err and err.count("\n") == 1, err


@pytest.mark.parametrize("command", ["adapt", "eval"])
def test_cli_non_finite_pixel_exits_2(cli_workspace, tmp_path, capsys, command):
    ws = cli_workspace
    data = tmp_path / "test"
    data.mkdir()
    for name in ("meta.txt", "labels.u32"):
        (data / name).write_bytes((ws["data"] / "test" / name).read_bytes())
    images = np.fromfile(ws["data"] / "test" / "images.f32", dtype="<f4")
    images[37] = np.nan
    images.tofile(data / "images.f32")
    rc = cli_main(["--config", str(ws["cfg"]), "--out", str(tmp_path / "o"), command,
                   "--ckpt", str(ws["ckpt"]), "--data", str(data),
                   "--stats", str(ws["stats"])])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error: images hold a non-finite pixel") and err.count("\n") == 1, err


def test_cli_eval_byte_identical_across_blas_threads(cli_workspace, tmp_path):
    """`eval` at 1 and 2 OpenBLAS threads writes the same records and summary
    bytes; timing.json names the kernel and the thread count."""
    ws = cli_workspace
    src = str(Path(tl.__file__).resolve().parents[1])
    outs = []
    for threads in ("1", "2"):
        out = tmp_path / f"threads{threads}"
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        run = subprocess.run(
            [sys.executable, "-c", "import sys; from ttalign.cli import main; sys.exit(main())",
             "--seed", "7", "--config", str(ws["cfg"]), "--out", str(out),
             "eval", "--ckpt", str(ws["ckpt"]), "--data", str(ws["data"] / "test"),
             "--stats", str(ws["stats"])],
            env=env, capture_output=True, text=True, timeout=300)
        assert run.returncode == 0, run.stderr
        timing = json.loads((out / "timing.json").read_text())
        assert timing["blas_core"] is None or isinstance(timing["blas_core"], str)
        # OpenBLAS caps the count at the CPUs it can use.
        assert timing["blas_threads"] is None or 1 <= timing["blas_threads"] <= int(threads)
        outs.append(out)
    for name in ("records.jsonl", "summary.json"):
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes(), name


@pytest.mark.parametrize("flag", ["--workers", "--limit"])
def test_cli_adapt_has_no_dataset_flags(cli_workspace, tmp_path, capsys, flag):
    """`adapt` runs one sample, so the dataset-run flags of eval and ablate
    are unknown to it."""
    ws = cli_workspace
    rc = cli_main(["--config", str(ws["cfg"]), "--out", str(tmp_path / "a"),
                   "adapt", "--ckpt", str(ws["ckpt"]), "--data", str(ws["data"] / "test"),
                   "--stats", str(ws["stats"]), flag, "2"])
    assert rc == 1
    assert f"unrecognized arguments: {flag}" in capsys.readouterr().err


def test_zero_shot_top1_rejects_negative_limit(tiny_model, tiny_data):
    val = tiny_data[1]
    with pytest.raises(tl.ConfigurationError, match="limit must be >= 0"):
        harness.zero_shot_top1(tiny_model, val, limit=-1)
    n = val.meta.n_samples
    assert harness.zero_shot_top1(tiny_model, val, limit=n) == harness.zero_shot_top1(tiny_model, val)
