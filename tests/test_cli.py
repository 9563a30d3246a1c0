import dataclasses
import os
import shlex
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from depthuq import cli, frustum, toytrain
from depthuq.gridio import read_grid, read_keyvalue, write_grid, write_keyvalue
from depthuq.losses import RANKING_VARIANTS
from depthuq.metrics import BASE_METRICS, SPARSIFICATION_STEPS


@pytest.fixture(scope="module")
def data_dir(tmp_path_factory):
    d = tmp_path_factory.mktemp("cli_data")
    rng = np.random.default_rng(0)
    gt = rng.uniform(1.5, 9.5, size=(8, 10))
    pred = gt + rng.normal(scale=0.5, size=gt.shape)
    unc = np.abs(pred - gt) + rng.uniform(0.0, 0.2, size=gt.shape)
    vol = rng.dirichlet(np.ones(6), size=gt.shape)
    write_grid(d / "gt.duv", gt)
    write_grid(d / "pred.duv", pred)
    write_grid(d / "unc.duv", unc)
    write_grid(d / "vol.duv", vol)
    write_grid(d / "vol2.duv", rng.dirichlet(np.ones(6), size=gt.shape))
    return d


def test_no_arguments_is_a_user_error(capsys):
    assert cli.main([]) == 1
    assert "subcommand" in capsys.readouterr().err


def test_unknown_subcommand_is_a_user_error():
    assert cli.main(["frobnicate"]) == 1


def test_help_exits_zero():
    with pytest.raises(SystemExit) as exc:
        cli.main(["--help"])
    assert exc.value.code == 0
    with pytest.raises(SystemExit) as exc:
        cli.main(["eval", "--help"])
    assert exc.value.code == 0


def test_missing_required_flag_is_a_user_error(data_dir):
    assert cli.main(["eval", "--pred", str(data_dir / "pred.duv")]) == 1


def test_eval_writes_one_row(data_dir, tmp_path):
    out = tmp_path / "metrics.csv"
    rc = cli.main([
        "eval", "--pred", str(data_dir / "pred.duv"), "--gt", str(data_dir / "gt.duv"),
        "--unc", str(data_dir / "unc.duv"), "--vol", str(data_dir / "vol.duv"),
        "--out", str(out),
    ])
    assert rc == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 2
    assert lines[0].startswith("rmse,")
    assert "scc" in lines[0] and "nll" in lines[0]


def test_eval_reruns_byte_identical(data_dir, tmp_path, capsys):
    argv = lambda n: [
        "eval", "--pred", str(data_dir / "pred.duv"), "--gt", str(data_dir / "gt.duv"),
        "--unc", str(data_dir / "unc.duv"), "--out", str(tmp_path / n),
    ]
    assert cli.main(argv("a.csv")) == 0
    first = capsys.readouterr().out.replace("a.csv", "X")
    assert cli.main(argv("b.csv")) == 0
    second = capsys.readouterr().out.replace("b.csv", "X")
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()
    assert first == second


def test_scc_two_routes_agree(data_dir, tmp_path, capsys):
    err = np.abs(read_grid(data_dir / "pred.duv") - read_grid(data_dir / "gt.duv"))
    write_grid(tmp_path / "err.duv", err)
    assert cli.main(["scc", "--err", str(tmp_path / "err.duv"), "--unc", str(data_dir / "unc.duv")]) == 0
    out_a = [l for l in capsys.readouterr().out.splitlines() if l.startswith("scc=")]
    assert cli.main([
        "scc", "--pred", str(data_dir / "pred.duv"), "--gt", str(data_dir / "gt.duv"),
        "--unc", str(data_dir / "unc.duv"),
    ]) == 0
    out_b = [l for l in capsys.readouterr().out.splitlines() if l.startswith("scc=")]
    # float32 storage of the error map vs recomputing from pred/gt: the
    # ranks coincide on this data, so the printed value must too
    assert out_a == out_b


def test_scc_rejects_both_sources(data_dir, tmp_path):
    write_grid(tmp_path / "err.duv", np.ones((8, 10)))
    rc = cli.main([
        "scc", "--err", str(tmp_path / "err.duv"), "--pred", str(data_dir / "pred.duv"),
        "--gt", str(data_dir / "gt.duv"), "--unc", str(data_dir / "unc.duv"),
    ])
    assert rc == 1


def test_scc_rejects_uncertainty_of_another_shape(data_dir, tmp_path, capsys):
    write_grid(tmp_path / "unc.duv", np.ones((4, 5)))
    rc = cli.main([
        "scc", "--pred", str(data_dir / "pred.duv"), "--gt", str(data_dir / "gt.duv"),
        "--unc", str(tmp_path / "unc.duv"), "--out", str(tmp_path / "scc.csv"),
    ])
    assert rc == 1
    assert "error: uncertainty shape (4, 5) != (8, 10)" in capsys.readouterr().err
    assert not (tmp_path / "scc.csv").exists()


def test_scc_rejects_prediction_of_another_shape(data_dir, tmp_path, capsys):
    # a 1x10 row would broadcast over the 8x10 GT
    write_grid(tmp_path / "pred.duv", read_grid(data_dir / "pred.duv")[:1])
    rc = cli.main([
        "scc", "--pred", str(tmp_path / "pred.duv"), "--gt", str(data_dir / "gt.duv"),
        "--unc", str(data_dir / "unc.duv"), "--out", str(tmp_path / "scc.csv"),
    ])
    assert rc == 1
    assert "error: shape mismatch (1, 10) vs (8, 10)" in capsys.readouterr().err
    assert not (tmp_path / "scc.csv").exists()


def test_scc_reports_undefined_on_ties(data_dir, tmp_path, capsys):
    write_grid(tmp_path / "err.duv", np.full((8, 10), 2.0))
    rc = cli.main(["scc", "--err", str(tmp_path / "err.duv"), "--unc", str(data_dir / "unc.duv"),
                   "--out", str(tmp_path / "scc.csv")])
    assert rc == 0
    assert "scc=undefined" in capsys.readouterr().out
    assert (tmp_path / "scc.csv").read_text().splitlines()[1].startswith(",")


def _one_valid_pixel(tmp_path):
    # a 4x4 map whose GT is valid at one pixel only
    rng = np.random.default_rng(3)
    gt = np.full((4, 4), np.nan)
    gt[1, 2] = 3.0
    write_grid(tmp_path / "gt1.duv", gt)
    write_grid(tmp_path / "pred.duv", rng.uniform(2.0, 6.0, (4, 4)))
    write_grid(tmp_path / "unc.duv", rng.uniform(0.0, 1.0, (4, 4)))
    write_grid(tmp_path / "vol.duv", rng.dirichlet(np.ones(6), size=(4, 4)))
    return [f"--{name}={tmp_path / file}.duv" for name, file in
            (("pred", "pred"), ("gt", "gt1"), ("unc", "unc"))]


@pytest.mark.parametrize("vol", [False, True], ids=["no-vol", "vol"])
def test_eval_one_valid_pixel_leaves_scc_undefined(tmp_path, capsys, vol):
    # one pixel is a completely tied ranking: SCC is None, not an error
    argv = ["eval", *_one_valid_pixel(tmp_path), "--out", str(tmp_path / "m.csv")]
    if vol:
        argv.append(f"--vol={tmp_path / 'vol.duv'}")
    assert cli.main(argv) == 0
    assert " scc=None " in capsys.readouterr().out
    header, row = (tmp_path / "m.csv").read_text().splitlines()
    assert dict(zip(header.split(","), row.split(",")))["scc"] == ""


def _eval_row(argv, out):
    assert cli.main([*argv, "--out", str(out)]) == 0
    header, row = out.read_text().splitlines()
    return dict(zip(header.split(","), row.split(",")))


@pytest.mark.parametrize("vol", [False, True], ids=["no-vol", "vol"])
def test_eval_one_valid_pixel_leaves_sparsification_undefined(tmp_path, vol):
    # nothing can be removed from one pixel: every AUSE and AURG is None
    argv = ["eval", *_one_valid_pixel(tmp_path)]
    if vol:
        argv.append(f"--vol={tmp_path / 'vol.duv'}")
    row = _eval_row(argv, tmp_path / "m.csv")
    for base in ("rmse", "rel", "delta1"):
        assert row[f"ause_{base}"] == row[f"aurg_{base}"] == "", base


def test_sparsify_one_valid_pixel_exits_one(tmp_path, capsys):
    argv = ["sparsify", *_one_valid_pixel(tmp_path), "--out", str(tmp_path / "c.csv")]
    assert cli.main(argv) == 1
    assert "error: one pixel; nothing to remove" in capsys.readouterr().err
    assert not (tmp_path / "c.csv").exists()


def test_eval_scc_of_two_reversed_pixels_is_exactly_minus_one(tmp_path, capsys):
    # two valid GT pixels whose uncertainty ranks their errors in reverse
    gt = np.full((4, 4), np.nan)
    gt[0, 1], gt[3, 2] = 2.0, 5.0
    pred = np.full((4, 4), 4.0)
    pred[0, 1], pred[3, 2] = 2.1, 5.5  # errors 0.1 and 0.5
    unc = np.full((4, 4), 0.5)
    unc[0, 1], unc[3, 2] = 0.9, 0.2
    for name, grid in (("gt", gt), ("pred", pred), ("unc", unc)):
        write_grid(tmp_path / f"{name}.duv", grid)
    argv = ["eval", *(f"--{name}={tmp_path / name}.duv" for name in ("pred", "gt", "unc"))]
    assert _eval_row(argv, tmp_path / "m.csv")["scc"] == "-1.0"
    assert " scc=-1.0 " in capsys.readouterr().out


def test_scc_one_pixel_is_undefined(tmp_path, capsys):
    pred_gt_unc = _one_valid_pixel(tmp_path)
    err = np.full((4, 4), np.nan)
    err[0, 3] = 1.0
    write_grid(tmp_path / "err.duv", err)
    for source in (pred_gt_unc[:2], [f"--err={tmp_path / 'err.duv'}"]):
        argv = ["scc", *source, pred_gt_unc[2], "--out", str(tmp_path / "scc.csv")]
        assert cli.main(argv) == 0
        assert "scc=undefined (all ranks tied)" in capsys.readouterr().out
        assert (tmp_path / "scc.csv").read_text().splitlines()[1] == ",1"


def test_scc_rejects_error_map_without_finite_pixel(data_dir, tmp_path, capsys):
    write_grid(tmp_path / "err.duv", np.full((8, 10), np.nan))
    rc = cli.main(["scc", "--err", str(tmp_path / "err.duv"), "--unc", str(data_dir / "unc.duv"),
                   "--out", str(tmp_path / "scc.csv")])
    assert rc == 1
    assert "error: need >= 1 pixel" in capsys.readouterr().err
    assert not (tmp_path / "scc.csv").exists()


def test_sparsify_curve_file(data_dir, tmp_path, capsys):
    out = tmp_path / "curve.csv"
    rc = cli.main([
        "sparsify", "--pred", str(data_dir / "pred.duv"), "--gt", str(data_dir / "gt.duv"),
        "--unc", str(data_dir / "unc.duv"), "--steps", "10", "--out", str(out),
    ])
    assert rc == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "fraction,spars,oracle,random"
    assert len(lines) == 11
    printed = capsys.readouterr().out
    assert "ause=" in printed and "aurg=" in printed


def test_nonfinite_prediction_exits_one(data_dir, tmp_path, capsys):
    pred = read_grid(data_dir / "pred.duv").copy()
    pred[2, 2] = np.nan
    write_grid(tmp_path / "pred_nan.duv", pred)
    common = ["--pred", str(tmp_path / "pred_nan.duv"), "--gt", str(data_dir / "gt.duv"),
              "--unc", str(data_dir / "unc.duv")]
    for argv in (["eval", *common, "--out", str(tmp_path / "e.csv")],
                 ["sparsify", *common, "--out", str(tmp_path / "s.csv")]):
        assert cli.main(argv) == 1
        assert "prediction is non-finite on 1 valid pixel(s)" in capsys.readouterr().err
    assert not (tmp_path / "e.csv").exists() and not (tmp_path / "s.csv").exists()


def _eval_argv(data_dir, vol, out):
    return ["eval", "--pred", str(data_dir / "pred.duv"), "--gt", str(data_dir / "gt.duv"),
            "--unc", str(data_dir / "unc.duv"), "--vol", str(vol), "--out", str(out)]


def test_eval_rejects_volume_of_other_pixel_shape(data_dir, tmp_path, capsys):
    write_grid(tmp_path / "half.duv", read_grid(data_dir / "vol.duv")[:4])
    assert cli.main(_eval_argv(data_dir, tmp_path / "half.duv", tmp_path / "e.csv")) == 1
    assert "error: volume pixels (4, 10) vs gt (8, 10)" in capsys.readouterr().err
    assert not (tmp_path / "e.csv").exists()


def test_eval_rejects_negative_volume_entry(data_dir, tmp_path, capsys):
    vol = read_grid(data_dir / "vol.duv").copy()
    vol[3, 4, 2] = -0.5
    write_grid(tmp_path / "neg.duv", vol)
    assert cli.main(_eval_argv(data_dir, tmp_path / "neg.duv", tmp_path / "e.csv")) == 1
    assert "error: probability volume must be finite and >= 0" in capsys.readouterr().err
    assert not (tmp_path / "e.csv").exists()


def test_eval_writes_empty_log_cells_without_positive_prediction(data_dir, tmp_path):
    write_grid(tmp_path / "neg_pred.duv", np.full((8, 10), -1.0))
    out = tmp_path / "e.csv"
    assert cli.main([
        "eval", "--pred", str(tmp_path / "neg_pred.duv"), "--gt", str(data_dir / "gt.duv"),
        "--unc", str(data_dir / "unc.duv"), "--out", str(out),
    ]) == 0
    header, row = out.read_text().splitlines()
    cells = dict(zip(header.split(","), row.split(",")))
    assert cells["log10"] == "" and cells["log_rms"] == ""
    assert "nan" not in row


def test_config_file_preloads_and_flags_win(data_dir, tmp_path, capsys):
    cfg = tmp_path / "sparsify.cfg"
    cfg.write_text("# curve defaults\nmetric=rel\nsteps=25\n")
    out = tmp_path / "c.csv"
    rc = cli.main([
        "sparsify", "--config", str(cfg), "--pred", str(data_dir / "pred.duv"),
        "--gt", str(data_dir / "gt.duv"), "--unc", str(data_dir / "unc.duv"),
        "--steps", "5", "--out", str(out),
    ])
    assert rc == 0
    assert len(out.read_text().splitlines()) == 6  # explicit --steps overrode the file
    banner = capsys.readouterr().out.splitlines()[0]
    assert f" config={cfg} " in banner and " metric=rel " in banner
    # every file read is named, in the order given
    other = tmp_path / "other.cfg"
    other.write_text("metric=delta1err\n")
    rc = cli.main([
        "sparsify", "--config", str(cfg), f"--config={other}", "--pred", str(data_dir / "pred.duv"),
        "--gt", str(data_dir / "gt.duv"), "--unc", str(data_dir / "unc.duv"), "--out", str(out),
    ])
    assert rc == 0
    banner = capsys.readouterr().out.splitlines()[0]
    assert f" config={cfg},{other} " in banner and " metric=delta1err " in banner


def test_config_file_syntax_error(data_dir, tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("metric rel\n")
    rc = cli.main([
        "sparsify", "--config", str(cfg), "--pred", str(data_dir / "pred.duv"),
        "--gt", str(data_dir / "gt.duv"), "--unc", str(data_dir / "unc.duv"),
        "--out", str(tmp_path / "x.csv"),
    ])
    assert rc == 1
    assert "bad.cfg:1" in capsys.readouterr().err


def test_config_file_cannot_name_another(tmp_path, capsys):
    cfg = tmp_path / "nested.cfg"
    cfg.write_text("config=missing.cfg\n")
    rc = cli.main(["train-toy", "--seed", "0", "--config", str(cfg), "--out-dir", str(tmp_path / "r")])
    err = capsys.readouterr().err
    assert rc == 1
    assert err.startswith("error:") and str(cfg) in err
    assert not (tmp_path / "r").exists()


def test_config_file_last_line_wins(data_dir, tmp_path, capsys):
    # d-min and d_min name one flag: the line read last decides, as the
    # last of repeated flags does on the command line
    cfg = tmp_path / "twice.cfg"
    cfg.write_text("d-min=1\nd_min=2\nd-min=3\n")
    rc = cli.main([
        "eval", "--config", str(cfg), "--pred", str(data_dir / "pred.duv"),
        "--gt", str(data_dir / "gt.duv"), "--unc", str(data_dir / "unc.duv"),
        "--out", str(tmp_path / "e.csv"),
    ])
    assert rc == 0
    assert " d_min=3.0 " in capsys.readouterr().out.splitlines()[0]


TRAIN_LOG_HEADER = (
    "epoch,lr,total,loss_depth,loss_soft,loss_rank,sigma_depth,sigma_soft,sigma_rank,"
    "alpha,grad_sigma_depth,grad_sigma_soft,grad_sigma_rank"
)
EVAL_HEADER = (
    "rmse,rel,log10,sq_rel,log_rms,delta1,delta2,delta3,ause_rmse,aurg_rmse,ause_rel,"
    "aurg_rel,ause_delta1,aurg_delta1,scc,auroc,fpr95,nll,noise_scc"
)


def test_train_toy_writes_artifacts(tmp_path):
    for head in toytrain.HEAD_KINDS:
        out_dir = tmp_path / head
        rc = cli.main([
            "train-toy", "--seed", "0", "--head", head, "--epochs", "2", "--train-scenes", "2",
            "--eval-scenes", "1", "--height", "8", "--width", "8", "--out-dir", str(out_dir),
        ])
        assert rc == 0
        manifest = read_keyvalue(out_dir / "model" / "manifest.txt")
        assert list(manifest) == ["head", "raw_scale", "d_min", "d_max", "m"]
        assert manifest["head"] == head and manifest["m"] == "16"
        shapes = {p.stem: read_grid(p).shape for p in (out_dir / "model").glob("*.duv")}
        readout = {"w_out": (16,)} if head == "regression" else {}
        assert shapes == {"w1": (8, 16), "b1": (16,), "w2": (16, 16), "sigma": (3,), **readout}
        log_lines = (out_dir / "train_log.csv").read_text().splitlines()
        assert log_lines[0] == TRAIN_LOG_HEADER
        assert [line.split(",")[0] for line in log_lines[1:]] == ["0", "1"]
        eval_lines = (out_dir / "eval.csv").read_text().splitlines()
        assert eval_lines[0] == EVAL_HEADER and len(eval_lines) == 2
        nll = eval_lines[1].split(",")[EVAL_HEADER.split(",").index("nll")]
        assert (nll == "") == (head == "regression")


def test_train_toy_requires_seed(tmp_path):
    rc = cli.main(["train-toy", "--out-dir", str(tmp_path / "r")])
    assert rc == 1


def test_ablate_tiny_grid(tmp_path):
    out = tmp_path / "rows.csv"
    rc = cli.main([
        "ablate", "--seeds", "0", "--epochs", "1", "--train-scenes", "2",
        "--eval-scenes", "1", "--height", "8", "--width", "8", "--out", str(out),
    ])
    assert rc == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 7  # 6 configurations, one seed
    assert lines[0] == "config,seed," + EVAL_HEADER
    assert lines[1].startswith("depth_only,0,")


def _no_training(*args, **kwargs):
    raise AssertionError("trained a model")


@pytest.mark.parametrize("counts, message", [
    (["--train-scenes", "0"], "need at least one training scene"),
    (["--eval-scenes", "0"], "need at least one evaluation scene"),
], ids=["train", "eval"])
def test_ablate_zero_scene_count_fails_before_training(tmp_path, capsys, monkeypatch, counts, message):
    monkeypatch.setattr(toytrain, "train", _no_training)
    rc = cli.main(["ablate", "--seeds", "0", *counts, "--out", str(tmp_path / "rows.csv")])
    err = capsys.readouterr().err
    assert rc == 1
    assert err.startswith("error:") and message in err
    assert not (tmp_path / "rows.csv").exists()


def test_combine_and_entropy(data_dir, tmp_path):
    out = tmp_path / "mean.duv"
    ent = tmp_path / "ent.duv"
    rc = cli.main([
        "combine", "--vols", str(data_dir / "vol.duv"), str(data_dir / "vol2.duv"),
        "--out", str(out), "--entropy-out", str(ent),
    ])
    assert rc == 0
    a = read_grid(data_dir / "vol.duv")
    b = read_grid(data_dir / "vol2.duv")
    got = read_grid(out)
    np.testing.assert_allclose(got, ((a + b) / 2.0).astype(np.float32), atol=1e-7)
    assert read_grid(ent).shape == (8, 10)


def test_combine_rejects_before_writing_either_file(data_dir, tmp_path, capsys):
    # every input is checked, with or without --entropy-out
    vol = read_grid(data_dir / "vol.duv").copy()
    vol[0, 0, 0] = -0.5
    write_grid(tmp_path / "neg.duv", vol)
    for entropy in ([], ["--entropy-out", str(tmp_path / "e.duv")]):
        rc = cli.main([
            "combine", "--vols", str(data_dir / "vol2.duv"), str(tmp_path / "neg.duv"),
            "--out", str(tmp_path / "c.duv"), *entropy,
        ])
        assert rc == 1
        err = capsys.readouterr().err
        assert "error: probability volume must be finite and >= 0" in err
        assert not (tmp_path / "c.duv").exists() and not (tmp_path / "e.duv").exists()


def test_voxelize_and_render_round_trip(data_dir, tmp_path, capsys):
    base = tmp_path / "grid"
    rc = cli.main([
        "voxelize", "--mode", "gt", "--gt", str(data_dir / "gt.duv"),
        "--bins", "4", "--resolution", "6", "--out", str(base),
    ])
    assert rc == 0
    assert (tmp_path / "grid.meta.txt").exists()
    assert "voxels=" in capsys.readouterr().out

    img = tmp_path / "view.ppm"
    rc = cli.main([
        "render", "--grid", str(base), "--out", str(img), "--height", "12",
        "--width", "12", "--pose", "orbit", "--azimuth", "30", "--bg", "0.1,0.2,0.3",
    ])
    assert rc == 0
    payload = img.read_bytes()
    assert payload.startswith(b"P6\n12 12\n255\n")
    assert len(payload) == len(b"P6\n12 12\n255\n") + 12 * 12 * 3


def _drop_meta_key(base, key):
    meta = base.with_name(base.name + ".meta.txt")
    meta.write_text("".join(ln + "\n" for ln in meta.read_text().splitlines() if not ln.startswith(key + "=")))


def _add_meta_line(base, line):
    meta = base.with_name(base.name + ".meta.txt")
    meta.write_text(meta.read_text() + line + "\n")


def _drop_value_row(base):
    val = base.with_name(base.name + ".val.duv")
    write_grid(val, read_grid(val)[1:])


def _edit_rows(base, part, edit):
    path = base.with_name(f"{base.name}.{part}.duv")
    rows = read_grid(path)
    edit(rows)
    write_grid(path, rows)


def _set_first_value(column, value):
    def edit(vals):
        vals[0, column] = value
    return edit


def _fractional_index(idx):
    idx[0, 0] += 0.5


def _duplicate_index(idx):
    idx[1] = idx[0]


@pytest.mark.parametrize(
    "corrupt, message",
    [(lambda b: _drop_meta_key(b, "lo"), "missing key(s) lo"),
     (lambda b: _add_meta_line(b, "lo 0,0,0"), "expected key=value"),
     (_drop_value_row, "index rows"),
     (lambda b: _add_meta_line(b, "lo=a,0,0"), "g.meta.txt: key 'lo' wants 3 comma-separated float value(s), got 'a,0,0'"),
     (lambda b: _add_meta_line(b, "lo=1,2"), "g.meta.txt: key 'lo' wants 3 comma-separated float value(s), got '1,2'"),
     (lambda b: _edit_rows(b, "idx", _fractional_index), "g.idx.duv: voxel indices must be integers"),
     (lambda b: _edit_rows(b, "idx", _duplicate_index), "g: duplicate voxel index"),
     (lambda b: _edit_rows(b, "val", _set_first_value(1, np.nan)), "g: colors must lie in [0, 1]"),
     (lambda b: _edit_rows(b, "val", _set_first_value(0, np.nan)), "g: stored alphas must lie in"),
     (lambda b: _edit_rows(b, "val", _set_first_value(0, 5.0)), "g: stored alphas must lie in"),
     (lambda b: _edit_rows(b, "val", _set_first_value(2, -3.0)), "g: colors must lie in [0, 1]"),
     (lambda b: _add_meta_line(b, "lo=nan,0,0"), "g: bounds must be finite")],
    ids=["missing-lo", "no-equals", "row-mismatch", "bad-lo-cell", "short-lo", "fractional-index",
         "duplicate-index", "nan-color", "nan-alpha", "alpha-above-one", "negative-color", "nan-lo"],
)
def test_render_malformed_grid_exits_one(data_dir, tmp_path, capsys, corrupt, message):
    base = tmp_path / "g"
    assert cli.main([
        "voxelize", "--mode", "gt", "--gt", str(data_dir / "gt.duv"),
        "--bins", "4", "--resolution", "6", "--out", str(base),
    ]) == 0
    corrupt(base)
    capsys.readouterr()
    rc = cli.main(["render", "--grid", str(base), "--height", "8", "--width", "8",
                   "--out", str(tmp_path / "bad.ppm")])
    err = capsys.readouterr().err
    assert rc == 1
    assert err.startswith("error:") and message in err
    assert "Traceback" not in err
    assert not (tmp_path / "bad.ppm").exists()


@pytest.mark.parametrize("side", [1_000_000, 3_000_000_000])
def test_render_outsized_resolution_exits_one(tmp_path, capsys, side):
    # 10^18 voxels, or 2.7 * 10^28, which also wraps in int64: either is
    # refused by count before a full-grid array is made
    base = tmp_path / "g"
    write_grid(f"{base}.idx.duv", np.zeros((1, 3)))
    write_grid(f"{base}.val.duv", np.full((1, 4), 0.5))
    write_keyvalue(f"{base}.meta.txt", {"lo": np.zeros(3), "hi": np.ones(3), "resolution": (side,) * 3,
                                        "deposited_mass": 0.5, "voxels": 1})
    rc = cli.main(["render", "--grid", str(base), "--height", "4", "--width", "4",
                   "--out", str(tmp_path / "view.ppm")])
    err = capsys.readouterr().err
    assert rc == 1
    assert err.startswith("error:") and f"has {side ** 3} voxels, more than" in err
    assert not (tmp_path / "view.ppm").exists()


@pytest.mark.parametrize("resolution, voxels", [("100000000000000000000", 10 ** 60),
                                                ("3000000000,3000000000,3000000000", 27 * 10 ** 27)],
                         ids=["cube-1e20", "tuple-3e9"])
def test_voxelize_outsized_resolution_exits_one(data_dir, tmp_path, capsys, resolution, voxels):
    rc = cli.main(["voxelize", "--vol", str(data_dir / "vol.duv"), "--resolution", resolution,
                   "--out", str(tmp_path / "g")])
    err = capsys.readouterr().err
    assert rc == 1
    assert err.startswith("error:") and f"has {voxels} voxels, more than" in err
    assert list(tmp_path.iterdir()) == []


def test_voxelize_axis_beyond_float32_indices_exits_one(data_dir, tmp_path, capsys):
    # index 2**24 + 1 would not survive the float32 ``.idx.duv``
    rc = cli.main(["voxelize", "--vol", str(data_dir / "vol.duv"), "--resolution", "16777218,2,2",
                   "--out", str(tmp_path / "g")])
    err = capsys.readouterr().err
    assert rc == 1
    assert err.startswith("error:") and "axis x has 16777218 cells, more than 16777217" in err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("value", [0.0, 1e-5], ids=["zero", "below-threshold"])
def test_voxelize_empty_grid_exits_one_before_writing(tmp_path, capsys, value):
    # a valid volume whose every voxel stays at or below ALPHA_EPSILON
    write_grid(tmp_path / "vol.duv", np.full((8, 10, 6), value))
    rc = cli.main(["voxelize", "--vol", str(tmp_path / "vol.duv"), "--out", str(tmp_path / "out" / "g")])
    err = capsys.readouterr().err
    assert rc == 1
    assert err.startswith("error:") and "ALPHA_EPSILON" in err
    assert [p.name for p in tmp_path.iterdir()] == ["vol.duv"]


def test_render_threads_match_single(data_dir, tmp_path):
    base = tmp_path / "g"
    assert cli.main([
        "voxelize", "--mode", "gt", "--gt", str(data_dir / "gt.duv"),
        "--bins", "4", "--resolution", "6", "--out", str(base),
    ]) == 0
    common = ["render", "--grid", str(base), "--height", "10", "--width", "10",
              "--pose", "orbit", "--azimuth", "45", "--elevation", "15"]
    assert cli.main(common + ["--threads", "1", "--out", str(tmp_path / "t1.ppm")]) == 0
    assert cli.main(common + ["--threads", "3", "--out", str(tmp_path / "t3.ppm")]) == 0
    assert (tmp_path / "t1.ppm").read_bytes() == (tmp_path / "t3.ppm").read_bytes()


@pytest.mark.parametrize("bad", [["--step", "0"], ["--step", "-0.1"], ["--min-transmittance", "2"],
                                 ["--threads", "0"], ["--threads", "-3"]])
def test_threaded_render_rejects_bad_march_settings(data_dir, tmp_path, capsys, bad):
    base = tmp_path / "g"
    assert cli.main([
        "voxelize", "--mode", "gt", "--gt", str(data_dir / "gt.duv"),
        "--bins", "4", "--resolution", "6", "--out", str(base),
    ]) == 0
    capsys.readouterr()
    argv = ["render", "--grid", str(base), "--height", "8", "--width", "8",
            "--threads", "2", "--out", str(tmp_path / "bad.ppm"), *bad]
    assert cli.main(argv) == 1
    assert capsys.readouterr().err.startswith("error:")
    assert not (tmp_path / "bad.ppm").exists()


@pytest.fixture(scope="module")
def volume_grid(tmp_path_factory):
    # a 12x16x8 probability volume and its grid at resolution 8
    d = tmp_path_factory.mktemp("volume_grid")
    vol = np.random.default_rng(2).dirichlet(np.ones(8), size=(12, 16))
    write_grid(d / "vol.duv", vol)
    assert cli.main(["voxelize", "--vol", str(d / "vol.duv"), "--resolution", "8", "--out", str(d / "g")]) == 0
    return d


@pytest.mark.parametrize("argv, message", [
    (["voxelize", "--focal", "nan"], "focal length must be a finite number > 0, got nan"),
    (["render", "--focal", "nan"], "focal length must be a finite number > 0, got nan"),
    (["render", "--step", "nan"], "step length must be a finite number > 0, got nan"),
    (["render", "--step", "inf"], "step length must be a finite number > 0, got inf"),
    (["render", "--pose", "orbit", "--radius", "inf"], "orbit radius must be a finite number > 0, got inf"),
    (["render", "--pose", "orbit", "--radius", "nan"], "orbit radius must be a finite number > 0, got nan"),
    (["render", "--pose", "orbit", "--azimuth", "nan"], "orbit angles and target must be finite, got azimuth nan, elevation 0.0, target "),
    (["render", "--pose", "orbit", "--elevation", "inf"], "orbit angles and target must be finite, got azimuth 0.0, elevation inf, target "),
    (["render", "--bg", "nan,0,0"], "background color must lie in [0, 1], got [nan, 0.0, 0.0]"),
    (["render", "--bg", "0,1.5,0"], "background color must lie in [0, 1], got [0.0, 1.5, 0.0]"),
    (["render", "--pose", "orbit", "--target", "0,nan,1"], "orbit angles and target must be finite, got azimuth 0.0, elevation 0.0, target [0.0, nan, 1.0]"),
], ids=["voxelize-focal-nan", "render-focal-nan", "step-nan", "step-inf", "radius-inf", "radius-nan",
        "azimuth-nan", "elevation-inf", "bg-nan", "bg-above-one", "target-nan"])
def test_bad_view_settings_exit_one(volume_grid, tmp_path, capsys, argv, message):
    # NaN passed the "<= 0" tests: a traceback (exit 2), an all-background
    # image, one sample per ray, a NaN background cast to bytes, or a bare
    # "SVD did not converge"
    out = tmp_path / "out"
    if argv[0] == "voxelize":
        argv = argv + ["--vol", str(volume_grid / "vol.duv"), "--resolution", "8", "--out", str(out)]
    else:
        argv = argv + ["--grid", str(volume_grid / "g"), "--height", "8", "--width", "8", "--out", str(out)]
    assert cli.main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {message}") and err.count("\n") == 1
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv, message", [
    (["--height", "3"], "image extents must be >= 4, got 3x32"),
    (["--features", "0"], "need >= 1 feature channel, got 0"),
    (["--eta-lo", "0.5", "--eta-hi", "0.5"], "need 0 <= eta_lo < eta_hi, got 0.5, 0.5"),
    (["--d-min", "-1"], "need 0 < d_min < d_max, got [-1.0, 10.0]"),
    (["--eta-hi", "inf"], "need 0 <= eta_lo < eta_hi, got 0.02, inf"),
    (["--d-max", "inf"], "need 0 < d_min < d_max, got [1.0, inf]"),
    (["--bins", "2", "--gamma", "1e308"],
     "gamma 1e+308 is too large: gamma * |s - d| overflows for every hypothesis of a pixel"),
], ids=["extent", "features", "eta", "depth-range", "eta-inf", "depth-inf", "gamma-overflow"])
def test_bad_scene_field_fails_before_training(tmp_path, capsys, monkeypatch, argv, message):
    # an infinite noise std trained and reported a divergence; an infinite
    # depth range exited 2 with an OverflowError from the scene draw; a
    # gamma that overflows the soft-label distances gave NaN label rows,
    # reported as a divergence
    monkeypatch.setattr(toytrain, "train", _no_training)
    rc = cli.main(["train-toy", "--seed", "0", *argv, "--out-dir", str(tmp_path / "run")])
    assert rc == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not (tmp_path / "run").exists()


def test_ablate_rejects_threads_below_one(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(toytrain, "train", _no_training)
    out = tmp_path / "rows.csv"
    rc = cli.main([
        "ablate", "--seeds", "0", "--epochs", "1", "--train-scenes", "2", "--eval-scenes", "1",
        "--height", "8", "--width", "8", "--threads", "0", "--out", str(out),
    ])
    assert rc == 1
    assert capsys.readouterr().err.startswith("error: argument --threads: invalid choice: 0")
    assert not out.exists()


@pytest.mark.parametrize("argv, config", [
    (["--threads", "2"], None),
    (["--soft", "off"], None),
    (["--ranking", "none"], None),
    ([], "ranking=none\n"),
], ids=["threads-2", "soft", "ranking", "config-ranking"])
def test_ablate_refuses_flags_it_does_not_read(tmp_path, capsys, monkeypatch, argv, config):
    # the runs of a seed train in one call, and each row sets its own loss
    # terms: these flags were taken and ignored
    monkeypatch.setattr(toytrain, "train", _no_training)
    if config is not None:
        (tmp_path / "cfg.txt").write_text(config)
        argv = ["--config", str(tmp_path / "cfg.txt")]
    out = tmp_path / "rows.csv"
    rc = cli.main(["ablate", "--seeds", "0", *argv, "--out", str(out)])
    assert rc == 1
    assert capsys.readouterr().err.startswith("error:")
    assert not out.exists()


@pytest.mark.parametrize("subcommand", ["ablate", "train-toy"])
def test_training_rejects_zero_hidden_width(tmp_path, capsys, subcommand):
    # ablate exited 0 with an input-independent model; train-toy trained,
    # then failed writing a zero-width weight grid
    out = tmp_path / "out"
    target = ["--seeds", "0", "--out", str(out)] if subcommand == "ablate" else ["--seed", "0", "--out-dir", str(out)]
    rc = cli.main([
        subcommand, *target, "--hidden", "0", "--epochs", "1", "--train-scenes", "2",
        "--eval-scenes", "1", "--height", "8", "--width", "8",
    ])
    assert rc == 1
    assert capsys.readouterr().err.startswith("error: hidden width must be >= 1, got 0")
    assert not out.exists()


@pytest.mark.parametrize("subcommand", ["ablate", "train-toy"])
@pytest.mark.parametrize("flag, value, name", [
    ("--lr", "nan", "learning rate"), ("--lr", "inf", "learning rate"),
    ("--lr", "-inf", "learning rate"), ("--gamma", "nan", "gamma"), ("--gamma", "inf", "gamma"),
])
def test_training_rejects_nonfinite_lr_and_gamma(tmp_path, capsys, subcommand, flag, value, name):
    # NaN passed the `<= 0` checks: the run trained, then exited 1 with
    # "training diverged (non-finite total) in epoch 0"
    out = tmp_path / "out"
    target = ["--seeds", "0", "--out", str(out)] if subcommand == "ablate" else ["--seed", "0", "--out-dir", str(out)]
    rc = cli.main([
        subcommand, *target, f"{flag}={value}", "--epochs", "1", "--train-scenes", "2",
        "--eval-scenes", "1", "--height", "8", "--width", "8",
    ])
    assert rc == 1
    assert capsys.readouterr().err.startswith(f"error: {name} must be a finite number > 0, got {value}")
    assert not out.exists()


@pytest.mark.parametrize("head", ["classification", "regression"])
def test_train_toy_writes_no_weight_beyond_float32(tmp_path, capsys, head):
    # every weight grid held only inf, and the run exited 0; training now
    # stops at the step that leaves a weight beyond the float32 range.
    # The regression head's sigma step overflowed float64 with a warning
    out = tmp_path / "out"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = cli.main([
            "train-toy", "--seed", "0", "--head", head, "--epochs", "1", "--train-scenes", "1",
            "--eval-scenes", "1", "--lr", "1e308", "--out-dir", str(out),
        ])
    assert rc == 1
    err = capsys.readouterr().err
    assert err == "error: training diverged (a weight left the float32 range) in epoch 0\n"
    assert not out.exists()


# ablate trains the soft-label term, which needs the classification head
@pytest.mark.parametrize(
    "subcommand, head",
    [
        pytest.param("ablate", "classification", id="ablate"),
        pytest.param("demo-ause", "classification", id="demo-ause"),
        pytest.param("demo-ause", "regression", id="demo-ause-regression"),
    ],
)
def test_training_stops_when_a_weight_leaves_float32(tmp_path, capsys, subcommand, head):
    # both exited 0 after an overflow RuntimeWarning from the softmax,
    # reporting every SCC as undefined
    out = tmp_path / "out.csv"
    extra = ["--seeds", "0"] if subcommand == "ablate" else ["--seed", "0", "--transform", "square"]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = cli.main([
            subcommand, *extra, "--head", head, "--epochs", "1", "--train-scenes", "1", "--eval-scenes", "1",
            "--lr", "1e308", "--out", str(out),
        ])
    assert rc == 1
    err = capsys.readouterr().err
    assert err == "error: training diverged (a weight left the float32 range) in epoch 0\n"
    assert not out.exists()


@pytest.mark.parametrize("seeds", ["0,0", "1,0,1"])
def test_ablate_rejects_repeated_seed(tmp_path, capsys, seeds):
    out = tmp_path / "rows.csv"
    rc = cli.main([
        "ablate", "--seeds", seeds, "--epochs", "1", "--train-scenes", "2", "--eval-scenes", "1",
        "--height", "8", "--width", "8", "--out", str(out),
    ])
    assert rc == 1
    assert capsys.readouterr().err.startswith(f"error: repeated seed in {seeds!r}")
    assert not out.exists()


@pytest.mark.parametrize("steps", ["0", "1"])
def test_demo_ause_rejects_fewer_than_two_steps(tmp_path, capsys, steps):
    # --steps 0 was an IndexError (exit 2); --steps 1 printed AUSE 0.0 for any input
    out = tmp_path / "demo.csv"
    rc = cli.main([
        "demo-ause", "--transform", "square", "--epochs", "1", "--train-scenes", "2",
        "--eval-scenes", "1", "--steps", steps, "--out", str(out),
    ])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: need >= 2 removal steps, got {steps}")
    assert not out.exists()


@pytest.mark.parametrize("bad", [
    ["--scale", "0"], ["--scale", "-1"], ["--scale", "nan"], ["--scale", "inf"],
    ["--offset", "nan"], ["--offset=-inf"],
])
def test_demo_ause_rejects_bad_affine_before_training(tmp_path, capsys, monkeypatch, bad):
    # each exited 1 only after a full training run; scale 0 and the
    # non-finite values as "not strictly increasing"
    monkeypatch.setattr(toytrain, "train", _no_training)
    out = tmp_path / "demo.csv"
    rc = cli.main(["demo-ause", "--transform", "affine", *bad, "--out", str(out)])
    assert rc == 1
    assert capsys.readouterr().err.startswith("error: affine transform needs a finite scale > 0")
    assert not out.exists()


@pytest.mark.parametrize("argv, out", [
    (["train-toy", "--seed", "-1", "--out-dir", "{out}"], "run"),
    (["demo-ause", "--transform", "square", "--seed", "-1", "--out", "{out}"], "demo.csv"),
    (["ablate", "--seeds", "0,-1", "--out", "{out}"], "rows.csv"),
    (["gradcheck", "--seed", "-1", "--trials", "1", "--out", "{out}"], "checks.csv"),
], ids=["train-toy", "demo-ause", "ablate", "gradcheck"])
def test_negative_seed_is_a_user_error(tmp_path, capsys, monkeypatch, argv, out):
    # NumPy's own "expected non-negative integer" named no seed
    monkeypatch.setattr(toytrain, "train", _no_training)
    out = tmp_path / out
    small = ["--epochs", "1", "--train-scenes", "2", "--eval-scenes", "1", "--height", "8", "--width", "8"]
    rc = cli.main([a.format(out=out) for a in argv] + (small if argv[0] != "gradcheck" else []))
    assert rc == 1
    assert capsys.readouterr().err == "error: seed must be >= 0, got -1\n"
    assert not out.exists()


def test_demo_ause_runs_on_tiny_model(tmp_path, capsys):
    rc = cli.main([
        "demo-ause", "--transform", "square", "--epochs", "1", "--train-scenes", "2",
        "--eval-scenes", "1", "--height", "8", "--width", "8",
        "--out", str(tmp_path / "demo.csv"),
    ])
    assert rc == 0
    printed = capsys.readouterr().out
    assert "SCC_A=" in printed and "AUSE_B=" in printed
    assert (tmp_path / "demo.csv").exists()


def test_gradcheck_cli_stdout_is_rerun_stable(tmp_path, capsys):
    out = tmp_path / "checks.csv"
    rc = cli.main(["gradcheck", "--trials", "2", "--seed", "3", "--out", str(out)])
    assert rc == 0
    first = capsys.readouterr()
    assert "PASS" in first.out
    assert "elapsed" not in first.out  # timings go to stderr only
    first_csv = out.read_bytes()
    rc = cli.main(["gradcheck", "--trials", "2", "--seed", "3", "--out", str(out)])
    assert rc == 0
    second = capsys.readouterr()
    assert second.out == first.out
    assert out.read_bytes() == first_csv
    assert first_csv.splitlines()[0] == b"check,trials,max_scaled,tol,passed"


def test_internal_failure_exits_two(data_dir, tmp_path, monkeypatch, capsys):
    def boom(*args, **kwargs):
        raise RuntimeError("wiring fault")

    monkeypatch.setattr(cli, "spearman", boom)
    write_grid(tmp_path / "err.duv", np.array([[1.0, 2.0], [3.0, 4.0]]))
    rc = cli.main(["scc", "--err", str(tmp_path / "err.duv"), "--unc", str(tmp_path / "err.duv")])
    assert rc == 2
    assert "wiring fault" in capsys.readouterr().err


def test_resolved_config_banner(data_dir, tmp_path, capsys):
    cli.main([
        "sparsify", "--pred", str(data_dir / "pred.duv"), "--gt", str(data_dir / "gt.duv"),
        "--unc", str(data_dir / "unc.duv"), "--out", str(tmp_path / "c.csv"),
    ])
    out = capsys.readouterr().out
    assert out.startswith("resolved config:")
    assert "metric=rmse" in out
    assert " config=None " in out


def _option(subcommand, dest):
    sub = next(a for a in cli.build_parser()._actions if a.dest == "subcommand")
    return next(a for a in sub.choices[subcommand]._actions if a.dest == dest)


def test_defaults_and_choices_come_from_the_library():
    assert tuple(_option("train-toy", "ranking").choices) == RANKING_VARIANTS + ("none",)
    assert tuple(_option("sparsify", "metric").choices) == BASE_METRICS
    assert _option("sparsify", "steps").default == SPARSIFICATION_STEPS
    assert _option("demo-ause", "steps").default == SPARSIFICATION_STEPS
    for subcommand in ("eval", "voxelize"):
        assert _option(subcommand, "d_min").default == toytrain.TrainConfig.d_min
        assert _option(subcommand, "d_max").default == toytrain.TrainConfig.d_max
    assert _option("voxelize", "bins").default == toytrain.TrainConfig.m
    assert _option("voxelize", "resolution").default == str(frustum.DEFAULT_RESOLUTION)
    # each training and scene flag defaults to the TrainConfig field it fills
    fields = {f.name for f in dataclasses.fields(toytrain.TrainConfig)}
    fields -= {"seed", "include_soft"}  # --seed/--seeds and the auto --soft
    given = {"train-toy": ["--seed", "0", "--out-dir", "x"], "ablate": ["--seeds", "0", "--out", "x"],
             "demo-ause": ["--transform", "square"]}
    for subcommand, argv in given.items():
        # ablate has no --ranking: it sets the loss terms per row
        for name in fields - ({"ranking"} if subcommand == "ablate" else set()):
            flag = "bins" if name == "m" else name
            assert _option(subcommand, flag).default == getattr(toytrain.TrainConfig, name), (subcommand, flag)
        # and with every flag at its default, the config is TrainConfig's own
        args = cli.build_parser().parse_args([subcommand, *argv])
        assert cli._train_config(args, 0) == toytrain.TrainConfig()


def test_every_training_and_scene_flag_fills_its_field():
    given = {
        "epochs": 3, "lr": 0.5, "lr_decay": 0.5, "decay_every": 3, "head": "regression",
        "ranking": "no-max", "bins": 9, "d_min": 2.0, "d_max": 8.0, "gamma": 4.0, "hidden": 5,
        "height": 7, "width": 6, "features": 3, "train_scenes": 2, "eval_scenes": 1,
        "eta_lo": 0.1, "eta_hi": 0.3,
    }
    argv = ["train-toy", "--seed", "4", "--out-dir", "x", "--soft", "off"]
    for dest, value in given.items():
        argv += [f"--{dest.replace('_', '-')}", str(value)]
    config = cli._train_config(cli.build_parser().parse_args(argv), 4)
    fields = {("m" if dest == "bins" else dest): value for dest, value in given.items()}
    assert config == toytrain.TrainConfig(seed=4, include_soft=False, **fields)


def _help_texts(parser, name):
    sub = next(a for a in parser._actions if a.dest == "subcommand")
    return parser.format_help(), sub.choices[name].format_help()


@pytest.mark.parametrize("name", cli.SUBCOMMANDS)
def test_one_subcommand_parser_keeps_every_help_byte(name):
    # the parser main builds for one subcommand gives the same top-level
    # and subcommand help as the full tree, and no other subcommand's flags
    one = cli.build_parser(name)
    assert _help_texts(one, name) == _help_texts(cli.build_parser(), name)
    sub = next(a for a in one._actions if a.dest == "subcommand")
    assert [len(sub.choices[other]._actions) for other in cli.SUBCOMMANDS if other != name] == [1] * 9


def test_main_builds_the_flags_of_the_invoked_subcommand(monkeypatch, tmp_path):
    built = []
    original = cli.build_parser

    def spy(only=None):
        built.append(only)
        return original(only)

    monkeypatch.setattr(cli, "build_parser", spy)
    assert cli.main(["scc", "--err", str(tmp_path / "missing.duv"), "--unc", "x.duv"]) == 1
    with pytest.raises(SystemExit):
        cli.main(["--help"])
    assert cli.main(["--seed", "0"]) == 1
    assert built == ["scc", None, None]


def test_readme_command_lines_parse():
    # every example in the README's command-line block is a valid argv,
    # and the block shows each subcommand
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = text.split("\n## Command line\n", 1)[1].split("```\n", 2)[1]
    lines = [shlex.split(line)[1:] for line in block.splitlines() if line.startswith("depthuq ")]
    for argv in lines:
        args = cli.build_parser().parse_args(cli._inject_config(argv))
        assert args.subcommand == argv[0]
    assert sorted({argv[0] for argv in lines}) == sorted(cli.SUBCOMMANDS)


def _dynamic_openblas_on_avx2():
    # OPENBLAS_CORETYPE picks a kernel only in an OpenBLAS built with
    # DYNAMIC_ARCH, and the Haswell kernel needs AVX2
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    try:
        flags = Path("/proc/cpuinfo").read_text().split()
    except OSError:
        flags = []
    return "DYNAMIC_ARCH" in blas.get("openblas configuration", "") and "avx2" in flags


@pytest.mark.skipif(
    not _dynamic_openblas_on_avx2(),
    reason="needs NumPy on a DYNAMIC_ARCH OpenBLAS and a CPU with AVX2 to force two kernels",
)
@pytest.mark.xfail(
    strict=True, raises=AssertionError,
    reason="ROADMAP item 12: the training matmuls round by the BLAS kernel",
)
def test_train_toy_files_do_not_depend_on_the_blas_kernel(tmp_path):
    # the smallest train-toy run found whose files differ between two
    # OpenBLAS kernels; OPENBLAS_CORETYPE acts on the process it starts,
    # so each run is a child process
    src = str(Path(cli.__file__).resolve().parents[1])
    files = {}
    for kernel in ("Prescott", "Haswell"):
        env = dict(os.environ, OPENBLAS_CORETYPE=kernel,
                   PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        out = tmp_path / kernel
        subprocess.run([
            sys.executable, "-m", "depthuq", "train-toy", "--seed", "0", "--epochs", "1",
            "--train-scenes", "1", "--eval-scenes", "1", "--height", "4", "--width", "4",
            "--features", "1", "--hidden", "2", "--bins", "2", "--out-dir", str(out),
        ], env=env, check=True, capture_output=True)
        files[kernel] = {p.relative_to(out): p.read_bytes() for p in out.rglob("*") if p.is_file()}
    if len(files["Prescott"]) != 7 or files["Prescott"].keys() != files["Haswell"].keys():
        pytest.fail(f"train-toy wrote {sorted(files['Prescott'])} and {sorted(files['Haswell'])}")
    assert files["Prescott"] == files["Haswell"]
