import numpy as np
import pytest

from depthuq import cli, frustum, toytrain
from depthuq.gridio import read_grid, write_grid
from depthuq.losses import RANKING_VARIANTS
from depthuq.metrics import BASE_METRICS, SPARSIFICATION_STEPS
from depthuq.toytrain import load_model


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
    err = np.abs(read_grid(data_dir / "pred.duv").values - read_grid(data_dir / "gt.duv").values)
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
    write_grid(tmp_path / "pred.duv", read_grid(data_dir / "pred.duv").values[:1])
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
    pred = read_grid(data_dir / "pred.duv").values.copy()
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
    write_grid(tmp_path / "half.duv", read_grid(data_dir / "vol.duv").values[:4])
    assert cli.main(_eval_argv(data_dir, tmp_path / "half.duv", tmp_path / "e.csv")) == 1
    assert "error: volume pixels (4, 10) vs gt (8, 10)" in capsys.readouterr().err
    assert not (tmp_path / "e.csv").exists()


def test_eval_rejects_negative_volume_entry(data_dir, tmp_path, capsys):
    vol = read_grid(data_dir / "vol.duv").values.copy()
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


def test_config_file_preloads_and_flags_win(data_dir, tmp_path):
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


def test_train_toy_writes_artifacts(tmp_path):
    out_dir = tmp_path / "run"
    rc = cli.main([
        "train-toy", "--seed", "0", "--epochs", "1", "--train-scenes", "2",
        "--eval-scenes", "1", "--height", "8", "--width", "8", "--out-dir", str(out_dir),
    ])
    assert rc == 0
    model = load_model(out_dir / "model")
    assert model.head == "classification"
    log_lines = (out_dir / "train_log.csv").read_text().splitlines()
    assert log_lines[0].startswith("epoch,lr,total")
    assert len(log_lines) == 2
    assert (out_dir / "eval.csv").read_text().count("\n") == 2


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
    assert "train_s" not in lines[0]
    assert lines[1].startswith("depth_only,0,")


def test_combine_and_entropy(data_dir, tmp_path):
    out = tmp_path / "mean.duv"
    ent = tmp_path / "ent.duv"
    rc = cli.main([
        "combine", "--vols", str(data_dir / "vol.duv"), str(data_dir / "vol2.duv"),
        "--out", str(out), "--entropy-out", str(ent),
    ])
    assert rc == 0
    a = read_grid(data_dir / "vol.duv").values
    b = read_grid(data_dir / "vol2.duv").values
    got = read_grid(out).values
    np.testing.assert_allclose(got, ((a + b) / 2.0).astype(np.float32), atol=1e-7)
    assert read_grid(ent).values.shape == (8, 10)


def test_combine_rejects_before_writing_either_file(data_dir, tmp_path, capsys):
    # every input is checked, with or without --entropy-out
    vol = read_grid(data_dir / "vol.duv").values.copy()
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
    write_grid(val, read_grid(val).values[1:])


@pytest.mark.parametrize(
    "corrupt, message",
    [(lambda b: _drop_meta_key(b, "lo"), "missing key(s) lo"),
     (lambda b: _add_meta_line(b, "lo 0,0,0"), "expected key=value"),
     (_drop_value_row, "index rows"),
     (lambda b: _add_meta_line(b, "lo=a,0,0"), "g.meta.txt: key 'lo' wants 3 comma-separated float value(s), got 'a,0,0'"),
     (lambda b: _add_meta_line(b, "lo=1,2"), "g.meta.txt: key 'lo' wants 3 comma-separated float value(s), got '1,2'")],
    ids=["missing-lo", "no-equals", "row-mismatch", "bad-lo-cell", "short-lo"],
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


def test_ablate_rejects_threads_below_one(tmp_path, capsys):
    out = tmp_path / "rows.csv"
    rc = cli.main([
        "ablate", "--seeds", "0", "--epochs", "1", "--train-scenes", "2", "--eval-scenes", "1",
        "--height", "8", "--width", "8", "--threads", "0", "--out", str(out),
    ])
    assert rc == 1
    assert capsys.readouterr().err.startswith("error: threads must be >= 1, got 0")
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


def _option(subcommand, dest):
    sub = next(a for a in cli.build_parser()._actions if a.dest == "subcommand")
    return next(a for a in sub.choices[subcommand]._actions if a.dest == dest)


def test_defaults_and_choices_come_from_the_library():
    assert tuple(_option("train-toy", "ranking").choices) == RANKING_VARIANTS + ("none",)
    assert tuple(_option("sparsify", "metric").choices) == BASE_METRICS
    assert _option("sparsify", "steps").default == SPARSIFICATION_STEPS
    assert _option("demo-ause", "steps").default == SPARSIFICATION_STEPS
    for subcommand in ("eval", "voxelize"):
        assert _option(subcommand, "d_min").default == toytrain.DEFAULT_D_MIN
        assert _option(subcommand, "d_max").default == toytrain.DEFAULT_D_MAX
    assert _option("voxelize", "bins").default == toytrain.DEFAULT_BINS
    assert _option("voxelize", "resolution").default == str(frustum.DEFAULT_RESOLUTION)
