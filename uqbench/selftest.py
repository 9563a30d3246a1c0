"""The benchmark's own tests: tiny runs, and corrupted outputs every check must reject.

    python3 -m pytest -q uqbench/selftest.py

Not collected by the repository's default ``pytest`` run (the file name
does not match ``test_*.py``); it takes about a minute.
"""

from __future__ import annotations

import csv
import json
import shutil
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads as W  # noqa: E402
from depthuq import cli  # noqa: E402

BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())


# ------------------------------------------------------------ tiny runs


@pytest.mark.parametrize("workload", W.WORKLOADS)
def test_tiny_run_passes_its_checks(workload):
    out = run.run(workload, seed=3, seconds=0.01, trace=False, size="tiny", setup_samples=1)
    assert out["correct"] and out["failed"] == 0
    assert out["attempted"] >= 3
    assert set(out["metrics"]) == {m["name"] for m in BENCHMARK["end_to_end"]}
    assert all(m["value"] > 0 for m in out["metrics"].values())


def test_tiny_traced_run_reports_every_layer_metric():
    out = run.run("voxel-render", seed=1, seconds=0.01, trace=True, size="tiny", setup_samples=1)
    assert out["correct"]
    assert set(out["metrics"]) == {m["name"] for m in BENCHMARK["per_layer"]}
    got = {k: v["value"] for k, v in out["metrics"].items()}
    for key in ("frustum.splat_s", "frustum.trilerp_s", "frustum.voxels", "gridio.bytes_read",
                "gridio.write_ppm_s", "cli.main_s"):
        assert got[key] > 0, key
    assert 0 < got["frustum.contributing_sample_share"] <= 1
    assert got["trace.wrapped_calls"] > 0 and got["trace.call_overhead_s"] > 0
    assert got["toytrain.steps"] == 0 and got["metrics.pixels"] == 0
    trace = json.loads((run.ROOT / "results" / "uqbench" / "trace-voxel-render-seed1.json").read_text())
    assert trace["spans"] and trace["fields"][:4] == ["name", "start", "end", "parent"]


def test_tracer_self_time_excludes_children():
    import depthuq.metrics as metrics

    tracer = tracing.Tracer()
    tracer.install()
    try:
        g = np.linspace(1.0, 9.0, 400).reshape(20, 20)
        metrics.evaluate_uncertainty(g * 1.1, g, g)
    finally:
        tracer.uninstall()
    spans = {s[0]: s for s in tracer.spans}
    outer = spans["metrics.evaluate_uncertainty"]
    inner = [s for s in tracer.spans if s[3] == tracer.spans.index(outer)]
    assert {s[0] for s in inner} == {"metrics.spearman", "metrics.auroc_fpr95"}
    covered = sum(s[2] - s[1] for s in inner)
    assert tracer.self_s["metrics.evaluate_uncertainty"] == pytest.approx(outer[2] - outer[1] - covered)
    assert tracer.counts["metrics.pixels"] == 400
    assert metrics.evaluate_uncertainty.__name__ == "evaluate_uncertainty"
    assert not hasattr(metrics.evaluate_uncertainty, "__wrapped__")


def test_worker_past_its_timeout_is_killed(monkeypatch):
    # the worker's own budget is far longer than the timeout
    monkeypatch.setattr(run, "WORKER_TIMEOUT_S", 1.0)
    with pytest.raises(run.BenchError, match="ran past"):
        run.run("eval-vga", seed=0, seconds=60, trace=False, size="tiny", setup_samples=1)


def test_failing_operations_are_counted_not_fatal(monkeypatch):
    def build_failing(seed, workdir, size):
        wl = W.build_eval(seed, workdir, size)
        wl.op = [["eval", "--pred", str(workdir / "missing.duv"), *wl.op[0][3:]]]
        return wl

    monkeypatch.setitem(W.BUILDERS, "eval-vga", build_failing)
    out = run.run("eval-vga", seed=0, seconds=0.5, trace=False, size="tiny", setup_samples=1)
    assert out["attempted"] >= 3
    assert out["failed"] == out["attempted"] and not out["correct"]


def test_missing_program_source_fails_without_result(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(run, "ROOT", tmp_path)
    assert run.main(["--workload", "eval-vga", "--seed", "0", "--seconds", "1"]) != 0
    assert capsys.readouterr().out == ""


def test_host_speed_scaling_uses_the_references_around_each_call():
    ref = run.hostspeed.REF_S
    # op 0: one call at reference speed; op 1: a call at reference speed,
    # then one while the host slowed to half speed
    calls = [[2.0], [1.0, 4.0]]
    refs = [[ref, ref], [ref, ref, 2.0 * ref]]
    assert run.host_speed_seconds(calls, refs) == pytest.approx([2.0, 1.0 + 4.0 / 1.5])


# --------------------------------------------------- reference helpers


def test_fpr95_sweep_matches_threshold_scan():
    rng = np.random.default_rng(0)
    for _ in range(50):
        n = int(rng.integers(2, 60))
        s = rng.integers(0, 6, n).astype(float)  # heavy ties
        y = rng.uniform(size=n) < 0.4
        if y.all() or not y.any():
            continue
        want = None
        for t in np.unique(s)[::-1]:
            if np.mean(s[y] >= t) >= 0.95:
                want = np.mean(s[~y] >= t)
                break
        assert W.fpr95_sweep(s, y) == want


# ------------------------------------------------- corrupted outputs


def _op(wl, tmp_path) -> Path:
    op_dir = tmp_path / "op000"
    op_dir.mkdir()
    for argv in wl.op:
        assert cli.main([a.replace("{op}", str(op_dir)) for a in argv]) == 0
    return op_dir


def _edit_csv(path, edit):
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    fields = list(rows[0])
    rows = edit(rows)
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fields, lineterminator="\n")
        writer.writeheader()
        writer.writerows(rows)


@pytest.fixture(scope="module")
def eval_case(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("eval")
    wl = W.build_eval(5, tmp, "tiny")
    return wl, _op(wl, tmp)


def _set(key, value):
    def edit(rows):
        rows[0][key] = value
        return rows

    return edit


def _shift(key, by):
    def edit(rows):
        rows[0][key] = repr(float(rows[0][key]) + by)
        return rows

    return edit


EVAL_CORRUPTIONS = {
    "auroc off by 1e-3": _shift("auroc", 1e-3),
    "rmse off by 1e-6": _shift("rmse", 1e-6),
    "rel off by 1e-6": _shift("rel", 1e-6),
    "delta1 off by one pixel": _shift("delta1", 1.0 / 3072),
    "scc off by 1e-4": _shift("scc", 1e-4),
    "fpr95 off by one pixel": _shift("fpr95", 1e-3),
    "nll off by 1e-5": _shift("nll", 1e-5),
    "auroc missing": _set("auroc", ""),
    "ause_rmse negative": _set("ause_rmse", "-0.001"),
    "ause_rel negative": _set("ause_rel", "-0.001"),
    "ause_delta1 negative": _set("ause_delta1", "-0.001"),
}


def test_eval_output_passes(eval_case):
    wl, op_dir = eval_case
    assert W.check_eval(op_dir, wl.ref) == []


@pytest.mark.parametrize("name", EVAL_CORRUPTIONS)
def test_eval_check_rejects(eval_case, tmp_path, name):
    wl, op_dir = eval_case
    bad = tmp_path / "op"
    shutil.copytree(op_dir, bad)
    _edit_csv(bad / "metrics.csv", EVAL_CORRUPTIONS[name])
    assert W.check_eval(bad, wl.ref)


@pytest.fixture(scope="module")
def ablate_case(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("ablate")
    wl = W.build_ablate(0, tmp, "tiny")
    return wl, _op(wl, tmp)


def _on(config, key, value):
    def edit(rows):
        for r in rows:
            if r["config"] == config:
                r[key] = value
        return rows

    return edit


ABLATE_CORRUPTIONS = {
    "row dropped": lambda rows: rows[:-1],
    "rows swapped": lambda rows: [rows[1], rows[0], *rows[2:]],
    "scc above 1": _on("depth_rank", "scc", "1.5"),
    "noise_scc not finite": _on("full", "noise_scc", "nan"),
    "noise_scc missing": _on("full", "noise_scc", ""),
    "full_nomax accuracy differs": _on("full_nomax", "rmse", "0.123"),
    "full_nomax scc differs": _on("full_nomax", "scc", "0.1"),
    "full not above depth_soft": _on("full", "scc", "-0.9"),
}


def test_ablate_output_passes(ablate_case):
    wl, op_dir = ablate_case
    assert W.check_ablate(op_dir, wl.ref) == []


@pytest.mark.parametrize("name", ABLATE_CORRUPTIONS)
def test_ablate_check_rejects(ablate_case, tmp_path, name):
    wl, op_dir = ablate_case
    bad = tmp_path / "op"
    shutil.copytree(op_dir, bad)
    _edit_csv(bad / "ablation.csv", ABLATE_CORRUPTIONS[name])
    assert W.check_ablate(bad, wl.ref)


@pytest.fixture(scope="module")
def voxel_case(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("voxel")
    wl = W.build_voxel(2, tmp, "tiny")
    op_dir = _op(wl, tmp)
    return wl, op_dir, W.render_reference(op_dir / "grid", wl.ref)


def _rewrite_grid(op_dir, edit):
    base = op_dir / "grid"
    meta, idx, val = W.read_voxel_grid(base)
    meta, idx, val = edit(meta, idx.astype(float), val.copy())
    W.write_duv(f"{base}.idx.duv", idx)
    W.write_duv(f"{base}.val.duv", val)
    Path(f"{base}.meta.txt").write_text("".join(f"{k}={v}\n" for k, v in meta.items()))


def _drop_voxel(meta, idx, val):
    meta["voxels"] = str(idx.shape[0] - 1)
    return meta, idx[1:], val[1:]


def _nudge_alpha(meta, idx, val):
    val[len(val) // 2, 0] *= 0.99
    return meta, idx, val


def _move_voxel(meta, idx, val):
    idx[0, 2] = (idx[0, 2] + 5) % int(meta["resolution"].split(",")[2])
    return meta, idx, val


def _mass(meta, idx, val):
    meta["deposited_mass"] = repr(float(meta["deposited_mass"]) * (1 + 1e-6))
    return meta, idx, val


def _bounds(meta, idx, val):
    lo = [float(v) for v in meta["lo"].split(",")]
    meta["lo"] = ",".join(repr(v - 1e-3) for v in lo)
    return meta, idx, val


GRID_CORRUPTIONS = {
    "one voxel dropped": _drop_voxel,
    "one alpha off by 1%": _nudge_alpha,
    "one voxel moved": _move_voxel,
    "mass off by 1e-6": _mass,
    "bounds shifted": _bounds,
}


def test_voxel_outputs_pass(voxel_case):
    wl, op_dir, rays = voxel_case
    assert W.check_grid(op_dir / "grid", wl.ref) == []
    assert W.check_render(op_dir, wl.ref, rays) == []


@pytest.mark.parametrize("name", GRID_CORRUPTIONS)
def test_grid_check_rejects(voxel_case, tmp_path, name):
    wl, op_dir, _ = voxel_case
    bad = tmp_path / "op"
    shutil.copytree(op_dir, bad)
    _rewrite_grid(bad, GRID_CORRUPTIONS[name])
    assert W.check_grid(bad / "grid", wl.ref)


def _flip_byte(which):
    def pick(rays, az):
        miss, picks, _ = rays[az]
        return int(np.nonzero(miss)[0][0]) if which == "missed" else int(picks[0])

    return pick


@pytest.mark.parametrize("which", ["missed", "re-marched"])
def test_render_check_rejects_flipped_ppm_byte(voxel_case, tmp_path, which):
    wl, op_dir, rays = voxel_case
    bad = tmp_path / "op"
    shutil.copytree(op_dir, bad)
    az = wl.ref["azimuths"][-1]
    path = bad / f"view_{int(az):03d}.ppm"
    blob = bytearray(path.read_bytes())
    header = len(blob) - wl.ref["image"] ** 2 * 3
    pixel = _flip_byte(which)(rays, az)
    blob[header + 3 * pixel + 1] ^= 0x80  # the high bit: half the range
    path.write_bytes(bytes(blob))
    assert W.check_render(bad, wl.ref, rays)


def test_truncated_ppm_fails_the_operation(voxel_case, tmp_path):
    wl, op_dir, rays = voxel_case
    bad = tmp_path / "op"
    shutil.copytree(op_dir, bad)
    path = bad / f"view_{int(wl.ref['azimuths'][0]):03d}.ppm"
    path.write_bytes(path.read_bytes()[:-3])
    with pytest.raises(ValueError):
        W.check_render(bad, wl.ref, rays)
    assert run.check_op(wl, bad)


def test_missing_output_fails_the_operation(eval_case, tmp_path):
    wl, _ = eval_case
    empty = tmp_path / "op"
    empty.mkdir()
    assert run.check_op(wl, empty) == [f"op: FileNotFoundError: [Errno 2] No such file or directory: '{empty / 'metrics.csv'}'"]
