"""Command-line entry point: one executable, ten subcommands.

Every run prints the resolved configuration before doing anything, so
logs are self-describing.  A plain key=value file can preload flags via
--config; explicit flags win because they are parsed later.  Exit codes:
0 success, 1 user error (bad flags, unreadable or malformed inputs),
2 internal failure with a traceback.

Outputs are deterministic: same argv and seed, byte-identical files.
Wall-clock timings therefore never go into output files, only to the
console.
"""

from __future__ import annotations

import argparse
import sys
import traceback
from dataclasses import fields
from pathlib import Path

import numpy as np

from . import frustum, toytrain
from .discretize import check_probabilities, linear_hypotheses
from .gradcheck import run_gradient_suite, suite_passed
from .gridio import read_grid, read_keyvalue, write_csv, write_grid, write_ppm
from .losses import RANKING_VARIANTS
from .metrics import (
    BASE_METRICS,
    BUILTIN_TRANSFORMS,
    SPARSIFICATION_STEPS,
    accuracy_metrics,
    ause_aurg,
    ause_flaw_demo,
    check_affine,
    check_steps,
    evaluate_uncertainty,
    sparsification,
    spearman,
    valid_pixels,
)
from .uncertainty import combine_mean, raw_entropy

class CLIError(Exception):
    """A user-facing problem: report and exit 1, no traceback."""


class _Parser(argparse.ArgumentParser):
    # argparse wants to exit(2) on bad flags; route through our own
    # error handling so user errors are uniformly exit code 1
    def error(self, message):
        raise CLIError(message)


# ---------------------------------------------------------------- helpers


def _load_config_tokens(path) -> list[str]:
    """Turn a key=value file into argv tokens (one --key value pair each)."""
    try:
        pairs = read_keyvalue(path)
    except OSError as exc:
        raise CLIError(f"cannot read config file {path}: {exc}") from exc
    if "config" in pairs:  # its token would never be read
        raise CLIError(f"config file {path}: a config file cannot name another (config=)")
    return [tok for key, value in pairs.items() for tok in (f"--{key.replace('_', '-')}", value)]


def _inject_config(argv: list[str]) -> list[str]:
    """Splice config-file tokens in right after the subcommand.

    User flags stay behind them, so for single-value options argparse's
    last-one-wins rule makes explicit flags override the file.  One
    ``--config=`` token between the two names the files read
    (comma-joined) for the resolved-config banner.
    """
    head, rest, cfg, paths = argv[:1], [], [], []
    i = 1
    while i < len(argv):
        tok = argv[i]
        if tok == "--config":
            if i + 1 >= len(argv):
                raise CLIError("--config needs a file path")
            paths.append(argv[i + 1])
            cfg.extend(_load_config_tokens(argv[i + 1]))
            i += 2
        elif tok.startswith("--config="):
            paths.append(tok.split("=", 1)[1])
            cfg.extend(_load_config_tokens(paths[-1]))
            i += 1
        else:
            rest.append(tok)
            i += 1
    named = [f"--config={','.join(paths)}"] if paths else []
    return head + cfg + named + rest


def _print_config(args) -> None:
    pairs = [
        f"{k}={v}"
        for k, v in sorted(vars(args).items())
        if k != "func" and not k.startswith("_")
    ]
    print("resolved config:", " ".join(pairs))


def _load_rank(path, rank: int, what: str) -> np.ndarray:
    grid = read_grid(path)
    if grid.ndim != rank:
        raise CLIError(f"{what} {path}: want a rank-{rank} grid, got rank {grid.ndim}")
    return grid


def _parse_triple(text: str, what: str) -> np.ndarray:
    parts = [p.strip() for p in text.split(",")]
    if len(parts) != 3:
        raise CLIError(f"{what} wants three comma-separated numbers, got {text!r}")
    try:
        return np.array([float(p) for p in parts], dtype=np.float64)
    except ValueError as exc:
        raise CLIError(f"bad {what} {text!r}: {exc}") from exc


def _parse_resolution(text: str):
    parts = [p.strip() for p in text.split(",")]
    try:
        vals = [int(p) for p in parts]
    except ValueError as exc:
        raise CLIError(f"bad resolution {text!r}: {exc}") from exc
    if len(vals) == 1:
        return vals[0]
    if len(vals) == 3:
        return tuple(vals)
    raise CLIError(f"resolution wants one or three integers, got {text!r}")


def _parse_seeds(text: str) -> list[int]:
    try:
        seeds = [int(p) for p in text.split(",") if p.strip() != ""]
    except ValueError as exc:
        raise CLIError(f"bad seed list {text!r}: {exc}") from exc
    if not seeds:
        raise CLIError("seed list is empty")
    if len(set(seeds)) != len(seeds):
        raise CLIError(f"repeated seed in {text!r}")
    return seeds


def _train_config(args, seed: int) -> toytrain.TrainConfig:
    spelled = dict(seed=seed, m=args.bins)
    if "ranking" in vars(args):  # ablate has no loss-term flags
        soft = args.soft
        if soft is None:  # auto: the soft-label term only exists for classification
            soft = "on" if args.head == "classification" else "off"
        spelled.update(include_soft=(soft == "on"), ranking=None if args.ranking == "none" else args.ranking)
    # every other field but the loss terms has a flag of its own name
    named = (f.name for f in fields(toytrain.TrainConfig) if f.name not in {*spelled, "include_soft", "ranking"})
    return toytrain.TrainConfig(**{name: getattr(args, name) for name in named}, **spelled)


def _add_depth_range_flags(p) -> None:
    p.add_argument("--d-min", type=float, default=toytrain.TrainConfig.d_min, help="nearest hypothesis depth (default %(default)s)")
    p.add_argument("--d-max", type=float, default=toytrain.TrainConfig.d_max, help="farthest hypothesis depth (default %(default)s)")


def _add_camera_flags(p) -> None:
    p.add_argument("--focal", type=float, default=None, help="focal length in pixels (default: max extent)")
    p.add_argument("--cx", type=float, default=None, help="principal point x (default: centered)")
    p.add_argument("--cy", type=float, default=None, help="principal point y (default: centered)")


def _add_train_flags(p, loss_terms: bool = True) -> None:
    """The training and scene flags, one per ``TrainConfig`` field."""
    defaults = toytrain.TrainConfig
    p.add_argument("--epochs", type=int, default=defaults.epochs, help="training epochs (default %(default)s)")
    p.add_argument("--lr", type=float, default=defaults.lr, help="step size (default %(default)s)")
    p.add_argument("--lr-decay", type=float, default=defaults.lr_decay, help="decay factor (default %(default)s)")
    p.add_argument("--decay-every", type=int, default=defaults.decay_every, help="epochs between decays (default %(default)s)")
    p.add_argument("--head", choices=toytrain.HEAD_KINDS, default=defaults.head, help="model head (default %(default)s)")
    if loss_terms:  # ablate has none: it sets both loss terms per row
        p.add_argument("--soft", choices=("on", "off"), default=None, help="soft-label term (default: on for the classification head)")
        p.add_argument("--ranking", choices=RANKING_VARIANTS + ("none",), default=defaults.ranking, help="uncertainty ranking term (default %(default)s)")
    p.add_argument("--bins", type=int, default=defaults.m, help="depth hypotheses (default %(default)s)")
    _add_depth_range_flags(p)
    p.add_argument("--gamma", type=float, default=defaults.gamma, help="soft-label sharpness (default %(default)s)")
    p.add_argument("--hidden", type=int, default=defaults.hidden, help="hidden width (default %(default)s)")
    p.add_argument("--height", type=int, default=defaults.height, help="scene height (default %(default)s)")
    p.add_argument("--width", type=int, default=defaults.width, help="scene width (default %(default)s)")
    p.add_argument("--features", type=int, default=defaults.features, help="per-pixel feature count (default %(default)s)")
    p.add_argument("--train-scenes", type=int, default=defaults.train_scenes, help="training scenes (default %(default)s)")
    p.add_argument("--eval-scenes", type=int, default=defaults.eval_scenes, help="held-out scenes (default %(default)s)")
    p.add_argument("--eta-lo", type=float, default=defaults.eta_lo, help="noise std at the left edge (default %(default)s)")
    p.add_argument("--eta-hi", type=float, default=defaults.eta_hi, help="noise std at the right edge (default %(default)s)")


# ------------------------------------------------------------ subcommands


def cmd_eval(args) -> int:
    pred = _load_rank(args.pred, 2, "prediction")
    gt = _load_rank(args.gt, 2, "ground truth")
    unc = _load_rank(args.unc, 2, "uncertainty")
    vol = hyp = None
    if args.vol is not None:
        vol = _load_rank(args.vol, 3, "probability volume")
        hyp = linear_hypotheses(args.d_min, args.d_max, vol.shape[2])
    acc = accuracy_metrics(pred, gt)
    unc_report = evaluate_uncertainty(pred, gt, unc, vol=vol, hyp=hyp)
    row = dict(acc.row())
    row.update(unc_report.row())
    write_csv(args.out, row, [row])
    print(f"wrote {args.out}")
    print(
        f"rmse={acc.rmse:.6f} rel={acc.rel:.6f} scc={unc_report.scc} "
        f"ause_rmse={unc_report.ause_rmse}"
    )
    return 0


def cmd_sparsify(args) -> int:
    pred = _load_rank(args.pred, 2, "prediction")
    gt = _load_rank(args.gt, 2, "ground truth")
    unc = _load_rank(args.unc, 2, "uncertainty")
    curve = sparsification(args.metric, pred, gt, unc, steps=args.steps)
    write_csv(
        args.out,
        ("fraction", "spars", "oracle", "random"),
        np.column_stack([curve.fractions, curve.spars, curve.oracle, curve.random_level]),
    )
    ause, aurg = ause_aurg(curve)
    print(f"wrote {args.out}")
    print(f"metric={args.metric} ause={ause:.6f} aurg={aurg:.6f}")
    return 0


def cmd_scc(args) -> int:
    if args.err is not None and (args.pred is not None or args.gt is not None):
        raise CLIError("give either --err or --pred/--gt, not both")
    if args.err is not None:
        err = _load_rank(args.err, 2, "error map")
        unc = _load_rank(args.unc, 2, "uncertainty")
        if err.shape != unc.shape:
            raise CLIError(f"shape mismatch {err.shape} vs {unc.shape}")
        keep = np.isfinite(err)
        e, u = err[keep], unc[keep]
    elif args.pred is not None and args.gt is not None:
        pred = _load_rank(args.pred, 2, "prediction")
        gt = _load_rank(args.gt, 2, "ground truth")
        unc = _load_rank(args.unc, 2, "uncertainty")
        p, g, u = valid_pixels(pred, gt, unc)
        e = np.abs(p - g)
    else:
        raise CLIError("need --err, or both --pred and --gt")
    rho = spearman(e, u)
    if rho is None:
        print("scc=undefined (all ranks tied)")
    else:
        print(f"scc={rho!r}")
    if args.out is not None:
        write_csv(args.out, ("scc", "n"), [(rho, int(e.size))])
        print(f"wrote {args.out}")
    return 0


def _train_toy_model(args):
    """Build the seeded scenes, train one model; return it, its logs, the eval scenes."""
    config = _train_config(args, args.seed)
    train_scenes, eval_scenes = toytrain.make_dataset(config)
    [(model, logs)] = toytrain.train([(toytrain.init_model(config), config)], train_scenes)
    return model, logs, eval_scenes


def cmd_train_toy(args) -> int:
    model, logs, eval_scenes = _train_toy_model(args)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    toytrain.save_model(model, out_dir / "model")
    write_csv(out_dir / "train_log.csv", logs[0], logs)
    row = toytrain.evaluate_model(model, eval_scenes)
    write_csv(out_dir / "eval.csv", row, [row])
    print(f"wrote {out_dir}/model, train_log.csv, eval.csv")
    print(
        f"final total={logs[-1]['total']:.6f} scc={row['scc']} "
        f"noise_scc={row['noise_scc']}"
    )
    return 0


def cmd_ablate(args) -> int:
    seeds = _parse_seeds(args.seeds)
    rows = toytrain.ablate(seeds, base=_train_config(args, seeds[0]))
    # timings vary run to run; keep them off disk so reruns match bytewise
    write_csv(args.out, [k for k in rows[0] if k != "train_s"], rows)
    medians = toytrain.ablation_medians(rows)
    print(f"wrote {args.out}")
    for name, value in medians.items():
        shown = "undefined" if value is None else f"{value:.4f}"
        print(f"median scc {name:14s} {shown}")
    return 0


def cmd_demo_ause(args) -> int:
    check_steps(args.steps)  # before the training run, not after it
    if args.transform == "affine":
        check_affine(args.scale, args.offset)
    model, _, eval_scenes = _train_toy_model(args)
    err, unc = toytrain.pooled_errors(model, eval_scenes)
    comp = ause_flaw_demo(err, unc, args.transform, scale=args.scale, offset=args.offset, steps=args.steps)
    print(f"SCC_A={comp.scc_a!r}")
    print(f"SCC_B={comp.scc_b!r}")
    print(f"AUSE_A={comp.ause_a!r}")
    print(f"AUSE_B={comp.ause_b!r}")
    print(comp.verdict())
    if args.out is not None:
        write_csv(
            args.out,
            ("transform", "scc_a", "scc_b", "ause_a", "ause_b"),
            [(comp.transform, comp.scc_a, comp.scc_b, comp.ause_a, comp.ause_b)],
        )
        print(f"wrote {args.out}")
    return 0


def cmd_combine(args) -> int:
    """Average probability volumes, each checked finite and >= 0 before any write.

    As for ``eval --vol`` and ``voxelize``, rows need not sum to 1.
    """
    vols = [_load_rank(p, 3, "probability volume") for p in args.vols]
    for vol in vols:
        check_probabilities(vol)
    mean = combine_mean(vols)
    write_grid(args.out, mean)
    print(f"wrote {args.out} (mean of {len(vols)} volumes, shape {mean.shape})")
    if args.entropy_out is not None:
        write_grid(args.entropy_out, raw_entropy(mean))
        print(f"wrote {args.entropy_out} (unscaled entropy)")
    return 0


def _camera_for(args, h: int, w: int) -> frustum.Pinhole:
    focal = args.focal if args.focal is not None else float(max(h, w))
    if args.cx is None and args.cy is None:
        return frustum.centered_pinhole(h, w, focal)
    cx = args.cx if args.cx is not None else (w - 1) / 2.0
    cy = args.cy if args.cy is not None else (h - 1) / 2.0
    return frustum.Pinhole(f=focal, cx=cx, cy=cy, h=h, w=w)


def cmd_voxelize(args) -> int:
    resolution = _parse_resolution(args.resolution)
    if args.mode == "prediction":
        if args.vol is None:
            raise CLIError("prediction mode needs --vol")
        vol = _load_rank(args.vol, 3, "probability volume")
        h, w, m = vol.shape
    else:
        if args.gt is None:
            raise CLIError("gt mode needs --gt")
        gt = _load_rank(args.gt, 2, "depth map")
        (h, w), m = gt.shape, args.bins
    cam = _camera_for(args, h, w)
    hyp = linear_hypotheses(args.d_min, args.d_max, m)
    rgb = _load_rank(args.rgb, 3, "color image") if args.rgb else np.full((h, w, 3), 0.5)
    if args.mode == "prediction":
        grid = frustum.voxelize_prediction(vol, hyp, cam, rgb, resolution=resolution)
        skipped = 0
    else:
        grid, skipped = frustum.voxelize_ground_truth(gt, hyp, cam, rgb, resolution=resolution)
    base = frustum.save_voxel_grid(grid, args.out)
    print(f"wrote {base}.idx.duv/.val.duv/.meta.txt")
    print(
        f"voxels={grid.indices.shape[0]} mass={grid.deposited_mass:.6f} "
        f"skipped={skipped} bounds={grid.lo.tolist()}..{grid.hi.tolist()}"
    )
    return 0


def cmd_render(args) -> int:
    grid = frustum.load_voxel_grid(args.grid)
    cam = _camera_for(args, args.height, args.width)
    bg = _parse_triple(args.bg, "background")
    if args.pose == "identity":
        pose = frustum.identity_pose()
    else:
        target = (
            _parse_triple(args.target, "orbit target")
            if args.target is not None
            else (grid.lo + grid.hi) / 2.0
        )
        radius = (
            args.radius
            if args.radius is not None
            else 1.5 * float(np.linalg.norm(grid.hi - grid.lo))
        )
        pose = frustum.orbit_pose(
            target, radius, np.deg2rad(args.azimuth), np.deg2rad(args.elevation)
        )
    img = frustum.render(
        grid, pose, cam, background=bg, step=args.step,
        min_transmittance=args.min_transmittance, threads=args.threads,
    )
    write_ppm(args.out, cam.w, cam.h, img)
    print(f"wrote {args.out} ({cam.w}x{cam.h})")
    return 0


def cmd_gradcheck(args) -> int:
    results = run_gradient_suite(trials=args.trials, seed=args.seed)
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        # timing to stderr: stdout stays rerun-identical
        print(
            f"{status} {r.name:28s} trials={r.trials} "
            f"max_scaled={r.max_scaled:.3e} tol={r.tol:g}"
        )
        print(f"  {r.name}: {r.elapsed_s:.2f}s", file=sys.stderr)
    ok = suite_passed(results)
    print(f"{'all checks passed' if ok else 'FAILED checks present'}")
    if args.out is not None:
        write_csv(args.out, results[0].row(), [r.row() for r in results])
        print(f"wrote {args.out}")
    return 0 if ok else 1


# ---------------------------------------------------------------- parser


def _eval_flags(p) -> None:
    p.add_argument("--pred", required=True, help="predicted depth (.duv, HxW)")
    p.add_argument("--gt", required=True, help="ground-truth depth (.duv, HxW)")
    p.add_argument("--unc", required=True, help="uncertainty map (.duv, HxW)")
    p.add_argument("--vol", help="probability volume (.duv, HxWxM) enabling NLL")
    _add_depth_range_flags(p)
    p.add_argument("--out", required=True, help="output CSV (one row)")


def _sparsify_flags(p) -> None:
    p.add_argument("--pred", required=True, help="predicted depth (.duv)")
    p.add_argument("--gt", required=True, help="ground-truth depth (.duv)")
    p.add_argument("--unc", required=True, help="uncertainty map (.duv)")
    p.add_argument("--metric", choices=BASE_METRICS, default="rmse", help="base error metric (default %(default)s)")
    p.add_argument("--steps", type=int, default=SPARSIFICATION_STEPS, help="removal fractions (default %(default)s)")
    p.add_argument("--out", required=True, help="output CSV (fraction,spars,oracle,random)")


def _scc_flags(p) -> None:
    p.add_argument("--err", help="per-pixel error map (.duv); alternative to --pred/--gt")
    p.add_argument("--pred", help="predicted depth (.duv)")
    p.add_argument("--gt", help="ground-truth depth (.duv)")
    p.add_argument("--unc", required=True, help="uncertainty map (.duv)")
    p.add_argument("--out", help="optional CSV (scc,n)")


def _train_toy_flags(p) -> None:
    p.add_argument("--seed", type=int, required=True, help="run seed (required; no wall-clock seeding)")
    _add_train_flags(p)
    p.add_argument("--out-dir", required=True, help="directory for model/, train_log.csv, eval.csv")


def _ablate_flags(p) -> None:
    p.add_argument("--seeds", required=True, help="comma-separated run seeds, e.g. 0,1,2,3,4")
    _add_train_flags(p, loss_terms=False)
    p.add_argument("--threads", type=int, choices=(1,), default=1, help="a seed's runs train in one loop on one thread; only 1 is accepted (default %(default)s)")
    p.add_argument("--out", required=True, help="output CSV, one row per (config, seed)")


def _demo_ause_flags(p) -> None:
    p.add_argument("--transform", choices=BUILTIN_TRANSFORMS, required=True, help="strictly increasing error transform")
    p.add_argument("--scale", type=float, default=0.5, help="affine scale (default %(default)s)")
    p.add_argument("--offset", type=float, default=0.0, help="affine offset (default %(default)s)")
    p.add_argument("--steps", type=int, default=SPARSIFICATION_STEPS, help="sparsification steps (default %(default)s)")
    _add_train_flags(p)
    p.add_argument("--seed", type=int, default=0, help="run seed (default %(default)s)")
    p.add_argument("--out", help="optional CSV with both models' numbers")


def _combine_flags(p) -> None:
    p.add_argument("--vols", nargs="+", required=True, help="one or more probability volumes (.duv)")
    p.add_argument("--out", required=True, help="output mean volume (.duv)")
    p.add_argument("--entropy-out", help="optional unscaled entropy of the mean (.duv)")


def _voxelize_flags(p) -> None:
    p.add_argument("--mode", choices=("prediction", "gt"), default="prediction", help="what to splat (default %(default)s)")
    p.add_argument("--vol", help="probability volume (.duv, HxWxM), prediction mode")
    p.add_argument("--gt", help="depth map (.duv, HxW), gt mode")
    p.add_argument("--rgb", help="color image (.duv, HxWx3, values in [0,1]); default mid-gray")
    _add_camera_flags(p)
    p.add_argument("--bins", type=int, default=toytrain.TrainConfig.m, help="hypothesis count in gt mode (default %(default)s)")
    _add_depth_range_flags(p)
    p.add_argument("--resolution", default=str(frustum.DEFAULT_RESOLUTION), help="voxels per axis, N or NX,NY,NZ (default %(default)s)")
    p.add_argument("--out", required=True, help="output base path (writes .idx.duv/.val.duv/.meta.txt)")


def _render_flags(p) -> None:
    p.add_argument("--grid", required=True, help="voxel grid base path from voxelize")
    p.add_argument("--out", required=True, help="output image (.ppm)")
    p.add_argument("--height", type=int, default=128, help="image height (default %(default)s)")
    p.add_argument("--width", type=int, default=128, help="image width (default %(default)s)")
    _add_camera_flags(p)
    p.add_argument("--pose", choices=("identity", "orbit"), default="identity", help="camera pose (default %(default)s)")
    p.add_argument("--target", help="orbit target x,y,z (default: grid center)")
    p.add_argument("--radius", type=float, default=None, help="orbit radius (default: 1.5 x grid diagonal)")
    p.add_argument("--azimuth", type=float, default=0.0, help="orbit azimuth in degrees (default %(default)s)")
    p.add_argument("--elevation", type=float, default=0.0, help="orbit elevation in degrees (default %(default)s)")
    p.add_argument("--bg", default="0,0,0", help="background color r,g,b in [0,1] (default %(default)s)")
    p.add_argument("--step", type=float, default=None, help="ray step length (default: voxel size)")
    p.add_argument("--min-transmittance", type=float, default=frustum.DEFAULT_MIN_TRANSMITTANCE, help="early-out threshold (default %(default)s)")
    p.add_argument("--threads", type=int, default=1, help="row-parallel rendering (default %(default)s)")


def _gradcheck_flags(p) -> None:
    p.add_argument("--trials", type=int, default=100, help="random instances per check (default %(default)s)")
    p.add_argument("--seed", type=int, required=True, help="instance seed (required; no wall-clock seeding)")
    p.add_argument("--out", help="optional CSV summary (no timings, reruns match bytewise)")


# name -> (handler, help text, the function that adds its flags)
_COMMANDS = {
    "eval": (cmd_eval, "accuracy and uncertainty metrics for one prediction", _eval_flags),
    "sparsify": (cmd_sparsify, "sparsification curve and its areas", _sparsify_flags),
    "scc": (cmd_scc, "Spearman correlation between error and uncertainty", _scc_flags),
    "train-toy": (cmd_train_toy, "train the synthetic-scene model", _train_toy_flags),
    "ablate": (cmd_ablate, "loss-term ablation grid over seeds", _ablate_flags),
    "demo-ause": (cmd_demo_ause, "error-transform counterexample on toy output", _demo_ause_flags),
    "combine": (cmd_combine, "average probability volumes (flip-style fusion)", _combine_flags),
    "voxelize": (cmd_voxelize, "splat a volume or depth map into frustum voxels", _voxelize_flags),
    "render": (cmd_render, "ray-march a saved voxel grid to a PPM image", _render_flags),
    "gradcheck": (cmd_gradcheck, "finite-difference check of every analytic gradient", _gradcheck_flags),
}
SUBCOMMANDS = tuple(_COMMANDS)


def build_parser(only: str | None = None) -> _Parser:
    """The argparse tree: every subcommand with its help text.

    Every subcommand gets its flags, or only the one named by ``only``
    (the others keep just their help line, all that ``depthuq --help``
    prints).  Each flag costs argparse a help formatter and a
    terminal-size query, so ``main`` builds the flags of the invoked
    subcommand alone.
    """
    parser = _Parser(prog="depthuq", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="subcommand", metavar="{" + ",".join(SUBCOMMANDS) + "}")
    for name, (fn, help_text, add_flags) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text, add_help=True)
        p.set_defaults(func=fn)
        if only in (None, name):
            p.add_argument("--config", help="key=value file preloading any flag of this subcommand")
            add_flags(p)
    return parser


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    # the flags of the invoked subcommand only; every flag for anything else
    parser = build_parser(argv[0] if argv and argv[0] in SUBCOMMANDS else None)
    try:
        if not argv:
            raise CLIError("a subcommand is required; see --help")
        if argv[0] in SUBCOMMANDS:
            argv = _inject_config(argv)
        args = parser.parse_args(argv)
        if not hasattr(args, "func"):
            raise CLIError("a subcommand is required; see --help")
        _print_config(args)
        return args.func(args)
    except (CLIError, toytrain.TrainingDivergedError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception:  # noqa: BLE001 - anything else is an internal failure
        traceback.print_exc()
        return 2


if __name__ == "__main__":
    sys.exit(main())
