"""depthuq benchmark: one workload per run, end-to-end or traced per layer.

    python3 uqbench/run.py --workload voxel-render --seed 0 --seconds 40 --trace 0

Run from the repository root.  The parent process makes the workload's
inputs from ``--seed``, times ``setup_s`` over several fresh processes,
starts one worker process that repeats the workload's CLI operation for
``--seconds``, checks every operation's outputs against references
computed here, and prints one JSON line last:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``--trace 0`` reports op_s (scaled to a fixed host speed, see
hostspeed.py), setup_s and peak_rss_mb; ``--trace 1`` reports
the per-layer self times and counts (see README.md).  Inputs and outputs
live under ``results/uqbench/`` and are deleted at the end; the span
trace of a traced run stays there.
"""

from __future__ import annotations

import os

# one thread everywhere, in this process and the workers it starts
THREAD_ENV = {
    var: "1"
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
}
os.environ.update(THREAD_ENV)

import argparse  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import hostspeed  # noqa: E402
import workloads  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_SAMPLES = 5  # fresh processes timed for setup_s, the worker included
WORKER_TIMEOUT_S = 150.0
UNITS = {
    m["name"]: m["unit"]
    for kind in ("end_to_end", "per_layer")
    for m in json.loads((ROOT / "BENCHMARK.json").read_text())[kind]
}


class BenchError(Exception):
    """The benchmark cannot produce a result; exit non-zero without one."""


def _worker_env() -> dict:
    env = dict(os.environ, **THREAD_ENV)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def _start_worker(args, env):
    """Start a worker and wait for READY; returns (process, seconds to ready)."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "worker.py"), *args],
        cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
    )
    line = proc.stdout.readline()
    ready = time.perf_counter() - t0
    if line.strip() != "READY":
        proc.kill()
        proc.wait()
        raise BenchError(f"worker did not start (said {line!r}, exit {proc.returncode})")
    return proc, ready


def _wait(proc) -> int:
    """Wait for a started worker's exit code; kill it past the timeout."""
    try:
        proc.communicate(timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise BenchError(f"worker ran past {WORKER_TIMEOUT_S} s") from None
    return proc.returncode


def measure_setup(env, samples: int) -> list[float]:
    times = []
    for _ in range(samples):
        proc, ready = _start_worker(["--setup-only"], env)
        if _wait(proc) != 0:
            raise BenchError("set-up process failed")
        times.append(ready)
    return times


def host_speed_seconds(calls, refs) -> list[float]:
    """Each operation's seconds at the reference host speed.

    ``calls[k]`` holds operation k's wall seconds per CLI call and
    ``refs[k]`` the reference times before its first call and after each
    call; a call is scaled by the mean of the two references around it.
    """
    return [
        sum(c * hostspeed.REF_S / ((a + b) / 2.0) for c, a, b in zip(cs, rs, rs[1:]))
        for cs, rs in zip(calls, refs)
    ]


def check_op(wl, op_dir: Path) -> list[str]:
    """Failure messages of one operation; an empty list is a pass.

    An output the checks cannot even read (a missing file, a truncated
    image, a missing key) fails the operation instead of ending the run.
    """
    try:
        if wl.name == "eval-vga":
            return workloads.check_eval(op_dir, wl.ref)
        if wl.name == "ablate-grid":
            return workloads.check_ablate(op_dir, wl.ref)
        bad = workloads.check_grid(op_dir / "grid", wl.ref)
        if not bad:
            rays = workloads.render_reference(op_dir / "grid", wl.ref)
            bad = workloads.check_render(op_dir, wl.ref, rays)
        return bad
    except Exception as exc:  # noqa: BLE001 - any unreadable output is a failed check
        return [f"{op_dir.name}: {type(exc).__name__}: {exc}"]


def run(workload: str, seed: int, seconds: float, trace: bool, size: str = "full",
        setup_samples: int = SETUP_SAMPLES) -> dict:
    if not (ROOT / "src" / "depthuq" / "cli.py").is_file():
        raise BenchError(f"no program source under {ROOT / 'src'}; run from a full checkout")
    runs = ROOT / "results" / "uqbench"
    workdir = runs / f"{workload}-seed{seed}-pid{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        wl = workloads.BUILDERS[workload](seed, workdir, size)
        env = _worker_env()
        # set-up samples straddle the worker, so one host slowdown moves few of them
        setup = measure_setup(env, setup_samples // 2)
        trace_file = runs / f"trace-{workload}-seed{seed}.json"
        job = {"workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
               "op": wl.op, "trace_file": str(trace_file)}
        (workdir / "job.json").write_text(json.dumps(job))
        proc, ready = _start_worker([str(workdir / "job.json")], env)
        setup.append(ready)
        code = _wait(proc)
        if code != 0:
            raise BenchError(f"worker exited with {code}")
        setup += measure_setup(env, setup_samples - 1 - setup_samples // 2)
        result = json.loads((workdir / "result.json").read_text())
        codes = result["exit_codes"]
        # the worker names operation k's directory op{k:03d}
        verdicts = [check_op(wl, workdir / f"op{k:03d}") for k, c in enumerate(codes) if c == 0]
        failed = sum(1 for c in codes if c != 0) + sum(1 for v in verdicts if v)
        for bad in filter(None, verdicts):
            print(f"operation failed its checks: {'; '.join(bad)}", file=sys.stderr)
        if trace:
            values = result["per_layer"]
            timing = {"op_wall_s": result["op_s"]}
        else:
            op_s = host_speed_seconds(result["calls_s"], result["reference_s"])
            values = {
                "op_s": statistics.median(op_s[1:]),
                "setup_s": statistics.median(setup),
                "peak_rss_mb": result["peak_rss_mb"],
            }
            timing = {"call_wall_s": result["calls_s"], "reference_s": result["reference_s"]}
        metrics = {name: {"value": v, "unit": UNITS[name]} for name, v in values.items()}
        return {
            "correct": failed == 0,
            "attempted": len(codes),
            "failed": failed,
            "metrics": metrics,
            "detail": {**timing, "setup_s": setup, "makeup": wl.makeup},
        }
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    try:
        out = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1
    detail = out.pop("detail")
    print(json.dumps({"detail": detail}))
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
