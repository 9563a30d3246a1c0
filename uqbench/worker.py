"""The workload process: import the program, then repeat one operation.

Started by ``run.py`` with the thread pools pinned and ``src`` first on
``PYTHONPATH``.  It prints ``READY`` once ``depthuq.cli`` is imported, so
the parent can time set-up from process start.  Each operation is one or
more in-process ``depthuq.cli.main`` calls writing into its own
directory; the parent checks those outputs after this process exits.
In an untraced run the host-speed reference (``hostspeed.py``) is timed
before the first call and after every call.

    python3 uqbench/worker.py JOB.json      # run the job, write RESULT next to it
    python3 uqbench/worker.py --setup-only  # import, print READY, exit
"""

from __future__ import annotations

import json
import resource
import statistics
import sys
import time
from contextlib import redirect_stdout
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

# at least one warm-up and two timed operations, however long they take
MIN_OPS = 3
# a traced run times at least this many (untraced, traced) pairs after its warm-up
MIN_TRACE_PAIRS = 3


def _import_program():
    from depthuq import cli

    if Path(cli.__file__).resolve().parent.parent != SRC:
        raise RuntimeError(f"depthuq imported from {cli.__file__}, not from {SRC}")
    return cli


def _one_op(cli, op_argv, op_dir: Path, between=None):
    """Run one operation into ``op_dir``; (wall seconds per CLI call, exit code).

    ``between``, if given, is called with each CLI call's seconds after
    the call, outside its timing.
    """
    op_dir.mkdir()
    calls = []
    code = 0
    for argv in op_argv:
        t0 = time.perf_counter()
        code = cli.main([a.replace("{op}", str(op_dir)) for a in argv])
        calls.append(time.perf_counter() - t0)
        if between is not None:
            between(calls[-1])
        if code != 0:
            break
    return calls, code


def _run_ops(cli, op_argv, workdir: Path, budget_s: float):
    """Repeat the operation until ``budget_s`` would be overrun.

    The host-speed reference runs before the first CLI call and after
    every one.  Returns (wall seconds of each CLI call, per operation;
    reference seconds before and after each call, per operation; exit
    codes).  An operation's first reference is its predecessor's last.
    """
    from hostspeed import speed_sample

    calls, refs, codes = [], [], []
    started = time.perf_counter()
    last = speed_sample(0.0)
    while True:
        op_refs = [last]
        t_op = time.perf_counter()
        op_calls, code = _one_op(cli, op_argv, workdir / f"op{len(calls):03d}",
                                 between=lambda call_s: op_refs.append(speed_sample(call_s)))
        last = op_refs[-1]
        calls.append(op_calls)
        refs.append(op_refs)
        codes.append(code)
        now = time.perf_counter()
        # do not start an operation that would end past the budget
        if len(calls) >= MIN_OPS and (now - started) + (now - t_op) > budget_s:
            return calls, refs, codes


def _run_traced(cli, op_argv, workdir: Path, budget_s: float, tracer):
    """A warm-up, then pairs of one untraced and one traced operation.

    The tracer is installed for the traced operation only, outside its
    timing.  The order inside a pair alternates (untraced first, then
    traced first), so a steady drift in host speed cancels out of the
    paired differences.  Returns (untraced times, traced times, codes).
    """
    started = time.perf_counter()
    _, code = _one_op(cli, op_argv, workdir / "op000")
    plain, traced, codes = [], [], [code]
    while True:
        t0 = time.perf_counter()
        order = (False, True) if len(plain) % 2 == 0 else (True, False)
        for is_traced in order:
            k = len(codes)
            if is_traced:
                tracer.op = k
                tracer.install()
            try:
                op_calls, code = _one_op(cli, op_argv, workdir / f"op{k:03d}")
            finally:
                if is_traced:
                    tracer.uninstall()
            (traced if is_traced else plain).append(sum(op_calls))
            codes.append(code)
        t1 = time.perf_counter()
        if len(plain) >= MIN_TRACE_PAIRS and (t1 - started) + (t1 - t0) > budget_s:
            return plain, traced, codes


def main(argv) -> int:
    if argv == ["--setup-only"]:
        _import_program()
        print("READY", flush=True)
        return 0
    job_path = Path(argv[0])
    cli = _import_program()
    print("READY", flush=True)

    job = json.loads(job_path.read_text())
    workdir = job_path.parent
    with open(workdir / "program_stdout.txt", "w", encoding="utf-8") as out, redirect_stdout(out):
        result = _run_job(cli, job, workdir)
    (workdir / "result.json").write_text(json.dumps(result))
    return 0


def _run_job(cli, job, workdir: Path) -> dict:
    result = {}
    if not job["trace"]:
        result["calls_s"], result["reference_s"], codes = _run_ops(
            cli, job["op"], workdir, job["seconds"])
    else:
        from tracing import Tracer, wrapper_call_cost

        tracer = Tracer()
        plain, traced, codes = _run_traced(cli, job["op"], workdir, job["seconds"], tracer)
        per_layer = tracer.per_op(len(traced), wrapper_call_cost())
        per_layer["trace.overhead_s"] = statistics.median(t - p for p, t in zip(plain, traced))
        result["per_layer"] = per_layer
        result["op_s"] = {"untraced": plain, "traced": traced}
        tracer.dump(job["trace_file"], {"workload": job["workload"], "seed": job["seed"]})
    result["exit_codes"] = codes
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return result


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
