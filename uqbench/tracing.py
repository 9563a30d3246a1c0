"""Span tracer that wraps ``depthuq`` functions from outside the package.

Each wrapped call records a span (name, start, end, parent, operation) in
memory; self time is the span's duration minus the time its child spans
cover.  Wrapping replaces the function object everywhere it is bound in
a loaded ``depthuq`` module, so ``from .x import f`` copies are traced
too.  Nothing under ``src/`` is edited.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time
from collections import defaultdict

import numpy as np

# (module, attribute, metric prefix, counter hook or None)
TARGETS = (
    ("depthuq.cli", "main", "cli.main", None),
    ("depthuq.metrics", "accuracy_metrics", "metrics.accuracy_metrics", None),
    ("depthuq.metrics", "evaluate_uncertainty", "metrics.evaluate_uncertainty", "pixels"),
    ("depthuq.metrics", "spearman", "metrics.spearman", None),
    ("depthuq.metrics", "auroc_fpr95", "metrics.auroc_fpr95", None),
    ("depthuq.metrics", "nll", "metrics.nll", None),
    ("depthuq.gridio", "read_grid", "gridio.read_grid", "bytes_read"),
    ("depthuq.gridio", "write_grid", "gridio.write_grid", "bytes_written"),
    ("depthuq.gridio", "write_ppm", "gridio.write_ppm", "bytes_written"),
    ("depthuq.toytrain", "make_dataset", "toytrain.make_dataset", None),
    ("depthuq.toytrain", "train", "toytrain.train", None),
    ("depthuq.toytrain", "scene_gradients", "toytrain.scene_gradients", "steps"),
    ("depthuq.toytrain", "evaluate_model", "toytrain.evaluate_model", None),
    ("depthuq.toytrain", "forward", "toytrain.forward", None),
    ("depthuq.losses", "full_backward", "losses.full_backward", "calls"),
    ("depthuq.losses", "clamped_entropy_parts", "losses.clamped_entropy_parts", None),
    ("depthuq.losses", "softmax_backward", "losses.softmax_backward", None),
    ("depthuq.losses", "draw_permutation", "losses.draw_permutation", None),
    ("depthuq.discretize", "soft_labels", "discretize.soft_labels", None),
    ("depthuq.discretize", "softmax_volume", "discretize.softmax_volume", None),
    ("depthuq.discretize", "expectation_depth", "discretize.expectation_depth", None),
    ("depthuq.frustum", "voxelize_prediction", "frustum.voxelize_prediction", None),
    ("depthuq.frustum", "_splat", "frustum.splat", "splat"),
    ("depthuq.frustum", "render", "frustum.render", None),
    ("depthuq.frustum", "_trilerp", "frustum.trilerp", "trilerp"),
    ("depthuq.frustum", "save_voxel_grid", "frustum.save_voxel_grid", None),
    ("depthuq.frustum", "load_voxel_grid", "frustum.load_voxel_grid", None),
)

# counts reported per operation, besides one self time per target
COUNT_METRICS = (
    "metrics.pixels",
    "metrics.evaluate_uncertainty_calls",
    "gridio.bytes_read",
    "gridio.bytes_written",
    "toytrain.steps",
    "losses.full_backward_calls",
    "frustum.splat_samples",
    "frustum.voxels",
    "frustum.ray_samples",
)


def _count(hook, counts, args, kwargs, result):
    """Work counts taken at the boundary, after the span has closed."""
    if hook == "pixels":
        counts["metrics.evaluate_uncertainty_calls"] += 1
        gt = np.asarray(args[1] if len(args) > 1 else kwargs["gt"])
        mask = kwargs.get("mask")
        valid = np.isfinite(gt) & (gt > 0) if mask is None else np.asarray(mask, bool)
        counts["metrics.pixels"] += int(np.count_nonzero(valid))
    elif hook in ("bytes_read", "bytes_written"):
        counts[f"gridio.{hook}"] += os.path.getsize(args[0])
    elif hook == "steps":
        counts["toytrain.steps"] += 1
    elif hook == "calls":
        counts["losses.full_backward_calls"] += 1
    elif hook == "splat":
        counts["frustum.splat_samples"] += int(args[0].shape[0])
        counts["frustum.voxels"] += int(result.n_voxels)
    elif hook == "trilerp":
        counts["frustum.ray_samples"] += int(args[3].shape[0])
        counts["frustum.contributing_samples"] += int(np.count_nonzero(result[0] > 0))


class Tracer:
    """Spans and counts of one process, kept in memory until ``dump``."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index, operation]
        self.self_s = defaultdict(float)
        self.counts = defaultdict(int)
        self._stack = []  # [span index, child time]
        self._saved = []
        self.op = -1
        self.hook_s = 0.0  # time spent taking counts, outside every span


    def _wrap(self, name, hook, fn):
        spans, stack, self_s, counts = self.spans, self._stack, self.self_s, self.counts
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append([name, clock(), 0.0, stack[-1][0] if stack else -1, self.op])
            stack.append([index, 0.0])
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                _, child = stack.pop()
                span = spans[index]
                span[2] = end
                duration = end - span[1]
                self_s[name] += duration - child
                if stack:
                    stack[-1][1] += duration
            if hook is not None:
                h0 = clock()
                _count(hook, counts, args, kwargs, result)
                self.hook_s += clock() - h0
            return result

        return traced

    def install(self):
        """Swap every binding of each target for its traced wrapper."""
        modules = [m for n, m in sys.modules.items() if n == "depthuq" or n.startswith("depthuq.")]
        for module_name, attr, name, hook in TARGETS:
            original = getattr(sys.modules[module_name], attr)
            wrapper = self._wrap(name, hook, original)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)
                        self._saved.append((module, key, original))

    def uninstall(self):
        for module, key, original in reversed(self._saved):
            setattr(module, key, original)
        self._saved.clear()

    def per_op(self, n_ops: int, call_cost_s: float) -> dict:
        """Self seconds and counts per operation, keyed by metric name.

        ``call_cost_s`` is the wrapper's own cost per call (see
        ``wrapper_call_cost``); with the time spent in the count hooks it
        gives the tracer's cost per operation.
        """
        out = {f"{name}_s": self.self_s[name] / n_ops for _, _, name, _ in TARGETS}
        out.update({key: self.counts[key] / n_ops for key in COUNT_METRICS})
        out["trace.wrapped_calls"] = len(self.spans) / n_ops
        out["trace.call_overhead_s"] = (len(self.spans) * call_cost_s + self.hook_s) / n_ops
        samples = self.counts["frustum.ray_samples"]
        out["frustum.contributing_sample_share"] = (
            self.counts["frustum.contributing_samples"] / samples if samples else 0.0
        )
        return out

    def dump(self, path, meta: dict) -> None:
        with open(path, "w", encoding="ascii") as fh:
            json.dump({**meta, "fields": ["name", "start", "end", "parent", "op"],
                       "spans": self.spans, "counts": dict(self.counts)}, fh)


def _noop(a, b, c, d=None):
    return None


def wrapper_call_cost(calls: int = 20_000, repeats: int = 5) -> float:
    """Seconds a traced wrapper adds to one call: best of ``repeats`` loops.

    The calibration function takes positional and keyword arguments, as
    the traced functions do, since packing them is part of the cost.
    """
    wrapped = Tracer()._wrap("calibration", None, _noop)
    clock = time.perf_counter
    best = {}
    for fn in (_noop, wrapped) * repeats:
        t0 = clock()
        for _ in range(calls):
            fn(1, 2, 3, d=4)
        best[fn] = min(best.get(fn, float("inf")), clock() - t0)
    return max(best[wrapped] - best[_noop], 0.0) / calls
