"""Guards for the benchmark harness's view of the package.

``uqbench/tracing.py`` wraps ``depthuq`` functions by name from outside
the package and reads sample counts from fixed argument positions; a
rename or a signature change inside ``depthuq`` would otherwise only
surface in a traced benchmark run.
"""

import ast
import importlib
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

TRACING = Path(__file__).resolve().parents[1] / "uqbench" / "tracing.py"


def _traced_targets():
    # read the literal without importing (or editing) the harness module
    tree = ast.parse(TRACING.read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "TARGETS" for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError(f"no TARGETS assignment in {TRACING}")


TARGETS = _traced_targets()


def test_tracer_has_targets():
    assert TARGETS
    assert all(module.startswith("depthuq.") for module, *_ in TARGETS)


def test_cli_import_loads_every_traced_module():
    # ``Tracer.install`` reads ``sys.modules[module]`` for every target
    # once the worker has imported ``depthuq.cli`` and run one warm-up
    # operation.  A ``voxel-render`` warm-up loads none of metrics,
    # toytrain or losses by itself, so only the import loads them for a
    # traced run; a module it leaves unloaded raises KeyError there.
    # Subcommand-lazy imports (ROADMAP item 14) need the tracer changed
    # first.
    import depthuq

    src = str(Path(depthuq.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    modules = sorted({module for module, *_ in TARGETS})
    code = f"import sys, depthuq.cli; print(' '.join(m for m in {modules!r} if m not in sys.modules))"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    missing = out.stdout.split()
    assert missing == [], (
        f"import depthuq.cli leaves {missing} unloaded; the tracer would raise KeyError "
        "(see ROADMAP item 14 before making imports lazy)"
    )


@pytest.mark.parametrize(
    "module, attribute", [(t[0], t[1]) for t in TARGETS], ids=[f"{t[0]}.{t[1]}" for t in TARGETS]
)
def test_traced_target_resolves(module, attribute):
    assert callable(getattr(importlib.import_module(module), attribute, None))


def _recording(monkeypatch, module, name):
    calls = []
    fn = getattr(module, name)

    def record(*args):
        result = fn(*args)
        calls.append((args, result))
        return result

    monkeypatch.setattr(module, name, record)
    return calls


def test_frustum_sample_counts_sit_where_the_tracer_reads_them(monkeypatch):
    # the tracer counts splat samples as args[0].shape[0] of ``_splat`` and
    # ray samples as args[3].shape[0] of ``_trilerp``
    from depthuq import frustum
    from depthuq.discretize import linear_hypotheses

    rng = np.random.default_rng(3)
    cam = frustum.centered_pinhole(6, 8, 7.0)
    hyp = linear_hypotheses(1.0, 4.0, 5)
    vol = rng.dirichlet(np.ones(hyp.m), size=(cam.h, cam.w))
    splats = _recording(monkeypatch, frustum, "_splat")
    grid = frustum.voxelize_prediction(vol, hyp, cam, rng.uniform(size=(cam.h, cam.w, 3)), 6)
    (args, result), = splats
    assert args[0].shape == (cam.h * cam.w * hyp.m,) and result is grid
    np.testing.assert_array_equal(args[0], np.moveaxis(vol, -1, 0).ravel())  # the mass

    trilerps = _recording(monkeypatch, frustum, "_trilerp")
    target = (grid.lo + grid.hi) / 2.0
    frustum.render(grid, frustum.orbit_pose(target, 4.0, 0.3), cam)
    assert trilerps
    for args, (a, pm) in trilerps:
        base, frac = args[3], args[4]
        assert base.ndim == 1 and base.dtype.kind == "i"
        assert len(frac) == 3 and all(f.shape == base.shape for f in frac)
        assert base.shape[0] == a.shape[0] == pm.shape[1] and pm.shape[0] == 3
    assert sum(a.size for _, (a, _) in trilerps) > 0


def _counting(calls, key, fn):
    def counted(*args, **kwargs):
        calls[key] += 1
        return fn(*args, **kwargs)

    return counted


def test_tiny_ablate_calls_every_training_target(monkeypatch):
    # the --trace 1 split of ablate-grid reads these self times; a target
    # inlined away or left uncalled would read 0 while its work went on
    from depthuq import toytrain

    wanted = [
        (module, attribute) for module, attribute, *_ in TARGETS
        if module in ("depthuq.toytrain", "depthuq.losses", "depthuq.discretize")
    ]
    modules = [m for n, m in sys.modules.items() if n == "depthuq" or n.startswith("depthuq.")]
    calls = Counter()
    for module_name, attribute in wanted:
        original = getattr(importlib.import_module(module_name), attribute)
        counted = _counting(calls, (module_name, attribute), original)
        # every binding, as the tracer swaps them: ``from .x import f`` copies too
        for module in modules:
            for key, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, key, counted)
    base = toytrain.TrainConfig(epochs=1, train_scenes=2, eval_scenes=1, height=8, width=8)
    toytrain.ablate([0], base=base)
    assert wanted and [key for key in wanted if calls[key] == 0] == []
