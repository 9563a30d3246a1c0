"""Guards for the benchmark harness's view of the package, and for dead code.

``uqbench/tracing.py`` wraps ``depthuq`` functions by name from outside
the package and reads sample counts from fixed argument positions; a
rename or a signature change inside ``depthuq`` would otherwise only
surface in a traced benchmark run.  A definition in ``depthuq`` that
neither the package nor the harness reads is API that only tests keep
alive, and fails here.
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

ROOT = Path(__file__).resolve().parents[1]
TRACING = ROOT / "uqbench" / "tracing.py"
SRC = ROOT / "src" / "depthuq"
# called from outside the scanned code: the console script of pyproject.toml
ENTRY_POINTS = {"cli.main"}


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


def _modules_after_cli_import():
    """``sys.modules`` of a fresh interpreter that has imported this
    checkout's ``depthuq.cli``."""
    import depthuq

    src = str(Path(depthuq.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = "import sys, depthuq.cli; print(' '.join(sys.modules))"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    return set(out.stdout.split())


def test_cli_import_loads_every_traced_module():
    # ``Tracer.install`` reads ``sys.modules[module]`` for every target
    # once the worker has imported ``depthuq.cli`` and run one warm-up
    # operation.  A ``voxel-render`` warm-up loads none of metrics,
    # toytrain or losses by itself, so only the import loads them for a
    # traced run; a module it leaves unloaded raises KeyError there.
    # Subcommand-lazy imports (ROADMAP item 14) need the tracer changed
    # first.
    loaded = _modules_after_cli_import()
    missing = sorted({module for module, *_ in TARGETS} - loaded)
    assert missing == [], (
        f"import depthuq.cli leaves {missing} unloaded; the tracer would raise KeyError "
        "(see ROADMAP item 14 before making imports lazy)"
    )


def test_package_imports_no_scipy():
    # the package runs on NumPy alone; scipy is an oracle for the tests
    assert sorted(m for m in _modules_after_cli_import() if m.split(".")[0] == "scipy") == []


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


def _definitions(tree, module):
    """(qualified name, name, node) of each module-level function, class,
    method and assigned name."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield f"{module}.{node.name}", node.name, node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef):
                    yield f"{module}.{node.name}.{item.name}", item.name, item
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            for target in node.targets if isinstance(node, ast.Assign) else [node.target]:
                for name in ast.walk(target):
                    if isinstance(name, ast.Name):
                        yield f"{module}.{name.id}", name.id, node


def _reads(tree):
    """(name, line) of each name, attribute and string the code reads.

    Strings count: the tracer names its targets, and ``getattr`` its
    fields, by string.
    """
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            yield node.attr, node.lineno
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            yield node.value, node.lineno


def _overrides_a_base(module, qualified):
    # a method a base class calls, such as an argparse parser's ``error``
    _, cls, *method = qualified.split(".")
    if not method:
        return False
    bases = getattr(importlib.import_module(f"depthuq.{module}"), cls).__mro__[1:]
    return any(hasattr(base, method[0]) for base in bases)


def test_every_src_definition_has_a_caller():
    # names match by spelling alone, so a name shared with another
    # definition passes; a read inside the definition itself does not count
    files = sorted(SRC.glob("*.py")) + sorted((ROOT / "uqbench").glob("*.py"))
    trees = {path: ast.parse(path.read_text(encoding="utf-8")) for path in files}
    reads = [(path, name, line) for path, tree in trees.items() for name, line in _reads(tree)]
    unread = []
    for path in sorted(SRC.glob("*.py")):
        for qualified, name, node in _definitions(trees[path], path.stem):
            if name.startswith("__") and name.endswith("__") or qualified in ENTRY_POINTS:
                continue
            if any(
                read == name and not (where == path and node.lineno <= line <= node.end_lineno)
                for where, read, line in reads
            ):
                continue
            if not _overrides_a_base(path.stem, qualified):
                unread.append(qualified)
    assert unread == [], f"defined in src/depthuq but read nowhere there or in uqbench: {unread}"
