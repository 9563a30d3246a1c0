"""Guards for the benchmark harness's view of the package.

``uqbench/tracing.py`` wraps ``depthuq`` functions by name from outside
the package; a rename inside ``depthuq`` would otherwise only surface in
a traced benchmark run.
"""

import ast
import importlib
from pathlib import Path

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


@pytest.mark.parametrize(
    "module, attribute", [(t[0], t[1]) for t in TARGETS], ids=[f"{t[0]}.{t[1]}" for t in TARGETS]
)
def test_traced_target_resolves(module, attribute):
    assert callable(getattr(importlib.import_module(module), attribute, None))
