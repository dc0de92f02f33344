"""Every function the benchmark tracer wraps must exist under its name.

``bench/tracing.py`` patches library functions at the module attributes
their callers look them up under; a target that no longer resolves is
skipped at run time and its per-layer metrics silently vanish from traced
runs.  The wrap lists are read from the source without executing it.
"""

import ast
import importlib
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def _wrap_targets(list_name):
    """(module, attribute) pairs from the literal list ``list_name``."""
    tree = ast.parse(TRACING.read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == list_name for t in node.targets):
            return [(entry.elts[0].value, entry.elts[1].value) for entry in node.value.elts]
    raise AssertionError(f"{list_name} not found in {TRACING}")


TARGETS = sorted(set(_wrap_targets("TARGETS")) | set(_wrap_targets("SUM_TARGETS")))


def test_wrap_lists_are_read():
    assert ("barrierwaves.greens", "_stable_scaled_erfcx") in TARGETS
    assert ("barrierwaves.evolve", "_kernel_grid") in TARGETS
    assert len(TARGETS) >= 15


@pytest.mark.parametrize("module, attribute", TARGETS)
def test_wrap_target_resolves(module, attribute):
    assert callable(getattr(importlib.import_module(module), attribute, None))
