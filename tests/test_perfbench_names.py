"""The names that perfbench's tracer wraps still exist in kdeval.

The tracer reports a missing name only as "absent" and a hook that fails only
as "broken", so a rename would silently blank a per-layer metric.  The tracer
is read with ast, not imported.
"""

import ast
import dataclasses
import importlib
from pathlib import Path

from kdeval.density import DensityModel
from kdeval.kdi import ClusterDensityProfile

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _assigned(name):
    """The literal value of the module-level assignment to name in the tracer."""
    for node in ast.parse(TRACER.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Assign) and any(t.id == name for t in node.targets):
            return node.value
    raise AssertionError(f"{name} is not assigned in {TRACER.name}")


def test_every_traced_name_is_a_kdeval_callable():
    traced = ast.literal_eval(_assigned("TRACED"))
    assert len(traced) >= 27
    missing = [f"{module}.{attr}" for module, attr in traced
               if not callable(getattr(importlib.import_module(f"kdeval.{module}"), attr, None))]
    assert not missing, missing
    hooked = {ast.literal_eval(key) for key in _assigned("HOOKS").keys}
    assert hooked <= {f"{module}.{attr}" for module, attr in traced}


def test_fields_the_hooks_read_exist():
    assert "member_indices" in {f.name for f in dataclasses.fields(ClusterDensityProfile)}
    assert "training_points" in {f.name for f in dataclasses.fields(DensityModel)}
