"""The benchmark tracer's span targets exist in the package.

perfbench/tracing.py wraps fracwos functions and methods by name; a renamed
or deleted target would otherwise show only in the slow benchmark tests.
"""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod.SPANS


def test_span_targets_resolve():
    missing = []
    for name, module, attr, _ in load_spans():
        owner = importlib.import_module(f"fracwos.{module}")
        cls_name, _, meth = attr.rpartition(".")
        if cls_name:
            # the tracer replaces the method in the class's own __dict__
            owner = getattr(owner, cls_name, None)
            target = vars(owner).get(meth) if owner is not None else None
        else:
            target = getattr(owner, attr, None)
        if not callable(target):
            missing.append(f"{name}: fracwos.{module}.{attr}")
    assert not missing, missing
