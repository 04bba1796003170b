"""The traced benchmark wraps functions by name; each name must exist.

perfbench/spans.py imports neither numpy nor mdkit, so it is loaded here
by path.  A renamed or deleted library function would otherwise surface
only in a traced benchmark run.
"""

import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_function_resolves():
    targets = _load_spans().TARGETS
    assert any(module.startswith("mdkit.") for module, _, _ in targets)
    missing = [f"{module}.{func}" for module, func, _ in targets
               if not callable(getattr(importlib.import_module(module), func, None))]
    assert missing == []
