"""The benchmark's span tracer names library functions by string; keep them real.

``perfbench/spans.py`` lists the traced layers as ``"<module>.<function>"``
(check layers of the bound matrix carry the model as a third part) and
patches each function in the namespaces of its calling modules.  A refactor
that renames or deletes a traced function should fail here, not in a
benchmark run.
"""

from __future__ import annotations

import importlib
import importlib.util
from pathlib import Path

import pytest

from prophet_matching.harness import MODELS

SPANS_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


SPANS = _spans()


@pytest.mark.parametrize("layer", SPANS.LIBRARY_LAYERS + SPANS.CHECK_LAYERS)
def test_traced_layer_resolves(layer):
    module_name, fn_name, *suffix = layer.split(".")
    fn = getattr(importlib.import_module(f"prophet_matching.{module_name}"), fn_name, None)
    assert callable(fn), f"{layer} names no function of prophet_matching"
    assert suffix in ([], *([m] for m in MODELS))
    # the tracer patches the function where it is called from
    callers = [importlib.import_module(f"prophet_matching.{m}") for m in SPANS.CALLER_MODULES]
    assert any(fn in vars(c).values() for c in callers), f"no caller module binds {layer}"
