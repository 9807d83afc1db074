"""The traced benchmark's span list names functions that exist."""

import importlib
import importlib.util
from pathlib import Path

import pytest

SPANS_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans",
                                                  SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


SPANS = _load_spans()


@pytest.mark.parametrize("module,function",
                         SPANS.SPANNED + SPANS.COUNTED,
                         ids=lambda name: name)
def test_traced_function_exists(module, function):
    # the traced run wraps these by name; one that is renamed or deleted
    # makes the traced benchmark fail
    target = getattr(importlib.import_module(f"acmag.{module}"), function,
                     None)
    assert callable(target), f"acmag.{module}.{function} is not a callable"
