"""`perfbench/tracing.py` wraps inclab functions by module and name from
outside the package, so every name in its tables must still exist."""

import importlib
import importlib.util
from pathlib import Path

import pytest


def _load_tracing():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracing = _load_tracing()


@pytest.mark.parametrize("module, name", sorted({*tracing.SPANNED, *tracing.HOT}))
def test_traced_name_resolves(module, name):
    assert callable(getattr(importlib.import_module("inclab." + module), name, None))
