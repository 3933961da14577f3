"""`perfbench/tracing.py` wraps inclab functions by module and name from
outside the package, so every name in its tables must still exist."""

import importlib
import importlib.util
import os
import subprocess
import sys
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


def test_install_after_importing_only_the_cli():
    """`Tracer.install` looks each traced module up in `sys.modules`, so
    `inclab.cli` alone must load every one, as `perfbench/run.py` loads it:
    a fresh interpreter imports only the CLI, then installs and removes the
    tracer."""
    root = Path(__file__).resolve().parents[1]
    path = str(root / "perfbench" / "tracing.py")
    script = "\n".join([
        "import importlib.util",
        "from inclab import cli",
        f"spec = importlib.util.spec_from_file_location('tracing', {path!r})",
        "tracing = importlib.util.module_from_spec(spec)",
        "spec.loader.exec_module(tracing)",
        "tracer = tracing.Tracer('guard')",
        "undo = tracer.install()",
        "assert undo",
        "tracer.uninstall(undo)",
    ])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(root / "src"), os.environ.get("PYTHONPATH")]))}
    result = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
