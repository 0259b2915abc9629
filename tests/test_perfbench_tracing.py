"""The benchmark's traced mode wraps program functions by name; each name
it lists must still exist, or ``perfbench/run.py --trace 1`` fails."""

import importlib
import importlib.util
from pathlib import Path

_TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def test_traced_functions_exist():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", _TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    assert tracing.TRACED
    for module, function, _ in tracing.TRACED:
        target = importlib.import_module(f"mpreg.{module}")
        assert callable(getattr(target, function, None)), f"mpreg.{module}.{function}"
