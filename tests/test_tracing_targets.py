"""The benchmark's tracer patches rawfilter functions by name; every name it
lists must resolve, or `perfbench/run.py --trace 1` breaks on a rename."""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _tracing_module():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up by name
    spec.loader.exec_module(module)
    return module


_tracing = _tracing_module()


@pytest.mark.parametrize("module, attr", _tracing.TRACED + _tracing.COUNTED)
def test_traced_name_resolves_in_rawfilter(module, attr):
    target = importlib.import_module(f"rawfilter.{module}")
    for part in attr.split("."):
        target = getattr(target, part)
    assert callable(target)
