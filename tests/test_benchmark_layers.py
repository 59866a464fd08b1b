"""The benchmark's tracer wraps eegx functions by module and attribute
name; every one it names must exist, or a traced run fails partway."""

import importlib
import sys
import types
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _tracer_layers():
    """``tracer.LAYERS``, from the source read as text: nothing is written
    under perfbench/, not even bytecode."""
    module = types.ModuleType("_perfbench_tracer")
    sys.modules[module.__name__] = module  # its dataclasses look their module up
    try:
        exec(compile(TRACER.read_text(), str(TRACER), "exec"), module.__dict__)
    finally:
        del sys.modules[module.__name__]
    return module.LAYERS


@pytest.mark.parametrize(
    "module,attr", sorted({(layer.module, layer.attr) for layer in _tracer_layers()})
)
def test_traced_function_exists(module, attr):
    assert callable(getattr(importlib.import_module(module), attr, None))
