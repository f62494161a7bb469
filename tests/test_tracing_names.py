"""Every attribute the benchmark's tracer wraps must exist on the package.

`bench/tracing.py` replaces functions and methods of `milvad` by name; a
rename under `src/` would otherwise surface only in the benchmark's own
tests. The module is loaded from its file and is not modified.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracing = _tracing()


@pytest.mark.parametrize("module_name, attr, span", tracing.FUNCTIONS,
                         ids=[f"{m}.{a}" for m, a, _ in tracing.FUNCTIONS])
def test_traced_function_resolves(module_name, attr, span):
    assert callable(getattr(importlib.import_module(module_name), attr, None))


@pytest.mark.parametrize("module_name, class_name, attr, span", tracing.METHODS,
                         ids=[f"{m}.{c}.{a}" for m, c, a, _ in tracing.METHODS])
def test_traced_method_resolves(module_name, class_name, attr, span):
    owner = getattr(importlib.import_module(module_name), class_name)
    # the tracer reads the class's own __dict__, so an inherited method does not count
    assert attr in vars(owner)
