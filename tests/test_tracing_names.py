"""Every attribute the benchmark's tracer wraps must exist on the package.

`bench/tracing.py` replaces functions and methods of `milvad` by name; a
rename under `src/` would otherwise surface only in the benchmark's own
tests. The module is loaded from its file and is not modified.
"""

import importlib
import importlib.util
from collections import Counter
from pathlib import Path

import pytest

from milvad.config import HyperParams, TrainConfig
from milvad.model import AnomalyScorer
from milvad.training import train

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


def test_training_spans_stay_on_the_training_path(tiny_scene_data):
    # a training loop that bypassed the wrapped names would lose these spans
    train_ds, _, _ = tiny_scene_data
    tracer = tracing.Tracer()
    restore = tracing.install(tracer)
    try:
        train(AnomalyScorer(HyperParams.desk_scale(), seed=0), train_ds,
              TrainConfig(steps=10, pair_batch=2))
    finally:
        restore()
    spans = Counter(tracer.names)
    assert [spans[f"training.step.{phase}"] for phase in tracing.PHASES] == [4, 2, 4]
    assert spans["training.adam"] == 10
    assert spans["tensor.backward"] == 20
    assert spans["losses.loss"] == 20
