"""Every layer the benchmark traces (bench/layers.py) resolves to a plain
function. A refactor that deletes a traced name, or turns it into another
kind of object, would make the benchmark report that layer as null; this
catches it in the test suite."""

import importlib.util
from pathlib import Path

import pytest

LAYERS = Path(__file__).resolve().parent.parent / "bench" / "layers.py"
spec = importlib.util.spec_from_file_location("bench_layers", LAYERS)
layers = importlib.util.module_from_spec(spec)
spec.loader.exec_module(layers)


NAMES = [*layers.TRACED, layers.JET_INIT]


@pytest.mark.parametrize("module, qualname", NAMES, ids=[f"{m}.{q}" for m, q in NAMES])
def test_traced_name_resolves(module, qualname):
    assert layers._resolve(module, qualname) is not None
