"""The pipeline benchmark's hooks resolve against the package.

``perfbench/spans.py`` wraps package functions by name and
``perfbench/run.py`` reports ``kernels.BACKEND``; a refactor that drops one
of them, or stops calling one, fails here instead of when the benchmark
runs. The perfbench modules are run from their source, so no bytecode
cache is written beside them.
"""

import dataclasses
import importlib
import runpy
import sys
import types
from pathlib import Path

import pytest

import wsodkit

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
SPANS = PERFBENCH / "spans.py"


@pytest.mark.parametrize(
    "target", runpy.run_path(str(SPANS))["TARGETS"], ids=lambda t: t.name
)
def test_target_resolves_to_callable(target):
    obj = importlib.import_module(f"wsodkit.{target.module}")
    for part in target.attr.split("."):
        obj = getattr(obj, part)
    assert callable(obj)


def test_kernel_backend_reported():
    assert wsodkit.kernels.BACKEND in ("cython", "python")


def perfbench_module(name, monkeypatch):
    """A perfbench module run from its source and importable by its name."""
    module = types.ModuleType(name)
    module.__dict__.update(runpy.run_path(str(PERFBENCH / f"{name}.py")))
    monkeypatch.setitem(sys.modules, name, module)
    return module


@pytest.mark.parametrize(
    "workload, shrink",
    [
        ("dense-eval", dict(images=24, epochs=2, priors_threshold=0.005)),
        ("large-proposals", dict(images=6, proposals=40, epochs=2)),
    ],
)
def test_traced_pipeline_calls_every_target(workload, shrink, monkeypatch, tmp_path):
    # A shrunken workload keeps its name, which decides the targets it must call.
    workloads = perfbench_module("workloads", monkeypatch)
    pipeline = perfbench_module("pipeline", monkeypatch)
    spans = perfbench_module("spans", monkeypatch)
    w = dataclasses.replace(workloads.WORKLOADS[workload], **shrink)
    inputs = workloads.write_inputs(w, 0, tmp_path)
    counter = pipeline.Counter()
    tracer = spans.Tracer()
    tracer.install()
    try:
        vocab, records = pipeline.setup(inputs)
        pipeline.Pipeline(w, vocab, records, tmp_path, counter).run()
    finally:
        tracer.uninstall()
    _, missing = tracer.per_layer(w.name)
    assert missing == []
    assert counter.failed == 0
