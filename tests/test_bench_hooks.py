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

import pytest

import wsodkit

from conftest import PERFBENCH, SHRUNK_WORKLOADS, perfbench_module

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


@pytest.mark.parametrize("workload, shrink", list(SHRUNK_WORKLOADS.items()))
def test_traced_pipeline_calls_every_target(workload, shrink, monkeypatch, tmp_path):
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
