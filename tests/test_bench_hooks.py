"""The pipeline benchmark's hooks resolve against the package.

``perfbench/spans.py`` wraps package functions by name and
``perfbench/run.py`` reports ``kernels.BACKEND``; a refactor that drops one
of them fails here instead of when the benchmark runs. spans.py is run from
its source, so no bytecode cache is written beside it.
"""

import importlib
import runpy
from pathlib import Path

import pytest

import wsodkit

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


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
