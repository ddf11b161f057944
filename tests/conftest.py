"""Shared builders for the test suite."""

from __future__ import annotations

import json
import re
import runpy
import sys
import types
from pathlib import Path

import numpy as np
import pytest

from wsodkit.data import Box, ClassVocabulary, ImageRecord
from wsodkit.milhead import HeadParams
from wsodkit.numkit import SGD, GradSpan, Param


PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"

# Benchmark workloads shrunk to a fraction of a second each. A shrunk
# workload keeps its name, which decides the spans it must call.
SHRUNK_WORKLOADS = {
    "dense-eval": dict(images=24, epochs=2, priors_threshold=0.005),
    "large-proposals": dict(images=6, proposals=40, epochs=2),
}


def perfbench_module(name, monkeypatch):
    """A perfbench module run from its source and importable by its name.

    Running the source writes no bytecode cache beside it.
    """
    module = types.ModuleType(name)
    module.__dict__.update(runpy.run_path(str(PERFBENCH / f"{name}.py")))
    monkeypatch.setitem(sys.modules, name, module)
    return module


# Lines json.loads refuses, by what is wrong with them. The JSONL readers
# must refuse each with json's own message.
UNPARSABLE_LINES = {
    "second-value": '{"a": 1} {"b": 2}',
    "trailing-comma": '{"a": 1},',
    "bom": '\ufeff{"a": 1}',
    "unterminated": '{"a": 1',
    "deep-nesting": "[" * 10_000,
}


def json_error(line: str, lineno: int) -> str:
    """A pattern for the whole error ``json.loads`` gives for ``line``,
    as a JSONL reader reports it at ``lineno``."""
    try:
        json.loads(line)
    except (ValueError, RecursionError) as e:
        return re.escape(f"line {lineno}: {e}") + r"\Z"
    raise AssertionError(f"json.loads accepts {line!r}")


def random_boxes(rng: np.random.Generator, n: int, size: float = 100.0) -> np.ndarray:
    x1 = rng.uniform(0.0, size * 0.7, n)
    y1 = rng.uniform(0.0, size * 0.7, n)
    w = rng.uniform(1.0, size * 0.3, n)
    h = rng.uniform(1.0, size * 0.3, n)
    return np.stack([x1, y1, np.minimum(x1 + w, size), np.minimum(y1 + h, size)], axis=1)


def make_record(
    rng: np.random.Generator,
    image_id: str = "img0",
    num_proposals: int = 6,
    num_classes: int = 3,
    feat_dim: int = 8,
    size: float = 100.0,
    caption: str | None = None,
    labels: set[int] | None = None,
    with_gt: bool = False,
    depths: np.ndarray | None = None,
) -> ImageRecord:
    boxes = random_boxes(rng, num_proposals, size)
    gt = None
    if with_gt:
        gt = [(Box(*boxes[0].tolist()), 0)]
        if num_classes > 1 and num_proposals > 1:
            gt.append((Box(*boxes[1].tolist()), 1))
    if depths is None:
        depths = rng.uniform(0.0, 1.0, num_proposals)
    return ImageRecord(
        image_id=image_id,
        width=int(size),
        height=int(size),
        proposals=boxes,
        rgb_features=rng.standard_normal((num_proposals, feat_dim)),
        depth_features=rng.standard_normal((num_proposals, feat_dim)),
        proposal_depths=np.asarray(depths, dtype=np.float64),
        caption=caption,
        labels=labels,
        gt_boxes=gt,
    )


def grad_span(params: list[Param]) -> GradSpan:
    """The gradient span of ``params`` under an optimizer over just them.

    The optimizer rebinds each ``Param.grad`` to a view of its buffer, so
    the chains' in-order adds into the span show in the parameters' grads.
    """
    return SGD(params, lr=1.0).grad_span(params)


def score_stream(det: np.ndarray, cls: np.ndarray) -> tuple[np.ndarray, HeadParams]:
    """A (features, head) stream of one image whose raw scores are exactly
    ``det``/``cls``.

    Identity features times the score matrices plus a zero bias reproduces
    them bit for bit, so tests can drive the MIL forward from raw scores.
    The features are a stack of one, (1, R, R).
    """
    zero = np.zeros(det.shape[1])
    head = HeadParams(
        Param("det.w", det), Param("det.b", zero),
        Param("cls.w", cls), Param("cls.b", zero),
    )
    return np.eye(det.shape[0])[None], head


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(0)


@pytest.fixture
def small_vocab() -> ClassVocabulary:
    return ClassVocabulary(["bird", "cat", "dog"], {"bird": ["birds"]})
