"""Shared builders for the test suite."""

from __future__ import annotations

import numpy as np
import pytest

from wsodkit.data import Box, ClassVocabulary, ImageRecord
from wsodkit.milhead import HeadParams
from wsodkit.numkit import Param


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
