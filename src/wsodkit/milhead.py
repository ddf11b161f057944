"""Two-stream MIL detection head over precomputed proposal features.

A head scores each proposal twice through parallel affine maps: a detection
stream, normalized per class across proposals, and a classification stream,
normalized per proposal across classes. Their elementwise product gives
per-proposal class evidence; summing it per class and squashing through a
sigmoid yields the image-level class probability that the weak image labels
supervise with binary cross-entropy.

``forward`` is the one scoring path: ``mil_chain`` adds the loss and its
backward for training, and ``fusion.forward`` serves inference and mining
diagnostics by choosing which streams to feed it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from wsodkit import numkit
from wsodkit.errors import ShapeError
from wsodkit.numkit import Param


@dataclass
class HeadParams:
    """Affine parameters of the detection and classification streams."""

    w_det: Param
    b_det: Param
    w_cls: Param
    b_cls: Param

    @classmethod
    def create(
        cls,
        prefix: str,
        rng: np.random.Generator,
        feat_dim: int,
        num_classes: int,
        scale: float,
    ) -> "HeadParams":
        return cls(
            w_det=Param(f"{prefix}.det.w", rng.normal(0.0, scale, (feat_dim, num_classes))),
            b_det=Param(f"{prefix}.det.b", np.zeros(num_classes)),
            w_cls=Param(f"{prefix}.cls.w", rng.normal(0.0, scale, (feat_dim, num_classes))),
            b_cls=Param(f"{prefix}.cls.b", np.zeros(num_classes)),
        )

    def params(self) -> list[Param]:
        return [self.w_det, self.b_det, self.w_cls, self.b_cls]

    @property
    def num_classes(self) -> int:
        return self.w_det.value.shape[1]

    @property
    def feat_dim(self) -> int:
        return self.w_det.value.shape[0]


@dataclass
class ScorePack:
    """All per-image score stages, raw scores through image probabilities.

    ``det_prob`` columns each sum to 1 (softmax over proposals per class),
    ``cls_prob`` rows each sum to 1 (softmax over classes per proposal),
    ``combined`` is their product, ``attended`` is ``combined`` times the
    optional attention multipliers (``combined`` itself without them),
    ``total`` is the column sum of ``attended``, and ``image_prob[c]``
    squashes ``total[c]``.
    """

    det_scores: np.ndarray
    cls_scores: np.ndarray
    det_prob: np.ndarray
    cls_prob: np.ndarray
    combined: np.ndarray
    attended: np.ndarray
    total: np.ndarray
    image_prob: np.ndarray


def score(features: np.ndarray, head: HeadParams) -> tuple[np.ndarray, np.ndarray]:
    """Raw detection and classification scores, each (R, C)."""
    det = numkit.affine(features, head.w_det.value, head.b_det.value)
    cls = numkit.affine(features, head.w_cls.value, head.b_cls.value)
    return det, cls


def forward(
    streams: Sequence[tuple[np.ndarray, HeadParams]],
    sigma_on_sum: bool = True,
    attention: np.ndarray | None = None,
) -> ScorePack:
    """Score one image: raw scores of every stream through image probabilities.

    Raw scores are summed over the ``(features, head)`` streams in the
    order given (late fusion passes RGB, then depth). ``attention`` is an
    optional (R, C) multiplier applied to the combined evidence only on the
    path into the image prediction, so ``combined`` stays raw for mining.
    With ``sigma_on_sum`` each per-class sum is squashed through a sigmoid,
    so without attention every entry lies in [0.5, sigmoid(1)]; otherwise
    the sum is clamped into [LOG_EPS, 1 - LOG_EPS].
    """
    (features, head), *rest = streams
    det, cls = score(features, head)
    for features, head in rest:
        s_det, s_cls = score(features, head)
        det, cls = det + s_det, cls + s_cls
    det_prob = numkit.softmax_cols(det)
    cls_prob = numkit.softmax_rows(cls)
    combined = det_prob * cls_prob
    attended = combined if attention is None else combined * attention
    total = attended.sum(axis=0)
    if sigma_on_sum:
        image_prob = numkit.sigmoid(total)
    else:
        image_prob = numkit.clamp_unit(total)
    return ScorePack(
        det_scores=det,
        cls_scores=cls,
        det_prob=det_prob,
        cls_prob=cls_prob,
        combined=combined,
        attended=attended,
        total=total,
        image_prob=image_prob,
    )


def label_vector(labels: set[int], num_classes: int) -> np.ndarray:
    y = np.zeros(num_classes, dtype=np.float64)
    for c in labels:
        y[c] = 1.0
    return y


def mil_chain(
    rgb_features: np.ndarray,
    rgb_head: HeadParams,
    labels: set[int],
    depth_features: np.ndarray | None = None,
    depth_head: HeadParams | None = None,
    attention: np.ndarray | None = None,
    sigma_on_sum: bool = True,
    grad_scale: float = 0.0,
) -> tuple[float, ScorePack]:
    """MIL loss of one image: ``forward``, binary cross-entropy, backward.

    When ``depth_features``/``depth_head`` are given, the depth stream is
    fused after the RGB one. The loss sums, over classes, the binary
    cross-entropy between the image probabilities (clamped before the logs)
    and the image labels. With ``grad_scale`` nonzero, gradients of
    ``grad_scale * loss`` are accumulated into the head parameters.
    Returns the loss and the forward's ``ScorePack``.
    """
    streams = [(rgb_features, rgb_head)]
    if depth_features is not None:
        if depth_head is None:
            raise ShapeError("depth features given without a depth head")
        streams.append((depth_features, depth_head))
    pack = forward(streams, sigma_on_sum, attention)
    image_prob = pack.image_prob
    y = label_vector(labels, image_prob.shape[0])
    p = numkit.clamp_unit(image_prob)
    loss = float(-(y * np.log(p) + (1.0 - y) * np.log(1.0 - p)).sum())

    if grad_scale != 0.0:
        # d loss / d image_prob through the clamped logs.
        dlogp = numkit.dlog_clamped(image_prob)
        dlog1m = numkit.dlog_clamped(1.0 - image_prob)
        d_prob = -(y * dlogp - (1.0 - y) * dlog1m)
        if sigma_on_sum:
            d_total = d_prob * image_prob * (1.0 - image_prob)
        else:
            total = pack.total
            inside = (total > numkit.LOG_EPS) & (total < 1.0 - numkit.LOG_EPS)
            d_total = np.where(inside, d_prob, 0.0)
        d_attended = np.broadcast_to(d_total, pack.attended.shape)
        d_combined = d_attended if attention is None else d_attended * attention
        d_det_prob = d_combined * pack.cls_prob
        d_cls_prob = d_combined * pack.det_prob
        d_det = numkit.softmax_cols_backward(pack.det_prob, d_det_prob)
        d_cls = numkit.softmax_rows_backward(pack.cls_prob, d_cls_prob)
        s = grad_scale
        for features, head in streams:
            _, dw, db = numkit.affine_backward(features, head.w_det.value, d_det)
            head.w_det.grad += s * dw
            head.b_det.grad += s * db
            _, dw, db = numkit.affine_backward(features, head.w_cls.value, d_cls)
            head.w_cls.grad += s * dw
            head.b_cls.grad += s * db

    return loss, pack
