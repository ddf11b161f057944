"""Two-stream MIL detection head over precomputed proposal features.

A head scores each proposal twice through parallel affine maps: a detection
stream, normalized per class across proposals, and a classification stream,
normalized per proposal across classes. Their elementwise product gives
per-proposal class evidence; summing it per class and squashing through a
sigmoid yields the image-level class probability that the weak image labels
supervise with binary cross-entropy.

``forward`` is the one scoring path and scores a stack of same-R images,
features (B, R, d), in one call: ``mil_chain`` adds the losses and their
backward for training, where one call covers a run of same-R images of an
optimizer step, and ``fusion.forward`` serves inference and mining
diagnostics by choosing which streams to feed it, as a stack of one. Every
image of a stack gets the same bits it would get alone.
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


@dataclass
class ScorePack:
    """Score stages of a stack of B images, softmaxes through image
    probabilities.

    Per image b, ``det_prob[b]`` columns each sum to 1 (softmax over
    proposals per class), ``cls_prob[b]`` rows each sum to 1 (softmax over
    classes per proposal), ``combined`` is their product, ``attended`` is
    ``combined`` times the optional attention multipliers (``combined``
    itself without them), and ``image_prob[b, c]`` squashes the sum of
    column c of ``attended[b]``. Score arrays are (B, R, C); ``image_prob``
    is (B, C).
    """

    det_prob: np.ndarray
    cls_prob: np.ndarray
    combined: np.ndarray
    attended: np.ndarray
    image_prob: np.ndarray


def score(features: np.ndarray, head: HeadParams) -> tuple[np.ndarray, np.ndarray]:
    """Raw detection and classification scores, each (..., R, C)."""
    det = numkit.affine(features, head.w_det.value, head.b_det.value)
    cls = numkit.affine(features, head.w_cls.value, head.b_cls.value)
    return det, cls


def forward(
    streams: Sequence[tuple[np.ndarray, HeadParams]],
    attention: np.ndarray | None = None,
) -> ScorePack:
    """Score a stack of same-R images: raw scores through image probabilities.

    Each stream's features are a (B, R, d) stack. Raw scores are summed
    over the ``(features, head)`` streams in the order given (late fusion
    passes RGB, then depth). ``attention`` is an optional (B, R, C)
    multiplier applied to the combined evidence only on the path into the
    image prediction, so ``combined`` stays raw for mining. Each per-class
    sum is squashed through a sigmoid, so without attention every image
    probability lies in [0.5, sigmoid(1)]. Every image of the stack is
    scored bit for bit as it would be alone.
    """
    if any(features.ndim != 3 for features, _ in streams):
        raise ShapeError("stream features must be (B, R, d) stacks")
    (features, head), *rest = streams
    det, cls = score(features, head)
    for features, head in rest:
        s_det, s_cls = score(features, head)
        det, cls = det + s_det, cls + s_cls
    det_prob = numkit.softmax_cols(det)
    cls_prob = numkit.softmax_rows(cls)
    combined = det_prob * cls_prob
    attended = combined if attention is None else combined * attention
    return ScorePack(
        det_prob=det_prob,
        cls_prob=cls_prob,
        combined=combined,
        attended=attended,
        image_prob=numkit.sigmoid(np.add.reduce(attended, axis=-2)),
    )


def label_vector(labels: set[int], num_classes: int) -> np.ndarray:
    y = np.zeros(num_classes, dtype=np.float64)
    for c in labels:
        y[c] = 1.0
    return y


def mil_chain(
    streams: Sequence[tuple[np.ndarray, HeadParams]],
    labels: np.ndarray,
    attention: np.ndarray | None = None,
    grad_scale: float = 0.0,
    grads: numkit.GradSpan | None = None,
) -> tuple[list[float], ScorePack]:
    """MIL losses of a stack of same-R images: ``forward``, BCE, backward.

    ``streams`` and ``attention`` are ``forward``'s: (B, R, d) feature
    stacks, each with its head, fused in the order given. ``labels`` is a
    (B, C) matrix of 0/1 label rows (``label_vector``), one per image. Each
    image's loss sums, over classes, the binary cross-entropy between its
    image probabilities (clamped before the logs) and its labels. With
    ``grad_scale`` nonzero, gradients of ``grad_scale`` times each loss are
    added into ``grads``, the optimizer's span (``SGD.grad_span``) over
    every stream's head parameters in stream order, image by image in
    stack order, by one ``numkit.add_in_order`` call, so a stack leaves the
    same bits in ``Param.grad`` as its images would one call each. Fused
    streams share their raw scores' gradients, so both streams' bias
    gradients come from one sum over proposals.
    Returns the per-image losses and the forward's ``ScorePack``.
    """
    pack = forward(streams, attention)
    image_prob = pack.image_prob
    if labels.shape != image_prob.shape:
        raise ShapeError(
            f"label rows {labels.shape} do not match image probabilities "
            f"{image_prob.shape}"
        )
    y = labels
    not_y = 1.0 - y
    p = numkit.clamp_unit(image_prob)
    losses = -np.add.reduce(y * np.log(p) + not_y * np.log(1.0 - p), axis=-1)

    if grad_scale != 0.0:
        # d loss / d image_prob through the clamped logs.
        q = 1.0 - image_prob
        d_prob = -(y * numkit.dlog_clamped(image_prob) - not_y * numkit.dlog_clamped(q))
        d_total = d_prob * image_prob * q
        # Every proposal's evidence gets its image's d_total; the products
        # below broadcast it over R.
        d_combined = d_total[:, None, :]
        if attention is not None:
            d_combined = d_combined * attention
        d_det = numkit.softmax_cols_backward(pack.det_prob, d_combined * pack.cls_prob)
        d_cls = numkit.softmax_rows_backward(pack.cls_prob, d_combined * pack.det_prob)
        # numkit.affine_backward's products, with each bias sum taken once.
        d_b_det = np.add.reduce(d_det, axis=-2)
        d_b_cls = np.add.reduce(d_cls, axis=-2)
        stacks = []
        for features, _ in streams:
            x_t = np.swapaxes(features, -1, -2)
            stacks += (x_t @ d_det, d_b_det, x_t @ d_cls, d_b_cls)
        numkit.add_in_order(grads, stacks, scale=grad_scale)

    return losses.tolist(), pack
