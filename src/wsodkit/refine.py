"""Pseudo-box mining, instance refinement branches, and depth attention.

Mining turns the previous stage's per-proposal class scores into pseudo
ground truth for each image label: candidates are optionally restricted to
proposals whose depth mask admits the class, the best-scoring candidate
seeds a cluster, and well-overlapping, well-scoring candidates join it.
Refinement branches are per-proposal classifiers over C classes plus
background, supervised by those pseudo boxes with the miner's confidence as
the loss weight. Depth attention softens the same mask into a multiplier
that halves out-of-range evidence on the path into the image prediction.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from wsodkit import kernels, numkit
from wsodkit.data import ImageRecord
from wsodkit.errors import ShapeError
from wsodkit.numkit import Param
from wsodkit.priors import DepthMask

DEFAULT_IOU_THRESH = 0.5
DEFAULT_SCORE_RATIO = 0.5
ATTENTION_MULTIPLIER = 0.5


@dataclass
class RefineBranch:
    """One affine refinement head over C + 1 outputs (background last)."""

    w: Param
    b: Param

    @classmethod
    def create(
        cls,
        index: int,
        rng: np.random.Generator,
        feat_dim: int,
        num_classes: int,
        scale: float,
    ) -> "RefineBranch":
        return cls(
            w=Param(f"refine.{index}.w", rng.normal(0.0, scale, (feat_dim, num_classes + 1))),
            b=Param(f"refine.{index}.b", np.zeros(num_classes + 1)),
        )

    def params(self) -> list[Param]:
        return [self.w, self.b]


@dataclass
class PseudoBoxes:
    """Mined pseudo ground truth: per class, (proposal index, score) pairs.

    The first entry of each class list is the seed (argmax candidate); the
    rest are its cluster members in ascending proposal order.
    """

    by_class: dict[int, list[tuple[int, float]]]

    def flat(self) -> list[tuple[int, int, float]]:
        """(class_id, proposal_index, score) triples in deterministic order."""
        out = []
        for cid in sorted(self.by_class):
            for idx, s in self.by_class[cid]:
                out.append((cid, idx, s))
        return out


def mine(
    record: ImageRecord,
    scores: np.ndarray,
    labels: set[int],
    mask: DepthMask | None = None,
    iou_thresh: float = DEFAULT_IOU_THRESH,
    score_ratio: float = DEFAULT_SCORE_RATIO,
) -> PseudoBoxes:
    """Select pseudo boxes for each image label from supervising scores.

    For label c the candidate pool is the proposals the depth mask admits
    (all of them when the mask is absent, and again all of them when the
    pool would be empty). The top-scoring candidate is the seed; candidates
    with IoU >= ``iou_thresh`` against it and score >= ``score_ratio``
    times the seed's score join the cluster.
    """
    r = record.num_proposals
    if scores.ndim != 2 or scores.shape[0] != r:
        raise ShapeError(f"scores must have shape (R, C), got {scores.shape}")
    if not labels:
        raise ShapeError("mine requires a nonempty label set")
    by_class: dict[int, list[tuple[int, float]]] = {}
    for c in sorted(labels):
        if mask is not None:
            cand = np.nonzero(mask.column(c))[0]
            if cand.size == 0:
                cand = np.arange(r)
        else:
            cand = np.arange(r)
        col = scores[cand, c]
        seed_pos = int(np.argmax(col))
        seed = int(cand[seed_pos])
        seed_score = float(col[seed_pos])
        ious = kernels.iou_matrix(
            record.proposals[cand], record.proposals[seed][None, :]
        )[:, 0]
        entries = [(seed, seed_score)]
        for pos, idx in enumerate(cand):
            if int(idx) == seed:
                continue
            if ious[pos] >= iou_thresh and col[pos] >= score_ratio * seed_score:
                entries.append((int(idx), float(col[pos])))
        by_class[c] = entries
    return PseudoBoxes(by_class=by_class)


def assign_targets(
    record: ImageRecord,
    pseudo: PseudoBoxes,
    num_classes: int,
    iou_thresh: float = DEFAULT_IOU_THRESH,
) -> tuple[np.ndarray, np.ndarray]:
    """Per-proposal refinement targets and weights.

    Each proposal matches the pseudo box it overlaps most (ties keep the
    first in class-then-index order). At IoU >= ``iou_thresh`` the proposal
    takes that pseudo box's class and score as weight; otherwise it is
    background (class index C) and inherits the nearest pseudo box's score,
    or weight 1 when there are no pseudo boxes at all.
    """
    r = record.num_proposals
    targets = np.full(r, num_classes, dtype=np.int64)
    weights = np.ones(r, dtype=np.float64)
    entries = pseudo.flat()
    if not entries:
        return targets, weights
    boxes = record.proposals[[idx for _, idx, _ in entries]]
    ious = kernels.iou_matrix(record.proposals, boxes)
    best = np.argmax(ious, axis=1)
    for i in range(r):
        j = int(best[i])
        cid, _, score = entries[j]
        weights[i] = score
        if ious[i, j] >= iou_thresh:
            targets[i] = cid
    return targets, weights


def refinement_chain(
    record: ImageRecord,
    branch: RefineBranch,
    targets: np.ndarray,
    weights: np.ndarray,
    grad_scale: float = 0.0,
) -> tuple[float, np.ndarray]:
    """Weighted cross-entropy of one branch against assigned targets.

    Loss is ``-(1/R) * sum_i w_i * log q_i[target_i]`` with q the row
    softmax of the branch scores over C + 1 classes. Supervision weights
    are constants; with ``grad_scale`` nonzero, gradients of
    ``grad_scale * loss`` accumulate into the branch parameters only.

    Returns (loss, q) where q holds the branch's class probabilities.
    """
    r = record.num_proposals
    logits = numkit.affine(record.rgb_features, branch.w.value, branch.b.value)
    q = numkit.softmax_rows(logits)
    picked = q[np.arange(r), targets]
    loss = float(-(weights * numkit.log_clamped(picked)).sum() / r)
    if grad_scale != 0.0:
        # Rows where the clamp binds contribute no gradient.
        live = numkit.dlog_clamped(picked) * picked
        coef = (weights * live) / r
        d_logits = q * coef[:, None]
        d_logits[np.arange(r), targets] -= coef
        d_logits *= grad_scale
        dw, db = numkit.affine_backward(record.rgb_features, d_logits)
        branch.w.grad += dw
        branch.b.grad += db
    return loss, q


def attention_multipliers(
    mask: DepthMask, multiplier: float = ATTENTION_MULTIPLIER
) -> np.ndarray:
    """(R, C) multiplier matrix: 1 where the mask admits, else ``multiplier``."""
    values = mask.values.astype(np.float64)
    return values + (1.0 - values) * multiplier
