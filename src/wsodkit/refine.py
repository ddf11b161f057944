"""Pseudo-box mining, the instance refinement branch, and depth attention.

Mining turns the MIL head's per-proposal class scores into pseudo ground
truth for each image label. Proposals a depth mask refuses read -inf in
the class column, so its argmax is the seed, and one array expression over
the column and the seed's IoU row picks the well-overlapping, well-scoring
proposals that join the seed's cluster. ``mine`` works on one image at a
time and returns its ``PseudoBoxes`` as three flat arrays (class ids,
proposal indices, scores) rather than one object per box. The refinement
branch is a per-proposal classifier over C classes plus background,
supervised by those pseudo boxes with the miner's confidence as the loss
weight. ``refinement_chain`` scores a stack of same-R images in one call,
as ``milhead.mil_chain`` does, and every image of the stack gets the bits
it would get alone. Depth attention softens the same mask into a
multiplier that halves out-of-range evidence on the path into the image
prediction.

Proposals are fixed for a whole run, so ``pair_iou`` builds a record's
R x R proposal IoU block once: ``mine`` reads the seed's row and
``assign_targets`` gathers the pseudo boxes' columns. The IoU formula is
elementwise and symmetric in its two boxes, so the block is bitwise
symmetric, and both slices are bitwise equal to a direct kernel call.
Records with more than ``PAIR_IOU_MAX_R`` proposals get no block and call
the kernel each time.
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
# Most proposals a record may have for ``pair_iou`` to cache its R x R IoU
# block: 32 KB at the bound, 3.2 KB at the stock R=20. There the block
# replaces the ~2.6 20x1 and 20xk kernel calls an image makes per epoch,
# each ~16-21 us of NumPy call overhead. One block at R=2000 would
# take 32 MB and ~160 ms to build.
PAIR_IOU_MAX_R = 64


@dataclass
class RefineBranch:
    """The affine refinement head over C + 1 outputs (background last)."""

    w: Param
    b: Param

    @classmethod
    def create(
        cls, rng: np.random.Generator, feat_dim: int, num_classes: int, scale: float
    ) -> "RefineBranch":
        return cls(
            w=Param("refine.0.w", rng.normal(0.0, scale, (feat_dim, num_classes + 1))),
            b=Param("refine.0.b", np.zeros(num_classes + 1)),
        )

    def params(self) -> list[Param]:
        return [self.w, self.b]


@dataclass
class PseudoBoxes:
    """Mined pseudo ground truth: entry j is box ``indices[j]`` of class
    ``class_ids[j]``, with the miner's confidence ``scores[j]``.

    Entries run class by class in ascending class id. Within a class the
    seed (argmax candidate) comes first, then its cluster members in
    ascending proposal order. Ids and indices are int64, scores float64.
    """

    class_ids: np.ndarray
    indices: np.ndarray
    scores: np.ndarray


def pair_iou(record: ImageRecord) -> np.ndarray | None:
    """The record's (R, R) proposal IoU block, or None above ``PAIR_IOU_MAX_R``."""
    if record.num_proposals > PAIR_IOU_MAX_R:
        return None
    return kernels.iou_matrix(record.proposals, record.proposals)


def mine(
    record: ImageRecord,
    scores: np.ndarray,
    labels: set[int],
    mask: DepthMask | None = None,
    iou_thresh: float = DEFAULT_IOU_THRESH,
    score_ratio: float = DEFAULT_SCORE_RATIO,
    pair_ious: np.ndarray | None = None,
) -> PseudoBoxes:
    """Select pseudo boxes for each image label from supervising scores.

    For label c the pool is the proposals the depth mask admits (all of
    them when the mask is absent or admits none). Refused proposals read
    -inf in the class column, so its argmax is the seed, the top-scoring
    pooled proposal (the first on ties); pooled proposals with IoU >=
    ``iou_thresh`` against it and score >= ``score_ratio`` times its score
    join the cluster. ``pair_ious`` is the record's ``pair_iou`` block,
    when it has one.
    """
    r = record.num_proposals
    if scores.ndim != 2 or scores.shape[0] != r:
        raise ShapeError(f"scores must have shape (R, C), got {scores.shape}")
    if not labels:
        raise ShapeError("mine requires a nonempty label set")
    # Entries gather in lists and become arrays once: at the stock R=20 a
    # label's pool is a handful of proposals, so per-class arrays would cost
    # more than they carry.
    class_ids, indices, values = [], [], []
    for c in sorted(labels):
        col = scores[:, c]
        if mask is not None:
            admit = mask.column(c)
            if admit.any():
                col = np.where(admit, col, -np.inf)
        seed = int(col.argmax())
        seed_score = float(col[seed])
        if pair_ious is not None:
            ious = pair_ious[seed]
        else:
            ious = kernels.iou_matrix(record.proposals, record.proposals[[seed]])[:, 0]
        join = (ious >= iou_thresh) & (col >= score_ratio * seed_score)
        join[seed] = False
        members = join.nonzero()[0]
        class_ids += [c] * (1 + members.size)
        indices.append(seed)
        indices += members.tolist()
        values.append(seed_score)
        values += col[members].tolist()
    return PseudoBoxes(
        class_ids=np.array(class_ids, dtype=np.int64),
        indices=np.array(indices, dtype=np.int64),
        scores=np.array(values, dtype=np.float64),
    )


def assign_targets(
    record: ImageRecord,
    pseudo: PseudoBoxes,
    num_classes: int,
    iou_thresh: float = DEFAULT_IOU_THRESH,
    pair_ious: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Per-proposal refinement targets and weights.

    ``pseudo`` holds at least one box, as ``mine`` yields for a nonempty
    label set. Each proposal matches the pseudo box it overlaps most (ties
    keep the first in class-then-index order). At IoU >= ``iou_thresh`` the
    proposal takes that pseudo box's class and score as weight; otherwise
    it is background (class index C) and inherits that box's score.
    The IoU block is (R, k) against the k pseudo boxes: columns of the
    record's ``pair_iou`` block ``pair_ious`` when it has one (bitwise the
    kernel's block), else one kernel call. (R, k) costs less than its
    transpose at large R: 1.37 against 1.96 ms at R=2000, k=40.
    """
    if pair_ious is not None:
        ious = pair_ious[:, pseudo.indices]
    else:
        ious = kernels.iou_matrix(record.proposals, record.proposals[pseudo.indices])
    best = ious.argmax(axis=1)
    nearest = ious[np.arange(record.num_proposals), best]
    targets = pseudo.class_ids[best]
    targets[nearest < iou_thresh] = num_classes
    return targets, pseudo.scores[best]


def refinement_chain(
    features: np.ndarray,
    branch: RefineBranch,
    targets: np.ndarray,
    weights: np.ndarray,
    grad_scale: float = 0.0,
    grads: numkit.GradSpan | None = None,
) -> list[float]:
    """Weighted cross-entropy of the branch over a stack of same-R images.

    ``features`` is a (B, R, d) stack; ``targets`` and ``weights`` are
    (B, R). Image b's loss is ``-(1/R) * sum_i w_i * log q_i[target_i]``
    with q the row softmax of the branch scores over C + 1 classes.
    Supervision weights are constants; with ``grad_scale`` nonzero,
    gradients of ``grad_scale`` times each loss are added into ``grads``,
    the optimizer's span (``SGD.grad_span``) over the branch's ``w`` and
    ``b``, image by image in stack order, by one ``numkit.add_in_order``
    call, so a stack leaves the same bits in ``Param.grad`` as its images
    would one call each.

    Returns the per-image losses, in stack order.
    """
    if features.ndim != 3 or targets.shape != features.shape[:2]:
        raise ShapeError(
            f"refinement_chain expects features (B, R, d) and targets (B, R), "
            f"got {features.shape} and {targets.shape}"
        )
    r = features.shape[1]
    logits = numkit.affine(features, branch.w.value, branch.b.value)
    q = numkit.softmax_rows(logits)
    # Flat position of each row's target in the contiguous (B, R, C + 1) q.
    k = q.shape[-1]
    at = np.arange(0, q.size, k) + targets.reshape(-1)
    picked = q.reshape(-1)[at].reshape(targets.shape)
    losses = -np.add.reduce(weights * numkit.log_clamped(picked), axis=-1) / r
    if grad_scale != 0.0:
        # Rows where the clamp binds contribute no gradient.
        live = numkit.dlog_clamped(picked) * picked
        coef = (weights * live) / r
        d_logits = q * coef[..., None]
        d_logits.reshape(-1)[at] -= coef.reshape(-1)
        d_logits *= grad_scale
        numkit.add_in_order(grads, numkit.affine_backward(features, d_logits))
    return losses.tolist()


def attention_multipliers(
    mask: DepthMask, multiplier: float = ATTENTION_MULTIPLIER
) -> np.ndarray:
    """(R, C) multiplier matrix: 1 where the mask admits, else ``multiplier``."""
    values = mask.values.astype(np.float64)
    return values + (1.0 - values) * multiplier
