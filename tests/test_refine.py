"""Pseudo-box mining, target assignment, refinement loss, depth attention."""

import math

import numpy as np
import pytest

from wsodkit import refine
from wsodkit.data import Box
from wsodkit.errors import ShapeError
from wsodkit.priors import DepthMask, DepthRange, FrozenPriors, depth_mask
from wsodkit.refine import (
    PseudoBoxes,
    RefineBranch,
    assign_targets,
    attention_multipliers,
    mine,
    refinement_chain,
)

from conftest import make_record
from reference import grad_check


def stacked_record(rng, boxes, depths=None, **kw):
    """Record with hand-placed proposal geometry."""
    rec = make_record(rng, "r", num_proposals=len(boxes), **kw)
    rec.proposals[:] = np.array(boxes, dtype=np.float64)
    if depths is not None:
        rec.proposal_depths[:] = depths
    return rec


def mask_from_range(rec, lo, hi, num_classes=1):
    return depth_mask(
        rec, FrozenPriors({0: DepthRange(lo, hi)}, {}), num_classes
    )


class TestMine:
    def test_depth_filter_oracle(self, rng):
        # Depths [0.1, 0.3, 0.9] against range [0.2, 0.4]: only proposal 1
        # survives the mask, so it seeds despite a higher raw score at 2.
        rec = stacked_record(
            rng,
            [[0, 0, 10, 10], [20, 20, 30, 30], [40, 40, 50, 50]],
            depths=[0.1, 0.3, 0.9],
        )
        scores = np.array([[0.9], [0.5], [0.99]])
        mask = mask_from_range(rec, 0.2, 0.4)
        pseudo = mine(rec, scores, {0}, mask=mask)
        assert pseudo.by_class[0] == [(1, 0.5)]

    def test_no_mask_seed_is_argmax(self, rng):
        rec = stacked_record(
            rng, [[0, 0, 10, 10], [20, 20, 30, 30], [40, 40, 50, 50]]
        )
        scores = np.array([[0.9], [0.5], [0.99]])
        pseudo = mine(rec, scores, {0})
        assert pseudo.by_class[0][0] == (2, 0.99)

    def test_empty_candidate_pool_falls_back(self, rng):
        # Mask admits nothing: mining reverts to the unfiltered pool.
        rec = stacked_record(
            rng,
            [[0, 0, 10, 10], [20, 20, 30, 30]],
            depths=[0.9, 0.95],
        )
        mask = mask_from_range(rec, 0.1, 0.2)
        assert not mask.column(0).any()
        pseudo = mine(rec, np.array([[0.3], [0.7]]), {0}, mask=mask)
        assert pseudo.by_class[0][0] == (1, 0.7)

    def test_cluster_requires_iou_and_score(self, rng):
        # Proposal 1 overlaps the seed at IoU 2/3; proposal 2 is disjoint.
        rec = stacked_record(
            rng,
            [[0, 0, 10, 10], [0, 2, 10, 12], [50, 50, 60, 60]],
        )
        scores = np.array([[0.8], [0.5], [0.7]])
        got = mine(rec, scores, {0}, iou_thresh=0.5, score_ratio=0.5)
        assert got.by_class[0] == [(0, 0.8), (1, 0.5)]
        # Raising the score ratio ejects the neighbour.
        got = mine(rec, scores, {0}, iou_thresh=0.5, score_ratio=0.7)
        assert got.by_class[0] == [(0, 0.8)]
        # Raising the IoU bar does too.
        got = mine(rec, scores, {0}, iou_thresh=0.7, score_ratio=0.5)
        assert got.by_class[0] == [(0, 0.8)]

    def test_cluster_thresholds_inclusive(self, rng):
        rec = stacked_record(rng, [[0, 0, 10, 10], [0, 2, 10, 12]])
        scores = np.array([[0.8], [0.4]])
        got = mine(rec, scores, {0}, iou_thresh=2.0 / 3.0, score_ratio=0.5)
        assert got.by_class[0] == [(0, 0.8), (1, 0.4)]

    def test_one_entry_per_label(self, rng):
        rec = stacked_record(rng, [[0, 0, 10, 10], [20, 20, 30, 30]])
        scores = np.array([[0.9, 0.1], [0.2, 0.8]])
        pseudo = mine(rec, scores, {0, 1})
        assert set(pseudo.by_class) == {0, 1}
        assert pseudo.by_class[0][0] == (0, 0.9)
        assert pseudo.by_class[1][0] == (1, 0.8)

    def test_empty_labels_rejected(self, rng):
        rec = stacked_record(rng, [[0, 0, 10, 10]])
        with pytest.raises(ShapeError):
            mine(rec, np.array([[0.5]]), set())

    def test_score_shape_checked(self, rng):
        rec = stacked_record(rng, [[0, 0, 10, 10], [20, 20, 30, 30]])
        with pytest.raises(ShapeError):
            mine(rec, np.array([[0.5]]), {0})

    def test_flat_order_deterministic(self):
        pseudo = PseudoBoxes({2: [(5, 0.6)], 0: [(1, 0.9), (3, 0.5)]})
        assert pseudo.flat() == [(0, 1, 0.9), (0, 3, 0.5), (2, 5, 0.6)]
        assert PseudoBoxes({1: []}).flat() == []


class TestAssignTargets:
    def test_overlap_and_background_split(self, rng):
        # Proposal 0 is the pseudo box, 1 overlaps it at 2/3, 2 is far away.
        rec = stacked_record(
            rng, [[0, 0, 10, 10], [0, 2, 10, 12], [50, 50, 60, 60]]
        )
        pseudo = PseudoBoxes({1: [(0, 0.9)]})
        targets, weights = assign_targets(rec, pseudo, num_classes=2)
        assert targets.tolist() == [1, 1, 2]
        assert np.allclose(weights, [0.9, 0.9, 0.9], atol=1e-15)

    def test_background_weight_defaults_to_one_when_no_pseudo(self, rng):
        rec = stacked_record(rng, [[0, 0, 10, 10], [20, 20, 30, 30]])
        targets, weights = assign_targets(rec, PseudoBoxes({}), num_classes=3)
        assert targets.tolist() == [3, 3]
        assert weights.tolist() == [1.0, 1.0]

    def test_best_overlap_wins_between_classes(self, rng):
        rec = stacked_record(
            rng,
            [[0, 0, 10, 10], [100, 100, 110, 110], [0, 1, 10, 11]],
        )
        pseudo = PseudoBoxes({0: [(0, 0.5)], 1: [(1, 0.8)]})
        targets, weights = assign_targets(rec, pseudo, num_classes=2)
        # Proposal 2 overlaps pseudo box 0 far more than pseudo box 1.
        assert targets[2] == 0
        assert weights[2] == pytest.approx(0.5)
        assert targets[0] == 0 and targets[1] == 1

    def test_iou_threshold_controls_assignment(self, rng):
        rec = stacked_record(rng, [[0, 0, 10, 10], [0, 4, 10, 14]])
        pseudo = PseudoBoxes({0: [(0, 0.7)]})
        # IoU(0, 1) = 60/140 = 3/7 < 0.5: background at the default bar.
        targets, weights = assign_targets(rec, pseudo, num_classes=1)
        assert targets.tolist() == [0, 1]
        assert weights[1] == pytest.approx(0.7)
        targets, _ = assign_targets(rec, pseudo, num_classes=1, iou_thresh=0.4)
        assert targets.tolist() == [0, 0]


class TestRefinementChain:
    def test_uniform_branch_log_c_plus_one(self, rng):
        # Zero weights give uniform q over C+1=3 classes; unit supervision
        # weight on a single proposal yields exactly log 3.
        rec = make_record(rng, "r", num_proposals=1, feat_dim=4)
        branch = RefineBranch.create(0, rng, 4, 2, 0.01)
        branch.w.value[:] = 0.0
        branch.b.value[:] = 0.0
        loss, q = refinement_chain(
            rec, branch, np.array([0]), np.array([1.0])
        )
        assert loss == pytest.approx(math.log(3.0), abs=1e-12)
        assert np.allclose(q, 1.0 / 3.0, atol=1e-15)

    def test_weighted_mean_oracle(self, rng):
        rec = make_record(rng, "r", num_proposals=3, feat_dim=4)
        branch = RefineBranch.create(0, rng, 4, 2, 0.3)
        targets = np.array([0, 2, 1])
        weights = np.array([0.9, 1.0, 0.25])
        loss, q = refinement_chain(rec, branch, targets, weights)
        manual = -sum(
            w * math.log(q[i, t]) for i, (t, w) in enumerate(zip(targets, weights))
        ) / 3.0
        assert loss == pytest.approx(manual, abs=1e-12)

    def test_zero_weights_zero_loss(self, rng):
        rec = make_record(rng, "r", num_proposals=2, feat_dim=4)
        branch = RefineBranch.create(0, rng, 4, 2, 0.3)
        loss, _ = refinement_chain(
            rec, branch, np.array([0, 1]), np.zeros(2)
        )
        assert loss == 0.0

    def test_gradients_finite_difference(self, rng):
        rec = make_record(rng, "r", num_proposals=5, feat_dim=4)
        branch = RefineBranch.create(0, rng, 4, 3, 0.4)
        targets = np.array([0, 3, 1, 2, 3])
        weights = rng.uniform(0.1, 1.0, size=5)

        def f():
            loss, _ = refinement_chain(rec, branch, targets, weights, grad_scale=1.0)
            return loss

        assert grad_check(f, branch.params()) < 1e-6

    def test_grad_scale_zero_no_accumulation(self, rng):
        rec = make_record(rng, "r", num_proposals=2, feat_dim=4)
        branch = RefineBranch.create(0, rng, 4, 2, 0.3)
        for p in branch.params():
            p.zero_grad()
        refinement_chain(rec, branch, np.array([0, 2]), np.ones(2))
        assert all(not p.grad.any() for p in branch.params())


class TestDepthAttention:
    def test_multiplier_matrix(self):
        mask = DepthMask(
            values=np.array([[1, 0], [0, 1]], dtype=np.uint8),
            defined_classes={0, 1},
        )
        mult = attention_multipliers(mask)
        assert mult.tolist() == [[1.0, 0.5], [0.5, 1.0]]

    def test_halves_rejected_entries(self, rng):
        combined = rng.uniform(size=(3, 2))
        mask = DepthMask(
            values=np.array([[1, 0], [0, 1], [1, 1]], dtype=np.uint8),
            defined_classes={0, 1},
        )
        out = combined * attention_multipliers(mask)
        assert out[0, 0] == combined[0, 0]
        assert out[0, 1] == pytest.approx(0.5 * combined[0, 1], abs=1e-15)
        assert out[1, 0] == pytest.approx(0.5 * combined[1, 0], abs=1e-15)
        assert np.array_equal(out[2], combined[2])

    def test_all_ones_mask_is_identity(self, rng):
        combined = rng.uniform(size=(4, 3))
        mask = DepthMask(values=np.ones((4, 3), dtype=np.uint8), defined_classes=set())
        assert np.array_equal(combined * attention_multipliers(mask), combined)

    def test_custom_multiplier(self):
        mask = DepthMask(values=np.array([[0]], dtype=np.uint8), defined_classes={0})
        out = np.array([[1.0]]) * attention_multipliers(mask, 0.25)
        assert out[0, 0] == pytest.approx(0.25, abs=1e-15)
        assert refine.ATTENTION_MULTIPLIER == 0.5
