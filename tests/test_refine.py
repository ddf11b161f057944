"""Pseudo-box mining, target assignment, refinement loss, depth attention."""

import math

import numpy as np
import pytest

from wsodkit import kernels, refine
from wsodkit.data import Box
from wsodkit.errors import ShapeError
from wsodkit.priors import DepthMask, DepthRange, FrozenPriors, depth_mask
from wsodkit.refine import (
    RefineBranch,
    assign_targets,
    attention_multipliers,
    mine,
    refinement_chain,
)

from conftest import grad_span, make_record
from reference import assign_targets_loop, grad_check, mine_loop, pseudo_boxes


def stacked_record(rng, boxes, depths=None, **kw):
    """Record with hand-placed proposal geometry."""
    rec = make_record(rng, "r", num_proposals=len(boxes), **kw)
    rec.proposals[:] = np.array(boxes, dtype=np.float64)
    if depths is not None:
        rec.proposal_depths[:] = depths
    return rec


def by_class(pseudo):
    """Mined arrays as class id -> [(proposal index, score), ...]."""
    out = {}
    for c, idx, score in zip(
        pseudo.class_ids.tolist(), pseudo.indices.tolist(), pseudo.scores.tolist()
    ):
        out.setdefault(c, []).append((idx, score))
    return out


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
        assert by_class(pseudo)[0] == [(1, 0.5)]

    def test_no_mask_seed_is_argmax(self, rng):
        rec = stacked_record(
            rng, [[0, 0, 10, 10], [20, 20, 30, 30], [40, 40, 50, 50]]
        )
        scores = np.array([[0.9], [0.5], [0.99]])
        pseudo = mine(rec, scores, {0})
        assert by_class(pseudo)[0][0] == (2, 0.99)

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
        assert by_class(pseudo)[0][0] == (1, 0.7)

    def test_cluster_requires_iou_and_score(self, rng):
        # Proposal 1 overlaps the seed at IoU 2/3; proposal 2 is disjoint.
        rec = stacked_record(
            rng,
            [[0, 0, 10, 10], [0, 2, 10, 12], [50, 50, 60, 60]],
        )
        scores = np.array([[0.8], [0.5], [0.7]])
        got = mine(rec, scores, {0}, iou_thresh=0.5, score_ratio=0.5)
        assert by_class(got)[0] == [(0, 0.8), (1, 0.5)]
        # Raising the score ratio ejects the neighbour.
        got = mine(rec, scores, {0}, iou_thresh=0.5, score_ratio=0.7)
        assert by_class(got)[0] == [(0, 0.8)]
        # Raising the IoU bar does too.
        got = mine(rec, scores, {0}, iou_thresh=0.7, score_ratio=0.5)
        assert by_class(got)[0] == [(0, 0.8)]

    def test_cluster_thresholds_inclusive(self, rng):
        rec = stacked_record(rng, [[0, 0, 10, 10], [0, 2, 10, 12]])
        scores = np.array([[0.8], [0.4]])
        got = mine(rec, scores, {0}, iou_thresh=2.0 / 3.0, score_ratio=0.5)
        assert by_class(got)[0] == [(0, 0.8), (1, 0.4)]

    def test_one_entry_per_label(self, rng):
        rec = stacked_record(rng, [[0, 0, 10, 10], [20, 20, 30, 30]])
        scores = np.array([[0.9, 0.1], [0.2, 0.8]])
        pseudo = mine(rec, scores, {0, 1})
        assert set(by_class(pseudo)) == {0, 1}
        assert by_class(pseudo)[0][0] == (0, 0.9)
        assert by_class(pseudo)[1][0] == (1, 0.8)

    def test_empty_labels_rejected(self, rng):
        rec = stacked_record(rng, [[0, 0, 10, 10]])
        with pytest.raises(ShapeError):
            mine(rec, np.array([[0.5]]), set())

    def test_score_shape_checked(self, rng):
        rec = stacked_record(rng, [[0, 0, 10, 10], [20, 20, 30, 30]])
        with pytest.raises(ShapeError):
            mine(rec, np.array([[0.5]]), {0})

    def test_flat_order_deterministic(self, rng):
        # Classes ascend; within one the seed (proposal 2) leads and its
        # members follow in ascending proposal order.
        rec = stacked_record(
            rng, [[0, 0, 10, 10], [0, 1, 10, 11], [0, 0, 10, 11], [50, 50, 60, 60]]
        )
        scores = np.array(
            [[0.7, 0.0, 0.1], [0.6, 0.0, 0.2], [0.9, 0.0, 0.3], [0.1, 0.0, 0.6]]
        )
        pseudo = mine(rec, scores, {2, 0})
        assert pseudo.class_ids.tolist() == [0, 0, 0, 2]
        assert pseudo.indices.tolist() == [2, 0, 1, 3]
        assert pseudo.scores.tolist() == [0.9, 0.7, 0.6, 0.6]
        assert pseudo.class_ids.dtype == pseudo.indices.dtype == np.int64
        assert pseudo.scores.dtype == np.float64


class TestAssignTargets:
    def test_overlap_and_background_split(self, rng):
        # Proposal 0 is the pseudo box, 1 overlaps it at 2/3, 2 is far away.
        rec = stacked_record(
            rng, [[0, 0, 10, 10], [0, 2, 10, 12], [50, 50, 60, 60]]
        )
        pseudo = pseudo_boxes({1: [(0, 0.9)]})
        targets, weights = assign_targets(rec, pseudo, num_classes=2)
        assert targets.tolist() == [1, 1, 2]
        assert np.allclose(weights, [0.9, 0.9, 0.9], atol=1e-15)

    def test_best_overlap_wins_between_classes(self, rng):
        rec = stacked_record(
            rng,
            [[0, 0, 10, 10], [100, 100, 110, 110], [0, 1, 10, 11]],
        )
        pseudo = pseudo_boxes({0: [(0, 0.5)], 1: [(1, 0.8)]})
        targets, weights = assign_targets(rec, pseudo, num_classes=2)
        # Proposal 2 overlaps pseudo box 0 far more than pseudo box 1.
        assert targets[2] == 0
        assert weights[2] == pytest.approx(0.5)
        assert targets[0] == 0 and targets[1] == 1

    def test_iou_threshold_controls_assignment(self, rng):
        rec = stacked_record(rng, [[0, 0, 10, 10], [0, 4, 10, 14]])
        pseudo = pseudo_boxes({0: [(0, 0.7)]})
        # IoU(0, 1) = 60/140 = 3/7 < 0.5: background at the default bar.
        targets, weights = assign_targets(rec, pseudo, num_classes=1)
        assert targets.tolist() == [0, 1]
        assert weights[1] == pytest.approx(0.7)
        targets, _ = assign_targets(rec, pseudo, num_classes=1, iou_thresh=0.4)
        assert targets.tolist() == [0, 0]


def cache_cases():
    """Mining inputs for the cached-block pins.

    Sizes straddle ``PAIR_IOU_MAX_R``. Cases cycle through no mask, random
    masks, a mask that empties class 0's pool (the fallback), and tied
    scores over duplicated boxes, under three threshold pairs.
    """
    rng = np.random.default_rng(11)
    bound = refine.PAIR_IOU_MAX_R
    for r in (1, 2, 7, 20, bound, bound + 1, 150):
        for trial in range(8):
            rec = make_record(rng, f"r{r}", num_proposals=r, num_classes=3)
            scores = rng.uniform(size=(r, 3))
            admit = rng.uniform(size=(r, 3)) < 0.5
            mask = None
            if trial % 4 == 1:
                mask = DepthMask(values=admit)
            elif trial % 4 == 2:
                admit[:, 0] = False
                mask = DepthMask(values=admit)
            elif trial % 4 == 3:
                rec.proposals[1::2] = rec.proposals[::2][: r // 2]
                scores = rng.integers(0, 3, (r, 3)) / 2.0
            size = int(rng.integers(1, 4))
            labels = set(rng.choice(3, size=size, replace=False).tolist())
            thresh = [(0.5, 0.5), (0.0, 0.0), (0.3, 0.9)][trial % 3]
            yield rec, scores, labels, mask, thresh


class TestPairIouCache:
    def test_block_is_one_kernel_call_within_bound(self, rng):
        bound = refine.PAIR_IOU_MAX_R
        for r in (1, 20, bound):
            rec = make_record(rng, "r", num_proposals=r)
            block = refine.pair_iou(rec)
            direct = kernels.iou_matrix(rec.proposals, rec.proposals)
            assert block.tobytes() == direct.tobytes()
        assert refine.pair_iou(make_record(rng, "r", num_proposals=bound + 1)) is None

    def test_block_is_bitwise_symmetric(self, rng):
        # Mining reads the block by rows where a direct call gives columns.
        # Zero-area boxes and -0.0 beside 0.0 coordinates are the cases where
        # max/min could pick a different zero in the two orders.
        random = rng.uniform(0, 50, size=(20, 4))
        random[:, 2:] += random[:, :2]
        flat = random.copy()
        flat[::3, 2] = flat[::3, 0]
        flat[1::3, 3] = flat[1::3, 1]
        signed = np.abs(random)
        signed[:8, :2] = 0.0
        signed[::2, :2] = -0.0
        signed[::3, 2:] = signed[::3, :2] + [[4.0, 0.0]]
        for boxes in (random, flat, signed):
            rec = make_record(rng, "r", num_proposals=len(boxes))
            rec.proposals[:] = boxes
            block = refine.pair_iou(rec)
            assert block.tobytes() == block.T.copy().tobytes()
        assert np.signbit(signed[::2, :2]).all()

    def test_cached_block_matches_direct_kernel(self):
        # Any slice of the R x R block equals a direct kernel call bit for
        # bit, so the cache moves no pseudo box, target or weight. Records
        # above the bound get no block in training; one is built here anyway.
        fallbacks = duplicates = 0
        for rec, scores, labels, mask, (t, ratio) in cache_cases():
            fallbacks += mask is not None and not mask.values[:, 0].any() and 0 in labels
            duplicates += len(np.unique(rec.proposals, axis=0)) < rec.num_proposals
            block = kernels.iou_matrix(rec.proposals, rec.proposals)
            direct = mine(rec, scores, labels, mask, t, ratio)
            cached = mine(rec, scores, labels, mask, t, ratio, pair_ious=block)
            oracle = mine_loop(rec, scores, labels, mask, t, ratio)
            for f in ("class_ids", "indices", "scores"):
                arrays = [getattr(p, f) for p in (direct, cached, pseudo_boxes(oracle))]
                assert len({a.dtype for a in arrays}) == 1, f
                assert len({a.tobytes() for a in arrays}) == 1, f
            got = assign_targets(rec, direct, 3, t)
            hit = assign_targets(rec, direct, 3, t, pair_ious=block)
            want = assign_targets_loop(rec, oracle, 3, t)
            for a, b, c in zip(got, hit, want):
                assert a.dtype == b.dtype == c.dtype
                assert a.tobytes() == b.tobytes() == c.tobytes()
        assert fallbacks and duplicates


class TestRefinementChain:
    def test_uniform_branch_log_c_plus_one(self, rng):
        # Zero weights give uniform q over C+1=3 classes; unit supervision
        # weight on a single proposal yields exactly log 3.
        rec = make_record(rng, "r", num_proposals=1, feat_dim=4)
        branch = RefineBranch.create(rng, 4, 2, 0.01)
        branch.w.value[:] = 0.0
        branch.b.value[:] = 0.0
        [loss] = refinement_chain(
            rec.rgb_features[None], branch, np.array([[0]]), np.array([[1.0]])
        )
        assert loss == pytest.approx(math.log(3.0), abs=1e-12)

    def test_weighted_mean_oracle(self, rng):
        rec = make_record(rng, "r", num_proposals=3, feat_dim=4)
        branch = RefineBranch.create(rng, 4, 2, 0.3)
        targets = np.array([0, 2, 1])
        weights = np.array([0.9, 1.0, 0.25])
        [loss] = refinement_chain(
            rec.rgb_features[None], branch, targets[None], weights[None]
        )
        logits = rec.rgb_features @ branch.w.value + branch.b.value
        e = np.exp(logits - logits.max(axis=1, keepdims=True))
        q = e / e.sum(axis=1, keepdims=True)
        manual = -sum(
            w * math.log(q[i, t]) for i, (t, w) in enumerate(zip(targets, weights))
        ) / 3.0
        assert loss == pytest.approx(manual, abs=1e-12)

    def test_zero_weights_zero_loss(self, rng):
        rec = make_record(rng, "r", num_proposals=2, feat_dim=4)
        branch = RefineBranch.create(rng, 4, 2, 0.3)
        [loss] = refinement_chain(
            rec.rgb_features[None], branch, np.array([[0, 1]]), np.zeros((1, 2))
        )
        assert loss == 0.0

    def test_gradients_finite_difference(self, rng):
        rec = make_record(rng, "r", num_proposals=5, feat_dim=4)
        branch = RefineBranch.create(rng, 4, 3, 0.4)
        targets = np.array([0, 3, 1, 2, 3])
        weights = rng.uniform(0.1, 1.0, size=5)
        grads = grad_span(branch.params())

        def f():
            [loss] = refinement_chain(
                rec.rgb_features[None], branch, targets[None], weights[None],
                grad_scale=1.0, grads=grads,
            )
            return loss

        assert grad_check(f, branch.params()) < 1e-6

    def test_grad_scale_zero_no_accumulation(self, rng):
        rec = make_record(rng, "r", num_proposals=2, feat_dim=4)
        branch = RefineBranch.create(rng, 4, 2, 0.3)
        for p in branch.params():
            p.grad[...] = 0.0
        refinement_chain(
            rec.rgb_features[None], branch, np.array([[0, 2]]), np.ones((1, 2))
        )
        assert all(not p.grad.any() for p in branch.params())


    def test_stack_equals_single_image_calls(self, rng):
        b, r, d, c = 3, 6, 4, 2
        branch = RefineBranch.create(rng, d, c, 0.4)
        x = rng.standard_normal((b, r, d))
        targets = rng.integers(0, c + 1, size=(b, r))
        weights = rng.uniform(0.1, 1.0, size=(b, r))
        span = grad_span(branch.params())
        for p in branch.params():
            p.grad[...] = 0.0
        losses = refinement_chain(x, branch, targets, weights, grad_scale=0.25,
                                  grads=span)
        grads = [p.grad.copy() for p in branch.params()]
        for p in branch.params():
            p.grad[...] = 0.0
        singles = [
            refinement_chain(x[k : k + 1], branch, targets[k : k + 1],
                             weights[k : k + 1], grad_scale=0.25, grads=span)
            for k in range(b)
        ]
        assert losses == [loss for one in singles for loss in one]
        assert all(g.any() for g in grads)
        for p, g in zip(branch.params(), grads):
            assert p.grad.tobytes() == g.tobytes(), p.name

    def test_long_single_class_stack_adds_in_order(self, rng):
        # Eleven images, C=1, onto a nonzero gradient: each image's gradient
        # still adds in stack order, one after another.
        b, r, d = 11, 5, 3
        branch = RefineBranch.create(rng, d, 1, 0.4)
        x = rng.standard_normal((b, r, d)) * 10.0 ** rng.integers(-3, 4, (b, 1, 1))
        targets = rng.integers(0, 2, size=(b, r))
        weights = rng.uniform(0.1, 1.0, size=(b, r))
        start = [rng.standard_normal(p.value.shape) for p in branch.params()]
        span = grad_span(branch.params())
        for p, g in zip(branch.params(), start):
            p.grad[...] = g
        refinement_chain(x, branch, targets, weights, grad_scale=0.5, grads=span)
        grads = [p.grad.copy() for p in branch.params()]
        for p, g in zip(branch.params(), start):
            p.grad[...] = g
        for k in range(b):
            refinement_chain(x[k : k + 1], branch, targets[k : k + 1],
                             weights[k : k + 1], grad_scale=0.5, grads=span)
        for p, g in zip(branch.params(), grads):
            assert p.grad.tobytes() == g.tobytes(), p.name

    def test_unstacked_features_rejected(self, rng):
        rec = make_record(rng, "r", num_proposals=2, feat_dim=4)
        branch = RefineBranch.create(rng, 4, 2, 0.3)
        with pytest.raises(ShapeError):
            refinement_chain(rec.rgb_features, branch, np.array([0, 1]), np.ones(2))


class TestDepthAttention:
    def test_multiplier_matrix(self):
        mask = DepthMask(values=np.array([[True, False], [False, True]]))
        mult = attention_multipliers(mask)
        assert mult.tolist() == [[1.0, 0.5], [0.5, 1.0]]

    def test_halves_rejected_entries(self, rng):
        combined = rng.uniform(size=(3, 2))
        mask = DepthMask(values=np.array([[True, False], [False, True], [True, True]]))
        out = combined * attention_multipliers(mask)
        assert out[0, 0] == combined[0, 0]
        assert out[0, 1] == pytest.approx(0.5 * combined[0, 1], abs=1e-15)
        assert out[1, 0] == pytest.approx(0.5 * combined[1, 0], abs=1e-15)
        assert np.array_equal(out[2], combined[2])

    def test_all_ones_mask_is_identity(self, rng):
        combined = rng.uniform(size=(4, 3))
        mask = DepthMask(values=np.ones((4, 3), dtype=bool))
        assert np.array_equal(combined * attention_multipliers(mask), combined)

    def test_custom_multiplier(self):
        mask = DepthMask(values=np.array([[False]]))
        out = np.array([[1.0]]) * attention_multipliers(mask, 0.25)
        assert out[0, 0] == pytest.approx(0.25, abs=1e-15)
        assert refine.ATTENTION_MULTIPLIER == 0.5
