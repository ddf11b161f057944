"""MIL detection head: forward-pass oracles, loss values, gradients."""

import dataclasses
import math

import numpy as np
import pytest

from wsodkit import milhead
from wsodkit.errors import ShapeError
from wsodkit.milhead import HeadParams, ScorePack, label_vector, mil_chain

from conftest import score_stream
from reference import grad_check


def sigma(x: float) -> float:
    return 1.0 / (1.0 + math.exp(-x))


def make_head(rng, feat_dim=4, num_classes=3, scale=0.5, prefix="rgb"):
    return HeadParams.create(prefix, rng, feat_dim, num_classes, scale)


def rows(label_sets, num_classes):
    """``mil_chain``'s (B, C) label rows for a list of label sets."""
    return np.array([label_vector(ls, num_classes) for ls in label_sets]).reshape(
        len(label_sets), num_classes
    )


def first_image(pack):
    """The pack of the first image of a stack, without the stack axis."""
    return ScorePack(
        **{f.name: getattr(pack, f.name)[0] for f in dataclasses.fields(pack)}
    )


def from_scores(det, cls, attention=None):
    """Forward pass of one image through a single stream emitting the given
    raw scores; ``attention`` is that image's (R, C) multiplier."""
    if attention is not None:
        attention = attention[None]
    return first_image(milhead.forward([score_stream(det, cls)], attention))


class TestScore:
    def test_zero_weights_zero_scores(self, rng):
        head = make_head(rng)
        for p in head.params():
            p.value[:] = 0.0
        det, cls = milhead.score(np.ones((2, 4)), head)
        assert not det.any() and not cls.any()

    def test_hand_arithmetic(self, rng):
        head = make_head(rng, feat_dim=2, num_classes=1)
        head.w_det.value[:] = np.array([[2.0], [-1.0]])
        head.b_det.value[:] = 0.5
        det, _ = milhead.score(np.array([[1.0, 0.0]]), head)
        assert det[0, 0] == pytest.approx(2.5, abs=1e-15)

    def test_matches_affine_oracle(self, rng):
        head = make_head(rng, feat_dim=5, num_classes=4)
        x = rng.standard_normal((3, 5))
        det, cls = milhead.score(x, head)
        assert np.allclose(det, x @ head.w_det.value + head.b_det.value, atol=1e-12)
        assert np.allclose(cls, x @ head.w_cls.value + head.b_cls.value, atol=1e-12)

    def test_shape_mismatch(self, rng):
        head = make_head(rng, feat_dim=4)
        with pytest.raises(ShapeError):
            milhead.score(np.ones((2, 5)), head)


class TestProbabilities:
    def test_all_zero_scores_symmetric(self):
        pack = from_scores(np.zeros((2, 2)), np.zeros((2, 2)))
        assert np.allclose(pack.det_prob, 0.5, atol=1e-15)
        assert np.allclose(pack.cls_prob, 0.5, atol=1e-15)
        assert np.allclose(pack.combined, 0.25, atol=1e-15)

    def test_single_proposal_det_prob_one(self, rng):
        pack = from_scores(rng.standard_normal((1, 3)), rng.standard_normal((1, 3)))
        assert np.allclose(pack.det_prob, 1.0, atol=1e-15)

    def test_combined_column_oracle(self):
        det = np.array([[math.log(3.0), 0.0], [0.0, 0.0]])
        cls = np.zeros((2, 2))
        pack = from_scores(det, cls)
        assert np.allclose(pack.combined[:, 0], [0.375, 0.125], atol=1e-12)

    def test_det_prob_columns_cls_prob_rows(self, rng):
        pack = from_scores(
            rng.standard_normal((4, 3)) * 3, rng.standard_normal((4, 3)) * 3
        )
        assert np.allclose(pack.det_prob.sum(axis=0), 1.0, atol=1e-12)
        assert np.allclose(pack.cls_prob.sum(axis=1), 1.0, atol=1e-12)
        assert np.allclose(
            pack.combined, pack.det_prob * pack.cls_prob, atol=1e-15
        )

    def test_det_column_shift_invariance(self, rng):
        det = rng.standard_normal((5, 3))
        cls = rng.standard_normal((5, 3))
        a = from_scores(det, cls)
        b = from_scores(det + np.array([10.0, -4.0, 0.25]), cls)
        assert np.allclose(a.det_prob, b.det_prob, atol=1e-12)


def single_class(column, **kw):
    # With one class the row softmax is 1, so a log-score column yields
    # exactly that (normalized) column of combined evidence.
    col = np.log(np.array(column, dtype=np.float64))[:, None]
    return from_scores(col, np.zeros_like(col), **kw)


class TestImagePrediction:
    def test_zero_column(self, rng):
        # Attention that rejects everything leaves a zero column sum.
        pack = from_scores(
            rng.standard_normal((3, 2)),
            rng.standard_normal((3, 2)),
            attention=np.zeros((3, 2)),
        )
        assert not pack.attended.any()
        assert np.allclose(pack.image_prob, 0.5, atol=1e-15)

    def test_column_summing_to_one(self):
        pack = single_class([0.6, 0.4])
        assert np.allclose(pack.combined[:, 0], [0.6, 0.4], atol=1e-15)
        p = pack.image_prob
        assert p[0] == pytest.approx(sigma(1.0), abs=1e-12)
        assert p[0] == pytest.approx(0.7310585786300049, abs=1e-12)

    def test_point_three(self):
        keep_two = np.array([[1.0], [1.0], [0.0]])
        pack = single_class([0.1, 0.2, 0.7], attention=keep_two)
        assert pack.attended.sum(axis=0)[0] == pytest.approx(0.3, abs=1e-15)
        p = pack.image_prob
        assert p[0] == pytest.approx(sigma(0.3), abs=1e-12)
        assert p[0] == pytest.approx(0.5744425168116589, abs=1e-12)

    def test_range_invariant(self, rng):
        pack = from_scores(
            rng.standard_normal((6, 4)) * 5, rng.standard_normal((6, 4)) * 5
        )
        p = pack.image_prob
        sums = pack.combined.sum(axis=0)
        assert np.allclose(p, 1.0 / (1.0 + np.exp(-sums)), atol=1e-15)
        assert (p >= 0.5 - 1e-12).all()
        assert (p <= sigma(1.0) + 1e-12).all()


def loss_at(probs, labels):
    """``mil_chain``'s loss when its image probabilities are exactly ``probs``.

    One proposal with zero scores gives combined evidence 1/C per class;
    attention ``C * logit(probs)`` rescales it to the logits, which the
    sigmoid maps back to ``probs``.
    """
    probs = np.array(probs)
    c = probs.size
    stream = score_stream(np.zeros((1, c)), np.zeros((1, c)))
    logits = np.log(probs / (1.0 - probs))
    attention = c * logits[None, None, :]
    [loss], pack = mil_chain([stream], rows([labels], c), attention=attention)
    assert np.allclose(pack.image_prob[0], probs, atol=1e-15)
    return loss


class TestMilLoss:
    def test_positive_at_half(self):
        assert loss_at([0.5], {0}) == pytest.approx(math.log(2.0), abs=1e-12)

    def test_negative_at_half(self):
        assert loss_at([0.5], set()) == pytest.approx(math.log(2.0), abs=1e-12)

    def test_two_class_oracle(self):
        got = loss_at([0.7, 0.6], {0})
        assert got == pytest.approx(-math.log(0.7) - math.log(0.4), abs=1e-12)
        assert got == pytest.approx(1.272965676382441, abs=1e-9)

    def test_negative_class_contributes_at_least_log2(self, rng):
        # Image probabilities never drop below 0.5, so each absent class
        # costs at least log 2.
        for _ in range(10):
            stream = score_stream(
                rng.standard_normal((4, 3)) * 4, rng.standard_normal((4, 3)) * 4
            )
            [loss_all_neg], _ = mil_chain([stream], rows([set()], 3))
            assert loss_all_neg >= 3 * math.log(2.0) - 1e-9

    def test_label_vector(self):
        assert label_vector({0, 2}, 4).tolist() == [1.0, 0.0, 1.0, 0.0]


class TestMilChain:
    def test_loss_matches_manual_pipeline(self, rng):
        head = make_head(rng, feat_dim=6, num_classes=3)
        x = rng.standard_normal((5, 6))
        [loss], pack = mil_chain([(x[None], head)], rows([{0, 2}], 3))
        det = x @ head.w_det.value + head.b_det.value
        cls = x @ head.w_cls.value + head.b_cls.value
        ed = np.exp(det - det.max(axis=0, keepdims=True))
        ec = np.exp(cls - cls.max(axis=1, keepdims=True))
        combined = ed / ed.sum(axis=0) * (ec / ec.sum(axis=1, keepdims=True))
        p = 1.0 / (1.0 + np.exp(-combined.sum(axis=0)))
        y = np.array([1.0, 0.0, 1.0])
        bce = -(y * np.log(p) + (1.0 - y) * np.log(1.0 - p)).sum()
        assert loss == pytest.approx(bce, abs=1e-12)
        assert np.allclose(pack.combined[0], combined, atol=1e-15)
        assert pack.attended is pack.combined

    def test_rgb_gradients_finite_difference(self, rng):
        head = make_head(rng, feat_dim=4, num_classes=3)
        x = rng.standard_normal((5, 4))

        def f():
            [loss], _ = mil_chain([(x[None], head)], rows([{1}], 3), grad_scale=1.0)
            return loss

        assert grad_check(f, head.params()) < 1e-6

    def test_fused_gradients_finite_difference(self, rng):
        rgb_head = make_head(rng, feat_dim=4, num_classes=3)
        depth_head = make_head(rng, feat_dim=4, num_classes=3, prefix="depth")
        xv = rng.standard_normal((4, 4))
        xd = rng.standard_normal((4, 4))
        params = rgb_head.params() + depth_head.params()

        def f():
            [loss], _ = mil_chain(
                [(xv[None], rgb_head), (xd[None], depth_head)],
                rows([{0, 2}], 3),
                grad_scale=1.0,
            )
            return loss

        assert grad_check(f, params) < 1e-6

    def test_attention_gradients_finite_difference(self, rng):
        head = make_head(rng, feat_dim=4, num_classes=2)
        x = rng.standard_normal((4, 4))
        att = np.where(rng.uniform(size=(4, 2)) < 0.5, 0.5, 1.0)

        def f():
            [loss], _ = mil_chain(
                [(x[None], head)], rows([{0}], 2), attention=att[None], grad_scale=1.0
            )
            return loss

        assert grad_check(f, head.params()) < 1e-6

    def test_attention_feeds_image_prob_only(self, rng):
        # The attended matrix changes the image-level prediction, while the
        # reported combined matrix stays pre-attention for downstream mining.
        head = make_head(rng, feat_dim=4, num_classes=2)
        x = rng.standard_normal((4, 4))
        att = np.full((4, 2), 0.5)
        [loss_att], pack_att = mil_chain(
            [(x[None], head)], rows([{0}], 2), attention=att[None]
        )
        [loss_plain], pack_plain = mil_chain([(x[None], head)], rows([{0}], 2))
        attended = pack_att.attended
        assert np.allclose(pack_att.combined, pack_plain.combined, atol=1e-15)
        assert np.allclose(attended, pack_plain.combined * 0.5, atol=1e-15)
        assert loss_att != pytest.approx(loss_plain, abs=1e-12)
        assert np.allclose(
            pack_att.image_prob,
            1.0 / (1.0 + np.exp(-attended.sum(axis=1))),
            atol=1e-12,
        )

    def test_grad_scale_scales_linearly(self, rng):
        head = make_head(rng, feat_dim=3, num_classes=2)
        x = rng.standard_normal((3, 3))
        for p in head.params():
            p.grad[...] = 0.0
        mil_chain([(x[None], head)], rows([{0}], 2), grad_scale=1.0)
        g1 = [p.grad.copy() for p in head.params()]
        for p in head.params():
            p.grad[...] = 0.0
        mil_chain([(x[None], head)], rows([{0}], 2), grad_scale=0.25)
        for a, p in zip(g1, head.params()):
            assert np.allclose(p.grad, 0.25 * a, atol=1e-15)

    def test_zero_grad_scale_leaves_grads_untouched(self, rng):
        head = make_head(rng)
        x = rng.standard_normal((2, 4))
        for p in head.params():
            p.grad[...] = 0.0
        mil_chain([(x[None], head)], rows([{0}], 3))
        assert all(not p.grad.any() for p in head.params())


class TestStackedChain:
    @pytest.mark.parametrize("b", [1, 8])
    @pytest.mark.parametrize("mode", ["rgb", "fused", "attention"])
    def test_stack_equals_single_image_calls(self, rng, mode, b):
        r, d, c = 7, 5, 4
        rgb = make_head(rng, feat_dim=d, num_classes=c)
        depth = make_head(rng, feat_dim=d, num_classes=c, prefix="depth")
        params = rgb.params() + depth.params()
        xv = rng.standard_normal((b, r, d))
        xd = rng.standard_normal((b, r, d))
        att = np.where(rng.uniform(size=(b, r, c)) < 0.5, 0.5, 1.0)
        labels = rows(
            [
                set(rng.choice(c, size=int(rng.integers(0, c + 1)), replace=False))
                for _ in range(b)
            ],
            c,
        )
        fused = mode == "fused"

        def run(lo, hi):
            streams = [(xv[lo:hi], rgb)] + ([(xd[lo:hi], depth)] if fused else [])
            return mil_chain(
                streams,
                labels[lo:hi],
                attention=att[lo:hi] if mode == "attention" else None,
                grad_scale=0.125,
            )

        for p in params:
            p.grad[...] = 0.0
        losses, pack = run(0, b)
        grads = [p.grad.copy() for p in params]
        for p in params:
            p.grad[...] = 0.0
        singles = [run(k, k + 1) for k in range(b)]
        assert losses == [loss for one, _ in singles for loss in one]
        for f in dataclasses.fields(pack):
            parts = np.concatenate([getattr(one, f.name) for _, one in singles])
            assert getattr(pack, f.name).tobytes() == parts.tobytes(), f.name
        assert any(g.any() for g in grads)
        for p, g in zip(params, grads):
            assert p.grad.tobytes() == g.tobytes(), p.name

    def test_long_single_class_stack_adds_in_order(self):
        # Eleven fused images with C=1. Softmax over proposals ignores the
        # bias, so each image's bias gradient is rounding residue, and on
        # this seed a pairwise sum of the (B, 1) bias stack rounds it
        # differently from adding image by image, as single calls do (2 of
        # the first 20 seeds give such residue).
        rng = np.random.default_rng(9)
        b, r, d = 11, 6, 3
        rgb = make_head(rng, feat_dim=d, num_classes=1)
        depth = make_head(rng, feat_dim=d, num_classes=1, prefix="depth")
        params = rgb.params() + depth.params()
        scale = 10.0 ** rng.integers(-3, 4, (b, 1, 1))
        xv = rng.standard_normal((b, r, d)) * scale
        xd = rng.standard_normal((b, r, d)) * scale
        labels = rows(
            [set(rng.choice(1, size=int(rng.integers(0, 2)))) for _ in range(b)], 1
        )

        def run(lo, hi):
            return mil_chain(
                [(xv[lo:hi], rgb), (xd[lo:hi], depth)], labels[lo:hi], grad_scale=0.25
            )

        per_image = []
        for k in range(b):
            for p in params:
                p.grad[...] = 0.0
            run(k, k + 1)
            per_image.append([p.grad.copy() for p in params])
        for p in params:
            p.grad[...] = 0.0
        run(0, b)
        pairwise = 0
        for j, p in enumerate(params):
            stack = np.stack([grads[j] for grads in per_image])
            want = np.zeros_like(p.grad)
            for g in stack:
                want += g
            assert p.grad.tobytes() == want.tobytes(), p.name
            pairwise += np.add.reduce(stack, axis=0).tobytes() != want.tobytes()
        assert pairwise

    def test_unstacked_features_rejected(self, rng):
        with pytest.raises(ShapeError):
            milhead.forward([(rng.standard_normal((3, 4)), make_head(rng))])

    def test_label_count_must_match_stack(self, rng):
        head = make_head(rng)
        with pytest.raises(ShapeError):
            mil_chain([(rng.standard_normal((2, 3, 4)), head)], rows([{0}], 3))
