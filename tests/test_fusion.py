"""Late fusion: score addition, mode selection, degenerate-stream identities."""

import numpy as np
import pytest

from wsodkit import fusion, milhead
from wsodkit.fusion import FusionMode
from wsodkit.milhead import HeadParams

from conftest import make_record, score_stream


@pytest.fixture
def heads(rng):
    rgb = HeadParams.create("rgb", rng, 8, 3, 0.5)
    depth = HeadParams.create("depth", rng, 8, 3, 0.5)
    return rgb, depth


class TestFuse:
    def test_elementwise_sum(self, rng):
        a = (rng.standard_normal((3, 2)), rng.standard_normal((3, 2)))
        b = (rng.standard_normal((3, 2)), rng.standard_normal((3, 2)))
        pack = milhead.forward([score_stream(*a), score_stream(*b)])
        assert np.array_equal(pack.det_scores[0], a[0] + b[0])
        assert np.array_equal(pack.cls_scores[0], a[1] + b[1])

    def test_zero_stream_is_identity(self, rng):
        a = (rng.standard_normal((4, 3)), rng.standard_normal((4, 3)))
        z = (np.zeros((4, 3)), np.zeros((4, 3)))
        pack = milhead.forward([score_stream(*a), score_stream(*z)])
        assert np.array_equal(pack.det_scores[0], a[0])
        assert np.array_equal(pack.cls_scores[0], a[1])


class TestModeParse:
    @pytest.mark.parametrize(
        "text,mode",
        [
            ("rgb", FusionMode.RGB_ONLY),
            ("fused", FusionMode.FUSED),
            ("depth", FusionMode.DEPTH_ONLY),
        ],
    )
    def test_parse_known(self, text, mode):
        assert FusionMode(text) is mode

    def test_parse_unknown(self):
        with pytest.raises(ValueError):
            FusionMode("both")


class TestForward:
    def test_rgb_mode_ignores_depth_head(self, rng, heads):
        rgb_head, depth_head = heads
        rec = make_record(rng, "a", num_proposals=5, feat_dim=8)
        pack = fusion.forward(rec, rgb_head, depth_head, FusionMode.RGB_ONLY)
        ref = milhead.forward(
            [score_stream(*milhead.score(rec.rgb_features, rgb_head))]
        )
        assert np.array_equal(pack.combined, ref.combined)

    def test_depth_mode_ignores_rgb_head(self, rng, heads):
        rgb_head, depth_head = heads
        rec = make_record(rng, "a", num_proposals=5, feat_dim=8)
        pack = fusion.forward(rec, rgb_head, depth_head, FusionMode.DEPTH_ONLY)
        ref = milhead.forward(
            [score_stream(*milhead.score(rec.depth_features, depth_head))]
        )
        assert np.array_equal(pack.combined, ref.combined)

    def test_fused_sums_raw_scores(self, rng, heads):
        rgb_head, depth_head = heads
        rec = make_record(rng, "a", num_proposals=4, feat_dim=8)
        pack = fusion.forward(rec, rgb_head, depth_head, FusionMode.FUSED)
        v = milhead.score(rec.rgb_features, rgb_head)
        d = milhead.score(rec.depth_features, depth_head)
        ref = milhead.forward([score_stream(v[0] + d[0], v[1] + d[1])])
        assert np.allclose(pack.combined, ref.combined, atol=1e-15)
        assert np.allclose(pack.image_prob, ref.image_prob, atol=1e-15)

    def test_zero_depth_head_fused_equals_rgb(self, rng, heads):
        # A silent depth stream must make fusion bit-identical to RGB-only.
        rgb_head, depth_head = heads
        for p in depth_head.params():
            p.value[:] = 0.0
        rec = make_record(rng, "a", num_proposals=6, feat_dim=8)
        fused = fusion.forward(rec, rgb_head, depth_head, FusionMode.FUSED)
        rgb = fusion.forward(rec, rgb_head, depth_head, FusionMode.RGB_ONLY)
        assert np.array_equal(fused.combined, rgb.combined)
        assert np.array_equal(fused.image_prob, rgb.image_prob)

    def test_default_mode_is_rgb(self, rng, heads):
        rgb_head, depth_head = heads
        rec = make_record(rng, "a", feat_dim=8)
        default = fusion.forward(rec, rgb_head, depth_head)
        rgb = fusion.forward(rec, rgb_head, depth_head, FusionMode.RGB_ONLY)
        assert np.array_equal(default.combined, rgb.combined)

    def test_fusion_commutes(self, rng, heads):
        # Score-level addition makes the two orderings identical.
        rgb_head, depth_head = heads
        rec = make_record(rng, "a", feat_dim=8)
        v = (rec.rgb_features[None], rgb_head)
        d = (rec.depth_features[None], depth_head)
        ab = milhead.forward([v, d])
        ba = milhead.forward([d, v])
        assert np.array_equal(ab.det_scores, ba.det_scores)
        assert np.array_equal(ab.cls_scores, ba.cls_scores)
