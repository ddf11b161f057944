"""Synthetic generator: determinism, geometry, depth structure, label noise."""

import numpy as np
import pytest

from wsodkit import synth
from wsodkit.errors import ConfigError
from wsodkit.synth import SyntheticConfig, default_depth_bands, generate_synthetic


def small_config(**kw):
    base = dict(
        num_images=12,
        num_classes=3,
        proposals_per_image=8,
        feat_dim=6,
        image_size=64,
        max_objects=2,
    )
    base.update(kw)
    return SyntheticConfig(**base)


def gt_depth_of(rec, box):
    # gt boxes survive the proposal permutation; continuous coords make the
    # row match unambiguous.
    coords = np.array([box.x1, box.y1, box.x2, box.y2])
    hits = np.where(np.all(rec.proposals == coords, axis=1))[0]
    assert hits.size == 1
    return float(rec.proposal_depths[hits[0]])


class TestDeterminism:
    def test_same_seed_identical(self):
        cfg = small_config()
        a_records, a_vocab = generate_synthetic(cfg, seed=7)
        b_records, b_vocab = generate_synthetic(cfg, seed=7)
        assert a_vocab.names == b_vocab.names
        for ra, rb in zip(a_records, b_records):
            assert ra.image_id == rb.image_id
            assert ra.caption == rb.caption
            assert ra.labels == rb.labels
            assert np.array_equal(ra.proposals, rb.proposals)
            assert np.array_equal(ra.rgb_features, rb.rgb_features)
            assert np.array_equal(ra.depth_features, rb.depth_features)
            assert np.array_equal(ra.proposal_depths, rb.proposal_depths)
            assert ra.gt_boxes == rb.gt_boxes

    def test_different_seed_differs(self):
        cfg = small_config()
        a, _ = generate_synthetic(cfg, seed=0)
        b, _ = generate_synthetic(cfg, seed=1)
        assert any(
            not np.array_equal(ra.proposals, rb.proposals) for ra, rb in zip(a, b)
        )


class TestShapes:
    def test_counts_and_dims(self):
        cfg = small_config()
        records, vocab = generate_synthetic(cfg, seed=3)
        assert len(records) == cfg.num_images
        assert len(vocab.names) == cfg.num_classes
        for rec in records:
            assert rec.proposals.shape == (8, 4)
            assert rec.rgb_features.shape == (8, 6)
            assert rec.depth_features.shape == (8, 6)
            assert rec.proposal_depths.shape == (8,)
            assert rec.width == rec.height == 64

    def test_records_validate(self):
        records, _ = generate_synthetic(small_config(), seed=5)
        for rec in records:
            rec.validate(3)

    def test_image_ids_sequential(self):
        records, _ = generate_synthetic(small_config(num_images=3), seed=0)
        assert [r.image_id for r in records] == ["img00000", "img00001", "img00002"]

    def test_gt_classes_distinct_and_bounded(self):
        records, _ = generate_synthetic(small_config(), seed=11)
        for rec in records:
            classes = [c for _, c in rec.gt_boxes]
            assert 1 <= len(classes) <= 2
            assert len(set(classes)) == len(classes)
            assert all(0 <= c < 3 for c in classes)

    def test_gt_boxes_are_proposals(self):
        records, _ = generate_synthetic(small_config(), seed=2)
        for rec in records:
            for box, _ in rec.gt_boxes:
                gt_depth_of(rec, box)  # asserts exactly one matching row


class TestDepthStructure:
    def test_object_depth_inside_band_when_noiseless(self):
        cfg = small_config(noise=0.0)
        bands = cfg.resolved_bands()
        records, _ = generate_synthetic(cfg, seed=9)
        for rec in records:
            for box, c in rec.gt_boxes:
                lo, hi = bands[c]
                assert lo <= gt_depth_of(rec, box) <= hi

    def test_distractor_depths_outside_single_band(self):
        # One class, forced outside sampling: every non-object depth must
        # miss the band while every object depth hits it.
        cfg = small_config(
            num_classes=1, max_objects=1, noise=0.0, distractor_outside_p=1.0
        )
        lo, hi = cfg.resolved_bands()[0]
        records, _ = generate_synthetic(cfg, seed=4)
        for rec in records:
            inside = (rec.proposal_depths >= lo) & (rec.proposal_depths <= hi)
            assert inside.sum() == 1
            assert lo <= gt_depth_of(rec, rec.gt_boxes[0][0]) <= hi

    def test_word_slot_matches_depth_half(self):
        # Noiseless two-word classes: the caption's context word pool tells
        # which half of the band the object depth was drawn from.
        cfg = small_config(noise=0.0, words_per_class=2, num_images=40)
        bands = cfg.resolved_bands()
        records, _ = generate_synthetic(cfg, seed=21)
        near, far = set(synth.NEAR_WORDS), set(synth.FAR_WORDS)
        checked = 0
        for rec in records:
            tokens = set(rec.caption.split())
            for box, c in rec.gt_boxes:
                word = synth.context_word(c, 0)
                if word in tokens and synth.context_word(c, 1) not in tokens:
                    assert word in near
                    mid = sum(bands[c]) / 2
                    assert gt_depth_of(rec, box) <= mid + 1e-12
                    checked += 1
        assert checked > 5

    def test_confuser_mimics_rgb_not_depth(self):
        # Full confuser rate, zero noise and background: distractor RGB rows
        # are scaled copies of the object prototype while their depth
        # feature rows stay silent.
        cfg = small_config(
            num_classes=1,
            max_objects=1,
            noise=0.0,
            background_scale=0.0,
            confuser_rate=1.0,
            confuser_strength=0.9,
        )
        records, _ = generate_synthetic(cfg, seed=6)
        for rec in records:
            coords = rec.gt_boxes[0][0]
            gt_row = np.where(
                np.all(
                    rec.proposals
                    == np.array([coords.x1, coords.y1, coords.x2, coords.y2]),
                    axis=1,
                )
            )[0][0]
            proto = rec.rgb_features[gt_row]
            for i in range(rec.proposals.shape[0]):
                if i == gt_row:
                    assert np.linalg.norm(rec.depth_features[i]) > 0
                    continue
                assert np.allclose(rec.rgb_features[i], 0.9 * proto, atol=1e-12)
                assert np.array_equal(rec.depth_features[i], np.zeros(6))


class TestCaptionsAndLabels:
    def test_labels_match_gt_without_noise(self):
        records, _ = generate_synthetic(small_config(), seed=13)
        for rec in records:
            assert rec.labels == {c for _, c in rec.gt_boxes}

    def test_caption_mentions_each_label(self):
        records, vocab = generate_synthetic(small_config(), seed=13)
        for rec in records:
            assert rec.caption.startswith("a photo of ")
            for c in rec.labels:
                assert vocab.name_of(c) in rec.caption

    def test_full_label_noise_always_perturbs(self):
        records, _ = generate_synthetic(
            small_config(label_noise=1.0, num_images=30), seed=17
        )
        for rec in records:
            assert rec.labels != {c for _, c in rec.gt_boxes}

    def test_gt_unaffected_by_label_noise(self):
        # Scene construction precedes the caption perturbation draw, so the
        # first image's geometry is shared; later images diverge because the
        # noise path consumes extra draws.
        clean, _ = generate_synthetic(small_config(), seed=8)
        noisy, _ = generate_synthetic(small_config(label_noise=1.0), seed=8)
        assert clean[0].gt_boxes == noisy[0].gt_boxes
        assert np.array_equal(clean[0].proposals, noisy[0].proposals)


class TestConfigValidation:
    @pytest.mark.parametrize(
        "kw",
        [
            dict(num_images=0),
            dict(num_classes=0),
            dict(proposals_per_image=1),
            dict(feat_dim=0),
            dict(image_size=4),
            dict(max_objects=0),
            dict(max_objects=5),
            dict(noise=-0.1),
            dict(class_signal=0.0),
            dict(confuser_rate=1.5),
            dict(label_noise=-0.01),
            dict(words_per_class=3),
            dict(depth_bands=[(0.1, 0.2)]),
            dict(depth_bands=[(0.3, 0.2), (0.4, 0.5), (0.6, 0.7)]),
            dict(depth_bands=[(0.0, 0.5), (0.5, 1.1), (0.6, 0.7)]),
            dict(noise=float("nan")),
            dict(class_signal=float("inf")),
            dict(background_scale=float("nan")),
            dict(confuser_strength=float("-inf")),
        ],
    )
    def test_bad_config_rejected(self, kw):
        with pytest.raises(ConfigError):
            small_config(**kw).validate()

    def test_default_bands_disjoint_in_unit_interval(self):
        for n in (1, 2, 5, 8):
            bands = default_depth_bands(n)
            assert len(bands) == n
            for lo, hi in bands:
                assert 0.0 <= lo < hi <= 1.0
            for (_, hi), (lo2, _) in zip(bands, bands[1:]):
                assert hi < lo2
