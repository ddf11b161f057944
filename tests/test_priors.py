"""Depth priors: streaming moments, range freezing, bounds, masks, estimation."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from wsodkit import kernels
from wsodkit.data import Box, DepthMap, tokenize
from wsodkit.errors import ConfigError, DataError, ParseError, ValidationError
from wsodkit.evaluate import Detection, Detections
from wsodkit.priors import (
    MIN_COUNT_CLASS,
    CoverageReport,
    DepthRange,
    FrozenPriors,
    PriorStats,
    RunningMoments,
    depth_mask,
    estimate_priors,
)

from conftest import make_record
from reference import depth_mask_loop

det_set = Detections.from_rows


class TestRunningMoments:
    def test_matches_two_pass_oracle(self, rng):
        values = rng.uniform(0.0, 1.0, size=1000)
        m = RunningMoments()
        for v in values:
            m.add(float(v))
        assert m.count == 1000
        assert m.mean() == pytest.approx(float(np.mean(values)), abs=1e-12)
        assert m.std() == pytest.approx(float(np.std(values)), abs=1e-12)

    def test_empty_mean_rejected(self):
        with pytest.raises(ValidationError):
            RunningMoments().mean()

    def test_non_finite_rejected(self):
        m = RunningMoments()
        with pytest.raises(ValidationError):
            m.add(float("nan"))
        with pytest.raises(ValidationError):
            m.add(float("inf"))

    def test_constant_stream_zero_std(self):
        # A sum-of-squares accumulator cancels here; Welford's update keeps
        # the squared deviations at exactly zero.
        m = RunningMoments()
        for _ in range(1000):
            m.add(0.1)
        assert math.isfinite(m.std())
        assert m.std() == pytest.approx(0.0, abs=1e-7)
        assert m.std() == 0.0

    def test_merge_equals_single_stream(self, rng):
        xs = rng.uniform(size=50)
        ys = rng.uniform(size=70)
        a, b, c = RunningMoments(), RunningMoments(), RunningMoments()
        for x in xs:
            a.add(float(x))
            c.add(float(x))
        for y in ys:
            b.add(float(y))
            c.add(float(y))
        a.merge(b)
        assert a.count == c.count
        assert a.mean() == pytest.approx(c.mean(), abs=1e-12)
        assert a.std() == pytest.approx(c.std(), abs=1e-12)

    @given(st.lists(st.floats(0.0, 1.0), min_size=1, max_size=40))
    @example([0.3892361545647115] * 3)
    @settings(max_examples=50, deadline=None)
    def test_streaming_property(self, values):
        m = RunningMoments()
        for v in values:
            m.add(v)
        assert m.mean() == pytest.approx(float(np.mean(values)), abs=1e-9)
        assert m.std() == pytest.approx(float(np.std(values)), abs=1e-9)


class TestDepthRange:
    def test_closed_bounds(self):
        r = DepthRange(0.2, 0.4)
        assert r.contains(0.2) and r.contains(0.4) and r.contains(0.3)
        assert not r.contains(0.19999) and not r.contains(0.40001)

    def test_degenerate_point_allowed(self):
        assert DepthRange(0.3, 0.3).contains(0.3)

    def test_inverted_rejected(self):
        with pytest.raises(ValidationError):
            DepthRange(0.5, 0.4)

    def test_non_finite_rejected(self):
        with pytest.raises(ValidationError):
            DepthRange(float("nan"), 0.5)


class TestFreezeRange:
    """``PriorStats.freeze`` (that is, ``FrozenPriors.from_json``) turns
    moments into ``mean +/- std`` once a key has enough observations."""

    def test_two_value_oracle(self):
        stats = PriorStats(min_count_word=2)
        for d in (0.2, 0.4):
            stats.add_observation(0, d, {"table"})
        r = stats.freeze().by_class_word[(0, "table")]
        assert r.lo == pytest.approx(0.2, abs=1e-12)
        assert r.hi == pytest.approx(0.4, abs=1e-12)

    def test_below_threshold_none(self):
        stats = PriorStats(min_count_word=2)
        stats.add_observation(0, 0.3, {"table"})
        assert (0, "table") not in stats.freeze().by_class_word

    def test_single_value_point_range(self):
        stats = PriorStats()
        stats.add_observation(0, 0.7, set())
        r = stats.freeze().by_class[0]
        assert r.lo == pytest.approx(0.7) and r.hi == pytest.approx(0.7)

    def test_mean_pm_population_std(self, rng):
        stats = PriorStats()
        values = rng.uniform(size=25)
        for v in values:
            stats.add_observation(0, float(v), set())
        r = stats.freeze().by_class[0]
        mu, s = float(np.mean(values)), float(np.std(values))
        assert r.lo == pytest.approx(mu - s, abs=1e-12)
        assert r.hi == pytest.approx(mu + s, abs=1e-12)


class TestPriorStats:
    def one_box(self, rng, caption):
        """Statistics of one accepted class-1 box, through ``estimate_priors``."""
        rec = make_record(rng, "a", num_proposals=2, caption=caption)
        det = Detection(rec.image_id, 1, Box(*rec.proposals[0]), 0.9)
        stats, _, _ = estimate_priors([rec], det_set([det]), min_count_word=1)
        return stats

    def test_keys_by_class_and_word(self, rng):
        stats = self.one_box(rng, "a cat on the table")
        assert stats.by_class[1].count == 1
        assert set(stats.by_class_word) == {
            (1, tok) for tok in tokenize("a cat on the table")
        }

    def test_repeated_token_counts_once(self, rng):
        stats = self.one_box(rng, "the cat and the cat")
        assert stats.by_class_word[(1, "the")].count == 1
        assert stats.by_class_word[(1, "cat")].count == 1

    def test_no_caption_class_only(self, rng):
        stats = self.one_box(rng, None)
        assert stats.by_class[1].count == 1
        assert not stats.by_class_word

    def test_min_count_validated(self):
        with pytest.raises(ConfigError, match="min_count_word"):
            PriorStats(min_count_word=0)

    def test_save_load_round_trip(self, tmp_path):
        stats = PriorStats(min_count_word=2)
        for d in (0.2, 0.4):
            stats.add_observation(0, d, {"on", "the", "table"})
        stats.add_observation(1, 0.8, {"in", "the", "sky"})  # single word obs: dropped
        path = tmp_path / "priors.json"
        stats.save(path)
        loaded = FrozenPriors.load(path)
        direct = stats.freeze()
        assert set(loaded.by_class) == set(direct.by_class) == {0, 1}
        assert set(loaded.by_class_word) == set(direct.by_class_word)
        for k in direct.by_class:
            assert loaded.by_class[k].lo == pytest.approx(
                direct.by_class[k].lo, abs=1e-12
            )
            assert loaded.by_class[k].hi == pytest.approx(
                direct.by_class[k].hi, abs=1e-12
            )

    def test_loaded_ranges_equal_frozen_bits(self, tmp_path):
        # std * std * count / count is not std for these three depths, so
        # a load that rebuilt the moments from the file lost the last bit.
        stats = PriorStats(min_count_word=1)
        words = set(tokenize("a dog by the sea"))
        for d in (0.1, 0.2, 1.2):
            stats.add_observation(0, d, words)
        std = stats.by_class[0].std()
        assert math.sqrt(std * std * 3 / 3) != std
        path = tmp_path / "priors.json"
        stats.save(path)
        loaded, direct = FrozenPriors.load(path), stats.freeze()
        assert loaded.by_class == direct.by_class
        assert loaded.by_class_word == direct.by_class_word
        assert len(direct.by_class_word) == len(tokenize("a dog by the sea"))

    def test_word_threshold_applied_at_freeze(self):
        stats = PriorStats(min_count_word=2)
        stats.add_observation(0, 0.3, {"table"})
        frozen = stats.freeze()
        assert (0, "table") not in frozen.by_class_word
        assert 0 in frozen.by_class  # class threshold is 1
        assert MIN_COUNT_CLASS == 1

    def test_load_malformed(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text("{not json", encoding="utf-8")
        with pytest.raises(ParseError):
            FrozenPriors.load(p)
        with pytest.raises(DataError):
            FrozenPriors.load(tmp_path / "missing.json")


class TestImageRange:
    """``FrozenPriors.image_bounds``: every class's range in one image."""

    def make_priors(self):
        return FrozenPriors(
            by_class={0: DepthRange(0.0, 1.0)},
            by_class_word={
                (0, "table"): DepthRange(0.1, 0.3),
                (0, "sky"): DepthRange(0.3, 0.5),
            },
        )

    def test_word_ranges_averaged(self):
        lo, hi = self.make_priors().image_bounds("a cat on the table under sky", 1)
        assert lo[0] == pytest.approx(0.2, abs=1e-12)
        assert hi[0] == pytest.approx(0.4, abs=1e-12)

    def test_single_word(self):
        lo, hi = self.make_priors().image_bounds("on the table", 1)
        assert (lo[0], hi[0]) == (0.1, 0.3)

    def test_repeated_word_not_double_counted(self):
        p = self.make_priors()
        once = p.image_bounds("table sky", 1)
        twice = p.image_bounds("table table sky", 1)
        assert np.array_equal(once, twice)

    def test_fallback_to_class_range(self):
        lo, hi = self.make_priors().image_bounds("nothing known here", 1)
        assert (lo[0], hi[0]) == (0.0, 1.0)

    def test_none_caption_uses_class_range(self):
        lo, hi = self.make_priors().image_bounds(None, 1)
        assert (lo[0], hi[0]) == (0.0, 1.0)

    def test_unknown_class_none(self):
        lo, hi = self.make_priors().image_bounds("table", 6)
        assert lo.shape == hi.shape == (6,)
        assert (lo[0], hi[0]) == (0.1, 0.3)
        assert (lo[5], hi[5]) == (-np.inf, np.inf)

    def test_overflowing_average_rejected(self, rng):
        # The two upper bounds sum past the largest float, so the averaged
        # range is not finite and is refused, not turned into a bound.
        priors = FrozenPriors(
            {},
            {
                (0, "table"): DepthRange(1e308, 1.5e308),
                (0, "sky"): DepthRange(1e308, 1.5e308),
            },
        )
        rec = make_record(rng, "a", caption="table sky")
        with pytest.raises(ValidationError, match="finite"):
            depth_mask(rec, priors, num_classes=1)


CAPTION_WORDS = ("table", "chair", "on", "the")
# Dyadic bounds and depths: sums and halves of these are exact, so averaged
# word ranges land exactly on depths drawn from the same grid.
GRID = [k / 16 for k in range(17)]


@st.composite
def depth_mask_inputs(draw):
    """Priors, class count, caption, proposal depths and the caption toggle."""
    num_classes = draw(st.integers(1, 4))
    classes = st.integers(0, num_classes - 1)
    bound = st.sampled_from(GRID) | st.floats(-0.25, 1.25)

    def depth_range():
        return DepthRange(*sorted([draw(bound), draw(bound)]))

    by_class = {c: depth_range() for c in sorted(draw(st.sets(classes)))}
    keys = draw(st.sets(st.tuples(classes, st.sampled_from(CAPTION_WORDS))))
    by_class_word = {k: depth_range() for k in sorted(keys)}
    spoken = st.sampled_from(CAPTION_WORDS + ("Table,", "bird"))
    caption = draw(st.none() | st.lists(spoken, max_size=4).map(" ".join))
    depth = st.sampled_from(GRID) | st.floats(0.0, 1.0)
    depths = draw(st.lists(depth, min_size=1, max_size=12))
    priors = FrozenPriors(by_class, by_class_word)
    return priors, num_classes, caption, depths, draw(st.booleans())


class TestDepthMask:
    @given(depth_mask_inputs())
    @example((
        FrozenPriors(
            {0: DepthRange(0.25, 0.5)},
            {
                (1, "table"): DepthRange(0.125, 0.25),
                (1, "chair"): DepthRange(0.375, 0.75),
            },
        ),
        3,
        "Table, chair",
        [0.25, 0.5, 0.1, 0.75, math.nextafter(0.25, 0.0)],
        True,
    ))
    @settings(max_examples=50, deadline=None)
    def test_matches_loop_oracle(self, inputs):
        # Bounds from the class range and from averaged word ranges, classes
        # without a range, depths on a bound, and the caption on and off.
        priors, num_classes, caption, depths, use_caption = inputs
        rec = make_record(
            np.random.default_rng(0), "a", num_proposals=len(depths),
            num_classes=num_classes, caption=caption, depths=np.array(depths),
        )
        mask = depth_mask(rec, priors, num_classes, use_caption=use_caption)
        want = depth_mask_loop(rec, priors, num_classes, use_caption)
        assert mask.values.dtype == bool
        assert mask.values.shape == want.shape
        assert np.array_equal(mask.values, want)

    def test_filter_column_oracle(self, rng):
        rec = make_record(
            rng, "a", num_proposals=3, depths=np.array([0.1, 0.3, 0.9])
        )
        priors = FrozenPriors({0: DepthRange(0.2, 0.4)}, {})
        mask = depth_mask(rec, priors, num_classes=2)
        assert mask.column(0).tolist() == [0, 1, 0]
        assert mask.column(1).tolist() == [1, 1, 1]
        assert not (mask.values == 1).all()

    def test_closed_interval_boundaries(self, rng):
        rec = make_record(
            rng, "a", num_proposals=4, depths=np.array([0.2, 0.4, 0.19, 0.41])
        )
        priors = FrozenPriors({0: DepthRange(0.2, 0.4)}, {})
        mask = depth_mask(rec, priors, num_classes=1)
        assert mask.column(0).tolist() == [1, 1, 0, 0]

    def test_empty_priors_all_ones(self, rng):
        rec = make_record(rng, "a")
        mask = depth_mask(rec, FrozenPriors({}, {}), num_classes=3)
        assert (mask.values == 1).all()

    def test_caption_toggle(self, rng):
        rec = make_record(
            rng,
            "a",
            num_proposals=2,
            depths=np.array([0.15, 0.75]),
            caption="on the table",
        )
        priors = FrozenPriors(
            {0: DepthRange(0.7, 0.8)}, {(0, "table"): DepthRange(0.1, 0.2)}
        )
        with_cap = depth_mask(rec, priors, 1, use_caption=True)
        without = depth_mask(rec, priors, 1, use_caption=False)
        assert with_cap.column(0).tolist() == [1, 0]
        assert without.column(0).tolist() == [0, 1]


class TestAccumulate:
    """How ``estimate_priors`` finds each accepted box's depth, or skips it."""

    def det(self, rec, box, score=0.9, class_id=0):
        return Detection(rec.image_id, class_id, box, score)

    def test_matching_proposal_uses_stored_depth(self, rng):
        rec = make_record(
            rng, "a", num_proposals=2, depths=np.array([0.33, 0.77])
        )
        match = self.det(rec, Box(*rec.proposals[1]))
        stats, _, coverage = estimate_priors([rec], det_set([match]))
        assert stats.by_class[0].mean() == pytest.approx(0.77, abs=1e-12)
        assert (coverage.accepted, stats.skipped_boxes) == (1, 0)

    def test_unmatched_box_without_map_skipped(self, rng):
        rec = make_record(rng, "a", num_proposals=2, size=50.0)
        stray = Box(1.0, 1.0, 9.0, 9.0)
        stats, _, coverage = estimate_priors([rec], det_set([self.det(rec, stray)]))
        assert (coverage.accepted, stats.skipped_boxes) == (0, 1)
        assert not stats.by_class

    def test_unmatched_box_with_map_pools(self, rng):
        rec = make_record(rng, "a", num_proposals=2, size=50.0)
        dm = DepthMap(values=np.full((50, 50), 0.42), width=50, height=50)
        rec = dataclasses.replace(rec, depth_map=dm)
        pooled = self.det(rec, Box(1.0, 1.0, 9.0, 9.0))
        # Between pixel centres: no depth to pool, so skipped, not raised.
        speck = self.det(rec, Box(1.1, 1.1, 1.2, 1.2))
        stats, _, coverage = estimate_priors([rec], det_set([pooled, speck]))
        assert stats.by_class[0].mean() == pytest.approx(0.42, abs=1e-12)
        assert stats.skipped_boxes == 1 and stats.by_class[0].count == 1
        assert (coverage.accepted, coverage.skipped) == (1, 1)
        _, _, coverage = estimate_priors([rec], det_set([speck]))
        assert (coverage.accepted, coverage.skipped) == (0, 1)

    def test_unmatched_boxes_pool_in_one_call(self, rng, monkeypatch):
        # One record, a random depth map, a proposal and six boxes that match
        # none: four pool, one lies past the image and one between pixel
        # centres. Each box has its own class, so a class's mean is its depth.
        rec = make_record(rng, "a", num_proposals=3, size=64.0)
        values = rng.uniform(0.0, 1.0, (64, 64))
        rec = dataclasses.replace(
            rec, depth_map=DepthMap(values=values, width=64, height=64)
        )
        pooled = [Box(1.0, 1.0, 9.0, 9.0), Box(0.0, 0.0, 64.0, 48.0),
                  Box(30.2, 10.7, 31.6, 11.6), Box(5.5, 40.25, 20.0, 47.5)]
        boxes = [Box(*rec.proposals[0]), *pooled, Box(10.0, 10.0, 20.0, 65.0),
                 Box(1.1, 1.1, 1.2, 1.2)]
        dets = det_set([self.det(rec, b, class_id=c) for c, b in enumerate(boxes)])
        calls = []
        pool = kernels.box_mean_pool
        monkeypatch.setattr(kernels, "box_mean_pool",
                            lambda grid, b: calls.append(len(b)) or pool(grid, b))
        stats, _, coverage = estimate_priors([rec], dets)
        assert calls == [5]
        assert (coverage.accepted, stats.skipped_boxes) == (5, 2)
        assert stats.by_class[0].mean() == rec.proposal_depths[0]
        for c, box in enumerate(pooled, start=1):
            # One box at a time, within the rounding of box_mean_pool's table.
            alone = pool(values, box.as_array()[None])[0]
            assert stats.by_class[c].mean() == pytest.approx(alone, abs=1e-12)
        assert sorted(stats.by_class) == [0, 1, 2, 3, 4]

    def test_out_of_image_box_skipped(self, rng):
        rec = make_record(rng, "a", size=50.0)
        big = Box(0.0, 0.0, 60.0, 40.0)
        stats, _, coverage = estimate_priors([rec], det_set([self.det(rec, big)]))
        assert (coverage.accepted, stats.skipped_boxes) == (0, 1)


class TestEstimatePriors:
    def build(self, rng):
        recs = [
            make_record(
                rng,
                f"img{i}",
                num_proposals=4,
                depths=np.array([0.2, 0.25, 0.3, 0.9]),
                caption="a cat on the table",
            )
            for i in range(3)
        ]
        preds = []
        for rec in recs:
            for j in range(3):
                preds.append(
                    Detection(rec.image_id, 0, Box(*rec.proposals[j]), 0.9)
                )
        return recs, preds

    def test_pipeline_counts_and_ranges(self, rng):
        recs, preds = self.build(rng)
        # The floor is strict: 0.5001 counts, 0.5 (on the far 0.9 proposal)
        # does not.
        preds[0] = dataclasses.replace(preds[0], score=0.5001)
        preds.append(Detection(recs[0].image_id, 0, Box(*recs[0].proposals[3]), 0.5))
        stats, frozen, report = estimate_priors(
            recs, det_set(preds), score_threshold=0.5, min_count_word=2
        )
        assert stats.by_class[0].count == 9
        assert report.accepted == 9 and report.skipped == 0
        depths = [0.2, 0.25, 0.3] * 3
        mu, s = float(np.mean(depths)), float(np.std(depths))
        assert frozen.by_class[0].lo == pytest.approx(mu - s, abs=1e-12)
        assert frozen.by_class[0].hi == pytest.approx(mu + s, abs=1e-12)
        assert (0, "table") in frozen.by_class_word
        row = report.rows[0]
        assert row.class_id == 0 and row.count == 9
        assert 0.0 <= row.inside_fraction <= 1.0

    @pytest.mark.parametrize("thresh", [float("nan"), -0.1, 1.5])
    def test_bad_threshold_rejected(self, rng, thresh):
        recs, preds = self.build(rng)
        with pytest.raises(ConfigError, match="score_threshold"):
            estimate_priors(recs, det_set(preds), score_threshold=thresh)

    def test_nan_score_not_accumulated(self, rng):
        # NaN is not above the floor, as a low score is not.
        recs, preds = self.build(rng)
        preds[0] = dataclasses.replace(preds[0], score=math.nan)
        stats, _, report = estimate_priors(recs, det_set(preds), score_threshold=0.5)
        assert report.accepted == 8 and stats.skipped_boxes == 0

    def test_high_threshold_accepts_nothing(self, rng):
        recs, preds = self.build(rng)
        preds = det_set(preds)
        stats, frozen, report = estimate_priors(recs, preds, score_threshold=0.95)
        assert report.accepted == 0
        assert not frozen.by_class

    def test_unknown_image_rejected(self, rng):
        recs, preds = self.build(rng)
        bad = Detection("nope", 0, preds[0].box, 0.9)
        with pytest.raises(DataError):
            estimate_priors(recs, det_set([bad]))

    def test_coverage_text(self, rng):
        recs, preds = self.build(rng)
        _, _, report = estimate_priors(recs, det_set(preds))
        assert report.accepted == 9
        assert report.rows[0].class_id == 0
        assert "accepted boxes: 9" in report.to_text()

    def test_empty_report_text(self):
        assert "accepted boxes: 0" in CoverageReport().to_text()


class TestTokenizeOnce:
    """A caption is tokenized once per image, however many classes or boxes
    read it."""

    @pytest.fixture
    def calls(self, monkeypatch):
        seen = []

        def counting(text):
            seen.append(text)
            return tokenize(text)

        monkeypatch.setattr("wsodkit.priors.tokenize", counting)
        return seen

    def test_depth_mask_once_for_all_classes(self, rng, calls):
        rec = make_record(rng, "a", caption="a cat on the table")
        priors = FrozenPriors(
            {c: DepthRange(0.0, 0.5) for c in range(5)},
            {(c, "table"): DepthRange(0.25, 0.75) for c in range(5)},
        )
        mask = depth_mask(rec, priors, num_classes=5)
        assert calls == ["a cat on the table"]
        assert np.array_equal(mask.values, depth_mask_loop(rec, priors, 5, True))

    def test_estimate_priors_once_per_record(self, rng, calls):
        recs = [
            make_record(rng, f"img{i}", num_proposals=4, caption=f"cat {i}")
            for i in range(3)
        ]
        preds = [
            Detection(rec.image_id, c, Box(*rec.proposals[j]), 0.9)
            for c in range(2)
            for rec in recs
            for j in range(4)
        ]
        stats, _, report = estimate_priors(recs, det_set(preds), min_count_word=1)
        assert report.accepted == 24
        assert sorted(calls) == ["cat 0", "cat 1", "cat 2"]
        assert stats.by_class_word[(0, "cat")].count == 12
