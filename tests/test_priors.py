"""Depth priors: streaming moments, range freezing, masks, accumulation."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from wsodkit.data import Box, DepthMap, tokenize
from wsodkit.errors import ConfigError, DataError, ParseError, ValidationError
from wsodkit.evaluate import Detection
from wsodkit.priors import (
    MIN_COUNT_CLASS,
    CoverageReport,
    DepthRange,
    FrozenPriors,
    PriorStats,
    RunningMoments,
    accumulate,
    depth_mask,
    estimate_priors,
    freeze_range,
)

from conftest import make_record


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
    def test_two_value_oracle(self):
        m = RunningMoments()
        m.add(0.2)
        m.add(0.4)
        r = freeze_range(m.count, m.mean(), m.std(), min_count=2)
        assert r.lo == pytest.approx(0.2, abs=1e-12)
        assert r.hi == pytest.approx(0.4, abs=1e-12)

    def test_below_threshold_none(self):
        m = RunningMoments()
        m.add(0.3)
        assert freeze_range(m.count, m.mean(), m.std(), min_count=2) is None

    def test_single_value_point_range(self):
        m = RunningMoments()
        m.add(0.7)
        r = freeze_range(m.count, m.mean(), m.std(), min_count=1)
        assert r.lo == pytest.approx(0.7) and r.hi == pytest.approx(0.7)

    def test_mean_pm_population_std(self, rng):
        m = RunningMoments()
        values = rng.uniform(size=25)
        for v in values:
            m.add(float(v))
        r = freeze_range(m.count, m.mean(), m.std(), min_count=1)
        mu, s = float(np.mean(values)), float(np.std(values))
        assert r.lo == pytest.approx(mu - s, abs=1e-12)
        assert r.hi == pytest.approx(mu + s, abs=1e-12)


class TestPriorStats:
    def test_keys_by_class_and_word(self):
        stats = PriorStats(min_count_word=1)
        stats.add_observation(0, 0.25, "a cat on the table")
        assert stats.by_class[0].count == 1
        assert set(stats.by_class_word) == {
            (0, tok) for tok in tokenize("a cat on the table")
        }

    def test_repeated_token_counts_once(self):
        stats = PriorStats(min_count_word=1)
        stats.add_observation(1, 0.5, "the cat and the cat")
        assert stats.by_class_word[(1, "the")].count == 1
        assert stats.by_class_word[(1, "cat")].count == 1

    def test_no_caption_class_only(self):
        stats = PriorStats()
        stats.add_observation(2, 0.4, None)
        assert stats.by_class[2].count == 1
        assert not stats.by_class_word

    def test_min_count_validated(self):
        with pytest.raises(ConfigError, match="min_count_word"):
            PriorStats(min_count_word=0)

    def test_save_load_round_trip(self, tmp_path):
        stats = PriorStats(min_count_word=2)
        for d in (0.2, 0.4):
            stats.add_observation(0, d, "on the table")
        stats.add_observation(1, 0.8, "in the sky")  # single word obs: dropped
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
        for d in (0.1, 0.2, 1.2):
            stats.add_observation(0, d, "a dog by the sea")
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
        stats.add_observation(0, 0.3, "table")
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
    def make_priors(self):
        return FrozenPriors(
            by_class={0: DepthRange(0.0, 1.0)},
            by_class_word={
                (0, "table"): DepthRange(0.1, 0.3),
                (0, "sky"): DepthRange(0.3, 0.5),
            },
        )

    def test_word_ranges_averaged(self):
        r = self.make_priors().image_range(0, "a cat on the table under sky")
        assert r.lo == pytest.approx(0.2, abs=1e-12)
        assert r.hi == pytest.approx(0.4, abs=1e-12)

    def test_single_word(self):
        r = self.make_priors().image_range(0, "on the table")
        assert (r.lo, r.hi) == (0.1, 0.3)

    def test_repeated_word_not_double_counted(self):
        p = self.make_priors()
        once = p.image_range(0, "table sky")
        twice = p.image_range(0, "table table sky")
        assert (once.lo, once.hi) == (twice.lo, twice.hi)

    def test_fallback_to_class_range(self):
        r = self.make_priors().image_range(0, "nothing known here")
        assert (r.lo, r.hi) == (0.0, 1.0)

    def test_none_caption_uses_class_range(self):
        r = self.make_priors().image_range(0, None)
        assert (r.lo, r.hi) == (0.0, 1.0)

    def test_unknown_class_none(self):
        assert self.make_priors().image_range(5, "table") is None


class TestDepthMask:
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
    def det(self, rec, box, score, class_id=0):
        return Detection(rec.image_id, class_id, box, score)

    def test_matching_proposal_uses_stored_depth(self, rng):
        rec = make_record(
            rng, "a", num_proposals=2, depths=np.array([0.33, 0.77])
        )
        stats = PriorStats(min_count_word=1)
        got = accumulate(stats, self.det(rec, Box(*rec.proposals[1]), 0.9), rec)
        assert got == pytest.approx(0.77, abs=1e-12)
        assert stats.skipped_boxes == 0

    def test_unmatched_box_without_map_skipped(self, rng):
        rec = make_record(rng, "a", num_proposals=2, size=50.0)
        stats = PriorStats(min_count_word=1)
        stray = Box(1.0, 1.0, 9.0, 9.0)
        assert accumulate(stats, self.det(rec, stray, 0.9), rec) is None
        assert stats.skipped_boxes == 1
        assert not stats.by_class

    def test_unmatched_box_with_map_pools(self, rng):
        rec = make_record(rng, "a", num_proposals=2, size=50.0)
        dm = DepthMap(values=np.full((50, 50), 0.42), width=50, height=50)
        rec = dataclasses.replace(rec, depth_map=dm)
        stats = PriorStats(min_count_word=1)
        got = accumulate(stats, self.det(rec, Box(1.0, 1.0, 9.0, 9.0), 0.9), rec)
        assert got == pytest.approx(0.42, abs=1e-12)
        # Between pixel centres: no depth to pool, so skipped, not raised.
        speck = self.det(rec, Box(1.1, 1.1, 1.2, 1.2), 0.9)
        assert accumulate(stats, speck, rec) is None
        assert stats.skipped_boxes == 1 and stats.by_class[0].count == 1
        _, _, coverage = estimate_priors([rec], [speck])
        assert (coverage.accepted, coverage.skipped) == (0, 1)

    def test_out_of_image_box_skipped(self, rng):
        rec = make_record(rng, "a", size=50.0)
        stats = PriorStats(min_count_word=1)
        big = Box(0.0, 0.0, 60.0, 40.0)
        assert accumulate(stats, self.det(rec, big, 0.9), rec) is None
        assert stats.skipped_boxes == 1


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
            recs, preds, score_threshold=0.5, min_count_word=2
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
            estimate_priors(recs, preds, score_threshold=thresh)

    def test_high_threshold_accepts_nothing(self, rng):
        recs, preds = self.build(rng)
        stats, frozen, report = estimate_priors(recs, preds, score_threshold=0.95)
        assert report.accepted == 0
        assert not frozen.by_class

    def test_unknown_image_rejected(self, rng):
        recs, preds = self.build(rng)
        bad = Detection("nope", 0, preds[0].box, 0.9)
        with pytest.raises(DataError):
            estimate_priors(recs, [bad])

    def test_coverage_text(self, rng):
        recs, preds = self.build(rng)
        _, _, report = estimate_priors(recs, preds)
        assert report.accepted == 9
        assert report.rows[0].class_id == 0
        assert "accepted boxes: 9" in report.to_text()

    def test_empty_report_text(self):
        assert "accepted boxes: 0" in CoverageReport().to_text()
