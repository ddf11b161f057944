"""Detection metrics against literal-oracle reimplementations."""

import dataclasses
import importlib
import json
import math
import os
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from wsodkit import kernels
from wsodkit.data import Box, ClassVocabulary
from wsodkit.errors import ConfigError, ParseError, ValidationError
from wsodkit.evaluate import (
    IOU_GRID,
    Detection,
    Detections,
    EvalReport,
    average_precision,
    corloc,
    evaluate,
    format_table,
    load_detections,
    nms_detections,
    rank,
    save_detections,
)

from conftest import UNPARSABLE_LINES, json_error, make_record, random_boxes
from reference import (
    all_point_ap,
    greedy_hits,
    greedy_match,
    load_detections_lines,
    nms_sequential,
    save_detections_dumps,
    save_detections_rows,
    top1_corloc,
)


def det(iid, box, score, cid=0):
    return Detection(iid, cid, Box(*box), score)


def random_scenario(seed, num_images=4, max_dets=6, max_gts=3):
    r = np.random.default_rng(seed)
    gts_by_image, dets = {}, []
    for i in range(num_images):
        iid = f"i{i}"
        gts_by_image[iid] = random_boxes(r, int(r.integers(0, max_gts + 1)))
        for _ in range(int(r.integers(0, max_dets + 1))):
            if len(gts_by_image[iid]) and r.uniform() < 0.5:
                base = gts_by_image[iid][int(r.integers(len(gts_by_image[iid])))]
                jit = np.clip(base + r.normal(0, 3.0, size=4), 0.0, None)
                jit[2] = max(jit[2], jit[0] + 1.0)
                jit[3] = max(jit[3], jit[1] + 1.0)
                box = jit
            else:
                box = random_boxes(r, 1)[0]
            dets.append(det(iid, box, float(r.uniform()), 0))
    return dets, gts_by_image


def ignore_scenario(seed):
    """Images covering every branch of the ignore-aware matcher.

    Scores come from three values, so ties are common; truth images carry
    3-5 boxes; one image's truth is all ignored; two images have
    detections but no truth (an empty array and no entry at all).
    """
    r = np.random.default_rng(seed)
    kinds = ("eligible", "split", "split", "all_ignored", "empty", "absent")
    gts, ignored, dets = {}, {}, []
    for i, kind in enumerate(kinds):
        iid = f"i{i}"
        truth = random_boxes(r, int(r.integers(3, 6)))
        inb = {
            "eligible": np.ones(len(truth), dtype=bool),
            "split": r.uniform(size=len(truth)) < 0.5,
            "all_ignored": np.zeros(len(truth), dtype=bool),
        }.get(kind)
        if inb is not None:
            gts[iid], ignored[iid] = truth[inb], truth[~inb]
        elif kind == "empty":
            gts[iid], ignored[iid] = np.zeros((0, 4)), np.zeros((0, 4))
        for _ in range(int(r.integers(1, 10))):
            if r.uniform() < 0.7:
                base = truth[int(r.integers(len(truth)))]
                jit = np.clip(base + r.normal(0, 2.0, size=4), 0.0, None)
                jit[2] = max(jit[2], jit[0] + 1.0)
                jit[3] = max(jit[3], jit[1] + 1.0)
                box = jit
            else:
                box = random_boxes(r, 1)[0]
            dets.append(det(iid, box, float(r.choice([0.2, 0.5, 0.8]))))
    return dets, gts, ignored


def ignoring(gts, ignored):
    """Ignored boxes as a subset view: each image's full truth, its truth
    rows then its ignored boxes, and a mask marking the truth rows."""
    truth, rows = {}, {}
    for iid in {**gts, **ignored}:
        g, ign = gts.get(iid, np.zeros((0, 4))), ignored.get(iid, np.zeros((0, 4)))
        truth[iid] = np.concatenate([g, ign])
        rows[iid] = np.arange(len(truth[iid])) < len(g)
    return truth, rows


def ap_ignoring(cols, gts, ignored, thresholds):
    """AP against ``gts`` with ``ignored`` (None for none) ignored."""
    if ignored is None:
        return average_precision(rank(cols, gts), thresholds)
    truth, rows = ignoring(gts, ignored)
    results = average_precision(rank(cols, truth), thresholds, subsets={"truth": rows})
    return [res.subsets["truth"] for res in results]


class TestIou:
    def test_hand_values(self):
        a = np.array([[0.0, 0.0, 10.0, 10.0]])
        b = np.array(
            [[0, 0, 10, 10], [20, 20, 30, 30], [5, 5, 15, 15], [10, 0, 20, 10]], float
        )
        got = kernels.iou_matrix(a, b)[0]
        assert got[0] == 1.0
        assert got[1] == 0.0
        assert got[2] == pytest.approx(25.0 / 175.0, abs=1e-12)
        assert got[3] == 0.0


class TestAveragePrecision:
    def test_single_hit_perfect(self):
        gts = {"a": np.array([[0.0, 0.0, 10.0, 10.0]])}
        dets = Detections.from_rows([det("a", [0, 0, 10, 10], 0.9)])
        res = average_precision(rank(dets, gts), [0.5])[0]
        assert res.ap == pytest.approx(1.0, abs=1e-12)
        assert (res.tp, res.fp, res.n_gt) == (1, 1 - 1, 1)

    def test_miss_then_hit_half(self):
        # High-scoring miss then a hit: precision at full recall is 1/2.
        gts = {"a": np.array([[0.0, 0.0, 10.0, 10.0]])}
        dets = [
            det("a", [50, 50, 60, 60], 0.9),
            det("a", [0, 0, 10, 10], 0.8),
        ]
        res = average_precision(rank(Detections.from_rows(dets), gts), [0.5])[0]
        assert res.ap == pytest.approx(0.5, abs=1e-12)

    def test_duplicate_detection_is_fp(self):
        gts = {"a": np.array([[0.0, 0.0, 10.0, 10.0]])}
        dets = [
            det("a", [0, 0, 10, 10], 0.9),
            det("a", [0, 0, 10, 10], 0.8),
        ]
        res = average_precision(rank(Detections.from_rows(dets), gts), [0.5])[0]
        assert (res.tp, res.fp) == (1, 1)
        assert res.ap == pytest.approx(1.0, abs=1e-12)

    def test_score_order_decides_match(self):
        gts = {"a": np.array([[0.0, 0.0, 10.0, 10.0]])}
        loose = det("a", [0, 0, 12, 10], 0.9)  # IoU 5/6
        tight = det("a", [0, 0, 10, 10], 0.5)
        ranked = rank(Detections.from_rows([tight, loose]), gts)
        res = average_precision(ranked, [0.5])[0]
        assert (res.tp, res.fp) == (1, 1)

    def test_no_detections_zero(self):
        gts = {"a": np.array([[0.0, 0.0, 10.0, 10.0]])}
        res = average_precision(rank(Detections.from_rows([]), gts), [0.5])[0]
        assert res.ap == 0.0 and res.n_gt == 1

    def test_no_gt_rejected(self):
        cols = Detections.from_rows([det("a", [0, 0, 1, 1], 0.5)])
        ranked = rank(cols, {"a": np.zeros((0, 4))})
        with pytest.raises(ValidationError):
            average_precision(ranked, [0.5])

    def test_eleven_point_differs_from_all_point(self):
        # One of two truths found: all-point gives 0.5, the 11-point grid
        # counts 6 of 11 recall stops.
        gts = {
            "a": np.array([[0.0, 0.0, 10.0, 10.0], [50.0, 50.0, 60.0, 60.0]])
        }
        dets = Detections.from_rows([det("a", [0, 0, 10, 10], 0.9)])
        assert average_precision(rank(dets, gts), [0.5])[0].ap == (
            pytest.approx(0.5, abs=1e-12)
        )
        assert average_precision(rank(dets, gts), [0.5], eleven_point=True)[0].ap == (
            pytest.approx(6.0 / 11.0, abs=1e-12)
        )

    def test_ignored_boxes_absorb_detections(self):
        gts = {"a": np.array([[0.0, 0.0, 10.0, 10.0]])}
        ignore = {"a": np.array([[50.0, 50.0, 60.0, 60.0]])}
        dets = [
            det("a", [50, 50, 60, 60], 0.9),  # absorbed, not an FP
            det("a", [0, 0, 10, 10], 0.8),
        ]
        cols = Detections.from_rows(dets)
        res = ap_ignoring(cols, gts, ignore, [0.5])[0]
        assert (res.tp, res.fp) == (1, 0)
        assert res.ap == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("seed", range(12))
    def test_matches_brute_force(self, seed):
        dets, gts = random_scenario(seed)
        n_gt = sum(len(g) for g in gts.values())
        if n_gt == 0:
            return
        ranked = rank(Detections.from_rows(dets), gts)
        for thresh in (0.3, 0.5, 0.75):
            got = average_precision(ranked, [thresh])[0]
            assert got.ap == pytest.approx(all_point_ap(dets, gts, thresh), abs=1e-12)
            assert corloc(ranked, [thresh])[0] == pytest.approx(
                top1_corloc(dets, gts, thresh), abs=1e-12
            )

    @pytest.mark.parametrize("seed", range(6))
    def test_tp_nonincreasing_in_threshold(self, seed):
        dets, gts = random_scenario(seed, num_images=3)
        if sum(len(g) for g in gts.values()) == 0:
            return
        results = average_precision(rank(Detections.from_rows(dets), gts), IOU_GRID)
        tps = [res.tp for res in results]
        assert all(a >= b for a, b in zip(tps, tps[1:]))


class TestIgnoreAwareMatching:
    @pytest.mark.parametrize("seed", range(16))
    @pytest.mark.parametrize("use_ignore", [False, True])
    def test_matches_oracle(self, seed, use_ignore):
        dets, gts, ignored = ignore_scenario(seed)
        ign = ignored if use_ignore else None
        cols = Detections.from_rows(dets)
        for thresh in (0.3, 0.5, 0.75):
            got = ap_ignoring(cols, gts, ign, [thresh])[0]
            tp, fp = greedy_match(dets, gts, thresh, ign)
            assert (got.tp, got.fp) == (sum(tp), sum(fp))
            assert got.ap == pytest.approx(
                all_point_ap(dets, gts, thresh, ign), abs=1e-12
            )

    def test_scenarios_reach_the_ignore_path(self):
        absorbed = 0
        for seed in range(16):
            dets, gts, ignored = ignore_scenario(seed)
            tp, _ = greedy_match(dets, gts, 0.5)
            tp_i, _ = greedy_match(dets, gts, 0.5, ignored)
            assert sum(tp_i) == sum(tp)  # ignoring never removes a hit
            absorbed += len(tp) - len(tp_i)
        assert absorbed > 0

    def test_all_ignored_image_absorbs_its_detections(self):
        gts = {"a": np.array([[0.0, 0.0, 10.0, 10.0]]), "b": np.zeros((0, 4))}
        ignore = {"b": np.array([[0.0, 0.0, 10.0, 10.0]] * 3)}
        dets = [
            det("b", [0, 0, 10, 10], 0.9),
            det("b", [0, 0, 10, 10], 0.9),
            det("a", [0, 0, 10, 10], 0.8),
            det("b", [60, 60, 70, 70], 0.7),  # overlaps nothing: still an FP
        ]
        cols = Detections.from_rows(dets)
        res = ap_ignoring(cols, gts, ignore, [0.5])[0]
        assert (res.tp, res.fp) == (1, 1)

    def test_threshold_is_inclusive_for_truth_and_ignored(self):
        # Each detection overlaps its box at IoU exactly 100 / 200 = 0.5.
        gts = {"a": np.array([[0.0, 0.0, 10.0, 10.0]])}
        ignore = {"a": np.array([[50.0, 50.0, 60.0, 60.0]])}
        dets = [
            det("a", [0, 0, 20, 10], 0.9),
            det("a", [50, 50, 70, 60], 0.8),
        ]
        cols = Detections.from_rows(dets)
        res = ap_ignoring(cols, gts, ignore, [0.5])[0]
        assert (res.tp, res.fp) == (1, 0)
        assert greedy_match(dets, gts, 0.5, ignore) == ([1.0], [0.0])


class TestTruthSubsets:
    """A subset's AP equals the literal oracle with the rest of the truth
    ignored; asking for subsets leaves the full-truth results as they are."""

    @pytest.mark.parametrize("seed", range(8))
    @pytest.mark.parametrize("use_ignore", [False, True])
    def test_matches_separate_calls(self, seed, use_ignore):
        dets, gts, ignored = ignore_scenario(seed)
        # With use_ignore, the ignored boxes are truth rows no subset holds.
        truth, rows = ignoring(gts, ignored if use_ignore else {})
        r = np.random.default_rng(100 + seed)
        subsets = {
            name: {
                iid: (r.uniform(size=len(t)) < frac) & rows[iid]
                for iid, t in truth.items()
            }
            for name, frac in (("none", 0.0), ("some", 0.5), ("all", 1.0))
        }
        ranked = rank(Detections.from_rows(dets), truth)
        got = average_precision(ranked, IOU_GRID, subsets=subsets)
        plain = average_precision(ranked, IOU_GRID)
        fields = lambda res: (res.ap, res.tp, res.fp, res.n_gt)
        assert [fields(res) for res in got] == [fields(res) for res in plain]
        for name, masks in subsets.items():
            sub_gts = {iid: truth[iid][m] for iid, m in masks.items()}
            rest = {iid: truth[iid][~m] for iid, m in masks.items()}
            n_sub = sum(len(g) for g in sub_gts.values())
            if not n_sub:
                assert all(name not in res.subsets for res in got)
                continue
            for t, res in zip(IOU_GRID, got):
                tp, fp = greedy_match(dets, sub_gts, t, rest)
                sub = res.subsets[name]
                assert (sub.tp, sub.fp, sub.n_gt) == (sum(tp), sum(fp), n_sub)
                assert sub.ap == pytest.approx(
                    all_point_ap(dets, sub_gts, t, rest), abs=1e-12
                )


class TestOneCallPerGrid:
    """One call over IOU_GRID equals the literal oracles at every threshold."""

    def check_ap(self, dets, gts, ign=None):
        results = ap_ignoring(Detections.from_rows(dets), gts, ign, IOU_GRID)
        assert len(results) == len(IOU_GRID)
        for t, res in zip(IOU_GRID, results):
            tp, fp = greedy_match(dets, gts, t, ign)
            assert (res.tp, res.fp) == (sum(tp), sum(fp)), t
            assert res.ap == pytest.approx(
                all_point_ap(dets, gts, t, ign), abs=1e-12
            ), t

    def check_corloc(self, dets, gts):
        assert corloc(rank(Detections.from_rows(dets), gts), IOU_GRID) == pytest.approx(
            [top1_corloc(dets, gts, t) for t in IOU_GRID], abs=1e-12
        )

    @pytest.mark.parametrize("seed", range(12))
    def test_random_scenario(self, seed):
        dets, gts = random_scenario(seed)
        if sum(len(g) for g in gts.values()) == 0:
            return
        self.check_ap(dets, gts)
        self.check_corloc(dets, gts)

    @pytest.mark.parametrize("seed", range(16))
    @pytest.mark.parametrize("use_ignore", [False, True])
    def test_ignore_scenario(self, seed, use_ignore):
        dets, gts, ignored = ignore_scenario(seed)
        self.check_ap(dets, gts, ignored if use_ignore else None)
        self.check_corloc(dets, gts)

    def test_empty_detections(self):
        _, gts, ignored = ignore_scenario(0)
        for ign in (None, ignored):
            self.check_ap([], gts, ign)
            results = ap_ignoring(Detections.from_rows([]), gts, ign, IOU_GRID)
            assert all(r.ap == 0.0 for r in results)
        self.check_corloc([], gts)

    def test_score_ties(self):
        # IoU 0.7 with the truth: a hit up to 0.7, a miss above.
        gts = {"a": np.array([[0.0, 0.0, 10.0, 10.0]])}
        hit = det("a", [0, 0, 10, 7], 0.9)
        miss = det("a", [50, 50, 60, 60], 0.9)
        for dets in ([hit, miss], [miss, hit]):
            self.check_ap(dets, gts)
            self.check_corloc(dets, gts)
        expected = [1.0 if t <= 0.7 else 0.0 for t in IOU_GRID]
        found = corloc(rank(Detections.from_rows([hit, miss]), gts), IOU_GRID)
        assert found == expected
        missed = corloc(rank(Detections.from_rows([miss, hit]), gts), IOU_GRID)
        assert missed == [0.0] * len(IOU_GRID)


# The module, which the package shadows with its evaluate function.
evaluate_module = importlib.import_module("wsodkit.evaluate")


def iou_grid_block(r, d, g):
    """A (D, G) IoU block on a grid of tenths, so values tie across columns."""
    block = r.integers(0, 11, (d, g)) / 10.0
    block[r.uniform(size=(d, g)) < 0.3] = 0.0
    return block


class TestLockstepMatcher:
    """Every (threshold, image) pair at once equals one pair at a time."""

    def check_blocks(self, blocks, thresholds):
        num = sum(pos.size for pos, _ in blocks)
        hit = np.zeros((len(thresholds), num), dtype=bool)
        evaluate_module._lockstep_hits(blocks, np.asarray(thresholds), hit)
        for k, t in enumerate(thresholds):
            for pos, ious in blocks:
                assert np.array_equal(hit[k, pos], greedy_hits(ious, t)), (t, ious)

    @settings(max_examples=25, deadline=None, derandomize=True, database=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        shapes=st.lists(
            st.tuples(st.integers(1, 9), st.integers(1, 9)), min_size=1, max_size=12
        ),
    )
    def test_matches_one_pair_at_a_time(self, seed, shapes):
        r = np.random.default_rng(seed)
        order = r.permutation(sum(d for d, _ in shapes))
        blocks, at = [], 0
        for d, g in shapes:
            pos = np.sort(order[at : at + d])
            at += d
            blocks.append((pos, iou_grid_block(r, d, g)))
        self.check_blocks(blocks, (0.0,) + IOU_GRID + (1.0,))

    def test_tiny_budget_splits_pairs(self, monkeypatch):
        monkeypatch.setattr(evaluate_module, "MATCH_ELEMENTS", 8)
        r = np.random.default_rng(5)
        blocks, at = [], 0
        for d, g in [(3, 2), (4, 2), (1, 1), (7, 5), (3, 2)]:
            blocks.append((np.arange(at, at + d), iou_grid_block(r, d, g)))
            at += d
        self.check_blocks(blocks, IOU_GRID)

    @pytest.mark.parametrize("seed", range(3))
    def test_area_views_with_ignore_match_oracle(self, seed):
        # Images with several truths each, ignored boxes, and evaluate's
        # area buckets as views: each bucket's AP equals the literal oracle
        # with every other box of the image ignored.
        r = np.random.default_rng(seed)
        gts, ignored, dets = {}, {}, []
        for i in range(8):
            iid = f"i{i}"
            truth = random_boxes(r, int(r.integers(2, 7)), size=300.0)
            gts[iid], ignored[iid] = truth[1:], truth[:1]
            for _ in range(int(r.integers(1, 12))):
                base = truth[int(r.integers(len(truth)))]
                box = np.clip(base + r.normal(0, 4.0, size=4), 0.0, None)
                box[2:] = np.maximum(box[2:], box[:2] + 1.0)
                dets.append(det(iid, box, float(r.choice([0.2, 0.5, 0.8]))))
        truth, rows = ignoring(gts, ignored)
        buckets = {
            name: {iid: inb & rows[iid] for iid, inb in masks.items()}
            for name, masks in evaluate_module._area_buckets(truth).items()
        }
        got = average_precision(
            rank(Detections.from_rows(dets), truth),
            IOU_GRID,
            subsets={"truth": rows, **buckets},
        )
        for k, t in enumerate(IOU_GRID):
            tp, fp = greedy_match(dets, gts, t, ignored)
            main = got[k].subsets["truth"]
            assert (main.tp, main.fp) == (sum(tp), sum(fp))
            want = all_point_ap(dets, gts, t, ignored)
            assert main.ap == pytest.approx(want, abs=1e-12)
            for name, masks in buckets.items():
                sub = {iid: g[masks[iid]] for iid, g in truth.items()}
                if not sum(len(g) for g in sub.values()):
                    assert name not in got[k].subsets
                    continue
                rest = {iid: g[~masks[iid]] for iid, g in truth.items()}
                want = all_point_ap(dets, sub, t, rest)
                assert got[k].subsets[name].ap == pytest.approx(want, abs=1e-12)
        assert any(len(res.subsets) > 2 for res in got)

    def test_skewed_image_parity_and_padding(self):
        # One image with 2000 detections and 50 truths among 200 small ones.
        r = np.random.default_rng(11)
        blocks, at = [], 0
        for d, g in [(2000, 50)] + [
            (int(r.integers(1, 8)), int(r.integers(1, 4))) for _ in range(200)
        ]:
            blocks.append((np.arange(at, at + d), iou_grid_block(r, d, g)))
            at += d
        self.check_blocks(blocks, (0.5, 0.75, 0.95))
        buckets = evaluate_module._size_buckets(blocks)
        padded = sum(len(items) * d * g for (d, g), items in buckets.items())
        assert padded <= 4 * sum(ious.size for _, ious in blocks)
        assert buckets[(2048, 64)] == [blocks[0]]


class TestMatcherCallCount:
    """One IoU block per image, however many detections it holds."""

    def count_iou_calls(self, monkeypatch, dets_per_image, iou_thresholds=IOU_GRID):
        rng = np.random.default_rng(3)
        records = [
            make_record(rng, f"i{k}", num_proposals=6, with_gt=True)
            for k in range(3)
        ]
        dets = []
        for rec in records:
            for box, cid in rec.gt_boxes:
                dets.append(Detection(rec.image_id, cid, box, 0.9))
                for j, b in enumerate(random_boxes(rng, dets_per_image - 1)):
                    dets.append(
                        Detection(rec.image_id, cid, Box(*b.tolist()), 0.5 - 0.01 * j)
                    )
        real = kernels.iou_matrix
        calls = []

        def counting(a, b):
            calls.append(len(a))
            return real(a, b)

        monkeypatch.setattr(kernels, "iou_matrix", counting)
        # NMS keeps every detection.
        evaluate(
            Detections.from_rows(dets), records, iou_thresholds=iou_thresholds,
            nms_thresh=1.0,
        )
        monkeypatch.undo()
        return len(calls), sum(calls)

    def test_calls_do_not_grow_with_detections(self, monkeypatch):
        counts = [self.count_iou_calls(monkeypatch, k) for k in (2, 6, 12)]
        calls = [c for c, _ in counts]
        rows = [r for _, r in counts]
        assert calls[0] == calls[1] == calls[2]
        assert rows[0] < rows[1] < rows[2]  # the work itself still scales

    def test_calls_do_not_grow_with_thresholds(self, monkeypatch):
        one = self.count_iou_calls(monkeypatch, 6, iou_thresholds=(0.5,))
        grid = self.count_iou_calls(monkeypatch, 6, iou_thresholds=IOU_GRID)
        assert one == grid

    def test_calls_do_not_grow_with_area_buckets(self, monkeypatch):
        # Three truths per image, all small or one in each bucket; the
        # buckets read column subsets of the class-level IoU blocks.
        sides = {"one": (10.0, 20.0, 30.0), "three": (10.0, 50.0, 110.0)}
        rng = np.random.default_rng(5)
        calls, area_avg = {}, {}
        for name, widths in sides.items():
            records, dets = [], []
            for k in range(3):
                rec = make_record(rng, f"i{k}", num_proposals=4, size=300.0)
                truth = [
                    Box(60.0 * j, 0.0, 60.0 * j + w, w) for j, w in enumerate(widths)
                ]
                rec = dataclasses.replace(rec, gt_boxes=[(b, 0) for b in truth])
                records.append(rec)
                dets += [
                    Detection(rec.image_id, 0, b, 0.9 - 0.1 * j)
                    for j, b in enumerate(truth)
                ]
                dets += [
                    Detection(rec.image_id, 0, Box(*b.tolist()), 0.3)
                    for b in random_boxes(rng, 3, size=300.0)
                ]
            real = kernels.iou_matrix
            count = []
            monkeypatch.setattr(
                kernels, "iou_matrix", lambda a, b: count.append(1) or real(a, b)
            )
            report = evaluate(Detections.from_rows(dets), records, nms_thresh=1.0)
            monkeypatch.undo()
            calls[name] = len(count)
            area_avg[name] = report.area_avg
        assert calls["one"] == calls["three"]
        assert [v == v for v in area_avg["one"].values()] == [True, False, False]
        assert [v == v for v in area_avg["three"].values()] == [True, True, True]


class TestCorloc:
    def test_half_hit(self):
        gts = {
            "a": np.array([[0.0, 0.0, 10.0, 10.0]]),
            "b": np.array([[0.0, 0.0, 10.0, 10.0]]),
        }
        dets = [
            det("a", [0, 0, 10, 10], 0.9),
            det("b", [50, 50, 60, 60], 0.9),
        ]
        got = corloc(rank(Detections.from_rows(dets), gts), [0.5])[0]
        assert got == pytest.approx(0.5, abs=1e-12)

    def test_only_top_scorer_counts(self):
        gts = {"a": np.array([[0.0, 0.0, 10.0, 10.0]])}
        dets = [
            det("a", [50, 50, 60, 60], 0.9),  # top-1 misses
            det("a", [0, 0, 10, 10], 0.8),
        ]
        assert corloc(rank(Detections.from_rows(dets), gts), [0.5])[0] == 0.0

    def test_score_tie_keeps_earliest(self):
        gts = {"a": np.array([[0.0, 0.0, 10.0, 10.0]])}
        hit = det("a", [0, 0, 10, 10], 0.9)
        miss = det("a", [50, 50, 60, 60], 0.9)
        assert corloc(rank(Detections.from_rows([hit, miss]), gts), [0.5])[0] == 1.0
        assert corloc(rank(Detections.from_rows([miss, hit]), gts), [0.5])[0] == 0.0
        # The tied pair behind a lower score of its image and among another
        # image's rows: the earliest of the tie still wins.
        gts["b"] = gts["a"]
        low, other = det("a", [0, 0, 10, 10], 0.5), det("b", [0, 0, 10, 10], 0.9)
        for dets, want in (
            ([low, other, hit, other, miss], 1.0),
            ([low, other, miss, other, hit], 0.5),
        ):
            assert corloc(rank(Detections.from_rows(dets), gts), [0.5])[0] == want
            assert top1_corloc(dets, gts, 0.5) == want

    def test_image_without_detection_misses(self):
        gts = {
            "a": np.array([[0.0, 0.0, 10.0, 10.0]]),
            "b": np.array([[0.0, 0.0, 10.0, 10.0]]),
        }
        dets = Detections.from_rows([det("a", [0, 0, 10, 10], 0.9)])
        assert corloc(rank(dets, gts), [0.5])[0] == 0.5

    def test_no_class_images_rejected(self):
        with pytest.raises(ValidationError):
            corloc(rank(Detections.from_rows([]), {"a": np.zeros((0, 4))}), [0.5])

    @settings(max_examples=30, deadline=None, derandomize=True, database=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        nms_thresh=st.sampled_from([0.0, 0.3, 0.5, 1.0]),
        nan_rate=st.sampled_from([0.0, 0.3, 1.0]),
    )
    def test_nms_survivors_give_raw_corloc(self, seed, nms_thresh, nan_rate):
        # evaluate ranks a class's NMS survivors once for AP and CorLoc;
        # NMS keeps each image's top detection, ties and NaN scores included.
        r = np.random.default_rng(seed)
        gts = {f"i{k}": random_boxes(r, int(r.integers(0, 4))) for k in range(4)}
        dets = []
        for _ in range(int(r.integers(0, 16))):
            iid = f"i{int(r.integers(0, 5))}"  # i4 has no truth entry
            truth = gts.get(iid, ())
            if len(truth) and r.uniform() < 0.6:
                base = truth[int(r.integers(len(truth)))]
                box = np.clip(base + r.normal(0, 2.0, size=4), 0.0, None)
                box[2:] = np.maximum(box[2:], box[:2] + 1.0)
            else:
                box = random_boxes(r, 1)[0]
            score = math.nan if r.uniform() < nan_rate else float(r.choice([0.2, 0.8]))
            dets.append(det(iid, box, score))
        if not any(len(g) for g in gts.values()):
            return
        cols = Detections.from_rows(dets)
        keep = nms_detections(cols.boxes, cols.scores, nms_thresh, cols.image)
        got = corloc(rank(cols.take(keep), gts), IOU_GRID)
        assert got == corloc(rank(cols, gts), IOU_GRID)
        assert got == pytest.approx(
            [top1_corloc(dets, gts, t) for t in IOU_GRID], abs=1e-12
        )


class TestNmsDetections:
    def test_duplicates_collapse(self):
        boxes = np.array([[0, 0, 10, 10], [0, 1, 10, 11], [50, 50, 60, 60]], float)
        scores = np.array([0.9, 0.8, 0.7])
        kept = nms_detections(boxes, scores, 0.5)
        assert kept.tolist() == [0, 2]
        assert scores[kept].tolist() == [0.9, 0.7]

    def test_empty(self):
        kept = nms_detections(np.zeros((0, 4)), np.zeros(0), 0.5)
        assert kept.dtype == np.int64
        assert kept.shape == (0,)

    # Groups past 32 boxes cross kernels' NMS_BLOCK.
    @pytest.mark.parametrize("n", [1, 2, 31, 33, 65, 200])
    @pytest.mark.parametrize("thresh", [0.0, 0.3, 0.5, 1.0])
    def test_matches_sequential_oracle(self, n, thresh):
        r = np.random.default_rng(n)
        boxes = random_boxes(r, n)
        boxes[1::4] = boxes[: len(boxes[1::4])]
        # Scores on a coarse grid tie exactly; ties go to the earlier row.
        scores = r.integers(0, max(2, n // 4), n) / 8.0
        kept = nms_detections(boxes, scores, thresh)
        assert kept.dtype == np.int64
        assert np.array_equal(kept, nms_sequential(boxes, scores, thresh))


# Values as the writer may meet them: any coordinate type Box accepts (a
# float32 json.dumps refuses), class ids json.dumps or int() refuse, scores
# float() refuses or turns non-finite, ids needing escapes.
COORDS = st.one_of(
    st.integers(0, 10**6),
    st.floats(0.0, 1e6),
    st.just(-0.0),
    st.floats(0.0, 1e6).map(np.float64),
    st.floats(0.0, 1e6, width=32).map(np.float32),
    st.booleans(),
)
CLASS_IDS = st.one_of(
    st.integers(0, 20),
    st.integers(0, 20).map(np.int64),
    st.integers(0, 20).map(np.int32),
    st.floats(0.0, 20.0),
    st.booleans(),
    st.sampled_from(["3", "x", None, math.nan, math.inf]),
)
SCORES = st.one_of(
    st.floats(),
    st.floats().map(np.float64),
    st.floats(width=32).map(np.float32),
    st.integers(-(10**20), 10**20),
    st.sampled_from(["0.5", "nan", "x", None]),
)
IMAGE_IDS = st.one_of(
    st.text(alphabet=st.sampled_from('a"\\/\n\x00é☃\U0001f600\ud800'), max_size=6),
    # Any code point, surrogates included, without Hypothesis's charmap.
    st.lists(st.integers(0, 0x10FFFF).map(chr), max_size=4).map("".join),
    st.integers(),
    st.none(),
)


@st.composite
def boxes(draw):
    corners = []
    for _ in range(2):
        lo, hi = sorted([draw(COORDS), draw(COORDS)], key=float)
        if hi <= lo:  # compared as Box compares them
            hi = float(lo) + 1.0
        corners.append((lo, hi))
    (x1, x2), (y1, y2) = corners
    return Box(x1, y1, x2, y2)


@st.composite
def detection_lists(draw):
    # Detections draw from a small pool of boxes, so some share one Box.
    pool = st.sampled_from(draw(st.lists(boxes(), min_size=1, max_size=4)))
    return [
        Detection(draw(IMAGE_IDS), draw(CLASS_IDS), draw(pool), draw(SCORES))
        for _ in range(draw(st.integers(0, 6)))
    ]


NULL = Path(os.devnull)


def written(write, dets, path):
    """The file's bytes, or the type of the exception the writer raised."""
    try:
        write(dets, path)
    except Exception as e:  # noqa: BLE001 - the type is the result
        return type(e)
    return path.read_bytes()


def save_rows(dets, path):
    """Rows through a set into the writer, as a caller holding rows does."""
    save_detections(Detections.from_rows(dets), path)


def same_columns(a, b):
    """Two sets equal column by column, bit for bit, tables included."""
    return (
        a.image_ids == b.image_ids
        and np.array_equal(a.image, b.image)
        and np.array_equal(a.class_ids, b.class_ids)
        and a.boxes.tobytes() == b.boxes.tobytes()
        and a.scores.tobytes() == b.scores.tobytes()
    )


class TestDetectionIO:
    def test_round_trip(self, tmp_path):
        dets = Detections.from_rows([
            det("a", [0.5, 1.5, 10.25, 11.75], 0.875, cid=2),
            det("b", [3, 4, 5, 6], 0.125),
        ])
        p = tmp_path / "dets.jsonl"
        save_detections(dets, p)
        loaded = load_detections(p)
        assert loaded == dets
        assert same_columns(loaded, dets)

    def test_save_byte_stable(self, tmp_path):
        dets = Detections.from_rows([det("a", [1, 2, 3, 4], 1.0 / 3.0)])
        p1, p2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        save_detections(dets, p1)
        save_detections(dets, p2)
        assert p1.read_bytes() == p2.read_bytes()

    @given(dets=detection_lists())
    @example(dets=[det("a", [0, 0, 1, 1], s) for s in (math.nan, math.inf, -math.inf)])
    @example(dets=[det("a", [0, 0, 1, 1], s) for s in (-0.0, 5e-324, 1e308)])
    @settings(
        max_examples=50,
        deadline=None,
        database=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    def test_save_matches_dumps_oracle(self, tmp_path, dets):
        path = tmp_path / "f.jsonl"
        # Each row the literal writer refuses, the set refuses the same way.
        # Only the outcome matters here, so those rows go to the null device.
        for d in dets:
            refused = written(save_detections_dumps, [d], NULL)
            if isinstance(refused, type):
                assert written(save_rows, [d], NULL) is refused
        # The whole list writes what the literal writer writes, with str ids
        # and float corners.
        assert written(save_rows, dets, path) == written(
            save_detections_rows, dets, path
        )

    def test_many_lines_match_oracle(self, tmp_path, monkeypatch):
        # Lines cross many of the writer's chunks, each with its own boxes.
        monkeypatch.setattr(evaluate_module, "DETECTION_CHUNK", 64)
        r = np.random.default_rng(0)
        boxes = random_boxes(r, 400)
        dets = [
            det(f"i{k % 7}", boxes[k % 400], float(r.uniform()), k % 3)
            for k in range(1100)
        ]
        save_rows(dets, tmp_path / "got.jsonl")
        save_detections_dumps(dets, tmp_path / "want.jsonl")
        got = (tmp_path / "got.jsonl").read_bytes()
        assert got == (tmp_path / "want.jsonl").read_bytes()
        assert got.count(b"\n") == 1100

    def test_oracle_cases_reach_both_outcomes(self, tmp_path):
        # The property above sees written files and raised errors alike.
        cases = [
            [det("a", [0, 0, 1, 1], 0.5)],
            [det("a", [0, 0, np.float32(1), 1], 0.5)],
            [Detection("a", "x", Box(0, 0, 1, 1), 0.5)],
            [Detection(object(), 0, Box(0, 0, 1, 1), 0.5)],
        ]
        for write in (save_rows, save_detections_dumps):
            got = [written(write, c, tmp_path / "f.jsonl") for c in cases]
            assert isinstance(got[0], bytes)
            assert got[1:] == [TypeError, ValueError, TypeError]

    def test_shared_boxes_round_trip(self, tmp_path):
        a, b = Box(1.0, 2.0, 3.0, 4.0), Box(0.0, 0.5, 2.0, 2.5)
        dets = Detections.from_rows([
            det("i0", [1.0, 2.0, 3.0, 4.0], 0.9),  # equal to a, not a itself
            Detection("i0", 1, a, 0.8),
            Detection("i1", 0, b, 0.7),
            Detection("i1", 2, a, 0.6),
            Detection("i2", 0, b, 0.5),
        ])
        p = tmp_path / "dets.jsonl"
        save_detections(dets, p)
        assert load_detections(p) == dets

    def test_signed_zero_boxes_stay_apart(self, tmp_path):
        # -0.0 == 0.0, and both pass Box validation.
        dets = Detections.from_rows([
            det("a", [0.0, 0.0, 1.0, 1.0], 0.5),
            det("a", [-0.0, 0.0, 1.0, 1.0], 0.5),
            det("a", [0.0, -0.0, 1.0, 1.0], 0.5),
            det("a", [-0.0, 0.0, 1.0, 1.0], 0.5),
            det("a", [0, 0, 1, 1], 0.5),
        ])
        p, again = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        save_detections(dets, p)
        loaded = load_detections(p)
        signs = [[math.copysign(1.0, v) for v in d.box.as_list()] for d in loaded]
        assert signs == [[1, 1, 1, 1], [-1, 1, 1, 1], [1, -1, 1, 1], [-1, 1, 1, 1],
                         [1, 1, 1, 1]]
        assert same_columns(loaded, dets)
        save_detections(loaded, again)
        assert again.read_bytes() == p.read_bytes()

    # Each bad line follows a good one with the same box, so the box cache
    # already holds it; a line's number and error class do not depend on that.
    # Each bad line follows a good one, so the loader has columns in hand
    # when it meets it; a line's number and error class do not depend on that.
    GOOD = {"image_id": "a", "box": [1, 0, 2, 2], "class_id": 0, "score": 0.5}
    BAD_LINES = [
        ('{"image_id": "a"', ParseError, "line 2"),
        ("   ", ParseError, "line 2: empty line"),
        ("[1, 0, 2, 2]", ValidationError, "line 2: bad detection"),
        ({"box": None}, ValidationError, "line 2: bad detection"),
        ({"box": [1, 0, 2]}, ValidationError, "line 2: bad detection"),
        ({"box": [True, 0, 2, 2]}, ValidationError, "line 2: bad detection"),
        ({"box": [1, False, 2, 2]}, ValidationError, "line 2: bad detection"),
        ({"box": ["1", 0, 2, 2]}, ValidationError, "line 2: bad detection"),
        ({"box": [1, 0, 2, [2]]}, ValidationError, "line 2: bad detection"),
        ({"box": [1, 0, 2, 10**400]}, ValidationError, "line 2: bad detection"),
        ({"box": [2, 0, 1, 2]}, ValidationError, "degenerate box"),
        ({"box": [-1, 0, 2, 2]}, ValidationError, "negative coordinates"),
        ({"box": [1, 0, 2, 1e999]}, ValidationError, "non-finite coordinates"),
        ({"score": None}, ValidationError, "line 2: bad detection"),
        ({"score": "0.5"}, ValidationError, "line 2: bad detection"),
        ({"score": True}, ValidationError, "line 2: bad detection"),
        ({"score": 10**400}, ValidationError, "line 2: bad detection"),
        ({"score": 1e999}, ValidationError, "line 2: non-finite score inf"),
        ({"image_id": 7}, ValidationError, "line 2: bad detection"),
        ({"image_id": None}, ValidationError, "line 2: bad detection"),
        ({"class_id": 0.5}, ValidationError, "line 2: bad detection"),
        ({"class_id": True}, ValidationError, "line 2: bad detection"),
        ({"class_id": "0"}, ValidationError, "line 2: bad detection"),
        ({"class_id": 10**400}, ValidationError, "line 2: bad detection"),
        ({"class_id": 1e999}, ValidationError, "line 2: bad detection"),
        ({"class_id": 3}, ValidationError, "line 2: class 3 outside 0..2"),
        ({"class_id": 2**53 + 1}, ValidationError, "line 2: class 9007199254740993 "),
        ({"class_id": -1.0}, ValidationError, "line 2: class -1 outside"),
        ({"box": [1, 0, 1, 2]}, ValidationError, "degenerate box"),
        ({"box": [1, 0, 2, 0]}, ValidationError, "degenerate box"),
    ] + [
        pytest.param(line, ParseError, json_error(line, 2), id=name)
        for name, line in UNPARSABLE_LINES.items()
    ]

    @pytest.mark.parametrize("bad, error, message", BAD_LINES)
    def test_bad_line_reports_line_and_class(self, tmp_path, bad, error, message):
        if isinstance(bad, dict):
            bad = json.dumps({**self.GOOD, **bad})
        p = tmp_path / "bad.jsonl"
        p.write_text(json.dumps(self.GOOD) + "\n" + bad + "\n", encoding="utf-8")
        with pytest.raises(error, match=message):
            load_detections(p, ClassVocabulary(["x", "y", "z"]))

    def test_integral_class_ids_convert(self, tmp_path):
        p = tmp_path / "dets.jsonl"
        lines = [{**self.GOOD, "class_id": c} for c in (2, 2.0, -0.0)]
        p.write_text("".join(json.dumps(x) + "\n" for x in lines), encoding="utf-8")
        loaded = load_detections(p)
        assert [d.class_id for d in loaded] == [2, 2, 0]
        assert all(type(d.class_id) is int for d in loaded)
        assert [type(d.score) for d in loaded] == [float] * 3

    def test_malformed_line(self, tmp_path):
        p = tmp_path / "bad.jsonl"
        p.write_text('{"image_id": "a"\n', encoding="utf-8")
        with pytest.raises(ParseError, match="line 1"):
            load_detections(p)

    def test_missing_field(self, tmp_path):
        p = tmp_path / "bad.jsonl"
        p.write_text('{"image_id": "a", "box": [0, 0, 1, 1]}\n', encoding="utf-8")
        with pytest.raises(ValidationError, match="line 1"):
            load_detections(p)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ParseError):
            load_detections(tmp_path / "nope.jsonl")

    @pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity", '"nan"'])
    def test_non_finite_score_rejected(self, tmp_path, literal):
        p = tmp_path / "bad.jsonl"
        good = '{"image_id": "a", "box": [0, 0, 1, 1], "class_id": 0, "score": 0.5}'
        bad = good.replace("0.5", literal)
        p.write_text(good + "\n" + bad + "\n", encoding="utf-8")
        # A string is not a JSON number, whatever it spells.
        problem = "bad detection" if literal.startswith('"') else "non-finite score"
        with pytest.raises(ValidationError, match=f"line 2: {problem}"):
            load_detections(p)

    def test_class_id_outside_int64(self, tmp_path):
        # Without a vocabulary the column holds int64; with one, the range
        # check names the class as before.
        lines = [{**self.GOOD, "class_id": c} for c in (2**63 - 1, -(2**63), 2**63)]
        p = tmp_path / "dets.jsonl"
        p.write_text("".join(json.dumps(x) + "\n" for x in lines), encoding="utf-8")
        with pytest.raises(ValidationError, match=r"line 3: bad detection\Z"):
            load_detections(p)
        vocab = ClassVocabulary(["x", "y", "z"])
        with pytest.raises(ValidationError, match=r"line 1: class 9223372036854775807"):
            load_detections(p, vocab)
        p.write_text("".join(json.dumps(x) + "\n" for x in lines[:2]), encoding="utf-8")
        assert list(load_detections(p).class_ids) == [2**63 - 1, -(2**63)]


# Detection lines for the loader's oracle: good ones, ones with one field
# replaced or missing, and lines that are not a detection object at all.
GOOD_OBJECTS = [
    {"image_id": iid, "box": box, "class_id": cid, "score": score}
    for iid, box, cid, score in [
        ("a", [1, 0, 2, 2], 0, 0.5),
        ("b", [0.5, -0.0, 3.25, 1e300], 2, -3),
        ('c"é', [0, 0, 1.0, 1], 2.0, 1e-300),
        ("a", [1, 0, 2, 2], -0.0, -0.0),
    ]
]
BAD_FIELDS = {
    "box": [None, "x", [1, 0, 2], [True, 0, 2, 2], ["1", 0, 2, 2], [1, 0, 2, [2]],
            [1, 0, 2, 10**400], [2, 0, 1, 2], [-1, 0, 2, 2], [1, 0, 2, 1e999],
            [-1, 0, math.nan, 2], [1, 0, 1, 2]],
    "score": [None, "0.5", True, 10**400, 1e999, -1e999, math.nan],
    "image_id": [7, None, ["a"], {"a": 1}],
    "class_id": [0.5, True, "0", None, 10**400, 1e999, math.nan, 3, -1, -1.0,
                 2**53 + 1, 2**63, -(2**63) - 1, 1e300],
}
LINE_POOL = (
    [json.dumps(obj) for obj in GOOD_OBJECTS] * 8
    + [
        json.dumps({**obj, key: value})
        for obj in GOOD_OBJECTS[:2]
        for key, values in BAD_FIELDS.items()
        for value in values
    ]
    + [json.dumps({k: v for k, v in GOOD_OBJECTS[0].items() if k != key})
       for key in GOOD_OBJECTS[0]]
    + ["", "   ", "[1, 2]", "null", "7", '"a"', *UNPARSABLE_LINES.values()]
)


def loaded(load, path, vocab):
    """The set or rows ``load`` gives, or its exception's type and message."""
    try:
        return load(path, vocab)
    except Exception as e:  # noqa: BLE001 - the error is the result
        return type(e), str(e)


LINE = '{"image_id": "a", "box": [1, 0, 2, 2], "class_id": 0, "score": 0.5}\n'
SCORE_INF = LINE.replace("0.5", "1e999")
DEGENERATE = LINE.replace("[1,", "[3,")
CLASS_HALF = LINE.replace('"class_id": 0', '"class_id": 0.5')
ID_SEVEN = LINE.replace('"a"', "7")


class TestLoaderOracle:
    """The column loader against the per-line loader it replaced."""

    @given(
        text=st.lists(st.sampled_from(LINE_POOL), max_size=7).map(
            lambda lines: "".join(line + "\n" for line in lines)
        ),
        vocab=st.sampled_from([None, ClassVocabulary(["x", "y", "z"])]),
        chunk=st.sampled_from([1, 2, 3, 4096]),
    )
    # Two bad lines of different kinds: the first in file order wins.
    @example(text=LINE + SCORE_INF + DEGENERATE, vocab=None, chunk=4096)
    # A line that is not JSON comes second to a bad value before it, also
    # when the two fall in one chunk.
    @example(text=LINE + CLASS_HALF + '{"a": 1\n', vocab=None, chunk=4096)
    @example(text=ID_SEVEN + "\n", vocab=None, chunk=2)
    @settings(
        max_examples=60,
        deadline=None,
        database=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    def test_matches_per_line_loader(self, tmp_path, text, vocab, chunk):
        # Every example rewrites the one file: a directory per example cost
        # a third of the test's time.
        path = tmp_path / "dets.jsonl"
        path.write_text(text, encoding="utf-8")
        want = loaded(load_detections_lines, path, vocab)
        with mock.patch.object(evaluate_module, "DETECTION_CHUNK", chunk):
            got = loaded(load_detections, path, vocab)
        if isinstance(want, tuple):
            assert got == want
        else:
            assert same_columns(got, Detections.from_rows(want))


def row_bits(d):
    """A row's fields as converted, floats by their bits (-0.0 and NaN apart)."""
    return (
        d.image_id,
        int(d.class_id),
        tuple(float(v).hex() for v in d.box.as_list()),
        float(d.score).hex(),
    )


def rows_equal(a, b):
    """Lists of rows compared field by field: -0.0 == 0.0, NaN equals nothing."""
    return len(a) == len(b) and all(
        x.image_id == y.image_id and x.class_id == y.class_id and x.box == y.box
        and x.score == y.score
        for x, y in zip(a, b)
    )


ROW_ZEROS = st.sampled_from([0.0, -0.0, 1.5])
ROW_SCORES = st.sampled_from([0.0, -0.0, 0.25, math.nan])


@st.composite
def row_pairs(draw):
    """Two row lists, the second often equal to the first or nearly so."""
    a = [
        Detection(draw(st.sampled_from("abc")), draw(st.integers(0, 2)),
                  Box(draw(ROW_ZEROS), draw(ROW_ZEROS), 2.0, 3.0), draw(ROW_SCORES))
        for _ in range(draw(st.integers(0, 5)))
    ]
    flip = lambda v: -v if v == 0.0 else v  # noqa: E731
    b = [
        Detection(d.image_id, d.class_id, Box(flip(d.box.x1), d.box.y1, 2.0, 3.0),
                  flip(d.score))
        for d in a
    ]
    change = draw(st.sampled_from(["none", "id", "class", "box", "score", "drop"]))
    if b and change != "none":
        k = draw(st.integers(0, len(b) - 1))
        d = b[k]
        b[k] = {
            "id": Detection(d.image_id + "x", d.class_id, d.box, d.score),
            "class": Detection(d.image_id, d.class_id + 1, d.box, d.score),
            "box": Detection(d.image_id, d.class_id, Box(0.5, 0.0, 2.0, 3.0), d.score),
            "score": Detection(d.image_id, d.class_id, d.box, 0.75),
            "drop": None,
        }[change]
        b = [d for d in b if d is not None]
    return a, b


class TestDetectionsRows:
    """A set against the list of ``Detection`` rows it stands for."""

    @given(pair=row_pairs(), order=st.randoms(use_true_random=False))
    @settings(max_examples=50, deadline=None, database=None)
    def test_equality_iteration_and_from_rows(self, pair, order):
        a, b = pair
        sa, sb = Detections.from_rows(a), Detections.from_rows(b)
        assert len(sa) == len(a)
        assert [row_bits(d) for d in sa] == [row_bits(d) for d in a]
        assert same_columns(Detections.from_rows(sa), sa)
        # The same rows over the table in another order.
        table = list(sb.image_ids)
        order.shuffle(table)
        where = np.array([table.index(iid) for iid in sb.image_ids], dtype=np.intp)
        shuffled = Detections(table, where[sb.image], sb.class_ids, sb.boxes,
                              sb.scores)
        assert (sa == sb) is (sa == shuffled) is (sb == sa) is rows_equal(a, b)
        assert (sa == sa) is rows_equal(a, a)

    def test_empty_sets(self):
        empty = Detections.from_rows([])
        assert len(empty) == 0 and list(empty) == []
        assert empty == Detections.from_rows([])
        assert empty.boxes.shape == (0, 4)
        assert empty != Detections.from_rows([det("a", [0, 0, 1, 1], 0.5)])


class TestEvaluate:
    def build(self, rng, n=4):
        records = [
            make_record(rng, f"i{k}", num_proposals=6, with_gt=True)
            for k in range(n)
        ]
        dets = []
        for rec in records:
            for box, cid in rec.gt_boxes:
                dets.append(
                    Detection(rec.image_id, cid, box, 0.9 - 0.1 * cid)
                )
        return records, dets

    @pytest.mark.parametrize("thresh", [float("nan"), -0.1, 1.5])
    def test_bad_nms_thresh_rejected(self, rng, thresh):
        records, dets = self.build(rng)
        with pytest.raises(ConfigError, match="nms_thresh"):
            evaluate(Detections.from_rows(dets), records, nms_thresh=thresh)

    @pytest.mark.parametrize("grid", [[1.5], [float("nan")], [-0.2]])
    def test_threshold_outside_unit_rejected(self, rng, grid):
        records, dets = self.build(rng)
        with pytest.raises(ConfigError, match="iou_thresholds must lie in"):
            evaluate(Detections.from_rows(dets), records, iou_thresholds=grid)

    def test_empty_grid_rejected(self, rng):
        records, dets = self.build(rng)
        with pytest.raises(ConfigError, match="iou_thresholds must not be empty"):
            evaluate(Detections.from_rows(dets), records, iou_thresholds=[])

    def test_colliding_keys_rejected(self, rng):
        records, dets = self.build(rng)
        with pytest.raises(ConfigError, match="repeat a two-decimal key"):
            evaluate(Detections.from_rows(dets), records, iou_thresholds=[0.5, 0.501])

    def test_perfect_detections_score_one(self, rng):
        records, dets = self.build(rng)
        rep = evaluate(Detections.from_rows(dets), records, iou_thresholds=(0.5,))
        assert rep.map50 == pytest.approx(1.0, abs=1e-12)
        assert rep.corloc50 == pytest.approx(1.0, abs=1e-12)
        assert rep.class_ids == [0, 1]

    def test_map75_nan_when_grid_lacks_it(self, rng):
        records, dets = self.build(rng)
        rep = evaluate(Detections.from_rows(dets), records, iou_thresholds=(0.5,))
        assert rep.map75 != rep.map75
        obj = rep.to_json()
        assert obj["map75"] is None
        json.dumps(obj)  # strict JSON, no NaN literals

    def test_full_grid_means(self, rng):
        records, dets = self.build(rng)
        rep = evaluate(Detections.from_rows(dets), records)
        assert rep.thresholds == list(IOU_GRID)
        assert rep.map_avg == pytest.approx(
            float(np.mean([rep.map_by_thresh[t] for t in rep.thresholds])),
            abs=1e-12,
        )
        assert rep.corloc_avg == pytest.approx(
            float(np.mean([rep.corloc_by_thresh[t] for t in rep.thresholds])),
            abs=1e-12,
        )

    def test_unknown_image_rejected(self, rng):
        records, dets = self.build(rng)
        with pytest.raises(ValidationError):
            evaluate(Detections.from_rows([det("ghost", [0, 0, 1, 1], 0.5)]), records)

    def test_no_gt_rejected(self, rng):
        records = [make_record(rng, "a", with_gt=False)]
        with pytest.raises(ValidationError):
            evaluate(Detections.from_rows([]), records)

    def test_class_without_gt_excluded(self, rng):
        records, dets = self.build(rng)
        extra = [Detection("i0", 7, Box(0, 0, 5, 5), 0.99)]
        rep = evaluate(
            Detections.from_rows(dets + extra), records, iou_thresholds=(0.5,)
        )
        assert 7 not in rep.class_ids
        assert rep.map50 == pytest.approx(1.0, abs=1e-12)

    def test_nms_applies_to_ap_not_corloc(self, rng):
        # A duplicate just under the top score would be an FP without NMS.
        records, dets = self.build(rng, n=2)
        rec = records[0]
        box, cid = rec.gt_boxes[0]
        dup = Detection(rec.image_id, cid, box, 0.89)
        rep = evaluate(
            Detections.from_rows(dets + [dup]), records, iou_thresholds=(0.5,)
        )
        assert rep.map50 == pytest.approx(1.0, abs=1e-12)

    def test_area_buckets_partition_and_absorb(self):
        small = [0.0, 0.0, 10.0, 10.0]  # area 100 -> small
        large = [0.0, 0.0, 100.0, 100.0]  # area 10000 -> large
        rng = np.random.default_rng(0)
        rec = make_record(rng, "a", num_proposals=4, size=120.0)
        rec = dataclasses.replace(
            rec, gt_boxes=[(Box(*small), 0), (Box(*large), 0)]
        )
        dets = [det("a", small, 0.9), det("a", large, 0.8)]
        rep = evaluate(Detections.from_rows(dets), [rec], iou_thresholds=(0.5,))
        assert rep.area_ap["small"][0.5] == pytest.approx(1.0, abs=1e-12)
        assert rep.area_ap["large"][0.5] == pytest.approx(1.0, abs=1e-12)
        # No medium ground truth anywhere: NaN in the report, None in JSON.
        assert rep.area_ap["medium"][0.5] != rep.area_ap["medium"][0.5]
        assert rep.to_json()["area_ap"]["medium"]["0.50"] is None

    def test_report_json_round_trip_stable(self, rng):
        records, dets = self.build(rng)
        a = evaluate(Detections.from_rows(dets), records).to_json()
        b = evaluate(Detections.from_rows(dets), records).to_json()
        assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)


class TestFormatTable:
    def test_rows_and_header(self, rng):
        records = [make_record(rng, f"i{k}", with_gt=True) for k in range(2)]
        dets = [
            Detection(rec.image_id, cid, box, 0.9)
            for rec in records
            for box, cid in rec.gt_boxes
        ]
        rep = evaluate(Detections.from_rows(dets), records)
        text = format_table([("baseline", rep), ("full", rep)])
        lines = text.splitlines()
        assert "method" in lines[1]
        assert any(line.startswith("baseline") for line in lines)
        assert any(line.startswith("full") for line in lines)
        assert "CorLoc" in lines[0]

    def test_nan_rendered_as_dash(self, rng):
        records = [make_record(rng, "a", with_gt=True)]
        dets = [
            Detection("a", cid, box, 0.9) for box, cid in records[0].gt_boxes
        ]
        rep = evaluate(Detections.from_rows(dets), records, iou_thresholds=(0.5,))
        text = format_table([("run", rep)])
        assert "-" in text  # map75 column has no 0.75 threshold
