"""Detection metrics against literal-oracle reimplementations."""

import dataclasses
import json

import numpy as np
import pytest

from wsodkit import kernels
from wsodkit.data import Box
from wsodkit.errors import ConfigError, ParseError, ValidationError
from wsodkit.evaluate import (
    IOU_GRID,
    Detection,
    EvalReport,
    average_precision,
    corloc,
    evaluate,
    format_table,
    load_detections,
    nms_detections,
    save_detections,
)

from conftest import make_record, random_boxes
from reference import all_point_ap, greedy_match, top1_corloc


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
        res = average_precision([det("a", [0, 0, 10, 10], 0.9)], gts, 0.5)
        assert res.ap == pytest.approx(1.0, abs=1e-12)
        assert (res.tp, res.fp, res.n_gt) == (1, 1 - 1, 1)

    def test_miss_then_hit_half(self):
        # High-scoring miss then a hit: precision at full recall is 1/2.
        gts = {"a": np.array([[0.0, 0.0, 10.0, 10.0]])}
        dets = [
            det("a", [50, 50, 60, 60], 0.9),
            det("a", [0, 0, 10, 10], 0.8),
        ]
        res = average_precision(dets, gts, 0.5)
        assert res.ap == pytest.approx(0.5, abs=1e-12)

    def test_duplicate_detection_is_fp(self):
        gts = {"a": np.array([[0.0, 0.0, 10.0, 10.0]])}
        dets = [
            det("a", [0, 0, 10, 10], 0.9),
            det("a", [0, 0, 10, 10], 0.8),
        ]
        res = average_precision(dets, gts, 0.5)
        assert (res.tp, res.fp) == (1, 1)
        assert res.ap == pytest.approx(1.0, abs=1e-12)

    def test_score_order_decides_match(self):
        gts = {"a": np.array([[0.0, 0.0, 10.0, 10.0]])}
        loose = det("a", [0, 0, 12, 10], 0.9)  # IoU 5/6
        tight = det("a", [0, 0, 10, 10], 0.5)
        res = average_precision([tight, loose], gts, 0.5)
        assert (res.tp, res.fp) == (1, 1)

    def test_no_detections_zero(self):
        gts = {"a": np.array([[0.0, 0.0, 10.0, 10.0]])}
        res = average_precision([], gts, 0.5)
        assert res.ap == 0.0 and res.n_gt == 1

    def test_no_gt_rejected(self):
        with pytest.raises(ValidationError):
            average_precision([det("a", [0, 0, 1, 1], 0.5)], {"a": np.zeros((0, 4))}, 0.5)

    def test_eleven_point_differs_from_all_point(self):
        # One of two truths found: all-point gives 0.5, the 11-point grid
        # counts 6 of 11 recall stops.
        gts = {
            "a": np.array([[0.0, 0.0, 10.0, 10.0], [50.0, 50.0, 60.0, 60.0]])
        }
        dets = [det("a", [0, 0, 10, 10], 0.9)]
        assert average_precision(dets, gts, 0.5).ap == pytest.approx(0.5, abs=1e-12)
        assert average_precision(dets, gts, 0.5, eleven_point=True).ap == (
            pytest.approx(6.0 / 11.0, abs=1e-12)
        )

    def test_ignored_boxes_absorb_detections(self):
        gts = {"a": np.array([[0.0, 0.0, 10.0, 10.0]])}
        ignore = {"a": np.array([[50.0, 50.0, 60.0, 60.0]])}
        dets = [
            det("a", [50, 50, 60, 60], 0.9),  # absorbed, not an FP
            det("a", [0, 0, 10, 10], 0.8),
        ]
        res = average_precision(dets, gts, 0.5, ignore_by_image=ignore)
        assert (res.tp, res.fp) == (1, 0)
        assert res.ap == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("seed", range(12))
    def test_matches_brute_force(self, seed):
        dets, gts = random_scenario(seed)
        n_gt = sum(len(g) for g in gts.values())
        if n_gt == 0:
            return
        for thresh in (0.3, 0.5, 0.75):
            got = average_precision(dets, gts, thresh)
            assert got.ap == pytest.approx(all_point_ap(dets, gts, thresh), abs=1e-12)
            assert corloc(dets, gts, thresh) == pytest.approx(
                top1_corloc(dets, gts, thresh), abs=1e-12
            )

    @pytest.mark.parametrize("seed", range(6))
    def test_tp_nonincreasing_in_threshold(self, seed):
        dets, gts = random_scenario(seed, num_images=3)
        if sum(len(g) for g in gts.values()) == 0:
            return
        tps = [average_precision(dets, gts, t).tp for t in IOU_GRID]
        assert all(a >= b for a, b in zip(tps, tps[1:]))


class TestIgnoreAwareMatching:
    @pytest.mark.parametrize("seed", range(16))
    @pytest.mark.parametrize("use_ignore", [False, True])
    def test_matches_oracle(self, seed, use_ignore):
        dets, gts, ignored = ignore_scenario(seed)
        ign = ignored if use_ignore else None
        for thresh in (0.3, 0.5, 0.75):
            got = average_precision(dets, gts, thresh, ignore_by_image=ign)
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
        res = average_precision(dets, gts, 0.5, ignore_by_image=ignore)
        assert (res.tp, res.fp) == (1, 1)

    def test_threshold_is_inclusive_for_truth_and_ignored(self):
        # Each detection overlaps its box at IoU exactly 100 / 200 = 0.5.
        gts = {"a": np.array([[0.0, 0.0, 10.0, 10.0]])}
        ignore = {"a": np.array([[50.0, 50.0, 60.0, 60.0]])}
        dets = [
            det("a", [0, 0, 20, 10], 0.9),
            det("a", [50, 50, 70, 60], 0.8),
        ]
        res = average_precision(dets, gts, 0.5, ignore_by_image=ignore)
        assert (res.tp, res.fp) == (1, 0)
        assert greedy_match(dets, gts, 0.5, ignore) == ([1.0], [0.0])


class TestMatcherCallCount:
    """One IoU block per image, however many detections it holds."""

    def count_iou_calls(self, monkeypatch, dets_per_image):
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
        evaluate(dets, records, nms_thresh=1.0)  # NMS keeps every detection
        monkeypatch.undo()
        return len(calls), sum(calls)

    def test_calls_do_not_grow_with_detections(self, monkeypatch):
        counts = [self.count_iou_calls(monkeypatch, k) for k in (2, 6, 12)]
        calls = [c for c, _ in counts]
        rows = [r for _, r in counts]
        assert calls[0] == calls[1] == calls[2]
        assert rows[0] < rows[1] < rows[2]  # the work itself still scales


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
        assert corloc(dets, gts, 0.5) == pytest.approx(0.5, abs=1e-12)

    def test_only_top_scorer_counts(self):
        gts = {"a": np.array([[0.0, 0.0, 10.0, 10.0]])}
        dets = [
            det("a", [50, 50, 60, 60], 0.9),  # top-1 misses
            det("a", [0, 0, 10, 10], 0.8),
        ]
        assert corloc(dets, gts, 0.5) == 0.0

    def test_score_tie_keeps_earliest(self):
        gts = {"a": np.array([[0.0, 0.0, 10.0, 10.0]])}
        hit = det("a", [0, 0, 10, 10], 0.9)
        miss = det("a", [50, 50, 60, 60], 0.9)
        assert corloc([hit, miss], gts, 0.5) == 1.0
        assert corloc([miss, hit], gts, 0.5) == 0.0

    def test_image_without_detection_misses(self):
        gts = {
            "a": np.array([[0.0, 0.0, 10.0, 10.0]]),
            "b": np.array([[0.0, 0.0, 10.0, 10.0]]),
        }
        assert corloc([det("a", [0, 0, 10, 10], 0.9)], gts, 0.5) == 0.5

    def test_no_class_images_rejected(self):
        with pytest.raises(ValidationError):
            corloc([], {"a": np.zeros((0, 4))}, 0.5)


class TestNmsDetections:
    def test_duplicates_collapse(self):
        dets = [
            det("a", [0, 0, 10, 10], 0.9),
            det("a", [0, 1, 10, 11], 0.8),
            det("a", [50, 50, 60, 60], 0.7),
        ]
        kept = nms_detections(dets, 0.5)
        assert [d.score for d in kept] == [0.9, 0.7]

    def test_empty(self):
        assert nms_detections([], 0.5) == []


class TestDetectionIO:
    def test_round_trip(self, tmp_path):
        dets = [
            det("a", [0.5, 1.5, 10.25, 11.75], 0.875, cid=2),
            det("b", [3, 4, 5, 6], 0.125),
        ]
        p = tmp_path / "dets.jsonl"
        save_detections(dets, p)
        loaded = load_detections(p)
        assert loaded == dets

    def test_save_byte_stable(self, tmp_path):
        dets = [det("a", [1, 2, 3, 4], 1.0 / 3.0)]
        p1, p2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        save_detections(dets, p1)
        save_detections(dets, p2)
        assert p1.read_bytes() == p2.read_bytes()

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
        with pytest.raises(ValidationError, match="line 2: non-finite score"):
            load_detections(p)


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
            evaluate(dets, records, nms_thresh=thresh)

    def test_perfect_detections_score_one(self, rng):
        records, dets = self.build(rng)
        rep = evaluate(dets, records, iou_thresholds=(0.5,))
        assert rep.map50 == pytest.approx(1.0, abs=1e-12)
        assert rep.corloc50 == pytest.approx(1.0, abs=1e-12)
        assert rep.class_ids == [0, 1]

    def test_map75_nan_when_grid_lacks_it(self, rng):
        records, dets = self.build(rng)
        rep = evaluate(dets, records, iou_thresholds=(0.5,))
        assert rep.map75 != rep.map75
        obj = rep.to_json()
        assert obj["map75"] is None
        json.dumps(obj)  # strict JSON, no NaN literals

    def test_full_grid_means(self, rng):
        records, dets = self.build(rng)
        rep = evaluate(dets, records)
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
            evaluate([det("ghost", [0, 0, 1, 1], 0.5)], records)

    def test_no_gt_rejected(self, rng):
        records = [make_record(rng, "a", with_gt=False)]
        with pytest.raises(ValidationError):
            evaluate([], records)

    def test_class_without_gt_excluded(self, rng):
        records, dets = self.build(rng)
        extra = [Detection("i0", 7, Box(0, 0, 5, 5), 0.99)]
        rep = evaluate(dets + extra, records, iou_thresholds=(0.5,))
        assert 7 not in rep.class_ids
        assert rep.map50 == pytest.approx(1.0, abs=1e-12)

    def test_nms_applies_to_ap_not_corloc(self, rng):
        # A duplicate just under the top score would be an FP without NMS.
        records, dets = self.build(rng, n=2)
        rec = records[0]
        box, cid = rec.gt_boxes[0]
        dup = Detection(rec.image_id, cid, box, 0.89)
        rep = evaluate(dets + [dup], records, iou_thresholds=(0.5,))
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
        rep = evaluate(dets, [rec], iou_thresholds=(0.5,))
        assert rep.area_ap["small"][0.5] == pytest.approx(1.0, abs=1e-12)
        assert rep.area_ap["large"][0.5] == pytest.approx(1.0, abs=1e-12)
        # No medium ground truth anywhere: NaN in the report, None in JSON.
        assert rep.area_ap["medium"][0.5] != rep.area_ap["medium"][0.5]
        assert rep.to_json()["area_ap"]["medium"]["0.50"] is None

    def test_report_json_round_trip_stable(self, rng):
        records, dets = self.build(rng)
        a = evaluate(dets, records).to_json()
        b = evaluate(dets, records).to_json()
        assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)


class TestFormatTable:
    def test_rows_and_header(self, rng):
        records = [make_record(rng, f"i{k}", with_gt=True) for k in range(2)]
        dets = [
            Detection(rec.image_id, cid, box, 0.9)
            for rec in records
            for box, cid in rec.gt_boxes
        ]
        rep = evaluate(dets, records)
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
        rep = evaluate(dets, records, iou_thresholds=(0.5,))
        text = format_table([("run", rep)])
        assert "-" in text  # map75 column has no 0.75 threshold
