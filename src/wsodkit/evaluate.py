"""Detection metrics: IoU, NMS, average precision, CorLoc, and reports.

IoU uses continuous coordinates (no +1 on widths). AP follows greedy
confidence-ordered matching: each detection takes the unmatched ground
truth it overlaps most, counting as a true positive only at or above the
IoU threshold, and the precision/recall curve is integrated under its
monotone envelope at every recall change (an 11-point variant is
available). The matcher works per image, as the COCO API's
``evaluateImg`` does: the detections are ranked once, each image gets one
IoU block between its detections, in score order, and its truths, plus
one per-row maximum over its ignored truths, and those serve every IoU
threshold. Greedy claims on the block run in array rounds, each
resolving every detection up to the next claim. CorLoc asks, per class,
on what fraction of the images containing the class the single most
confident detection hits; each image's top detection and its best
overlap are likewise found once for all thresholds.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np

from wsodkit import kernels
from wsodkit.data import Box, ClassVocabulary, ImageRecord, box_from_json
from wsodkit.errors import ConfigError, ParseError, ValidationError
from wsodkit.jsonio import as_float, as_int, as_type, read_jsonl, require

DEFAULT_NMS_THRESH = 0.5
IOU_GRID = tuple(round(0.5 + 0.05 * i, 2) for i in range(10))
AREA_SMALL_MAX = 32.0 * 32.0
AREA_MEDIUM_MAX = 96.0 * 96.0
AREA_BUCKETS = ("small", "medium", "large")


def check_fraction(name: str, value: float, upper_open: bool = False) -> None:
    """Reject a threshold outside [0, 1] ([0, 1) with ``upper_open``).

    NaN and infinities fall outside both, so a bad command-line value ends
    in a ConfigError instead of silently changing what is kept.
    """
    inside = 0.0 <= value < 1.0 if upper_open else 0.0 <= value <= 1.0
    if not inside:
        bound = "1)" if upper_open else "1]"
        raise ConfigError(f"{name} must lie in [0, {bound}, got {value}")


@dataclass(frozen=True)
class Detection:
    """One scored box prediction for one image and class."""

    image_id: str
    class_id: int
    box: Box
    score: float


def nms_detections(boxes: np.ndarray, scores: np.ndarray, thresh: float) -> np.ndarray:
    """Greedy NMS over one image/class group, given as arrays.

    ``boxes`` is (N, 4) and ``scores`` (N,). Returns the kept row indices
    as int64, in descending-score order with ties going to the earlier
    row; an empty group keeps nothing. Callers build objects only for the
    rows it returns.
    """
    return kernels.nms(boxes, scores, thresh)


def save_detections(dets: Iterable[Detection], path: str | Path) -> None:
    """Write detections as JSONL; deterministic for equal inputs."""
    with open(path, "w", encoding="utf-8") as fh:
        for d in dets:
            obj = {
                "image_id": d.image_id,
                "box": d.box.as_list(),
                "class_id": int(d.class_id),
                "score": float(d.score),
            }
            fh.write(json.dumps(obj) + "\n")


def load_detections(
    path: str | Path, vocab: ClassVocabulary | None = None
) -> list[Detection]:
    """Read detections JSONL; class ids must lie in ``vocab`` when given."""
    dets: list[Detection] = []
    for lineno, obj in read_jsonl(path, "detections", ParseError):
        bad = f"{path}: line {lineno}: bad detection"
        box = box_from_json(require(obj, "box", bad), bad)
        score = as_float(obj.get("score"), bad)
        # json.loads accepts the NaN and Infinity literals.
        if not math.isfinite(score):
            raise ValidationError(f"{path}: line {lineno}: non-finite score {score}")
        image_id = as_type(obj.get("image_id"), str, bad)
        cid = as_int(obj.get("class_id"), bad)
        if vocab is not None and not 0 <= cid < len(vocab):
            raise ValidationError(
                f"{path}: line {lineno}: class {cid} outside 0..{len(vocab) - 1}"
            )
        dets.append(Detection(image_id, cid, box, score))
    return dets


@dataclass
class APResult:
    """AP for one class at one threshold, with the counts behind it."""

    ap: float
    n_gt: int
    tp: int
    fp: int


def _greedy_hits(ious: np.ndarray, iou_thresh: float) -> np.ndarray:
    """Greedy matching on one image's (D, G) IoU block, rows in score order.

    Each row takes the unused truth it overlaps most (first on ties) and
    hits when that overlap reaches the threshold. Rows between two claims
    see the same used set, so each round resolves every row up to the next
    claim at once: at most G + 1 rounds instead of one step per row.
    """
    hits = np.zeros(len(ious), dtype=bool)
    used = np.zeros(ious.shape[1], dtype=bool)
    start = 0
    while start < len(ious):
        block = np.where(used, -1.0, ious[start:])
        claim = np.flatnonzero(block.max(axis=1) >= iou_thresh)
        if not claim.size:
            break
        row = start + int(claim[0])
        hits[row] = True
        used[int(np.argmax(block[claim[0]]))] = True
        start = row + 1
    return hits


def _match(
    dets: Sequence[Detection],
    gts_by_image: Mapping[str, np.ndarray],
    iou_thresholds: Sequence[float],
    ignore_by_image: Mapping[str, np.ndarray] | None = None,
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Greedy matching in descending score order (stable ties).

    Yields, per threshold, tp and fp indicator arrays aligned with the
    sorted order, dropping detections absorbed by ignored ground truth.
    The ranking and, per image, the IoU block against its truths and each
    row's best overlap with its ignored boxes are computed once: IoU is
    elementwise, so every threshold reads the same values.
    """
    scores = np.array([d.score for d in dets], dtype=np.float64)
    order = np.argsort(-scores, kind="stable")
    boxes = np.array([d.box.as_list() for d in dets], dtype=np.float64)[order]
    image_ids: dict[str, int] = {}
    image_of = np.array(
        [image_ids.setdefault(d.image_id, len(image_ids)) for d in dets]
    )[order]
    # Group k holds the sorted positions, ascending, of the k-th image in
    # image_ids.
    by_image = np.argsort(image_of, kind="stable")
    groups = np.split(by_image, np.flatnonzero(np.diff(image_of[by_image])) + 1)
    # Per image: sorted positions, IoU block against its truths (None
    # without truth), best overlap with its ignored boxes (None without).
    blocks = []
    for iid, pos in zip(image_ids, groups):
        gts = gts_by_image.get(iid)
        ious = None
        if gts is not None and len(gts):
            ious = kernels.iou_matrix(boxes[pos], gts)
        ign = None if ignore_by_image is None else ignore_by_image.get(iid)
        ign_max = None
        if ign is not None and len(ign):
            ign_max = kernels.iou_matrix(boxes[pos], ign).max(axis=1)
        blocks.append((pos, ious, ign_max))
    for t in iou_thresholds:
        hit = np.zeros(len(dets), dtype=bool)
        absorbed = np.zeros(len(dets), dtype=bool)
        for pos, ious, ign_max in blocks:
            if ious is not None:
                hit[pos] = _greedy_hits(ious, t)
            if ign_max is not None:
                # Absorbed by out-of-bucket ground truth.
                absorbed[pos] = ~hit[pos] & (ign_max >= t)
        keep = ~absorbed
        yield hit[keep].astype(np.float64), (~hit[keep]).astype(np.float64)


def _ap_from_flags(
    tp: np.ndarray, fp: np.ndarray, n_gt: int, eleven_point: bool
) -> APResult:
    if tp.size == 0:
        return APResult(0.0, n_gt, 0, 0)
    ctp = np.cumsum(tp)
    cfp = np.cumsum(fp)
    recall = ctp / n_gt
    precision = ctp / (ctp + cfp)
    if eleven_point:
        ap = 0.0
        for t in np.linspace(0.0, 1.0, 11):
            mask = recall >= t
            ap += precision[mask].max() if mask.any() else 0.0
        ap /= 11.0
    else:
        mrec = np.concatenate(([0.0], recall, [1.0]))
        mpre = np.concatenate(([0.0], precision, [0.0]))
        mpre = np.maximum.accumulate(mpre[::-1])[::-1]
        idx = np.nonzero(mrec[1:] != mrec[:-1])[0]
        ap = float(((mrec[idx + 1] - mrec[idx]) * mpre[idx + 1]).sum())
    return APResult(float(ap), n_gt, int(ctp[-1]), int(cfp[-1]))


def average_precision(
    dets: Sequence[Detection],
    gts_by_image: Mapping[str, np.ndarray],
    iou_thresholds: Sequence[float],
    eleven_point: bool = False,
    ignore_by_image: Mapping[str, np.ndarray] | None = None,
) -> list[APResult]:
    """Single-class AP over any number of images, one result per threshold.

    ``gts_by_image`` maps image id to an (G, 4) array of this class's
    boxes. Detections matching only ``ignore_by_image`` boxes are dropped
    from the curve instead of counting as false positives.
    """
    n_gt = sum(len(g) for g in gts_by_image.values())
    if n_gt <= 0:
        raise ValidationError("AP undefined for a class with no ground truth")
    return [
        _ap_from_flags(tp, fp, n_gt, eleven_point)
        for tp, fp in _match(dets, gts_by_image, iou_thresholds, ignore_by_image)
    ]


def corloc(
    dets: Sequence[Detection],
    gts_by_image: Mapping[str, np.ndarray],
    iou_thresholds: Sequence[float],
) -> list[float]:
    """Fraction of class-bearing images whose top detection hits, per threshold.

    ``dets`` are one class's raw detections (no NMS or score floor needed:
    only the most confident one per image is consulted; score ties keep
    the earliest detection). Images with no detection count as misses.
    """
    images = [iid for iid, g in gts_by_image.items() if len(g)]
    if not images:
        raise ValidationError("CorLoc undefined with no class-bearing images")
    best: dict[str, Detection] = {}
    for d in dets:
        cur = best.get(d.image_id)
        if cur is None or d.score > cur.score:
            best[d.image_id] = d
    # Each image's top detection's best overlap with its truths.
    top_iou = np.array([
        kernels.iou_matrix(best[iid].box.as_array()[None, :], gts_by_image[iid]).max()
        for iid in images
        if iid in best
    ])
    return [int(np.count_nonzero(top_iou >= t)) / len(images) for t in iou_thresholds]


@dataclass
class EvalReport:
    """All metrics for one detection set against one labeled dataset."""

    thresholds: list[float]
    class_ids: list[int]
    ap: dict[int, dict[float, float]]
    counts: dict[int, dict[float, tuple[int, int, int]]]
    map_by_thresh: dict[float, float]
    map_avg: float
    map50: float
    map75: float
    area_ap: dict[str, dict[float, float]]
    area_avg: dict[str, float]
    corloc_by_class: dict[int, dict[float, float]]
    corloc_by_thresh: dict[float, float]
    corloc_avg: float
    corloc50: float
    corloc75: float
    nms_thresh: float = DEFAULT_NMS_THRESH
    eleven_point: bool = False

    def to_json(self) -> dict:
        # Undefined metrics (NaN) become null so the file is strict JSON.
        num = lambda v: None if isinstance(v, float) and np.isnan(v) else v
        tkey = lambda t: f"{t:.2f}"
        return {
            "thresholds": [float(t) for t in self.thresholds],
            "class_ids": list(self.class_ids),
            "nms_thresh": self.nms_thresh,
            "eleven_point": self.eleven_point,
            "ap": {
                str(c): {tkey(t): num(v) for t, v in self.ap[c].items()}
                for c in self.class_ids
            },
            "counts": {
                str(c): {
                    tkey(t): {"tp": tp, "fp": fp, "gt": gt}
                    for t, (tp, fp, gt) in self.counts[c].items()
                }
                for c in self.class_ids
            },
            "map_by_thresh": {
                tkey(t): num(v) for t, v in self.map_by_thresh.items()
            },
            "map_avg": num(self.map_avg),
            "map50": num(self.map50),
            "map75": num(self.map75),
            "area_ap": {
                b: {tkey(t): num(v) for t, v in per.items()}
                for b, per in self.area_ap.items()
            },
            "area_avg": {b: num(v) for b, v in self.area_avg.items()},
            "corloc_by_class": {
                str(c): {tkey(t): num(v) for t, v in self.corloc_by_class[c].items()}
                for c in self.class_ids
            },
            "corloc_by_thresh": {
                tkey(t): num(v) for t, v in self.corloc_by_thresh.items()
            },
            "corloc_avg": num(self.corloc_avg),
            "corloc50": num(self.corloc50),
            "corloc75": num(self.corloc75),
        }


def _gt_index(
    records: Sequence[ImageRecord],
) -> tuple[dict[int, dict[str, np.ndarray]], list[int]]:
    by_class: dict[int, dict[str, np.ndarray]] = {}
    for rec in records:
        if not rec.gt_boxes:
            continue
        grouped: dict[int, list[list[float]]] = {}
        for box, cid in rec.gt_boxes:
            grouped.setdefault(cid, []).append(box.as_list())
        for cid, rows in grouped.items():
            by_class.setdefault(cid, {})[rec.image_id] = np.array(
                rows, dtype=np.float64
            )
    return by_class, sorted(by_class)


def evaluate(
    dets: Sequence[Detection],
    records: Sequence[ImageRecord],
    iou_thresholds: Sequence[float] = IOU_GRID,
    nms_thresh: float = DEFAULT_NMS_THRESH,
    eleven_point: bool = False,
) -> EvalReport:
    """Score detections against record ground truth.

    CorLoc reads the raw detections; AP sees them after per-image,
    per-class NMS. Classes with no ground-truth box anywhere are excluded
    from every mean. Area buckets partition ground truth by box area at
    ``AREA_SMALL_MAX`` and ``AREA_MEDIUM_MAX``; detections over an
    out-of-bucket object are discarded rather than penalized. IoU
    thresholds must lie in [0, 1], at least one, with distinct keys at
    two decimals (the report's keys); anything else is a ConfigError.
    """
    check_fraction("nms_thresh", nms_thresh)
    if not len(iou_thresholds):
        raise ConfigError("iou_thresholds must not be empty")
    for t in iou_thresholds:
        check_fraction("iou_thresholds", float(t))
    thresholds = [round(float(t), 2) for t in iou_thresholds]
    if len(set(thresholds)) < len(thresholds):
        raise ConfigError(
            f"iou_thresholds {list(iou_thresholds)} repeat a two-decimal key"
        )
    if not any(rec.gt_boxes for rec in records):
        raise ValidationError("evaluation requires ground-truth boxes")
    known = {rec.image_id for rec in records}
    for d in dets:
        if d.image_id not in known:
            raise ValidationError(f"detection references unknown image {d.image_id!r}")
    gts, class_ids = _gt_index(records)

    dets_by_class: dict[int, list[Detection]] = {c: [] for c in class_ids}
    for d in dets:
        if d.class_id in dets_by_class:
            dets_by_class[d.class_id].append(d)

    # NMS per image and class, preserving record-then-score order.
    kept_by_class: dict[int, list[Detection]] = {}
    for cid in class_ids:
        grouped: dict[str, list[Detection]] = {}
        for d in dets_by_class[cid]:
            grouped.setdefault(d.image_id, []).append(d)
        kept: list[Detection] = []
        for rec in records:
            group = grouped.get(rec.image_id)
            if group:
                boxes = np.array([d.box.as_list() for d in group], dtype=np.float64)
                scores = np.array([d.score for d in group], dtype=np.float64)
                keep = nms_detections(boxes, scores, nms_thresh)
                kept.extend(group[i] for i in keep.tolist())
        kept_by_class[cid] = kept

    ap: dict[int, dict[float, float]] = {c: {} for c in class_ids}
    counts: dict[int, dict[float, tuple[int, int, int]]] = {c: {} for c in class_ids}
    corloc_by_class: dict[int, dict[float, float]] = {c: {} for c in class_ids}
    for cid in class_ids:
        results = average_precision(
            kept_by_class[cid], gts[cid], thresholds, eleven_point
        )
        fractions = corloc(dets_by_class[cid], gts[cid], thresholds)
        for t, res, frac in zip(thresholds, results, fractions):
            ap[cid][t] = res.ap
            counts[cid][t] = (res.tp, res.fp, res.n_gt)
            corloc_by_class[cid][t] = frac

    map_by_thresh = {
        t: float(np.mean([ap[c][t] for c in class_ids])) for t in thresholds
    }
    corloc_by_thresh = {
        t: float(np.mean([corloc_by_class[c][t] for c in class_ids]))
        for t in thresholds
    }

    # Split each class's truth into area buckets once, for every threshold.
    per_bucket: dict[str, dict[float, list[float]]] = {
        b: {t: [] for t in thresholds} for b in AREA_BUCKETS
    }
    for cid in class_ids:
        split: dict[str, tuple[dict, dict]] = {b: ({}, {}) for b in AREA_BUCKETS}
        for iid, boxes in gts[cid].items():
            areas = (boxes[:, 2] - boxes[:, 0]) * (boxes[:, 3] - boxes[:, 1])
            small = areas < AREA_SMALL_MAX
            medium = ~small & (areas < AREA_MEDIUM_MAX)
            for bucket, inb in zip(AREA_BUCKETS, (small, medium, ~small & ~medium)):
                eligible, ignored = split[bucket]
                eligible[iid] = boxes[inb]
                ignored[iid] = boxes[~inb]
        for bucket, (eligible, ignored) in split.items():
            if not any(len(g) for g in eligible.values()):
                continue
            results = average_precision(
                kept_by_class[cid], eligible, thresholds, eleven_point, ignored
            )
            for res, per_class in zip(results, per_bucket[bucket].values()):
                per_class.append(res.ap)
    area_ap = {
        b: {t: float(np.mean(v)) if v else float("nan") for t, v in per_t.items()}
        for b, per_t in per_bucket.items()
    }
    area_avg = {
        b: float(np.mean([area_ap[b][t] for t in thresholds]))
        for b in AREA_BUCKETS
    }

    def at(d: dict[float, float], t: float) -> float:
        return d.get(round(t, 2), float("nan"))

    return EvalReport(
        thresholds=thresholds,
        class_ids=class_ids,
        ap=ap,
        counts=counts,
        map_by_thresh=map_by_thresh,
        map_avg=float(np.mean(list(map_by_thresh.values()))),
        map50=at(map_by_thresh, 0.5),
        map75=at(map_by_thresh, 0.75),
        area_ap=area_ap,
        area_avg=area_avg,
        corloc_by_class=corloc_by_class,
        corloc_by_thresh=corloc_by_thresh,
        corloc_avg=float(np.mean(list(corloc_by_thresh.values()))),
        corloc50=at(corloc_by_thresh, 0.5),
        corloc75=at(corloc_by_thresh, 0.75),
        nms_thresh=nms_thresh,
        eleven_point=eleven_point,
    )


def _fmt_pct(v: float) -> str:
    if v != v:  # NaN: bucket with no ground truth
        return "   -"
    return f"{100.0 * v:4.1f}"


def format_table(rows: Sequence[tuple[str, EvalReport]]) -> str:
    """Fixed-width table: AP by IoU, AP by area, CorLoc, one row per run."""
    header = (
        f"{'':16s} | {'AP, IoU':^21s} | {'AP, area':^16s} | {'CorLoc':^21s}\n"
        f"{'method':16s} | {'0.5:0.95':>8s} {'0.5':>5s} {'0.75':>5s} | "
        f"{'S':>4s} {'M':>5s} {'L':>5s} | {'0.5:0.95':>8s} {'0.5':>5s} {'0.75':>5s}"
    )
    lines = [header]
    for name, rep in rows:
        lines.append(
            f"{name:16s} | {_fmt_pct(rep.map_avg):>8s} {_fmt_pct(rep.map50):>5s} "
            f"{_fmt_pct(rep.map75):>5s} | {_fmt_pct(rep.area_avg['small']):>4s} "
            f"{_fmt_pct(rep.area_avg['medium']):>5s} {_fmt_pct(rep.area_avg['large']):>5s} | "
            f"{_fmt_pct(rep.corloc_avg):>8s} {_fmt_pct(rep.corloc50):>5s} "
            f"{_fmt_pct(rep.corloc75):>5s}"
        )
    return "\n".join(lines)
