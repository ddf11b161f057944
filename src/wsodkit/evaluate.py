"""Detection metrics: IoU, NMS, average precision, CorLoc, and reports.

IoU uses continuous coordinates (no +1 on widths). AP follows greedy
confidence-ordered matching: each detection takes the unmatched ground
truth it overlaps most, counting as a true positive only at or above the
IoU threshold, and the precision/recall curve is integrated under its
monotone envelope at every recall change (an 11-point variant is
available). The matcher works per image, as the COCO API's
``evaluateImg`` does: the detections are ranked once and each image gets
one IoU block between its detections, in score order, and all its truths.
That block serves every IoU threshold and every view of the truth: the
full set, and each area bucket, which reads its own columns as truths and
the row maximum over the rest as the ignored overlap. Greedy claims run in
array rounds over every (threshold, image) pair of a class and view at
once, each round resolving every pair up to its next claim. ``evaluate``
reads each detection's fields once, into columns (``detection_columns``):
image index, class, boxes and scores. Each class then takes its slice of
rows: one NMS call, every image a group, and one ranking of the survivors
(``rank``) that AP and CorLoc both read.

CorLoc asks, per class, on what fraction of the images containing the
class the single most confident detection hits. That detection is row 0 of
its image's block in the ranking, and its best overlap there serves every
threshold. Ranking the survivors rather than the raw rows changes nothing:
NMS always keeps each image's first box (highest score, the earlier row on
ties, NaN last), which is also the first box a ranking of the raw rows
gives.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np

from wsodkit import kernels
from wsodkit.data import Box, ClassVocabulary, ImageRecord, box_from_json
from wsodkit.errors import ConfigError, ParseError, ValidationError
from wsodkit.jsonio import (
    as_float,
    as_int,
    as_number,
    as_type,
    read_jsonl,
    require,
)

DEFAULT_NMS_THRESH = 0.5
IOU_GRID = tuple(round(0.5 + 0.05 * i, 2) for i in range(10))
AREA_SMALL_MAX = 32.0 * 32.0
AREA_MEDIUM_MAX = 96.0 * 96.0
AREA_BUCKETS = ("small", "medium", "large")
# The types of the numbers json.loads returns, and the integers a double
# holds exactly, which need no conversion.
_NUMBER = frozenset((int, float))
_EXACT_INT = 2**53
# Elements of the largest padded IoU block the matcher builds for a set of
# (threshold, image) pairs; an image whose own blocks need more gets a set alone.
MATCH_ELEMENTS = 1 << 15


def check_fraction(name: str, value: float, upper_open: bool = False) -> None:
    """Reject a threshold outside [0, 1] ([0, 1) with ``upper_open``).

    NaN and infinities fall outside both, so a bad command-line value ends
    in a ConfigError instead of silently changing what is kept.
    """
    inside = 0.0 <= value < 1.0 if upper_open else 0.0 <= value <= 1.0
    if not inside:
        bound = "1)" if upper_open else "1]"
        raise ConfigError(f"{name} must lie in [0, {bound}, got {value}")


@dataclass(slots=True)
class Detection:
    """One scored box prediction for one image and class."""

    image_id: str
    class_id: int
    box: Box
    score: float


@dataclass(frozen=True)
class DetectionColumns:
    """A detection set as arrays, row i from the i-th detection.

    ``image`` holds each row's index into ``image_ids``, ``label`` its
    class's index into the class ids the columns were built for (-1 for
    any other class), ``boxes`` the (N, 4) float64 corners and ``scores``
    the (N,) float64 scores.
    """

    image_ids: list[str]
    image: np.ndarray
    label: np.ndarray
    boxes: np.ndarray
    scores: np.ndarray

    def __len__(self) -> int:
        return len(self.scores)

    def take(self, rows: np.ndarray) -> DetectionColumns:
        """The rows ``rows`` selects, in its order."""
        return DetectionColumns(
            self.image_ids,
            self.image[rows],
            self.label[rows],
            self.boxes[rows],
            self.scores[rows],
        )


def detection_columns(
    dets: Sequence[Detection],
    image_ids: Iterable[str] | None = None,
    class_ids: Sequence[int] = (),
) -> DetectionColumns:
    """A detection set's columns, each field read once per detection.

    ``image_ids`` lists the known images, the first of equal ids giving
    the index; a detection of any other image is a ValidationError. None
    lists the detections' own images in order of first appearance. Class
    ids match ``class_ids`` as Python compares them. Coordinates and scores
    convert to float64 as ``np.array`` converts them.
    """
    iids = [d.image_id for d in dets]
    known = dict.fromkeys(iids if image_ids is None else image_ids)
    index = {iid: k for k, iid in enumerate(known)}
    try:
        image = np.fromiter(map(index.__getitem__, iids), np.intp, len(iids))
    except KeyError as e:
        raise ValidationError(
            f"detection references unknown image {e.args[0]!r}"
        ) from None
    labels = {cid: k for k, cid in enumerate(class_ids)}
    boxes = [d.box for d in dets]
    corners = [
        [b.x1 for b in boxes],
        [b.y1 for b in boxes],
        [b.x2 for b in boxes],
        [b.y2 for b in boxes],
    ]
    return DetectionColumns(
        list(index),
        image,
        np.fromiter(
            map(labels.get, [d.class_id for d in dets], itertools.repeat(-1)),
            np.intp,
            len(iids),
        ),
        np.array(corners, dtype=np.float64).T,
        np.array([d.score for d in dets], dtype=np.float64),
    )


def nms_detections(
    boxes: np.ndarray,
    scores: np.ndarray,
    thresh: float,
    groups: np.ndarray | None = None,
) -> np.ndarray:
    """Greedy NMS within each group of boxes, given as arrays.

    ``boxes`` is (N, 4), ``scores`` (N,) and ``groups`` (N,) integer group
    ids, None for one group. Returns the kept row indices as int64, ordered
    by group id and, within a group, by descending score with ties going to
    the earlier row; an empty input keeps nothing. One call settles every
    group at once: ``infer`` passes the (record, class) groups of a chunk
    of records, ``evaluate`` one class with the image as the group. Callers
    build objects only for the rows it returns.
    """
    return kernels.nms(boxes, scores, thresh, groups)


def _json_number(value) -> str:
    """``value`` as ``json.dumps`` spells it inside a detection line."""
    if type(value) is float and math.isfinite(value):
        return float.__repr__(value)
    return json.dumps(value)


def _bad_line(path: str | Path, lineno: int) -> str:
    return f"{path}: line {lineno}: bad detection"


def save_detections(dets: Iterable[Detection], path: str | Path) -> None:
    """Write detections as JSONL, one object per line; byte-stable for equal inputs.

    Each line is ``{"image_id": ..., "box": [x1, y1, x2, y2], "class_id":
    ..., "score": ...}`` with ``json.dumps``'s default separators, ids
    escaped to ASCII and numbers spelled as Python's ``repr`` (``NaN`` and
    ``Infinity`` for non-finite scores): the bytes ``json.dumps`` gives for
    that dict. The class id goes through ``int`` and the score through
    ``float`` first. An image id is encoded once per run of its
    detections, and a ``Box`` object once per run of its image's
    detections, so the classes that ``infer`` gives one proposal's shared
    ``Box`` share its text.
    """
    with open(path, "w", encoding="utf-8") as fh:
        last_id, id_text = None, ""
        # Keyed by identity, so -0.0 and 0.0 or 1 and 1.0 never share text;
        # each entry holds its box, so that the id is not reused while the
        # entry stands. Emptied when the image changes, to bound its size.
        box_text: dict[int, tuple[Box, str]] = {}
        for d in dets:
            # Fields are read and converted, then encoded, in the order that
            # json.dumps of the line's dict takes, so a bad value raises the
            # error it raises there.
            box = d.box
            cached = box_text.get(id(box))
            coords = box.as_list() if cached is None else None
            cid = int(d.class_id)
            score = float(d.score)
            iid = d.image_id
            if type(iid) is not str or iid != last_id:
                id_text = json.dumps(iid)
                last_id = iid if type(iid) is str else None
                box_text.clear()
            if cached is None:
                cached = box_text[id(box)] = (
                    box, "[" + ", ".join(map(_json_number, coords)) + "]"
                )
            # int() and float() return exact ints and floats, which format as
            # json.dumps formats them: a finite float as its repr.
            score_text = repr(score) if math.isfinite(score) else json.dumps(score)
            fh.write(
                f'{{"image_id": {id_text}, "box": {cached[1]}, "class_id": {cid}, '
                f'"score": {score_text}}}\n'
            )


def load_detections(
    path: str | Path, vocab: ClassVocabulary | None = None
) -> list[Detection]:
    """Read detections JSONL; class ids must lie in ``vocab`` when given.

    Every line is a JSON object with a four-number ``box``, a finite
    ``score``, a string ``image_id`` and an integral ``class_id``; numbers
    are JSON ints or floats, never booleans or strings. A bad line raises
    ParseError (not JSON) or ValidationError naming its line number.
    Boxes of one file with equal coordinates, signs of zeros included,
    share one ``Box``.
    """
    dets: list[Detection] = []
    boxes: dict[tuple, Box] = {}
    num_classes = None if vocab is None else len(vocab)
    for lineno, obj in read_jsonl(path, "detections", ParseError):
        # A value of the exact type a field wants passes as it is; any other
        # goes through the converters, which convert it or raise ``bad``.
        raw = obj.get("box") if type(obj) is dict else None
        key = None
        if type(raw) is list and len(raw) == 4 and _NUMBER.issuperset(map(type, raw)):
            key = tuple(raw)
            if 0 in key:
                # -0.0 == 0.0, yet they are different boxes.
                key += tuple(math.copysign(1.0, v) for v in key if not v)
        box = boxes.get(key)
        if box is None:
            bad = _bad_line(path, lineno)
            box = box_from_json(require(obj, "box", bad), bad)
            if key is not None:
                boxes[key] = box
        score = obj.get("score")
        if type(score) is not float:
            bad = _bad_line(path, lineno)
            score = as_float(as_number(score, bad), bad)
        # json.loads accepts the NaN and Infinity literals.
        if not math.isfinite(score):
            raise ValidationError(f"{path}: line {lineno}: non-finite score {score}")
        image_id = obj.get("image_id")
        if type(image_id) is not str:
            image_id = as_type(image_id, str, _bad_line(path, lineno))
        cid = obj.get("class_id")
        if type(cid) is not int or not -_EXACT_INT <= cid <= _EXACT_INT:
            bad = _bad_line(path, lineno)
            cid = as_int(as_number(cid, bad), bad)
        if num_classes is not None and not 0 <= cid < num_classes:
            raise ValidationError(
                f"{path}: line {lineno}: class {cid} outside 0..{num_classes - 1}"
            )
        dets.append(Detection(image_id, cid, box, score))
    return dets


@dataclass
class APResult:
    """AP for one class at one threshold, with the counts behind it.

    ``subsets`` holds the result for each named truth subset that
    ``average_precision`` was asked for and that holds any truth.
    """

    ap: float
    n_gt: int
    tp: int
    fp: int
    subsets: dict[str, "APResult"] = field(default_factory=dict)


def _size_buckets(
    blocks: Sequence[tuple[np.ndarray, np.ndarray]],
) -> dict[tuple[int, int], list[tuple[np.ndarray, np.ndarray]]]:
    """Group ``(pos, ious)`` blocks by their (D, G) rounded up to powers of two.

    Blocks of one bucket share padded (D, G) arrays, so padding at most
    doubles each side of a block, and one large image never widens the
    blocks of small ones.
    """
    buckets: dict[tuple[int, int], list[tuple[np.ndarray, np.ndarray]]] = {}
    for pos, ious in blocks:
        size = tuple(1 << max(n - 1, 0).bit_length() for n in ious.shape)
        buckets.setdefault(size, []).append((pos, ious))
    return buckets


def _lockstep_hits(
    blocks: Sequence[tuple[np.ndarray, np.ndarray]],
    thresholds: np.ndarray,
    hit: np.ndarray,
) -> None:
    """Greedy matching of every (threshold, image) pair in lockstep rounds.

    ``blocks`` holds, per image, its detections' positions in the ranking
    and their (D, G) IoU block against its truths, rows in score order.
    Each row takes the unused truth it overlaps most (first on ties) and
    hits when that overlap reaches the threshold. Rows between two claims
    see the same used set, so in each round every pair takes its first open
    row whose best unused truth reaches its threshold: at most G + 1 rounds.
    Pairs share padded blocks within a size bucket, at most
    ``MATCH_ELEMENTS`` elements a block unless one image's pairs need more.
    Sets ``hit[k, pos]`` for threshold k.
    """
    nt = thresholds.size
    for (d, g), items in _size_buckets(blocks).items():
        per = max(1, MATCH_ELEMENTS // (nt * d * g))
        for c0 in range(0, len(items), per):
            chunk = items[c0 : c0 + per]
            # Padding rows and columns never reach a threshold; used truths
            # read -1, as in a one-pair-at-a-time sweep.
            block = np.full((len(chunk), d, g), -np.inf)
            for j, (_, ious) in enumerate(chunk):
                block[j, : ious.shape[0], : ious.shape[1]] = ious
            open_ious = np.repeat(block[None], nt, axis=0).reshape(-1, d, g)
            t = np.repeat(thresholds, len(chunk))[:, None]
            start = np.zeros(t.shape[0], dtype=np.intp)
            hits = np.zeros((t.shape[0], d), dtype=bool)
            live = np.arange(t.shape[0])
            rows = np.arange(d)
            while live.size:
                best = open_ious[live].max(axis=2)
                claim = (best >= t[live]) & (rows >= start[live, None])
                found = claim.any(axis=1)
                live = live[found]
                row = claim[found].argmax(axis=1)
                col = open_ious[live, row].argmax(axis=1)
                hits[live, row] = True
                open_ious[live, :, col] = -1.0
                start[live] = row + 1
            hits = hits.reshape(nt, len(chunk), d)
            for j, (pos, _) in enumerate(chunk):
                hit[:, pos] = hits[:, j, : pos.size]


@dataclass(frozen=True)
class Ranking:
    """One class's detections, ranked once by descending score (stable ties).

    ``blocks`` holds, per image holding both detections and truth, its id,
    its detections' positions in the ranking (ascending) and their IoU block
    against all its truths, rows in score order: row 0 is the image's most
    confident detection. ``size`` counts the ranked detections and
    ``truths`` is the class's truth by image, as ``rank`` was given it.
    """

    blocks: list[tuple[str, np.ndarray, np.ndarray]]
    size: int
    truths: Mapping[str, np.ndarray]


def rank(dets: DetectionColumns, gts_by_image: Mapping[str, np.ndarray]) -> Ranking:
    """Rank one class's detections against its truth, for AP and CorLoc.

    ``dets`` are the class's detections as columns (``detection_columns``),
    and ``gts_by_image`` maps image id to an (G, 4) array of its boxes.
    Every image gets one IoU block, which serves every threshold, every
    truth subset and CorLoc.
    """
    order = np.argsort(-dets.scores, kind="stable")
    boxes = dets.boxes[order]
    image_of = dets.image[order]
    # Each group holds the sorted positions, ascending, of one image.
    by_image = np.argsort(image_of, kind="stable")
    groups = np.split(by_image, np.flatnonzero(np.diff(image_of[by_image])) + 1)
    blocks = []
    for pos in groups:
        if not pos.size:
            continue
        iid = dets.image_ids[image_of[pos[0]]]
        truths = gts_by_image.get(iid)
        if truths is not None and len(truths):
            blocks.append((iid, pos, kernels.iou_matrix(boxes[pos], truths)))
    return Ranking(blocks, len(dets), gts_by_image)


def _match(
    ranked: Ranking,
    eligible: Mapping[str, np.ndarray] | None,
    iou_thresholds: Sequence[float],
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Greedy matching of ranked detections against one view of the truth.

    ``eligible`` maps every image of the ranking's blocks to a boolean mask
    over its truth columns; None makes every truth eligible. Yields, per
    threshold, tp and fp indicator arrays aligned with the ranking, dropping
    detections absorbed by ignored truth (the columns outside the mask).
    The views read the ranking's blocks: IoU is elementwise, so a column
    subset equals the block against that subset of the truths. Every
    (threshold, image) pair is matched in one lockstep pass
    (``_lockstep_hits``).
    """
    # Per image: positions, IoU block against its eligible truths (None
    # without), best overlap with its ignored truths (None without).
    parts = []
    for iid, pos, block in ranked.blocks:
        if eligible is None:
            parts.append((pos, block, None))
            continue
        inb = eligible[iid]
        parts.append((
            pos,
            block[:, inb] if inb.any() else None,
            None if inb.all() else block[:, ~inb].max(axis=1),
        ))
    thresholds = np.asarray(iou_thresholds, dtype=np.float64)
    hit = np.zeros((thresholds.size, ranked.size), dtype=bool)
    _lockstep_hits(
        [(pos, ious) for pos, ious, _ in parts if ious is not None], thresholds, hit
    )
    absorbed = np.zeros_like(hit)
    for pos, _, ign_max in parts:
        if ign_max is not None:
            absorbed[:, pos] = ~hit[:, pos] & (ign_max >= thresholds[:, None])
    for hit_t, absorbed_t in zip(hit, absorbed):
        keep = ~absorbed_t
        yield hit_t[keep].astype(np.float64), (~hit_t[keep]).astype(np.float64)


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
    ranked: Ranking,
    iou_thresholds: Sequence[float],
    eleven_point: bool = False,
    subsets: Mapping[str, Mapping[str, np.ndarray]] | None = None,
) -> list[APResult]:
    """Single-class AP over any number of images, one result per threshold.

    ``ranked`` is one class's ranking (``rank``), all of whose truth counts.
    ``subsets`` names subsets of the truth, each a map that must hold, for
    every image of the ranking's truth, a boolean mask over that image's
    rows; each result's ``subsets`` then holds the AP against a subset's
    truth alone, for every subset holding any. The rest of the truth is
    ignored there: a detection matching only ignored boxes is dropped from
    that curve instead of counting as a false positive. The full truth and
    every subset read the ranking's IoU blocks.
    """
    n_gt = sum(len(g) for g in ranked.truths.values())
    if n_gt <= 0:
        raise ValidationError("AP undefined for a class with no ground truth")
    results = [
        _ap_from_flags(tp, fp, n_gt, eleven_point)
        for tp, fp in _match(ranked, None, iou_thresholds)
    ]
    for name, masks in (subsets or {}).items():
        n_sub = sum(int(np.count_nonzero(m)) for m in masks.values())
        if n_sub <= 0:
            continue
        flags = _match(ranked, masks, iou_thresholds)
        for res, (tp, fp) in zip(results, flags):
            res.subsets[name] = _ap_from_flags(tp, fp, n_sub, eleven_point)
    return results


def corloc(ranked: Ranking, iou_thresholds: Sequence[float]) -> list[float]:
    """Fraction of class-bearing images whose top detection hits, per threshold.

    ``ranked`` is one class's ranking (``rank``) of its raw detections or of
    its NMS survivors, which give the same answer: only each image's most
    confident detection is consulted (score ties keep the earliest
    detection, and a NaN score ranks last). That detection's IoU row is row
    0 of its image's block. Images with no detection count as misses.
    """
    images = sum(1 for g in ranked.truths.values() if len(g))
    if not images:
        raise ValidationError("CorLoc undefined with no class-bearing images")
    top_iou = np.array([block[0].max() for _, _, block in ranked.blocks])
    return [int(np.count_nonzero(top_iou >= t)) / images for t in iou_thresholds]


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


def _area_buckets(
    gts_by_image: Mapping[str, np.ndarray],
) -> dict[str, dict[str, np.ndarray]]:
    """Each area bucket's truth, as per-image masks over ``gts_by_image`` rows."""
    buckets: dict[str, dict[str, np.ndarray]] = {b: {} for b in AREA_BUCKETS}
    for iid, boxes in gts_by_image.items():
        areas = (boxes[:, 2] - boxes[:, 0]) * (boxes[:, 3] - boxes[:, 1])
        small = areas < AREA_SMALL_MAX
        medium = ~small & (areas < AREA_MEDIUM_MAX)
        for bucket, inb in zip(AREA_BUCKETS, (small, medium, ~small & ~medium)):
            buckets[bucket][iid] = inb
    return buckets


def evaluate(
    dets: Sequence[Detection],
    records: Sequence[ImageRecord],
    iou_thresholds: Sequence[float] = IOU_GRID,
    nms_thresh: float = DEFAULT_NMS_THRESH,
    eleven_point: bool = False,
) -> EvalReport:
    """Score detections against record ground truth.

    The detections become columns once; a detection of an image outside
    ``records`` is a ValidationError. Each class's rows go through
    per-image NMS, and one ranking of the survivors serves AP and CorLoc
    (CorLoc's answer is that of the raw rows). Classes with no ground-truth
    box anywhere are excluded from every mean. Area buckets partition ground
    truth by box area at ``AREA_SMALL_MAX`` and ``AREA_MEDIUM_MAX``;
    detections over an out-of-bucket object are discarded rather than
    penalized. IoU thresholds must lie in [0, 1], at least one, with
    distinct keys at two decimals (the report's keys); anything else is a
    ConfigError.
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
    gts, class_ids = _gt_index(records)
    # One column build for the whole set; an image's index among the
    # records is its NMS group, which keeps record-then-score order.
    cols = detection_columns(dets, [rec.image_id for rec in records], class_ids)
    by_class = np.argsort(cols.label, kind="stable")
    bounds = np.searchsorted(cols.label[by_class], np.arange(len(class_ids) + 1))

    ap: dict[int, dict[float, float]] = {c: {} for c in class_ids}
    counts: dict[int, dict[float, tuple[int, int, int]]] = {c: {} for c in class_ids}
    corloc_by_class: dict[int, dict[float, float]] = {c: {} for c in class_ids}
    per_bucket: dict[str, dict[float, list[float]]] = {
        b: {t: [] for t in thresholds} for b in AREA_BUCKETS
    }
    for k, cid in enumerate(class_ids):
        # The class's rows, in detection order.
        group = cols.take(by_class[bounds[k] : bounds[k + 1]])
        keep = nms_detections(group.boxes, group.scores, nms_thresh, group.image)
        ranked = rank(group.take(keep), gts[cid])
        results = average_precision(
            ranked, thresholds, eleven_point, subsets=_area_buckets(gts[cid])
        )
        fractions = corloc(ranked, thresholds)
        for t, res, frac in zip(thresholds, results, fractions):
            ap[cid][t] = res.ap
            counts[cid][t] = (res.tp, res.fp, res.n_gt)
            corloc_by_class[cid][t] = frac
            for bucket, sub in res.subsets.items():
                per_bucket[bucket][t].append(sub.ap)

    map_by_thresh = {
        t: float(np.mean([ap[c][t] for c in class_ids])) for t in thresholds
    }
    corloc_by_thresh = {
        t: float(np.mean([corloc_by_class[c][t] for c in class_ids]))
        for t in thresholds
    }
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
