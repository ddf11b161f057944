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
once, each round resolving every pair up to its next claim.

A detection set is columnar end to end (``Detections``, as COCO's API keeps
results in arrays): an image-id table and per-row image indexes, class ids,
boxes and scores. ``infer`` and ``load_detections`` build one without an
object per row, and ``save_detections``, ``evaluate`` and
``estimate_priors`` read its columns. ``evaluate`` maps the table onto the
records once; each class then takes its rows: one NMS call, every image a
group, and one ranking of the survivors (``rank``) that AP and CorLoc both
read.

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
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np

from wsodkit import kernels
from wsodkit.data import Box, ClassVocabulary, ImageRecord
from wsodkit.errors import ConfigError, ParseError, ValidationError
from wsodkit.jsonio import read_jsonl

DEFAULT_NMS_THRESH = 0.5
IOU_GRID = tuple(round(0.5 + 0.05 * i, 2) for i in range(10))
AREA_SMALL_MAX = 32.0 * 32.0
AREA_MEDIUM_MAX = 96.0 * 96.0
AREA_BUCKETS = ("small", "medium", "large")
# Lines load_detections decodes and checks at a time, and rows
# save_detections formats at a time: whole columns per step, memory bounded
# by the step.
DETECTION_CHUNK = 1024
# The exact types of the values json.loads returns that the loader reads.
_NUMBER = frozenset((int, float))
_INT = frozenset((int,))
_STR = frozenset((str,))
_LIST = frozenset((list,))
_DICT = frozenset((dict,))
_INT64 = np.iinfo(np.int64)
_FIELDS = ("box", "score", "image_id", "class_id")
_NO_BOX = (0.0,) * 4
_BAD = "{where}: bad detection"
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
    """One scored box prediction for one image and class: a row of a set."""

    image_id: str
    class_id: int
    box: Box
    score: float


@dataclass(frozen=True, eq=False)
class Detections:
    """A detection set as columns, one row per scored box.

    ``image_ids`` is the set's image-id table and ``image`` (N,) holds each
    row's index into it; ``class_ids`` is (N,) int64, ``boxes`` (N, 4)
    float64 corners and ``scores`` (N,) float64. Iterating builds
    ``Detection`` rows on demand, ``from_rows`` builds a set from rows, and
    ``==`` compares row by row as lists of ``Detection`` compare: -0.0
    equals 0.0, a NaN score equals nothing, and the two tables may list
    their ids in any order.
    """

    image_ids: list[str]
    image: np.ndarray
    class_ids: np.ndarray
    boxes: np.ndarray
    scores: np.ndarray

    @classmethod
    def concat(
        cls,
        image_ids: Iterable[str],
        parts: Sequence[tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]],
    ) -> Detections:
        """The rows of each part in turn; a part is its (image, class_ids,
        boxes, scores) columns, with images indexing ``image_ids``."""
        if not parts:
            parts = [(np.zeros(0, np.intp), np.zeros(0, np.int64), np.zeros((0, 4)),
                      np.zeros(0))]
        return cls(list(image_ids), *map(np.concatenate, zip(*parts)))

    @classmethod
    def from_rows(cls, rows: Iterable[Detection]) -> Detections:
        """The set of ``rows`` in order, its table listing ids as they first appear.

        The class id goes through ``int`` and the score through ``float``;
        then an id that is not a str, or a coordinate that is not an int or
        float (``np.float32``, say), is a TypeError. So a row that cannot be
        a detection line raises what ``json.dumps`` of its dict raises.
        """
        table: dict[str, int] = {}
        image, class_ids, coords, scores = [], [], [], []
        for d in rows:
            class_ids.append(int(d.class_id))
            scores.append(float(d.score))
            if not isinstance(d.image_id, str):
                raise TypeError(f"image id {d.image_id!r} is not a str")
            box = d.box.as_list()
            if not all(isinstance(v, (int, float)) for v in box):
                raise TypeError(f"box {box} has a coordinate that is no int or float")
            image.append(table.setdefault(d.image_id, len(table)))
            coords.append(box)
        return cls(
            list(table),
            np.array(image, dtype=np.intp),
            np.array(class_ids, dtype=np.int64),
            np.array(coords, dtype=np.float64).reshape(-1, 4),
            np.array(scores, dtype=np.float64),
        )

    def __len__(self) -> int:
        return len(self.scores)

    def __iter__(self) -> Iterator[Detection]:
        ids = self.image_ids
        for k, cid, box, score in zip(
            self.image.tolist(),
            self.class_ids.tolist(),
            self.boxes.tolist(),
            self.scores.tolist(),
        ):
            yield Detection(ids[k], cid, Box(*box), score)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Detections):
            return NotImplemented
        return (
            len(self) == len(other)
            and bool((self._row_ids() == other._row_ids()).all())
            and bool((self.class_ids == other.class_ids).all())
            and bool((self.boxes == other.boxes).all())
            and bool((self.scores == other.scores).all())
        )

    def _row_ids(self) -> np.ndarray:
        return np.array(self.image_ids, dtype=object)[self.image]

    def take(self, rows: np.ndarray) -> Detections:
        """The rows ``rows`` selects, in its order, over the same table."""
        return Detections(
            self.image_ids,
            self.image[rows],
            self.class_ids[rows],
            self.boxes[rows],
            self.scores[rows],
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


def _json_numbers(values: np.ndarray) -> list[str]:
    """Each float of ``values`` as ``json.dumps`` spells it."""
    floats = values.tolist()
    if np.isfinite(values).all():
        return list(map(float.__repr__, floats))
    return list(map(json.dumps, floats))


def _box_texts(boxes: np.ndarray) -> list[str]:
    """Each row of (N, 4) ``boxes`` as its JSON list.

    Rows equal bit for bit (so -0.0 and 0.0 apart) are formatted once: the
    classes that ``infer`` keeps of one proposal share its box, and
    ``repr`` of a float is the writer's largest cost.
    """
    bits = np.ascontiguousarray(boxes, dtype=np.float64).view(np.int64)
    order = np.lexsort(bits.T[::-1])
    first = np.ones(len(bits), dtype=bool)
    first[1:] = (bits[order[1:]] != bits[order[:-1]]).any(axis=1)
    coords = _json_numbers(boxes[order[first]].ravel())
    texts = list(map(
        "[{}, {}, {}, {}]".format,
        coords[0::4], coords[1::4], coords[2::4], coords[3::4],
    ))
    slot = np.empty(len(bits), dtype=np.intp)
    slot[order] = np.cumsum(first) - 1
    return list(map(texts.__getitem__, slot.tolist()))


def save_detections(dets: Detections, path: str | Path) -> None:
    """Write a detection set as JSONL, one object per row; byte-stable.

    Each line is ``{"image_id": ..., "box": [x1, y1, x2, y2], "class_id":
    ..., "score": ...}`` with ``json.dumps``'s default separators, ids
    escaped to ASCII and numbers spelled as Python's ``repr`` (``NaN`` and
    ``Infinity`` for non-finite ones): the bytes ``json.dumps`` gives for
    that dict. Lines are formatted from the columns ``DETECTION_CHUNK``
    rows at a time; each id of the table is encoded once, and each
    distinct box of a chunk once.
    """
    ids = list(map(json.dumps, dets.image_ids))
    with open(path, "w", encoding="utf-8") as fh:
        for lo in range(0, len(dets), DETECTION_CHUNK):
            rows = slice(lo, lo + DETECTION_CHUNK)
            fh.write("".join([
                f'{{"image_id": {ids[k]}, "box": {box}, "class_id": {cid}, '
                f'"score": {score}}}\n'
                for k, box, cid, score in zip(
                    dets.image[rows].tolist(),
                    _box_texts(dets.boxes[rows]),
                    dets.class_ids[rows].tolist(),
                    _json_numbers(dets.scores[rows]),
                )
            ]))


def _of_type(values: Sequence, types: frozenset) -> np.ndarray:
    """Whether each value's exact type is one of ``types``, as a bool array."""
    if types.issuperset(map(type, values)):
        return np.ones(len(values), dtype=bool)
    return np.fromiter(map(types.__contains__, map(type, values)), bool, len(values))


def _floats(values: list, ok: np.ndarray) -> np.ndarray:
    """``values`` as float64 where ``ok`` marks a JSON number, 0.0 elsewhere.

    Clears ``ok`` where ``float()`` overflows: an int past a double's range.
    """
    if not ok.all():
        values = [v if k else 0.0 for v, k in zip(values, ok.tolist())]
    try:
        return np.array(values, dtype=np.float64)
    except OverflowError:
        out = np.zeros(len(values))
        for i, v in enumerate(values):
            try:
                out[i] = float(v)
            except OverflowError:
                ok[i] = False
        return out


def _boxes(raw: list) -> tuple[np.ndarray, np.ndarray]:
    """(N, 4) corners of raw ``box`` values, and where one is four JSON numbers."""
    n = len(raw)
    ok = _of_type(raw, _LIST)
    if not ok.all():
        raw = [b if k else () for b, k in zip(raw, ok.tolist())]
    ok &= np.fromiter(map(len, raw), np.intp, n) == 4
    if not ok.all():
        raw = [b if k else _NO_BOX for b, k in zip(raw, ok.tolist())]
    flat = list(itertools.chain.from_iterable(raw))
    numbers = _of_type(flat, _NUMBER)
    coords = _floats(flat, numbers).reshape(n, 4)
    return coords, ok & numbers.reshape(n, 4).all(axis=1)


def _class_ids(raw: list, num_classes: int | None) -> tuple[np.ndarray, ...]:
    """Raw ``class_id`` values as int64, with where each is an integer and
    where it lies outside the vocabulary.

    A JSON int, or an integral float, that a double holds is an integer, as
    ``as_int`` has it. Without a vocabulary one outside int64 is not.
    """
    n = len(raw)
    ids, ok, big = None, np.ones(n, dtype=bool), np.zeros(n, dtype=bool)
    if _of_type(raw, _INT).all():
        try:
            ids = np.array(raw, dtype=np.int64)
        except OverflowError:
            pass
    if ids is None:
        ids, ok, big = np.zeros(n, np.int64), np.zeros(n, bool), np.zeros(n, bool)
        for i, v in enumerate(raw):
            if type(v) not in _NUMBER or (type(v) is float and not v.is_integer()):
                continue
            try:
                float(v)
            except OverflowError:
                continue
            ok[i] = True
            if _INT64.min <= v <= _INT64.max:
                ids[i] = v
            else:
                big[i] = True
    if num_classes is None:
        return ids, ok & ~big, np.zeros(n, dtype=bool)
    return ids, ok, ok & (big | (ids < 0) | (ids >= num_classes))


def _chunk_columns(
    lines: Sequence[tuple[int, object]],
    path: str | Path,
    table: dict[str, int],
    num_classes: int | None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The columns of a chunk of ``(lineno, value)`` decoded lines.

    Every check runs over whole columns, in the order a line's fields are
    checked: box, score, image id, class id. The first line failing any
    raises the error of the first check it fails. New ids join ``table`` in
    order of first appearance.
    """
    linenos, objs = zip(*lines)
    if not _of_type(objs, _DICT).all():
        objs = [o if type(o) is dict else {} for o in objs]
    raw = [list(map(dict.get, objs, itertools.repeat(key))) for key in _FIELDS]
    boxes, box_ok = _boxes(raw[0])
    finite = np.isfinite(boxes).all(axis=1)
    negative = (boxes < 0.0).any(axis=1)
    degenerate = (boxes[:, 2] <= boxes[:, 0]) | (boxes[:, 3] <= boxes[:, 1])
    score_ok = _of_type(raw[1], _NUMBER)
    scores = _floats(raw[1], score_ok)
    class_ids, class_ok, outside = _class_ids(raw[3], num_classes)
    # Each check's failing rows and its message, in the order a line's
    # fields are checked.
    checks = [
        (~box_ok, _BAD),
        (~finite, "box has non-finite coordinates: {corners}"),
        (negative, "box has negative coordinates: {corners}"),
        (degenerate, "degenerate box: {corners}"),
        (~score_ok, _BAD),
        (~np.isfinite(scores), "{where}: non-finite score {score}"),
        (~_of_type(raw[2], _STR), _BAD),
        (~class_ok, _BAD),
        (outside, "{where}: class {class_id} outside 0..{last}"),
    ]
    failed = np.stack([rows for rows, _ in checks])
    bad = failed.any(axis=0)
    if bad.any():
        r = int(bad.argmax())
        raise ValidationError(checks[int(failed[:, r].argmax())][1].format(
            where=f"{path}: line {linenos[r]}",
            corners=tuple(boxes[r].tolist()),
            score=float(scores[r]),
            class_id=int(raw[3][r]) if outside[r] else None,
            last=None if num_classes is None else num_classes - 1,
        ))
    for iid in dict.fromkeys(raw[2]):
        table.setdefault(iid, len(table))
    image = np.fromiter(map(table.__getitem__, raw[2]), np.intp, len(objs))
    return image, class_ids, boxes, scores


def load_detections(
    path: str | Path, vocab: ClassVocabulary | None = None
) -> Detections:
    """Read a detections JSONL file into a set; ``vocab`` bounds the class ids.

    Every line is a JSON object with a four-number ``box``, a finite
    ``score``, a string ``image_id`` and an integral ``class_id`` (within
    int64 when no ``vocab`` bounds it); numbers are JSON ints or floats,
    never booleans or strings. Lines are decoded ``DETECTION_CHUNK`` at a
    time and checked column by column, without an object per row. The first
    bad line in file order raises ParseError (not JSON) or ValidationError
    naming its line number, and a line that is not JSON comes second to a
    bad value on an earlier line. The set's table lists the ids as they
    first appear.
    """
    num_classes = None if vocab is None else len(vocab)
    table: dict[str, int] = {}
    parts = []
    lines = _then_error(read_jsonl(path, "detections", ParseError))
    while True:
        chunk = list(itertools.islice(lines, DETECTION_CHUNK))
        error = chunk.pop() if chunk and isinstance(chunk[-1], ParseError) else None
        if chunk:
            parts.append(_chunk_columns(chunk, path, table, num_classes))
        if error is not None:
            raise error
        if len(chunk) < DETECTION_CHUNK:
            return Detections.concat(table, parts)


def _then_error(lines: Iterator[tuple]) -> Iterator:
    """``lines``, then the ParseError that ended them, if one did, as an item:
    the lines before a line that is not JSON are checked before it."""
    try:
        yield from lines
    except ParseError as e:
        yield e


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


def rank(dets: Detections, gts_by_image: Mapping[str, np.ndarray]) -> Ranking:
    """Rank one class's detections against its truth, for AP and CorLoc.

    ``dets`` are the class's detections (their class ids are not read), and
    ``gts_by_image`` maps image id to an (G, 4) array of its boxes.
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
    dets: Detections,
    records: Sequence[ImageRecord],
    iou_thresholds: Sequence[float] = IOU_GRID,
    nms_thresh: float = DEFAULT_NMS_THRESH,
    eleven_point: bool = False,
) -> EvalReport:
    """Score a detection set against record ground truth.

    A detection of an image outside ``records`` is a ValidationError. Each
    class's rows, in set order, go through per-image NMS, and one ranking
    of the survivors serves AP and CorLoc (CorLoc's answer is that of the
    raw rows). Classes with no ground-truth box anywhere are excluded from
    every mean. Area buckets partition ground truth by box area at
    ``AREA_SMALL_MAX`` and ``AREA_MEDIUM_MAX``; detections over an
    out-of-bucket object are discarded rather than penalized. IoU
    thresholds must lie in [0, 1], at least one, with distinct keys at two
    decimals (the report's keys); anything else is a ConfigError.
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
    # Each row's image as its index among the records' distinct ids (the
    # first of equal ids): its NMS group, which keeps record-then-score order.
    known = dict.fromkeys(rec.image_id for rec in records)
    index = {iid: k for k, iid in enumerate(known)}
    table = np.array([index.get(iid, -1) for iid in dets.image_ids], dtype=np.intp)
    image = table[dets.image]
    if (image < 0).any():
        iid = dets.image_ids[dets.image[np.argmax(image < 0)]]
        raise ValidationError(f"detection references unknown image {iid!r}")
    by_record = Detections(list(index), image, dets.class_ids, dets.boxes, dets.scores)

    ap: dict[int, dict[float, float]] = {c: {} for c in class_ids}
    counts: dict[int, dict[float, tuple[int, int, int]]] = {c: {} for c in class_ids}
    corloc_by_class: dict[int, dict[float, float]] = {c: {} for c in class_ids}
    per_bucket: dict[str, dict[float, list[float]]] = {
        b: {t: [] for t in thresholds} for b in AREA_BUCKETS
    }
    for cid in class_ids:
        group = by_record.take(np.flatnonzero(dets.class_ids == cid))
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
