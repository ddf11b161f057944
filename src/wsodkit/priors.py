"""Caption-conditioned depth priors and the masks they induce.

High-confidence predictions from a trained baseline vote depth observations
into streaming moment accumulators, keyed per class and per (class, caption
word, each distinct word once per box). Freezing an accumulator yields a
plausible depth range ``[mean - std, mean + std]``. At use time one lookup
per image, ``FrozenPriors.image_bounds``, tokenizes the caption once and
gives each class the average range of the caption's known words, else the
class-level range, else no filtering. A mask marks which proposals fall
inside the image's range for each class.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import AbstractSet, Iterable, Mapping

import numpy as np

from wsodkit import kernels
from wsodkit.data import ClassVocabulary, ImageRecord, tokenize
from wsodkit.errors import ConfigError, DataError, ValidationError
from wsodkit.evaluate import MATCH_ELEMENTS, Detections, check_fraction
from wsodkit.jsonio import (
    as_finite,
    as_int,
    as_number,
    as_type,
    read_json,
    require,
    write_json,
)

DEFAULT_SCORE_THRESHOLD = 0.5
DEFAULT_MIN_COUNT_WORD = 2
MIN_COUNT_CLASS = 1
BOX_MATCH_ATOL = 1e-6


@dataclass
class RunningMoments:
    """Streaming count, mean and sum of squared deviations ``m2``.

    ``add`` is Welford's update and ``merge`` the Chan-Golub-LeVeque
    pairwise combine, so no sum of squares is ever differenced: ``m2``
    never goes negative and stays exactly 0 on a constant stream.
    """

    count: int = 0
    mu: float = 0.0
    m2: float = 0.0

    def add(self, x: float) -> None:
        if not math.isfinite(x):
            raise ValidationError(f"cannot accumulate non-finite value {x}")
        self.count += 1
        delta = x - self.mu
        self.mu += delta / self.count
        self.m2 += delta * (x - self.mu)

    def merge(self, other: "RunningMoments") -> None:
        if other.count == 0:
            return
        if self.count == 0:
            self.count, self.mu, self.m2 = other.count, other.mu, other.m2
            return
        n = self.count + other.count
        delta = other.mu - self.mu
        self.mu += delta * other.count / n
        self.m2 += other.m2 + delta * delta * self.count * other.count / n
        self.count = n

    def mean(self) -> float:
        if self.count == 0:
            raise ValidationError("mean of an empty accumulator")
        return self.mu

    def std(self) -> float:
        """Population standard deviation."""
        self.mean()  # raises on an empty accumulator
        return math.sqrt(self.m2 / self.count)


@dataclass(frozen=True)
class DepthRange:
    """Closed plausible-depth interval; not clipped to [0, 1]."""

    lo: float
    hi: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.lo) and math.isfinite(self.hi)):
            raise ValidationError("depth range bounds must be finite")
        if self.lo > self.hi:
            raise ValidationError(f"depth range has lo > hi: ({self.lo}, {self.hi})")

    def contains(self, x: float) -> bool:
        return self.lo <= x <= self.hi


@dataclass
class DepthMask:
    """Per-proposal, per-class membership in the image's depth ranges.

    ``values`` is (R, C) bool: ``values[i, c]`` is True when proposal i's
    depth falls inside the range derived for class c, and the whole column
    is True for a class with no derivable range (no filtering).
    """

    values: np.ndarray

    def column(self, class_id: int) -> np.ndarray:
        return self.values[:, class_id]


class PriorStats:
    """Streaming depth statistics keyed by class and by (class, word)."""

    def __init__(self, min_count_word: int = DEFAULT_MIN_COUNT_WORD) -> None:
        if min_count_word < 1:
            raise ConfigError("min_count_word must be >= 1")
        self.min_count_word = int(min_count_word)
        self.by_class: dict[int, RunningMoments] = {}
        self.by_class_word: dict[tuple[int, str], RunningMoments] = {}
        self.skipped_boxes = 0

    def add_observation(
        self, class_id: int, depth: float, words: AbstractSet[str]
    ) -> None:
        """Record one accepted box depth under its class and each of ``words``.

        ``words`` is the set of distinct tokens of the image's caption
        (empty without one), so a token repeated in the caption still
        contributes once per box.
        """
        self.by_class.setdefault(int(class_id), RunningMoments()).add(depth)
        for word in words:
            key = (int(class_id), word)
            self.by_class_word.setdefault(key, RunningMoments()).add(depth)

    def to_json(self) -> dict:
        """Moments (not ranges), so that thresholds can change at load."""

        def entry(m: RunningMoments) -> dict:
            return {"count": m.count, "mean": m.mean(), "std": m.std()}

        return {
            "min_count": self.min_count_word,
            "by_class": {
                str(cid): entry(self.by_class[cid]) for cid in sorted(self.by_class)
            },
            "by_class_word": {
                f"{cid}|{word}": entry(self.by_class_word[(cid, word)])
                for cid, word in sorted(self.by_class_word)
            },
        }

    def freeze(self) -> "FrozenPriors":
        return FrozenPriors.from_json(self.to_json())

    def save(self, path: str | Path) -> None:
        write_json(path, self.to_json())


class FrozenPriors:
    """Immutable depth ranges derived from accumulated statistics."""

    def __init__(
        self,
        by_class: Mapping[int, DepthRange],
        by_class_word: Mapping[tuple[int, str], DepthRange],
    ) -> None:
        self.by_class = dict(by_class)
        self.by_class_word = dict(by_class_word)

    @classmethod
    def from_json(cls, obj, what: str = "priors") -> "FrozenPriors":
        """Ranges from the moments that ``PriorStats.to_json`` writes.

        Freezing statistics and loading a priors file both come here, so
        both give the same ranges to the last bit.
        """
        bad = f"bad {what}"
        message = f"{bad}: min_count"
        min_count = as_int(as_number(require(obj, "min_count", bad), message), message)
        if min_count < 1:
            raise ValidationError(f"{bad}: min_count must be >= 1, got {min_count}")
        by_class, by_class_word = {}, {}
        sections = (("by_class", MIN_COUNT_CLASS), ("by_class_word", min_count))
        for section, threshold in sections:
            entries = as_type(obj.get(section), dict, f"{bad}: {section} not an object")
            # Every entry is checked, also those below the threshold.
            for key, entry in entries.items():
                where = f"{bad}: {section} entry {key!r}"
                count = as_int(as_number(require(entry, "count", where), where), where)
                std = as_finite(as_number(entry.get("std"), where), where)
                mean = as_finite(as_number(entry.get("mean"), where), where)
                if count < 0 or std < 0:
                    raise ValidationError(f"{where}: count and std must be >= 0")
                if count < threshold:
                    continue
                r = DepthRange(mean - std, mean + std)
                if section == "by_class":
                    by_class[as_int(key, where)] = r
                else:
                    cid, _, word = key.partition("|")
                    by_class_word[(as_int(cid, where), word)] = r
        return cls(by_class, by_class_word)

    @classmethod
    def load(cls, path: str | Path) -> "FrozenPriors":
        return cls.from_json(read_json(path, "priors file"), f"priors file {path}")

    def image_bounds(
        self, caption: str | None, num_classes: int
    ) -> tuple[np.ndarray, np.ndarray]:
        """Every class's depth bounds in one image, as (C,) ``lo`` and ``hi``.

        A class's range averages, bound by bound in sorted word order, the
        ranges of the caption's distinct words that have a frozen range for
        that class; it falls back to the class-level range, and a class
        with neither gets (-inf, +inf), which filters nothing. The caption
        is tokenized once for all classes.
        """
        lo = np.full(num_classes, -np.inf)
        hi = np.full(num_classes, np.inf)
        words = sorted(set(tokenize(caption))) if caption else []
        by_word = self.by_class_word
        for c in range(num_classes):
            ranges = [by_word[(c, w)] for w in words if (c, w) in by_word]
            if ranges:
                rng = DepthRange(
                    sum(r.lo for r in ranges) / len(ranges),
                    sum(r.hi for r in ranges) / len(ranges),
                )
            else:
                rng = self.by_class.get(c)
            if rng is not None:
                lo[c], hi[c] = rng.lo, rng.hi
        return lo, hi


def depth_mask(
    record: ImageRecord,
    priors: FrozenPriors,
    num_classes: int,
    use_caption: bool = True,
) -> DepthMask:
    """Mask of proposals inside each class's depth range for this image.

    The bounds come from ``priors.image_bounds`` (the class ranges alone
    when ``use_caption`` is off); a class without a derivable range admits
    every proposal. Interval membership is closed on both ends.
    """
    caption = record.caption if use_caption else None
    lo, hi = priors.image_bounds(caption, num_classes)
    d = record.proposal_depths[:, None]
    return DepthMask(values=(d >= lo) & (d <= hi))


def _record_depths(record: ImageRecord, boxes: np.ndarray) -> np.ndarray:
    """Depths of one image's (k, 4) predicted boxes; NaN where none resolves.

    A box past the image's edge resolves to nothing. Any other box takes
    the depth of the proposal closest to it by largest coordinate
    difference, when that difference is within ``BOX_MATCH_ATOL``; the
    boxes matching none are pooled from the depth map, when there is one,
    in one ``box_mean_pool`` call, and a box covering no pixel centre stays
    unresolved. The (k, R) match runs in blocks of at most
    ``MATCH_ELEMENTS`` elements.
    """
    depths = np.full(len(boxes), np.nan)
    inside = np.flatnonzero(
        ~((boxes[:, 2] > record.width) | (boxes[:, 3] > record.height))
    )
    step = max(1, MATCH_ELEMENTS // record.num_proposals)
    for lo in range(0, inside.size, step):
        rows = inside[lo : lo + step]
        diffs = np.abs(record.proposals[None, :, :] - boxes[rows, None, :]).max(axis=2)
        hit = diffs.argmin(axis=1)
        near = diffs[np.arange(rows.size), hit] <= BOX_MATCH_ATOL
        depths[rows[near]] = record.proposal_depths[hit[near]]
    unmatched = inside[np.isnan(depths[inside])]
    if record.depth_map is not None and unmatched.size:
        depths[unmatched] = kernels.box_mean_pool(
            record.depth_map.values, boxes[unmatched]
        )
    return depths


@dataclass
class CoverageRow:
    class_id: int
    count: int
    mean: float
    std: float
    inside_fraction: float


@dataclass
class CoverageReport:
    """Per-class summary of accepted boxes and how many fall in their range."""

    rows: list[CoverageRow] = field(default_factory=list)
    accepted: int = 0
    skipped: int = 0

    def to_text(self, vocab: ClassVocabulary | None = None) -> str:
        lines = [
            f"{'class':>12}  {'count':>6}  {'mean':>7}  {'std':>7}  {'inside':>7}"
        ]
        for r in self.rows:
            name = (
                vocab.name_of(r.class_id) if vocab is not None else str(r.class_id)
            )
            lines.append(
                f"{name:>12}  {r.count:>6d}  {r.mean:>7.4f}  {r.std:>7.4f}  "
                f"{r.inside_fraction:>7.4f}"
            )
        lines.append(f"accepted boxes: {self.accepted}, skipped: {self.skipped}")
        return "\n".join(lines)


def estimate_priors(
    records: Iterable[ImageRecord],
    predictions: Detections,
    score_threshold: float = DEFAULT_SCORE_THRESHOLD,
    min_count_word: int = DEFAULT_MIN_COUNT_WORD,
) -> tuple[PriorStats, FrozenPriors, CoverageReport]:
    """Accumulate a detection set's depths, freeze them, and report coverage.

    A prediction of an unknown image id raises DataError, whatever its
    score; the ids are checked over all rows first. Only predictions
    scoring strictly above ``score_threshold`` (one comparison over the
    scores, which a NaN score fails) are accumulated. Each record resolves the depths of its kept
    boxes at once (``_record_depths``); boxes whose depth cannot be resolved
    (past the image's edge, matching no proposal when there is no depth map
    to pool from, or covering no pixel centre of the map) are skipped and
    tallied in ``stats.skipped_boxes``. The moments then take the depths in
    prediction order, so no bit depends on the grouping. Each record's
    caption is tokenized at most once. The coverage fractions replay the
    accepted depths of each class against its frozen class-level range,
    which every class with an accepted depth has (``MIN_COUNT_CLASS`` is 1).
    """
    check_fraction("score_threshold", score_threshold)
    by_id = {rec.image_id: rec for rec in records}
    stats = PriorStats(min_count_word=min_count_word)
    table = [by_id.get(iid) for iid in predictions.image_ids]
    unknown = np.array([rec is None for rec in table], dtype=bool)[predictions.image]
    if unknown.any():
        iid = predictions.image_ids[predictions.image[np.argmax(unknown)]]
        raise DataError(f"prediction references unknown image {iid!r}")
    rows = np.flatnonzero(predictions.scores > score_threshold)
    image = predictions.image[rows]
    depths = np.empty(rows.size)
    by_image = np.argsort(image, kind="stable")
    for part in np.split(by_image, np.flatnonzero(np.diff(image[by_image])) + 1):
        if part.size:
            rec = table[image[part[0]]]
            depths[part] = _record_depths(rec, predictions.boxes[rows[part]])
    words: dict[int, set[str]] = {}
    accepted: dict[int, list[float]] = {}
    for k, cid, depth in zip(
        image.tolist(), predictions.class_ids[rows].tolist(), depths.tolist()
    ):
        if depth != depth:
            stats.skipped_boxes += 1
            continue
        if k not in words:
            caption = table[k].caption
            words[k] = set(tokenize(caption)) if caption else set()
        stats.add_observation(cid, depth, words[k])
        accepted.setdefault(cid, []).append(depth)
    frozen = stats.freeze()
    report = CoverageReport(
        accepted=sum(map(len, accepted.values())), skipped=stats.skipped_boxes
    )
    for cid in sorted(stats.by_class):
        m = stats.by_class[cid]
        rng = frozen.by_class[cid]
        values = accepted[cid]
        inside = sum(1 for d in values if rng.contains(d)) / len(values)
        report.rows.append(
            CoverageRow(
                class_id=cid,
                count=m.count,
                mean=m.mean(),
                std=m.std(),
                inside_fraction=inside,
            )
        )
    return stats, frozen, report
