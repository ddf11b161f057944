"""Caption-conditioned depth priors and the masks they induce.

High-confidence predictions from a trained baseline vote depth observations
into streaming moment accumulators, keyed per class and per (class, caption
word). Freezing an accumulator yields a plausible depth range
``[mean - std, mean + std]``; at use time an image's range for a class
averages the ranges of the caption's known words, falling back to the
class-level range, and finally to no filtering at all. A mask marks which
proposals fall inside the image's range for each class.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Mapping, Sequence

import numpy as np

from wsodkit.data import ClassVocabulary, ImageRecord, proposal_depths, tokenize
from wsodkit.errors import ConfigError, DataError, DegenerateRegionError
from wsodkit.errors import ValidationError
from wsodkit.evaluate import Detection, check_fraction
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


def freeze_range(
    count: int, mean: float, std: float, min_count: int
) -> DepthRange | None:
    """mean +/- std, or None below the observation threshold."""
    if count < min_count:
        return None
    return DepthRange(mean - std, mean + std)


@dataclass
class DepthMask:
    """Per-proposal, per-class membership in the image's depth ranges.

    ``values[i, c]`` is 1 when proposal i's depth falls inside the range
    derived for class c, and for every class with no derivable range the
    whole column is 1 (no filtering).
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
        self, class_id: int, depth: float, caption: str | None
    ) -> None:
        """Record one accepted box depth under its class and caption words.

        Each distinct caption token contributes once per box regardless of
        how often it repeats in the caption.
        """
        self.by_class.setdefault(int(class_id), RunningMoments()).add(depth)
        if caption:
            for tok in set(tokenize(caption)):
                key = (int(class_id), tok)
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
                r = freeze_range(count, mean, std, threshold)
                if r is None:
                    continue
                if section == "by_class":
                    by_class[as_int(key, where)] = r
                else:
                    cid, _, word = key.partition("|")
                    by_class_word[(as_int(cid, where), word)] = r
        return cls(by_class, by_class_word)

    @classmethod
    def load(cls, path: str | Path) -> "FrozenPriors":
        return cls.from_json(read_json(path, "priors file"), f"priors file {path}")

    def image_range(self, class_id: int, caption: str | None) -> DepthRange | None:
        """Depth range for one class in one image.

        Averages, bound by bound, the ranges of the caption's distinct
        words that have a frozen range for this class; falls back to the
        class-level range, then to None (no filtering).
        """
        if caption:
            words = sorted(set(tokenize(caption)))
            ranges = [
                self.by_class_word[(class_id, w)]
                for w in words
                if (class_id, w) in self.by_class_word
            ]
            if ranges:
                lo = sum(r.lo for r in ranges) / len(ranges)
                hi = sum(r.hi for r in ranges) / len(ranges)
                return DepthRange(lo, hi)
        return self.by_class.get(class_id)


def depth_mask(
    record: ImageRecord,
    priors: FrozenPriors,
    num_classes: int,
    use_caption: bool = True,
) -> DepthMask:
    """Mask of proposals inside each class's depth range for this image.

    Classes without a derivable range get an all-ones column. Interval
    membership is closed on both ends.
    """
    r = record.num_proposals
    values = np.ones((r, num_classes), dtype=np.uint8)
    caption = record.caption if use_caption else None
    for c in range(num_classes):
        rng = priors.image_range(c, caption)
        if rng is None:
            continue
        inside = (record.proposal_depths >= rng.lo) & (
            record.proposal_depths <= rng.hi
        )
        values[:, c] = inside.astype(np.uint8)
    return DepthMask(values=values)


def _resolve_depth(pred: Detection, record: ImageRecord) -> float | None:
    """Depth for a predicted box: matching proposal first, depth map second."""
    box = pred.box.as_array()
    if box[2] > record.width or box[3] > record.height:
        return None
    diffs = np.abs(record.proposals - box[None, :]).max(axis=1)
    hit = int(np.argmin(diffs))
    if diffs[hit] <= BOX_MATCH_ATOL:
        return float(record.proposal_depths[hit])
    if record.depth_map is not None:
        try:
            return float(proposal_depths(record.depth_map, box[None, :])[0])
        except DegenerateRegionError:
            return None
    return None


def accumulate(stats: PriorStats, pred: Detection, record: ImageRecord) -> float | None:
    """Fold one prediction into the statistics, whatever its score.

    Boxes whose depth cannot be resolved (past the image's edge, matching
    no proposal when there is no depth map to pool from, or covering no
    pixel centre of the map) are skipped and tallied in
    ``stats.skipped_boxes``. Returns the accepted depth, or None when the
    prediction did not contribute.
    """
    depth = _resolve_depth(pred, record)
    if depth is None:
        stats.skipped_boxes += 1
        return None
    stats.add_observation(pred.class_id, depth, record.caption)
    return depth


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
    predictions: Sequence[Detection],
    score_threshold: float = DEFAULT_SCORE_THRESHOLD,
    min_count_word: int = DEFAULT_MIN_COUNT_WORD,
) -> tuple[PriorStats, FrozenPriors, CoverageReport]:
    """One pass over predictions: accumulate, freeze, and report coverage.

    Predictions referencing unknown image ids raise DataError, whatever
    their score. Only predictions scoring strictly above
    ``score_threshold`` reach ``accumulate``. The coverage fractions replay
    the accepted observations against the frozen class-level ranges, which
    every class with an accepted depth has (``MIN_COUNT_CLASS`` is 1).
    """
    check_fraction("score_threshold", score_threshold)
    by_id = {rec.image_id: rec for rec in records}
    stats = PriorStats(min_count_word=min_count_word)
    accepted: list[tuple[int, float]] = []
    for pred in predictions:
        rec = by_id.get(pred.image_id)
        if rec is None:
            raise DataError(f"prediction references unknown image {pred.image_id!r}")
        if pred.score <= score_threshold:
            continue
        depth = accumulate(stats, pred, rec)
        if depth is not None:
            accepted.append((pred.class_id, depth))
    frozen = stats.freeze()
    report = CoverageReport(accepted=len(accepted), skipped=stats.skipped_boxes)
    for cid in sorted(stats.by_class):
        m = stats.by_class[cid]
        rng = frozen.by_class[cid]
        values = [d for c, d in accepted if c == cid]
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
