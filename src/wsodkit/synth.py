"""Synthetic dataset generator.

Builds desk-scale detection datasets with a known planted structure: each
image places one or more "true object" proposals whose features carry a
class prototype and whose scalar depth falls inside the class's depth band
(shifted by the caption's context word), plus distractor proposals that may
imitate a class in RGB while sitting at the wrong depth. Captions mention
the placed classes and a depth-correlated context word; image labels are
extracted from the (optionally corrupted) caption, so label noise behaves
like caption noise.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from wsodkit.data import Box, ClassVocabulary, ImageRecord, extract_labels
from wsodkit.errors import ConfigError

CLASS_NAMES = [
    "bird", "cat", "dog", "boat", "kite", "vase", "bear", "zebra",
    "horse", "sheep", "clock", "chair", "plant", "truck", "spoon", "piano",
]

# Context words by sub-band: index 0 words co-occur with the lower (nearer)
# part of a class's depth band, index 1 words with the upper part.
NEAR_WORDS = ["hand", "table", "desk", "lap", "porch", "shelf", "rug", "bench"]
FAR_WORDS = ["sky", "ocean", "field", "ridge", "horizon", "meadow", "harbor", "trail"]
PREPOSITIONS = ["on", "in", "by", "at"]


@dataclass
class SyntheticConfig:
    """Knobs for the generator; defaults target the stock desk-scale run."""

    num_images: int = 500
    num_classes: int = 5
    proposals_per_image: int = 20
    feat_dim: int = 32
    image_size: int = 128
    max_objects: int = 2
    class_signal: float = 3.0
    noise: float = 0.3
    background_scale: float = 1.0
    confuser_rate: float = 0.5
    confuser_strength: float = 0.9
    distractor_outside_p: float = 0.85
    label_noise: float = 0.0
    words_per_class: int = 2
    depth_bands: list[tuple[float, float]] = field(default_factory=list)

    def validate(self) -> None:
        if self.num_images < 1:
            raise ConfigError("num_images must be >= 1")
        if not 1 <= self.num_classes <= len(CLASS_NAMES):
            raise ConfigError(
                f"num_classes must be in 1..{len(CLASS_NAMES)}"
            )
        if self.proposals_per_image < 2:
            raise ConfigError("proposals_per_image must be >= 2")
        if self.feat_dim < 1:
            raise ConfigError("feat_dim must be >= 1")
        if self.image_size < 8:
            raise ConfigError("image_size must be >= 8")
        if not 1 <= self.max_objects <= min(self.num_classes, self.proposals_per_image):
            raise ConfigError(
                "max_objects must be in 1..min(num_classes, proposals_per_image)"
            )
        for name in ("noise", "class_signal", "background_scale", "confuser_strength"):
            if not np.isfinite(getattr(self, name)):
                raise ConfigError(f"{name} must be finite")
        if self.noise < 0 or self.class_signal <= 0 or self.background_scale < 0:
            raise ConfigError("signal/noise scales must be non-negative")
        for p in (self.confuser_rate, self.distractor_outside_p, self.label_noise):
            if not 0.0 <= p <= 1.0:
                raise ConfigError("rates must lie in [0, 1]")
        if self.words_per_class not in (1, 2):
            raise ConfigError("words_per_class must be 1 or 2")
        bands = self.resolved_bands()
        if len(bands) != self.num_classes:
            raise ConfigError("depth_bands must list one (lo, hi) pair per class")
        for lo, hi in bands:
            if not (0.0 <= lo < hi <= 1.0):
                raise ConfigError(f"depth band ({lo}, {hi}) must satisfy 0 <= lo < hi <= 1")

    def resolved_bands(self) -> list[tuple[float, float]]:
        if self.depth_bands:
            return [(float(lo), float(hi)) for lo, hi in self.depth_bands]
        return default_depth_bands(self.num_classes)


def default_depth_bands(num_classes: int) -> list[tuple[float, float]]:
    """Evenly spaced, disjoint bands covering part of [0.05, 0.95]."""
    bands = []
    for c in range(num_classes):
        center = 0.05 + 0.9 * (c + 0.5) / num_classes
        half = min(0.06, 0.35 / num_classes)
        bands.append((round(center - half, 6), round(center + half, 6)))
    return bands


def build_vocabulary(num_classes: int) -> ClassVocabulary:
    """Stock vocabulary: fixed class names plus their plural synonyms."""
    names = CLASS_NAMES[:num_classes]
    return ClassVocabulary(names, {n: [n + "s"] for n in names})


def context_word(class_id: int, band_slot: int) -> str:
    pool = NEAR_WORDS if band_slot == 0 else FAR_WORDS
    return pool[class_id % len(pool)]


def _sample_outside(rng: np.random.Generator, lo: float, hi: float) -> float:
    left = lo
    right = 1.0 - hi
    if left + right <= 1e-9:
        return float(rng.uniform(0.0, 1.0))
    if rng.uniform() < left / (left + right):
        return float(rng.uniform(0.0, lo))
    return float(rng.uniform(hi, 1.0))


def _random_box(rng: np.random.Generator, size: int, lo_frac: float, hi_frac: float):
    w = rng.uniform(lo_frac, hi_frac) * size
    h = rng.uniform(lo_frac, hi_frac) * size
    x1 = rng.uniform(0.0, size - w)
    y1 = rng.uniform(0.0, size - h)
    return float(x1), float(y1), float(x1 + w), float(y1 + h)


def generate_synthetic(
    config: SyntheticConfig, seed: int
) -> tuple[list[ImageRecord], ClassVocabulary]:
    """Generate a dataset; the same config and seed reproduce it exactly."""
    config.validate()
    rng = np.random.default_rng(seed)
    vocab = build_vocabulary(config.num_classes)
    bands = config.resolved_bands()
    d = config.feat_dim
    c_total = config.num_classes

    def unit_rows(n):
        m = rng.standard_normal((n, d))
        return m / np.linalg.norm(m, axis=1, keepdims=True)

    proto_rgb = unit_rows(c_total)
    proto_depth = unit_rows(c_total)

    records: list[ImageRecord] = []
    for idx in range(config.num_images):
        n_obj = int(rng.integers(1, config.max_objects + 1))
        placed = [int(c) for c in rng.choice(c_total, size=n_obj, replace=False)]

        boxes: list[tuple[float, float, float, float]] = []
        rgb_rows: list[np.ndarray] = []
        depth_rows: list[np.ndarray] = []
        depths: list[float] = []
        gt: list[tuple[Box, int]] = []
        word_slots: dict[int, int] = {}

        for c in placed:
            slot = int(rng.integers(config.words_per_class))
            word_slots[c] = slot
            lo, hi = bands[c]
            width = (hi - lo) / config.words_per_class
            depth_val = rng.uniform(lo + slot * width, lo + (slot + 1) * width)
            depth_val += config.noise * 0.1 * rng.standard_normal()
            depth_val = float(np.clip(depth_val, 0.0, 1.0))
            box = _random_box(rng, config.image_size, 0.2, 0.45)
            boxes.append(box)
            rgb_rows.append(
                config.class_signal * proto_rgb[c]
                + config.noise * rng.standard_normal(d)
            )
            depth_rows.append(
                config.class_signal * proto_depth[c]
                + config.noise * rng.standard_normal(d)
            )
            depths.append(depth_val)
            gt.append((Box(*box), c))

        for _ in range(config.proposals_per_image - n_obj):
            ref = placed[int(rng.integers(len(placed)))]
            lo, hi = bands[ref]
            box = _random_box(rng, config.image_size, 0.1, 0.5)
            boxes.append(box)
            if rng.uniform() < config.confuser_rate:
                rgb_rows.append(
                    config.confuser_strength * config.class_signal * proto_rgb[ref]
                    + config.noise * rng.standard_normal(d)
                )
            else:
                rgb_rows.append(config.background_scale * rng.standard_normal(d))
            depth_rows.append(config.background_scale * rng.standard_normal(d))
            if rng.uniform() < config.distractor_outside_p:
                depths.append(_sample_outside(rng, lo, hi))
            else:
                depths.append(float(rng.uniform(0.0, 1.0)))

        order = rng.permutation(config.proposals_per_image)
        proposals = np.array(boxes, dtype=np.float64)[order]
        rgb_features = np.array(rgb_rows, dtype=np.float64)[order]
        depth_features = np.array(depth_rows, dtype=np.float64)[order]
        proposal_depths = np.array(depths, dtype=np.float64)[order]

        mentioned = list(placed)
        if config.label_noise > 0.0 and rng.uniform() < config.label_noise:
            spurious = [c for c in range(c_total) if c not in placed]
            if spurious and (not mentioned or rng.uniform() < 0.5):
                extra = int(spurious[int(rng.integers(len(spurious)))])
                mentioned.append(extra)
                word_slots[extra] = int(rng.integers(config.words_per_class))
            elif mentioned:
                mentioned.pop(int(rng.integers(len(mentioned))))

        phrases = []
        for c in mentioned:
            prep = PREPOSITIONS[int(rng.integers(len(PREPOSITIONS)))]
            word = context_word(c, word_slots[c])
            phrases.append(f"a {vocab.name_of(c)} {prep} the {word}")
        caption = "a photo of " + " and ".join(phrases) if phrases else "a photo"

        rec = ImageRecord(
            image_id=f"img{idx:05d}",
            width=config.image_size,
            height=config.image_size,
            proposals=proposals,
            rgb_features=rgb_features,
            depth_features=depth_features,
            proposal_depths=proposal_depths,
            caption=caption,
            labels=extract_labels(caption, vocab),
            gt_boxes=gt,
        )
        rec.validate(c_total)
        records.append(rec)
    return records, vocab
