"""Dataset records, vocabulary, JSONL I/O, and caption label extraction.

A dataset is a JSONL file, one image record per line. Records carry
precomputed proposal boxes, per-proposal RGB and depth features, and one
scalar depth per proposal; captions, image-level labels, and ground-truth
boxes are optional. Proposal depths can alternatively be pooled at load
time from a depth-map sidecar file.
"""

from __future__ import annotations

import json
import math
import re
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Mapping, Sequence

import numpy as np

from wsodkit import kernels
from wsodkit.errors import DataError, DegenerateRegionError, ValidationError
from wsodkit.jsonio import (
    as_array,
    as_float,
    as_int,
    as_number,
    as_type,
    read_json,
    read_jsonl,
    require,
)

_TOKEN_SPLIT = re.compile(r"[^a-z0-9]+")
# The largest finite float, as a NumPy scalar: a float32 compares with it
# without a cast that overflows, and an integer too large for a float fails
# the comparison or raises OverflowError, as it fails math.isfinite.
_LARGEST = np.float64(sys.float_info.max)


def tokenize(text: str) -> list[str]:
    """Lowercase and split on runs of non-alphanumeric characters."""
    return [t for t in _TOKEN_SPLIT.split(text.lower()) if t]


@dataclass(frozen=True)
class Box:
    """Axis-aligned box with corners (x1, y1) and (x2, y2), x2 > x1, y2 > y1."""

    x1: float
    y1: float
    x2: float
    y2: float

    def __post_init__(self) -> None:
        # A valid box passes one chained comparison per axis; NaN fails every
        # comparison. Anything else, including a comparison that raises, gets
        # the checks below, which name the problem as they always have.
        try:
            if (
                0.0 <= self.x1 < self.x2 <= _LARGEST
                and 0.0 <= self.y1 < self.y2 <= _LARGEST
            ):
                return
        except (TypeError, ValueError, OverflowError):
            pass
        vals = (self.x1, self.y1, self.x2, self.y2)
        if not all(math.isfinite(v) for v in vals):
            raise ValidationError(f"box has non-finite coordinates: {vals}")
        if min(vals) < 0.0:
            raise ValidationError(f"box has negative coordinates: {vals}")
        if self.x2 <= self.x1 or self.y2 <= self.y1:
            raise ValidationError(f"degenerate box: {vals}")

    def area(self) -> float:
        return (self.x2 - self.x1) * (self.y2 - self.y1)

    def as_array(self) -> np.ndarray:
        return np.array([self.x1, self.y1, self.x2, self.y2], dtype=np.float64)

    def as_list(self) -> list[float]:
        return [self.x1, self.y1, self.x2, self.y2]


class ClassVocabulary:
    """Dense class-id to name mapping with optional synonym tokens.

    Names and synonyms are lowercase single tokens; ids run 0..C-1.
    """

    def __init__(
        self,
        names: Sequence[str],
        synonyms: Mapping[str, Sequence[str]] | None = None,
    ) -> None:
        if not names:
            raise ValidationError("vocabulary must contain at least one class")
        cleaned = []
        for name in names:
            if not isinstance(name, str) or not name:
                raise ValidationError(f"class name must be a nonempty string: {name!r}")
            if tokenize(name) != [name]:
                raise ValidationError(
                    f"class name must be a single lowercase token: {name!r}"
                )
            cleaned.append(name)
        if len(set(cleaned)) != len(cleaned):
            raise ValidationError("class names must be unique")
        self.names: list[str] = cleaned
        self._token_to_id: dict[str, int] = {n: i for i, n in enumerate(cleaned)}
        self.synonyms: dict[str, list[str]] = {}
        for name, syns in (synonyms or {}).items():
            if name not in self._token_to_id:
                raise ValidationError(f"synonyms given for unknown class {name!r}")
            kept = []
            for s in syns:
                if not isinstance(s, str) or tokenize(s) != [s]:
                    raise ValidationError(
                        f"synonym must be a single lowercase token: {s!r}"
                    )
                other = self._token_to_id.get(s)
                if other is not None and other != self._token_to_id[name]:
                    raise ValidationError(
                        f"synonym {s!r} collides with class {self.names[other]!r}"
                    )
                kept.append(s)
                self._token_to_id[s] = self._token_to_id[name]
            if kept:
                self.synonyms[name] = kept

    def __len__(self) -> int:
        return len(self.names)

    def id_of(self, token: str) -> int | None:
        """Class id whose name or synonym equals the token, else None."""
        return self._token_to_id.get(token)

    def name_of(self, class_id: int) -> str:
        return self.names[class_id]

    @classmethod
    def from_file(cls, path: str | Path) -> "ClassVocabulary":
        entries = read_json(path, "vocabulary")
        as_type(entries, list, f"vocabulary {path} must be a JSON array")
        by_id: dict[int, dict] = {}
        for entry in entries:
            missing = f"vocabulary entry missing id: {entry!r}"
            cid = as_int(as_number(require(entry, "id", missing), missing), missing)
            if cid in by_id:
                raise ValidationError(f"duplicate class id {cid} in {path}")
            by_id[cid] = entry
        if sorted(by_id) != list(range(len(by_id))):
            raise ValidationError(f"class ids in {path} must be dense from 0")
        names = [by_id[i].get("name") for i in range(len(by_id))]
        bad = f"synonyms in {path} must be JSON arrays"
        synonyms = {
            name: as_type(by_id[i].get("synonyms", []), list, bad)
            for i, name in enumerate(names)
            if isinstance(name, str)
        }
        return cls(names, synonyms)

    def save(self, path: str | Path) -> None:
        entries = [
            {"id": i, "name": n, "synonyms": self.synonyms.get(n, [])}
            for i, n in enumerate(self.names)
        ]
        Path(path).write_text(
            json.dumps(entries, indent=2) + "\n", encoding="utf-8"
        )


def extract_labels(caption: str, vocab: ClassVocabulary) -> set[int]:
    """Class ids whose name or a synonym occurs as a whole token in the caption.

    Matching is token-level: the caption is lowercased and split on
    non-alphanumeric runs, so "cats." matches a "cats" synonym but never a
    "cat" substring.
    """
    found = set()
    for tok in tokenize(caption):
        cid = vocab.id_of(tok)
        if cid is not None:
            found.add(cid)
    return found


@dataclass
class DepthMap:
    """Dense per-pixel depth in [0, 1], row-major, shape (height, width)."""

    width: int
    height: int
    values: np.ndarray

    def __post_init__(self) -> None:
        self.values = np.asarray(self.values, dtype=np.float64)
        if self.width <= 0 or self.height <= 0:
            raise ValidationError(
                f"depth map must have positive size, got {self.width}x{self.height}"
            )
        if self.values.shape != (self.height, self.width):
            raise ValidationError(
                f"depth map values have shape {self.values.shape}, "
                f"expected ({self.height}, {self.width})"
            )
        if not np.isfinite(self.values).all():
            raise ValidationError("depth map contains non-finite values")
        if self.values.min() < 0.0 or self.values.max() > 1.0:
            raise ValidationError("depth map values must lie in [0, 1]")


def proposal_depths(depth_map: DepthMap, boxes: np.ndarray) -> np.ndarray:
    """Mean depth over the pixel centers each of (R, 4) boxes covers.

    Pixel (i, j) has center (j + 0.5, i + 0.5). Raises when a box,
    intersected with the image, covers no pixel center.
    """
    out = kernels.box_mean_pool(depth_map.values, boxes)
    bad = np.nonzero(np.isnan(out))[0]
    if bad.size:
        raise DegenerateRegionError(
            f"box {boxes[bad[0]].tolist()} covers no pixel centers of a "
            f"{depth_map.width}x{depth_map.height} depth map"
        )
    return out


@dataclass
class ImageRecord:
    """One image: proposals, per-proposal features and depths, weak labels.

    ``proposals`` is (R, 4) float64, ``rgb_features`` and ``depth_features``
    are (R, d), ``proposal_depths`` is (R,) in [0, 1]. ``gt_boxes`` pairs a
    Box with its class id and exists only on evaluation-ready data.
    ``depth_map`` is populated from a sidecar at load time and never
    serialized.
    """

    image_id: str
    width: int
    height: int
    proposals: np.ndarray
    rgb_features: np.ndarray
    depth_features: np.ndarray
    proposal_depths: np.ndarray
    caption: str | None = None
    labels: set[int] | None = None
    gt_boxes: list[tuple[Box, int]] | None = None
    depth_map: DepthMap | None = field(default=None, repr=False, compare=False)

    @property
    def num_proposals(self) -> int:
        return self.proposals.shape[0]

    def validate(self, num_classes: int | None = None) -> None:
        rid = self.image_id
        if not isinstance(rid, str) or not rid:
            raise ValidationError(f"image_id must be a nonempty string: {rid!r}")
        _check_geometry(rid, self.width, self.height, self.proposals)
        r = self.proposals.shape[0]
        for name, feats in (
            ("rgb_features", self.rgb_features),
            ("depth_features", self.depth_features),
        ):
            if feats.ndim != 2 or feats.shape[0] != r:
                raise ValidationError(
                    f"image {rid}: {name}/proposal count mismatch "
                    f"({feats.shape[0] if feats.ndim == 2 else '?'} vs {r})"
                )
            if not np.isfinite(feats).all():
                raise ValidationError(f"image {rid}: {name} contain non-finite values")
        if self.rgb_features.shape[1] != self.depth_features.shape[1]:
            raise ValidationError(
                f"image {rid}: rgb and depth feature dims differ "
                f"({self.rgb_features.shape[1]} vs {self.depth_features.shape[1]})"
            )
        d = self.proposal_depths
        if d.ndim != 1 or d.shape[0] != r:
            raise ValidationError(
                f"image {rid}: proposal_depths/proposal count mismatch"
            )
        if not np.isfinite(d).all() or d.min() < 0.0 or d.max() > 1.0:
            raise ValidationError(
                f"image {rid}: proposal_depths must be finite and in [0, 1]"
            )
        if num_classes is not None:
            gt_classes = [cid for _, cid in self.gt_boxes or ()]
            for what, ids in (("label", self.labels or ()), ("gt class", gt_classes)):
                for cid in ids:
                    if not 0 <= cid < num_classes:
                        raise ValidationError(
                            f"image {rid}: {what} {cid} outside 0..{num_classes - 1}"
                        )

    def gt_labels(self) -> set[int]:
        """Class ids present among ground-truth boxes (empty when absent)."""
        if not self.gt_boxes:
            return set()
        return {cid for _, cid in self.gt_boxes}


def _check_geometry(rid: str, width: int, height: int, p: np.ndarray) -> None:
    """Positive image size and (R, 4) finite, nondegenerate in-bounds boxes."""
    if width <= 0 or height <= 0:
        raise ValidationError(
            f"image {rid}: width/height must be positive, got {width}x{height}"
        )
    if p.ndim != 2 or p.shape[1] != 4 or p.shape[0] < 1:
        raise ValidationError(f"image {rid}: proposals must have shape (R, 4)")
    if not np.isfinite(p).all():
        raise ValidationError(f"image {rid}: proposals contain non-finite values")
    if (p < 0).any():
        raise ValidationError(f"image {rid}: proposal coordinates must be >= 0")
    if (p[:, 2] <= p[:, 0]).any() or (p[:, 3] <= p[:, 1]).any():
        bad = int(np.nonzero((p[:, 2] <= p[:, 0]) | (p[:, 3] <= p[:, 1]))[0][0])
        raise ValidationError(
            f"image {rid}: degenerate box at proposal {bad}: {p[bad].tolist()}"
        )
    if (p[:, 2] > width).any() or (p[:, 3] > height).any():
        raise ValidationError(f"image {rid}: proposal exceeds image bounds")


def box_from_json(value, message: str) -> Box:
    """A Box from a JSON array of four numbers (ints or floats, no bools)."""
    if not isinstance(value, list) or len(value) != 4:
        raise ValidationError(message)
    return Box(*[as_float(as_number(v, message), message) for v in value])


def _floats_2d(raw, rid: str, name: str) -> np.ndarray:
    arr = as_array(raw, f"image {rid}: {name} is not numeric")
    if arr.ndim == 1 and arr.size == 0:
        arr = arr.reshape(0, 0)
    if arr.ndim != 2:
        raise ValidationError(f"image {rid}: {name} must be a list of rows")
    return arr


def record_from_json(obj: dict, depth_map: DepthMap | None = None) -> ImageRecord:
    """Build and validate an ImageRecord from one parsed JSONL object."""
    obj = as_type(obj, dict, "record must be a JSON object")
    rid = obj.get("image_id")
    if not isinstance(rid, str) or not rid:
        raise ValidationError(f"image_id must be a nonempty string: {rid!r}")
    bad_size = f"image {rid}: width/height missing or invalid"
    width = as_int(as_number(obj.get("width"), bad_size), bad_size)
    height = as_int(as_number(obj.get("height"), bad_size), bad_size)
    proposals = _floats_2d(obj.get("proposals"), rid, "proposals")
    rgb = _floats_2d(obj.get("rgb_features"), rid, "rgb_features")
    depth = _floats_2d(obj.get("depth_features"), rid, "depth_features")
    raw_pd = obj.get("proposal_depths")
    if raw_pd is None:
        if depth_map is None:
            raise ValidationError(
                f"image {rid}: proposal_depths missing and no depth map sidecar"
            )
        _check_geometry(rid, width, height, proposals)
        pd = proposal_depths(depth_map, proposals)
    else:
        pd = as_array(raw_pd, f"image {rid}: proposal_depths not numeric")
    bad = f"image {rid}: caption must be a string"
    caption = as_type(obj.get("caption"), (str, type(None)), bad)
    labels = None
    if obj.get("labels") is not None:
        bad = f"image {rid}: labels must be integers"
        raw = as_type(obj["labels"], list, bad)
        labels = {as_int(as_number(x, bad), bad) for x in raw}
    gt_boxes = None
    if obj.get("gt_boxes") is not None:
        bad = f"image {rid}: gt_boxes entries must be [x1,y1,x2,y2,class_id]"
        gt_boxes = []
        for entry in as_type(obj["gt_boxes"], list, bad):
            if not isinstance(entry, list) or len(entry) != 5:
                raise ValidationError(bad)
            cid = as_int(as_number(entry[4], bad), bad)
            gt_boxes.append((box_from_json(entry[:4], bad), cid))
    return ImageRecord(
        image_id=rid,
        width=width,
        height=height,
        proposals=proposals,
        rgb_features=rgb,
        depth_features=depth,
        proposal_depths=pd,
        caption=caption,
        labels=labels,
        gt_boxes=gt_boxes,
        depth_map=depth_map,
    )


def record_to_json(rec: ImageRecord) -> dict:
    """Serializable dict for one record; field order is fixed."""
    obj: dict = {
        "image_id": rec.image_id,
        "width": int(rec.width),
        "height": int(rec.height),
        "proposals": [[float(v) for v in row] for row in rec.proposals],
        "rgb_features": [[float(v) for v in row] for row in rec.rgb_features],
        "depth_features": [[float(v) for v in row] for row in rec.depth_features],
        "proposal_depths": [float(v) for v in rec.proposal_depths],
    }
    if rec.caption is not None:
        obj["caption"] = rec.caption
    if rec.labels is not None:
        obj["labels"] = sorted(int(c) for c in rec.labels)
    if rec.gt_boxes is not None:
        obj["gt_boxes"] = [
            [b.x1, b.y1, b.x2, b.y2, int(cid)] for b, cid in rec.gt_boxes
        ]
    return obj


def load_depth_maps(path: str | Path) -> dict[str, DepthMap]:
    """Load a depth-map sidecar: JSONL of image_id, width, height, values."""
    maps: dict[str, DepthMap] = {}
    for lineno, obj in read_jsonl(path, "depth maps"):
        bad = f"{path}: line {lineno}: bad depth map entry"
        rid = as_type(require(obj, "image_id", bad), str, bad)
        width = as_int(as_number(obj.get("width"), bad), bad)
        height = as_int(as_number(obj.get("height"), bad), bad)
        values = as_array(require(obj, "values", bad), bad)
        if width <= 0 or height <= 0 or values.size != width * height:
            raise ValidationError(bad)
        if rid in maps:
            raise ValidationError(f"{path}: duplicate depth map for {rid!r}")
        maps[rid] = DepthMap(width, height, values.reshape(height, width))
    return maps


def load_dataset(
    path: str | Path,
    vocab: ClassVocabulary | None = None,
    depth_maps: Mapping[str, DepthMap] | None = None,
) -> list[ImageRecord]:
    """Load a JSONL dataset; every line must be one valid record.

    When ``depth_maps`` is given, records lacking ``proposal_depths`` get
    them pooled from their depth map; records that already carry depths
    keep them.
    """
    records: list[ImageRecord] = []
    seen: set[str] = set()
    num_classes = len(vocab) if vocab is not None else None
    for lineno, obj in read_jsonl(path, "dataset"):
        rid = obj.get("image_id") if isinstance(obj, dict) else None
        dm = depth_maps.get(rid) if depth_maps and isinstance(rid, str) else None
        try:
            rec = record_from_json(obj, depth_map=dm)
            rec.validate(num_classes)
        except DataError as e:
            raise type(e)(f"{path}: line {lineno}: {e}") from e
        if rec.image_id in seen:
            raise ValidationError(
                f"{path}: line {lineno}: duplicate image_id {rec.image_id!r}"
            )
        seen.add(rec.image_id)
        records.append(rec)
    if not records:
        raise DataError(f"{path}: dataset is empty")
    return records


def save_dataset(records: Iterable[ImageRecord], path: str | Path) -> None:
    """Write records as JSONL; output is deterministic for equal inputs."""
    with open(path, "w", encoding="utf-8") as fh:
        for rec in records:
            fh.write(json.dumps(record_to_json(rec)) + "\n")
