"""Run configuration, the training loop, inference, and the ablation driver.

One optimizer step covers one batch of images: every image contributes its
MIL loss (and, when the refinement branch is active, its refinement loss),
and the whole batch contributes one contrastive loss when that toggle is
on. The three terms are weighted, gradients accumulate across the batch,
and a single momentum-SGD step follows. Each run of consecutive same-R
images of a batch gets its MIL losses from one stacked ``mil_chain`` call
of at most ``MIL_ROW_BUDGET`` proposal rows. The labelled images of the
run are then mined image by image from the MIL head's scores and go
through the refinement branch in one ``refinement_chain`` call over the
same feature stack. Gradients and losses still add image by image in batch
order (each chain adds its stack's per-image gradients of every parameter
it trains through one ``numkit.add_in_order`` call), so stacking changes
no bit of a run. The optimizer keeps every parameter in one flat buffer and
steps it whole. What is fixed for the whole run is built once: the (N, C)
label rows, each record's proposal count, the depth masks (only when depth
mining or depth attention reads them), their attention multipliers, the
proposal IoU blocks that mining slices and the pooled RGB and depth
features that the contrastive loss reads. A chunk's feature and attention
stacks are one concatenate each. All randomness flows through one
seeded generator whose draw order does not depend on the toggles, so runs
differing only in disabled components stay bit-comparable.
"""

from __future__ import annotations

import dataclasses
import os
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from wsodkit import contrastive, fusion, kernels, milhead, refine
from wsodkit.data import ClassVocabulary, ImageRecord, extract_labels
from wsodkit.errors import ConfigError, DataError
from wsodkit.evaluate import (
    DEFAULT_NMS_THRESH,
    Detections,
    EvalReport,
    check_fraction,
    evaluate,
    format_table,
    nms_detections,
)
from wsodkit.fusion import FusionMode
from wsodkit.jsonio import as_float, as_int, as_type, read_json, write_json
from wsodkit.model import DEFAULT_INIT_SCALE, ModelDims, ModelParams
from wsodkit.numkit import SGD
from wsodkit.priors import DepthMask, FrozenPriors, depth_mask

SEED_ENV_VAR = "WSOD_SEED"
# Sanity ceilings: larger values only run for ever or exhaust memory.
MAX_EPOCHS = 10_000
MAX_PROJ_DIM = 4096
# Most proposal rows one mil_chain call stacks. It bounds memory, not time:
# the cost per image stays flat or falls as a stack grows (d=32, C=5, fusion
# and attention, one OpenBLAS thread of a 2-vCPU Xeon: R=2000 1.14 ms alone,
# 1.12 at 2 images, 1.17 at 8; R=512 283 us at 2, 257 at 4). A stack holds
# up to nce_batch x R x d feature floats per stream: at d=4096 (fc7-sized
# features), R=2000 and a batch of 8 that is 524 MB, against 65 MB for the
# one image per call the budget allows there.
MIL_ROW_BUDGET = 1024

# Dotted config keys accepted in files and --set overrides.
CONFIG_ALIASES = {
    "lr": "learning_rate",
    "refine.iou_thresh": "refine_iou_thresh",
    "refine.score_ratio": "refine_score_ratio",
    "attention.enabled": "depth_attention",
    "attention.multiplier": "attention_multiplier",
    "mining.depth_filter": "depth_oicr",
    "nce.batch": "nce_batch",
    "priors.use_captions": "caption_priors",
}

# Values each annotated field type accepts; bools count only as "bool".
FIELD_TYPES = {"int": int, "float": (int, float), "bool": bool, "str": str}

TOGGLE_NAMES = ("siamese_nce", "fusion", "depth_oicr", "depth_attention")
LABEL_SOURCES = ("stored", "gt", "captions")

ABLATION_ROWS: list[tuple[str, tuple[str, ...]]] = [
    ("baseline", ()),
    ("siamese-only", ("siamese_nce",)),
    ("fusion", ("siamese_nce", "fusion")),
    ("depth-oicr", ("siamese_nce", "depth_oicr")),
    ("depth-attention", ("siamese_nce", "depth_attention")),
    ("wsod-amplifier", TOGGLE_NAMES),
]
# EvalReport.to_json keys that each ablation row carries.
ABLATION_METRICS = (
    "map_avg", "map50", "map75", "corloc_avg", "corloc50", "corloc75", "area_avg",
)


@dataclass
class RunConfig:
    """Hyperparameters and component toggles for one training run."""

    seed: int = 0
    epochs: int = 30
    learning_rate: float = 0.01
    momentum: float = 0.9
    lambda_mil: float = 1.0
    lambda_nce: float = 1.0
    lambda_ref: float = 1.0
    siamese_nce: bool = False
    fusion: bool = False
    depth_oicr: bool = False
    depth_attention: bool = False
    nce_batch: int = 8
    proj_dim: int = 32
    rho_init: float = 0.1
    init_scale: float = DEFAULT_INIT_SCALE
    refine_iou_thresh: float = refine.DEFAULT_IOU_THRESH
    refine_score_ratio: float = refine.DEFAULT_SCORE_RATIO
    attention_multiplier: float = refine.ATTENTION_MULTIPLIER
    label_source: str = "stored"
    caption_priors: bool = True
    nms_thresh: float = DEFAULT_NMS_THRESH
    min_score: float = 0.05
    inference_mode: str = "rgb"
    eleven_point_ap: bool = False

    def validate(self) -> None:
        for f in dataclasses.fields(self):
            value = getattr(self, f.name)
            if not isinstance(value, FIELD_TYPES[f.type]) or (
                f.type in ("int", "float") and isinstance(value, bool)
            ):
                raise ConfigError(f"{f.name} must be {f.type}, got {value!r}")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        if not 0 <= self.epochs <= MAX_EPOCHS:
            raise ConfigError(f"epochs must be in 0..{MAX_EPOCHS}")
        if not np.isfinite(self.learning_rate) or self.learning_rate <= 0:
            raise ConfigError("learning_rate must be positive")
        if not 0.0 <= self.momentum < 1.0:
            raise ConfigError("momentum must be in [0, 1)")
        for name in ("lambda_mil", "lambda_nce", "lambda_ref"):
            value = getattr(self, name)
            if not np.isfinite(value) or value < 0:
                raise ConfigError(f"{name} must be finite and >= 0")
        if self.nce_batch < 1:
            raise ConfigError("nce_batch must be >= 1")
        if not 1 <= self.proj_dim <= MAX_PROJ_DIM:
            raise ConfigError(f"proj_dim must be in 1..{MAX_PROJ_DIM}")
        for name in (
            "refine_iou_thresh",
            "refine_score_ratio",
            "attention_multiplier",
            "nms_thresh",
        ):
            check_fraction(name, getattr(self, name))
        check_fraction("min_score", self.min_score, upper_open=True)
        for name in ("rho_init", "init_scale"):
            value = getattr(self, name)
            if not np.isfinite(value) or value <= 0:
                raise ConfigError(f"{name} must be finite and positive")
        _check_choice("label_source", self.label_source, LABEL_SOURCES)
        modes = tuple(mode.value for mode in FusionMode)
        _check_choice("inference_mode", self.inference_mode, modes)

    def resolved_seed(self) -> int:
        """Config seed, overridden by the WSOD_SEED environment variable.

        The override must be a non-negative integer, as numpy's generators
        require; ``validate`` holds the config seed to the same rule.
        """
        raw = os.environ.get(SEED_ENV_VAR)
        if raw is None or raw == "":
            return self.seed
        message = f"{SEED_ENV_VAR} must be an integer, got {raw!r}"
        seed = as_int(raw, message, ConfigError)
        if seed < 0:
            raise ConfigError(f"{SEED_ENV_VAR} must be >= 0, got {raw!r}")
        return seed

    def with_updates(self, **kwargs) -> "RunConfig":
        cfg = dataclasses.replace(self, **kwargs)
        cfg.validate()
        return cfg

    def to_json(self) -> dict:
        return dataclasses.asdict(self)

    @classmethod
    def from_sources(
        cls, config_path: str | Path | None = None, overrides: Sequence[str] = ()
    ) -> "RunConfig":
        """Build from an optional JSON file plus ``key=value`` overrides."""
        cfg = cls()
        if config_path is not None:
            raw = read_json(config_path, "config", ConfigError, ConfigError)
            message = f"config {config_path} must be a JSON object"
            as_type(raw, dict, message, ConfigError)
            for key, value in raw.items():
                cfg = cfg._with_key(key, value)
        for item in overrides:
            key, sep, value = item.partition("=")
            if not sep:
                raise ConfigError(f"override {item!r} is not of the form key=value")
            cfg = cfg._with_key(key.strip(), value.strip())
        cfg.validate()
        return cfg

    def _with_key(self, key: str, value) -> "RunConfig":
        name = CONFIG_ALIASES.get(key, key)
        fields = {f.name: f for f in dataclasses.fields(self)}
        if name not in fields:
            raise ConfigError(f"unknown config key {key!r}")
        coerced = _coerce(key, value, fields[name].type)
        return dataclasses.replace(self, **{name: coerced})


def _check_choice(name: str, value, choices: tuple[str, ...]) -> None:
    if value not in choices:
        raise ConfigError(f"{name} must be {'|'.join(choices)}, got {value!r}")


def _coerce(key: str, value, target_type: str):
    """``value`` as a config field of type ``target_type``, or a ConfigError."""
    if target_type == "bool":
        if isinstance(value, bool):
            return value
        text = str(value).strip().lower()
        if text in ("1", "true", "on", "yes"):
            return True
        if text in ("0", "false", "off", "no"):
            return False
        raise ConfigError(f"bad value for {key!r}: expected a boolean, got {value!r}")
    if target_type == "str":
        return str(value)
    convert = as_int if target_type == "int" else as_float
    message = f"bad value for {key!r}: expected {target_type}, got {value!r}"
    return convert(value, message, ConfigError)


@dataclass
class EpochLosses:
    mil: float
    nce: float
    refine: float
    total: float

    def to_json(self) -> dict:
        return dataclasses.asdict(self)


@dataclass
class RunReport:
    """Everything a run produced; wall time stays out of the serialized form
    so reports from identical runs are byte-identical."""

    config: dict
    seed: int
    epochs: list[EpochLosses] = field(default_factory=list)
    eval_report: EvalReport | None = None
    wall_time_s: float = 0.0

    def to_json(self) -> dict:
        return {
            "seed": self.seed,
            "config": self.config,
            "epochs": [e.to_json() for e in self.epochs],
            "eval": self.eval_report.to_json() if self.eval_report else None,
        }

    def save(self, path: str | Path) -> None:
        write_json(path, self.to_json())


def resolve_labels(
    records: Sequence[ImageRecord], vocab: ClassVocabulary, source: str
) -> list[set[int]]:
    """Per-record label sets from the configured source.

    ``stored`` uses the labels carried by the records, ``gt`` derives them
    from ground-truth boxes, ``captions`` re-extracts from the captions.
    Exactly one source is ever consulted per run.
    """
    _check_choice("label_source", source, LABEL_SOURCES)
    out: list[set[int]] = []
    for rec in records:
        if source == "stored":
            if rec.labels is None:
                raise DataError(
                    f"image {rec.image_id}: no stored labels; run extract-labels "
                    "or pick label_source gt/captions"
                )
            out.append(set(rec.labels))
        elif source == "gt":
            if rec.gt_boxes is None:
                raise DataError(f"image {rec.image_id}: no ground-truth boxes")
            out.append(rec.gt_labels())
        else:
            if rec.caption is None:
                raise DataError(f"image {rec.image_id}: no caption to extract from")
            out.append(extract_labels(rec.caption, vocab))
    if not any(out):
        raise DataError("no image carries any label under the chosen source")
    return out


def check_features(records: Sequence[ImageRecord]) -> int:
    """All records, at least one, must share one feature dimension;
    returns it."""
    if not records:
        raise DataError("no records were given")
    dims = {rec.rgb_features.shape[1] for rec in records}
    if len(dims) != 1:
        raise DataError(f"records disagree on feature dim: {sorted(dims)}")
    return dims.pop()


def _same_r_runs(sizes: Sequence[int], batch: list[int]) -> list[list[int]]:
    """Split a batch into runs of consecutive same-R images, in batch order.

    ``sizes[idx]`` is record idx's proposal count R. Each run is one
    ``mil_chain`` call and holds at most ``MIL_ROW_BUDGET`` proposal rows,
    but always at least one image.
    """
    runs: list[list[int]] = []
    for idx in batch:
        r = sizes[idx]
        if (
            runs
            and sizes[runs[-1][0]] == r
            and (len(runs[-1]) + 1) * r <= MIL_ROW_BUDGET
        ):
            runs[-1].append(idx)
        else:
            runs.append([idx])
    return runs


def _stacked(arrays: list[np.ndarray]) -> np.ndarray:
    """``np.stack`` of same-shape arrays as one concatenate and a reshape.

    ``np.stack`` makes a (1, ...) view of each array first. Keeping such
    views per record for a whole run saves the same calls, but those ~1.5k
    small objects per run left the heap more fragmented, and stock-ladder
    read a 0.9 MiB higher peak RSS.
    """
    return np.concatenate(arrays).reshape(len(arrays), *arrays[0].shape)


def _refinement_losses(
    model: ModelParams,
    records: Sequence[ImageRecord],
    features: np.ndarray,
    scores: np.ndarray,
    labels: Sequence[set[int]],
    masks: Sequence[DepthMask | None],
    pair_ious: Sequence[np.ndarray | None],
    config: RunConfig,
    grad_scale: float,
) -> list[float]:
    """Loss of the refinement branch on each image of a stack.

    Every sequence argument holds one entry per image of a same-R stack of
    labelled images, in stack order: ``features`` is their (B, R, d) RGB
    stack and ``scores`` the MIL head's (B, R, C) combined scores. Each
    image is mined for pseudo boxes from its scores, then the branch scores
    the stack in one ``refinement_chain`` call and accumulates the
    gradients of ``grad_scale`` times each image's loss.
    """
    num_classes = model.dims.num_classes
    targets = np.empty(scores.shape[:2], dtype=np.int64)
    weights = np.empty(scores.shape[:2])
    for k, rec in enumerate(records):
        pseudo = refine.mine(
            rec,
            scores[k],
            labels[k],
            masks[k],
            iou_thresh=config.refine_iou_thresh,
            score_ratio=config.refine_score_ratio,
            pair_ious=pair_ious[k],
        )
        targets[k], weights[k] = refine.assign_targets(
            rec, pseudo, num_classes, config.refine_iou_thresh, pair_ious[k]
        )
    return refine.refinement_chain(features, model.refine, targets, weights, grad_scale)


def train(
    config: RunConfig,
    records: Sequence[ImageRecord],
    vocab: ClassVocabulary,
    priors: FrozenPriors | None = None,
    eval_records: Sequence[ImageRecord] | None = None,
    log: Callable[[str], None] | None = None,
) -> tuple[ModelParams, RunReport]:
    """Train a model and report per-epoch losses plus a final evaluation.

    ``priors`` are required when depth mining or depth attention is on.
    Evaluation runs on ``eval_records`` (default: the training records)
    whenever ground truth is present, using the configured inference mode.
    """
    config.validate()
    if (config.depth_oicr or config.depth_attention) and priors is None:
        raise ConfigError(
            "depth_oicr/depth_attention need frozen depth priors; "
            "run estimate-priors first"
        )
    num_classes = len(vocab)
    feat_dim = check_features(records)
    use_nce = config.siamese_nce and config.lambda_nce > 0.0
    pooled_rgb = pooled_depth = None
    if use_nce:
        # Proposal features are frozen, so each record's pooled rows are too.
        # Built first, before the run's other long-lived arrays: built after
        # them, these small blocks left the heap more fragmented, and the
        # large-proposals benchmark read a 2-7 MiB higher peak RSS.
        pooled_rgb = np.stack(
            [contrastive.pool_features(rec.rgb_features) for rec in records]
        )
        pooled_depth = np.stack(
            [contrastive.pool_features(rec.depth_features) for rec in records]
        )
    labels = resolve_labels(records, vocab, config.label_source)
    label_rows = np.array([milhead.label_vector(ls, num_classes) for ls in labels])
    masks = None
    if config.depth_oicr or config.depth_attention:
        masks = [
            depth_mask(rec, priors, num_classes, use_caption=config.caption_priors)
            for rec in records
        ]
    attention = None
    if config.depth_attention:
        attention = [
            refine.attention_multipliers(m, config.attention_multiplier) for m in masks
        ]
    mine_masks = masks if config.depth_oicr else [None] * len(records)

    seed = config.resolved_seed()
    rng = np.random.default_rng(seed)
    model = ModelParams.create(
        ModelDims(num_classes=num_classes, feat_dim=feat_dim, proj_dim=config.proj_dim),
        rng,
        init_scale=config.init_scale,
        rho_init=config.rho_init,
    )
    opt = SGD(model.params(), config.learning_rate, config.momentum)

    use_refine = config.lambda_ref > 0.0
    pair_ious = [refine.pair_iou(rec) for rec in records] if use_refine else None
    sizes = [rec.num_proposals for rec in records]
    n = len(records)
    report = RunReport(config=config.to_json(), seed=seed)
    start = time.perf_counter()

    for epoch in range(config.epochs):
        order = rng.permutation(n)
        mil_sum = 0.0
        ref_sum = 0.0
        nce_sum = 0.0
        n_batches = 0
        for lo in range(0, n, config.nce_batch):
            batch = [int(idx) for idx in order[lo : lo + config.nce_batch]]
            bsz = len(batch)
            for chunk in _same_r_runs(sizes, batch):
                rgb = _stacked([records[idx].rgb_features for idx in chunk])
                streams = [(rgb, model.rgb_head)]
                if config.fusion:
                    depth = _stacked([records[idx].depth_features for idx in chunk])
                    streams.append((depth, model.depth_head))
                mil_losses, pack = milhead.mil_chain(
                    streams,
                    label_rows[chunk],
                    attention=(
                        _stacked([attention[idx] for idx in chunk])
                        if attention is not None
                        else None
                    ),
                    grad_scale=config.lambda_mil / bsz,
                )
                for loss in mil_losses:
                    mil_sum += loss
                live = [k for k, idx in enumerate(chunk) if labels[idx]]
                if use_refine and live:
                    ids = [chunk[k] for k in live]
                    for loss in _refinement_losses(
                        model,
                        [records[idx] for idx in ids],
                        rgb[live],
                        pack.combined[live],
                        [labels[idx] for idx in ids],
                        [mine_masks[idx] for idx in ids],
                        [pair_ious[idx] for idx in ids],
                        config,
                        config.lambda_ref / bsz,
                    ):
                        ref_sum += loss
            if use_nce:
                nce_sum += contrastive.nce_chain(
                    pooled_rgb[batch],
                    pooled_depth[batch],
                    model.proj,
                    grad_scale=config.lambda_nce,
                )
                n_batches += 1
            opt.step()
            model.proj.clamp_rho()
        losses = EpochLosses(
            mil=mil_sum / n,
            nce=nce_sum / n_batches if n_batches else 0.0,
            refine=ref_sum / n,
            total=0.0,
        )
        losses.total = (
            config.lambda_mil * losses.mil
            + config.lambda_nce * losses.nce
            + config.lambda_ref * losses.refine
        )
        report.epochs.append(losses)
        if log is not None:
            log(
                f"epoch {epoch + 1:3d}/{config.epochs}  "
                f"mil {losses.mil:.6f}  nce {losses.nce:.6f}  "
                f"refine {losses.refine:.6f}  total {losses.total:.6f}"
            )

    targets = eval_records if eval_records is not None else records
    if any(rec.gt_boxes for rec in targets):
        dets = infer(
            model,
            targets,
            mode=FusionMode(config.inference_mode),
            min_score=config.min_score,
            nms_thresh=config.nms_thresh,
        )
        report.eval_report = evaluate(
            dets,
            targets,
            nms_thresh=config.nms_thresh,
            eleven_point=config.eleven_point_ap,
        )
    report.wall_time_s = time.perf_counter() - start
    return model, report


# Candidate boxes per NMS call in ``infer``: each call takes as many whole
# records as fit, so one call settles every (record, class) group of them.
INFER_NMS_BOXES = 4096


def infer(
    model: ModelParams,
    records: Sequence[ImageRecord],
    mode: FusionMode = FusionMode.RGB_ONLY,
    min_score: float = RunConfig.min_score,
    nms_thresh: float = DEFAULT_NMS_THRESH,
) -> Detections:
    """Score records and return the per-class, per-image NMS survivors.

    Detection confidence is the combined (det x cls) probability of the
    proposal; boxes are the proposals themselves. Only detections scoring
    strictly above ``min_score``, which lies in [0, 1) as ``RunConfig``
    holds it, are emitted, in record, class, NMS order. Class-wise NMS runs
    on the proposal and score arrays, one call per chunk of records of at
    most ``INFER_NMS_BOXES`` candidates (a record with more takes a call
    alone), with each (record, class) as a group. The set's table is the
    records' ids and its columns are the survivors' rows, taken from the
    proposal and score arrays without an object per row.
    """
    check_fraction("nms_thresh", nms_thresh)
    check_fraction("min_score", min_score, upper_open=True)
    model.check_against(check_features(records))
    num_classes = model.dims.num_classes
    parts = []
    chunk: list[tuple[int, ImageRecord, np.ndarray, np.ndarray, np.ndarray]] = []
    size = 0
    for j, rec in enumerate(records):
        conf = fusion.forward(rec, model.rgb_head, model.depth_head, mode).combined[0]
        # Greedy NMS settles every candidate above the floor before any at or
        # below it, so dropping those first leaves the survivors unchanged.
        cids, rows = np.nonzero((conf > min_score).T)
        if chunk and size + rows.size > INFER_NMS_BOXES:
            parts.append(_survivors(chunk, num_classes, nms_thresh))
            chunk, size = [], 0
        chunk.append((j, rec, conf, rows, cids))
        size += rows.size
    if chunk:
        parts.append(_survivors(chunk, num_classes, nms_thresh))
    return Detections.concat([rec.image_id for rec in records], parts)


def _survivors(
    chunk: Sequence[tuple[int, ImageRecord, np.ndarray, np.ndarray, np.ndarray]],
    num_classes: int,
    nms_thresh: float,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """NMS over a chunk's candidates in one call; the survivors' columns.

    Each chunk entry is a record's index, the record, its (R, C) scores and
    its candidates' proposal rows and class ids, class by class. The
    survivors come record by record, class by class, in NMS order, because
    NMS orders its output by group id.
    """
    boxes = np.concatenate([rec.proposals[rows] for _, rec, _, rows, _ in chunk])
    scores = np.concatenate([conf[rows, cids] for _, _, conf, rows, cids in chunk])
    groups = np.concatenate([j * num_classes + cids for j, _, _, _, cids in chunk])
    keep = nms_detections(boxes, scores, nms_thresh, groups)
    image, class_ids = np.divmod(groups[keep], num_classes)
    return image, class_ids, boxes[keep], scores[keep]


@dataclass
class MiningReport:
    """Pseudo-box precision against ground truth over a record set."""

    total: int
    hits: int

    @property
    def precision(self) -> float:
        return self.hits / self.total if self.total else 0.0


def mining_precision(
    model: ModelParams,
    records: Sequence[ImageRecord],
    vocab: ClassVocabulary,
    config: RunConfig,
    priors: FrozenPriors | None = None,
) -> MiningReport:
    """Fraction of mined pseudo boxes overlapping a same-class true box.

    Mining runs exactly as the refinement branch sees it in training:
    supervising scores are the MIL head's combined probabilities under the
    training fusion mode, and the depth filter applies when the config
    enables it (requires priors).
    """
    if config.depth_oicr and priors is None:
        raise ConfigError("depth-filtered mining needs frozen priors")
    labels = resolve_labels(records, vocab, config.label_source)
    num_classes = len(vocab)
    masks = [None] * len(records)
    if config.depth_oicr:
        masks = [
            depth_mask(rec, priors, num_classes, use_caption=config.caption_priors)
            for rec in records
        ]
    total = 0
    hits = 0
    for idx, rec in enumerate(records):
        if not labels[idx] or not rec.gt_boxes:
            continue
        pack = fusion.forward(
            rec,
            model.rgb_head,
            model.depth_head,
            FusionMode.FUSED if config.fusion else FusionMode.RGB_ONLY,
        )
        pseudo = refine.mine(
            rec,
            pack.combined[0],
            labels[idx],
            mask=masks[idx],
            iou_thresh=config.refine_iou_thresh,
            score_ratio=config.refine_score_ratio,
        )
        gt_by_class: dict[int, list[np.ndarray]] = {}
        for box, cid in rec.gt_boxes:
            gt_by_class.setdefault(cid, []).append(box.as_array())
        total += pseudo.indices.size
        for cid, gt_boxes in gt_by_class.items():
            rows = pseudo.indices[pseudo.class_ids == cid]
            if rows.size:
                ious = kernels.iou_matrix(rec.proposals[rows], np.stack(gt_boxes))
                hits += int((ious.max(axis=1) >= 0.5).sum())
    return MiningReport(total=total, hits=hits)


@dataclass
class AblationResult:
    rows: list[tuple[str, tuple[str, ...], EvalReport]] = field(default_factory=list)

    def to_json(self) -> dict:
        rows = []
        for name, toggles, rep in self.rows:
            metrics = rep.to_json()
            row = {key: metrics[key] for key in ABLATION_METRICS}
            rows.append({"name": name, "toggles": list(toggles), **row})
        return {"rows": rows}

    def to_text(self) -> str:
        return format_table([(name, rep) for name, _, rep in self.rows])

    def save(self, path: str | Path) -> None:
        write_json(path, self.to_json())


def run_ablation(
    base: RunConfig,
    records: Sequence[ImageRecord],
    vocab: ClassVocabulary,
    priors: FrozenPriors | None = None,
    eval_records: Sequence[ImageRecord] | None = None,
    log: Callable[[str], None] | None = None,
) -> AblationResult:
    """Train and evaluate the component ladder plus the bare baseline.

    Every row restarts from the same seed with only its toggles flipped.
    The depth rows need priors and every row needs ground truth to evaluate
    on, so both are checked before the first row trains.
    """
    if priors is None:
        raise ConfigError("ablation needs depth priors; run estimate-priors first")
    targets = eval_records if eval_records is not None else records
    if not any(rec.gt_boxes for rec in targets):
        raise DataError("ablation needs ground-truth boxes to evaluate")
    result = AblationResult()
    for name, toggles in ABLATION_ROWS:
        cfg = base.with_updates(**{t: t in toggles for t in TOGGLE_NAMES})
        if log is not None:
            log(f"[{name}] training with toggles {sorted(toggles) or ['none']}")
        _, report = train(
            cfg, records, vocab, priors=priors, eval_records=eval_records
        )
        result.rows.append((name, tuple(toggles), report.eval_report))
    return result
