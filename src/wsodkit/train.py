"""Run configuration, the training loop, inference, and the ablation driver.

One optimizer step covers one batch of images: every image contributes its
MIL loss (and, when refinement branches are active, its refinement loss),
and the whole batch contributes one contrastive loss when that toggle is
on. The three terms are weighted, gradients accumulate across the batch,
and a single momentum-SGD step follows. Each run of consecutive same-R
images of a batch gets its MIL losses from one stacked ``mil_chain`` call
of at most ``MIL_ROW_BUDGET`` proposal rows. The labelled images of the
run then go through each refinement branch in one ``refinement_chain``
call over the same feature stack, mined image by image from the previous
stage's scores. Gradients and losses still add image by image in batch
order (a stack's per-image gradients through one ``numkit.add_in_order``
per parameter), so stacking changes no bit of a run. The optimizer keeps
every parameter in one flat buffer and steps it whole. What is fixed for the
whole run is built once per record: the depth masks, their attention
multipliers, the proposal IoU blocks that mining slices and the pooled
RGB and depth features that the contrastive loss reads. All
randomness flows through one seeded generator whose draw order does not
depend on the toggles, so runs differing only in disabled components stay
bit-comparable.
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
from wsodkit.data import Box, ClassVocabulary, ImageRecord, extract_labels
from wsodkit.errors import ConfigError, DataError
from wsodkit.evaluate import (
    DEFAULT_NMS_THRESH,
    Detection,
    EvalReport,
    check_fraction,
    evaluate,
    format_table,
    nms_detections,
)
from wsodkit.fusion import FusionMode
from wsodkit.jsonio import as_float, as_int, as_type, read_json, write_json
from wsodkit.model import MAX_REFINE_BRANCHES, ModelDims, ModelParams
from wsodkit.numkit import SGD
from wsodkit.priors import DepthMask, FrozenPriors, depth_mask

SEED_ENV_VAR = "WSOD_SEED"
# Sanity ceilings: larger values only run for ever or exhaust memory.
MAX_EPOCHS = 10_000
MAX_PROJ_DIM = 4096
# Most proposal rows one mil_chain call stacks. Measured with fusion and
# attention (d=32, C=5, OpenBLAS on one thread of a 2-vCPU Xeon), the cost
# per image falls while a stack holds up to ~1k rows (R=20: 172 -> 61 us
# at 8 images; R=128: 291 -> 133 us at 8; R=512: 546 -> 469 us at 2) and
# rises past ~2k rows (R=2000: 1.5 ms alone, 1.9 ms at 2, 2.4 ms at 8), so
# large proposal sets go one image per call.
MIL_ROW_BUDGET = 1024

# Dotted config keys accepted in files and --set overrides.
CONFIG_ALIASES = {
    "lr": "learning_rate",
    "refine.branches": "refine_branches",
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
    init_scale: float = 0.01
    refine_branches: int = 1
    refine_iou_thresh: float = 0.5
    refine_score_ratio: float = 0.5
    attention_multiplier: float = 0.5
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
        if not 0 <= self.refine_branches <= MAX_REFINE_BRANCHES:
            raise ConfigError(f"refine_branches must be in 0..{MAX_REFINE_BRANCHES}")
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
        return {
            "mil": self.mil,
            "nce": self.nce,
            "refine": self.refine,
            "total": self.total,
        }


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
    """All records must share one feature dimension; returns it."""
    dims = {rec.rgb_features.shape[1] for rec in records}
    if len(dims) != 1:
        raise DataError(f"records disagree on feature dim: {sorted(dims)}")
    return dims.pop()


def _record_masks(
    records: Sequence[ImageRecord],
    priors: FrozenPriors | None,
    num_classes: int,
    config: RunConfig,
):
    if priors is None:
        return None
    return [
        depth_mask(rec, priors, num_classes, use_caption=config.caption_priors)
        for rec in records
    ]


def _same_r_runs(records: Sequence[ImageRecord], batch: list[int]) -> list[list[int]]:
    """Split a batch into runs of consecutive same-R images, in batch order.

    Each run is one ``mil_chain`` call and holds at most ``MIL_ROW_BUDGET``
    proposal rows, but always at least one image.
    """
    runs: list[list[int]] = []
    for idx in batch:
        r = records[idx].num_proposals
        if (
            runs
            and records[runs[-1][0]].num_proposals == r
            and (len(runs[-1]) + 1) * r <= MIL_ROW_BUDGET
        ):
            runs[-1].append(idx)
        else:
            runs.append([idx])
    return runs


def _refinement_losses(
    model: ModelParams,
    records: Sequence[ImageRecord],
    features: np.ndarray,
    sup: np.ndarray,
    labels: Sequence[set[int]],
    masks: Sequence[DepthMask | None],
    pair_ious: Sequence[np.ndarray | None],
    config: RunConfig,
    grad_scale: float,
) -> list[float]:
    """Mean loss of the refinement branches on each image of a stack.

    Every sequence argument holds one entry per image of a same-R stack of
    labelled images, in stack order: ``features`` is their (B, R, d) RGB
    stack and ``sup`` the MIL head's (B, R, C) combined scores. Each branch
    mines pseudo boxes per image from the previous stage's class scores,
    scores the stack in one ``refinement_chain`` call, and accumulates the
    gradients of ``grad_scale`` times each image's loss.
    """
    num_classes = model.dims.num_classes
    img_ref = [0.0] * len(records)
    for branch in model.refine:
        targets, weights = [], []
        for k, rec in enumerate(records):
            pseudo = refine.mine(
                rec,
                sup[k],
                labels[k],
                masks[k],
                iou_thresh=config.refine_iou_thresh,
                score_ratio=config.refine_score_ratio,
                pair_ious=pair_ious[k],
            )
            t, w = refine.assign_targets(
                rec, pseudo, num_classes, config.refine_iou_thresh, pair_ious[k]
            )
            targets.append(t)
            weights.append(w)
        losses, q = refine.refinement_chain(
            features, branch, np.stack(targets), np.stack(weights), grad_scale
        )
        img_ref = [acc + loss for acc, loss in zip(img_ref, losses)]
        sup = q[..., :num_classes]
    return [acc / len(model.refine) for acc in img_ref]


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
    masks = _record_masks(records, priors, num_classes, config)
    attention = None
    if config.depth_attention and masks is not None:
        attention = [
            refine.attention_multipliers(m, config.attention_multiplier) for m in masks
        ]
    mine_masks = masks if config.depth_oicr else [None] * len(records)

    seed = config.resolved_seed()
    rng = np.random.default_rng(seed)
    model = ModelParams.create(
        ModelDims(
            num_classes=num_classes,
            feat_dim=feat_dim,
            proj_dim=config.proj_dim,
            refine_branches=config.refine_branches,
        ),
        rng,
        init_scale=config.init_scale,
        rho_init=config.rho_init,
    )
    opt = SGD(model.params(), config.learning_rate, config.momentum)

    use_refine = config.refine_branches >= 1 and config.lambda_ref > 0.0
    pair_ious = [refine.pair_iou(rec) for rec in records] if use_refine else None
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
            for chunk in _same_r_runs(records, batch):
                stack = [records[idx] for idx in chunk]
                rgb = np.stack([rec.rgb_features for rec in stack])
                mil_losses, pack = milhead.mil_chain(
                    rgb,
                    model.rgb_head,
                    [labels[idx] for idx in chunk],
                    depth_features=(
                        np.stack([rec.depth_features for rec in stack])
                        if config.fusion
                        else None
                    ),
                    depth_head=model.depth_head if config.fusion else None,
                    attention=(
                        np.stack([attention[idx] for idx in chunk])
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
                        config.lambda_ref / (bsz * len(model.refine)),
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
) -> list[Detection]:
    """Score records and emit per-class, per-image NMS survivors.

    Detection confidence is the combined (det x cls) probability of the
    proposal; boxes are the proposals themselves. Only detections scoring
    strictly above ``min_score`` are emitted, in record, class, NMS order.
    Class-wise NMS runs on the proposal and score arrays, one call per
    chunk of records of at most ``INFER_NMS_BOXES`` candidates (a record
    with more takes a call alone), with each (record, class) as a group.
    Objects are built only for the survivors: one ``Box`` per proposal kept
    by any class, shared by every class's ``Detection`` of it.
    """
    check_fraction("nms_thresh", nms_thresh)
    check_fraction("min_score", min_score)
    model.check_against(check_features(records))
    out: list[Detection] = []
    chunk: list[tuple[ImageRecord, np.ndarray, np.ndarray, np.ndarray]] = []
    size = 0
    for rec in records:
        conf = fusion.forward(rec, model.rgb_head, model.depth_head, mode).combined[0]
        # Greedy NMS settles every candidate above the floor before any at or
        # below it, so dropping those first leaves the survivors unchanged.
        cids, rows = np.nonzero((conf > min_score).T)
        if chunk and size + rows.size > INFER_NMS_BOXES:
            _emit_survivors(chunk, model.dims.num_classes, nms_thresh, out)
            chunk, size = [], 0
        chunk.append((rec, conf, rows, cids))
        size += rows.size
    if chunk:
        _emit_survivors(chunk, model.dims.num_classes, nms_thresh, out)
    return out


def _emit_survivors(
    chunk: Sequence[tuple[ImageRecord, np.ndarray, np.ndarray, np.ndarray]],
    num_classes: int,
    nms_thresh: float,
    out: list[Detection],
) -> None:
    """NMS over a chunk's candidates in one call, then its detections.

    Each chunk entry is a record, its (R, C) scores and its candidates'
    proposal rows and class ids, class by class.
    """
    cand_boxes = [np.take(rec.proposals, rows, axis=0) for rec, _, rows, _ in chunk]
    cand_scores = [conf[rows, cids] for _, conf, rows, cids in chunk]
    groups = np.concatenate([j * num_classes + c[3] for j, c in enumerate(chunk)])
    keep = nms_detections(
        np.concatenate(cand_boxes), np.concatenate(cand_scores), nms_thresh, groups
    )
    # Survivors come record by record, class by class, in NMS order.
    ends = np.searchsorted(groups[keep] // num_classes, np.arange(len(chunk) + 1))
    starts = np.cumsum([0] + [rows.size for _, _, rows, _ in chunk])
    for j, (rec, conf, rows, cids) in enumerate(chunk):
        kept = keep[ends[j] : ends[j + 1]] - starts[j]
        kept_rows, kept_cids = rows[kept], cids[kept]
        live = np.zeros(rec.num_proposals, dtype=bool)
        live[kept_rows] = True
        # Boxes are frozen, so every class group shares one per proposal;
        # slot[i] is proposal i's place among the live ones.
        boxes = [Box(*row) for row in rec.proposals[live].tolist()]
        slot = np.cumsum(live) - 1
        out.extend(
            Detection(rec.image_id, cid, boxes[k], score)
            for cid, k, score in zip(
                kept_cids.tolist(),
                slot[kept_rows].tolist(),
                conf[kept_rows, kept_cids].tolist(),
            )
        )


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

    Mining runs exactly as the first refinement branch would see it:
    supervising scores are the MIL head's combined probabilities under the
    training fusion mode, and the depth filter applies when the config
    enables it (requires priors).
    """
    if config.depth_oicr and priors is None:
        raise ConfigError("depth-filtered mining needs frozen priors")
    labels = resolve_labels(records, vocab, config.label_source)
    num_classes = len(vocab)
    masks = _record_masks(records, priors, num_classes, config)
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
        mask = masks[idx] if (masks is not None and config.depth_oicr) else None
        pseudo = refine.mine(
            rec,
            pack.combined[0],
            labels[idx],
            mask=mask,
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

    Every row restarts from the same seed with only its toggles flipped;
    rows touching depth require priors.
    """
    result = AblationResult()
    for name, toggles in ABLATION_ROWS:
        updates = {t: False for t in TOGGLE_NAMES}
        updates.update({t: True for t in toggles})
        cfg = base.with_updates(**updates)
        if log is not None:
            log(f"[{name}] training with toggles {sorted(toggles) or ['none']}")
        _, report = train(
            cfg, records, vocab, priors=priors, eval_records=eval_records
        )
        if report.eval_report is None:
            raise DataError("ablation needs ground-truth boxes to evaluate")
        result.rows.append((name, tuple(toggles), report.eval_report))
    return result
