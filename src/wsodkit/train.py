"""Run configuration, the training loop, inference, and the ablation driver.

One optimizer step covers one batch of images: every image contributes its
MIL loss (and, when refinement branches are active, its refinement loss),
and the whole batch contributes one contrastive loss when that toggle is
on. The three terms are weighted, gradients accumulate across the batch,
and a single momentum-SGD step follows. All randomness flows through one
seeded generator whose draw order does not depend on the toggles, so runs
differing only in disabled components stay bit-comparable.
"""

from __future__ import annotations

import dataclasses
import json
import os
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from wsodkit import contrastive, fusion, milhead, refine
from wsodkit.data import ClassVocabulary, ImageRecord, extract_labels
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
from wsodkit.model import ModelDims, ModelParams
from wsodkit.numkit import SGD
from wsodkit.priors import FrozenPriors, depth_mask
from wsodkit.data import Box

SEED_ENV_VAR = "WSOD_SEED"

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
    "nce.include_positive_in_sum": "nce_include_positive_in_sum",
    "mil.sigma_on_sum": "sigma_on_sum",
    "priors.score_threshold": "score_threshold",
    "priors.min_count_word": "min_count_word",
    "priors.use_captions": "caption_priors",
}

TOGGLE_NAMES = ("siamese_nce", "fusion", "depth_oicr", "depth_attention")

ABLATION_ROWS: list[tuple[str, tuple[str, ...]]] = [
    ("baseline", ()),
    ("siamese-only", ("siamese_nce",)),
    ("fusion", ("siamese_nce", "fusion")),
    ("depth-oicr", ("siamese_nce", "depth_oicr")),
    ("depth-attention", ("siamese_nce", "depth_attention")),
    ("wsod-amplifier", TOGGLE_NAMES),
]


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
    sigma_on_sum: bool = True
    nce_include_positive_in_sum: bool = False
    label_source: str = "stored"  # stored | gt | captions
    caption_priors: bool = True
    score_threshold: float = 0.5
    min_count_word: int = 2
    nms_thresh: float = DEFAULT_NMS_THRESH
    min_score: float = 0.05
    inference_mode: str = "rgb"
    eleven_point_ap: bool = False

    def validate(self) -> None:
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        if self.epochs < 0:
            raise ConfigError("epochs must be >= 0")
        if not np.isfinite(self.learning_rate) or self.learning_rate <= 0:
            raise ConfigError("learning_rate must be positive")
        if not 0.0 <= self.momentum < 1.0:
            raise ConfigError("momentum must be in [0, 1)")
        for name in ("lambda_mil", "lambda_nce", "lambda_ref"):
            if getattr(self, name) < 0:
                raise ConfigError(f"{name} must be >= 0")
        if self.nce_batch < 1:
            raise ConfigError("nce_batch must be >= 1")
        if self.proj_dim < 1:
            raise ConfigError("proj_dim must be >= 1")
        if not 0 <= self.refine_branches <= 3:
            raise ConfigError("refine_branches must be in 0..3")
        for name in (
            "refine_iou_thresh",
            "refine_score_ratio",
            "attention_multiplier",
            "nms_thresh",
            "score_threshold",
        ):
            check_fraction(name, getattr(self, name))
        check_fraction("min_score", self.min_score, upper_open=True)
        if self.rho_init <= 0 or self.init_scale <= 0:
            raise ConfigError("rho_init and init_scale must be positive")
        if self.min_count_word < 1:
            raise ConfigError("min_count_word must be >= 1")
        if self.label_source not in ("stored", "gt", "captions"):
            raise ConfigError(
                f"label_source must be stored|gt|captions, got {self.label_source!r}"
            )
        if self.inference_mode not in ("rgb", "fused", "depth"):
            raise ConfigError(
                f"inference_mode must be rgb|fused|depth, got {self.inference_mode!r}"
            )

    def resolved_seed(self) -> int:
        """Config seed, overridden by the WSOD_SEED environment variable.

        The override must be a non-negative integer, as numpy's generators
        require; ``validate`` holds the config seed to the same rule.
        """
        raw = os.environ.get(SEED_ENV_VAR)
        if raw is None or raw == "":
            return self.seed
        try:
            seed = int(raw)
        except ValueError as e:
            raise ConfigError(f"{SEED_ENV_VAR} must be an integer, got {raw!r}") from e
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
            try:
                raw = json.loads(Path(config_path).read_text(encoding="utf-8"))
            except OSError as e:
                raise ConfigError(f"cannot read config {config_path}: {e}") from e
            except json.JSONDecodeError as e:
                raise ConfigError(f"malformed config {config_path}: {e}") from e
            if not isinstance(raw, dict):
                raise ConfigError(f"config {config_path} must be a JSON object")
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
        target = fields[name].type
        try:
            coerced = _coerce(value, target)
        except ValueError as e:
            raise ConfigError(f"bad value for {key!r}: {e}") from e
        return dataclasses.replace(self, **{name: coerced})


def _coerce(value, target_type: str):
    if target_type == "bool":
        if isinstance(value, bool):
            return value
        text = str(value).strip().lower()
        if text in ("1", "true", "on", "yes"):
            return True
        if text in ("0", "false", "off", "no"):
            return False
        raise ValueError(f"expected a boolean, got {value!r}")
    if target_type == "int":
        return int(value)
    if target_type == "float":
        return float(value)
    if target_type == "str":
        return str(value)
    raise ValueError(f"unsupported config field type {target_type}")


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
        Path(path).write_text(
            json.dumps(self.to_json(), indent=2, sort_keys=True) + "\n",
            encoding="utf-8",
        )


def resolve_labels(
    records: Sequence[ImageRecord], vocab: ClassVocabulary, source: str
) -> list[set[int]]:
    """Per-record label sets from the configured source.

    ``stored`` uses the labels carried by the records, ``gt`` derives them
    from ground-truth boxes, ``captions`` re-extracts from the captions.
    Exactly one source is ever consulted per run.
    """
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
    labels = resolve_labels(records, vocab, config.label_source)
    masks = _record_masks(records, priors, num_classes, config)

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

    use_nce = config.siamese_nce and config.lambda_nce > 0.0
    use_refine = config.refine_branches >= 1 and config.lambda_ref > 0.0
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
            batch = order[lo : lo + config.nce_batch]
            bsz = len(batch)
            pooled_rgb = []
            pooled_depth = []
            for idx in batch:
                rec = records[int(idx)]
                rec_labels = labels[int(idx)]
                mask = masks[int(idx)] if masks is not None else None
                attention = None
                if config.depth_attention and mask is not None:
                    attention = refine.attention_multipliers(
                        mask, config.attention_multiplier
                    )
                loss, pack = milhead.mil_chain(
                    rec.rgb_features,
                    model.rgb_head,
                    rec_labels,
                    depth_features=rec.depth_features if config.fusion else None,
                    depth_head=model.depth_head if config.fusion else None,
                    attention=attention,
                    sigma_on_sum=config.sigma_on_sum,
                    grad_scale=config.lambda_mil / bsz,
                )
                mil_sum += loss
                if use_refine and rec_labels:
                    sup = pack.combined
                    img_ref = 0.0
                    k_total = len(model.refine)
                    for branch in model.refine:
                        pseudo = refine.mine(
                            rec,
                            sup,
                            rec_labels,
                            mask=mask if config.depth_oicr else None,
                            iou_thresh=config.refine_iou_thresh,
                            score_ratio=config.refine_score_ratio,
                        )
                        targets, weights = refine.assign_targets(
                            rec, pseudo, num_classes, config.refine_iou_thresh
                        )
                        branch_loss, q = refine.refinement_chain(
                            rec,
                            branch,
                            targets,
                            weights,
                            grad_scale=config.lambda_ref / (bsz * k_total),
                        )
                        img_ref += branch_loss
                        sup = q[:, :num_classes]
                    ref_sum += img_ref / k_total
                if use_nce:
                    pooled_rgb.append(contrastive.pool_features(rec.rgb_features))
                    pooled_depth.append(contrastive.pool_features(rec.depth_features))
            if use_nce:
                nce_sum += contrastive.nce_chain(
                    np.stack(pooled_rgb),
                    np.stack(pooled_depth),
                    model.proj,
                    include_positive=config.nce_include_positive_in_sum,
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
            mode=FusionMode.parse(config.inference_mode),
            min_score=config.min_score,
            nms_thresh=config.nms_thresh,
            sigma_on_sum=config.sigma_on_sum,
        )
        report.eval_report = evaluate(
            dets,
            targets,
            nms_thresh=config.nms_thresh,
            eleven_point=config.eleven_point_ap,
        )
    report.wall_time_s = time.perf_counter() - start
    return model, report


def infer(
    model: ModelParams,
    records: Sequence[ImageRecord],
    mode: FusionMode = FusionMode.RGB_ONLY,
    min_score: float = 0.05,
    nms_thresh: float = DEFAULT_NMS_THRESH,
    sigma_on_sum: bool = True,
) -> list[Detection]:
    """Score records and emit per-class, per-image NMS survivors.

    Detection confidence is the combined (det x cls) probability of the
    proposal; boxes are the proposals themselves. Only detections scoring
    strictly above ``min_score`` are emitted.
    """
    check_fraction("nms_thresh", nms_thresh)
    check_fraction("min_score", min_score)
    feat_dim = check_features(records)
    model.check_against(feat_dim, model.dims.num_classes)
    out: list[Detection] = []
    for rec in records:
        pack = fusion.forward(
            rec, model.rgb_head, model.depth_head, mode, sigma_on_sum
        )
        conf = pack.combined
        # Boxes are frozen, so every class group shares one per proposal.
        boxes = [Box(*row) for row in rec.proposals.tolist()]
        for cid in range(model.dims.num_classes):
            group = [
                Detection(rec.image_id, cid, box, score)
                for box, score in zip(boxes, conf[:, cid].tolist())
            ]
            for det in nms_detections(group, nms_thresh):
                if det.score > min_score:
                    out.append(det)
    return out


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
    from wsodkit import kernels

    for idx, rec in enumerate(records):
        if not labels[idx] or not rec.gt_boxes:
            continue
        pack = fusion.forward(
            rec,
            model.rgb_head,
            model.depth_head,
            FusionMode.FUSED if config.fusion else FusionMode.RGB_ONLY,
            config.sigma_on_sum,
        )
        mask = masks[idx] if (masks is not None and config.depth_oicr) else None
        pseudo = refine.mine(
            rec,
            pack.combined,
            labels[idx],
            mask=mask,
            iou_thresh=config.refine_iou_thresh,
            score_ratio=config.refine_score_ratio,
        )
        gt_by_class: dict[int, list[np.ndarray]] = {}
        for box, cid in rec.gt_boxes:
            gt_by_class.setdefault(cid, []).append(box.as_array())
        for cid, idx_score in pseudo.by_class.items():
            gt_boxes = gt_by_class.get(cid)
            for pidx, _ in idx_score:
                total += 1
                if not gt_boxes:
                    continue
                ious = kernels.iou_matrix(
                    rec.proposals[pidx][None, :], np.stack(gt_boxes)
                )[0]
                if ious.max() >= 0.5:
                    hits += 1
    return MiningReport(total=total, hits=hits)


@dataclass
class AblationResult:
    rows: list[tuple[str, tuple[str, ...], EvalReport]] = field(default_factory=list)

    def to_json(self) -> dict:
        num = lambda v: None if isinstance(v, float) and np.isnan(v) else v
        return {
            "rows": [
                {
                    "name": name,
                    "toggles": list(toggles),
                    "map_avg": num(rep.map_avg),
                    "map50": num(rep.map50),
                    "map75": num(rep.map75),
                    "corloc_avg": num(rep.corloc_avg),
                    "corloc50": num(rep.corloc50),
                    "corloc75": num(rep.corloc75),
                    "area_avg": {b: num(v) for b, v in rep.area_avg.items()},
                }
                for name, toggles, rep in self.rows
            ]
        }

    def to_text(self) -> str:
        return format_table([(name, rep) for name, _, rep in self.rows])

    def save(self, path: str | Path) -> None:
        Path(path).write_text(
            json.dumps(self.to_json(), indent=2, sort_keys=True) + "\n",
            encoding="utf-8",
        )


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
