"""Set-up and the two-stage pipeline, with output checks and digests.

Functions of the program are always looked up on their module at call
time, so a traced run sees every call through the wrappers that
``spans.Tracer`` installs.
"""

from __future__ import annotations

import gc
import hashlib
import json
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from workloads import Inputs, Workload

TOGGLES = dict(
    siamese_nce=True,
    fusion=True,
    depth_oicr=True,
    depth_attention=True,
    inference_mode="fused",
)


def mod(name: str):
    """The wsodkit submodule itself: ``wsodkit.train`` is also a function."""
    return sys.modules[f"wsodkit.{name}"]


class StageFailure(Exception):
    """A stage raised or its output failed a check."""


def setup(inputs: Inputs):
    """Load the vocabulary, the depth-map sidecar and validated records."""
    data = mod("data")
    vocab = data.ClassVocabulary.from_file(inputs.vocab)
    maps = data.load_depth_maps(inputs.depth_maps) if inputs.depth_maps else None
    return vocab, data.load_dataset(inputs.dataset, vocab, maps)


@dataclass
class Outputs:
    models: list = field(default_factory=list)
    detections: list = field(default_factory=list)
    stats: object = None
    report: object = None


@dataclass
class Result:
    # Stage name -> (start, end) on the perf_counter clock.
    spans: dict[str, tuple[float, float]] = field(default_factory=dict)
    outputs: Outputs = field(default_factory=Outputs)


class Counter:
    """Stage calls attempted and failed across a whole run."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0


class Pipeline:
    """Runs the stages of one workload on loaded records and checks them."""

    def __init__(
        self, workload: Workload, vocab, records, work_dir: Path, counter: Counter
    ) -> None:
        self.w = workload
        self.counter = counter
        self.vocab = vocab
        self.records = records
        self.work_dir = work_dir
        self.proposal_sets = {
            rec.image_id: {tuple(row) for row in rec.proposals.tolist()}
            for rec in records
        }
        self.nms_thresh = mod("train").RunConfig().nms_thresh

    def _stage(self, res: Result, name: str, fn, check=None):
        self.counter.attempted += 1
        # Collect the previous stage's garbage outside the timed region.
        gc.collect()
        t0 = time.perf_counter()
        try:
            out = fn()
        except Exception:
            self.counter.failed += 1
            print(f"stage {name} raised:", file=sys.stderr)
            traceback.print_exc()
            raise StageFailure(name)
        res.spans[name] = (t0, time.perf_counter())
        problems = check(out) if check is not None else []
        if problems:
            self.counter.failed += 1
            for p in problems[:5]:
                print(f"stage {name} check failed: {p}", file=sys.stderr)
            raise StageFailure(name)
        return out

    def run(self, on_stage=None) -> Result:
        """All stages back to back; ``on_stage(name)`` runs before each."""
        train = mod("train")
        w = self.w
        res = Result()
        out = res.outputs
        fusion = mod("fusion").FusionMode

        def stage(name, fn, check=None):
            if on_stage is not None:
                on_stage(name)
            return self._stage(res, name, fn, check)

        def handoff(dets, tag):
            path = self.work_dir / f"dets-{tag}.jsonl"
            ev = mod("evaluate")
            stage(f"save-detections-{tag}", lambda: ev.save_detections(dets, path))
            return stage(
                f"load-detections-{tag}",
                lambda: ev.load_detections(path),
                lambda got: [] if got == dets else ["detections changed on reload"],
            )

        def train_stage(name, cfg, priors):
            model, _ = stage(
                name,
                lambda: train.train(
                    cfg, self.records, self.vocab, priors=priors, eval_records=[]
                ),
                check_trained,
            )
            out.models.append(model)
            return model

        def infer_stage(name, model, mode, min_score):
            return stage(
                name,
                lambda: train.infer(model, self.records, mode=mode, min_score=min_score),
                lambda d: self.check_detections(d, min_score),
            )

        model = train_stage("train-baseline", train.RunConfig(epochs=w.epochs), None)
        dets = infer_stage("infer-baseline", model, fusion.RGB_ONLY, w.min_score)
        if w.handoff:
            dets = handoff(dets, "baseline")
        out.detections.append(dets)
        stats, frozen, _ = stage(
            "estimate-priors",
            lambda: mod("priors").estimate_priors(
                self.records, dets, score_threshold=w.priors_threshold
            ),
            check_priors,
        )
        out.stats = stats
        full_cfg = train.RunConfig(epochs=w.epochs, **TOGGLES)
        model = train_stage("train-full", full_cfg, frozen)
        dets = infer_stage("infer-full", model, fusion.FUSED, w.min_score)
        if w.handoff:
            dets = handoff(dets, "full")
        out.detections.append(dets)
        if w.evaluate:
            out.report = stage(
                "evaluate",
                lambda: mod("evaluate").evaluate(dets, self.records),
                self.check_report,
            )
        return res

    def check_detections(self, dets, min_score: float) -> list[str]:
        """Boxes are proposals, scores in (min_score, 1], NMS holds per group."""
        problems = []
        groups: dict[tuple[str, int], list[list[float]]] = {}
        for d in dets:
            box = d.box.as_list()
            if tuple(box) not in self.proposal_sets.get(d.image_id, ()):
                problems.append(f"{d.image_id}: box {box} is not a proposal")
            if not (np.isfinite(d.score) and min_score < d.score <= 1.0):
                problems.append(f"{d.image_id}: score {d.score} out of range")
            groups.setdefault((d.image_id, d.class_id), []).append(box)
        for (iid, cid), boxes in groups.items():
            iou = pairwise_iou(np.array(boxes))
            np.fill_diagonal(iou, 0.0)
            if (iou > self.nms_thresh).any():
                problems.append(f"{iid} class {cid}: survivors overlap past NMS")
        if not dets:
            problems.append("no detections")
        return problems

    def check_report(self, report) -> list[str]:
        """Every metric is finite except area buckets holding no ground truth."""
        values = [report.map_avg, report.map50, report.map75, report.corloc_avg,
                  report.corloc50, report.corloc75]
        values += list(report.map_by_thresh.values())
        values += list(report.corloc_by_thresh.values())
        for per in report.ap.values():
            values += list(per.values())
        areas = [b.area() for rec in self.records for b, _ in rec.gt_boxes or []]
        eval_mod = mod("evaluate")
        present = {
            "small": any(a < eval_mod.AREA_SMALL_MAX for a in areas),
            "medium": any(
                eval_mod.AREA_SMALL_MAX <= a < eval_mod.AREA_MEDIUM_MAX for a in areas
            ),
            "large": any(a >= eval_mod.AREA_MEDIUM_MAX for a in areas),
        }
        values += [v for b, v in report.area_avg.items() if present[b]]
        bad = [v for v in values if not (np.isfinite(v) and 0.0 <= v <= 1.0)]
        return [f"{len(bad)} report metrics non-finite or outside [0, 1]"] if bad else []


def check_trained(result) -> list[str]:
    model, report = result
    problems = [p.name for p in model.params() if not np.isfinite(p.value).all()]
    problems = [f"parameter {n} is not finite" for n in problems]
    if not all(np.isfinite(e.total) for e in report.epochs):
        problems.append("epoch loss is not finite")
    return problems


def check_priors(result) -> list[str]:
    stats, _, coverage = result
    if coverage.accepted < 1:
        return ["no detection voted for a depth prior"]
    means = [m.mean() for m in stats.by_class.values()]
    return [] if np.isfinite(means).all() else ["prior mean is not finite"]


def pairwise_iou(b: np.ndarray) -> np.ndarray:
    """IoU of every pair of (n, 4) boxes, written apart from the program's kernels."""
    area = (b[:, 2] - b[:, 0]) * (b[:, 3] - b[:, 1])
    iw = np.clip(np.minimum(b[:, None, 2], b[None, :, 2])
                 - np.maximum(b[:, None, 0], b[None, :, 0]), 0.0, None)
    ih = np.clip(np.minimum(b[:, None, 3], b[None, :, 3])
                 - np.maximum(b[:, None, 1], b[None, :, 1]), 0.0, None)
    inter = iw * ih
    return inter / (area[:, None] + area[None, :] - inter)


def digest(outputs: Outputs, work_dir: Path) -> dict[str, str]:
    """SHA-256 of the checkpoint, detection, priors and EvalReport bytes.

    Call with tracing off: it serializes through the program's own writers.
    """
    ev = mod("evaluate")
    parts: dict[str, bytes] = {}
    path = work_dir / "digest.tmp"
    chunks = []
    for model in outputs.models:
        model.save(path)
        chunks.append(path.read_bytes())
    parts["checkpoint"] = b"".join(chunks)
    chunks = []
    for dets in outputs.detections:
        ev.save_detections(dets, path)
        chunks.append(path.read_bytes())
    parts["detections"] = b"".join(chunks)
    outputs.stats.save(path)
    parts["priors"] = path.read_bytes()
    if outputs.report is not None:
        text = json.dumps(outputs.report.to_json(), indent=2, sort_keys=True) + "\n"
        parts["eval_report"] = text.encode("utf-8")
    path.unlink()
    out = {k: hashlib.sha256(v).hexdigest()[:16] for k, v in parts.items()}
    out["all"] = hashlib.sha256("".join(out.values()).encode()).hexdigest()[:16]
    return out
