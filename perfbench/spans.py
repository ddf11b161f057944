"""Spans recorded from outside the program, around its public functions.

``Tracer.install`` replaces each target function with a timing wrapper in
every ``wsodkit`` module namespace that binds it, because several modules
import functions by name (``wsodkit.train`` holds its own ``evaluate``,
``nms_detections`` and ``depth_mask``). Each call records a span: name,
start, end, parent span and run id, where the run id is the set-up or
pipeline stage the call happened in. Spans stay in memory and are reduced
to per-layer metrics once the run ends.
"""

from __future__ import annotations

import functools
import sys
import time
from dataclasses import dataclass

import numpy as np


def _arg(args, kwargs, pos: int, name: str, default=None):
    if name in kwargs:
        return kwargs[name]
    return args[pos] if len(args) > pos else default


def _mine_fallback(args, kwargs, result):
    # Mining falls back to all proposals when the mask empties a label's pool.
    mask = _arg(args, kwargs, 3, "mask")
    labels = _arg(args, kwargs, 2, "labels")
    empty = mask is not None and any(not mask.column(c).any() for c in labels)
    return {"fallback": int(empty)}


def _infer_counts(args, kwargs, result):
    model, records = args[0], _arg(args, kwargs, 1, "records")
    built = sum(rec.num_proposals for rec in records) * model.dims.num_classes
    return {"emitted": len(result), "candidates": built}


def _priors_counts(args, kwargs, result):
    coverage = result[2]
    return {
        "accepted": coverage.accepted,
        "skipped": coverage.skipped,
        "predictions": len(_arg(args, kwargs, 1, "predictions")),
    }


@dataclass(frozen=True)
class Target:
    module: str
    attr: str
    # Percentile reported beside p50 when every workload that runs the
    # function makes enough calls for ten to lie beyond it; None for none.
    pct: float | None = None
    counter: object = None
    # Workloads that must record at least one call; None means all.
    runs_on: tuple[str, ...] | None = None

    @property
    def name(self) -> str:
        return f"{self.module}.{self.attr}"


SIDECAR = ("large-proposals",)
EVALUATED = ("stock-ladder", "dense-eval")

TARGETS = (
    Target("data", "load_dataset"),
    Target("data", "record_from_json"),
    Target("data", "load_depth_maps", runs_on=SIDECAR),
    Target("data", "proposal_depths", runs_on=SIDECAR),
    Target("kernels", "iou_matrix", 95,
           lambda a, k, r: {"pairs": len(a[0]) * len(a[1])}),
    Target("kernels", "nms", 95, lambda a, k, r: {"boxes": len(a[0])}),
    Target("kernels", "box_mean_pool", None,
           lambda a, k, r: {"boxes": len(a[1])}, runs_on=SIDECAR),
    Target("milhead", "mil_chain", 95),
    Target("numkit", "affine_backward", 99),
    Target("numkit", "SGD.step", 75),
    Target("contrastive", "pool_features", 95),
    Target("contrastive", "nce_chain"),
    Target("refine", "mine", 95, _mine_fallback),
    Target("refine", "assign_targets", 95),
    Target("refine", "refinement_chain", 95),
    Target("refine", "attention_multipliers", 95),
    Target("fusion", "forward", 75),
    Target("train", "infer", None, _infer_counts),
    Target("train", "train"),
    Target("evaluate", "evaluate", runs_on=EVALUATED),
    Target("evaluate", "nms_detections", 95,
           lambda a, k, r: {"inputs": len(a[0]), "kept": len(r)}),
    Target("evaluate", "average_precision", 90, runs_on=EVALUATED),
    Target("evaluate", "corloc", 75, runs_on=EVALUATED),
    Target("evaluate", "save_detections", runs_on=("dense-eval",)),
    Target("evaluate", "load_detections", runs_on=("dense-eval",)),
    Target("priors", "depth_mask"),
    Target("priors", "estimate_priors", None, _priors_counts),
)

# Ratios and sums reported per target: metric suffix -> (numerator, denominator).
DERIVED = {
    "kernels.iou_matrix": {"pairs": ("pairs", None)},
    "kernels.nms": {"boxes": ("boxes", None)},
    "kernels.box_mean_pool": {"boxes": ("boxes", None)},
    "refine.mine": {"fallback_frac": ("fallback", "calls")},
    "train.infer": {"emit_frac": ("emitted", "candidates")},
    "evaluate.nms_detections": {"kept_frac": ("kept", "inputs")},
    "priors.estimate_priors": {
        "accept_frac": ("accepted", "predictions"),
        "skipped": ("skipped", None),
    },
}


def _pct_name(pct: float) -> str:
    return f"p{pct:g}".replace(".", "_") + "_us"


def metric_names() -> list[str]:
    """Every per-layer metric a traced run reports, in output order."""
    names = []
    for t in TARGETS:
        names += [f"{t.name}.calls", f"{t.name}.self_s", f"{t.name}.total_s"]
        if t.pct is not None:
            names += [f"{t.name}.p50_us", f"{t.name}.{_pct_name(t.pct)}"]
        names += [f"{t.name}.{s}" for s in DERIVED.get(t.name, {})]
    return names + ["trace.overhead_frac", "trace.coverage_frac"]


class Tracer:
    def __init__(self) -> None:
        # (name, start, end, parent span id or -1, run id); self times apart.
        self.spans: list[tuple[str, float, float, int, str]] = []
        self.self_s: list[float] = []
        self.counts: dict[str, dict[str, int]] = {t.name: {} for t in TARGETS}
        self.run_id = ""
        self._stack: list[list] = []
        self._restore: list[tuple[object, str, object]] = []

    def _wrap(self, target: Target, fn):
        name = target.name
        spans, self_s, stack = self.spans, self.self_s, self._stack
        counts = self.counts[name]
        counter = target.counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span_id = len(spans)
            spans.append(None)
            self_s.append(0.0)
            frame = [span_id, 0.0]
            parent = stack[-1] if stack else None
            stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                dur = end - start
                if parent is not None:
                    parent[1] += dur
                spans[span_id] = (
                    name, start, end, parent[0] if parent else -1, self.run_id
                )
                self_s[span_id] = dur - frame[1]
            if counter is not None:
                for key, v in counter(args, kwargs, result).items():
                    counts[key] = counts.get(key, 0) + v
            return result

        return wrapper

    def install(self) -> None:
        modules = [m for n, m in sys.modules.items()
                   if n == "wsodkit" or n.startswith("wsodkit.")]
        for t in TARGETS:
            home = sys.modules[f"wsodkit.{t.module}"]
            if "." in t.attr:
                cls_name, meth = t.attr.split(".")
                cls = getattr(home, cls_name)
                original = cls.__dict__[meth]
                self._restore.append((cls, meth, original))
                setattr(cls, meth, self._wrap(t, original))
                continue
            original = getattr(home, t.attr)
            wrapper = self._wrap(t, original)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is original:
                        self._restore.append((m, key, original))
                        setattr(m, key, wrapper)

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._restore):
            setattr(owner, key, original)
        self._restore.clear()

    def per_layer(self, workload: str) -> tuple[dict[str, float], list[str]]:
        """Per-layer metrics and the targets that missed expected calls."""
        by_name: dict[str, list[int]] = {t.name: [] for t in TARGETS}
        for i, span in enumerate(self.spans):
            by_name[span[0]].append(i)
        metrics: dict[str, float] = {}
        missing = []
        for t in TARGETS:
            ids = by_name[t.name]
            if not ids and (t.runs_on is None or workload in t.runs_on):
                missing.append(t.name)
            durs = np.array([self.spans[i][2] - self.spans[i][1] for i in ids])
            metrics[f"{t.name}.calls"] = len(ids)
            metrics[f"{t.name}.self_s"] = float(sum(self.self_s[i] for i in ids))
            metrics[f"{t.name}.total_s"] = float(durs.sum()) if ids else 0.0
            if t.pct is not None:
                for p, key in ((50, "p50_us"), (t.pct, _pct_name(t.pct))):
                    value = np.percentile(durs, p) * 1e6 if ids else 0.0
                    metrics[f"{t.name}.{key}"] = float(value)
            counts = dict(self.counts[t.name], calls=len(ids))
            for suffix, (num, den) in DERIVED.get(t.name, {}).items():
                value = counts.get(num, 0)
                if den is not None:
                    value = value / counts[den] if counts.get(den) else 0.0
                metrics[f"{t.name}.{suffix}"] = value
        return metrics, missing

    def layer_shares(self, stage_runs: set[str], wall_s: float) -> dict[str, float]:
        """Share of the pipeline's wall time each layer spends in itself.

        A layer is a module, except that the train loop (``train.train``)
        and inference (``train.infer``) count apart.
        """
        shares: dict[str, float] = {}
        for span, own in zip(self.spans, self.self_s):
            if span[4] in stage_runs:
                name = span[0]
                layer = name if name.startswith("train.") else name.split(".")[0]
                shares[layer] = shares.get(layer, 0.0) + own / wall_s
        return dict(sorted(shares.items(), key=lambda kv: -kv[1]))

    def coverage(self, stage_runs: set[str], wall_s: float) -> float:
        """Time inside outermost spans over the stages' wall time."""
        covered = sum(
            s[2] - s[1] for s in self.spans if s[3] == -1 and s[4] in stage_runs
        )
        return covered / wall_s
