"""Weakly-supervised object detection on precomputed proposal features,
with depth-aware contrastive training, pseudo-box mining, and attention."""

from wsodkit.data import Box, ClassVocabulary, DepthMap, ImageRecord
from wsodkit.errors import (
    CheckpointError,
    ConfigError,
    DataError,
    WsodkitError,
)
from wsodkit.evaluate import Detection, Detections, EvalReport, evaluate
from wsodkit.fusion import FusionMode
from wsodkit.model import ModelDims, ModelParams
from wsodkit.priors import FrozenPriors, estimate_priors
from wsodkit.train import RunConfig, RunReport, infer, run_ablation, train

__version__ = "0.1.0"

__all__ = [
    "Box",
    "CheckpointError",
    "ClassVocabulary",
    "ConfigError",
    "DataError",
    "DepthMap",
    "Detection",
    "Detections",
    "EvalReport",
    "FrozenPriors",
    "FusionMode",
    "ImageRecord",
    "ModelDims",
    "ModelParams",
    "RunConfig",
    "RunReport",
    "WsodkitError",
    "estimate_priors",
    "evaluate",
    "infer",
    "run_ablation",
    "train",
    "__version__",
]
