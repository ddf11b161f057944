"""Late fusion of the RGB and depth scoring streams.

Each modality owns a full MIL head; fusion adds their raw detection and
classification scores elementwise before normalization. ``forward`` maps a
mode onto the streams that ``milhead.forward`` sums, RGB before depth.
Training with fusion enabled feeds the fused scores; inference defaults to
the RGB stream alone, with fused and depth-only modes available for
ablations.
"""

from __future__ import annotations

import enum

from wsodkit import milhead
from wsodkit.data import ImageRecord
from wsodkit.milhead import HeadParams, ScorePack


class FusionMode(enum.Enum):
    RGB_ONLY = "rgb"
    FUSED = "fused"
    DEPTH_ONLY = "depth"


def forward(
    record: ImageRecord,
    rgb_head: HeadParams,
    depth_head: HeadParams,
    mode: FusionMode = FusionMode.RGB_ONLY,
) -> ScorePack:
    """Score one record under the requested mode."""
    rgb = (record.rgb_features, rgb_head)
    depth = (record.depth_features, depth_head)
    if mode is FusionMode.RGB_ONLY:
        streams = [rgb]
    elif mode is FusionMode.DEPTH_ONLY:
        streams = [depth]
    else:
        streams = [rgb, depth]
    return milhead.forward(streams)
