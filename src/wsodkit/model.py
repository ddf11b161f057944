"""The full trainable parameter set and its checkpoint format.

Every run creates every parameter group (RGB head, depth head, shared
projection, refinement branch) in one fixed order from the seeded
generator, whatever the active toggles; disabled components simply never
receive gradient. That keeps runs with different toggles bit-comparable on
the parameters they share.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from wsodkit import numkit
from wsodkit.contrastive import ProjectionParams
from wsodkit.errors import CheckpointError
from wsodkit.milhead import HeadParams
from wsodkit.numkit import Param
from wsodkit.refine import RefineBranch

DEFAULT_INIT_SCALE = 0.01


@dataclass
class ModelDims:
    num_classes: int
    feat_dim: int
    proj_dim: int = 32


@dataclass
class ModelParams:
    dims: ModelDims
    rgb_head: HeadParams
    depth_head: HeadParams
    proj: ProjectionParams
    refine: RefineBranch

    @classmethod
    def create(
        cls,
        dims: ModelDims,
        rng: np.random.Generator,
        init_scale: float = DEFAULT_INIT_SCALE,
        rho_init: float = 0.1,
    ) -> "ModelParams":
        # Creation order fixes the RNG draw order; keep it stable.
        rgb = HeadParams.create("rgb", rng, dims.feat_dim, dims.num_classes, init_scale)
        depth = HeadParams.create(
            "depth", rng, dims.feat_dim, dims.num_classes, init_scale
        )
        proj = ProjectionParams.create(
            rng, dims.feat_dim, dims.proj_dim, init_scale, rho_init
        )
        refine = RefineBranch.create(rng, dims.feat_dim, dims.num_classes, init_scale)
        return cls(dims=dims, rgb_head=rgb, depth_head=depth, proj=proj, refine=refine)

    def params(self) -> list[Param]:
        out = self.rgb_head.params() + self.depth_head.params() + self.proj.params()
        return out + self.refine.params()

    def save(self, path: str | Path) -> None:
        numkit.save_checkpoint(self.params(), path)

    @classmethod
    def load(cls, path: str | Path) -> "ModelParams":
        """Read a checkpoint back through the layout that ``create`` defines.

        The dims come from the file. Every parameter of a model created with
        them must be there with the same shape, and nothing else may be.
        """
        values = numkit.load_checkpoint(path)
        # The drawn values only fix the layout; the file's values replace them.
        model = cls.create(_stated_dims(values, path), np.random.default_rng(0))
        for p in model.params():
            if p.name not in values:
                raise CheckpointError(f"checkpoint {path} is missing {p.name!r}")
            value = values.pop(p.name)
            if value.shape != p.value.shape:
                raise _shape_error(path, p.name, value.shape, p.value.shape)
            p.value[...] = value
        if values:
            raise CheckpointError(
                f"checkpoint {path} has unexpected entries: {sorted(values)}"
            )
        return model

    def check_against(self, feat_dim: int, num_classes: int | None = None) -> None:
        """Fail when a dataset, or a vocabulary if given, disagrees with the
        checkpoint."""
        if self.dims.feat_dim != feat_dim:
            raise CheckpointError(
                f"checkpoint feature dim {self.dims.feat_dim} does not match "
                f"dataset feature dim {feat_dim}"
            )
        if num_classes is not None and self.dims.num_classes != num_classes:
            raise CheckpointError(
                f"checkpoint has {self.dims.num_classes} classes but the "
                f"vocabulary has {num_classes}"
            )


def _shape_error(path, name: str, shape: tuple, expected) -> CheckpointError:
    return CheckpointError(
        f"checkpoint {path}: entry {name!r} has shape {shape}, expected {expected}"
    )


def _stated_dims(values: dict[str, np.ndarray], path) -> ModelDims:
    """The dims that ``rgb.det.w`` and ``proj.w`` state.

    Dims no file of this size could hold, or that the two matrices disagree
    on, are refused before a model is allocated from them, so a short file
    cannot ask for gigabytes.
    """
    shapes = []
    for name in ("rgb.det.w", "proj.w"):
        if name not in values:
            raise CheckpointError(f"checkpoint {path} is missing {name!r}")
        shapes.append(values[name].shape)
        if len(shapes[-1]) != 2:
            raise _shape_error(path, name, shapes[-1], "a 2-D shape")
    (feat_dim, num_classes), (proj_rows, proj_dim) = shapes
    if proj_rows != feat_dim:
        raise _shape_error(path, "proj.w", shapes[1], (feat_dim, proj_dim))
    size = sum(v.size for v in values.values())
    if max(feat_dim, num_classes, proj_dim) > size:
        raise CheckpointError(
            f"checkpoint {path} states a dim above the {size} values it holds"
        )
    return ModelDims(num_classes=num_classes, feat_dim=feat_dim, proj_dim=proj_dim)
