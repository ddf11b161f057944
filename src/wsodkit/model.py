"""The full trainable parameter set and its checkpoint format.

Every run creates every parameter group (RGB head, depth head, shared
projection, refinement branches) in one fixed order from the seeded
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
    refine_branches: int = 1


@dataclass
class ModelParams:
    dims: ModelDims
    rgb_head: HeadParams
    depth_head: HeadParams
    proj: ProjectionParams
    refine: list[RefineBranch]

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
        refine = [
            RefineBranch.create(k, rng, dims.feat_dim, dims.num_classes, init_scale)
            for k in range(dims.refine_branches)
        ]
        return cls(dims=dims, rgb_head=rgb, depth_head=depth, proj=proj, refine=refine)

    def params(self) -> list[Param]:
        out = self.rgb_head.params() + self.depth_head.params() + self.proj.params()
        for branch in self.refine:
            out.extend(branch.params())
        return out

    def save(self, path: str | Path) -> None:
        numkit.save_checkpoint(self.params(), path)

    @classmethod
    def load(cls, path: str | Path) -> "ModelParams":
        values = numkit.load_checkpoint(path)

        def take(name: str) -> np.ndarray:
            if name not in values:
                raise CheckpointError(f"checkpoint {path} is missing {name!r}")
            return values.pop(name)

        def head(prefix: str) -> HeadParams:
            return HeadParams(
                w_det=Param(f"{prefix}.det.w", take(f"{prefix}.det.w")),
                b_det=Param(f"{prefix}.det.b", take(f"{prefix}.det.b")),
                w_cls=Param(f"{prefix}.cls.w", take(f"{prefix}.cls.w")),
                b_cls=Param(f"{prefix}.cls.b", take(f"{prefix}.cls.b")),
            )

        rgb = head("rgb")
        depth = head("depth")
        proj = ProjectionParams(
            w=Param("proj.w", take("proj.w")),
            b=Param("proj.b", take("proj.b")),
            rho=Param("proj.rho", take("proj.rho")),
        )
        refine = []
        k = 0
        while f"refine.{k}.w" in values:
            refine.append(
                RefineBranch(
                    w=Param(f"refine.{k}.w", take(f"refine.{k}.w")),
                    b=Param(f"refine.{k}.b", take(f"refine.{k}.b")),
                )
            )
            k += 1
        if values:
            raise CheckpointError(
                f"checkpoint {path} has unexpected entries: {sorted(values)}"
            )
        model = cls(
            dims=ModelDims(
                num_classes=rgb.num_classes,
                feat_dim=rgb.feat_dim,
                proj_dim=proj.w.value.shape[1],
                refine_branches=len(refine),
            ),
            rgb_head=rgb,
            depth_head=depth,
            proj=proj,
            refine=refine,
        )
        model.check_consistent()
        return model

    def check_consistent(self) -> None:
        d, c = self.dims.feat_dim, self.dims.num_classes
        for head in (self.rgb_head, self.depth_head):
            for w, b in ((head.w_det, head.b_det), (head.w_cls, head.b_cls)):
                if w.value.shape != (d, c) or b.value.shape != (c,):
                    raise CheckpointError(
                        f"parameter {w.name!r} has shape {w.value.shape}, "
                        f"expected ({d}, {c})"
                    )
        if self.proj.w.value.shape[0] != d or self.proj.rho.value.shape != (1,):
            raise CheckpointError("projection parameters are inconsistent")
        for branch in self.refine:
            if branch.w.value.shape != (d, c + 1) or branch.b.value.shape != (c + 1,):
                raise CheckpointError(
                    f"parameter {branch.w.name!r} has shape {branch.w.value.shape}, "
                    f"expected ({d}, {c + 1})"
                )

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
