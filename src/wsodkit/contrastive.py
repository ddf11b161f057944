"""Cross-modal contrastive alignment of pooled RGB and depth features.

Both modalities pass through one shared affine projection (Siamese weights),
are L2-normalized, and compared by temperature-scaled dot products. The loss
is symmetric noise-contrastive estimation over a batch of images: each RGB
image must identify its paired depth image among the batch's depth images,
and vice versa, averaged over both directions.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from wsodkit import numkit
from wsodkit.errors import ShapeError, WsodkitError
from wsodkit.numkit import Param

RHO_MIN = 0.01
RHO_MAX = 1.0
NORM_EPS = 1e-12


@dataclass
class ProjectionParams:
    """Shared projection weights plus the similarity temperature."""

    w: Param
    b: Param
    rho: Param

    @classmethod
    def create(
        cls,
        rng: np.random.Generator,
        feat_dim: int,
        proj_dim: int,
        scale: float,
        rho_init: float = 0.1,
    ) -> "ProjectionParams":
        return cls(
            w=Param("proj.w", rng.normal(0.0, scale, (feat_dim, proj_dim))),
            b=Param("proj.b", np.zeros(proj_dim)),
            rho=Param("proj.rho", np.array([rho_init])),
        )

    def params(self) -> list[Param]:
        return [self.w, self.b, self.rho]

    def clamp_rho(self) -> None:
        """Keep the temperature inside [RHO_MIN, RHO_MAX]; call after each step."""
        np.clip(self.rho.value, RHO_MIN, RHO_MAX, out=self.rho.value)


def pool_features(features: np.ndarray) -> np.ndarray:
    """Image-level feature: mean over the proposal rows."""
    if features.ndim != 2 or features.shape[0] < 1:
        raise ShapeError("features must be a nonempty (R, d) matrix")
    return features.mean(axis=0)


def _direction(s: np.ndarray, include_positive: bool) -> tuple[float, np.ndarray]:
    """Loss of one direction and its gradient with respect to ``s``.

    Rows of ``s`` are anchors and the diagonal holds the positive pairs;
    the loss is ``mean_i [log denom_i - s_ii]``.
    """
    n = s.shape[0]
    m = s.max(axis=1, keepdims=True)
    e = np.exp(s - m)
    z = e.sum(axis=1, keepdims=True)
    if include_positive:
        diag_e = np.exp(np.diag(s) - m[:, 0])
        z = z + diag_e[:, None]
    loss = float((m[:, 0] + np.log(z[:, 0]) - np.diag(s)).mean())
    g = e / z
    if include_positive:
        g[np.arange(n), np.arange(n)] += diag_e / z[:, 0] - 1.0
    else:
        g[np.arange(n), np.arange(n)] -= 1.0
    return loss, g / n


def nce_chain(
    pooled_rgb: np.ndarray,
    pooled_depth: np.ndarray,
    proj: ProjectionParams,
    include_positive: bool = False,
    grad_scale: float = 0.0,
) -> float:
    """Forward and backward through projection, normalization, and the loss.

    ``pooled_rgb`` and ``pooled_depth`` are (B, d) image-level features.
    Each pair's positive similarity is contrasted against that anchor's
    similarities to the other modality's batch entries, and both directions
    are averaged; with a single pair and the standard denominator the loss
    is exactly zero. ``include_positive`` switches to the variant whose
    denominator counts the positive pair twice.
    With ``grad_scale`` nonzero, gradients of ``grad_scale * loss`` are
    accumulated into the projection parameters (weights, bias, temperature).
    """
    if pooled_rgb.shape != pooled_depth.shape or pooled_rgb.ndim != 2:
        raise ShapeError("pooled feature batches must share shape (B, d)")
    rho = float(proj.rho.value[0])
    z_r = numkit.affine(pooled_rgb, proj.w.value, proj.b.value)
    z_d = numkit.affine(pooled_depth, proj.w.value, proj.b.value)
    n_r = np.linalg.norm(z_r, axis=1, keepdims=True)
    n_d = np.linalg.norm(z_d, axis=1, keepdims=True)
    if (n_r < NORM_EPS).any() or (n_d < NORM_EPS).any():
        raise WsodkitError("projected feature has near-zero norm")
    e_r = z_r / n_r
    e_d = z_d / n_d
    dot = e_r @ e_d.T
    s = dot / rho
    loss_r, g_r = _direction(s, include_positive)
    loss_d, g_d = _direction(s.T, include_positive)
    loss = 0.5 * (loss_r + loss_d)

    if grad_scale != 0.0:
        g_s = 0.5 * (g_r + g_d.T)
        g_dot = g_s / rho
        g_rho = -float((g_s * s).sum()) / rho
        g_er = g_dot @ e_d
        g_ed = g_dot.T @ e_r
        # Through row normalization: project out the radial component.
        g_zr = (g_er - (g_er * e_r).sum(axis=1, keepdims=True) * e_r) / n_r
        g_zd = (g_ed - (g_ed * e_d).sum(axis=1, keepdims=True) * e_d) / n_d
        sc = grad_scale
        proj.w.grad += sc * (pooled_rgb.T @ g_zr + pooled_depth.T @ g_zd)
        proj.b.grad += sc * (g_zr.sum(axis=0) + g_zd.sum(axis=0))
        proj.rho.grad += sc * g_rho
    return float(loss)
