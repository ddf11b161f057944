"""Cross-modal contrastive alignment of pooled RGB and depth features.

Both modalities pass through one shared affine projection (Siamese weights),
are L2-normalized, and compared by temperature-scaled dot products. The
normalization divides by ``max(norm, NORM_EPS)``, so it is total: a
projection of zero norm, such as a zero pooled row's before the bias
first moves, embeds as zero instead of stopping the run. The loss
is symmetric noise-contrastive estimation over a batch of images: each RGB
image must identify its paired depth image among the batch's depth images,
and vice versa, averaged over both directions.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from wsodkit import numkit
from wsodkit.errors import ShapeError
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
        self.rho.value.clip(RHO_MIN, RHO_MAX, out=self.rho.value)


def pool_features(features: np.ndarray) -> np.ndarray:
    """Image-level feature: mean over the proposal rows."""
    if features.ndim != 2 or features.shape[0] < 1:
        raise ShapeError("features must be a nonempty (R, d) matrix")
    return features.mean(axis=0)


def _direction(s: np.ndarray, eye: np.ndarray) -> tuple[float, np.ndarray]:
    """Loss of one direction and its gradient with respect to ``s``.

    Rows of ``s`` are anchors and the diagonal holds the positive pairs;
    the loss is ``mean_i [log sum_j exp(s_ij) - s_ii]``. ``eye`` is the
    identity of ``s``'s size: subtracting it takes 1 from the diagonal and
    leaves every other entry's bits as they are.
    """
    n = s.shape[0]
    m = np.maximum.reduce(s, axis=1, keepdims=True)
    e = np.exp(s - m)
    z = np.add.reduce(e, axis=1, keepdims=True)
    loss = float(np.add.reduce(m[:, 0] + np.log(z[:, 0]) - s.diagonal()) / n)
    g = e / z
    g -= eye
    return loss, g / n


def nce_chain(
    pooled_rgb: np.ndarray,
    pooled_depth: np.ndarray,
    proj: ProjectionParams,
    grad_scale: float = 0.0,
) -> float:
    """Forward and backward through projection, normalization, and the loss.

    ``pooled_rgb`` and ``pooled_depth`` are (B, d) image-level features.
    Each pair's positive similarity is contrasted against that anchor's
    similarities to the other modality's batch entries, and both directions
    are averaged; with a single pair the loss is exactly zero.
    With ``grad_scale`` nonzero, gradients of ``grad_scale * loss`` are
    accumulated into the projection parameters (weights, bias, temperature).
    """
    if pooled_rgb.shape != pooled_depth.shape or pooled_rgb.ndim != 2:
        raise ShapeError("pooled feature batches must share shape (B, d)")
    rho = float(proj.rho.value[0])
    z_r = numkit.affine(pooled_rgb, proj.w.value, proj.b.value)
    z_d = numkit.affine(pooled_depth, proj.w.value, proj.b.value)
    norm_r = np.sqrt(np.add.reduce(z_r * z_r, axis=1, keepdims=True))
    norm_d = np.sqrt(np.add.reduce(z_d * z_d, axis=1, keepdims=True))
    n_r = np.maximum(norm_r, NORM_EPS)
    n_d = np.maximum(norm_d, NORM_EPS)
    e_r = z_r / n_r
    e_d = z_d / n_d
    dot = e_r @ e_d.T
    s = dot / rho
    eye = np.eye(len(s))
    loss_r, g_r = _direction(s, eye)
    loss_d, g_d = _direction(s.T, eye)
    loss = 0.5 * (loss_r + loss_d)

    if grad_scale != 0.0:
        g_s = 0.5 * (g_r + g_d.T)
        g_dot = g_s / rho
        g_rho = -float(np.add.reduce(g_s * s, axis=None)) / rho
        g_er = g_dot @ e_d
        g_ed = g_dot.T @ e_r
        g_zr = _normalize_backward(g_er, e_r, norm_r, n_r)
        g_zd = _normalize_backward(g_ed, e_d, norm_d, n_d)
        sc = grad_scale
        proj.w.grad += sc * (pooled_rgb.T @ g_zr + pooled_depth.T @ g_zd)
        proj.b.grad += sc * (np.add.reduce(g_zr, axis=0) + np.add.reduce(g_zd, axis=0))
        proj.rho.grad += sc * g_rho
    return float(loss)


def _normalize_backward(
    g: np.ndarray, e: np.ndarray, norm: np.ndarray, n: np.ndarray
) -> np.ndarray:
    """Gradient through ``e = z / n``, ``n = max(norm, NORM_EPS)``, per row.

    ``norm`` holds the rows' norms, (B, 1), as ``np.linalg.norm`` computes
    them. Where the norm reaches the floor, the radial component of ``g``
    is projected out; below it ``n`` is a constant, so the gradient is
    ``g / n``.
    """
    radial = np.add.reduce(g * e, axis=1, keepdims=True)
    radial *= norm >= NORM_EPS
    return (g - radial * e) / n
