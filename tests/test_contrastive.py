"""Contrastive projection and symmetric NCE loss, checked through ``nce_chain``."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wsodkit import contrastive
from wsodkit.contrastive import (
    RHO_MAX,
    RHO_MIN,
    ProjectionParams,
    nce_chain,
    pool_features,
)
from wsodkit.errors import ShapeError
from wsodkit.numkit import Param

from reference import grad_check, nce_loss


def unit_rows(rng, n, d):
    m = rng.standard_normal((n, d))
    return m / np.linalg.norm(m, axis=1, keepdims=True)


def make_proj(rng, feat_dim=4, proj_dim=3, scale=0.5, rho_init=0.1):
    return ProjectionParams.create(rng, feat_dim, proj_dim, scale, rho_init)


def identity_chain(rgb, depth, rho):
    """``nce_chain`` loss through an identity projection with zero bias.

    The projection then only normalizes the rows, so for unit rows this is
    the loss of the given embeddings.
    """
    d = rgb.shape[-1]
    proj = ProjectionParams(
        Param("w", np.eye(d)), Param("b", np.zeros(d)), Param("rho", np.array([rho]))
    )
    return nce_chain(rgb, depth, proj)


# Rows +v and -v for v = (0.6, 0.8): positives at 1/rho, cross pairs at
# -1/rho, so at rho = 0.5 each anchor costs log(1 + e^-4).
V = np.array([[0.6, 0.8], [-0.6, -0.8]])


class TestPoolProject:
    def test_pool_is_row_mean(self):
        pooled = pool_features(np.array([[1.0, 2.0], [3.0, 4.0]]))
        assert pooled.tolist() == [2.0, 3.0]

    def test_pool_rejects_empty_and_1d(self):
        with pytest.raises(ShapeError):
            pool_features(np.empty((0, 4)))
        with pytest.raises(ShapeError):
            pool_features(np.ones(4))

    def test_project_three_four_five(self):
        got = identity_chain(5.0 * V, 5.0 * V, 0.5)
        assert got == pytest.approx(identity_chain(V, V, 0.5), abs=1e-12)
        assert got == pytest.approx(math.log1p(math.exp(-4.0)), abs=1e-12)

    def test_project_rows_unit_norm(self, rng):
        # Zero bias: rescaling a pooled row rescales its projection, which
        # the row normalization removes again.
        proj = make_proj(rng, feat_dim=5, proj_dim=3)
        r, d = rng.standard_normal((4, 5)), rng.standard_normal((4, 5))
        scale = rng.uniform(0.1, 10.0, (4, 1))
        got = nce_chain(r * scale, d / scale, proj)
        assert got == pytest.approx(nce_chain(r, d, proj), abs=1e-12)

    def test_project_zero_norm_embeds_as_zero(self, rng):
        # Every projection is zero, so every similarity is 0 and each
        # anchor's loss is log 2; the gradient is exactly zero.
        proj = make_proj(rng, feat_dim=2, proj_dim=2)
        proj.w.value[:] = 0.0
        proj.b.value[:] = 0.0
        loss = nce_chain(np.ones((2, 2)), np.ones((2, 2)), proj, grad_scale=1.0)
        assert loss == pytest.approx(math.log(2.0), abs=1e-15)
        assert not any(p.grad.any() for p in proj.params())


class TestSimilarity:
    def test_unit_dot_over_rho(self):
        got = identity_chain(V, V.copy(), 0.5)
        assert got == pytest.approx(math.log1p(math.exp(-4.0)), abs=1e-12)

    def test_orthogonal_is_zero(self):
        # Orthogonal positives score 0 against cross pairs at 1/rho = 10.
        got = identity_chain(np.eye(2), np.eye(2)[::-1].copy(), 0.1)
        assert got == pytest.approx(math.log1p(math.exp(10.0)), abs=1e-12)

    def test_vector_shape_enforced(self):
        with pytest.raises(ShapeError):
            identity_chain(np.ones(2), np.ones(2), 1.0)


class TestNceLoss:
    def test_single_pair_standard_zero(self):
        one = np.array([[1.0, 0.0]])
        assert identity_chain(one, one.copy(), 0.1) == pytest.approx(0.0, abs=1e-12)

    def test_all_equal_embeddings_log2(self):
        e = np.array([[1.0, 0.0], [1.0, 0.0]])
        assert identity_chain(e, e.copy(), 0.3) == pytest.approx(
            math.log(2.0), abs=1e-12
        )

    def test_identity_similarity_oracle(self):
        # Positive pairs at similarity 1/rho with rho=1, cross pairs at 0:
        # each anchor contributes log(1 + e^-1).
        got = identity_chain(np.eye(2), np.eye(2), 1.0)
        assert got == pytest.approx(math.log(1.0 + math.exp(-1.0)), abs=1e-12)
        assert got == pytest.approx(0.31326168751822286, abs=1e-12)

    def test_literal_two_direction_oracle(self, rng):
        rgb, depth = unit_rows(rng, 3, 4), unit_rows(rng, 3, 4)
        rho = 0.25
        s = (rgb @ depth.T) / rho
        per_anchor = []
        for mat in (s, s.T):
            for i in range(3):
                per_anchor.append(
                    math.log(np.exp(mat[i]).sum()) - mat[i, i]
                )
        oracle = 0.5 * (np.mean(per_anchor[:3]) + np.mean(per_anchor[3:]))
        assert identity_chain(rgb, depth, rho) == pytest.approx(oracle, abs=1e-10)

    def test_swap_symmetry(self, rng):
        rgb, depth = unit_rows(rng, 4, 3), unit_rows(rng, 4, 3)
        assert identity_chain(rgb, depth, 0.2) == pytest.approx(
            identity_chain(depth, rgb, 0.2), abs=1e-12
        )

    def test_zero_row_embeds_as_zero(self):
        # A zero row has no unit direction; it embeds as zero, so its
        # similarities are 0. At rho = 1 the first anchor of each direction
        # costs log(1 + e^-1) and the second log 2.
        got = identity_chain(np.eye(2), np.array([[1.0, 0.0], [0.0, 0.0]]), 1.0)
        want = 0.5 * (math.log1p(math.exp(-1.0)) + math.log(2.0))
        assert got == pytest.approx(want, abs=1e-12)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ShapeError):
            identity_chain(np.eye(2), np.eye(3), 1.0)

    @given(st.integers(1, 5), st.integers(0, 2**32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_standard_loss_nonnegative(self, n, seed):
        r = np.random.default_rng(seed)
        rgb, depth = unit_rows(r, n, 4), unit_rows(r, n, 4)
        assert identity_chain(rgb, depth, 0.1) >= -1e-12


class TestNceChain:
    def test_matches_loss_on_projected_batch(self, rng):
        for batch_size in (1, 3):
            proj = make_proj(rng, feat_dim=6, proj_dim=4)
            pooled_r = rng.standard_normal((batch_size, 6))
            pooled_d = rng.standard_normal((batch_size, 6))
            got = nce_chain(pooled_r, pooled_d, proj)
            want = nce_loss(pooled_r, pooled_d, proj)
            assert got == pytest.approx(want, abs=1e-12)

    @pytest.mark.parametrize("batch_size", [1, 2, 4])
    def test_gradients_finite_difference(self, rng, batch_size):
        proj = make_proj(rng, feat_dim=5, proj_dim=3, rho_init=0.37)
        pooled_r = rng.standard_normal((batch_size, 5))
        pooled_d = rng.standard_normal((batch_size, 5))

        def f():
            return nce_chain(pooled_r, pooled_d, proj, grad_scale=1.0)

        assert grad_check(f, proj.params()) < 1e-6

    def test_gradients_finite_difference_below_norm_floor(self, rng, monkeypatch):
        # With the floor raised above some rows' norms, those rows divide
        # by the floor, a constant, and the rest normalize as usual; the
        # differences stay on one side of the floor.
        monkeypatch.setattr(contrastive, "NORM_EPS", 1.0)
        proj = make_proj(rng, feat_dim=4, proj_dim=3, scale=0.4, rho_init=0.37)
        pooled_r = rng.standard_normal((4, 4)) * np.array([[0.2], [3.0], [0.1], [2.0]])
        pooled_d = rng.standard_normal((4, 4)) * np.array([[3.0], [0.2], [2.0], [0.1]])
        norms = np.linalg.norm(np.vstack((pooled_r, pooled_d)) @ proj.w.value, axis=1)
        assert (norms < 0.9).any() and (norms > 1.1).any()
        assert (abs(norms - 1.0) > 0.01).all()

        def f():
            return nce_chain(pooled_r, pooled_d, proj, grad_scale=1.0)

        assert grad_check(f, proj.params()) < 1e-6

    def test_grad_scale_zero_accumulates_nothing(self, rng):
        proj = make_proj(rng)
        for p in proj.params():
            p.grad[...] = 0.0
        nce_chain(rng.standard_normal((2, 4)), rng.standard_normal((2, 4)), proj)
        assert all(not p.grad.any() for p in proj.params())

    def test_shape_mismatch(self, rng):
        proj = make_proj(rng)
        with pytest.raises(ShapeError):
            nce_chain(np.ones((2, 4)), np.ones((3, 4)), proj)


class TestRho:
    def test_clamp_bounds(self, rng):
        proj = make_proj(rng)
        proj.rho.value[:] = 5.0
        proj.clamp_rho()
        assert proj.rho.value[0] == RHO_MAX
        proj.rho.value[:] = 1e-6
        proj.clamp_rho()
        assert proj.rho.value[0] == RHO_MIN

    def test_clamp_leaves_interior_alone(self, rng):
        proj = make_proj(rng, rho_init=0.42)
        proj.clamp_rho()
        assert proj.rho.value[0] == pytest.approx(0.42, abs=0)
