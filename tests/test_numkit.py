"""Numeric primitives: hand oracles, gradient checks, optimizer traces,
checkpoint stability."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wsodkit import numkit
from wsodkit.errors import CheckpointError, OptimizerError, ShapeError
from wsodkit.numkit import Param

from reference import GradCheckError, grad_check


class TestAffine:
    def test_hand_value(self):
        out = numkit.affine(
            np.array([[1.0, 0.0]]), np.array([[2.0], [-1.0]]), np.array([0.5])
        )
        assert out.tolist() == [[2.5]]

    def test_identity_weights(self, rng):
        x = rng.standard_normal((4, 3))
        out = numkit.affine(x, np.eye(3), np.zeros(3))
        assert np.allclose(out, x, atol=0)

    def test_triple_loop_oracle(self, rng):
        x = rng.standard_normal((3, 4))
        w = rng.standard_normal((4, 2))
        b = rng.standard_normal(2)
        expect = np.zeros((3, 2))
        for i in range(3):
            for c in range(2):
                acc = b[c]
                for k in range(4):
                    acc += x[i, k] * w[k, c]
                expect[i, c] = acc
        assert np.allclose(numkit.affine(x, w, b), expect, atol=1e-12)

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            numkit.affine(np.zeros((2, 3)), np.zeros((4, 2)), np.zeros(2))

    def test_backward_matches_finite_difference(self, rng):
        x = rng.standard_normal((3, 4))
        w = Param("w", rng.standard_normal((4, 2)))
        b = Param("b", rng.standard_normal(2))
        g = rng.standard_normal((3, 2))

        def f():
            out = numkit.affine(x, w.value, b.value)
            gw, gb = numkit.affine_backward(x, g)
            w.grad += gw
            b.grad += gb
            return float((out * g).sum())

        assert grad_check(f, [w, b]) < 1e-8


class TestStacks:
    def test_stack_matches_each_matrix(self, rng):
        # A stack of matrices must give each one the bits it gets alone.
        x = rng.standard_normal((5, 7, 4))
        w = rng.standard_normal((4, 3))
        b = rng.standard_normal(3)
        g = rng.standard_normal((5, 7, 3))
        out = numkit.affine(x, w, b)
        dw, db = numkit.affine_backward(x, g)
        for k in range(5):
            assert np.array_equal(out[k], numkit.affine(x[k], w, b))
            dw_k, db_k = numkit.affine_backward(x[k], g[k])
            assert np.array_equal(dw[k], dw_k)
            assert np.array_equal(db[k], db_k)
        for fwd, bwd in (
            (numkit.softmax_cols, numkit.softmax_cols_backward),
            (numkit.softmax_rows, numkit.softmax_rows_backward),
        ):
            y = fwd(out)
            back = bwd(y, g)
            for k in range(5):
                assert np.array_equal(y[k], fwd(out[k]))
                assert np.array_equal(back[k], bwd(y[k], g[k]))

    def test_affine_rejects_vector_input(self):
        with pytest.raises(ShapeError):
            numkit.affine(np.zeros(3), np.zeros((3, 2)), np.zeros(2))


class TestSoftmax:
    def test_equal_values_uniform(self):
        out = numkit.softmax_cols(np.zeros((3, 2)))
        assert np.allclose(out, 1.0 / 3.0, atol=1e-15)

    def test_log2_column(self):
        out = numkit.softmax_cols(np.array([[math.log(2.0)], [0.0]]))
        assert np.allclose(out[:, 0], [2.0 / 3.0, 1.0 / 3.0], atol=1e-12)

    def test_large_values_no_overflow(self):
        out = numkit.softmax_cols(np.array([[1000.0], [1000.0]]))
        assert np.allclose(out[:, 0], [0.5, 0.5], atol=1e-15)

    def test_rows_mirror(self):
        s = np.array([[math.log(2.0), 0.0]])
        out = numkit.softmax_rows(s)
        assert np.allclose(out[0], [2.0 / 3.0, 1.0 / 3.0], atol=1e-12)
        out_rows = numkit.softmax_rows(np.zeros((2, 3)))
        assert np.allclose(out_rows, 1.0 / 3.0, atol=1e-15)
        big = numkit.softmax_rows(np.array([[1000.0, 1000.0]]))
        assert np.allclose(big[0], [0.5, 0.5], atol=1e-15)

    def test_simplex_property(self, rng):
        s = rng.standard_normal((5, 4)) * 10
        cols = numkit.softmax_cols(s)
        rows = numkit.softmax_rows(s)
        assert (cols >= 0).all() and (rows >= 0).all()
        assert np.allclose(cols.sum(axis=0), 1.0, atol=1e-12)
        assert np.allclose(rows.sum(axis=1), 1.0, atol=1e-12)

    def test_shift_invariance(self, rng):
        s = rng.standard_normal((4, 3))
        shifted = s + 7.25
        assert np.allclose(
            numkit.softmax_cols(s), numkit.softmax_cols(shifted), atol=1e-12
        )

    def test_cols_backward_finite_difference(self, rng):
        p = Param("s", rng.standard_normal((4, 3)))
        g = rng.standard_normal((4, 3))

        def f():
            y = numkit.softmax_cols(p.value)
            p.grad += numkit.softmax_cols_backward(y, g)
            return float((y * g).sum())

        assert grad_check(f, [p]) < 1e-7

    def test_rows_backward_finite_difference(self, rng):
        p = Param("s", rng.standard_normal((3, 5)))
        g = rng.standard_normal((3, 5))

        def f():
            y = numkit.softmax_rows(p.value)
            p.grad += numkit.softmax_rows_backward(y, g)
            return float((y * g).sum())

        assert grad_check(f, [p]) < 1e-7


class TestScalarHelpers:
    def test_sigmoid_values(self):
        assert numkit.sigmoid(np.array([0.0]))[0] == 0.5
        assert numkit.sigmoid(np.array([1.0]))[0] == pytest.approx(
            1.0 / (1.0 + math.exp(-1.0)), abs=1e-15
        )

    def test_sigmoid_extreme_stable(self):
        out = numkit.sigmoid(np.array([-1000.0, 1000.0]))
        assert out[0] == 0.0 and out[1] == 1.0

    def test_log_clamped_floor(self):
        v = numkit.log_clamped(np.array([0.0]))
        assert v[0] == pytest.approx(math.log(1e-7), abs=1e-12)

    def test_dlog_clamped_zero_when_clamped(self):
        d = numkit.dlog_clamped(np.array([0.0, 0.5, 1.0]))
        assert d[0] == 0.0
        assert d[1] == pytest.approx(2.0, abs=1e-12)
        assert d[2] == 0.0


class TestSGD:
    def test_single_step(self):
        p = Param("p", np.array([1.0]))
        opt = numkit.SGD([p], lr=1.0, momentum=0.0)
        p.grad[:] = 0.5
        opt.step()
        assert p.value[0] == 0.5
        assert p.grad[0] == 0.0

    def test_zero_grad_fixed_point(self):
        p = Param("p", np.array([2.0, 3.0]))
        opt = numkit.SGD([p], lr=0.1)
        opt.step()
        assert p.value.tolist() == [2.0, 3.0]

    def test_momentum_unrolled_two_steps(self):
        # v1 = -lr g; v2 = 0.9 v1 - lr g, so the second step moves by
        # -lr g (1 + 0.9).
        lr, g = 0.1, 2.0
        p = Param("p", np.array([0.0]))
        opt = numkit.SGD([p], lr=lr, momentum=0.9)
        p.grad[:] = g
        opt.step()
        first = p.value[0]
        assert first == pytest.approx(-lr * g, abs=1e-15)
        p.grad[:] = g
        opt.step()
        assert p.value[0] - first == pytest.approx(-lr * g * 1.9, abs=1e-14)

    def test_nonfinite_grad_names_param(self):
        p = Param("model.weight", np.array([1.0]))
        opt = numkit.SGD([p], lr=0.1)
        p.grad[:] = np.nan
        with pytest.raises(OptimizerError, match="model.weight"):
            opt.step()

    def test_bad_hyperparameters(self):
        p = Param("p", np.array([1.0]))
        with pytest.raises(OptimizerError):
            numkit.SGD([p], lr=0.0)
        with pytest.raises(OptimizerError):
            numkit.SGD([p], lr=0.1, momentum=1.0)

    def test_no_step_happens_if_any_grad_bad(self):
        a = Param("a", np.array([1.0]))
        b = Param("b", np.array([1.0]))
        opt = numkit.SGD([a, b], lr=0.5)
        a.grad[:] = 1.0
        b.grad[:] = np.inf
        with pytest.raises(OptimizerError):
            opt.step()
        assert a.value[0] == 1.0


class TestGradCheck:
    def test_quadratic(self):
        p = Param("theta", np.array([3.0]))

        def f():
            p.grad += 2.0 * p.value
            return float(p.value[0] ** 2)

        assert grad_check(f, [p]) < 1e-9

    def test_detects_wrong_gradient(self):
        p = Param("theta", np.array([3.0]))

        def f():
            p.grad += 4.0 * p.value  # doubled on purpose
            return float(p.value[0] ** 2)

        assert grad_check(f, [p]) == pytest.approx(0.5, abs=1e-4)

    def test_nonfinite_loss_raises(self):
        p = Param("theta", np.array([0.0]))

        def f():
            return float("nan")

        with pytest.raises(GradCheckError):
            grad_check(f, [p])

    def test_values_restored(self):
        p = Param("theta", np.array([1.5, -2.0]))

        def f():
            p.grad += 2.0 * p.value
            return float((p.value**2).sum())

        grad_check(f, [p])
        assert p.value.tolist() == [1.5, -2.0]


class TestCheckpoint:
    def test_round_trip(self, tmp_path, rng):
        params = [
            Param("a.w", rng.standard_normal((2, 3))),
            Param("a.b", rng.standard_normal(3)),
            Param("rho", np.array([0.1])),
        ]
        path = tmp_path / "ckpt.json"
        numkit.save_checkpoint(params, path)
        loaded = numkit.load_checkpoint(path)
        assert set(loaded) == {"a.w", "a.b", "rho"}
        for p in params:
            assert np.array_equal(loaded[p.name], p.value)

    def test_byte_stable(self, tmp_path, rng):
        params = [Param("w", rng.standard_normal((3, 3)) / 3.0)]
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        numkit.save_checkpoint(params, p1)
        numkit.save_checkpoint(params, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_seventeen_digit_exactness(self, tmp_path):
        v = np.array([1.0 / 3.0, math.pi, 1e-300, -0.0])
        path = tmp_path / "c.json"
        numkit.save_checkpoint([Param("v", v)], path)
        loaded = numkit.load_checkpoint(path)
        assert np.array_equal(loaded["v"], v)

    def test_malformed_raises(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        with pytest.raises(CheckpointError):
            numkit.load_checkpoint(bad)

    def test_missing_file_raises(self, tmp_path):
        with pytest.raises(CheckpointError):
            numkit.load_checkpoint(tmp_path / "absent.json")

    def test_size_mismatch_raises(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"w":{"shape":[2,2],"values":[1.0,2.0,3.0]}}')
        with pytest.raises(CheckpointError):
            numkit.load_checkpoint(bad)


@settings(max_examples=50, deadline=None)
@given(st.lists(st.floats(-30, 30), min_size=1, max_size=8))
def test_softmax_simplex_hypothesis(vals):
    col = np.array(vals)[:, None]
    out = numkit.softmax_cols(col)
    assert abs(out.sum() - 1.0) < 1e-12
    assert (out >= 0).all()
