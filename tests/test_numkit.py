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

from reference import (
    GradCheckError,
    add_in_order_scatter,
    grad_check,
    sgd_step_loop,
    sigmoid_two_branch,
    softmax_cols_formula,
    softmax_rows_formula,
)


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


# Score entries the softmaxes treat specially: signed zeros, the largest
# and smallest magnitudes, infinities and NaN.
SCORE_SPECIALS = [
    0.0, -0.0, 1.7e308, -1.7e308, 5e-324, -5e-324, math.inf, -math.inf, math.nan
]


@st.composite
def score_stacks(draw):
    """(B, R, C) score stacks, C = 1 to 11, from one drawn seed.

    Entries are normal draws at scales 1e-300 to 1e300, about a fifth of
    them replaced by ``SCORE_SPECIALS``; some entries copy another of their
    row (ties) and some rows are all NaN.
    """
    b, r = draw(st.integers(1, 3)), draw(st.integers(1, 6))
    c = draw(st.sampled_from([1, 2, 3, 5, 8, 11]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    x = rng.standard_normal((b, r, c)) * 10.0 ** rng.integers(-300, 301, (b, r, c))
    special = rng.random(x.shape) < 0.2
    x[special] = rng.choice(SCORE_SPECIALS, int(special.sum()))
    tie = rng.random(x.shape) < 0.2
    x[tie] = np.take_along_axis(x, rng.integers(0, c, x.shape), axis=-1)[tie]
    x[rng.random((b, r)) < 0.1] = math.nan
    return x


class TestSoftmax:
    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(score_stacks())
    def test_match_reduced_formulas_bit_for_bit(self, s):
        with np.errstate(all="ignore"):
            pairs = [
                (numkit.softmax_rows(s), softmax_rows_formula(s)),
                (numkit.softmax_cols(s), softmax_cols_formula(s)),
                (numkit.softmax_rows(s[0]), softmax_rows_formula(s[0])),
            ]
        for got, want in pairs:
            assert got.tobytes() == want.tobytes()

    def test_signed_zero_tie_in_row_max(self):
        # maximum(+0.0, -0.0) may return either zero; exp(s - m) is 1 both ways.
        s = np.array([[0.0, -0.0], [-0.0, 0.0], [-0.0, -0.0]])
        assert numkit.softmax_rows(s).tobytes() == softmax_rows_formula(s).tobytes()
        assert (numkit.softmax_rows(s) == 0.5).all()

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

    def test_sigmoid_matches_two_branch_bits(self, rng):
        tiny = np.finfo(np.float64).smallest_subnormal
        special = [0.0, -0.0, np.inf, -np.inf, tiny, -tiny, 1e-310, -1e-310,
                   800.0, -800.0, 36.0, -36.0, 710.0, -745.0]
        x = np.concatenate([special, rng.standard_normal(196) * 20.0]).reshape(-1, 7)
        got = numkit.sigmoid(x)
        want = sigmoid_two_branch(x)
        assert got.shape == x.shape and got.dtype == np.float64
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))

    def test_sigmoid_nan_stays_nan(self):
        # Only NaN-ness is pinned: the sign of a NaN is not.
        assert np.isnan(numkit.sigmoid(np.array([np.nan, -np.nan]))).all()

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
        # After a good momentum step the velocity is nonzero; a refused step
        # leaves values, gradients and velocity exactly as they were.
        opt = numkit.SGD([a, b], lr=0.5, momentum=0.9)
        a.grad[:] = 1.0
        b.grad[:] = -2.0
        opt.step()
        a.grad[:] = 3.0
        b.grad[:] = np.nan
        before = [x.copy() for p in (a, b) for x in (p.value, p.grad)]
        velocity = opt.velocity.copy()
        with pytest.raises(OptimizerError, match="'b'"):
            opt.step()
        after = [x for p in (a, b) for x in (p.value, p.grad)]
        assert [x.tobytes() for x in after] == [x.tobytes() for x in before]
        assert opt.velocity.tobytes() == velocity.tobytes()
        # One velocity entry per parameter, in parameter order.
        assert all(v.any() for v in np.split(velocity, 2))

    def test_first_bad_parameter_named(self):
        shapes = [(2, 3), (0,), (4,), (1,)]
        params = [Param(f"p{k}", np.ones(s)) for k, s in enumerate(shapes)]
        opt = numkit.SGD(params, lr=0.1)
        params[2].grad[3] = -np.inf
        params[3].grad[0] = np.nan
        with pytest.raises(OptimizerError, match="'p2'"):
            opt.step()

    def test_flat_step_matches_per_parameter_oracle(self, rng):
        # Mixed shapes, an empty parameter and one group that never gets a
        # gradient; several momentum steps with gradients of mixed scale.
        shapes = [(3, 4), (5,), (1,), (2, 3, 2), (0,), (4, 1)]
        params = [
            Param(f"p{k}", rng.standard_normal(s)) for k, s in enumerate(shapes)
        ]
        values = [p.value.copy() for p in params]
        grads = [np.zeros(s) for s in shapes]
        velocity = [np.zeros(s) for s in shapes]
        lr, momentum = 0.037, 0.9
        opt = numkit.SGD(params, lr=lr, momentum=momentum)
        assert [p.value.tobytes() for p in params] == [v.tobytes() for v in values]
        for _ in range(6):
            for k, p in enumerate(params):
                if k == 1:
                    continue
                g = rng.standard_normal(p.value.shape) * 10.0 ** rng.integers(-8, 8)
                p.grad[...] += g
                grads[k] += g
            opt.step()
            sgd_step_loop(values, grads, velocity, lr, momentum)
            for p, x, g in zip(params, values, grads):
                assert p.value.tobytes() == x.tobytes(), p.name
                assert p.grad.tobytes() == g.tobytes(), p.name
            flat = np.concatenate([v.reshape(-1) for v in velocity])
            assert opt.velocity.tobytes() == flat.tobytes()
        assert not params[1].grad.any() and params[0].value.any()


# Entries that IEEE addition treats specially: signed zeros, infinities,
# NaN and subnormals down to the smallest.
SPECIAL_FLOATS = [0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, -5e-324, 1e-310]


@st.composite
def grad_stacks(draw):
    """Totals of mixed 1-D and 2-D shapes, each with a (B, *shape) stack.

    Entries are normal draws at scales 1e-8 to 1e8 with about a fifth of
    them replaced by ``SPECIAL_FLOATS``, all from one drawn seed: drawing
    every entry through Hypothesis took ~0.4 s per 50 examples.
    """
    b = draw(st.integers(1, 9))
    shape = st.lists(st.integers(1, 4), min_size=1, max_size=2).map(tuple)
    shapes = draw(st.lists(shape, min_size=1, max_size=4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))

    def entries(shape):
        x = rng.standard_normal(shape) * 10.0 ** rng.integers(-8, 9, shape)
        special = rng.random(shape) < 0.2
        x[special] = rng.choice(SPECIAL_FLOATS, int(special.sum()))
        return x

    return [entries(s) for s in shapes], [entries((b, *s)) for s in shapes]


def span_of(totals, before=(), after=()):
    """Parameters whose gradients hold ``before``, ``totals`` and ``after``,
    under one optimizer, and the span of the ones holding ``totals``."""
    grads = [*before, *totals, *after]
    params = [Param(f"p{j}", np.zeros(g.shape)) for j, g in enumerate(grads)]
    opt = numkit.SGD(params, lr=1.0)
    for p, g in zip(params, grads):
        p.grad[...] = g
    return params, opt.grad_span(params[len(before) : len(before) + len(totals)])


class TestAddInOrder:
    def test_matches_sequential_adds_where_a_sum_does_not(self):
        # A 1 ulp step only shows when the tiny terms first meet each other,
        # as a pairwise sum over eleven rows lets them.
        total = np.array([1.0])
        stack = np.full((10, 1), 1e-16)
        want = total.copy()
        for g in stack:
            want += g
        pairwise = np.add.reduce(np.concatenate((total[None], stack)), axis=0)
        assert want[0] == 1.0 and pairwise[0] != want[0]
        [p], span = span_of([total])
        numkit.add_in_order(span, [stack])
        assert p.grad.tobytes() == want.tobytes()

    def test_stack_of_matrices(self, rng):
        total = rng.standard_normal((3, 2))
        stack = rng.standard_normal((9, 3, 2)) * 10.0 ** rng.integers(-6, 6, (9, 1, 1))
        want = total.copy()
        for g in stack:
            want += g
        [p], span = span_of([total])
        numkit.add_in_order(span, [stack])
        assert p.grad.tobytes() == want.tobytes()

    @settings(max_examples=50, deadline=None, derandomize=True, database=None)
    @given(
        grad_stacks(),
        st.sampled_from([1.0, 0.125, -3.0, 1e-300]),
        st.integers(0, 2),
        st.integers(0, 2),
    )
    def test_lists_match_per_pair_loops(self, pairs, scale, before, after):
        # The span is a run of parameters of mixed shapes inside a longer
        # optimizer, whose other gradients must not move.
        totals, stacks = pairs
        rng = np.random.default_rng(len(totals) + 10 * before + 100 * after)
        before = [rng.standard_normal((2, 3)) for _ in range(before)]
        after = [rng.standard_normal(3) for _ in range(after)]
        want = [t.copy() for t in totals]
        scattered = [t.copy() for t in totals]
        stacks_before = [g.copy() for g in stacks]
        params, span = span_of(totals, before, after)
        # inf - inf and overflow are part of the property, not warnings.
        with np.errstate(all="ignore"):
            for w, stack in zip(want, stacks):
                for g in stack:
                    w += scale * g
            add_in_order_scatter(scattered, stacks, scale)
            numkit.add_in_order(span, stacks, scale=scale)
        grads = [p.grad for p in params]
        inside = grads[len(before) : len(before) + len(totals)]
        for t, w in zip(inside, want):
            # IEEE 754 leaves open which NaN a sum of two NaNs returns, and
            # NumPy's one-element add loop returns the other operand's than
            # its vector loop, so NaN sums must agree only in being NaN.
            nan = np.isnan(w)
            assert np.array_equal(np.isnan(t), nan)
            assert np.array_equal(t.view(np.uint64)[~nan], w.view(np.uint64)[~nan])
        # Against the concatenate-then-scatter add it replaced, every byte
        # agrees, NaNs included, and the gradients outside the span hold.
        for t, w in zip(grads, before + scattered + after):
            assert t.tobytes() == w.tobytes()
        for g, g0 in zip(stacks, stacks_before):
            assert np.array_equal(g.view(np.uint64), g0.view(np.uint64))

    def test_stacks_must_share_b_and_match_totals(self):
        params, span = span_of([np.zeros(4), np.zeros((2, 3))])
        with pytest.raises(ShapeError):
            numkit.add_in_order(span, [np.ones((2, 4)), np.ones((3, 2, 3))])
        with pytest.raises(ShapeError):
            numkit.add_in_order(span, [np.ones((2, 4)), np.ones((2, 3, 2))])
        with pytest.raises(ShapeError):
            numkit.add_in_order(span, [np.ones((2, 4))])
        with pytest.raises(ShapeError):
            numkit.add_in_order(span, [np.ones((0, 4)), np.ones((0, 2, 3))])
        assert not any(p.grad.any() for p in params)

    def test_span_needs_consecutive_parameters_in_order(self):
        a, b, c = (Param(name, np.zeros(2)) for name in "abc")
        opt = numkit.SGD([a, b, c], lr=1.0)
        assert opt.grad_span([b, c]).flat.size == 4
        for params in ([a, c], [b, a], [c, Param("d", np.zeros(2))]):
            with pytest.raises(OptimizerError):
                opt.grad_span(params)
        with pytest.raises(OptimizerError):
            opt.grad_span([Param("d", np.zeros(2))])
        # The span is the buffer itself: an add shows in the gradients.
        span = opt.grad_span([b, c])
        numkit.add_in_order(span, [np.ones((1, 2)), np.full((1, 2), 2.0)])
        assert a.grad.tolist() == [0.0, 0.0]
        assert b.grad.tolist() == [1.0, 1.0] and c.grad.tolist() == [2.0, 2.0]


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
