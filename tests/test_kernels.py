"""Box-geometry kernels: hand oracles, brute-force oracles, backend parity."""

import contextlib
import re
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from wsodkit import kernels
from wsodkit.data import Box
from wsodkit.kernels import _py

from conftest import random_boxes
from reference import iou, iou_broadcast, nms_sequential

try:
    from wsodkit.kernels import _ext
except ImportError:
    _ext = None

BACKENDS = [_py] if _ext is None else [_py, _ext]


def _backend_id(mod):
    return "py" if mod is _py else "ext"


def hard_boxes(rng, n):
    """Random boxes with duplicates, nested boxes and zero-area boxes.

    About a quarter of the rows each copy another row, shrink another row
    to a box nested inside it, or collapse to zero width.
    """
    boxes = random_boxes(rng, n)
    kind = rng.integers(0, 4, n)
    dup = kind == 1
    boxes[dup] = boxes[rng.integers(0, n, dup.sum())]
    nest = kind == 2
    outer = boxes[rng.integers(0, n, nest.sum())]
    half = (outer[:, 2:] - outer[:, :2]) / 4.0
    boxes[nest] = np.hstack([outer[:, :2] + half, outer[:, 2:] - half])
    flat = kind == 3
    boxes[flat, 2] = boxes[flat, 0]
    return boxes


# -- IoU ---------------------------------------------------------------------


@pytest.mark.parametrize("k", BACKENDS, ids=_backend_id)
class TestIou:
    def test_identical_boxes(self, k):
        b = np.array([[1.0, 2.0, 5.0, 7.0]])
        assert k.iou_matrix(b, b)[0, 0] == 1.0

    def test_disjoint(self, k):
        a = np.array([[0.0, 0.0, 1.0, 1.0]])
        b = np.array([[5.0, 5.0, 6.0, 6.0]])
        assert k.iou_matrix(a, b)[0, 0] == 0.0

    def test_quarter_overlap(self, k):
        # 25 overlap, union 100 + 100 - 25 = 175
        a = np.array([[0.0, 0.0, 10.0, 10.0]])
        b = np.array([[5.0, 5.0, 15.0, 15.0]])
        assert k.iou_matrix(a, b)[0, 0] == pytest.approx(25.0 / 175.0, abs=1e-12)

    def test_touching_edges_are_disjoint(self, k):
        a = np.array([[0.0, 0.0, 1.0, 1.0]])
        b = np.array([[1.0, 0.0, 2.0, 1.0]])
        assert k.iou_matrix(a, b)[0, 0] == 0.0

    def test_continuous_coordinates_no_plus_one(self, k):
        # Unit squares sharing half their area: 0.5 / 1.5, not the
        # integer-grid value that a +1 convention would give.
        a = np.array([[0.0, 0.0, 1.0, 1.0]])
        b = np.array([[0.5, 0.0, 1.5, 1.0]])
        assert k.iou_matrix(a, b)[0, 0] == pytest.approx(1.0 / 3.0, abs=1e-12)

    def test_matrix_shape_and_symmetry(self, k, rng):
        a = random_boxes(rng, 7)
        b = random_boxes(rng, 5)
        m = k.iou_matrix(a, b)
        assert m.shape == (7, 5)
        assert np.allclose(m, k.iou_matrix(b, a).T, atol=1e-15)

    def test_rasterized_oracle(self, k):
        # Count sub-pixel cells at fine resolution; the analytic IoU must
        # agree with the rasterized estimate.
        a = np.array([[0.0, 0.0, 10.0, 10.0]])
        b = np.array([[5.0, 5.0, 15.0, 15.0]])
        step = 0.05
        xs, ys = np.meshgrid(
            np.arange(0, 15, step) + step / 2, np.arange(0, 15, step) + step / 2
        )
        in_a = (xs < 10) & (ys < 10)
        in_b = (xs >= 5) & (ys >= 5)
        raster = (in_a & in_b).sum() / (in_a | in_b).sum()
        assert k.iou_matrix(a, b)[0, 0] == pytest.approx(raster, abs=1e-3)

    def test_bad_shape_raises(self, k):
        with pytest.raises(ValueError):
            k.iou_matrix(np.zeros((2, 3)), np.zeros((2, 4)))

    # (18, 2000) is the mining column of a selective-search-sized image.
    @pytest.mark.parametrize("n,m", [(0, 5), (5, 0), (1, 1), (20, 20), (18, 2000)])
    def test_bitwise_equal_to_broadcast_oracle(self, k, rng, n, m):
        a = hard_boxes(rng, n)
        b = hard_boxes(rng, m)
        shared = min(n, m) // 2
        b[:shared] = a[:shared]
        got = k.iou_matrix(a, b)
        want = iou_broadcast(a, b)
        assert got.dtype == want.dtype and got.shape == want.shape == (n, m)
        assert got.tobytes() == want.tobytes()


def test_overflowing_overlap_is_zero_without_warning():
    # Past about 1.3e154 the overlap and both areas overflow to inf, and
    # inf - inf is NaN. The NumPy kernel turns that into +0.0 and stays
    # quiet; the compiled one returns NaN, so only _py is pinned here.
    a = [[0.0, 0.0, 2e160, 2e160]]
    b = [[1e160, 1e160, 3e160, 3e160]]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = _py.iou_matrix(a, b)
    assert got[0, 0] == 0.0 and not np.signbit(got[0, 0])


# -- NMS ---------------------------------------------------------------------


# One implementation, the NumPy kernel bound as kernels.nms on either
# backend; the single-entry parametrization keeps the "[py]" test ids.
@pytest.mark.parametrize("k", [kernels], ids=["py"])
class TestNms:
    def test_duplicate_suppressed(self, k):
        boxes = np.array([[0.0, 0.0, 10.0, 10.0], [0.0, 0.0, 10.0, 10.0]])
        keep = k.nms(boxes, np.array([0.9, 0.8]), 0.5)
        assert keep.tolist() == [0]

    def test_disjoint_all_kept(self, k):
        boxes = np.array([[0.0, 0.0, 1.0, 1.0], [5.0, 5.0, 6.0, 6.0]])
        keep = k.nms(boxes, np.array([0.1, 0.9]), 0.5)
        assert keep.tolist() == [1, 0]

    def test_greedy_not_transitive(self, k):
        # A suppresses B; B would have suppressed C, but B is gone, and
        # A does not overlap C enough, so A and C survive.
        a = [0.0, 0.0, 10.0, 10.0]
        b = [0.0, 2.0, 10.0, 12.0]  # IoU(A,B) = 80/120 > 0.5
        c = [0.0, 5.0, 10.0, 15.0]  # IoU(A,C) = 50/150, IoU(B,C) = 70/130 > 0.5
        boxes = np.array([a, b, c])
        keep = k.nms(boxes, np.array([0.9, 0.8, 0.7]), 0.5)
        assert keep.tolist() == [0, 2]

    def test_threshold_is_strict(self, k):
        # IoU exactly at the threshold is not suppressed.
        a = [0.0, 0.0, 2.0, 1.0]
        b = [1.0, 0.0, 3.0, 1.0]  # IoU = 1/3 with a
        boxes = np.array([a, b])
        keep = k.nms(boxes, np.array([0.9, 0.8]), 1.0 / 3.0)
        assert keep.tolist() == [0, 1]

    def test_tie_prefers_earlier_index(self, k):
        boxes = np.array([[0.0, 0.0, 10.0, 10.0], [0.0, 0.0, 10.0, 10.0]])
        keep = k.nms(boxes, np.array([0.5, 0.5]), 0.5)
        assert keep.tolist() == [0]

    def test_empty_input(self, k):
        keep = k.nms(np.zeros((0, 4)), np.zeros(0), 0.5)
        assert keep.size == 0

    def test_against_quadratic_oracle(self, k, rng):
        for trial in range(25):
            n = int(rng.integers(1, 101))
            boxes = random_boxes(rng, n)
            scores = rng.uniform(0, 1, n)
            got = k.nms(boxes, scores, 0.4).tolist()
            # Literal restatement of the greedy rule, no vectorization, over
            # the scalar IoU, which uses the kernel's float operations.
            box = [Box(*row) for row in boxes.tolist()]
            order = sorted(range(n), key=lambda i: (-scores[i], i))
            kept: list[int] = []
            for i in order:
                ok = True
                for j in kept:
                    if iou(box[i], box[j]) > 0.4:
                        ok = False
                        break
                if ok:
                    kept.append(i)
            assert got == kept

    # Sizes on both sides of the 32-box head block of the NumPy kernel.
    @pytest.mark.parametrize("n", [0, 1, 31, 32, 33, 64, 65, 200, 2000])
    @pytest.mark.parametrize("thresh", [0.0, 0.3, 0.5, 1.0])
    def test_against_sequential_oracle(self, k, n, thresh):
        rng = np.random.default_rng(n)
        boxes = random_boxes(rng, n)
        scores = rng.uniform(0, 1, n)
        got = k.nms(boxes, scores, thresh)
        assert got.dtype == np.int64
        assert np.array_equal(got, nms_sequential(boxes, scores, thresh))
        # Tied scores over duplicate, nested and zero-area boxes.
        boxes = hard_boxes(rng, n)
        scores = rng.integers(0, 4, n) / 4.0
        got = k.nms(boxes, scores, thresh)
        assert np.array_equal(got, nms_sequential(boxes, scores, thresh))

    @pytest.mark.parametrize("n", [2, 3])
    def test_small_groups_at_every_threshold(self, k, n):
        # Keeps change only where the threshold crosses a pairwise IoU, so
        # 0, 1 and each IoU with its two float neighbours cover every
        # threshold.
        rng = np.random.default_rng(n)
        for trial in range(40):
            boxes = hard_boxes(rng, n) if trial % 2 else random_boxes(rng, n)
            if trial % 5 == 0:
                boxes[1:] = boxes[0]
            scores = rng.integers(0, 3, n) / 2.0
            ious = _py.iou_matrix(boxes, boxes).ravel()
            cuts = {0.0, 1.0, *ious, *np.nextafter(ious, 0.0), *np.nextafter(ious, 1.0)}
            for thresh in sorted(cuts):
                got = k.nms(boxes, scores, thresh)
                assert np.array_equal(got, nms_sequential(boxes, scores, thresh))

    def test_zero_area_boxes_never_suppress(self, k):
        # A zero-area box has no intersection with anything, so it scores
        # IoU 0 even against itself and survives any threshold >= 0.
        boxes = np.tile([[3.0, 3.0, 3.0, 9.0]], (40, 1))
        keep = k.nms(boxes, np.full(40, 0.5), 0.0)
        assert keep.tolist() == list(range(40))


# -- grouped NMS -------------------------------------------------------------

# Group sizes on both sides of the 32-box head block and of two heads.
GROUP_SIZES = (0, 1, 2, 3, 31, 32, 33, 64, 65)
# 1/3, 1/2 and 1/4 are IoU values of integer-grid boxes, so pairs sit
# exactly at the threshold.
THRESHOLDS = (0.0, 1.0 / 4.0, 1.0 / 3.0, 0.5, 1.0)


def grid_boxes(r, n, scale):
    """Integer-grid boxes, some duplicated, some with -0.0 corners, scaled."""
    x1 = r.integers(0, 12, n).astype(np.float64)
    y1 = r.integers(0, 12, n).astype(np.float64)
    boxes = np.stack([x1, y1, x1 + r.integers(1, 6, n), y1 + r.integers(1, 6, n)], 1)
    dup = r.uniform(size=n) < 0.2
    boxes[dup] = boxes[r.integers(0, n, dup.sum())]
    zero = boxes == 0.0
    boxes[zero] = np.where(r.uniform(size=zero.sum()) < 0.5, -0.0, 0.0)
    return boxes * scale


def per_group_oracle(boxes, scores, groups, thresh):
    """Sequential NMS on each group alone, in ascending group id order."""
    keep = []
    for g in np.unique(groups):
        members = np.flatnonzero(groups == g)
        kept = nms_sequential(boxes[members], scores[members], thresh)
        keep += members[kept].tolist()
    return keep


@contextlib.contextmanager
def budgets(pairs, tile):
    """Shrink the NMS block budgets, so that small inputs cross them."""
    saved = _py.NMS_PAIRS, _py.NMS_TILE
    _py.NMS_PAIRS, _py.NMS_TILE = pairs, tile
    try:
        yield
    finally:
        _py.NMS_PAIRS, _py.NMS_TILE = saved


class TestGroupedNms:
    @settings(max_examples=30, deadline=None, derandomize=True, database=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        sizes=st.lists(st.sampled_from(GROUP_SIZES), min_size=0, max_size=5),
        ids=st.lists(st.integers(-(2**40), 2**40), min_size=5, max_size=5, unique=True),
        thresh=st.sampled_from(THRESHOLDS),
        scale=st.sampled_from([1.0, 1e31, 1e-31]),
        tiny=st.booleans(),
    )
    @example(seed=0, sizes=[65, 1, 33], ids=[7, -3, 0, 1, 2], thresh=0.0,
             scale=1.0, tiny=True)
    @example(seed=1, sizes=[64, 64], ids=[5, -5, 0, 1, 2], thresh=1.0,
             scale=1.0, tiny=False)
    @example(seed=2, sizes=[], ids=[0, 1, 2, 3, 4], thresh=0.5, scale=1.0,
             tiny=False)
    def test_matches_per_group_oracle(self, seed, sizes, ids, thresh, scale, tiny):
        # Groups of the listed sizes under sparse, negative ids, their boxes
        # shuffled together; scores on a coarse grid tie exactly. Tiny
        # budgets split every head sweep, IoU block and rest tile.
        r = np.random.default_rng(seed)
        n = sum(sizes)
        groups = np.repeat(np.array(ids[: len(sizes)], dtype=np.int64), sizes)
        perm = r.permutation(n)
        groups = groups[perm]
        boxes = grid_boxes(r, n, scale)
        scores = r.integers(0, 4, n) / 4.0
        with budgets(7, 50) if tiny else contextlib.nullcontext():
            got = kernels.nms(boxes, scores, thresh, groups)
        assert got.dtype == np.int64
        assert got.tolist() == per_group_oracle(boxes, scores, groups, thresh)

    def test_many_small_groups_and_large_ones(self, rng):
        # The pipeline's shapes: hundreds of 20-box groups, and a record
        # whose five class groups each hold 2000 boxes. One call equals a
        # call per group, which TestNms checks against the sequential oracle.
        for n, g in ((20, 250), (2000, 5)):
            boxes = np.tile(random_boxes(rng, n), (g, 1))
            scores = rng.uniform(0, 1, n * g)
            ids = rng.permutation(g) * 3 - 7
            # Group j holds rows j*n:(j+1)*n; keeps come in ascending id order.
            rows = [slice(j * n, (j + 1) * n) for j in range(g)]
            want = [
                kernels.nms(boxes[rows[j]], scores[rows[j]], 0.5) + j * n
                for j in np.argsort(ids)
            ]
            got = kernels.nms(boxes, scores, 0.5, np.repeat(ids, n))
            assert np.array_equal(got, np.concatenate(want))

    @pytest.mark.parametrize("thresh", [0.3, 0.5, 0.7])
    @pytest.mark.parametrize("offset", [0.0, 1e4])
    def test_rest_just_past_the_threshold(self, thresh, offset):
        # A wide kept box heads the group; 40 far-off boxes fill its head, and
        # past it come boxes nested in it at full height, whose IoU is their
        # width fraction: thresh plus or minus 1e-12 to 1e-3. Those above must
        # be dropped, which the core test's margin has to allow for.
        wide = np.array([[0.0, 0.0, 1000.0, 10.0]])
        far = np.array([[5000.0 + 20 * i, 0.0, 5010.0 + 20 * i, 10.0]
                        for i in range(40)])
        deltas = np.array([d * sign for d in (1e-12, 1e-9, 1e-6, 1e-3)
                           for sign in (1, -1)])
        w = 1000.0 * (thresh + deltas)
        near = np.concatenate([
            np.stack([np.zeros_like(w), np.zeros_like(w), w, np.full_like(w, 10.0)], 1),
            np.stack([1000.0 - w, np.zeros_like(w), np.full_like(w, 1000.0),
                      np.full_like(w, 10.0)], 1),
        ])
        boxes = np.concatenate([wide, far, near]) + offset
        scores = np.linspace(1.0, 0.0, len(boxes))
        got = kernels.nms(boxes, scores, thresh).tolist()
        assert got == nms_sequential(boxes, scores, thresh).tolist()
        above = {41 + i for i in range(len(near)) if deltas[i % len(deltas)] > 0}
        assert not above & set(got) and len(got) > 41

    def test_no_groups_is_one_group(self, rng):
        boxes = hard_boxes(rng, 70)
        scores = rng.integers(0, 3, 70) / 2.0
        assert np.array_equal(
            kernels.nms(boxes, scores, 0.5),
            kernels.nms(boxes, scores, 0.5, np.full(70, -9)),
        )

    @pytest.mark.parametrize(
        "groups", [np.zeros(3), np.zeros(2, dtype=int), [[0, 0, 0]]]
    )
    def test_bad_groups_raise(self, groups):
        with pytest.raises(ValueError, match="groups"):
            kernels.nms(np.zeros((3, 4)), np.zeros(3), 0.5, groups)


# -- box mean pooling --------------------------------------------------------


# One implementation, bound as kernels.box_mean_pool on either backend. The
# single-entry parametrization only keeps the "[py]" test ids these cases
# had when they also ran against a compiled implementation.
@pytest.mark.parametrize("k", [kernels], ids=["py"])
class TestBoxMeanPool:
    def test_constant_grid(self, k):
        grid = np.full((8, 8), 0.5)
        out = k.box_mean_pool(grid, np.array([[1.0, 1.0, 6.0, 7.0]]))
        assert out[0] == pytest.approx(0.5, abs=1e-15)

    def test_two_pixel_mean(self, k):
        grid = np.array([[0.2, 0.4]])
        out = k.box_mean_pool(grid, np.array([[0.0, 0.0, 2.0, 1.0]]))
        assert out[0] == pytest.approx(0.3, abs=1e-15)

    def test_four_by_four_enumeration(self, k):
        grid = (np.arange(16, dtype=np.float64) / 16.0).reshape(4, 4)
        out = k.box_mean_pool(grid, np.array([[0.0, 0.0, 2.0, 2.0]]))
        # Covers raster indices {0, 1, 4, 5}.
        assert out[0] == pytest.approx((0 + 1 + 4 + 5) / 16.0 / 4.0, abs=1e-15)

    def test_center_rule_boundaries(self, k):
        # x1 = 0.5 lands exactly on the first column's center: covered.
        # x2 = 1.5 lands on the second column's center: excluded.
        grid = np.array([[1.0, 100.0]])
        out = k.box_mean_pool(grid, np.array([[0.5, 0.0, 1.5, 1.0]]))
        assert out[0] == pytest.approx(1.0, abs=1e-15)

    def test_empty_coverage_nan(self, k):
        grid = np.ones((4, 4))
        out = k.box_mean_pool(grid, np.array([[0.6, 0.6, 0.9, 0.9]]))
        assert np.isnan(out[0])

    def test_clipped_to_grid(self, k):
        grid = np.arange(4, dtype=np.float64).reshape(2, 2)
        out = k.box_mean_pool(grid, np.array([[-5.0, -5.0, 50.0, 50.0]]))
        assert out[0] == pytest.approx(1.5, abs=1e-15)

    def test_against_bruteforce_centers(self, k, rng):
        for trial in range(20):
            h, w = int(rng.integers(2, 12)), int(rng.integers(2, 12))
            grid = rng.uniform(0, 1, (h, w))
            box = np.array(
                [
                    [
                        rng.uniform(0, w - 1),
                        rng.uniform(0, h - 1),
                        rng.uniform(1, w),
                        rng.uniform(1, h),
                    ]
                ]
            )
            box[0, 2] = max(box[0, 2], box[0, 0] + 0.6)
            box[0, 3] = max(box[0, 3], box[0, 1] + 0.6)
            vals = [
                grid[i, j]
                for i in range(h)
                for j in range(w)
                if box[0, 0] <= j + 0.5 < box[0, 2]
                and box[0, 1] <= i + 0.5 < box[0, 3]
            ]
            got = k.box_mean_pool(grid, box)[0]
            if vals:
                assert got == pytest.approx(float(np.mean(vals)), abs=1e-12)
            else:
                assert np.isnan(got)

    def test_summed_area_precision(self, k, rng):
        # A summed-area table subtracts large running sums, so pin its error
        # against direct slicing on a camera-sized grid. Integer boxes make
        # the covered pixels exactly the slice.
        h, w = 480, 640
        grid = rng.uniform(0, 1, (h, w))
        j0 = rng.integers(0, w, 250)
        i0 = rng.integers(0, h, 250)
        boxes = np.stack(
            [j0, i0, rng.integers(j0 + 1, w + 1), rng.integers(i0 + 1, h + 1)], axis=1
        )
        boxes = np.vstack([boxes, [[w - 1, h - 1, w, h], [0, 0, w, h]]])
        want = [grid[i0:i1, j0:j1].mean() for j0, i0, j1, i1 in boxes]
        got = k.box_mean_pool(grid, boxes.astype(np.float64))
        assert np.allclose(got, want, rtol=0.0, atol=1e-10)

    def test_constant_regions_pool_exactly(self, k, rng):
        # Depth maps often hold blocks of exact 0.0 or 1.0 (sky, clipped
        # range) below and right of other values, where the four-corner
        # differences round unevenly. Pooled means must stay in [0, 1], and
        # a box alone in a constant block must return its value exactly.
        grid = rng.uniform(0, 1, (120, 160))
        grid[60:, 80:120] = 0.0
        grid[60:, 120:] = 1.0
        boxes = []
        for x0, x1 in ((80, 120), (120, 160)):
            xs = np.sort(rng.integers(x0, x1 + 1, (100, 2)), axis=1)
            ys = np.sort(rng.integers(60, 121, (100, 2)), axis=1)
            xs[:, 1] = np.maximum(xs[:, 1], xs[:, 0] + 1).clip(max=x1)
            xs[:, 0] = np.minimum(xs[:, 0], xs[:, 1] - 1)
            ys[:, 1] = np.maximum(ys[:, 1], ys[:, 0] + 1).clip(max=120)
            ys[:, 0] = np.minimum(ys[:, 0], ys[:, 1] - 1)
            boxes.append(np.stack([xs[:, 0], ys[:, 0], xs[:, 1], ys[:, 1]], 1))
        boxes = np.vstack(boxes + [[[0, 0, 160, 120]]]).astype(np.float64)
        got = k.box_mean_pool(grid, boxes)
        assert ((got >= 0.0) & (got <= 1.0)).all()
        alone = [k.box_mean_pool(grid, b[None, :])[0] for b in boxes[:200]]
        assert alone == [0.0] * 100 + [1.0] * 100


# -- backend parity and selection -------------------------------------------


@pytest.mark.skipif(_ext is None, reason="compiled backend unavailable")
class TestParity:
    def test_iou_bitwise_equal(self, rng):
        a = random_boxes(rng, 40)
        b = random_boxes(rng, 30)
        assert np.array_equal(_py.iou_matrix(a, b), _ext.iou_matrix(a, b))


def test_backend_constant():
    assert kernels.BACKEND in ("cython", "python")


def test_compiled_kernels_match_numpy_names():
    # Cython may be absent, so read the .pyx as text: the kernels it defines
    # are exactly those the package takes from the backend, and _py defines
    # each of them too.
    pkg = Path(kernels.__file__).parent
    pyx = re.findall(r"^def (\w+)\(", (pkg / "_ext.pyx").read_text(), re.M)
    taken = re.findall(r"= _impl\.(\w+)$", (pkg / "__init__.py").read_text(), re.M)
    assert sorted(pyx) == sorted(taken) == ["iou_matrix"]
    assert all(callable(getattr(_py, name, None)) for name in pyx)


# -- properties --------------------------------------------------------------

box_strategy = st.tuples(
    st.floats(0, 50), st.floats(0, 50), st.floats(0.5, 50), st.floats(0.5, 50)
).map(lambda t: [t[0], t[1], t[0] + t[2], t[1] + t[3]])


@settings(max_examples=60, deadline=None)
@given(a=box_strategy, b=box_strategy)
def test_iou_bounds_and_symmetry(a, b):
    m = _py.iou_matrix(np.array([a]), np.array([b]))
    mt = _py.iou_matrix(np.array([b]), np.array([a]))
    assert 0.0 <= m[0, 0] <= 1.0 + 1e-12
    assert m[0, 0] == pytest.approx(mt[0, 0], abs=1e-12)


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    n=st.integers(1, 80),
    thresh=st.floats(0.1, 0.9),
)
def test_nms_output_subset_and_separated(seed, n, thresh):
    r = np.random.default_rng(seed)
    boxes = random_boxes(r, n)
    scores = r.uniform(0, 1, n)
    keep = _py.nms(boxes, scores, thresh)
    assert len(set(keep.tolist())) == keep.size
    assert all(0 <= i < n for i in keep)
    kept = boxes[keep]
    m = _py.iou_matrix(kept, kept)
    np.fill_diagonal(m, 0.0)
    assert (m <= thresh + 1e-12).all()
