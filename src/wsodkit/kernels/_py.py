"""NumPy box-geometry kernels.

``iou_matrix`` is the fallback for the compiled extension
``wsodkit.kernels._ext`` and must give identical results wherever areas
stay inside the float range (see below); the test suite
runs both side by side when the extension is built, so keep the formula
in sync with the .pyx file. ``nms`` and ``box_mean_pool`` exist only here
and serve either backend.

Every IoU here comes from one formula, ``_iou``, over boxes stored
coordinate-first. It builds the intersection and union in reused buffers,
with the same float operations in the same order as a fresh broadcast per
term, so it matches ``tests/reference.py`` bit for bit while allocating
less. It divides every element and then turns the -0.0 and NaN of empty
overlaps into +0.0, which on 47k random pairs took 77 us against 620 us for
a divide masked to the positive overlaps. The one difference: an overlap
area that overflows to infinity (coordinates past about 1.3e154) gives
+0.0 here, without a warning, and NaN in the extension; neither exceeds a
threshold, so NMS keeps the same boxes.

``nms`` settles many groups of boxes in one call, with one code path for
every group size. Boxes are sorted by (group, -score, index). Each round
takes every live group's next ``NMS_BLOCK`` survivors as its head: the IoU
of every head pair of every group comes out of float64 blocks of
``NMS_PAIRS`` pairs, and one vectorized greedy sweep over the head slots
settles all heads at once. A group with survivors past its head then
drops those that exceed the threshold against its kept heads, in tiles of
``NMS_TILE`` pairs; a float32 core test (``_core_bounds``) passes about a
tenth of the pairs of 2000-box groups, and only those get an exact IoU.
Keeps equal those of greedy NMS one box at a time, group by group. At the
pipeline's shapes (``benchmarks/bench_kernels.py``, 2-vCPU Xeon VM, NumPy
2.4, best of 5), one call over 1,250 groups of 20 boxes took 18 ms against
119 ms for one call per group, and one over a 2000-proposal record's 5
class groups 39 ms against 57 ms. On the NMS calls of the benchmark
workloads, heads of 16 and 64 boxes ran within noise of 32.
"""

import functools

import numpy as np


def _as_boxes(a):
    a = np.ascontiguousarray(a, dtype=np.float64)
    if a.ndim != 2 or a.shape[1] != 4:
        raise ValueError("boxes must have shape (n, 4)")
    return a


# Boxes per head block of ``nms``; the module docstring gives the timings.
NMS_BLOCK = 32
# Box pairs whose IoU ``nms`` computes in one float64 block.
NMS_PAIRS = 1 << 11
# Box pairs in one head sweep or one kept-by-rest core-test tile, which
# hold a byte or a float32 per pair.
NMS_TILE = 1 << 16
# The padding box, stored after the real ones: it overlaps nothing, and its
# core bounds let no box through.
_NOWHERE = (np.inf, np.inf, -np.inf, -np.inf)


def _iou(a, b):
    """IoU of float64 boxes stored coordinate-first, ``(4, ...)``.

    ``a`` and ``b`` broadcast against each other past the first axis.
    """
    ax1, ay1, ax2, ay2 = a
    bx1, by1, bx2, by2 = b
    # inter / union, without a masked divide: where inter is 0 the quotient
    # is -0.0, +0.0 or NaN, and where an area overflows to inf it is NaN
    # (inf - inf); adding 0.0 then fmax with 0.0 make each of those +0.0,
    # and errstate keeps the overflow from warning.
    with np.errstate(all="ignore"):
        iw = np.minimum(ax2, bx2)
        iw -= np.maximum(ax1, bx1)
        np.maximum(iw, 0.0, out=iw)
        ih = np.minimum(ay2, by2)
        ih -= np.maximum(ay1, by1)
        np.maximum(ih, 0.0, out=ih)
        iw *= ih
        inter = iw
        area_a = (ax2 - ax1) * (ay2 - ay1)
        area_b = (bx2 - bx1) * (by2 - by1)
        union = np.add(area_a, area_b, out=ih)
        union -= inter
        out = np.divide(inter, union, out=union)
    out += 0.0
    return np.fmax(out, 0.0, out=out)


def iou_matrix(boxes_a, boxes_b):
    """Pairwise intersection-over-union between two box arrays.

    Boxes are ``[x1, y1, x2, y2]`` in continuous coordinates; area is
    ``(x2 - x1) * (y2 - y1)`` with no +1 offset. Disjoint pairs score 0.
    """
    return _iou(_as_boxes(boxes_a).T[:, :, None], _as_boxes(boxes_b).T[:, None, :])


@functools.lru_cache(maxsize=NMS_BLOCK)
def _head_pairs(m):
    """The pairs i < j of m head slots, row by row, and each row's start."""
    first, second = np.triu_indices(m, 1)
    return first, second, np.concatenate(([0], np.cumsum(np.arange(m - 1, -1, -1))))


def _settle_heads(cols, heads, thresh):
    """Greedy keeps inside each row of ``heads``, a (G, M) index block.

    Row g holds group g's next survivors in score order, padded at its end
    with the padding box; a padding slot never suppresses a real box, since
    every real box comes before it. ``cols`` are the boxes coordinate-first.
    Returns the (G, M) keep mask, padding slots included. The sweep visits
    only the slots that suppress some later slot in some group.
    """
    g, m = heads.shape
    first, second, off = _head_pairs(m)
    pairs = max(first.size, 1)
    # Groups per IoU block, and per sweep (a whole number of IoU blocks).
    step = max(1, NMS_PAIRS // pairs)
    span = step * max(1, NMS_TILE // (step * pairs))
    sup = np.zeros((g, m), dtype=bool)
    for s0 in range(0, g, span):
        sc = sup[s0 : s0 + span]
        over = np.empty((sc.shape[0], first.size), dtype=bool)
        for g0 in range(0, sc.shape[0], step):
            h = heads[s0 + g0 : s0 + g0 + step]
            a = np.take(cols, np.take(h, first, axis=1), axis=1)
            b = np.take(cols, np.take(h, second, axis=1), axis=1)
            np.greater(_iou(a, b), thresh, out=over[g0 : g0 + step])
        active = np.zeros(m, dtype=bool)
        active[first[over.any(axis=0)]] = True
        for i in np.flatnonzero(active).tolist():
            later = sc[:, i + 1 :]
            np.logical_or(later, over[:, off[i] : off[i + 1]], out=later,
                          where=~sc[:, i, None])
    return ~sup


def _core_bounds(cols, thresh):
    """Each box's core bounds and coordinates, as an (8, n + 1) float32 array.

    IoU <= overlap / own width, so a box overlaps a kept box past the
    threshold only if it reaches past x1 + t*w and x2 - t*w of that box, and
    likewise in y. Rows 0-3 hold those four bounds, rows 4-7 the box itself.
    float32 is exact to 2.4e-7 of the largest coordinate, and a margin of
    1e-6 of it keeps the test conservative. Returns False, for no core test,
    at a negative threshold or at scales float32 cannot hold that way.
    """
    n = cols.shape[1] - 1
    real = cols[:, :n]
    scale = max(real.max(initial=0.0), -real.min(initial=0.0))
    if not (thresh >= 0.0 and 1e-30 < scale < 1e30):
        return False
    span = thresh * (real[2:] - real[:2])
    bounds = np.empty((8, n + 1), dtype=np.float32)
    np.subtract(real[:2] + span, 1e-6 * scale, out=bounds[:2, :n])
    np.add(real[2:] - span, 1e-6 * scale, out=bounds[2:4, :n])
    bounds[:4, n] = (np.inf, np.inf, -np.inf, -np.inf)
    bounds[4:] = cols
    return bounds


def _survivors(cols, bounds, heads, keep, rest, counts, thresh):
    """Mask over ``rest`` of the boxes that no kept head of their group drops.

    ``rest`` holds every group's survivors past its head, group by group,
    and ``counts`` how many each group has. A group's rest meets its kept
    heads in tiles of whole groups, largest rest first, of at most
    ``NMS_TILE`` pairs. Exact IoU is computed only for the pairs that pass
    the core test of ``bounds`` (see ``_core_bounds``), or for every pair
    when it is False.
    """
    n = cols.shape[1] - 1
    # Each group's kept heads, left-aligned, padded with the padding box.
    k = int(keep.sum(axis=1).max())
    held = np.full((keep.shape[0], k), n)
    held[np.nonzero(keep)[0], (np.cumsum(keep, axis=1) - 1)[keep]] = heads[keep]
    first = np.cumsum(counts) - counts
    pos = np.append(rest, n)
    alive = np.ones(rest.size, dtype=bool)
    todo = np.flatnonzero(counts)
    todo = todo[np.argsort(-counts[todo], kind="stable")]
    rows = max(1, NMS_TILE // k)
    i = 0
    while i < todo.size:
        width = int(counts[todo[i]])
        q = todo[i : i + max(1, NMS_TILE // (k * width))]
        i += q.size
        kq = held[q]
        for r0 in range(0, width, rows):
            slot = np.arange(r0, min(r0 + rows, width))
            at = first[q][:, None] + slot
            at[slot >= counts[q][:, None]] = rest.size
            rq = np.take(pos, at)
            if bounds is False:
                cand = (kq < n)[:, :, None] & (rq < n)[:, None, :]
            else:
                x1, y1, x2, y2 = np.take(bounds[4:], rq, axis=1)[:, :, None]
                lx, ly, hx, hy = np.take(bounds[:4], kq, axis=1)[..., None]
                cand = x2 > lx
                cand &= y2 > ly
                cand &= x1 < hx
                cand &= y1 < hy
            flat = np.flatnonzero(cand)
            if not flat.size:
                continue
            # flat = (group * k + kept slot) * width + rest slot.
            for f0 in range(0, flat.size, NMS_PAIRS):
                pair = np.divmod(flat[f0 : f0 + NMS_PAIRS], slot.size)
                rows_at = pair[0] // k * slot.size + pair[1]
                a = np.take(cols, np.take(kq, pair[0]), axis=1)
                b = np.take(cols, np.take(rq, rows_at), axis=1)
                over = _iou(a, b) > thresh
                alive[np.take(at, rows_at[over])] = False
    return alive


def nms(boxes, scores, thresh, groups=None):
    """Greedy non-maximum suppression within each group of boxes.

    ``groups`` gives each box an integer group id, in any order and of any
    value; None puts every box in one group. Returns the indices of the
    kept boxes ordered by group id and, within a group, by descending score
    (ties keep the earlier input index). A box is suppressed when its IoU
    with an already kept box of its group exceeds ``thresh``.
    """
    b = _as_boxes(boxes)
    s = np.ascontiguousarray(scores, dtype=np.float64)
    n = b.shape[0]
    if s.ndim != 1 or s.shape[0] != n:
        raise ValueError("scores must have shape (n,)")
    if groups is None:
        g = np.zeros(n, dtype=np.intp)
    else:
        g = np.asarray(groups)
        if g.shape != (n,) or g.dtype.kind not in "iu":
            raise ValueError("groups must have shape (n,) and an integer dtype")
    order = np.lexsort((-s, g))
    g = g[order]
    # The sorted boxes coordinate-first, then the padding box at index n.
    cols = np.empty((4, n + 1))
    for j in range(4):
        np.take(b[:, j], order, out=cols[j, :n])
    cols[:, n] = _NOWHERE
    # Built at the first round with a rest; False means no core test.
    bounds = None
    kept = np.zeros(n, dtype=bool)
    live = np.arange(n)
    while live.size:
        # Each group's run of live boxes; its first NMS_BLOCK form its head.
        lg = g[live]
        new = np.empty(live.size, dtype=bool)
        new[:1] = True
        np.not_equal(lg[1:], lg[:-1], out=new[1:])
        starts = np.flatnonzero(new)
        sizes = np.diff(starts, append=live.size)
        rank = np.arange(live.size) - np.repeat(starts, sizes)
        head = rank < NMS_BLOCK
        m = int(min(NMS_BLOCK, sizes.max()))
        heads = np.full((starts.size, m), n)
        heads[np.repeat(np.arange(starts.size), np.minimum(sizes, m)), rank[head]] = (
            live[head]
        )
        keep = _settle_heads(cols, heads, thresh) & (heads < n)
        kept[heads[keep]] = True
        rest = live[~head]
        if not rest.size:
            break
        if bounds is None:
            bounds = _core_bounds(cols, thresh)
        counts = sizes - np.minimum(sizes, m)
        live = rest[_survivors(cols, bounds, heads, keep, rest, counts, thresh)]
    return order[kept]


def box_mean_pool(grid, boxes):
    """Mean of grid values at the pixel centers each box covers.

    Pixel (i, j) has center (j + 0.5, i + 0.5); a center is covered when
    ``x1 <= cx < x2`` and ``y1 <= cy < y2``, intersected with the grid.
    Boxes covering no center yield NaN; callers decide how to fail.

    Each box sum is four lookups in a summed-area table (Crow 1984) built
    over the window the boxes span, so one small box costs its own area,
    not the grid's. The four-corner difference departs from a direct sum
    in the last bits, by about the rounding of the table's largest entries
    divided by the box's pixel count; one-pixel boxes on a full uniform
    [0, 1) window fare worst, measured at 9.0e-13 for 128x128, 2.9e-11 for
    480x640 and 1.2e-10 for 1080x1920. Results are clipped to the window's
    value range, which holds every box mean, so a grid in [0, 1] pools into
    [0, 1] and a box whose window is constant returns that value exactly.
    """
    g = np.ascontiguousarray(grid, dtype=np.float64)
    if g.ndim != 2:
        raise ValueError("grid must be 2-D")
    b = _as_boxes(boxes)
    h, w = g.shape
    # First covered column/row and one past the last, clipped to the grid;
    # fmax/fmin map a NaN coordinate to an edge instead of propagating it.
    edges = np.fmin(np.fmax(np.ceil(b - 0.5), 0.0), [w, h, w, h]).astype(np.intp)
    j0, i0, j1, i1 = edges.T
    j1 = np.maximum(j1, j0)
    i1 = np.maximum(i1, i0)
    count = (j1 - j0) * (i1 - i0)
    out = np.full(b.shape[0], np.nan)
    if not count.any():
        return out
    top, left = i0.min(), j0.min()
    win = g[top : i1.max(), left : j1.max()]
    table = np.zeros((win.shape[0] + 1, win.shape[1] + 1), dtype=np.float64)
    table[1:, 1:] = win.cumsum(axis=0).cumsum(axis=1)
    i0, i1, j0, j1 = i0 - top, i1 - top, j0 - left, j1 - left
    total = table[i1, j1] - table[i0, j1] - table[i1, j0] + table[i0, j0]
    np.divide(total, count, out=out, where=count > 0)
    return np.clip(out, win.min(), win.max(), out=out)
