"""NumPy box-geometry kernels.

``iou_matrix`` and ``nms`` are the fallbacks for the compiled extension
``wsodkit.kernels._ext`` and must give identical results; the test suite
runs both backends side by side, so keep the formulas in sync with the
.pyx file. ``box_mean_pool`` exists only here and serves either backend.

Both IoU users share one formula, ``_iou``. It builds the intersection
and union in two reused (n, m) buffers, with the same float operations in
the same order as a fresh broadcast per term, so it matches
``tests/reference.py`` bit for bit while allocating less.

``nms`` is greedy NMS taken ``NMS_BLOCK`` = 32 boxes at a time. The next
32 surviving boxes in score order form a head, and one head-by-head IoU
block settles which of them the greedy rule keeps: each kept row's
suppressed set is OR-ed into a Python-int bitset. The kept boxes then drop
the rest of the survivors in one kept-by-rest IoU block. Keeps equal those
of one IoU row per kept box, a loop that made ~15 NumPy calls per kept
box. A larger block makes fewer calls, but compares each kept box with
survivors that an earlier kept box of its head has already dropped. On
the NMS calls of the benchmark workloads (2-vCPU Xeon VM, NumPy 2.4,
medians of 7 rounds), 2000-box calls ran 2.05x faster than the per-box
loop at 32, 1.88x at 16, 1.80x at 64 and 1.50x at 128. 20-box calls, which
a head of 20 or more holds whole, ran 4.8x faster at 20 and 5.4x at 32
and above.
"""

import numpy as np


def _as_boxes(a):
    a = np.ascontiguousarray(a, dtype=np.float64)
    if a.ndim != 2 or a.shape[1] != 4:
        raise ValueError("boxes must have shape (n, 4)")
    return a


# Boxes per head block of ``nms``; the module docstring gives the timings.
NMS_BLOCK = 32


def _iou(a, b):
    """IoU of checked (n, 4) and (m, 4) float64 box arrays, as (n, m)."""
    iw = np.minimum(a[:, None, 2], b[None, :, 2])
    iw -= np.maximum(a[:, None, 0], b[None, :, 0])
    np.maximum(iw, 0.0, out=iw)
    ih = np.minimum(a[:, None, 3], b[None, :, 3])
    ih -= np.maximum(a[:, None, 1], b[None, :, 1])
    np.maximum(ih, 0.0, out=ih)
    iw *= ih
    inter = iw
    area_a = (a[:, 2] - a[:, 0]) * (a[:, 3] - a[:, 1])
    area_b = (b[:, 2] - b[:, 0]) * (b[:, 3] - b[:, 1])
    union = np.add(area_a[:, None], area_b[None, :], out=ih)
    union -= inter
    out = np.zeros_like(inter)
    np.divide(inter, union, out=out, where=inter > 0.0)
    return out


def iou_matrix(boxes_a, boxes_b):
    """Pairwise intersection-over-union between two box arrays.

    Boxes are ``[x1, y1, x2, y2]`` in continuous coordinates; area is
    ``(x2 - x1) * (y2 - y1)`` with no +1 offset. Disjoint pairs score 0.
    """
    return _iou(_as_boxes(boxes_a), _as_boxes(boxes_b))


def nms(boxes, scores, thresh):
    """Greedy non-maximum suppression.

    Returns indices of kept boxes in descending score order (ties keep the
    earlier input index). A box is suppressed when its IoU with an already
    kept box exceeds ``thresh``.
    """
    b = _as_boxes(boxes)
    s = np.ascontiguousarray(scores, dtype=np.float64)
    if s.ndim != 1 or s.shape[0] != b.shape[0]:
        raise ValueError("scores must have shape (n,)")
    rest = np.argsort(-s, kind="stable")
    keep = []
    while rest.size > 1:
        head, rest = rest[:NMS_BLOCK], rest[NMS_BLOCK:]
        # Row i of the head's own block, read as a little-endian bitset over
        # the head, holds the boxes that head box i suppresses once kept.
        over = _iou(b[head], b[head]) > thresh
        rows = np.packbits(over, axis=1, bitorder="little")
        width, bits = rows.shape[1], rows.tobytes()
        kept, suppressed = [], 0
        for i in range(head.size):
            if not suppressed >> i & 1:
                kept.append(i)
                row = bits[i * width : (i + 1) * width]
                suppressed |= int.from_bytes(row, "little")
        kept = head[kept]
        keep.extend(kept.tolist())
        if rest.size > 0:
            rest = rest[~(_iou(b[kept], b[rest]) > thresh).any(axis=0)]
    # A lone survivor is kept without an IoU call; many of the class groups
    # that reach NMS after infer's score floor hold one box.
    keep.extend(rest.tolist())
    return np.asarray(keep, dtype=np.int64)


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
