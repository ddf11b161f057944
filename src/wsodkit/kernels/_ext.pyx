# cython: boundscheck=False, wraparound=False, cdivision=True
"""Compiled box-geometry kernel: pairwise IoU.

Must stay bitwise identical to wsodkit.kernels._py.iou_matrix. The module
_py also holds the one nms and the one box_mean_pool, which serve both
backends.
"""

import numpy as np

cimport numpy as cnp

cnp.import_array()


cdef cnp.ndarray[cnp.float64_t, ndim=2] _as_boxes(object a):
    arr = np.ascontiguousarray(a, dtype=np.float64)
    if arr.ndim != 2 or arr.shape[1] != 4:
        raise ValueError("boxes must have shape (n, 4)")
    return arr


def iou_matrix(object boxes_a, object boxes_b):
    """Pairwise IoU between (n, 4) and (m, 4) box arrays; disjoint pairs score 0."""
    cdef cnp.ndarray[cnp.float64_t, ndim=2] a = _as_boxes(boxes_a)
    cdef cnp.ndarray[cnp.float64_t, ndim=2] b = _as_boxes(boxes_b)
    cdef Py_ssize_t n = a.shape[0], m = b.shape[0]
    cdef cnp.ndarray[cnp.float64_t, ndim=2] out = np.zeros((n, m), dtype=np.float64)
    cdef Py_ssize_t i, j
    cdef double ax1, ay1, ax2, ay2, area_a
    cdef double ix1, iy1, ix2, iy2, iw, ih, inter
    for i in range(n):
        ax1 = a[i, 0]; ay1 = a[i, 1]; ax2 = a[i, 2]; ay2 = a[i, 3]
        area_a = (ax2 - ax1) * (ay2 - ay1)
        for j in range(m):
            ix1 = max(ax1, b[j, 0])
            iy1 = max(ay1, b[j, 1])
            ix2 = min(ax2, b[j, 2])
            iy2 = min(ay2, b[j, 3])
            iw = max(ix2 - ix1, 0.0)
            ih = max(iy2 - iy1, 0.0)
            inter = iw * ih
            if inter > 0.0:
                out[i, j] = inter / (
                    area_a + (b[j, 2] - b[j, 0]) * (b[j, 3] - b[j, 1]) - inter
                )
    return out
