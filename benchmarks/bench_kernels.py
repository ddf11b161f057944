"""Timings of the box-geometry kernels.

Run as ``python benchmarks/bench_kernels.py``. ``iou_matrix`` is timed with
the NumPy kernel and, when it was built, the compiled one on identical
inputs, and the outputs are cross-checked before any number is reported.
Its shapes include those the pipeline benchmark's workloads run: 20x1 and
20x20, the mining column and the per-record proposal block refinement
caches at R=20, 2000x8, a target-assignment block at R=2000, and 18x2000,
the mining column at R=2000.

``nms`` and ``box_mean_pool`` have a single implementation. ``nms`` is
timed as one grouped call against one call per group, with equal keeps
checked first, at the shapes the pipeline runs: 1,250 groups of 20 boxes
(a class of dense-eval's evaluate, or its infer over 250 records of 5
classes) and one R=2000 record of 5 class groups (large-proposals' infer).
"""

from __future__ import annotations

import time

import numpy as np

from wsodkit.kernels import _py

try:
    from wsodkit.kernels import _ext
except ImportError:
    _ext = None


def _boxes(rng: np.random.Generator, n: int, size: float = 128.0) -> np.ndarray:
    x1 = rng.uniform(0, size * 0.8, n)
    y1 = rng.uniform(0, size * 0.8, n)
    w = rng.uniform(2, size * 0.4, n)
    h = rng.uniform(2, size * 0.4, n)
    return np.stack([x1, y1, x1 + w, y1 + h], axis=1)


def _time(fn, *args, repeat: int = 5) -> float:
    best = float("inf")
    for _ in range(repeat):
        t0 = time.perf_counter()
        fn(*args)
        best = min(best, time.perf_counter() - t0)
    return best


def bench_iou(rng) -> list[tuple[str, float, float]]:
    rows = []
    shapes = ((20, 1), (20, 20), (2000, 8), (18, 2000), (64, 64), (256, 256), (1024, 1024))
    for n, m in shapes:
        a = _boxes(rng, n)
        b = _boxes(rng, m)
        ref = _py.iou_matrix(a, b)
        if _ext is not None:
            assert np.array_equal(_ext.iou_matrix(a, b), ref)
        rows.append(
            (
                f"iou_matrix {n}x{m}",
                _time(_py.iou_matrix, a, b),
                _time(_ext.iou_matrix, a, b) if _ext else float("nan"),
            )
        )
    return rows


def bench_nms(rng) -> list[tuple[str, float, float]]:
    rows = []
    for groups, n in ((1250, 20), (5, 2000)):
        # Every group holds the same boxes under its own scores, as the class
        # groups of one record do.
        boxes = np.tile(_boxes(rng, n), (groups, 1))
        scores = rng.uniform(0, 1, groups * n)
        ids = np.repeat(np.arange(groups), n)
        parts = [(boxes[g * n : (g + 1) * n], scores[g * n : (g + 1) * n])
                 for g in range(groups)]

        def per_group():
            return [_py.nms(b, s, 0.5) for b, s in parts]

        keep = _py.nms(boxes, scores, 0.5, ids)
        want = np.concatenate([k + g * n for g, k in enumerate(per_group())])
        assert np.array_equal(keep, want)
        one_call = _time(_py.nms, boxes, scores, 0.5, ids)
        rows.append((f"nms {groups}x{n}", _time(per_group), one_call))
    return rows


def _table(title, columns, rows) -> None:
    """Best-of-5 times per row and how many times faster the second column is."""
    width = max(len(title), *(len(r[0]) for r in rows))
    print(f"{title:<{width}}  {columns[0]:>10}  {columns[1]:>10}  {'speedup':>8}")
    for name, t_a, t_b in rows:
        ratio = t_a / t_b if t_b == t_b and t_b > 0 else float("nan")
        print(
            f"{name:<{width}}  {t_a * 1e3:>8.3f}ms  {t_b * 1e3:>8.3f}ms  {ratio:>7.1f}x"
        )


def main() -> None:
    rng = np.random.default_rng(7)
    if _ext is None:
        print("compiled backend unavailable; timing the numpy iou_matrix only\n")
    _table("kernel", ("numpy", "compiled"), bench_iou(rng))
    print()
    _table("nms groups x boxes", ("per group", "one call"), bench_nms(rng))


if __name__ == "__main__":
    main()
