"""Timing comparison between the compiled kernels and the numpy fallback.

Run as ``python benchmarks/bench_kernels.py``. ``iou_matrix`` and ``nms``
are timed on a few sizes with both backends on identical inputs, and the
outputs are cross-checked before any number is reported. The sizes include
the shapes the pipeline benchmark's workloads run: ``nms`` over a 20-box
class group (R=20) and a 2000-box one (R=2000), and ``iou_matrix`` at 20x1
and 20x20, the mining column and the per-record proposal block refinement
caches at R=20, at 2000x8, a target-assignment block at R=2000, and at
18x2000, the mining column at R=2000.
``box_mean_pool`` has a single implementation, so there is nothing to
compare it against.
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
            assert np.allclose(_ext.iou_matrix(a, b), ref, atol=1e-12)
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
    for n in (20, 256, 1024, 2000, 4096):
        boxes = _boxes(rng, n)
        scores = rng.uniform(0, 1, n)
        ref = _py.nms(boxes, scores, 0.5)
        if _ext is not None:
            assert np.array_equal(_ext.nms(boxes, scores, 0.5), ref)
        rows.append(
            (
                f"nms {n}",
                _time(_py.nms, boxes, scores, 0.5),
                _time(_ext.nms, boxes, scores, 0.5) if _ext else float("nan"),
            )
        )
    return rows


def main() -> None:
    rng = np.random.default_rng(7)
    if _ext is None:
        print("compiled backend unavailable; timing the numpy fallback only\n")
    rows = bench_iou(rng) + bench_nms(rng)
    width = max(len(r[0]) for r in rows)
    print(f"{'kernel':<{width}}  {'numpy':>10}  {'compiled':>10}  {'speedup':>8}")
    for name, t_py, t_ext in rows:
        ratio = t_py / t_ext if t_ext == t_ext and t_ext > 0 else float("nan")
        print(
            f"{name:<{width}}  {t_py * 1e3:>8.3f}ms  {t_ext * 1e3:>8.3f}ms  "
            f"{ratio:>7.1f}x"
        )


if __name__ == "__main__":
    main()
