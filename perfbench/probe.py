"""CPU-speed probe, to express stage times at a reference CPU speed.

On a shared host the speed of a CPU changes with what other tenants run,
by up to half within seconds and for tens of seconds at a time. So the
wall time of the same work differs from run to run far more than any
change worth measuring. The probe is a second process pinned to the
benchmark's CPU. Every ``INTERVAL_S`` it runs a fixed kernel and records
the kernel's CPU seconds: how fast that CPU runs at that moment. An
interval of wall time then converts to reference seconds, the time it
would have taken at the speed where the kernel needs ``REFERENCE_S``.

    python3 perfbench/probe.py OUT_FILE

runs the probe until terminated or orphaned, appending ``<monotonic time>
<kernel CPU seconds>`` per sample to OUT_FILE.
"""

from __future__ import annotations

import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

INTERVAL_S = 0.04
# Kernel CPU seconds at the reference speed: the kernel's typical time on
# the 2-vCPU Xeon machine this benchmark was tuned on, so that reference
# seconds read close to wall seconds there.
REFERENCE_S = 4.0e-4


def kernel(x, w) -> None:
    """Tiny NumPy calls driven from Python, like the train loop's."""
    for _ in range(30):
        y = x @ w
        y = np.exp(y - y.max(axis=0))
        y /= y.sum(axis=0)


def main(path: str) -> None:
    rng = np.random.default_rng(0)
    x, w = rng.random((20, 32)), rng.random((32, 5))
    parent = os.getppid()
    with open(path, "w", encoding="utf-8", buffering=1) as out:
        # Runs until terminated, or until the benchmark that started it is gone.
        while os.getppid() == parent:
            # The first pass refills the caches the benchmark evicted, so
            # the timed pass sees the CPU's speed, not the benchmark's data.
            kernel(x, w)
            c0 = time.process_time()
            kernel(x, w)
            c1 = time.process_time()
            out.write(f"{time.perf_counter()!r} {c1 - c0!r}\n")
            time.sleep(INTERVAL_S)


class SpeedProbe:
    """Runs the probe beside this process, both pinned to one CPU.

    Use as a context manager around everything that is timed; convert
    intervals with ``reference_s`` after it has exited.
    """

    def __init__(self, out_file: Path) -> None:
        self.out_file = out_file
        self.samples: np.ndarray | None = None

    def __enter__(self) -> "SpeedProbe":
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
        self.proc = subprocess.Popen(
            [sys.executable, str(Path(__file__).resolve()), str(self.out_file)]
        )
        deadline = time.monotonic() + 30.0
        while not self._has_samples():
            if self.proc.poll() is not None or time.monotonic() > deadline:
                self._stop()
                raise RuntimeError("speed probe produced no samples")
            time.sleep(0.05)
        return self

    def __exit__(self, *exc) -> None:
        self._stop()
        self.samples = np.loadtxt(self.out_file, ndmin=2)

    def _has_samples(self) -> bool:
        return self.out_file.exists() and self.out_file.stat().st_size > 0

    def _stop(self) -> None:
        self.proc.terminate()
        try:
            self.proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()

    def reference_s(self, start: float, end: float) -> float:
        """Wall interval [start, end] in seconds at the reference speed."""
        t, cpu = self.samples[:, 0], self.samples[:, 1]
        inside = cpu[(t >= start) & (t <= end + INTERVAL_S)]
        if inside.size == 0:
            inside = cpu[np.argmin(np.abs(t - end))][None]
        return (end - start) * REFERENCE_S / float(inside.mean())


if __name__ == "__main__":
    main(sys.argv[1])
