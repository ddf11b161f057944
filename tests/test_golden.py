"""Output digests of the shrunk benchmark workloads, pinned per machine.

Every performance change must leave the program's output bytes alone, and
a change that moves them on purpose must say so. This test runs the shrunk
workloads that ``test_bench_hooks.py`` traces (``SHRUNK_WORKLOADS``)
through ``perfbench/pipeline.py`` at seeds 0 and 7 and compares the
SHA-256 digests of their checkpoints, detections, priors and evaluation
report with pinned values.

Matmul bits can depend on the BLAS kernel the CPU selects, so the pinned
values are keyed by the NumPy version and the OpenBLAS core that
``numpy.show_config`` reports. On a key that has none, the test skips and
its reason gives the digests to pin. A change that moves a digest on
purpose updates the pinned value and records the old and new values in
``CHANGES.md``.
"""

import dataclasses
import gc
import re

import numpy as np
import pytest

from conftest import SHRUNK_WORKLOADS, perfbench_module

SEEDS = (0, 7)

# (numpy version, OpenBLAS core) -> (workload, seed) -> part -> digest.
PINNED = {
    ("2.4.6", "Haswell"): {
        ("dense-eval", 0): {
            "checkpoint": "b58b62d180632de5",
            "detections": "1e973c5e3b9ed461",
            "priors": "6d6633e26d9f99a0",
            "eval_report": "f975e99ca8e4bd09",
            "all": "6d926b1a09079c3a",
        },
        ("dense-eval", 7): {
            "checkpoint": "be05b4d4f29ba1fe",
            "detections": "a34b63103d3c29c6",
            "priors": "5c24da68eeb2abfa",
            "eval_report": "dc312d64869fe957",
            "all": "1f96e0c04ae0a430",
        },
        ("large-proposals", 0): {
            "checkpoint": "4b798440b89c4ae0",
            "detections": "8ae7feb967e9f3fc",
            "priors": "0977a6cf5dcfcf0e",
            "all": "41e5ee22e43cc8b6",
        },
        ("large-proposals", 7): {
            "checkpoint": "da39b4526ab576c7",
            "detections": "2ec738c49af0d083",
            "priors": "c3d8a1008b202ad4",
            "all": "8532e737a072c16b",
        },
    },
}


def machine_key() -> tuple[str, str]:
    """The NumPy version and the OpenBLAS core from ``numpy.show_config``.

    The core is the word before ``MAX_THREADS`` in OpenBLAS's configuration
    string; without one, the whole string (or the BLAS name) stands in.
    """
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    config = blas.get("openblas configuration") or blas.get("name", "unknown")
    core = re.search(r"(\S+)\s+MAX_THREADS", config)
    return np.__version__, core.group(1) if core else config


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("workload", list(SHRUNK_WORKLOADS))
def test_digests_match_pinned(workload, seed, monkeypatch, tmp_path):
    workloads = perfbench_module("workloads", monkeypatch)
    pipeline = perfbench_module("pipeline", monkeypatch)
    monkeypatch.delenv("WSOD_SEED", raising=False)
    # The pipeline collects garbage before each stage to time it cleanly;
    # nothing here is timed, and a full collection costs tens of ms inside
    # a test session.
    monkeypatch.setattr(gc, "collect", lambda *args: 0)
    w = dataclasses.replace(workloads.WORKLOADS[workload], **SHRUNK_WORKLOADS[workload])
    inputs = workloads.write_inputs(w, seed, tmp_path)
    vocab, records = pipeline.setup(inputs)
    counter = pipeline.Counter()
    result = pipeline.Pipeline(w, vocab, records, tmp_path, counter).run()
    assert counter.failed == 0
    got = pipeline.digest(result.outputs, tmp_path)
    key = machine_key()
    if key not in PINNED:
        print(f"{key} {workload} seed {seed}: {got}")
        pytest.skip(f"no digests pinned for {key}; to pin: {got}")
    assert got == PINNED[key][(workload, seed)]
