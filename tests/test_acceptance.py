"""Shipping gate: one timed check per release criterion.

Each test prints a single verdict line (run with ``-s`` to see them as
they happen; captured output shows them otherwise). The checks are
intentionally end-to-end and slightly redundant with the per-module unit
tests: the unit files pin individual contracts, this file pins the claims
the package ships on.
"""

import contextlib
import json
import math
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from wsodkit.contrastive import nce_chain
from wsodkit.data import Box
from wsodkit.evaluate import (
    IOU_GRID,
    Detection,
    Detections,
    average_precision,
    corloc,
    rank,
)
from wsodkit.fusion import FusionMode
from wsodkit.milhead import HeadParams, label_vector, mil_chain
from wsodkit.model import ModelDims, ModelParams
from wsodkit.priors import DepthRange, FrozenPriors, RunningMoments, estimate_priors
from wsodkit.refine import RefineBranch, refinement_chain
from wsodkit.synth import SyntheticConfig, generate_synthetic
from wsodkit.train import (
    ABLATION_ROWS,
    RunConfig,
    infer,
    mining_precision,
    resolve_labels,
    run_ablation,
    train,
)

from conftest import grad_span, make_record, random_boxes
from reference import all_point_ap, bare_mil_run, grad_check, top1_corloc

TESTS_DIR = Path(__file__).resolve().parent

UNIT_FILES = [
    "test_kernels.py",
    "test_numkit.py",
    "test_data.py",
    "test_milhead.py",
    "test_contrastive.py",
    "test_fusion.py",
    "test_synth.py",
    "test_priors.py",
    "test_refine.py",
    "test_evaluate.py",
    "test_model.py",
]


@pytest.fixture(autouse=True)
def clean_seed_env(monkeypatch):
    monkeypatch.delenv("WSOD_SEED", raising=False)


@contextlib.contextmanager
def verdict(name, budget_s=None):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"[acceptance] {name}: FAIL ({time.perf_counter() - start:.1f}s)")
        raise
    elapsed = time.perf_counter() - start
    print(f"[acceptance] {name}: PASS ({elapsed:.1f}s)")
    if budget_s is not None:
        assert elapsed < budget_s, f"{name} took {elapsed:.1f}s, budget {budget_s}s"


def synth_set(n, seed=0, **kw):
    cfg = SyntheticConfig(
        num_images=n,
        num_classes=3,
        proposals_per_image=8,
        feat_dim=8,
        image_size=64,
        **kw,
    )
    return generate_synthetic(cfg, seed=seed)


def test_criterion_1_equation_unit_suite():
    # Every worked example in the per-module suites, exact or to 1e-6,
    # inside the time budget. A clean subprocess keeps the timing honest.
    with verdict("criterion 1: equation unit suite", budget_s=10.0):
        proc = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider"]
            + [str(TESTS_DIR / f) for f in UNIT_FILES],
            cwd=TESTS_DIR.parent,
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]


def test_criterion_2_gradient_integrity():
    with verdict("criterion 2: gradient integrity", budget_s=30.0):
        worst = 0.0
        for seed in range(20):
            r = np.random.default_rng(seed)
            num_p = int(r.integers(2, 9))
            num_c = int(r.integers(2, 5))
            dim = int(r.integers(2, 9))
            batch = int(r.integers(1, 5))

            rgb = HeadParams.create("rgb", r, dim, num_c, 0.3)
            depth = HeadParams.create("depth", r, dim, num_c, 0.3)
            xv = r.standard_normal((num_p, dim))
            xd = r.standard_normal((num_p, dim))
            labels = set(r.choice(num_c, size=int(r.integers(1, num_c + 1)),
                                  replace=False).tolist())
            params = rgb.params() + depth.params()
            mil_grads = grad_span(params)

            def f_mil():
                [loss], _ = mil_chain(
                    [(xv[None], rgb), (xd[None], depth)],
                    label_vector(labels, num_c)[None],
                    grad_scale=1.0,
                    grads=mil_grads,
                )
                return loss

            worst = max(worst, grad_check(f_mil, params))

            from wsodkit.contrastive import ProjectionParams

            proj = ProjectionParams.create(r, dim, int(r.integers(2, 9)), 0.3,
                                           rho_init=0.37)
            pooled_r = r.standard_normal((batch, dim))
            pooled_d = r.standard_normal((batch, dim))

            def f_nce():
                return nce_chain(pooled_r, pooled_d, proj, grad_scale=1.0)

            worst = max(worst, grad_check(f_nce, proj.params()))

            rec = make_record(r, "g", num_proposals=num_p, num_classes=num_c,
                              feat_dim=dim)
            branch = RefineBranch.create(r, dim, num_c, 0.3)
            targets = r.integers(0, num_c + 1, size=num_p)
            weights = r.uniform(0.1, 1.0, size=num_p)
            ref_grads = grad_span(branch.params())

            def f_ref():
                [loss] = refinement_chain(rec.rgb_features[None], branch,
                                          targets[None], weights[None],
                                          grad_scale=1.0, grads=ref_grads)
                return loss

            worst = max(worst, grad_check(f_ref, branch.params()))
        assert worst < 1e-4, f"max relative error {worst:.3e}"


def test_criterion_3_identity_reductions(tmp_path):
    with verdict("criterion 3: identity reductions"):
        records, vocab = synth_set(50)

        # (a) zeroed depth heads: fused inference == rgb inference, bitwise.
        model = ModelParams.create(
            ModelDims(3, 8, 16), np.random.default_rng(3), init_scale=0.1
        )
        for p in model.depth_head.params():
            p.value[:] = 0.0
        rgb = infer(model, records, mode=FusionMode.RGB_ONLY, min_score=0.0)
        fused = infer(model, records, mode=FusionMode.FUSED, min_score=0.0)
        assert rgb == fused and len(rgb) > 0

        # (b) empty priors mask nothing, so each depth toggle added to the
        # contrastive-only run must leave the trained bytes unchanged.
        base = RunConfig(epochs=2, siamese_nce=True, min_score=0.0)
        blank = FrozenPriors({}, {})

        def run_to_bytes(cfg, priors, tag):
            m, rep = train(cfg, records, vocab, priors=priors)
            ck = tmp_path / f"{tag}.ckpt"
            m.save(ck)
            return ck.read_bytes(), [(e.mil, e.nce, e.refine) for e in rep.epochs]

        ref_bytes, ref_trace = run_to_bytes(base, None, "siamese")
        for toggle in ("depth_oicr", "depth_attention"):
            got_bytes, got_trace = run_to_bytes(
                base.with_updates(**{toggle: True}), blank, toggle
            )
            assert got_bytes == ref_bytes, toggle
            assert got_trace == ref_trace, toggle

        # (c) toggles off with zero side-loss weights reduces to a bare MIL
        # trainer written without any of the package machinery.
        cfg = RunConfig(epochs=3, lambda_nce=0.0, lambda_ref=0.0, seed=5)
        labels = resolve_labels(records, vocab, "stored")
        model, report = train(cfg, records, vocab)
        ref_params, ref_trace = bare_mil_run(cfg, records, labels, len(vocab))
        assert [e.mil for e in report.epochs] == ref_trace
        for key, param in (
            ("w_det", model.rgb_head.w_det),
            ("b_det", model.rgb_head.b_det),
            ("w_cls", model.rgb_head.w_cls),
            ("b_cls", model.rgb_head.b_cls),
        ):
            assert np.array_equal(param.value, ref_params[key]), key


def eval_scenario(seed):
    r = np.random.default_rng(seed)
    gts_by_image, dets = {}, []
    for i in range(int(r.integers(1, 6))):  # <= 5 images
        iid = f"i{i}"
        gts_by_image[iid] = random_boxes(r, int(r.integers(0, 5)))  # <= 4 GTs
        for _ in range(int(r.integers(0, 7))):  # <= 6 dets
            if len(gts_by_image[iid]) and r.uniform() < 0.5:
                base = gts_by_image[iid][int(r.integers(len(gts_by_image[iid])))]
                box = np.clip(base + r.normal(0, 3.0, size=4), 0.0, None)
                box[2] = max(box[2], box[0] + 1.0)
                box[3] = max(box[3], box[1] + 1.0)
            else:
                box = random_boxes(r, 1)[0]
            dets.append(Detection(iid, 0, Box(*box), float(r.uniform())))
    return dets, gts_by_image


def test_criterion_4_evaluator_oracle():
    with verdict("criterion 4: evaluator vs brute force"):
        usable = 0
        for seed in range(24):
            dets, gts = eval_scenario(seed)
            if sum(len(g) for g in gts.values()) == 0:
                continue
            usable += 1
            tps = []
            ranked = rank(Detections.from_rows(dets), gts)
            results = average_precision(ranked, IOU_GRID)
            fractions = corloc(ranked, IOU_GRID)
            for thresh, res, frac in zip(IOU_GRID, results, fractions):
                tps.append(res.tp)
                # Same sum, different grouping: envelope integration vs the
                # per-recall max, so agreement is to the last couple of ulps.
                assert res.ap == pytest.approx(
                    all_point_ap(dets, gts, thresh), abs=1e-12
                ), (seed, thresh)
                assert frac == top1_corloc(dets, gts, thresh), (seed, thresh)
            assert all(a >= b for a, b in zip(tps, tps[1:])), seed
        assert usable >= 20


def test_criterion_5_prior_statistics():
    with verdict("criterion 5: prior statistics"):
        r = np.random.default_rng(11)
        values = r.uniform(size=100_000)
        halves = [RunningMoments(), RunningMoments()]
        for acc, part in zip(halves, np.split(values, 2)):
            for v in part:
                acc.add(float(v))
        m = halves[0]
        m.merge(halves[1])
        assert m.mean() == pytest.approx(float(values.mean()), abs=1e-9)
        assert m.std() == pytest.approx(float(values.std()), abs=1e-9)

        sample = np.random.default_rng(12).uniform(size=10_000)
        s = RunningMoments()
        for v in sample:
            s.add(float(v))
        rng_band = DepthRange(s.mean() - s.std(), s.mean() + s.std())
        covered = np.mean(
            [(rng_band.lo <= v <= rng_band.hi) for v in sample]
        )
        assert covered == pytest.approx(math.sqrt(1.0 / 3.0), abs=0.05)


def test_criterion_6_depth_priors_help():
    # Desk-scale analogue of the headline claim: with informative depth and
    # 30% label noise, the full configuration mines cleaner pseudo boxes
    # and scores strictly higher mAP@0.5 than the bare MIL ladder rung.
    with verdict("criterion 6: depth priors help under label noise",
                 budget_s=300.0):
        data_cfg = SyntheticConfig(label_noise=0.3)  # stock N=500 C=5 R=20
        records, vocab = generate_synthetic(data_cfg, seed=7)

        base_cfg = RunConfig(epochs=12, seed=7, min_score=0.0)
        base_model, base_report = train(base_cfg, records, vocab)
        assert base_report.eval_report is not None

        dets = infer(base_model, records, min_score=0.0)
        _, frozen, coverage = estimate_priors(
            records, dets, score_threshold=0.05, min_count_word=2
        )
        assert coverage.accepted > 0 and len(frozen.by_class) > 0

        amp_cfg = base_cfg.with_updates(
            siamese_nce=True,
            fusion=True,
            depth_oicr=True,
            depth_attention=True,
            inference_mode="fused",
        )
        amp_model, amp_report = train(amp_cfg, records, vocab, priors=frozen)

        base_mining = mining_precision(base_model, records, vocab, base_cfg)
        amp_mining = mining_precision(
            amp_model, records, vocab, amp_cfg, priors=frozen
        )
        print(
            f"  mining precision {base_mining.precision:.3f} -> "
            f"{amp_mining.precision:.3f}, "
            f"mAP@0.5 {base_report.eval_report.map50:.3f} -> "
            f"{amp_report.eval_report.map50:.3f}"
        )
        assert amp_mining.precision >= base_mining.precision
        assert amp_report.eval_report.map50 > base_report.eval_report.map50


def test_criterion_7_determinism(tmp_path):
    with verdict("criterion 7: byte-identical reruns"):
        records, vocab = synth_set(40, seed=2)
        priors = FrozenPriors(
            {0: DepthRange(0.0, 0.5), 1: DepthRange(0.3, 0.9),
             2: DepthRange(0.1, 0.7)},
            {},
        )
        cfg = RunConfig(
            epochs=3,
            siamese_nce=True,
            fusion=True,
            depth_oicr=True,
            depth_attention=True,
            min_score=0.0,
        )
        blobs = []
        for tag in ("first", "second"):
            model, report = train(cfg, records, vocab, priors=priors)
            ck, rp = tmp_path / f"{tag}.ckpt", tmp_path / f"{tag}.json"
            model.save(ck)
            report.save(rp)
            blobs.append((ck.read_bytes(), rp.read_bytes()))
        assert blobs[0] == blobs[1]


def test_criterion_8_ablation_structure():
    with verdict("criterion 8: ablation table structure"):
        records, vocab = synth_set(16, seed=4)
        cfg = RunConfig(epochs=1, min_score=0.0)
        first = run_ablation(cfg, records, vocab, priors=FrozenPriors({}, {}))
        second = run_ablation(cfg, records, vocab, priors=FrozenPriors({}, {}))
        assert [name for name, _, _ in first.rows] == [
            name for name, _ in ABLATION_ROWS
        ]
        assert len(first.rows) == 6
        assert json.dumps(first.to_json(), sort_keys=True) == json.dumps(
            second.to_json(), sort_keys=True
        )
