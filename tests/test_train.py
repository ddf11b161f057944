"""Training loop, config plumbing, inference, mining, ablation."""

import importlib
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from wsodkit import contrastive, fusion, milhead, refine
from wsodkit.data import Box, ClassVocabulary
from wsodkit.errors import CheckpointError, ConfigError, DataError
from wsodkit.fusion import FusionMode
from wsodkit.evaluate import DEFAULT_NMS_THRESH, Detections
from wsodkit.model import DEFAULT_INIT_SCALE, ModelDims, ModelParams
from wsodkit.priors import DepthRange, FrozenPriors, depth_mask, estimate_priors
from wsodkit.synth import SyntheticConfig, generate_synthetic
from wsodkit.train import (
    ABLATION_ROWS,
    CONFIG_ALIASES,
    MAX_EPOCHS,
    MAX_PROJ_DIM,
    TOGGLE_NAMES,
    MiningReport,
    RunConfig,
    check_features,
    infer,
    mining_precision,
    resolve_labels,
    run_ablation,
    train,
)

from conftest import make_record
from reference import bare_mil_run, infer_candidates, iou

# The module itself: the package exports its ``train`` function by that name.
TRAIN = importlib.import_module("wsodkit.train")


def tiny_config(**kw):
    base = dict(epochs=2, nce_batch=4, min_score=0.0)
    base.update(kw)
    return RunConfig(**base)


@pytest.fixture
def small_data():
    cfg = SyntheticConfig(
        num_images=16,
        num_classes=3,
        proposals_per_image=6,
        feat_dim=8,
        image_size=64,
        max_objects=2,
    )
    return generate_synthetic(cfg, seed=0)


@pytest.fixture(autouse=True)
def clean_seed_env(monkeypatch):
    monkeypatch.delenv("WSOD_SEED", raising=False)


class TestRunConfig:
    def test_defaults_valid(self):
        RunConfig().validate()

    def test_defaults_name_module_constants(self):
        # Each default is the module's constant object itself, not a copy of
        # its value, so the two cannot drift apart.
        cfg = RunConfig()
        assert cfg.refine_iou_thresh is refine.DEFAULT_IOU_THRESH
        assert cfg.refine_score_ratio is refine.DEFAULT_SCORE_RATIO
        assert cfg.attention_multiplier is refine.ATTENTION_MULTIPLIER
        assert cfg.init_scale is DEFAULT_INIT_SCALE
        assert cfg.nms_thresh is DEFAULT_NMS_THRESH

    @pytest.mark.parametrize(
        "kw",
        [
            dict(epochs=-1),
            dict(learning_rate=0.0),
            dict(learning_rate=float("nan")),
            dict(momentum=1.0),
            dict(momentum=-0.1),
            dict(lambda_mil=-1.0),
            dict(lambda_nce=float("nan")),
            dict(nce_batch=0),
            dict(proj_dim=0),
            dict(lambda_ref=-1.0),
            dict(refine_iou_thresh=1.5),
            dict(min_score=1.0),
            dict(min_score=float("nan")),
            dict(nms_thresh=float("nan")),
            dict(seed=-3),
            dict(rho_init=0.0),
            dict(init_scale=-1.0),
            dict(rho_init=float("nan")),
            dict(init_scale=float("inf")),
            dict(label_source="oracle"),
            dict(inference_mode="both"),
            dict(epochs=10**300),
            dict(proj_dim=10**12),
            dict(epochs=MAX_EPOCHS + 1),
            dict(proj_dim=MAX_PROJ_DIM + 1),
            dict(epochs=2.5),
            dict(epochs=True),
            dict(nce_batch=8.0),
            dict(proj_dim=False),
            dict(seed=1.5),
            dict(seed="3"),
            dict(seed=np.int64(3)),
            dict(fusion="no"),
            dict(siamese_nce=1),
            dict(learning_rate="0.1"),
            dict(min_score="0.1"),
            dict(momentum=True),
            dict(attention_multiplier=None),
            dict(label_source=b"gt"),
            dict(inference_mode=None),
        ],
    )
    def test_bad_values_rejected(self, kw):
        with pytest.raises(ConfigError):
            RunConfig(**kw).validate()

    def test_int_accepted_for_float_fields(self):
        RunConfig(learning_rate=1, momentum=0, min_score=0).validate()

    def test_ceilings_accepted(self):
        RunConfig(epochs=MAX_EPOCHS, proj_dim=MAX_PROJ_DIM).validate()

    def test_from_sources_file_and_overrides(self, tmp_path):
        p = tmp_path / "cfg.json"
        p.write_text(
            json.dumps({"epochs": 5, "siamese_nce": True, "lr": 0.2}),
            encoding="utf-8",
        )
        cfg = RunConfig.from_sources(p, ["epochs=7", "fusion=true"])
        assert cfg.epochs == 7  # override wins over the file
        assert cfg.siamese_nce is True
        assert cfg.fusion is True
        assert cfg.learning_rate == 0.2

    @pytest.mark.parametrize(
        "alias,field,value,expected",
        [
            ("lr", "learning_rate", "0.5", 0.5),
            ("refine.iou_thresh", "refine_iou_thresh", "0.6", 0.6),
            ("refine.score_ratio", "refine_score_ratio", "0.3", 0.3),
            ("attention.enabled", "depth_attention", "true", True),
            ("attention.multiplier", "attention_multiplier", "0.4", 0.4),
            ("mining.depth_filter", "depth_oicr", "on", True),
            ("nce.batch", "nce_batch", "16", 16),
            ("priors.use_captions", "caption_priors", "0", False),
        ],
    )
    def test_aliases(self, alias, field, value, expected):
        cfg = RunConfig.from_sources(None, [f"{alias}={value}"])
        assert getattr(cfg, field) == expected

    def test_readme_lists_every_alias(self):
        # The README's alias table is the user-facing copy of CONFIG_ALIASES.
        readme = Path(__file__).parents[1] / "README.md"
        text = readme.read_text(encoding="utf-8")
        section = text.split("## Configuration")[1].split("\n## ")[0]
        rows = re.findall(r"^\| `([^`]+)` \| `([^`]+)` \|$", section, re.M)
        assert dict(rows) == CONFIG_ALIASES
        assert len(rows) == len(CONFIG_ALIASES)

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="warp_speed"):
            RunConfig.from_sources(None, ["warp_speed=9"])

    def test_bad_value_rejected(self):
        with pytest.raises(ConfigError):
            RunConfig.from_sources(None, ["epochs=three"])
        with pytest.raises(ConfigError):
            RunConfig.from_sources(None, ["fusion=maybe"])
        with pytest.raises(ConfigError):
            RunConfig.from_sources(None, ["epochs"])

    def test_missing_config_file(self, tmp_path):
        with pytest.raises(ConfigError):
            RunConfig.from_sources(tmp_path / "none.json")

    def test_malformed_config_file(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text("[1, 2]", encoding="utf-8")
        with pytest.raises(ConfigError):
            RunConfig.from_sources(p)

    def test_env_seed_override(self, monkeypatch):
        cfg = RunConfig(seed=3)
        assert cfg.resolved_seed() == 3
        monkeypatch.setenv("WSOD_SEED", "41")
        assert cfg.resolved_seed() == 41
        monkeypatch.setenv("WSOD_SEED", "x")
        with pytest.raises(ConfigError):
            cfg.resolved_seed()
        monkeypatch.setenv("WSOD_SEED", "-1")
        with pytest.raises(ConfigError, match="WSOD_SEED"):
            cfg.resolved_seed()

    def test_with_updates_validates(self):
        cfg = RunConfig()
        assert cfg.with_updates(epochs=9).epochs == 9
        with pytest.raises(ConfigError):
            cfg.with_updates(epochs=-2)

    def test_to_json_round_trips(self):
        cfg = RunConfig(siamese_nce=True, lambda_nce=0.5)
        again = RunConfig(**cfg.to_json())
        assert again == cfg


class TestResolveLabels:
    def test_stored(self, rng, small_vocab):
        recs = [make_record(rng, "a", labels={0, 2})]
        assert resolve_labels(recs, small_vocab, "stored") == [{0, 2}]

    def test_gt(self, rng, small_vocab):
        recs = [make_record(rng, "a", with_gt=True)]
        assert resolve_labels(recs, small_vocab, "gt") == [{0, 1}]

    def test_captions(self, rng, small_vocab):
        recs = [make_record(rng, "a", caption="two birds and a dog")]
        assert resolve_labels(recs, small_vocab, "captions") == [{0, 2}]

    def test_missing_stored_rejected(self, rng, small_vocab):
        recs = [make_record(rng, "a", labels=None)]
        with pytest.raises(DataError, match="no stored labels"):
            resolve_labels(recs, small_vocab, "stored")

    def test_missing_gt_rejected(self, rng, small_vocab):
        recs = [make_record(rng, "a", with_gt=False)]
        with pytest.raises(DataError):
            resolve_labels(recs, small_vocab, "gt")

    def test_missing_caption_rejected(self, rng, small_vocab):
        recs = [make_record(rng, "a", caption=None)]
        with pytest.raises(DataError):
            resolve_labels(recs, small_vocab, "captions")

    def test_all_empty_rejected(self, rng, small_vocab):
        recs = [make_record(rng, "a", caption="nothing to see")]
        with pytest.raises(DataError, match="no image carries any label"):
            resolve_labels(recs, small_vocab, "captions")

    def test_check_features_mismatch(self, rng):
        recs = [
            make_record(rng, "a", feat_dim=8),
            make_record(rng, "b", feat_dim=9),
        ]
        with pytest.raises(DataError, match="feature dim"):
            check_features(recs)

    def test_empty_record_list_says_so(self, rng, small_vocab):
        # An empty list has no feature dims to disagree on.
        model = ModelParams.create(ModelDims(3, 8, 4), rng)
        with pytest.raises(DataError, match="^no records were given$"):
            train(tiny_config(), [], small_vocab)
        with pytest.raises(DataError, match="^no records were given$"):
            infer(model, [])


class TestTrainBasics:
    def test_epochs_recorded_and_eval_present(self, small_data):
        records, vocab = small_data
        cfg = tiny_config(epochs=3)
        model, report = train(cfg, records, vocab)
        assert len(report.epochs) == 3
        assert report.eval_report is not None
        assert report.seed == 0
        assert report.config == cfg.to_json()
        assert report.wall_time_s > 0.0

    def test_no_gt_no_eval(self, rng, small_vocab):
        recs = [
            make_record(rng, f"i{k}", labels={k % 3}, with_gt=False)
            for k in range(6)
        ]
        _, report = train(tiny_config(epochs=1), recs, small_vocab)
        assert report.eval_report is None

    def test_zero_epochs(self, small_data):
        records, vocab = small_data
        model, report = train(tiny_config(epochs=0), records, vocab)
        assert report.epochs == []
        assert report.eval_report is not None

    def test_depth_toggles_require_priors(self, small_data):
        records, vocab = small_data
        with pytest.raises(ConfigError, match="priors"):
            train(tiny_config(depth_oicr=True), records, vocab)
        with pytest.raises(ConfigError, match="priors"):
            train(tiny_config(depth_attention=True), records, vocab)

    def test_total_is_weighted_sum(self, small_data):
        records, vocab = small_data
        cfg = tiny_config(
            epochs=1,
            siamese_nce=True,
            lambda_mil=2.0,
            lambda_nce=0.5,
            lambda_ref=0.25,
        )
        _, report = train(cfg, records, vocab)
        e = report.epochs[0]
        assert e.total == pytest.approx(
            2.0 * e.mil + 0.5 * e.nce + 0.25 * e.refine, abs=1e-12
        )
        assert e.nce != 0.0 and e.refine != 0.0

    def test_report_save_round_trip(self, small_data, tmp_path):
        records, vocab = small_data
        _, report = train(tiny_config(epochs=1), records, vocab)
        p = tmp_path / "report.json"
        report.save(p)
        obj = json.loads(p.read_text(encoding="utf-8"))
        assert obj["seed"] == 0
        assert len(obj["epochs"]) == 1
        assert "wall_time_s" not in obj
        assert obj["eval"]["map50"] is not None

    def test_env_seed_reaches_report(self, small_data, monkeypatch):
        records, vocab = small_data
        monkeypatch.setenv("WSOD_SEED", "123")
        _, report = train(tiny_config(epochs=0), records, vocab)
        assert report.seed == 123


class TestDeterminismAndReductions:
    def test_repeat_runs_byte_identical(self, small_data, tmp_path):
        records, vocab = small_data
        cfg = tiny_config(epochs=2, siamese_nce=True, fusion=True)
        out = []
        for name in ("a", "b"):
            model, report = train(cfg, records, vocab)
            ck = tmp_path / f"{name}.ckpt"
            rp = tmp_path / f"{name}.json"
            model.save(ck)
            report.save(rp)
            out.append((ck.read_bytes(), rp.read_bytes()))
        assert out[0][0] == out[1][0]
        assert out[0][1] == out[1][1]

    def test_saved_priors_train_like_in_memory_priors(self, small_data, tmp_path):
        records, vocab = small_data
        baseline, _ = train(tiny_config(), records, vocab)
        dets = infer(baseline, records, min_score=0.0)
        stats, frozen, _ = estimate_priors(
            records, dets, score_threshold=0.0, min_count_word=1
        )
        stats.save(tmp_path / "priors.json")
        loaded = FrozenPriors.load(tmp_path / "priors.json")
        assert loaded.by_class == frozen.by_class
        assert loaded.by_class_word == frozen.by_class_word
        cfg = tiny_config(depth_oicr=True, depth_attention=True)
        for name, priors in (("memory", frozen), ("file", loaded)):
            model, _ = train(cfg, records, vocab, priors=priors)
            model.save(tmp_path / f"{name}.ckpt")
        memory = (tmp_path / "memory.ckpt").read_bytes()
        assert memory == (tmp_path / "file.ckpt").read_bytes()

    def test_lambda_nce_zero_equals_toggle_off(self, small_data):
        records, vocab = small_data
        m1, _ = train(
            tiny_config(epochs=2, siamese_nce=True, lambda_nce=0.0),
            records,
            vocab,
        )
        m2, _ = train(tiny_config(epochs=2, siamese_nce=False), records, vocab)
        for a, b in zip(m1.params(), m2.params()):
            assert np.array_equal(a.value, b.value), a.name

    @pytest.mark.parametrize("nce", [True, False])
    def test_features_pooled_once_per_run(self, small_data, monkeypatch, nce):
        # Proposal features are frozen, so each record is pooled once per
        # modality however many epochs run.
        records, vocab = small_data
        pool = contrastive.pool_features
        calls = []
        monkeypatch.setattr(
            contrastive, "pool_features", lambda f: calls.append(1) or pool(f)
        )
        train(tiny_config(epochs=3, siamese_nce=nce), records, vocab)
        assert len(calls) == (2 * len(records) if nce else 0)

    @pytest.mark.parametrize(
        "toggles",
        [{}, {"siamese_nce": True, "fusion": True}, {"depth_oicr": True},
         {"depth_attention": True}],
    )
    def test_depth_masks_built_only_when_read(
        self, small_data, monkeypatch, tmp_path, toggles
    ):
        # Only depth mining and depth attention read the masks; without
        # them, priors change nothing, and no mask is built.
        records, vocab = small_data
        priors = FrozenPriors({0: DepthRange(0.2, 0.7), 2: DepthRange(0.5, 1.0)}, {})
        real = TRAIN.depth_mask
        calls = []
        monkeypatch.setattr(
            TRAIN, "depth_mask", lambda *a, **k: calls.append(1) or real(*a, **k)
        )
        cfg = tiny_config(**toggles)
        model, _ = train(cfg, records, vocab, priors=priors)
        read = cfg.depth_oicr or cfg.depth_attention
        assert len(calls) == (len(records) if read else 0)
        if not read:
            bare, _ = train(cfg, records, vocab)
            model.save(tmp_path / "priors.ckpt")
            bare.save(tmp_path / "bare.ckpt")
            bare_bytes = (tmp_path / "bare.ckpt").read_bytes()
            assert (tmp_path / "priors.ckpt").read_bytes() == bare_bytes

    def test_empty_priors_make_depth_toggles_inert(self, small_data):
        records, vocab = small_data
        empty = FrozenPriors({}, {})
        base = tiny_config(epochs=2, siamese_nce=True)
        m_ref, r_ref = train(base, records, vocab)
        for extra in (dict(depth_oicr=True), dict(depth_attention=True)):
            m, r = train(base.with_updates(**extra), records, vocab, priors=empty)
            for a, b in zip(m.params(), m_ref.params()):
                assert np.array_equal(a.value, b.value), a.name
            for ea, eb in zip(r.epochs, r_ref.epochs):
                assert ea.mil == eb.mil and ea.refine == eb.refine

    def test_bare_mil_matches_straight_line_reference(self, rng, small_vocab):
        # Toggles off with zero NCE/refinement weight must collapse, bit
        # for bit, to a plain MIL trainer that never builds the rest.
        recs = [
            make_record(rng, f"i{k}", num_proposals=5, feat_dim=8, labels={k % 3})
            for k in range(11)
        ]
        cfg = tiny_config(
            epochs=3, nce_batch=4, lambda_nce=0.0, lambda_ref=0.0, seed=5
        )
        labels = resolve_labels(recs, small_vocab, "stored")
        model, report = train(cfg, recs, small_vocab)
        ref_params, ref_trace = bare_mil_run(cfg, recs, labels, len(small_vocab))
        assert [e.mil for e in report.epochs] == ref_trace
        assert np.array_equal(model.rgb_head.w_det.value, ref_params["w_det"])
        assert np.array_equal(model.rgb_head.b_det.value, ref_params["b_det"])
        assert np.array_equal(model.rgb_head.w_cls.value, ref_params["w_cls"])
        assert np.array_equal(model.rgb_head.b_cls.value, ref_params["b_cls"])
        # Everything else never received gradient.
        fresh = ModelParams.create(
            ModelDims(3, 8, cfg.proj_dim),
            np.random.default_rng(cfg.seed),
            init_scale=cfg.init_scale,
            rho_init=cfg.rho_init,
        )
        for a, b in zip(model.depth_head.params(), fresh.depth_head.params()):
            assert np.array_equal(a.value, b.value), a.name
        for a, b in zip(model.proj.params(), fresh.proj.params()):
            assert np.array_equal(a.value, b.value), a.name

    @pytest.mark.parametrize("attention", [False, True])
    def test_fused_mil_matches_straight_line_reference(
        self, rng, small_vocab, attention
    ):
        # Fusion adds the depth head's gradients in the same add_in_order
        # call as the RGB head's; attention scales the evidence. Mixed R
        # makes the stacks of one step come in several sizes.
        sizes = (5, 5, 5, 7, 7, 5, 5, 5, 5, 7, 5)
        recs = [
            make_record(rng, f"i{k}", num_proposals=r, feat_dim=8, labels={k % 3})
            for k, r in enumerate(sizes)
        ]
        priors = FrozenPriors({0: DepthRange(0.2, 0.7), 2: DepthRange(0.5, 1.0)}, {})
        cfg = tiny_config(
            epochs=3, nce_batch=4, lambda_ref=0.0, seed=5, fusion=True,
            depth_attention=attention,
        )
        labels = resolve_labels(recs, small_vocab, "stored")
        multipliers = None
        if attention:
            multipliers = [
                refine.attention_multipliers(
                    depth_mask(rec, priors, 3, use_caption=cfg.caption_priors),
                    cfg.attention_multiplier,
                )
                for rec in recs
            ]
            assert any((m != 1.0).any() for m in multipliers)
        model, report = train(cfg, recs, small_vocab, priors=priors)
        ref_params, ref_trace = bare_mil_run(
            cfg, recs, labels, len(small_vocab), attention=multipliers
        )
        assert [e.mil for e in report.epochs] == ref_trace
        heads = {"": model.rgb_head, "depth.": model.depth_head}
        fresh = ModelParams.create(
            ModelDims(3, 8, cfg.proj_dim),
            np.random.default_rng(cfg.seed),
            init_scale=cfg.init_scale,
            rho_init=cfg.rho_init,
        )
        for prefix, head in heads.items():
            for key in ("w_det", "b_det", "w_cls", "b_cls"):
                got = getattr(head, key).value
                assert got.tobytes() == ref_params[prefix + key].tobytes(), prefix + key
        moved = model.depth_head.w_det.value != fresh.depth_head.w_det.value
        assert moved.any()
        for a, b in zip(model.refine.params(), fresh.refine.params()):
            assert np.array_equal(a.value, b.value), a.name

    def test_stacked_step_matches_one_image_per_call(
        self, rng, small_vocab, monkeypatch, tmp_path
    ):
        # Consecutive same-R images of a step share one mil_chain call; the
        # run must write the bytes of a run that calls it once per image.
        sizes = (1, 2, 6, 11, 30) + (9,) * 10
        recs = [
            make_record(rng, f"i{k}", num_proposals=r, feat_dim=8, labels={k % 3})
            for k, r in enumerate(sizes)
        ]
        priors = FrozenPriors({0: DepthRange(0.2, 0.7), 2: DepthRange(0.5, 1.0)}, {})
        cfg = tiny_config(
            epochs=3, nce_batch=6, siamese_nce=True, fusion=True,
            depth_oicr=True, depth_attention=True,
        )
        stack_sizes = []
        chain = milhead.mil_chain

        def counted(streams, *args, **kwargs):
            stack_sizes.append(len(streams[0][0]))
            return chain(streams, *args, **kwargs)

        monkeypatch.setattr(milhead, "mil_chain", counted)
        runs = []
        for budget in (TRAIN.MIL_ROW_BUDGET, 1):
            monkeypatch.setattr(TRAIN, "MIL_ROW_BUDGET", budget)
            stack_sizes.clear()
            model, report = train(cfg, recs, small_vocab, priors=priors)
            model.save(tmp_path / "model.ckpt")
            epochs = [e.to_json() for e in report.epochs]
            ckpt = (tmp_path / "model.ckpt").read_bytes()
            runs.append((ckpt, epochs, max(stack_sizes)))
        (stacked_bytes, stacked_epochs, widest), (one_bytes, one_epochs, one) = runs
        assert widest > 1 and one == 1
        assert stacked_bytes == one_bytes
        assert stacked_epochs == one_epochs

    def test_stacked_refinement_matches_one_image_per_call(
        self, rng, small_vocab, monkeypatch, tmp_path
    ):
        # The labelled images of a same-R run share one refinement_chain
        # call; an unlabelled image and images above the IoU cache bound
        # ride along. The run must write
        # the bytes of a run that scores one image per call.
        big = refine.PAIR_IOU_MAX_R + 6
        sizes = (9,) * 8 + (big,) * 4 + (9,) * 6
        recs = [
            make_record(rng, f"i{k}", num_proposals=r, feat_dim=8, labels={k % 3})
            for k, r in enumerate(sizes)
        ]
        recs[2].labels = set()
        priors = FrozenPriors({0: DepthRange(0.2, 0.7), 2: DepthRange(0.5, 1.0)}, {})
        cfg = tiny_config(
            epochs=3, nce_batch=6, siamese_nce=True, fusion=True,
            depth_oicr=True, depth_attention=True,
        )
        stack_sizes = []
        chain = refine.refinement_chain

        def counted(features, *args, **kwargs):
            stack_sizes.append(len(features))
            return chain(features, *args, **kwargs)

        monkeypatch.setattr(refine, "refinement_chain", counted)
        runs = []
        for budget in (TRAIN.MIL_ROW_BUDGET, 1):
            monkeypatch.setattr(TRAIN, "MIL_ROW_BUDGET", budget)
            stack_sizes.clear()
            model, report = train(cfg, recs, small_vocab, priors=priors)
            model.save(tmp_path / "model.ckpt")
            epochs = [e.to_json() for e in report.epochs]
            ckpt = (tmp_path / "model.ckpt").read_bytes()
            runs.append((ckpt, epochs, max(stack_sizes)))
        (stacked_bytes, stacked_epochs, widest), (one_bytes, one_epochs, one) = runs
        assert widest > 1 and one == 1
        assert all(e["refine"] > 0.0 for e in stacked_epochs)
        assert stacked_bytes == one_bytes
        assert stacked_epochs == one_epochs

    def test_loss_decreases_on_separable_data(self):
        cfg = SyntheticConfig(
            num_images=60,
            num_classes=3,
            proposals_per_image=8,
            feat_dim=16,
            image_size=64,
            noise=0.1,
            confuser_rate=0.0,
        )
        records, vocab = generate_synthetic(cfg, seed=1)
        _, report = train(RunConfig(epochs=30, nce_batch=8), records, vocab)
        assert report.epochs[-1].mil < report.epochs[0].mil


class TestInfer:
    @pytest.fixture
    def trained(self, small_data):
        records, vocab = small_data
        model, _ = train(tiny_config(epochs=2), records, vocab)
        return model, records

    def test_min_score_one_rejected(self, trained):
        # No probability lies above 1, and RunConfig refuses 1.0 too.
        model, records = trained
        with pytest.raises(ConfigError, match=r"min_score must lie in \[0, 1\)"):
            infer(model, records, min_score=1.0)
        with pytest.raises(ConfigError, match=r"min_score must lie in \[0, 1\)"):
            RunConfig(min_score=1.0).validate()

    @pytest.mark.parametrize(
        "kw",
        [
            dict(min_score=float("nan")),
            dict(min_score=-0.5),
            dict(nms_thresh=float("nan")),
            dict(nms_thresh=float("inf")),
        ],
    )
    def test_bad_thresholds_rejected(self, trained, kw):
        model, records = trained
        with pytest.raises(ConfigError, match=next(iter(kw))):
            infer(model, records, **kw)

    def test_scores_strictly_above_floor(self, trained):
        model, records = trained
        everything = infer(model, records, min_score=0.0)
        floor = float(np.median([d.score for d in everything]))
        kept = infer(model, records, min_score=floor)
        assert kept == Detections.from_rows([d for d in everything if d.score > floor])
        assert 0 < len(kept) < len(everything)

    def test_kept_boxes_nms_separated(self, trained):
        model, records = trained
        dets = infer(model, records, min_score=0.0, nms_thresh=0.5)
        by_group = {}
        for d in dets:
            by_group.setdefault((d.image_id, d.class_id), []).append(d)
        for group in by_group.values():
            for i, a in enumerate(group):
                for b in group[i + 1 :]:
                    assert iou(a.box, b.box) <= 0.5 + 1e-12

    def test_deterministic(self, trained):
        model, records = trained
        assert infer(model, records) == infer(model, records)

    def test_zero_depth_head_fused_equals_rgb(self, trained):
        model, records = trained
        for p in model.depth_head.params():
            p.value[:] = 0.0
        rgb = infer(model, records, mode=FusionMode.RGB_ONLY, min_score=0.0)
        fused = infer(model, records, mode=FusionMode.FUSED, min_score=0.0)
        assert rgb == fused

    @pytest.mark.parametrize("mode", list(FusionMode))
    def test_matches_literal_oracle_mixed_r(self, trained, rng, mode):
        model, records = trained
        feat_dim = records[0].rgb_features.shape[1]
        mixed = records[:3] + [
            make_record(rng, f"m{k}", num_proposals=r, feat_dim=feat_dim, size=64.0)
            for k, r in enumerate((1, 2, 11, 30, 300))
        ]
        # A floor equal to a candidate's exact score drops that candidate.
        combined = fusion.forward(
            mixed[-1], model.rgb_head, model.depth_head, mode
        ).combined
        tie = float(np.sort(combined, axis=None)[combined.size // 2])
        for min_score, nms_thresh in (
            (0.0, 0.5), (0.05, 0.3), (0.0, 1.0), (tie, 0.5), (tie, 1.0)
        ):
            got = infer(model, mixed, mode, min_score, nms_thresh)
            want = infer_candidates(model, mixed, mode, min_score, nms_thresh)
            assert got == Detections.from_rows(want)
            assert got.image_ids == [rec.image_id for rec in mixed]

    def test_feat_dim_mismatch_rejected(self, trained, rng):
        model, _ = trained
        bad = [make_record(rng, "x", feat_dim=9, labels={0})]
        with pytest.raises(CheckpointError):
            infer(model, bad)


# The two-stage pipeline in one fresh interpreter. It must not pull in
# numpy.ma (np.unique and friends import it lazily): that alone adds about
# 1.6 MiB of resident memory to every run.
PIPELINE_SCRIPT = """
import sys
from wsodkit.evaluate import evaluate
from wsodkit.fusion import FusionMode
from wsodkit.priors import estimate_priors
from wsodkit.synth import SyntheticConfig, generate_synthetic
from wsodkit.train import RunConfig, infer, train

images, proposals = map(int, sys.argv[1:3])
records, vocab = generate_synthetic(
    SyntheticConfig(num_images=images, proposals_per_image=proposals), seed=0
)
model, _ = train(RunConfig(epochs=1), records, vocab, eval_records=[])
dets = infer(model, records, min_score=0.0)
_, frozen, _ = estimate_priors(records, dets, score_threshold=0.0)
full = RunConfig(
    epochs=1, siamese_nce=True, fusion=True, depth_oicr=True,
    depth_attention=True, inference_mode="fused",
)
model, _ = train(full, records, vocab, priors=frozen, eval_records=[])
dets = infer(model, records, mode=FusionMode.FUSED, min_score=0.0)
evaluate(dets, records)
print("numpy.ma" in sys.modules)
"""


@pytest.mark.parametrize("images, proposals", [(24, 20), (3, 500)])
def test_pipeline_leaves_numpy_ma_unimported(images, proposals):
    src = str(Path(TRAIN.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-c", PIPELINE_SCRIPT, str(images), str(proposals)],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert proc.stdout.strip() == "False"


class TestMiningPrecision:
    def fixed_scene(self, rng):
        rec = make_record(
            rng,
            "scene",
            num_proposals=3,
            num_classes=2,
            feat_dim=4,
            labels={0, 1},
            depths=np.array([0.2, 0.8, 0.5]),
        )
        rec.proposals[:] = np.array(
            [[0, 0, 10, 10], [20, 20, 30, 30], [40, 40, 50, 50]], dtype=np.float64
        )
        rec = __import__("dataclasses").replace(
            rec,
            gt_boxes=[(Box(0, 0, 10, 10), 0), (Box(20, 20, 30, 30), 1)],
        )
        return rec

    def zero_model(self):
        model = ModelParams.create(
            ModelDims(num_classes=2, feat_dim=4, proj_dim=3),
            np.random.default_rng(0),
        )
        for p in model.params():
            p.value[:] = 0.0
        return model

    def test_uniform_scores_seed_first_proposal(self, rng):
        # All-zero heads tie every proposal; the argmax seed is proposal 0
        # for both labels, which is right for class 0 and wrong for class 1.
        rec = self.fixed_scene(rng)
        vocab = ClassVocabulary(["near", "far"])
        report = mining_precision(
            self.zero_model(), [rec], vocab, tiny_config()
        )
        assert (report.total, report.hits) == (2, 1)
        assert report.precision == pytest.approx(0.5)

    def test_depth_filter_rescues_second_class(self, rng):
        # A depth range pinning class 1 to its true proposal fixes the tie.
        rec = self.fixed_scene(rng)
        vocab = ClassVocabulary(["near", "far"])
        priors = FrozenPriors(
            {0: DepthRange(0.1, 0.3), 1: DepthRange(0.7, 0.9)}, {}
        )
        report = mining_precision(
            self.zero_model(),
            [rec],
            vocab,
            tiny_config(depth_oicr=True),
            priors=priors,
        )
        assert (report.total, report.hits) == (2, 2)
        assert report.precision == 1.0

    def test_depth_filter_requires_priors(self, rng):
        rec = self.fixed_scene(rng)
        vocab = ClassVocabulary(["near", "far"])
        with pytest.raises(ConfigError):
            mining_precision(
                self.zero_model(), [rec], vocab, tiny_config(depth_oicr=True)
            )

    def test_empty_report_precision(self):
        assert MiningReport(total=0, hits=0).precision == 0.0


class TestAblation:
    def test_rows_and_reproducibility(self, small_data):
        records, vocab = small_data
        base = tiny_config(epochs=1)
        empty = FrozenPriors({}, {})
        a = run_ablation(base, records, vocab, priors=empty)
        b = run_ablation(base, records, vocab, priors=empty)
        names = [name for name, _, _ in a.rows]
        assert names == [name for name, _ in ABLATION_ROWS]
        assert names[0] == "baseline" and names[-1] == "wsod-amplifier"
        assert len(names) == 6
        toggles = {name: set(t) for name, t, _ in a.rows}
        assert toggles["baseline"] == set()
        assert toggles["wsod-amplifier"] == set(TOGGLE_NAMES)
        assert json.dumps(a.to_json(), sort_keys=True) == json.dumps(
            b.to_json(), sort_keys=True
        )

    def test_table_lists_all_rows(self, small_data):
        records, vocab = small_data
        result = run_ablation(
            tiny_config(epochs=1), records, vocab, priors=FrozenPriors({}, {})
        )
        text = result.to_text()
        for name, _ in ABLATION_ROWS:
            assert name in text

    def test_requires_ground_truth(self, rng, small_data, monkeypatch):
        # Missing truth, in the training or the evaluation records, and
        # missing priors are found before the first rung trains.
        calls = []
        monkeypatch.setattr(TRAIN, "train", lambda *a, **k: calls.append(a))
        records, vocab = small_data
        bare = [
            make_record(rng, f"i{k}", labels={k % 3}, with_gt=False)
            for k in range(6)
        ]
        priors = FrozenPriors({}, {})
        for data, eval_records, given, error in (
            (bare, None, priors, DataError),
            (records, bare, priors, DataError),
            (records, None, None, ConfigError),
        ):
            with pytest.raises(error):
                run_ablation(
                    tiny_config(epochs=1), data, vocab,
                    priors=given, eval_records=eval_records,
                )
        assert calls == []

    def test_save(self, small_data, tmp_path):
        records, vocab = small_data
        result = run_ablation(
            tiny_config(epochs=1), records, vocab, priors=FrozenPriors({}, {})
        )
        p = tmp_path / "ablation.json"
        result.save(p)
        obj = json.loads(p.read_text(encoding="utf-8"))
        assert len(obj["rows"]) == 6
