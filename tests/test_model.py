"""Full parameter set: creation order, checkpoint round trips, consistency."""

import numpy as np
import pytest

from wsodkit.errors import CheckpointError
from wsodkit.model import ModelDims, ModelParams
from wsodkit.numkit import SGD


def dims(**kw):
    base = dict(num_classes=3, feat_dim=5, proj_dim=4)
    base.update(kw)
    return ModelDims(**base)


def assert_models_equal(a: ModelParams, b: ModelParams):
    pa, pb = a.params(), b.params()
    assert [p.name for p in pa] == [p.name for p in pb]
    for x, y in zip(pa, pb):
        assert np.array_equal(x.value, y.value), x.name


class TestCreate:
    def test_same_seed_identical(self):
        a = ModelParams.create(dims(), np.random.default_rng(3))
        b = ModelParams.create(dims(), np.random.default_rng(3))
        assert_models_equal(a, b)

    def test_param_names_unique_and_complete(self):
        model = ModelParams.create(dims(), np.random.default_rng(0))
        names = [p.name for p in model.params()]
        assert len(names) == len(set(names))
        assert "rgb.det.w" in names and "depth.cls.b" in names
        assert "proj.rho" in names
        assert "refine.0.w" in names and "refine.0.b" in names
        # 2 heads * 4 + projection 3 + one branch 2
        assert len(names) == 13

    def test_shapes(self):
        model = ModelParams.create(dims(), np.random.default_rng(1))
        assert model.rgb_head.w_det.value.shape == (5, 3)
        assert model.proj.w.value.shape == (5, 4)
        assert model.refine.w.value.shape == (5, 4)  # C + 1 outputs
        assert model.proj.rho.value.shape == (1,)

    def test_rho_init_applied(self):
        model = ModelParams.create(
            dims(), np.random.default_rng(0), rho_init=0.25
        )
        assert model.proj.rho.value[0] == 0.25


class TestCheckpoint:
    def test_round_trip(self, tmp_path):
        model = ModelParams.create(dims(), np.random.default_rng(5))
        p = tmp_path / "model.ckpt"
        model.save(p)
        loaded = ModelParams.load(p)
        assert_models_equal(model, loaded)
        assert loaded.dims == model.dims

    def test_round_trip_exact_bits(self, tmp_path):
        model = ModelParams.create(dims(), np.random.default_rng(6))
        model.proj.rho.value[:] = 1.0 / 3.0
        p = tmp_path / "model.ckpt"
        model.save(p)
        loaded = ModelParams.load(p)
        assert loaded.proj.rho.value[0] == model.proj.rho.value[0]

    def test_save_byte_stable(self, tmp_path):
        model = ModelParams.create(dims(), np.random.default_rng(7))
        p1, p2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
        model.save(p1)
        model.save(p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_missing_group_rejected(self, tmp_path):
        model = ModelParams.create(dims(), np.random.default_rng(0))
        params = [p for p in model.params() if p.name != "depth.det.w"]
        from wsodkit import numkit

        p = tmp_path / "partial.ckpt"
        numkit.save_checkpoint(params, p)
        with pytest.raises(CheckpointError, match="depth.det.w"):
            ModelParams.load(p)

    def test_unexpected_entry_rejected(self, tmp_path):
        from wsodkit.numkit import Param, save_checkpoint

        model = ModelParams.create(dims(), np.random.default_rng(0))
        extra = model.params() + [Param("rogue", np.zeros(2))]
        p = tmp_path / "extra.ckpt"
        save_checkpoint(extra, p)
        with pytest.raises(CheckpointError, match="rogue"):
            ModelParams.load(p)

    @pytest.mark.parametrize(
        "changes, message",
        [
            ({"proj.w": (6, 4)}, r"'proj.w' has shape \(6, 4\), expected \(5, 4\)"),
            ({"rgb.det.w": (0, 10**9), "proj.w": (0, 4)}, "values it holds"),
            (
                {"refine.2.w": (5, 4), "refine.3.w": (5, 4)},
                r"unexpected entries: \['refine.2.w', 'refine.3.w'\]",
            ),
            # The layouts of two refinement branches and of none.
            (
                {"refine.1.w": (5, 4), "refine.1.b": (4,)},
                r"unexpected entries: \['refine.1.b', 'refine.1.w'\]",
            ),
            ({"refine.0.w": None, "refine.0.b": None}, "missing 'refine.0.w'"),
        ],
    )
    def test_stated_dims_checked_before_allocation(self, tmp_path, changes, message):
        # Dims are refused before a model is created from them: a billion
        # classes stated in a few bytes must not be allocated. Entries a
        # model of the stated dims lacks, or has beside them, are refused
        # too; a None shape drops the entry.
        from wsodkit.numkit import Param, save_checkpoint

        model = ModelParams.create(dims(), np.random.default_rng(0))
        params = [p for p in model.params() if p.name not in changes]
        params += [
            Param(name, np.zeros(shape))
            for name, shape in changes.items()
            if shape is not None
        ]
        path = tmp_path / "model.ckpt"
        save_checkpoint(params, path)
        with pytest.raises(CheckpointError, match=message):
            ModelParams.load(path)


class TestConsistency:
    def test_check_against_matching(self):
        model = ModelParams.create(dims(), np.random.default_rng(0))
        model.check_against(feat_dim=5, num_classes=3)

    def test_check_against_feat_dim_mismatch(self):
        model = ModelParams.create(dims(), np.random.default_rng(0))
        with pytest.raises(CheckpointError, match="feature dim"):
            model.check_against(feat_dim=8, num_classes=3)

    def test_check_against_class_mismatch(self):
        model = ModelParams.create(dims(), np.random.default_rng(0))
        with pytest.raises(CheckpointError, match="classes"):
            model.check_against(feat_dim=5, num_classes=4)

    def test_loaded_model_trains(self, tmp_path):
        # The optimizer moves parameters into its own buffers; the loaded
        # model's parameters must be the ones that step and save.
        path = tmp_path / "model.ckpt"
        ModelParams.create(dims(), np.random.default_rng(1)).save(path)
        model = ModelParams.load(path)
        loaded = [p.value.copy() for p in model.params()]
        opt = SGD(model.params(), lr=0.5)
        for p in model.params():
            p.grad[...] = 1.0
        opt.step()
        for p, v in zip(model.params(), loaded):
            assert p.value.tobytes() == (v - 0.5).tobytes(), p.name
        model.save(path)
        assert_models_equal(ModelParams.load(path), model)

    def test_inconsistent_shapes_detected(self, tmp_path):
        model = ModelParams.create(dims(), np.random.default_rng(0))
        model.depth_head.w_cls.value = np.zeros((5, 9))
        p = tmp_path / "model.ckpt"
        model.save(p)
        message = r"'depth.cls.w' has shape \(5, 9\), expected \(5, 3\)"
        with pytest.raises(CheckpointError, match=message):
            ModelParams.load(p)
