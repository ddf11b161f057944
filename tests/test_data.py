"""Dataset model, parsing, validation, captions, and depth pooling."""

import dataclasses
import json
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wsodkit.data import (
    Box,
    ClassVocabulary,
    DepthMap,
    ImageRecord,
    extract_labels,
    load_dataset,
    load_depth_maps,
    proposal_depths,
    record_from_json,
    record_to_json,
    save_dataset,
    tokenize,
)
from wsodkit.errors import (
    DataError,
    DegenerateRegionError,
    ParseError,
    ValidationError,
)
from conftest import UNPARSABLE_LINES, json_error, make_record


class TestTokenize:
    def test_lowercase_and_split(self):
        assert tokenize("A Bird, feeding!") == ["a", "bird", "feeding"]

    def test_digits_kept(self):
        assert tokenize("img2 part3b") == ["img2", "part3b"]

    def test_empty(self):
        assert tokenize("  ... ") == []


def box_error(problem, coords):
    """A pattern for the whole message Box gives for ``coords``."""
    text = {
        "non-finite": "box has non-finite coordinates",
        "negative": "box has negative coordinates",
        "degenerate": "degenerate box",
    }[problem]
    return re.escape(f"{text}: {tuple(coords)}") + r"\Z"


def nan_at(i):
    coords = [1.0, 2.0, 4.0, 6.5]
    coords[i] = math.nan
    return coords


class TestBox:
    # The edges of what a box accepts: signed zeros, integers, huge floats.
    VALID = [
        [-0.0, -0.0, 1.0, 1.0],
        [0, 0, 3, 4],
        [0.0, 1.0, 1e308, 2.0],
        [0.0, 0.0, 1.0, 1e308],
    ]
    # Each rejected box with the problem its message names. NaN makes every
    # comparison false, so it is reported as non-finite before any sign.
    INVALID = [
        *[("non-finite", nan_at(i)) for i in range(4)],
        ("non-finite", [0.0, 0.0, np.inf, 4.0]),
        ("non-finite", [0.0, -np.inf, 4.0, 4.0]),
        ("non-finite", [math.nan, -1.0, 4.0, 4.0]),
        ("negative", [-1.0, 0.0, 4.0, 4.0]),
        ("negative", [0.0, -1e-300, 4.0, 4.0]),
        ("degenerate", [4.0, 2.0, 4.0, 6.0]),
        ("degenerate", [1.0, 6.0, 4.0, 2.0]),
    ]

    def test_valid(self):
        b = Box(1.0, 2.0, 4.0, 6.5)
        assert b.area() == pytest.approx(13.5)
        assert b.as_list() == [1.0, 2.0, 4.0, 6.5]
        for coords in self.VALID:
            assert Box(*coords).as_list() == coords

    def test_degenerate_rejected(self):
        self.check_rejected("degenerate")

    def test_negative_rejected(self):
        self.check_rejected("negative")

    def test_nonfinite_rejected(self):
        self.check_rejected("non-finite")
        # What math.isfinite cannot convert raises its own error, unchanged.
        with pytest.raises(OverflowError, match="int too large to convert"):
            Box(0, 0, 10**400, 1)
        with pytest.raises(TypeError, match="must be real number, not NoneType"):
            Box(0, 0, None, 1)

    def check_rejected(self, problem):
        cases = [coords for p, coords in self.INVALID if p == problem]
        assert cases
        for coords in cases:
            with pytest.raises(ValidationError, match=box_error(problem, coords)):
                Box(*coords)


class TestVocabulary:
    def test_lookup(self, small_vocab):
        assert small_vocab.id_of("bird") == 0
        assert small_vocab.id_of("birds") == 0
        assert small_vocab.id_of("dog") == 2
        assert small_vocab.id_of("ocean") is None
        assert small_vocab.name_of(1) == "cat"
        assert len(small_vocab) == 3

    def test_duplicate_names_rejected(self):
        with pytest.raises(ValidationError):
            ClassVocabulary(["bird", "bird"])

    def test_synonym_collision_rejected(self):
        with pytest.raises(ValidationError):
            ClassVocabulary(["bird", "cat"], {"cat": ["bird"]})

    def test_multiword_name_rejected(self):
        with pytest.raises(ValidationError):
            ClassVocabulary(["tennis racket"])

    def test_file_round_trip(self, tmp_path, small_vocab):
        path = tmp_path / "vocab.json"
        small_vocab.save(path)
        loaded = ClassVocabulary.from_file(path)
        assert loaded.names == small_vocab.names
        assert loaded.id_of("birds") == 0

    def test_sparse_ids_rejected(self, tmp_path):
        path = tmp_path / "vocab.json"
        path.write_text(
            json.dumps(
                [
                    {"id": 0, "name": "bird", "synonyms": []},
                    {"id": 2, "name": "cat", "synonyms": []},
                ]
            )
        )
        with pytest.raises(ValidationError):
            ClassVocabulary.from_file(path)

    def test_missing_file_is_data_error(self, tmp_path):
        with pytest.raises(DataError):
            ClassVocabulary.from_file(tmp_path / "none.json")


class TestExtractLabels:
    def test_direct_match(self, small_vocab):
        assert extract_labels("A bird feeding from a hand", small_vocab) == {0}

    def test_no_match(self, small_vocab):
        assert extract_labels("a calm ocean view", small_vocab) == set()

    def test_plural_matches_substring_does_not(self, small_vocab):
        got = extract_labels("two birds near a birdhouse", small_vocab)
        assert got == {0}

    def test_deduplicated(self, small_vocab):
        assert extract_labels("bird bird cat bird", small_vocab) == {0, 1}

    def test_case_and_punctuation(self, small_vocab):
        assert extract_labels("BIRD, Cat!", small_vocab) == {0, 1}

    @settings(max_examples=30, deadline=None)
    @given(st.permutations(["bird", "ocean", "cat", "by", "dog"]))
    def test_order_independent(self, words):
        vocab = ClassVocabulary(["bird", "cat", "dog"])
        assert extract_labels(" ".join(words), vocab) == {0, 1, 2}


class TestDepthMap:
    def test_range_enforced(self):
        with pytest.raises(ValidationError):
            DepthMap(2, 2, np.array([[0.0, 1.5], [0.2, 0.3]]))

    def test_shape_enforced(self):
        with pytest.raises(ValidationError):
            DepthMap(3, 2, np.zeros((2, 2)))

    def test_proposal_depth_constant(self):
        dm = DepthMap(4, 4, np.full((4, 4), 0.5))
        got = proposal_depths(dm, np.array([[0.2, 0.7, 3.0, 3.1]]))
        assert got[0] == pytest.approx(0.5)

    def test_proposal_depth_two_pixels(self):
        dm = DepthMap(2, 1, np.array([[0.2, 0.4]]))
        got = proposal_depths(dm, np.array([[0.0, 0.0, 2.0, 1.0]]))
        assert got[0] == pytest.approx(0.3)

    def test_proposal_depth_enumeration(self):
        dm = DepthMap(4, 4, (np.arange(16) / 16.0).reshape(4, 4))
        got = proposal_depths(dm, np.array([[0.0, 0.0, 2.0, 2.0]]))
        assert got[0] == pytest.approx(0.15625, abs=1e-12)

    def test_zero_coverage_raises(self):
        dm = DepthMap(4, 4, np.zeros((4, 4)))
        with pytest.raises(DegenerateRegionError):
            proposal_depths(dm, np.array([[0.6, 0.6, 0.9, 0.9]]))


class TestRecordValidation:
    def test_valid_record(self, rng):
        rec = make_record(rng)
        rec.validate(3)

    def test_feature_count_mismatch(self, rng):
        rec = make_record(rng)
        rec = dataclasses.replace(rec, rgb_features=rec.rgb_features[:-1])
        with pytest.raises(ValidationError, match="count mismatch"):
            rec.validate(3)

    def test_depth_out_of_range(self, rng):
        rec = make_record(rng)
        bad = rec.proposal_depths.copy()
        bad[0] = 1.5
        rec = dataclasses.replace(rec, proposal_depths=bad)
        with pytest.raises(ValidationError, match="proposal_depths"):
            rec.validate(3)

    def test_label_out_of_range(self, rng):
        rec = make_record(rng, labels={5})
        with pytest.raises(ValidationError, match="label 5"):
            rec.validate(3)

    def test_proposal_outside_image(self, rng):
        rec = make_record(rng)
        bad = rec.proposals.copy()
        bad[0, 2] = 5000.0
        rec = dataclasses.replace(rec, proposals=bad)
        with pytest.raises(ValidationError, match="bounds"):
            rec.validate(3)

    def test_error_names_image(self, rng):
        rec = make_record(rng, image_id="imgX")
        bad = rec.proposals.copy()
        bad[1, 2] = bad[1, 0]
        rec = dataclasses.replace(rec, proposals=bad)
        with pytest.raises(ValidationError, match="imgX"):
            rec.validate(3)


class TestJsonRoundTrip:
    def test_field_for_field(self, rng):
        rec = make_record(rng, caption="a bird on the desk", labels={0}, with_gt=True)
        back = record_from_json(record_to_json(rec))
        assert back.image_id == rec.image_id
        assert np.allclose(back.proposals, rec.proposals)
        assert np.allclose(back.rgb_features, rec.rgb_features)
        assert np.allclose(back.depth_features, rec.depth_features)
        assert np.allclose(back.proposal_depths, rec.proposal_depths)
        assert back.caption == rec.caption
        assert back.labels == rec.labels
        assert [(b.as_list(), c) for b, c in back.gt_boxes] == [
            (b.as_list(), c) for b, c in rec.gt_boxes
        ]

    @pytest.mark.parametrize("coord", [True, "1", None, [1]])
    def test_gt_box_coordinates_are_json_numbers(self, rng, coord):
        obj = record_to_json(make_record(rng, with_gt=True))
        obj["gt_boxes"][0][0] = coord
        with pytest.raises(ValidationError, match="gt_boxes entries"):
            record_from_json(obj)

    @pytest.mark.parametrize("field", ["proposals", "rgb_features", "depth_features"])
    @pytest.mark.parametrize("value", ["1", None, [1]])
    def test_array_entries_are_json_numbers(self, rng, field, value):
        obj = record_to_json(make_record(rng))
        obj[field][0][0] = value
        with pytest.raises(ValidationError, match=f"{field} is not numeric"):
            record_from_json(obj)

    def test_all_boolean_depths_refused(self, rng):
        obj = record_to_json(make_record(rng))
        obj["proposal_depths"] = [True] * len(obj["proposal_depths"])
        with pytest.raises(ValidationError, match="proposal_depths not numeric"):
            record_from_json(obj)

    def test_integers_past_int64_load_as_floats(self, rng):
        # Too large for int64, NumPy infers an object array; the numbers in
        # it still load, and one past a double's range is refused.
        obj = record_to_json(make_record(rng))
        obj["rgb_features"][0][0] = 10**20
        assert record_from_json(obj).rgb_features[0, 0] == 1e20
        obj["rgb_features"][0][0] = 10**400
        with pytest.raises(ValidationError, match="rgb_features is not numeric"):
            record_from_json(obj)

    def test_optional_fields_omitted(self, rng):
        rec = make_record(rng)
        obj = record_to_json(rec)
        assert "caption" not in obj
        assert "labels" not in obj
        assert "gt_boxes" not in obj

    def test_dataset_files_round_trip_bytes(self, tmp_path, rng):
        recs = [
            make_record(rng, image_id=f"im{i}", caption="a cat", labels={1})
            for i in range(3)
        ]
        p1, p2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        save_dataset(recs, p1)
        save_dataset(load_dataset(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()


class TestLoadDataset:
    def _write(self, path, lines):
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")

    def test_single_record(self, tmp_path, rng):
        path = tmp_path / "d.jsonl"
        save_dataset([make_record(rng)], path)
        recs = load_dataset(path)
        assert len(recs) == 1

    def test_malformed_line_number(self, tmp_path, rng):
        path = tmp_path / "d.jsonl"
        good = json.dumps(record_to_json(make_record(rng)))
        for bad in ["{oops", *UNPARSABLE_LINES.values()]:
            self._write(path, [good, bad])
            with pytest.raises(ParseError, match=json_error(bad, 2)):
                load_dataset(path)

    def test_degenerate_box_reported(self, tmp_path, rng):
        rec = make_record(rng)
        obj = record_to_json(rec)
        obj["proposals"][0] = [5.0, 5.0, 5.0, 9.0]
        path = tmp_path / "d.jsonl"
        self._write(path, [json.dumps(obj)])
        with pytest.raises(ValidationError, match="degenerate box"):
            load_dataset(path)

    def test_feature_mismatch_reported(self, tmp_path, rng):
        rec = make_record(rng)
        obj = record_to_json(rec)
        obj["rgb_features"] = obj["rgb_features"][:-1]
        path = tmp_path / "d.jsonl"
        self._write(path, [json.dumps(obj)])
        with pytest.raises(ValidationError, match="count mismatch"):
            load_dataset(path)

    def test_duplicate_ids_rejected(self, tmp_path, rng):
        rec = make_record(rng)
        line = json.dumps(record_to_json(rec))
        path = tmp_path / "d.jsonl"
        self._write(path, [line, line])
        with pytest.raises(ValidationError, match="duplicate"):
            load_dataset(path)

    def test_empty_dataset_rejected(self, tmp_path):
        path = tmp_path / "d.jsonl"
        path.write_text("")
        with pytest.raises(DataError):
            load_dataset(path)

    def test_labels_validated_against_vocab(self, tmp_path, rng, small_vocab):
        rec = make_record(rng, labels={7})
        obj = record_to_json(rec)
        path = tmp_path / "d.jsonl"
        self._write(path, [json.dumps(obj)])
        with pytest.raises(ValidationError):
            load_dataset(path, small_vocab)

    def test_missing_file(self, small_vocab):
        with pytest.raises(DataError):
            load_dataset("/no/such/file.jsonl", small_vocab)


class TestDepthSidecar:
    def test_sidecar_fills_missing_depths(self, tmp_path, rng):
        rec = make_record(rng, num_proposals=2, size=8.0)
        obj = record_to_json(rec)
        del obj["proposal_depths"]
        data_path = tmp_path / "d.jsonl"
        data_path.write_text(json.dumps(obj) + "\n")

        dm_path = tmp_path / "depth.jsonl"
        values = np.full((8, 8), 0.25)
        dm_path.write_text(
            json.dumps(
                {
                    "image_id": rec.image_id,
                    "width": 8,
                    "height": 8,
                    "values": values.tolist(),
                }
            )
            + "\n"
        )
        recs = load_dataset(data_path, depth_maps=load_depth_maps(dm_path))
        assert np.allclose(recs[0].proposal_depths, 0.25)

    def test_precomputed_depths_win(self, tmp_path, rng):
        rec = make_record(rng, num_proposals=2, size=8.0)
        obj = record_to_json(rec)
        data_path = tmp_path / "d.jsonl"
        data_path.write_text(json.dumps(obj) + "\n")
        maps = {
            rec.image_id: DepthMap(8, 8, np.full((8, 8), 0.9)),
        }
        recs = load_dataset(data_path, depth_maps=maps)
        assert np.allclose(recs[0].proposal_depths, rec.proposal_depths)

    def test_missing_depths_without_sidecar_rejected(self, tmp_path, rng):
        rec = make_record(rng)
        obj = record_to_json(rec)
        del obj["proposal_depths"]
        data_path = tmp_path / "d.jsonl"
        data_path.write_text(json.dumps(obj) + "\n")
        with pytest.raises(DataError):
            load_dataset(data_path)

    def test_load_depth_maps_duplicate(self, tmp_path):
        line = json.dumps(
            {"image_id": "a", "width": 1, "height": 1, "values": [[0.5]]}
        )
        path = tmp_path / "m.jsonl"
        path.write_text(line + "\n" + line + "\n")
        with pytest.raises(ValidationError, match="duplicate"):
            load_depth_maps(path)
