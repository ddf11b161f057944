"""End-to-end checks of the command-line surface.

Everything runs in-process through main() so exit codes and stdout are
observable without spawning subprocesses.
"""

import contextlib
import copy
import io
import json
import math
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

from wsodkit.cli import build_parser, main, synthetic_config
from wsodkit.synth import SyntheticConfig


@pytest.fixture(autouse=True)
def clean_seed_env(monkeypatch):
    monkeypatch.delenv("WSOD_SEED", raising=False)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def gen_small(capsys, tmp_path, stem="d", **kw):
    data = tmp_path / f"{stem}.jsonl"
    vocab = tmp_path / f"{stem}_vocab.json"
    args = [
        "gen-data",
        "--out", str(data),
        "--vocab-out", str(vocab),
        "--images", "12",
        "--classes", "3",
        "--proposals", "8",
        "--feat-dim", "8",
        "--image-size", "64",
        "--seed", "0",
    ]
    for key, value in kw.items():
        args += [f"--{key}", str(value)]
    code, out, _ = run(capsys, *args)
    assert code == 0
    return data, vocab


def test_full_pipeline(tmp_path, capsys):
    data, vocab = gen_small(capsys, tmp_path)

    relabeled = tmp_path / "relabeled.jsonl"
    code, out, _ = run(
        capsys, "extract-labels",
        "--data", str(data), "--vocab", str(vocab), "--out", str(relabeled),
    )
    assert code == 0 and "labeled 12 images" in out

    ckpt = tmp_path / "model.ckpt"
    report = tmp_path / "report.json"
    code, out, _ = run(
        capsys, "train",
        "--data", str(relabeled), "--vocab", str(vocab),
        "--set", "epochs=2",
        "--checkpoint-out", str(ckpt),
        "--report-out", str(report),
    )
    assert code == 0
    assert "epoch   1/2" in out and "trained 2 epochs" in out
    assert ckpt.exists()
    assert len(json.loads(report.read_text(encoding="utf-8"))["epochs"]) == 2

    dets = tmp_path / "dets.jsonl"
    code, out, _ = run(
        capsys, "infer",
        "--checkpoint", str(ckpt), "--data", str(data), "--vocab", str(vocab),
        "--out", str(dets), "--min-score", "0.0",
    )
    assert code == 0 and "detections ->" in out
    assert dets.read_text(encoding="utf-8").strip()

    priors = tmp_path / "priors.json"
    code, out, _ = run(
        capsys, "estimate-priors",
        "--data", str(data), "--vocab", str(vocab),
        "--predictions", str(dets), "--out", str(priors),
        "--score-threshold", "0.0",
    )
    assert code == 0 and "priors ->" in out
    assert "by_class" in json.loads(priors.read_text(encoding="utf-8"))

    eval_json = tmp_path / "eval.json"
    code, out, _ = run(
        capsys, "evaluate",
        "--detections", str(dets), "--data", str(data), "--vocab", str(vocab),
        "--report-out", str(eval_json),
    )
    assert code == 0
    assert "AP, IoU" in out and "detections" in out
    assert "map50" in json.loads(eval_json.read_text(encoding="utf-8"))

    table = tmp_path / "ablation.json"
    code, out, _ = run(
        capsys, "ablation",
        "--data", str(relabeled), "--vocab", str(vocab),
        "--priors", str(priors),
        "--set", "epochs=1",
        "--out", str(table), "--quiet",
    )
    assert code == 0
    for name in ("baseline", "wsod-amplifier"):
        assert name in out
    assert len(json.loads(table.read_text(encoding="utf-8"))["rows"]) == 6


def test_gen_data_deterministic(tmp_path, capsys):
    d1, v1 = gen_small(capsys, tmp_path, "a")
    d2, v2 = gen_small(capsys, tmp_path, "b")
    assert d1.read_bytes() == d2.read_bytes()
    assert v1.read_bytes() == v2.read_bytes()


def test_gen_data_env_seed(tmp_path, capsys, monkeypatch):
    d1, _ = gen_small(capsys, tmp_path, "a")
    monkeypatch.setenv("WSOD_SEED", "9")
    d2, _ = gen_small(capsys, tmp_path, "b")
    assert d1.read_bytes() != d2.read_bytes()


def test_unknown_config_key_exit_2(tmp_path, capsys):
    data, vocab = gen_small(capsys, tmp_path)
    # The priors keys are not config: estimate-priors takes them as flags.
    # The MIL squash and NCE denominator have one form each, so no switch;
    # refinement has one branch, so no count.
    for key in (
        "does_not_exist", "priors.score_threshold", "priors.min_count_word",
        "sigma_on_sum", "mil.sigma_on_sum",
        "nce_include_positive_in_sum", "nce.include_positive_in_sum",
        "refine_branches", "refine.branches",
    ):
        code, _, err = run(
            capsys, "train",
            "--data", str(data), "--vocab", str(vocab),
            "--set", f"{key}=1",
        )
        assert code == 2 and f"unknown config key {key!r}" in err


def test_missing_dataset_exit_3(tmp_path, capsys):
    _, vocab = gen_small(capsys, tmp_path)
    code, _, err = run(
        capsys, "train",
        "--data", str(tmp_path / "absent.jsonl"), "--vocab", str(vocab),
    )
    assert code == 3 and "error:" in err


def test_checkpoint_mismatch_exit_3(tmp_path, capsys):
    data, vocab = gen_small(capsys, tmp_path)
    ckpt = tmp_path / "model.ckpt"
    code, _, _ = run(
        capsys, "train",
        "--data", str(data), "--vocab", str(vocab),
        "--set", "epochs=0", "--checkpoint-out", str(ckpt), "--quiet",
    )
    assert code == 0
    wide, wide_vocab = gen_small(capsys, tmp_path, "wide", **{"feat-dim": 9})
    code, _, err = run(
        capsys, "infer",
        "--checkpoint", str(ckpt), "--data", str(wide), "--vocab", str(wide_vocab),
        "--out", str(tmp_path / "x.jsonl"),
    )
    assert code == 3 and "feature dim" in err
    # Checkpoints with two refinement branches or none do not fit the model.
    entries = json.loads(ckpt.read_text(encoding="utf-8"))
    two = {**entries, "refine.1.w": entries["refine.0.w"],
           "refine.1.b": entries["refine.0.b"]}
    none = {k: v for k, v in entries.items() if not k.startswith("refine.")}
    for layout, message in (
        (two, "unexpected entries: ['refine.1.b', 'refine.1.w']"),
        (none, "missing 'refine.0.w'"),
    ):
        ckpt.write_text(json.dumps(layout), encoding="utf-8")
        code, _, err = run(
            capsys, "infer",
            "--checkpoint", str(ckpt), "--data", str(data), "--vocab", str(vocab),
            "--out", str(tmp_path / "x.jsonl"),
        )
        assert code == 3 and message in err


@pytest.mark.parametrize(
    "name, shape",
    [
        ("rgb.det.w", []),
        ("rgb.det.w", [24]),
        ("rgb.det.w", [8, 3, 1]),
        ("proj.w", []),
        ("proj.w", [256]),
        ("proj.w", [8, 32, 1]),
        ("refine.0.b", [3]),
    ],
)
def test_checkpoint_entry_shape_exit_3(tmp_path, capsys, name, shape):
    data, vocab = gen_small(capsys, tmp_path)
    ckpt = tmp_path / "model.ckpt"
    code, _, _ = run(
        capsys, "train",
        "--data", str(data), "--vocab", str(vocab),
        "--set", "epochs=0", "--checkpoint-out", str(ckpt), "--quiet",
    )
    assert code == 0
    entries = json.loads(ckpt.read_text(encoding="utf-8"))
    entries[name] = {"shape": shape, "values": [0.5] * math.prod(shape)}
    ckpt.write_text(json.dumps(entries), encoding="utf-8")
    code, _, err = run(
        capsys, "infer",
        "--checkpoint", str(ckpt), "--data", str(data), "--vocab", str(vocab),
        "--out", str(tmp_path / "x.jsonl"),
    )
    assert code == 3 and f"{name!r}" in err and err.startswith("error: ")


def test_gen_data_defaults_are_the_generator_defaults():
    args = build_parser().parse_args(["gen-data", "--out", "d", "--vocab-out", "v"])
    assert synthetic_config(args) == SyntheticConfig()


def test_ablation_without_priors_exit_2(tmp_path, capsys):
    data, vocab = gen_small(capsys, tmp_path)
    code, _, err = run(
        capsys, "ablation",
        "--data", str(data), "--vocab", str(vocab),
        "--set", "epochs=1", "--quiet",
    )
    assert code == 2 and "priors" in err


def test_unknown_subcommand_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


@pytest.mark.parametrize("command", ["evaluate", "estimate-priors"])
def test_non_finite_score_exit_3(tmp_path, capsys, command):
    data, vocab = gen_small(capsys, tmp_path)
    image_id = json.loads(data.read_text(encoding="utf-8").splitlines()[0])["image_id"]
    dets = tmp_path / "dets.jsonl"
    lines = [
        {"image_id": image_id, "box": [0, 0, 10, 10], "class_id": 0, "score": 0.9},
        {"image_id": image_id, "box": [5, 5, 20, 20], "class_id": 0, "score": float("nan")},
    ]
    # json.dumps writes the NaN literal, which json.loads reads back.
    dets.write_text("".join(json.dumps(o) + "\n" for o in lines), encoding="utf-8")
    flag = "--detections" if command == "evaluate" else "--predictions"
    extra = [] if command == "evaluate" else ["--out", str(tmp_path / "p.json")]
    code, _, err = run(
        capsys, command,
        "--data", str(data), "--vocab", str(vocab), flag, str(dets), *extra,
    )
    assert code == 3 and "line 2: non-finite score" in err


@pytest.mark.parametrize(
    "argv,env,message",
    [
        (["train", "--set", "seed=-3"], None, "seed must be >= 0"),
        (["train"], "-1", "WSOD_SEED must be >= 0"),
        (["gen-data", "--seed", "-1"], None, "seed must be >= 0"),
    ],
    ids=["config-seed", "env-seed", "gen-data-seed"],
)
def test_negative_seed_exit_2(tmp_path, capsys, monkeypatch, argv, env, message):
    data, vocab = gen_small(capsys, tmp_path)
    if env is not None:
        monkeypatch.setenv("WSOD_SEED", env)
    paths = {
        "gen-data": ["--out", str(tmp_path / "g.jsonl"), "--vocab-out", str(vocab)],
        "train": ["--data", str(data), "--vocab", str(vocab), "--quiet"],
    }[argv[0]]
    code, _, err = run(capsys, argv[0], *paths, *argv[1:])
    assert code == 2 and message in err


@pytest.mark.parametrize(
    "command,option,field",
    [
        ("infer", ["--nms-thresh", "nan"], "nms_thresh"),
        ("infer", ["--min-score", "nan"], "min_score"),
        ("infer", ["--nms-thresh", "1.5"], "nms_thresh"),
        ("evaluate", ["--nms-thresh", "nan"], "nms_thresh"),
        ("estimate-priors", ["--score-threshold", "nan"], "score_threshold"),
        ("estimate-priors", ["--score-threshold", "-0.1"], "score_threshold"),
        ("train", ["--set", "nms_thresh=nan"], "nms_thresh"),
    ],
)
def test_bad_threshold_exit_2(tmp_path, capsys, command, option, field):
    data, vocab = gen_small(capsys, tmp_path)
    ckpt = tmp_path / "model.ckpt"
    dets = tmp_path / "dets.jsonl"
    code, _, _ = run(
        capsys, "train", "--data", str(data), "--vocab", str(vocab),
        "--set", "epochs=0", "--checkpoint-out", str(ckpt), "--quiet",
    )
    assert code == 0
    common = ["--data", str(data), "--vocab", str(vocab)]
    code, _, _ = run(
        capsys, "infer", "--checkpoint", str(ckpt), *common, "--out", str(dets)
    )
    assert code == 0
    extra = {
        "infer": ["--checkpoint", str(ckpt), "--out", str(tmp_path / "x.jsonl")],
        "evaluate": ["--detections", str(dets)],
        "estimate-priors": ["--predictions", str(dets), "--out", str(dets) + ".p"],
        "train": ["--quiet"],
    }[command]
    code, _, err = run(capsys, command, *common, *extra, *option)
    assert code == 2 and f"{field} must lie in [0, 1" in err


def test_min_score_one_exit_2_for_infer_as_for_train(tmp_path, capsys):
    # No score lies above 1: infer refuses the floor as RunConfig does,
    # instead of writing an empty file.
    data, vocab = gen_small(capsys, tmp_path)
    common = ["--data", str(data), "--vocab", str(vocab)]
    ckpt, out = tmp_path / "model.ckpt", tmp_path / "dets.jsonl"
    code, _, _ = run(
        capsys, "train", *common, "--set", "epochs=0",
        "--checkpoint-out", str(ckpt), "--quiet",
    )
    assert code == 0
    code, _, train_err = run(capsys, "train", *common, "--set", "min_score=1.0")
    assert code == 2
    code, _, err = run(
        capsys, "infer", *common, "--checkpoint", str(ckpt), "--out", str(out),
        "--min-score", "1",
    )
    assert code == 2 and err == train_err
    assert "min_score must lie in [0, 1), got 1.0" in err
    assert not out.exists()


@pytest.mark.parametrize(
    "command,option,message",
    [
        ("gen-data", ["--noise", "nan"], "noise must be finite"),
        ("gen-data", ["--noise", "inf"], "noise must be finite"),
        ("estimate-priors", ["--min-count-word", "0"], "min_count_word must be >= 1"),
    ],
)
def test_bad_option_exit_2(tmp_path, capsys, command, option, message):
    data, vocab = gen_small(capsys, tmp_path)
    dets = tmp_path / "dets.jsonl"
    dets.write_text("", encoding="utf-8")
    paths = {
        "gen-data": ["--out", str(tmp_path / "g.jsonl"), "--vocab-out", str(vocab)],
        "estimate-priors": [
            "--data", str(data), "--vocab", str(vocab),
            "--predictions", str(dets), "--out", str(tmp_path / "p.json"),
        ],
    }[command]
    code, _, err = run(capsys, command, *paths, *option)
    assert code == 2 and message in err


def sidecar_layout(data, tmp_path):
    """A copy of ``data`` without proposal depths, and a depth-map sidecar."""
    no_depths = tmp_path / "nd.jsonl"
    sidecar = tmp_path / "dm.jsonl"
    with open(no_depths, "w") as nd, open(sidecar, "w") as dm:
        for line in data.read_text(encoding="utf-8").splitlines():
            obj = json.loads(line)
            del obj["proposal_depths"]
            nd.write(json.dumps(obj) + "\n")
            values = [[0.5] * obj["width"]] * obj["height"]
            dm.write(json.dumps({
                "image_id": obj["image_id"], "width": obj["width"],
                "height": obj["height"], "values": values,
            }) + "\n")
    return no_depths, sidecar


def test_eval_data_uses_depth_map_sidecar(tmp_path, capsys):
    data, vocab = gen_small(capsys, tmp_path)
    no_depths, sidecar = sidecar_layout(data, tmp_path)
    code, _, err = run(
        capsys, "train",
        "--data", str(no_depths), "--vocab", str(vocab),
        "--depth-maps", str(sidecar), "--eval-data", str(no_depths),
        "--set", "epochs=1", "--quiet",
    )
    assert code == 0, err


def test_dataset_commands_read_depth_map_sidecar(tmp_path, capsys):
    # infer and evaluate read no proposal depths, so either layout of one
    # dataset gives the same detections and the same table.
    data, vocab = gen_small(capsys, tmp_path)
    no_depths, sidecar = sidecar_layout(data, tmp_path)
    ckpt = tmp_path / "model.ckpt"
    code, _, err = run(
        capsys, "train", "--data", str(data), "--vocab", str(vocab),
        "--set", "epochs=1", "--quiet", "--checkpoint-out", str(ckpt),
    )
    assert code == 0, err
    outputs = {}
    layouts = {
        "inline": ["--data", str(data)],
        "sidecar": ["--data", str(no_depths), "--depth-maps", str(sidecar)],
    }
    for name, layout in layouts.items():
        inputs = [*layout, "--vocab", str(vocab)]
        dets = tmp_path / f"dets-{name}.jsonl"
        code, _, err = run(
            capsys, "infer", "--checkpoint", str(ckpt), *inputs,
            "--out", str(dets), "--min-score", "0.0",
        )
        assert code == 0, err
        code, table, err = run(capsys, "evaluate", "--detections", str(dets), *inputs)
        assert code == 0, err
        labeled = tmp_path / f"labeled-{name}.jsonl"
        code, _, err = run(capsys, "extract-labels", *inputs, "--out", str(labeled))
        assert code == 0, err
        outputs[name] = (dets.read_bytes(), table)
    assert outputs["sidecar"] == outputs["inline"]


class _Missing:
    def __repr__(self):
        return "MISSING"


MISSING = _Missing()
INF = float("inf")
# Replacements a fuzzed field may take; MISSING deletes the key.
REPLACEMENTS = (INF, float("nan"), [""], {"": ""}, "", MISSING)
# Keys whose deletion still leaves a valid file.
OPTIONAL_KEYS = {
    "dataset": {"caption", "labels", "gt_boxes"},
    "dataset+sidecar": {"caption", "labels", "gt_boxes"},
    "vocab": {"synonyms"},
    "config": {"epochs", "proj_dim"},
}
JSONL_TARGETS = ("dataset", "dataset+sidecar", "sidecar", "detections")
FUZZ_TARGETS = JSONL_TARGETS + ("vocab", "priors", "checkpoint", "config")


@pytest.fixture(scope="module")
def valid_inputs(tmp_path_factory):
    """A tiny valid input of every kind the CLI reads, as parsed JSON."""
    d = tmp_path_factory.mktemp("valid")
    data, vocab = d / "d.jsonl", d / "v.json"
    out = io.StringIO()

    def ok(*argv):
        with contextlib.redirect_stdout(out):
            assert main(list(argv)) == 0

    ok(
        "gen-data", "--out", str(data), "--vocab-out", str(vocab), "--images", "3",
        "--classes", "2", "--proposals", "4", "--feat-dim", "2",
        "--image-size", "16", "--seed", "0",
    )
    common = ["--data", str(data), "--vocab", str(vocab)]
    ok("train", *common, "--set", "epochs=0", "--quiet",
       "--checkpoint-out", str(d / "m.ckpt"))
    ok("infer", "--checkpoint", str(d / "m.ckpt"), *common,
       "--out", str(d / "dets.jsonl"), "--min-score", "0.0")
    ok("estimate-priors", *common, "--predictions", str(d / "dets.jsonl"),
       "--out", str(d / "p.json"), "--score-threshold", "0.0")

    def read(name):
        text = (d / name).read_text()
        if name.endswith(".jsonl"):
            return [json.loads(line) for line in text.splitlines()]
        return json.loads(text)

    records = read("d.jsonl")
    bare = [{k: v for k, v in r.items() if k != "proposal_depths"} for r in records]
    sidecar = [
        {"image_id": r["image_id"], "width": r["width"], "height": r["height"],
         "values": [[0.5] * r["width"]] * r["height"]}
        for r in records
    ]
    return {
        "dataset": records,
        "dataset+sidecar": bare,
        "sidecar": sidecar,
        "detections": read("dets.jsonl"),
        "vocab": read("v.json"),
        "priors": read("p.json"),
        "checkpoint": read("m.ckpt"),
        "config": {"epochs": 0, "proj_dim": 32},
    }


def _mutate(doc, steps, value):
    """Replace the field that ``steps`` lead to and return its key path.

    A string step is a key; an integer step picks a child modulo the
    container's size (keys in sorted order), so any integers name a field.
    Returns None when there is no field to change.
    """
    parent, path = None, ()
    for step in steps:
        if isinstance(doc, dict) and doc:
            key = step if isinstance(step, str) else sorted(doc)[step % len(doc)]
        elif isinstance(doc, list) and doc:
            key = step % len(doc)
        else:
            break
        parent, path, doc = doc, path + (key,), doc[key]
    if parent is None or (value is MISSING and not isinstance(parent, dict)):
        return None
    if value is MISSING:
        del parent[path[-1]]
    else:
        parent[path[-1]] = value
    return path


def _accepted(target, path, value):
    """Whether a field change still leaves a valid file."""
    if value is MISSING:
        # Dropping one moment entry of a priors file is valid too.
        return path[-1] in OPTIONAL_KEYS.get(target, ()) or (
            target == "priors" and len(path) == 2
        )
    return target.startswith("dataset") and path[-1] == "caption" and value == ""


def _cut_offsets(text):
    # Cuts that leave a partial last line or document, never a whole one.
    return [k for k in range(1, len(text)) if "\n" not in text[k - 1:k + 1]]


def _run_mutated(inputs, directory, target, where, change):
    docs = copy.deepcopy(inputs)
    if where == "cut":
        text = _serialize(target, docs[target])
        offsets = _cut_offsets(text)
        text = text[:offsets[change % len(offsets)]]
    elif where == "byte":
        # Written back with surrogateescape, this is the byte 0xff: no UTF-8.
        text = _serialize(target, docs[target])
        k = change % (len(text) + 1)
        text = text[:k] + "\udcff" + text[k:]
    else:
        path = _mutate(docs[target], where, change)
        if path is None or _accepted(target, path, change):
            return None
        text = _serialize(target, docs[target])
    paths = {}
    for name, doc in docs.items():
        paths[name] = directory / name.replace("+", "_")
        paths[name].write_text(
            text if name == target else _serialize(name, doc),
            encoding="utf-8",
            errors="surrogateescape",
        )
    data = paths["dataset+sidecar" if target in ("dataset+sidecar", "sidecar")
                 else "dataset"]
    common = ["--data", str(data), "--vocab", str(paths["vocab"])]
    if target in ("dataset+sidecar", "sidecar"):
        common += ["--depth-maps", str(paths["sidecar"])]
    if target == "checkpoint":
        argv = ["infer", "--checkpoint", str(paths["checkpoint"]), *common,
                "--out", str(directory / "out.jsonl")]
    elif target in ("priors", "config"):
        argv = ["train", *common, "--priors", str(paths["priors"]),
                "--config", str(paths["config"]), "--quiet"]
    else:
        argv = ["estimate-priors", *common,
                "--predictions", str(paths["detections"]),
                "--out", str(directory / "out.json"), "--score-threshold", "0.0"]
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, err.getvalue()


def _serialize(target, doc):
    if target in JSONL_TARGETS:
        return "".join(json.dumps(obj) + "\n" for obj in doc)
    return json.dumps(doc)


FIELD = st.tuples(
    st.lists(st.integers(0, 63), min_size=1, max_size=4).map(tuple),
    st.sampled_from(REPLACEMENTS),
)
# A file cut short, or one byte that is not UTF-8 inserted, at an offset.
SPLICE = st.tuples(st.sampled_from(("cut", "byte")), st.integers(0, 1 << 16))


@given(target=st.sampled_from(FUZZ_TARGETS), mutation=st.one_of(FIELD, SPLICE))
# Inputs that ended in a traceback before every reader was checked.
@example(target="dataset", mutation=((0, "width"), INF))
@example(target="dataset", mutation=((0, "labels"), [INF]))
@example(target="dataset", mutation=((0, "gt_boxes"), 5))
@example(target="dataset", mutation=((0, "gt_boxes", 0, 4), INF))
@example(target="dataset+sidecar", mutation=((0, "image_id"), ["img00000"]))
@example(target="dataset+sidecar", mutation=((0, "proposals"), [[1, 1, 2, 2, 0]] * 4))
@example(target="sidecar", mutation=((0, "width"), INF))
@example(target="sidecar", mutation=((0, "image_id"), ["img00000"]))
@example(target="vocab", mutation=((0, "id"), INF))
@example(target="vocab", mutation=((0, "synonyms"), 5))
@example(target="detections", mutation=((0, "class_id"), INF))
@example(target="priors", mutation=(("by_class",), []))
@example(target="priors", mutation=(("by_class", "0", "count"), INF))
@example(target="checkpoint", mutation=(("rgb.det.w", "shape", 0), INF))
@example(target="config", mutation=(("epochs",), INF))
@example(target="config", mutation=(("epochs",), [1]))
@example(target="dataset", mutation=((0, "gt_boxes", 0, 0), [""]))
@example(target="vocab", mutation=((0, "name"), MISSING))
@example(target="vocab", mutation=((0, "name"), {"": ""}))
@example(target="vocab", mutation=((0, "synonyms", 0), INF))
@example(target="priors", mutation=(("min_count",), INF))
@example(target="priors", mutation=(("by_class_word",), ""))
@example(target="dataset", mutation=((0, "width"), 10**400))
@example(target="priors", mutation=(("by_class", "0", "count"), 10**400))
@example(target="detections", mutation=((0, "class_id"), 5))
@example(target="dataset", mutation=("byte", 0))
@example(target="vocab", mutation=("byte", 0))
@example(target="config", mutation=("byte", 0))
# Valid JSON holding an absurd value, or a non-integer in an integer field.
@example(target="config", mutation=(("epochs",), 1e300))
@example(target="config", mutation=(("proj_dim",), 10**12))
@example(target="config", mutation=(("epochs",), 2.9))
@example(target="dataset", mutation=((0, "labels"), [0.9]))
@example(target="dataset", mutation=((0, "labels"), [True]))
# Values of the right JSON type that no saved file holds.
@example(target="priors", mutation=(("min_count",), 0))
@example(target="priors", mutation=(("by_class", "0", "count"), -1))
@example(target="priors", mutation=(("by_class", "0", "std"), -0.5))
@example(target="checkpoint", mutation=(("rgb.det.w", "shape"), [4]))
@example(target="checkpoint", mutation=(("proj.w", "shape"), [64]))
# Detection numbers of another JSON type, which float() would convert.
@example(target="detections", mutation=((0, "box"), [True, "0", 2, 2]))
@example(target="detections", mutation=((0, "score"), "0.5"))
# Numbers given as JSON strings, which int() and float() would convert.
@example(target="dataset", mutation=((0, "width"), "16"))
@example(target="dataset", mutation=((0, "labels"), ["0"]))
@example(target="dataset", mutation=((0, "gt_boxes", 0, 4), "0"))
@example(target="sidecar", mutation=((0, "width"), "16"))
@example(target="vocab", mutation=((0, "id"), "0"))
@example(target="priors", mutation=(("min_count",), "2"))
@example(target="priors", mutation=(("by_class", "0", "count"), "12"))
@example(target="priors", mutation=(("by_class", "0", "mean"), "0.5"))
@example(target="priors", mutation=(("by_class", "0", "std"), "0.25"))
@example(target="checkpoint", mutation=(("rgb.det.w", "shape", 0), "2"))
# Strings and all-boolean lists inside numeric arrays, which NumPy converts
# when it is given the float64 dtype up front.
@example(target="dataset", mutation=((0, "proposals", 0, 0), "1"))
@example(target="dataset", mutation=((0, "rgb_features", 0, 0), "0.5"))
@example(target="dataset", mutation=((0, "depth_features", 0), ["0.5", "1"]))
@example(target="dataset", mutation=((0, "proposal_depths", 0), "0.5"))
@example(target="dataset", mutation=((0, "proposal_depths"), [True, False] * 2))
@example(target="sidecar", mutation=((0, "values", 0, 0), "0.5"))
@example(target="sidecar", mutation=((0, "values"), [[True] * 16] * 16))
@example(target="checkpoint", mutation=(("rgb.det.b", "values", 0), "0"))
@example(target="checkpoint", mutation=(("rgb.det.b", "values"), [False] * 2))
@settings(
    max_examples=200,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
def test_mutated_input_exits_cleanly(valid_inputs, tmp_path, target, mutation):
    # One field replaced, the file cut short or one bad byte inserted in an
    # otherwise valid input: the CLI reports it with exit 2 (config) or 3.
    with tempfile.TemporaryDirectory(dir=tmp_path) as directory:
        outcome = _run_mutated(valid_inputs, Path(directory), target, *mutation)
    assume(outcome is not None)
    code, err = outcome
    assert code == (2 if target == "config" else 3), err
    assert err.startswith("error: ")
