"""End-to-end checks of the command-line surface.

Everything runs in-process through main() so exit codes and stdout are
observable without spawning subprocesses.
"""

import json

import pytest

from wsodkit.cli import main


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
    code, _, err = run(
        capsys, "train",
        "--data", str(data), "--vocab", str(vocab),
        "--set", "does_not_exist=1",
    )
    assert code == 2 and "error:" in err


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
        ("train", ["--set", "priors.score_threshold=nan"], "score_threshold"),
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


def test_eval_data_uses_depth_map_sidecar(tmp_path, capsys):
    data, vocab = gen_small(capsys, tmp_path)
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
    code, _, err = run(
        capsys, "train",
        "--data", str(no_depths), "--vocab", str(vocab),
        "--depth-maps", str(sidecar), "--eval-data", str(no_depths),
        "--set", "epochs=1", "--quiet",
    )
    assert code == 0, err
