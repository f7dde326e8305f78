"""End-to-end command-line runs against real files on disk."""

import json

import numpy as np
import pytest

from imageqa.cli import main
from imageqa.models import parse_checkpoint
from imageqa.textpipe import Vocabulary
from tests.helpers import (
    TOY_LEXICON,
    TOY_TAXONOMY,
    separable_corpus,
    v1_checkpoint_text,
    with_first_value,
)


@pytest.fixture
def workdir(tmp_path):
    (tmp_path / "train.txt").write_text(separable_corpus(10), encoding="utf-8")
    (tmp_path / "taxonomy.txt").write_text(TOY_TAXONOMY, encoding="utf-8")
    (tmp_path / "lexicon.txt").write_text(TOY_LEXICON, encoding="utf-8")
    features = "".join(
        f"img{i}," + ",".join(str(0.1 * (i + j)) for j in range(4)) + "\n"
        for i in range(10)
    )
    (tmp_path / "features.txt").write_text(features, encoding="utf-8")
    return tmp_path


def run(*argv):
    return main([str(a) for a in argv])


def build_vocabs(workdir, *extra):
    code = run(
        "build-vocab",
        "--train", workdir / "train.txt",
        "--out-q", workdir / "vocab_q.txt",
        "--out-a", workdir / "vocab_a.txt",
        *extra,
    )
    assert code == 0
    return workdir / "vocab_q.txt", workdir / "vocab_a.txt"


def train_blind(workdir, *extra, out="model.ckpt"):
    vq, va = build_vocabs(workdir)
    code = run(
        "train",
        "--model", "blind-bow",
        "--train", workdir / "train.txt",
        "--vocab-q", vq,
        "--vocab-a", va,
        "--maxlen", 6,
        "--embed-dim", 32,
        "--optimizer", "adam",
        "--lr", 0.01,
        "--epochs", 40,
        "--batch", 10,
        "--dropout", 0,
        "--seed", 7,
        "--out", workdir / out,
        *extra,
    )
    return code, workdir / out


# ----------------------------------------------------------------------
# build-vocab


def test_build_vocab_writes_both_files_and_a_manifest(workdir):
    vq, va = build_vocabs(workdir)
    q = Vocabulary.parse(vq.read_text(encoding="utf-8"))
    a = Vocabulary.parse(va.read_text(encoding="utf-8"))
    assert q.word2index["<pad>"] == 0 and q.word2index["<unk>"] == 1
    # "what", "is", "?" appear in every question
    assert "what" in q.word2index and "?" in q.word2index
    assert "ans0" in a.word2index
    manifest = json.loads((workdir / "vocab_q.txt.manifest.json").read_text())
    assert manifest["command"] == "build-vocab"
    assert "timestamp" not in manifest


def test_build_vocab_truncation_caps_the_word_list(workdir):
    vq, va = build_vocabs(workdir, "--truncate", "5")
    q = Vocabulary.parse(vq.read_text(encoding="utf-8"))
    # two specials plus at most five kept words
    assert len(q.word2index) <= 7
    assert q.word2index["<pad>"] == 0 and q.word2index["<unk>"] == 1


def test_build_vocab_whole_answer_mode(workdir):
    (workdir / "multi.txt").write_text(
        "what is this ?\nknife, fork\nimg0\n" * 2, encoding="utf-8"
    )
    code = run(
        "build-vocab",
        "--train", workdir / "multi.txt",
        "--out-q", workdir / "q.txt",
        "--out-a", workdir / "a.txt",
        "--whole-answer",
    )
    assert code == 0
    a = Vocabulary.parse((workdir / "a.txt").read_text(encoding="utf-8"))
    assert "knife, fork" in a.word2index
    assert "knife" not in a.word2index


def test_malformed_triple_file_exits_three(workdir):
    (workdir / "bad.txt").write_text("question only\nanswer\n", encoding="utf-8")
    code = run(
        "build-vocab",
        "--train", workdir / "bad.txt",
        "--out-q", workdir / "q.txt",
        "--out-a", workdir / "a.txt",
    )
    assert code == 3
    assert not (workdir / "q.txt").exists()


def test_missing_input_file_exits_two(workdir):
    code = run(
        "build-vocab",
        "--train", workdir / "nope.txt",
        "--out-q", workdir / "q.txt",
        "--out-a", workdir / "a.txt",
    )
    assert code == 2


def test_unknown_flag_exits_two(workdir, capsys):
    assert run("build-vocab", "--nonsense") == 2
    capsys.readouterr()


# ----------------------------------------------------------------------
# train


def test_train_writes_checkpoint_log_and_manifest(workdir, capsys):
    code, ckpt = train_blind(workdir)
    assert code == 0
    assert ckpt.exists()
    log = (workdir / "model.ckpt.log").read_text(encoding="utf-8")
    lines = [l for l in log.splitlines() if l]
    assert len(lines) == 40
    assert lines[0].startswith("epoch=1 loss=")
    assert lines[-1].startswith("epoch=40 ")
    manifest = json.loads((workdir / "model.ckpt.manifest.json").read_text())
    assert manifest["model"]["kind"] == "blind-bow"
    assert manifest["model"]["textual_embedding_dim"] == 32
    assert manifest["pipeline"]["maxlen"] == 6
    out = capsys.readouterr().out
    assert "epoch=40 " in out


def test_train_twice_is_byte_identical(workdir, capsys):
    _, first = train_blind(workdir, out="a.ckpt")
    _, second = train_blind(workdir, out="b.ckpt")
    capsys.readouterr()
    assert first.read_bytes() == second.read_bytes()
    assert (workdir / "a.ckpt.log").read_bytes() == (workdir / "b.ckpt.log").read_bytes()


def test_vision_model_without_features_exits_two(workdir, capsys):
    vq, va = build_vocabs(workdir)
    code = run(
        "train", "--model", "vl-bow",
        "--train", workdir / "train.txt",
        "--vocab-q", vq, "--vocab-a", va,
        "--out", workdir / "m.ckpt",
    )
    assert code == 2
    capsys.readouterr()


def test_mismatched_fusion_widths_exit_four_and_write_nothing(workdir, capsys):
    vq, va = build_vocabs(workdir)
    code = run(
        "train", "--model", "vl-bow",
        "--merge", "mul",
        "--train", workdir / "train.txt",
        "--features", workdir / "features.txt",
        "--vocab-q", vq, "--vocab-a", va,
        "--embed-dim", "32",  # features are 4-wide; no dense layer
        "--visual-embed-dim", "0",
        "--epochs", "1",
        "--out", workdir / "m.ckpt",
    )
    assert code == 4
    assert not (workdir / "m.ckpt").exists()
    capsys.readouterr()


def test_vision_training_runs_end_to_end(workdir, capsys):
    vq, va = build_vocabs(workdir)
    code = run(
        "train", "--model", "vl-bow",
        "--merge", "concat",
        "--train", workdir / "train.txt",
        "--features", workdir / "features.txt",
        "--vocab-q", vq, "--vocab-a", va,
        "--embed-dim", "16",
        "--epochs", "3",
        "--dropout", "0",
        "--l2-features",
        "--out", workdir / "vision.ckpt",
    )
    assert code == 0
    manifest = json.loads((workdir / "vision.ckpt.manifest.json").read_text())
    assert manifest["model"]["visual_dim"] == 4
    assert manifest["pipeline"]["l2_features"] is True
    capsys.readouterr()


# ----------------------------------------------------------------------
# predict


def test_train_then_predict_recovers_the_answers(workdir, capsys):
    code, ckpt = train_blind(workdir)
    assert code == 0
    code = run(
        "predict",
        "--checkpoint", ckpt,
        "--test", workdir / "train.txt",
        "--vocab-q", workdir / "vocab_q.txt",
        "--vocab-a", workdir / "vocab_a.txt",
        "--out", workdir / "pred.txt",
    )
    assert code == 0
    preds = (workdir / "pred.txt").read_text(encoding="utf-8").splitlines()
    truth = [f"ans{i}" for i in range(10)]
    assert len(preds) == 10
    hits = sum(p == t for p, t in zip(preds, truth))
    assert hits >= 9
    capsys.readouterr()


def test_predict_on_empty_test_file_writes_empty_output(workdir, capsys):
    code, ckpt = train_blind(workdir)
    assert code == 0
    (workdir / "empty.txt").write_text("", encoding="utf-8")
    code = run(
        "predict",
        "--checkpoint", ckpt,
        "--test", workdir / "empty.txt",
        "--vocab-q", workdir / "vocab_q.txt",
        "--vocab-a", workdir / "vocab_a.txt",
        "--out", workdir / "pred.txt",
    )
    assert code == 0
    assert (workdir / "pred.txt").read_text(encoding="utf-8") == ""
    capsys.readouterr()


def test_predict_without_manifest_fails_cleanly(workdir, capsys):
    code, ckpt = train_blind(workdir)
    assert code == 0
    (workdir / "model.ckpt.manifest.json").unlink()
    code = run(
        "predict",
        "--checkpoint", ckpt,
        "--test", workdir / "train.txt",
        "--vocab-q", workdir / "vocab_q.txt",
        "--vocab-a", workdir / "vocab_a.txt",
        "--out", workdir / "pred.txt",
    )
    assert code == 4
    capsys.readouterr()


# ----------------------------------------------------------------------
# eval


def write_answers(path, lines):
    path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")


def test_eval_identical_files_score_one_under_both_metrics(workdir, capsys):
    write_answers(workdir / "p.txt", ["dog", "horse", "dalmatian"])
    write_answers(workdir / "t.txt", ["dog", "horse", "dalmatian"])
    code = run(
        "eval", "--pred", workdir / "p.txt", "--truth", workdir / "t.txt",
        "--metric", "acc",
    )
    assert code == 0
    assert capsys.readouterr().out.strip() == "metric=acc tau=-1 value=1.000000"
    code = run(
        "eval", "--pred", workdir / "p.txt", "--truth", workdir / "t.txt",
        "--metric", "wups", "--tau", "0.9",
        "--taxonomy", workdir / "taxonomy.txt",
        "--lexicon", workdir / "lexicon.txt",
    )
    assert code == 0
    assert capsys.readouterr().out.strip() == "metric=wups tau=0.9 value=1.000000"


def test_eval_near_misses_score_zero_accuracy(workdir, capsys):
    write_answers(workdir / "p.txt", ["chair"])
    write_answers(workdir / "t.txt", ["armchair"])
    code = run(
        "eval", "--pred", workdir / "p.txt", "--truth", workdir / "t.txt",
        "--metric", "acc",
    )
    assert code == 0
    assert capsys.readouterr().out.strip() == "metric=acc tau=-1 value=0.000000"


def test_eval_toy_wups_hand_computed_mean(workdir, capsys):
    # dog/horse -> 0.05, dalmatian/dog -> 0.08; mean 0.065
    write_answers(workdir / "p.txt", ["dog", "dalmatian"])
    write_answers(workdir / "t.txt", ["horse", "dog"])
    code = run(
        "eval", "--pred", workdir / "p.txt", "--truth", workdir / "t.txt",
        "--metric", "wups", "--tau", "0.9",
        "--taxonomy", workdir / "taxonomy.txt",
        "--lexicon", workdir / "lexicon.txt",
    )
    assert code == 0
    assert capsys.readouterr().out.strip() == "metric=wups tau=0.9 value=0.065000"


def test_eval_tau_sentinel_equals_accuracy_metric(workdir, capsys):
    write_answers(workdir / "p.txt", ["dog", "horse"])
    write_answers(workdir / "t.txt", ["dog", "dog"])
    code = run(
        "eval", "--pred", workdir / "p.txt", "--truth", workdir / "t.txt",
        "--metric", "wups", "--tau", "-1",
    )
    assert code == 0
    assert capsys.readouterr().out.strip() == "metric=wups tau=-1 value=0.500000"


def test_eval_line_count_mismatch_exits_four(workdir, capsys):
    write_answers(workdir / "p.txt", ["dog"])
    write_answers(workdir / "t.txt", ["dog", "horse"])
    code = run(
        "eval", "--pred", workdir / "p.txt", "--truth", workdir / "t.txt",
        "--metric", "acc",
    )
    assert code == 4
    capsys.readouterr()


def test_eval_soft_metric_without_ontology_exits_two(workdir, capsys):
    write_answers(workdir / "p.txt", ["dog"])
    write_answers(workdir / "t.txt", ["dog"])
    code = run(
        "eval", "--pred", workdir / "p.txt", "--truth", workdir / "t.txt",
        "--metric", "wups", "--tau", "0.9",
    )
    assert code == 2
    capsys.readouterr()


# ----------------------------------------------------------------------
# bad inputs: a documented exit code and message, no traceback, no output


def train_argv(workdir, *extra):
    vq, va = build_vocabs(workdir)
    return (
        "train",
        "--train", workdir / "train.txt",
        "--vocab-q", vq, "--vocab-a", va,
        "--maxlen", 6, "--embed-dim", 8, "--batch", 10,
        "--dropout", 0, "--val-split", 0, "--seed", 7,
        "--out", workdir / "bad.ckpt",
        *extra,
    )


def predict_argv(workdir):
    code, ckpt = train_blind(workdir)
    assert code == 0
    return (
        "predict",
        "--checkpoint", ckpt,
        "--test", workdir / "train.txt",
        "--vocab-q", workdir / "vocab_q.txt",
        "--vocab-a", workdir / "vocab_a.txt",
        "--out", workdir / "pred.txt",
    )


def features_with(workdir, value):
    """Feature line 4 gets ``value`` as its first entry."""
    path = workdir / "features.txt"
    lines = path.read_text(encoding="utf-8").splitlines()
    lines[3] = "img3," + value + "," + lines[3].split(",", 2)[2]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return train_argv(workdir, "--model", "vl-bow", "--features", path)


def diverging_run(workdir):
    return train_argv(
        workdir, "--model", "blind-bow", "--optimizer", "sgd", "--lr", "1e300",
        "--epochs", 3,
    )


def overflowing_last_step(workdir):
    # one step whose update overflows classifier.weight; its loss was finite
    (workdir / "features.txt").write_text(
        "".join(f"img{i},5,5,5,5\n" for i in range(10)), encoding="utf-8"
    )
    return train_argv(
        workdir, "--model", "vl-bow", "--features", workdir / "features.txt",
        "--optimizer", "sgd", "--lr", "1.7e308", "--epochs", 1,
    )


def nan_in_checkpoint(workdir):
    argv = predict_argv(workdir)
    ckpt = workdir / "model.ckpt"
    lines = ckpt.read_text(encoding="utf-8").split("\n")
    ckpt.write_text("\n".join(with_first_value(lines, np.nan)), encoding="utf-8")
    return argv


def v1_checkpoint(workdir):
    argv = predict_argv(workdir)
    ckpt = workdir / "model.ckpt"
    arrays = parse_checkpoint(ckpt.read_text(encoding="utf-8"))
    ckpt.write_text(v1_checkpoint_text(arrays), encoding="utf-8")
    return argv


def edit_manifest(edit):
    def setup(workdir):
        argv = predict_argv(workdir)
        path = workdir / "model.ckpt.manifest.json"
        manifest = json.loads(path.read_text(encoding="utf-8"))
        edit(manifest)
        path.write_text(json.dumps(manifest), encoding="utf-8")
        return argv
    return setup


def truncated_manifest(workdir):
    argv = predict_argv(workdir)
    path = workdir / "model.ckpt.manifest.json"
    path.write_text(path.read_text(encoding="utf-8")[:40], encoding="utf-8")
    return argv


def not_utf8(name):
    def setup(workdir):
        argv = predict_argv(workdir)
        (workdir / name).write_bytes(b"\xff\xfe bad\n")
        return argv
    return setup


def answers_not_utf8(workdir):
    write_answers(workdir / "t.txt", ["dog"])
    (workdir / "p.txt").write_bytes(b"\xffdog\n")
    return (
        "eval", "--pred", workdir / "p.txt", "--truth", workdir / "t.txt",
        "--metric", "acc",
    )


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize(
    "setup, code, needle",
    [
        (lambda w: features_with(w, "nan"), 3, "line 4"),
        (lambda w: features_with(w, "inf"), 3, "line 4"),
        (diverging_run, 4, "epoch 2, step 2"),
        (overflowing_last_step, 4, "'classifier.weight'"),
        (lambda w: train_argv(w, "--model", "blind-bow", "--seed", -1), 4, "seed"),
        (nan_in_checkpoint, 3, "model.ckpt: tensor 'embedding'"),
        (v1_checkpoint, 3, "model.ckpt: first line"),
        (edit_manifest(lambda m: m["model"].update(depth=2)), 4, "'depth'"),
        (edit_manifest(lambda m: m["model"].pop("seed")), 4, "'seed'"),
        (edit_manifest(lambda m: m.update(model="blind-bow")), 4, "'model'"),
        (edit_manifest(lambda m: m["model"].update(dropout_rate="x")), 4, "'dropout_rate'"),
        (edit_manifest(lambda m: m["model"].update(input_dim="12")), 4, "'input_dim'"),
        (edit_manifest(lambda m: m["pipeline"].update(maxlen="x")), 4, "'maxlen'"),
        (edit_manifest(lambda m: m.update(pipeline=[])), 4, "'pipeline'"),
        (truncated_manifest, 3, "model.ckpt.manifest.json"),
        (not_utf8("vocab_q.txt"), 3, "vocab_q.txt"),
        (not_utf8("model.ckpt"), 3, "model.ckpt"),
        (not_utf8("model.ckpt.manifest.json"), 3, "model.ckpt.manifest.json"),
        (answers_not_utf8, 3, "p.txt"),
    ],
    ids=[
        "feature-nan", "feature-inf", "diverged-loss", "non-finite-parameters",
        "negative-seed", "checkpoint-nan", "checkpoint-v1", "manifest-extra-key",
        "manifest-missing-key", "manifest-model-not-object", "manifest-dropout-not-number",
        "manifest-input-dim-string", "manifest-maxlen-not-int", "manifest-pipeline-not-object",
        "manifest-bad-json", "vocab-not-utf8", "checkpoint-not-utf8",
        "manifest-not-utf8", "answers-not-utf8",
    ],
)
def test_bad_input_exits_with_its_code_and_writes_nothing(
    workdir, capsys, setup, code, needle
):
    argv = setup(workdir)
    before = sorted(p.name for p in workdir.iterdir())
    capsys.readouterr()
    assert run(*argv) == code
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert needle in err
    assert sorted(p.name for p in workdir.iterdir()) == before
