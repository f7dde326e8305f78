"""Command line entry points: build-vocab, train, predict, eval.

Exit codes: 0 success, 2 usage error, 3 malformed input data, 4 violated
numeric or calling contract.  Every file is written to a temp name and
renamed into place, so a failing run leaves no partial outputs, and a rerun
with identical flags and seed produces byte-identical outputs.  Commands
that produce files also write a JSON manifest next to their first output;
``predict`` reads the manifest sitting next to the checkpoint to learn the
model kind and dimensions.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import os
import sys
import tempfile
import typing
from pathlib import Path

import numpy as np

from . import features as feat
from . import metrics, models, ontology, textpipe, train
from .errors import ContractError, FormatError, ToolkitError


class UsageError(Exception):
    pass


# ----------------------------------------------------------------------
# small file helpers


def _read_bytes(path: str) -> bytes:
    try:
        return Path(path).read_bytes()
    except OSError as exc:
        raise UsageError(f"cannot read {path}: {exc}") from exc


def _read_text(path: str) -> str:
    try:
        return textpipe._read_text(_read_bytes(path))
    except FormatError as exc:
        raise FormatError(f"{path}: {exc}") from None


def _sha256(path: str) -> str:
    return "sha256:" + hashlib.sha256(_read_bytes(path)).hexdigest()


def _atomic_write(path: str, text: str) -> None:
    target = Path(path).absolute()
    fd, tmp = tempfile.mkstemp(dir=target.parent, prefix=f".{target.name}.")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as handle:
            handle.write(text)
        os.replace(tmp, target)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _write_manifest(anchor: str, command: str, options: dict, inputs: list[str],
                    outputs: list[str], extra: dict | None = None) -> str:
    manifest = {
        "command": command,
        "options": options,
        "seed": options.get("seed"),
        "inputs": {path: _sha256(path) for path in inputs},
        "outputs": outputs,
    }
    if extra:
        manifest.update(extra)
    path = anchor + ".manifest.json"
    _atomic_write(path, json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    return path


def _options(args: argparse.Namespace) -> dict:
    skip = {"func", "command"}
    return {k: v for k, v in sorted(vars(args).items()) if k not in skip}


# ----------------------------------------------------------------------
# subcommands


def _load_records(path: str, keep_top_pairs: int) -> list[textpipe.QARecord]:
    records = textpipe.parse_triple_file(_read_bytes(path))
    return textpipe.filter_top_pairs(records, keep_top_pairs)


def cmd_build_vocab(args: argparse.Namespace) -> int:
    records = _load_records(args.train, args.keep_top_pairs)
    q_counts = textpipe.word_frequencies([r.question for r in records])
    if args.whole_answer:
        a_counts: dict[str, int] = {}
        for r in records:
            a_counts[r.answer] = a_counts.get(r.answer, 0) + 1
    else:
        a_counts = textpipe.answer_word_frequencies(
            [r.answer for r in records], args.delimiter
        )
    vocab_q = textpipe.build_vocabulary(q_counts, args.truncate)
    vocab_a = textpipe.build_vocabulary(a_counts, args.truncate)
    _atomic_write(args.out_q, "\n".join(vocab_q.export_lines()) + "\n")
    _atomic_write(args.out_a, "\n".join(vocab_a.export_lines()) + "\n")
    _write_manifest(
        args.out_q, "build-vocab", _options(args), [args.train],
        [args.out_q, args.out_a],
    )
    print(f"question vocabulary: {len(vocab_q)} entries -> {args.out_q}")
    print(f"answer vocabulary: {len(vocab_a)} entries -> {args.out_a}")
    return 0


def _load_vocab(path: str) -> textpipe.Vocabulary:
    return textpipe.Vocabulary.parse(_read_text(path))


def _model_inputs(records: list[textpipe.QARecord], vocab_q: textpipe.Vocabulary,
                  maxlen: int, features: str | None, l2_features: bool):
    """Padded question indices, and the aligned feature rows when a feature
    file is given (None otherwise)."""
    questions = textpipe.pad_sequences(
        textpipe.encode_questions([r.question for r in records], vocab_q), maxlen
    )
    if not features:
        return questions, None
    visual = feat.align(records, feat.load_feature_table(_read_bytes(features)))
    if l2_features:
        visual = feat.l2_normalize_rows(visual)
    return questions, visual


def cmd_train(args: argparse.Namespace) -> int:
    is_vision = args.model.startswith("vl")
    if is_vision and not args.features:
        raise UsageError(f"--features is required for model '{args.model}'")

    records = _load_records(args.train, args.keep_top_pairs)
    vocab_q = _load_vocab(args.vocab_q)
    vocab_a = _load_vocab(args.vocab_a)
    pipeline = textpipe.PipelineConfig(
        maxlen=args.maxlen,
        only_first_answer_word=not args.whole_answer,
        answer_word_delimiter=args.delimiter,
    )
    questions, visual = _model_inputs(
        records, vocab_q, pipeline.maxlen,
        args.features if is_vision else None, args.l2_features,
    )
    targets = textpipe.encode_answers([r.answer for r in records], vocab_a, pipeline)

    config = models.ModelConfig(
        input_dim=len(vocab_q),
        output_dim=len(vocab_a),
        textual_embedding_dim=args.embed_dim,
        hidden_state_dim=args.hidden_dim,
        visual_dim=0 if visual is None else visual.shape[1],
        visual_embedding_dim=args.visual_embed_dim,
        multimodal_merge_mode=args.merge,
        cell=args.cell,
        dropout_rate=args.dropout,
        seed=args.seed,
    )
    model = models.build_model(args.model, config)  # dim rules fail here, pre-output
    training = train.TrainingConfig(
        batch_size=args.batch,
        epochs=args.epochs,
        validation_split=args.val_split,
        optimizer=args.optimizer,
        learning_rate=args.lr,
        seed=args.seed,
    )

    lines: list[str] = []

    def emit(report: train.EpochReport) -> None:
        lines.append(report.line())
        print(report.line())

    inputs = questions if visual is None else (questions, visual)
    # a diverging run overflows on the way; the finite checks in fit and
    # below report it, so numpy's own warnings would only come first
    with np.errstate(over="ignore", invalid="ignore"):
        train.fit(model, inputs, targets, training, on_epoch=emit)
    for name, tensor in model.params.items():
        if not np.isfinite(tensor.data).all():
            raise ContractError(
                f"training left non-finite values in '{name}'; no checkpoint written"
            )

    _atomic_write(args.out, models.format_checkpoint(model.params))
    log_path = args.out + ".log"
    _atomic_write(log_path, "\n".join(lines) + ("\n" if lines else ""))
    inputs_list = [args.train, args.vocab_q, args.vocab_a]
    if is_vision:
        inputs_list.append(args.features)
    _write_manifest(
        args.out, "train", _options(args), inputs_list,
        [args.out, log_path],
        extra={
            "model": {"kind": args.model, **dataclasses.asdict(config)},
            "pipeline": {
                "maxlen": pipeline.maxlen,
                "only_first_answer_word": pipeline.only_first_answer_word,
                "answer_word_delimiter": pipeline.answer_word_delimiter,
                "l2_features": bool(args.l2_features),
            },
        },
    )
    return 0


def cmd_predict(args: argparse.Namespace) -> int:
    manifest_path = args.checkpoint + ".manifest.json"
    if not os.path.exists(manifest_path):
        raise ContractError(
            f"no manifest at {manifest_path}; predict needs the training "
            "manifest next to the checkpoint to know the model kind"
        )
    try:
        manifest = json.loads(_read_text(manifest_path))
    except json.JSONDecodeError as exc:
        raise FormatError(f"{manifest_path} is not valid JSON: {exc}") from None
    declared = manifest.get("model") if isinstance(manifest, dict) else None
    if not isinstance(declared, dict):
        raise ContractError(f"{manifest_path} has no 'model' object")
    kind = declared.pop("kind", None)
    if kind not in models.MODEL_KINDS:
        raise ContractError(f"manifest declares unknown model kind '{kind}'")
    fields = {f.name for f in dataclasses.fields(models.ModelConfig)}
    unknown, missing = sorted(set(declared) - fields), sorted(fields - set(declared))
    if unknown:
        raise ContractError(f"{manifest_path}: unknown model key '{unknown[0]}'")
    if missing:
        raise ContractError(f"{manifest_path}: missing model key '{missing[0]}'")
    hints = typing.get_type_hints(models.ModelConfig)
    for key, value in declared.items():
        want = (int, float) if hints[key] is float else hints[key]
        if isinstance(value, bool) or not isinstance(value, want):
            raise ContractError(
                f"{manifest_path}: model key '{key}' must be "
                f"{hints[key].__name__}, got {value!r}"
            )
    config = models.ModelConfig(**declared)
    pipeline_info = manifest.get("pipeline")
    if not isinstance(pipeline_info, dict):
        raise ContractError(f"{manifest_path} has no 'pipeline' object")
    maxlen = pipeline_info.get("maxlen")
    if isinstance(maxlen, bool) or not isinstance(maxlen, int) or maxlen < 1:
        raise ContractError(
            f"{manifest_path}: pipeline key 'maxlen' must be an int >= 1, "
            f"got {maxlen!r}"
        )
    l2_features = pipeline_info.get("l2_features")
    if not isinstance(l2_features, bool):
        raise ContractError(
            f"{manifest_path}: pipeline key 'l2_features' must be a bool, "
            f"got {l2_features!r}"
        )

    vocab_q = _load_vocab(args.vocab_q)
    vocab_a = _load_vocab(args.vocab_a)
    if len(vocab_q) != config.input_dim:
        raise ContractError(
            f"question vocabulary has {len(vocab_q)} entries, checkpoint "
            f"was trained with {config.input_dim}"
        )
    if len(vocab_a) != config.output_dim:
        raise ContractError(
            f"answer vocabulary has {len(vocab_a)} entries, checkpoint "
            f"was trained with {config.output_dim}"
        )

    model = models.build_model(kind, config)
    text = _read_text(args.checkpoint)
    try:
        arrays = models.parse_checkpoint(text)
    except FormatError as exc:
        raise FormatError(f"{args.checkpoint}: {exc}") from None
    models.load_checkpoint(model, arrays)

    records = textpipe.parse_triple_file(_read_bytes(args.test))
    if not records:
        _atomic_write(args.out, "")
        _write_manifest(
            args.out, "predict", _options(args),
            [args.checkpoint, args.test, args.vocab_q, args.vocab_a], [args.out],
        )
        return 0

    inputs_list = [args.checkpoint, args.test, args.vocab_q, args.vocab_a]
    if model.is_vision:
        if not args.features:
            raise UsageError(f"--features is required for model '{kind}'")
        inputs_list.append(args.features)
    questions, visual = _model_inputs(
        records, vocab_q, maxlen, args.features if model.is_vision else None,
        l2_features,
    )

    words = models.decode_predictions(
        model, questions, visual, index2word=vocab_a.index2word
    )
    _atomic_write(args.out, "\n".join(words) + "\n")
    _write_manifest(args.out, "predict", _options(args), inputs_list, [args.out])
    return 0


def _read_answer_lines(path: str) -> list[str]:
    return _read_text(path).splitlines()


def cmd_eval(args: argparse.Namespace) -> int:
    predicted = _read_answer_lines(args.pred)
    truth = _read_answer_lines(args.truth)
    config = metrics.WupsConfig(threshold=args.tau, delimiter=args.delimiter)
    if args.metric == "acc" or config.accuracy_mode:
        if args.metric == "acc":
            config = metrics.WupsConfig(
                threshold=metrics.ACCURACY_SENTINEL, delimiter=args.delimiter
            )
        value = metrics.wups_corpus(predicted, truth, config)
        print(metrics.format_metric_line(args.metric, config.threshold, value))
        return 0
    if not args.taxonomy or not args.lexicon:
        raise UsageError("--taxonomy and --lexicon are required for soft scoring")
    taxonomy = ontology.parse_taxonomy(_read_bytes(args.taxonomy))
    lexicon = ontology.parse_lexicon(_read_bytes(args.lexicon), taxonomy)
    value = metrics.wups_corpus(predicted, truth, config, lexicon, taxonomy)
    print(metrics.format_metric_line(args.metric, config.threshold, value))
    return 0


# ----------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="imageqa",
        description="Train and evaluate question answering models over images.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    vocab = sub.add_parser("build-vocab", help="build question/answer vocabularies")
    vocab.add_argument("--train", required=True, help="training triples file")
    vocab.add_argument("--truncate", type=int, default=0,
                       help="keep only the k most frequent words (both vocabularies)")
    vocab.add_argument("--out-q", required=True, help="question vocabulary output")
    vocab.add_argument("--out-a", required=True, help="answer vocabulary output")
    vocab.add_argument("--whole-answer", action="store_true",
                       help="treat each full answer string as one class")
    vocab.add_argument("--delimiter", default=", ", help="answer word delimiter")
    vocab.add_argument("--keep-top-pairs", type=int, default=0,
                       help="drop records outside the k most frequent answers")
    vocab.set_defaults(func=cmd_build_vocab)

    tr = sub.add_parser("train", help="train a model and write a checkpoint")
    tr.add_argument("--model", required=True, choices=list(models.MODEL_KINDS))
    tr.add_argument("--cell", default="gru", choices=list(models.CELLS))
    tr.add_argument("--merge", default="concat", choices=list(models.MERGE_MODES))
    tr.add_argument("--train", required=True, help="training triples file")
    tr.add_argument("--features", help="image feature CSV (vision models)")
    tr.add_argument("--vocab-q", required=True)
    tr.add_argument("--vocab-a", required=True)
    tr.add_argument("--maxlen", type=int, default=30)
    tr.add_argument("--embed-dim", type=int, default=500)
    tr.add_argument("--hidden-dim", type=int, default=500)
    tr.add_argument("--visual-embed-dim", type=int, default=0,
                    help="0 feeds the raw features straight to the merge")
    tr.add_argument("--optimizer", default="adam", choices=list(train.OPTIMIZERS))
    tr.add_argument("--lr", type=float, default=None,
                    help="default 0.01 for sgd, 0.001 for adam")
    tr.add_argument("--batch", type=int, default=512)
    tr.add_argument("--epochs", type=int, default=40)
    tr.add_argument("--val-split", type=float, default=0.1)
    tr.add_argument("--dropout", type=float, default=0.5)
    tr.add_argument("--seed", type=int, default=0)
    tr.add_argument("--whole-answer", action="store_true")
    tr.add_argument("--delimiter", default=", ")
    tr.add_argument("--keep-top-pairs", type=int, default=0)
    tr.add_argument("--l2-features", action="store_true",
                    help="l2-normalize each feature row before training")
    tr.add_argument("--out", required=True, help="checkpoint output path")
    tr.set_defaults(func=cmd_train)

    pr = sub.add_parser("predict", help="write one answer line per test record")
    pr.add_argument("--checkpoint", required=True)
    pr.add_argument("--test", required=True, help="test triples file")
    pr.add_argument("--features", help="image feature CSV (vision models)")
    pr.add_argument("--vocab-q", required=True)
    pr.add_argument("--vocab-a", required=True)
    pr.add_argument("--out", required=True, help="answer lines output path")
    pr.set_defaults(func=cmd_predict)

    ev = sub.add_parser("eval", help="score predictions against ground truth")
    ev.add_argument("--pred", required=True, help="predicted answer lines")
    ev.add_argument("--truth", required=True, help="ground-truth answer lines")
    ev.add_argument("--metric", default="wups", choices=["wups", "acc"])
    ev.add_argument("--tau", type=float, default=0.9,
                    help="similarity threshold; -1 means exact set accuracy")
    ev.add_argument("--taxonomy", help="concept<TAB>parent file")
    ev.add_argument("--lexicon", help="word<TAB>concepts file")
    ev.add_argument("--delimiter", default=", ")
    ev.set_defaults(func=cmd_eval)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse exits on usage problems
        code = exc.code
        return int(code) if code is not None else 0
    try:
        return int(args.func(args) or 0)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except FormatError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 3
    except (ToolkitError, IndexError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    raise SystemExit(main())
