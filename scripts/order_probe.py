#!/usr/bin/env python3
"""Why keep a recurrent encoder around? Word order.

Builds a corpus whose questions are token pairs appearing in both
orders, each order keyed to its own answer. A bag-of-words encoder sees
identical bags for both and tops out at chance (0.5); a GRU separates
them. Prints the two training curves side by side.

Usage: python3 scripts/order_probe.py [--pairs N] [--epochs N]
"""

import argparse

from imageqa.models import ModelConfig, build_model
from imageqa.textpipe import (
    PipelineConfig,
    build_vocabulary,
    encode_answers,
    encode_questions,
    pad_sequences,
    parse_triple_file,
    word_frequencies,
)
from imageqa.train import TrainingConfig, fit


def order_corpus(pairs):
    lines = []
    for i in range(pairs):
        a, b = f"tok{2 * i}", f"tok{2 * i + 1}"
        lines += [f"{a} {b} ?", f"fwd{i}", f"img{2 * i}"]
        lines += [f"{b} {a} ?", f"rev{i}", f"img{2 * i + 1}"]
    return "\n".join(lines) + "\n"


def encode(text, maxlen):
    records = parse_triple_file(text)
    vocab_q = build_vocabulary(word_frequencies([r.question for r in records]))
    vocab_a = build_vocabulary(word_frequencies([r.answer for r in records]))
    questions = pad_sequences(
        encode_questions([r.question for r in records], vocab_q), maxlen
    )
    targets = encode_answers(
        [r.answer for r in records], vocab_a, PipelineConfig(maxlen=maxlen)
    )
    return questions, targets, vocab_q, vocab_a


def train(kind, questions, targets, vocab_q, vocab_a, epochs, seed):
    model = build_model(
        kind,
        ModelConfig(
            input_dim=len(vocab_q),
            output_dim=len(vocab_a),
            textual_embedding_dim=32,
            hidden_state_dim=32,
            dropout_rate=0.0,
            seed=seed,
        )
    )
    config = TrainingConfig(
        optimizer="adam",
        learning_rate=0.01,
        epochs=epochs,
        batch_size=len(targets),
        seed=seed,
    )
    return fit(model, questions, targets, config)


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--epochs", type=int, default=120)
    parser.add_argument("--seed", type=int, default=11)
    args = parser.parse_args()

    text = order_corpus(args.pairs)
    questions, targets, vocab_q, vocab_a = encode(text, maxlen=4)
    print(f"{2 * args.pairs} questions, {len(vocab_a)} answers, "
          "every bag of tokens ambiguous\n")

    bow = train("blind-bow", questions, targets, vocab_q, vocab_a,
                args.epochs, args.seed)
    rnn = train("blind-rnn", questions, targets, vocab_q, vocab_a,
                args.epochs, args.seed)

    print(f"{'epoch':>5}  {'bow acc':>8}  {'gru acc':>8}")
    step = max(1, args.epochs // 12)
    for i in range(0, args.epochs, step):
        print(f"{bow[i].epoch:>5}  {bow[i].accuracy:>8.3f}  {rnn[i].accuracy:>8.3f}")
    print(f"{bow[-1].epoch:>5}  {bow[-1].accuracy:>8.3f}  {rnn[-1].accuracy:>8.3f}")
    print("\nbag-of-words ceiling on this corpus is 0.5 by construction")


if __name__ == "__main__":
    main()
