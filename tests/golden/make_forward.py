"""Write the golden fixture that pins the models' numbers across commits.

    PYTHONPATH=src python3 tests/golden/make_forward.py

For every model kind x cell x merge mode x BOW pooling, built at seed 0, the
fixture holds the scores of a fixed 16-row batch with ragged lengths 1 to
MAXLEN, and every parameter gradient after one backward through a training
forward (dropout on).  It also holds the epoch reports of a 2-epoch SGD fit
and a 2-epoch Adam fit of several models on a tiny corpus.
``tests/test_golden.py`` recomputes the same values with ``compute`` and
compares them.  Regenerate the fixture only for a change that is meant to
move these values, and say in CHANGES.md which values moved, by how much
and why.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from imageqa.autodiff import Tape
from imageqa.models import ModelConfig, build_model
from imageqa.train import TrainingConfig, cross_entropy, fit

FIXTURE = Path(__file__).with_name("forward.json")
VOCAB, CLASSES, DIM, VISUAL_DIM = 9, 5, 4, 3
ROWS, MAXLEN = 16, 12
# (merge mode, visual embedding width); mul/sum/ave need equal branch widths
MERGES = (("concat", 0), ("concat", DIM), ("mul", DIM), ("sum", DIM), ("ave", DIM))
ENCODERS = ("average", "sum", "gru", "lstm")  # the two BOW poolings, the two cells


def config(encoder: str, merge: str = "concat", visual_embed: int = 0) -> ModelConfig:
    bow = encoder in ("average", "sum")
    return ModelConfig(
        input_dim=VOCAB,
        output_dim=CLASSES,
        textual_embedding_dim=DIM,
        hidden_state_dim=DIM,
        visual_dim=VISUAL_DIM,
        visual_embedding_dim=visual_embed,
        multimodal_merge_mode=merge,
        cell="gru" if bow else encoder,
        bow_pooling=encoder if bow else "average",
        dropout_rate=0.5,
        seed=0,
    )


def configurations():
    """(name, kind, config) for every kind x cell x merge x pooling."""
    for encoder in ENCODERS:
        family = "bow" if encoder in ("average", "sum") else "rnn"
        yield f"blind-{family}/{encoder}", f"blind-{family}", config(encoder)
        for merge, embed in MERGES:
            yield (
                f"vl-{family}/{encoder}/{merge}-{embed}",
                f"vl-{family}",
                config(encoder, merge, embed),
            )


def batch(rows: int, maxlen: int, lengths, seed: int):
    """Front-padded questions with the given lengths, visual rows, targets."""
    rng = np.random.default_rng(seed)
    questions = np.zeros((rows, maxlen), dtype=np.int64)
    for n in range(rows):
        length = lengths[n % len(lengths)]
        questions[n, maxlen - length:] = rng.integers(1, VOCAB, size=length)
    return questions, rng.normal(size=(rows, VISUAL_DIM)), rng.integers(0, CLASSES, size=rows)


def forward_values(kind: str, cfg: ModelConfig, questions, visual, targets) -> dict:
    model = build_model(kind, cfg)
    vis = visual if kind.startswith("vl") else None
    scores = model.forward(Tape(), questions, vis, training=False)
    tape = Tape()
    loss = cross_entropy(
        tape,
        model.forward(tape, questions, vis, training=True, rng=np.random.default_rng(0)),
        targets,
    )
    for p in model.params.values():
        p.zero_grad()
    tape.backward(loss)
    return {
        "scores": scores.data.tolist(),
        "gradients": {name: p.grad.tolist() for name, p in model.params.items()},
    }


FITS = (
    ("blind-bow", "average", "concat", 0),
    ("blind-rnn", "gru", "concat", 0),
    ("blind-rnn", "lstm", "concat", 0),
    ("vl-bow", "sum", "concat", DIM),
    ("vl-rnn", "gru", "mul", DIM),
)


def fit_reports(kind: str, cfg: ModelConfig, optimizer: str) -> list:
    questions, visual, targets = batch(40, 8, (2, 3, 4, 5, 6), seed=7)
    model = build_model(kind, cfg)
    inputs = (questions, visual) if kind.startswith("vl") else questions
    reports = fit(
        model, inputs, targets,
        TrainingConfig(
            batch_size=16, epochs=2, validation_split=0.25, optimizer=optimizer,
            learning_rate=0.1 if optimizer == "sgd" else 0.01, seed=0,
        ),
    )
    return [[r.loss, r.accuracy, r.val_loss, r.val_accuracy] for r in reports]


def compute() -> dict:
    # lengths 1..MAXLEN, then four short rows; row 15 has a pad inside it
    questions, visual, targets = batch(ROWS, MAXLEN, range(1, MAXLEN + 1), seed=2024)
    questions[15, MAXLEN - 3] = 0
    forward = {
        name: forward_values(kind, cfg, questions, visual, targets)
        for name, kind, cfg in configurations()
    }
    fits = {
        f"{kind}/{encoder}/{merge}-{embed}/{optimizer}": fit_reports(
            kind, config(encoder, merge, embed), optimizer
        )
        for kind, encoder, merge, embed in FITS
        for optimizer in ("sgd", "adam")
    }
    return {"questions": questions.tolist(), "forward": forward, "fits": fits}


def main() -> None:
    values = compute()
    lines = [f" {json.dumps(key)}: {json.dumps(value)}" for key, value in values.items()]
    FIXTURE.write_text("{\n" + ",\n".join(lines) + "\n}\n", encoding="utf-8")
    print(f"wrote {FIXTURE} ({len(values['forward'])} configurations, "
          f"{len(values['fits'])} fits)")


if __name__ == "__main__":
    main()
