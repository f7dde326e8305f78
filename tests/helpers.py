"""Shared fixture builders for the test suite."""

from __future__ import annotations

import base64

import numpy as np

# verdict lines collected by the release-gate tests; conftest.py prints
# them after the run so they survive output capture
ACCEPTANCE_VERDICTS: list[str] = []

from imageqa.textpipe import (
    PipelineConfig,
    build_vocabulary,
    encode_answers,
    encode_questions,
    pad_sequences,
    parse_triple_file,
    word_frequencies,
)

# taxonomy used throughout: animal is the root (depth 1), dog and horse are
# siblings (depth 2), dalmatian sits under dog (depth 3)
TOY_TAXONOMY = "animal\t-\ndog\tanimal\nhorse\tanimal\ndalmatian\tdog\n"
TOY_LEXICON = "dog\tdog\nhorse\thorse\ndalmatian\tdalmatian\n"


def separable_corpus(n: int = 10) -> str:
    """One distinctive token per question, one unique answer per record."""
    lines = []
    for i in range(n):
        lines += [f"what is obj{i} ?", f"ans{i}", f"img{i}"]
    return "\n".join(lines) + "\n"


def order_corpus(pairs: int = 10) -> str:
    """Each token bag appears in both orders with two different answers, so
    the bag alone can never tell more than half the records apart."""
    lines = []
    for i in range(pairs):
        a, b = f"tok{2 * i}", f"tok{2 * i + 1}"
        lines += [f"{a} {b} ?", f"fwd{i}", f"img{i}"]
        lines += [f"{b} {a} ?", f"rev{i}", f"img{i}"]
    return "\n".join(lines) + "\n"


def encoded_corpus(text: str, maxlen: int):
    """Corpus text -> (padded questions, targets, vocab_q, vocab_a)."""
    records = parse_triple_file(text)
    vocab_q = build_vocabulary(word_frequencies([r.question for r in records]))
    vocab_a = build_vocabulary(word_frequencies([r.answer for r in records]))
    questions = pad_sequences(
        encode_questions([r.question for r in records], vocab_q), maxlen
    )
    targets = encode_answers(
        [r.answer for r in records], vocab_a, PipelineConfig(maxlen=maxlen)
    )
    return questions, targets, vocab_a, vocab_q


def random_parent_map(rng: np.random.Generator, n: int) -> dict[str, str | None]:
    """A random rooted tree over n concepts (parents always precede children)."""
    parent: dict[str, str | None] = {"c0": None}
    for i in range(1, n):
        parent[f"c{i}"] = f"c{int(rng.integers(0, i))}"
    return parent


def with_first_value(lines: list[str], value: float) -> list[str]:
    """Checkpoint lines whose first tensor starts with ``value``: its payload
    line decoded, edited and encoded again."""
    data = np.frombuffer(base64.b64decode(lines[2]), "<f8").copy()
    data[0] = value
    return lines[:2] + [base64.b64encode(data.tobytes()).decode("ascii")] + lines[3:]


def v1_checkpoint_text(arrays) -> str:
    """Tensors in the retired text checkpoint format: a "name dims..." header
    line, then the repr of every value, with no magic line."""
    return "".join(
        f"{name} {' '.join(map(str, a.shape))}\n{' '.join(map(repr, a.ravel().tolist()))}\n"
        for name, a in arrays.items()
    )
