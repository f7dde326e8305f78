"""Question/answer text handling: triple files, vocabularies, index encoding.

The on-disk corpus format is three lines per record (question, answer,
image name).  Questions are tokenised by single-space split; answers are
either multi-word strings split on a delimiter or whole-string classes.
Every vocabulary reserves index 0 for ``<pad>`` and index 1 for ``<unk>``.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import IO, Iterable, Mapping

import numpy as np

from .errors import ConfigurationError, FormatError

PAD_TOKEN = "<pad>"
UNK_TOKEN = "<unk>"
PAD_INDEX = 0
UNK_INDEX = 1


@dataclass(frozen=True)
class QARecord:
    """One dataset example: a question, its answer string, an image name."""

    question: str
    answer: str
    image_name: str


@dataclass
class PipelineConfig:
    """Knobs for turning raw records into index arrays."""

    maxlen: int = 30
    only_first_answer_word: bool = True
    answer_word_delimiter: str = ", "

    def __post_init__(self):
        if self.maxlen < 1:
            raise ConfigurationError(f"maxlen must be >= 1, got {self.maxlen}")


class Vocabulary:
    """Bijective word/index mapping with ``<pad>`` at 0 and ``<unk>`` at 1."""

    def __init__(self, word2index: Mapping[str, int]):
        self.word2index = dict(word2index)
        self.index2word = {i: w for w, i in self.word2index.items()}
        n = len(self.word2index)
        if len(self.index2word) != n:
            raise FormatError("vocabulary indices are not unique")
        if sorted(self.index2word) != list(range(n)):
            raise FormatError("vocabulary indices must be contiguous from 0")
        if self.word2index.get(PAD_TOKEN) != PAD_INDEX:
            raise FormatError(f"vocabulary must map {PAD_TOKEN} to {PAD_INDEX}")
        if self.word2index.get(UNK_TOKEN) != UNK_INDEX:
            raise FormatError(f"vocabulary must map {UNK_TOKEN} to {UNK_INDEX}")

    def __len__(self) -> int:
        return len(self.word2index)

    def __contains__(self, word: str) -> bool:
        return word in self.word2index

    def encode_word(self, word: str) -> int:
        return self.word2index.get(word, UNK_INDEX)

    def decode_index(self, index: int) -> str:
        return self.index2word[index]

    def export_lines(self) -> list[str]:
        """One ``word<TAB>index`` line per entry, sorted by index."""
        return [f"{self.index2word[i]}\t{i}" for i in range(len(self.index2word))]

    @classmethod
    def parse(cls, text: str) -> "Vocabulary":
        mapping: dict[str, int] = {}
        for lineno, line in enumerate(text.split("\n"), start=1):
            if not line.strip():
                continue
            parts = line.split("\t")
            if len(parts) != 2:
                raise FormatError(f"vocabulary line {lineno} is not 'word<TAB>index'")
            word, raw = parts
            try:
                index = int(raw)
            except ValueError:
                raise FormatError(f"vocabulary line {lineno} has a non-integer index")
            if word in mapping:
                raise FormatError(f"vocabulary line {lineno} repeats word '{word}'")
            mapping[word] = index
        return cls(mapping)


def _read_text(source) -> str:
    if isinstance(source, str):
        return source
    if isinstance(source, bytes):
        raw = source
    else:
        raw = source.read()
        if isinstance(raw, str):
            return raw
    try:
        return raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise FormatError(f"input is not valid UTF-8: {exc}") from exc


def _tokens(text: str) -> list[str]:
    return [t for t in text.split(" ") if t]


def parse_triple_file(source: str | bytes | IO[bytes]) -> list[QARecord]:
    """Parse the three-lines-per-record corpus format.

    Trailing blank lines are ignored; anything else must come in complete
    question/answer/image triples.
    """
    lines = _read_text(source).split("\n")
    while lines and not lines[-1].strip():
        lines.pop()
    if len(lines) % 3 != 0:
        first_bad = 3 * (len(lines) // 3) + 1
        raise FormatError(
            f"incomplete record starting at line {first_bad}: "
            "records are question/answer/image triples"
        )
    records = []
    for i in range(0, len(lines), 3):
        question = lines[i].strip()
        answer = lines[i + 1].strip()
        image = lines[i + 2].strip()
        if not question:
            raise FormatError(f"empty question at line {i + 1}")
        if not image:
            raise FormatError(f"empty image name at line {i + 3}")
        records.append(QARecord(question, answer, image))
    return records


def word_frequencies(texts: Iterable[str]) -> dict[str, int]:
    """Count space-split tokens across all texts; empty tokens are dropped."""
    counts: Counter[str] = Counter()
    for text in texts:
        counts.update(_tokens(text))
    return dict(counts)


def answer_word_frequencies(
    answers: Iterable[str], delimiter: str = ", "
) -> dict[str, int]:
    """Count answer words, splitting each answer on the delimiter."""
    counts: Counter[str] = Counter()
    for answer in answers:
        counts.update(w.strip() for w in answer.split(delimiter) if w.strip())
    return dict(counts)


def build_vocabulary(
    counts: Mapping[str, int], truncate_to_most_frequent: int = 0
) -> Vocabulary:
    """Rank words by descending count, ascending word on ties, and assign
    indices from 2 up (0 and 1 are the reserved specials)."""
    if truncate_to_most_frequent < 0:
        raise ConfigurationError("truncate_to_most_frequent must be >= 0")
    # reserved tokens never occur in real data; drop them if they sneak in
    items = [(w, c) for w, c in counts.items() if w not in (PAD_TOKEN, UNK_TOKEN)]
    items.sort(key=lambda wc: (-wc[1], wc[0]))
    if truncate_to_most_frequent > 0:
        items = items[:truncate_to_most_frequent]
    mapping = {PAD_TOKEN: PAD_INDEX, UNK_TOKEN: UNK_INDEX}
    for offset, (word, _) in enumerate(items):
        mapping[word] = 2 + offset
    return Vocabulary(mapping)


def encode_questions(questions: Iterable[str], vocab: Vocabulary) -> list[list[int]]:
    """Token-wise index encoding; out-of-vocabulary tokens become <unk>."""
    return [[vocab.encode_word(t) for t in _tokens(q)] for q in questions]


def pad_sequences(sequences: Iterable[list[int]], maxlen: int) -> np.ndarray:
    """Front-pad with 0 to exactly ``maxlen``; longer sequences keep their
    last ``maxlen`` entries (the front is cut)."""
    if maxlen < 1:
        raise ConfigurationError(f"maxlen must be >= 1, got {maxlen}")
    seqs = [list(s) for s in sequences]
    out = np.zeros((len(seqs), maxlen), dtype=np.int64)
    for row, seq in zip(out, seqs):
        tail = seq[-maxlen:]
        if tail:
            row[maxlen - len(tail):] = tail
    return out


def encode_answers(
    answers: Iterable[str], vocab: Vocabulary, config: PipelineConfig
) -> np.ndarray:
    """Map each answer to a single class index.

    With ``only_first_answer_word`` the class is the first fragment after
    splitting on the delimiter; otherwise the whole answer string is one
    class token.  Unknown classes become <unk>.
    """
    classes = []
    for answer in answers:
        if config.only_first_answer_word:
            first = answer.split(config.answer_word_delimiter)[0].strip()
            classes.append(vocab.encode_word(first))
        else:
            classes.append(vocab.encode_word(answer))
    return np.asarray(classes, dtype=np.int64)


def filter_top_pairs(records: list[QARecord], k: int) -> list[QARecord]:
    """Keep records whose full answer string is among the k most frequent
    answers (ties broken lexicographically); k == 0 keeps everything."""
    if k < 0:
        raise ConfigurationError("k must be >= 0")
    if k == 0:
        return list(records)
    counts = Counter(r.answer for r in records)
    ranked = sorted(counts.items(), key=lambda ac: (-ac[1], ac[0]))
    keep = {answer for answer, _ in ranked[:k]}
    return [r for r in records if r.answer in keep]
