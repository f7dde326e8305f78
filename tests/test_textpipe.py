"""Text pipeline tests; counting and ordering claims are checked against
independent brute-force recounts done here."""

from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from imageqa.errors import ConfigurationError, FormatError
from imageqa.textpipe import (
    PAD_INDEX,
    PAD_TOKEN,
    UNK_INDEX,
    UNK_TOKEN,
    PipelineConfig,
    QARecord,
    Vocabulary,
    build_vocabulary,
    encode_answers,
    encode_questions,
    filter_top_pairs,
    pad_sequences,
    parse_triple_file,
    word_frequencies,
)

words = st.text(
    alphabet=st.characters(min_codepoint=97, max_codepoint=122), min_size=1, max_size=6
)


# ----------------------------------------------------------------------
# triple parsing


def test_parse_triple_file_single_record():
    text = "what is on the desk ?\nbook, scissor, papers, tape_dispenser\nimage3\n"
    records = parse_triple_file(text)
    assert records == [
        QARecord(
            "what is on the desk ?",
            "book, scissor, papers, tape_dispenser",
            "image3",
        )
    ]
    assert len(records[0].answer.split(", ")) == 4


def test_parse_triple_file_accepts_bytes_and_trailing_blanks():
    raw = b"q ?\na\nimg1\n\n\n"
    assert parse_triple_file(raw) == [QARecord("q ?", "a", "img1")]


def test_parse_triple_file_empty_gives_no_records():
    assert parse_triple_file("") == []


def test_parse_triple_file_residual_lines():
    with pytest.raises(FormatError) as err:
        parse_triple_file("q ?\na\nimg1\nleftover\n")
    assert "line 4" in str(err.value)


def test_parse_triple_file_empty_fields():
    with pytest.raises(FormatError):
        parse_triple_file("\na\nimg1\n")
    with pytest.raises(FormatError):
        parse_triple_file("q ?\na\n \n")


# ----------------------------------------------------------------------
# frequencies


def test_word_frequencies_example():
    counts = word_frequencies(["what is", "what are"])
    assert counts == {"what": 2, "is": 1, "are": 1}


def test_word_frequencies_drops_empty_tokens():
    assert word_frequencies(["", "  "]) == {}


def test_word_frequencies_matches_brute_force_recount():
    texts = ["what is on the desk ?", "what is the colour ?", "how many chairs ?"]
    expected = Counter()
    for t in texts:
        for tok in t.split(" "):
            if tok:
                expected[tok] += 1
    assert word_frequencies(texts) == dict(expected)


# ----------------------------------------------------------------------
# vocabulary


def test_build_vocabulary_ordering_and_specials():
    vocab = build_vocabulary({"what": 5, "is": 5, "table": 1})
    assert vocab.word2index == {
        PAD_TOKEN: 0, UNK_TOKEN: 1, "is": 2, "what": 3, "table": 4
    }


def test_build_vocabulary_empty_counts():
    vocab = build_vocabulary({})
    assert len(vocab) == 2
    assert vocab.word2index == {PAD_TOKEN: PAD_INDEX, UNK_TOKEN: UNK_INDEX}


def test_build_vocabulary_truncation():
    vocab = build_vocabulary({"a": 1, "b": 9}, truncate_to_most_frequent=1)
    assert set(vocab.word2index) == {PAD_TOKEN, UNK_TOKEN, "b"}


@given(st.dictionaries(words, st.integers(1, 50), max_size=30))
def test_vocabulary_is_a_contiguous_bijection(counts):
    vocab = build_vocabulary(counts)
    indices = sorted(vocab.word2index.values())
    assert indices == list(range(len(vocab)))
    assert all(vocab.index2word[i] == w for w, i in vocab.word2index.items())


@given(st.dictionaries(words, st.integers(1, 50), max_size=30))
def test_build_vocabulary_is_deterministic(counts):
    assert build_vocabulary(counts).word2index == build_vocabulary(counts).word2index


def test_vocabulary_export_and_parse_round_trip():
    vocab = build_vocabulary({"what": 3, "is": 1})
    lines = vocab.export_lines()
    assert lines[0] == f"{PAD_TOKEN}\t0"
    again = Vocabulary.parse("\n".join(lines) + "\n")
    assert again.word2index == vocab.word2index


def test_vocabulary_parse_rejects_broken_files():
    with pytest.raises(FormatError):
        Vocabulary.parse("<pad>\t0\n<unk>\t1\nx\t1\n")  # duplicate index
    with pytest.raises(FormatError):
        Vocabulary.parse("x\t0\ny\t1\n")  # specials missing
    with pytest.raises(FormatError):
        Vocabulary.parse("<pad>\t0\n<unk>\t2\n")  # gap


# ----------------------------------------------------------------------
# question encoding and padding


def test_encode_questions_uses_each_tokens_own_index():
    corpus = ["what is behind the table ?", "what is the colour ?"]
    vocab = build_vocabulary(word_frequencies(corpus))
    question = "what is behind the table ?"
    encoded = encode_questions([question], vocab)[0]
    assert len(encoded) == 6  # one index per token
    assert encoded == [vocab.word2index[t] for t in question.split(" ")]
    assert PAD_INDEX not in encoded and UNK_INDEX not in encoded


def test_encode_questions_unknown_tokens_become_unk():
    vocab = build_vocabulary({"what": 1})
    assert encode_questions(["what zzz"], vocab) == [[2, UNK_INDEX]]
    assert encode_questions([""], vocab) == [[]]


def test_encoding_leaves_vocabulary_untouched():
    vocab = build_vocabulary({"what": 1})
    before = dict(vocab.word2index)
    encode_questions(["entirely new words"], vocab)
    assert vocab.word2index == before


def test_pad_sequences_front_pads():
    out = pad_sequences([[2, 3]], maxlen=5)
    assert out.tolist() == [[0, 0, 0, 2, 3]]


def test_pad_sequences_keeps_the_tail_when_truncating():
    out = pad_sequences([[1, 2, 3, 4, 5, 6]], maxlen=4)
    assert out.tolist() == [[3, 4, 5, 6]]


def test_pad_sequences_empty_sequence_is_all_pad():
    out = pad_sequences([[]], maxlen=3)
    assert out.tolist() == [[0, 0, 0]]


def test_pad_sequences_rejects_bad_maxlen():
    with pytest.raises(ConfigurationError):
        pad_sequences([[1]], maxlen=0)


@given(
    st.lists(st.lists(st.integers(1, 99), max_size=12), max_size=6),
    st.integers(1, 8),
)
def test_pad_sequences_shape_and_content(seqs, maxlen):
    out = pad_sequences(seqs, maxlen)
    assert out.shape == (len(seqs), maxlen)
    for row, seq in zip(out.tolist(), seqs):
        tail = seq[-maxlen:]
        assert row == [0] * (maxlen - len(tail)) + tail


# ----------------------------------------------------------------------
# answers


def test_encode_answers_first_word():
    vocab = build_vocabulary({"knife": 1, "fork": 1})
    config = PipelineConfig()
    out = encode_answers(["knife, fork"], vocab, config)
    assert out.tolist() == [vocab.word2index["knife"]]


def test_encode_answers_unknown_becomes_unk():
    vocab = build_vocabulary({"knife": 1})
    assert encode_answers(["spoon"], vocab, PipelineConfig()).tolist() == [UNK_INDEX]


def test_encode_answers_whole_string_mode():
    vocab = build_vocabulary({"knife, fork": 2, "knife": 1})
    config = PipelineConfig(only_first_answer_word=False)
    out = encode_answers(["knife, fork", "knife"], vocab, config)
    assert out.tolist() == [
        vocab.word2index["knife, fork"],
        vocab.word2index["knife"],
    ]
    assert out[0] != out[1]


def _records(answers):
    return [QARecord(f"q{i} ?", a, f"img{i}") for i, a in enumerate(answers)]


def test_filter_top_pairs_keeps_most_frequent():
    records = _records(["a", "a", "b", "b", "c"])
    kept = filter_top_pairs(records, 2)
    assert [r.answer for r in kept] == ["a", "a", "b", "b"]


def test_filter_top_pairs_zero_keeps_everything():
    records = _records(["a", "b"])
    assert filter_top_pairs(records, 0) == records


def test_filter_top_pairs_breaks_ties_lexicographically():
    records = _records(["b", "a", "c"])  # all frequency 1
    kept = filter_top_pairs(records, 2)
    assert sorted(r.answer for r in kept) == ["a", "b"]


def test_filter_top_pairs_matches_brute_force():
    answers = ["x", "y", "x", "z", "y", "x", "w"]
    records = _records(answers)
    counts = Counter(answers)
    ranked = sorted(counts, key=lambda a: (-counts[a], a))
    for k in range(1, 5):
        keep = set(ranked[:k])
        expected = [r for r in records if r.answer in keep]
        assert filter_top_pairs(records, k) == expected


# ----------------------------------------------------------------------
# round trip


@given(st.lists(words, min_size=1, max_size=8, unique=True))
@settings(max_examples=50)
def test_decode_of_encode_round_trips_in_vocabulary_tokens(tokens):
    question = " ".join(tokens)
    vocab = build_vocabulary(word_frequencies([question]))
    encoded = encode_questions([question], vocab)[0]
    assert [vocab.decode_index(i) for i in encoded] == tokens


def test_pipeline_config_validation():
    with pytest.raises(ConfigurationError):
        PipelineConfig(maxlen=0)
