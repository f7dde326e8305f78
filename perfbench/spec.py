"""Workload parameters shared by the input generator and the workload process.

Sizes follow DAQUAR (6 795 train / 5 673 test questions over 1 449 images).
Everything that sets how much work a run does is fixed here, independent of
the seed: the seed only changes which words, images and concepts are drawn,
so runs with different seeds measure the same amount of work.
"""

from __future__ import annotations

from dataclasses import dataclass

from imageqa.models import ModelConfig

# the seed whose epoch losses are recorded in reference.json
DEFAULT_SEED = 0


@dataclass(frozen=True)
class Corpus:
    train: int = 6795
    test: int = 5673
    images: int = 1449
    question_words: int = 850
    answer_words: int = 500
    multi_word_share: float = 0.2  # answers of 2-3 words joined by ", "
    min_tokens: int = 5
    max_tokens: int = 15
    zipf: float = 1.0  # p(rank r) ~ 1 / r**zipf for question and answer words
    feature_dim: int = 1000
    concepts: int = 40000
    # WordNet 3.0 nouns: the root (entity) has three hyponyms (physical_entity,
    # abstraction, thing), and the longest hypernym path holds 20 synsets,
    # root included (19 links, NLTK's max_depth for nouns)
    root_children: int = 3
    max_depth: int = 20  # root has depth 1, as in ontology.Taxonomy
    max_senses: int = 8  # senses of the most frequent answer word
    maxlen: int = 30


# the same for every workload
BATCH = 512
DROPOUT = 0.5
VALIDATION_SPLIT = 0.1
EPOCHS = 2  # per fit call
PREDICT_ROWS = 1024  # test questions per decode_predictions call
TAIL_BEYOND = 10  # step samples above the reported tail percentile


@dataclass(frozen=True)
class Workload:
    kind: str
    dim: int  # textual embedding and hidden state width
    fit_train: int  # training examples per fit call (a prefix of the train set)
    # rounds every run makes; the step metrics come from exactly these rounds,
    # so the tail is the same percentile on every commit and every machine
    rounds: int

    @property
    def vision(self) -> bool:
        return self.kind.startswith("vl")

    @property
    def steps_per_round(self) -> int:
        return EPOCHS * -(-self.fit_train // BATCH)

    @property
    def step_samples(self) -> int:
        return self.rounds * self.steps_per_round


CORPUS = Corpus()

WORKLOADS = {
    # concat of a 500-d bag of words with raw 1000-d features: the work sits in
    # the embedding scatter backward, the classifier and Adam over 1.2 M
    # parameters, and the 24.6 MB checkpoint
    "vl-bow-train": Workload(
        kind="vl-bow", dim=500, fit_train=2048, rounds=13,
    ),  # 104 steps: the tail is p90
    # a 64-d GRU over the unpadded tokens: ~105 k tape nodes per batch, and the
    # epoch-end evaluate costs about as much as the steps
    "gru-train": Workload(
        kind="blind-rnn", dim=64, fit_train=1024, rounds=6,
    ),  # 24 steps at about 1 s each: the tail is only p58
}


def model_config(workload: Workload, input_dim: int, output_dim: int, seed: int):
    """The ModelConfig both the generator's checkpoint and the timed model use."""
    return ModelConfig(
        input_dim=input_dim,
        output_dim=output_dim,
        textual_embedding_dim=workload.dim,
        hidden_state_dim=workload.dim,
        visual_dim=CORPUS.feature_dim if workload.vision else 0,
        multimodal_merge_mode="concat",
        cell="gru",
        dropout_rate=DROPOUT,
        seed=seed,
    )
