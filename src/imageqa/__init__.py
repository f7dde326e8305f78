"""Desk-scale visual question answering: text pipeline, blind and
vision+language models over a small reverse-mode autodiff engine, training
loop, and WUPS evaluation."""

from .autodiff import Tape, Tensor, grad_check
from .errors import (
    ConfigurationError,
    ContractError,
    DimensionError,
    EmptySequenceError,
    FormatError,
    MissingFeatureError,
    ToolkitError,
)
from .features import FeatureTable, align, l2_normalize, load_feature_table
from .metrics import WupsConfig, parse_answer_set, set_accuracy, wups_corpus, wups_pair
from .models import Model, ModelConfig, build_model, decode_predictions
from .ontology import Lexicon, Taxonomy, parse_lexicon, parse_taxonomy, word_wup
from .textpipe import (
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
from .train import (
    AdamState,
    EpochReport,
    TrainingConfig,
    accuracy,
    adam_step,
    cross_entropy,
    evaluate,
    fit,
    sgd_step,
)

__version__ = "0.1.0"
