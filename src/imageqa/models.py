"""The four model families and their shared plumbing.

Every model encodes the question into one vector per example, optionally
merges it with an embedded image-feature vector, and finishes with
dropout -> dense -> softmax over answer classes.

  blind-bow   embed tokens, average the unpadded time steps
  blind-rnn   run a GRU or LSTM over the unpadded tokens, keep the final state
  vl-bow      blind-bow language branch merged with the visual branch
  vl-rnn      blind-rnn language branch merged with the visual branch

Pad steps (index 0) contribute nothing: the BOW average masks them out and
the recurrent encoders carry their state straight through them.  The raw
visual features are constants; only their optional dense re-embedding is
trained.
"""

from __future__ import annotations

import base64
import math
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .autodiff import Tape, Tensor
from .errors import (
    ConfigurationError,
    ContractError,
    DimensionError,
    EmptySequenceError,
    FormatError,
)

PAD_INDEX = 0  # questions are front-padded with the reserved index 0

MERGE_MODES = ("concat", "mul", "sum", "ave")
CELLS = ("gru", "lstm")
BOW_POOLINGS = ("average", "sum")
MODEL_KINDS = ("blind-bow", "blind-rnn", "vl-bow", "vl-rnn")


@dataclass
class ModelConfig:
    """Architecture hyperparameters.

    ``visual_embedding_dim`` > 0 inserts a trained dense layer on top of the
    raw features; 0 feeds them to the merge unchanged.  ``multimodal_merge_mode``
    'ave' is the elementwise mean of the two branches.
    """

    input_dim: int
    output_dim: int
    textual_embedding_dim: int = 500
    hidden_state_dim: int = 500
    visual_dim: int = 0
    visual_embedding_dim: int = 0
    multimodal_merge_mode: str = "concat"
    cell: str = "gru"
    bow_pooling: str = "average"
    dropout_rate: float = 0.5
    seed: int = 0


def _language_dim(kind: str, config: ModelConfig) -> int:
    return (
        config.textual_embedding_dim
        if kind.endswith("bow")
        else config.hidden_state_dim
    )


def _visual_out_dim(config: ModelConfig) -> int:
    return config.visual_embedding_dim if config.visual_embedding_dim > 0 else config.visual_dim


def _validate_config(kind: str, config: ModelConfig) -> int:
    """Check a config against a model kind; returns the merged width."""
    if kind not in MODEL_KINDS:
        raise ConfigurationError(f"unknown model kind '{kind}'")
    if config.input_dim < 2:
        raise ConfigurationError("input_dim must cover at least <pad> and <unk>")
    if config.output_dim < 1:
        raise ConfigurationError("output_dim must be >= 1")
    if config.textual_embedding_dim < 1:
        raise ConfigurationError("textual_embedding_dim must be >= 1")
    if kind.endswith("rnn") and config.hidden_state_dim < 1:
        raise ConfigurationError("hidden_state_dim must be >= 1")
    if kind.endswith("rnn") and config.cell not in CELLS:
        raise ConfigurationError(f"cell must be one of {CELLS}, got '{config.cell}'")
    if config.bow_pooling not in BOW_POOLINGS:
        raise ConfigurationError(
            f"bow_pooling must be one of {BOW_POOLINGS}, got '{config.bow_pooling}'"
        )
    if not 0.0 <= config.dropout_rate < 1.0:
        raise ConfigurationError(
            f"dropout_rate must be in [0, 1), got {config.dropout_rate}"
        )
    if config.seed < 0:
        raise ConfigurationError(f"seed must be >= 0, got {config.seed}")
    lang = _language_dim(kind, config)
    if not kind.startswith("vl"):
        return lang
    if config.visual_dim < 1:
        raise ConfigurationError("vision models need visual_dim >= 1")
    if config.visual_embedding_dim < 0:
        raise ConfigurationError("visual_embedding_dim must be >= 0")
    if config.multimodal_merge_mode not in MERGE_MODES:
        raise ConfigurationError(
            f"merge mode must be one of {MERGE_MODES}, got "
            f"'{config.multimodal_merge_mode}'"
        )
    visual = _visual_out_dim(config)
    if config.multimodal_merge_mode == "concat":
        return lang + visual
    if lang != visual:
        raise ConfigurationError(
            f"merge mode '{config.multimodal_merge_mode}' needs equal branch "
            f"widths, got language {lang} and visual {visual}"
        )
    return lang


def _glorot(rng: np.random.Generator, d_in: int, d_out: int) -> Tensor:
    limit = math.sqrt(6.0 / (d_in + d_out))
    return Tensor(rng.uniform(-limit, limit, size=(d_in, d_out)), True)


def _gate(tape: Tape, x: Tensor, h: Tensor, params: Mapping[str, Tensor],
          name: str) -> Tensor:
    """x Wn + h Un + bn over a batch: x [N x d_in], h [N x d_h]."""
    return tape.bias_add(
        tape.add(
            tape.matmul(x, params[f"rnn.w_{name}"]),
            tape.matmul(h, params[f"rnn.u_{name}"]),
        ),
        params[f"rnn.b_{name}"],
    )


def gru_step(tape: Tape, h: Tensor, x: Tensor, params: Mapping[str, Tensor]) -> Tensor:
    """z = sig(Wz x + Uz h + bz); r = sig(Wr x + Ur h + br);
    cand = tanh(Wh x + Uh (r*h) + bh); h' = (1-z)*h + z*cand.
    One step for a batch: h is [N x d_h], x is [N x d_in]."""
    z = tape.sigmoid(_gate(tape, x, h, params, "z"))
    r = tape.sigmoid(_gate(tape, x, h, params, "r"))
    cand = tape.tanh(_gate(tape, x, tape.mul(r, h), params, "h"))
    # (1-z)*h + z*cand, written as h + z*(cand-h)
    return tape.add(h, tape.mul(z, tape.sub(cand, h)))


def lstm_step(
    tape: Tape, h: Tensor, c: Tensor, x: Tensor, params: Mapping[str, Tensor]
) -> tuple[Tensor, Tensor]:
    """Standard gates i, f, o and candidate g; c' = f*c + i*g, h' = o*tanh(c').
    One step for a batch: h and c are [N x d_h], x is [N x d_in]."""
    i = tape.sigmoid(_gate(tape, x, h, params, "i"))
    f = tape.sigmoid(_gate(tape, x, h, params, "f"))
    o = tape.sigmoid(_gate(tape, x, h, params, "o"))
    g = tape.tanh(_gate(tape, x, h, params, "g"))
    c_new = tape.add(tape.mul(f, c), tape.mul(i, g))
    h_new = tape.mul(o, tape.tanh(c_new))
    return h_new, c_new


def _blend(tape: Tape, new: Tensor, old: Tensor, keep: Tensor, drop: Tensor) -> Tensor:
    """new on rows where keep is 1, old where it is 0.  keep and drop = 1 - keep
    are constant 0/1 matrices, so both the values and the gradients of the
    kept rows come through bit for bit."""
    return tape.add(tape.mul(keep, new), tape.mul(drop, old))


@dataclass
class Model:
    kind: str
    config: ModelConfig
    params: dict[str, Tensor]
    merged_dim: int = 0

    @property
    def is_vision(self) -> bool:
        return self.kind.startswith("vl")

    def language_vectors(self, tape: Tape, questions) -> Tensor:
        """Encode a padded [N x T] index batch into one vector per example.

        The whole batch is one tensor.  BOW is a count matrix times the
        embedding table; the recurrent cells step over the columns from the
        first one that holds a real token, and rows with a pad in a column
        keep their state through it.
        """
        q = np.asarray(questions, dtype=np.int64)
        if q.ndim != 2:
            raise DimensionError(f"questions must be [N x T], got {q.shape}")
        if q.shape[0] == 0:
            raise ContractError("cannot encode an empty batch")
        embedding = self.params["embedding"]
        vocab = embedding.shape[0]
        bad = np.argwhere((q < 0) | (q >= vocab))
        if len(bad):
            n, t = bad[0]
            raise IndexError(
                f"embedding index {q[n, t]} at row {n}, position {t} outside [0, {vocab})"
            )
        real = q != PAD_INDEX
        lengths = real.sum(axis=1)
        if not lengths.all():
            row = int(np.argmin(lengths))
            raise EmptySequenceError(f"question {row} has no unpadded tokens")

        n_rows = q.shape[0]
        if self.kind.endswith("bow"):
            counts = np.zeros((n_rows, vocab))
            np.add.at(counts, (np.arange(n_rows)[:, None], q), real)
            if self.config.bow_pooling == "average":
                counts /= lengths[:, None]
            return tape.matmul(Tensor(counts), embedding)

        d_h = self.config.hidden_state_dim
        h = Tensor(np.zeros((n_rows, d_h)))
        c = Tensor(np.zeros((n_rows, d_h)))
        for t in range(int(np.argmax(real.any(axis=0))), q.shape[1]):
            x = tape.embedding_lookup(embedding, q[:, t])
            keep_rows = np.broadcast_to(real[:, t, None], (n_rows, d_h))
            keep, drop = Tensor(keep_rows), Tensor(~keep_rows)
            if self.config.cell == "lstm":
                h_new, c_new = lstm_step(tape, h, c, x, self.params)
                c = _blend(tape, c_new, c, keep, drop)
            else:
                h_new = gru_step(tape, h, x, self.params)
            h = _blend(tape, h_new, h, keep, drop)
        return h

    def forward(
        self,
        tape: Tape,
        questions,
        visual=None,
        *,
        training: bool = False,
        rng: np.random.Generator | None = None,
    ) -> Tensor:
        """Score answer classes; rows of the result sum to 1."""
        q = np.asarray(questions, dtype=np.int64)
        if self.is_vision:
            if visual is None:
                raise ContractError(f"{self.kind} needs a visual feature batch")
            vis = np.asarray(visual, dtype=np.float64)
            if vis.ndim != 2 or vis.shape != (q.shape[0], self.config.visual_dim):
                raise DimensionError(
                    f"visual batch must be [{q.shape[0]} x {self.config.visual_dim}], "
                    f"got {vis.shape}"
                )
        elif visual is not None:
            raise ContractError(f"{self.kind} does not take visual features")

        lang = self.language_vectors(tape, q)
        if self.is_vision:
            branch = Tensor(vis)  # constant: no gradient reaches the raw features
            if self.config.visual_embedding_dim > 0:
                branch = tape.bias_add(
                    tape.matmul(branch, self.params["visual.weight"]),
                    self.params["visual.bias"],
                )
            mode = self.config.multimodal_merge_mode
            if mode == "concat":
                merged = tape.concat(lang, branch)
            elif mode == "mul":
                merged = tape.mul(lang, branch)
            elif mode == "sum":
                merged = tape.add(lang, branch)
            else:  # ave
                merged = tape.scale(tape.add(lang, branch), 0.5)
        else:
            merged = lang

        dropped = tape.dropout(merged, self.config.dropout_rate, training, rng)
        logits = tape.bias_add(
            tape.matmul(dropped, self.params["classifier.weight"]),
            self.params["classifier.bias"],
        )
        return tape.softmax(logits)


def build_model(kind: str, config: ModelConfig) -> Model:
    """Draw a model's parameters from ``config.seed`` in a fixed order: the
    embedding, the cell gates (``*-rnn``), the visual re-embedding (``vl-*``
    with ``visual_embedding_dim`` > 0), then the classifier."""
    merged_dim = _validate_config(kind, config)
    rng = np.random.default_rng(config.seed)
    params = {"embedding": _glorot(rng, config.input_dim, config.textual_embedding_dim)}
    if kind.endswith("rnn"):
        d_in, d_h = config.textual_embedding_dim, config.hidden_state_dim
        for gate in ("z", "r", "h") if config.cell == "gru" else ("i", "f", "o", "g"):
            params[f"rnn.w_{gate}"] = _glorot(rng, d_in, d_h)
            params[f"rnn.u_{gate}"] = _glorot(rng, d_h, d_h)
            # forget gate starts open so early training does not erase the cell
            bias = np.ones(d_h) if gate == "f" else np.zeros(d_h)
            params[f"rnn.b_{gate}"] = Tensor(bias, True)
    if kind.startswith("vl") and config.visual_embedding_dim > 0:
        params["visual.weight"] = _glorot(rng, config.visual_dim, config.visual_embedding_dim)
        params["visual.bias"] = Tensor(np.zeros(config.visual_embedding_dim), True)
    params["classifier.weight"] = _glorot(rng, merged_dim, config.output_dim)
    params["classifier.bias"] = Tensor(np.zeros(config.output_dim), True)
    return Model(kind=kind, config=config, params=params, merged_dim=merged_dim)


def decode_predictions(
    model: Model, questions, visual=None, *, index2word: Mapping[int, str]
) -> list[str]:
    """Most likely answer word per example; score ties go to the lowest index."""
    q = np.asarray(questions, dtype=np.int64)
    if len(q) == 0:
        return []
    tape = Tape()
    scores = model.forward(tape, q, visual, training=False)
    best = np.argmax(scores.data, axis=-1)  # np.argmax already takes the first max
    return [index2word[int(i)] for i in best]


# ----------------------------------------------------------------------
# checkpoints, format v2: the magic line, then for each tensor a
# "name dims..." header line and a payload line holding the base64 of its
# little-endian float64 bytes.  Base64 keeps the file ASCII text, so it can be
# written and read as a str; it has no timestamps, so the same parameters
# always give the same bytes.

CHECKPOINT_MAGIC = "imageqa-checkpoint 2"


def format_checkpoint(params: Mapping[str, Tensor]) -> str:
    lines = [CHECKPOINT_MAGIC]
    for name, tensor in params.items():
        lines.append(" ".join([name, *map(str, tensor.shape)]))
        raw = np.ascontiguousarray(tensor.data, "<f8").tobytes()
        lines.append(base64.b64encode(raw).decode("ascii"))
    return "\n".join(lines) + "\n"


def parse_checkpoint(text: str) -> dict[str, np.ndarray]:
    """Decode a v2 checkpoint; the returned arrays are read-only views of
    the decoded bytes."""
    lines = text.split("\n")
    if lines[-1] == "":
        lines.pop()
    if lines[:1] != [CHECKPOINT_MAGIC]:
        raise FormatError(
            f"first line is not '{CHECKPOINT_MAGIC}': an old text (v1) or "
            "foreign checkpoint; retrain the model to write one in format 2"
        )
    if len(lines) % 2 == 0:
        raise FormatError("checkpoint must alternate header and payload lines")
    arrays: dict[str, np.ndarray] = {}
    for i in range(1, len(lines), 2):
        name, *dims_text = lines[i].split(" ")
        if not name:
            raise FormatError(f"missing tensor name on checkpoint line {i + 1}")
        if not all(d.isascii() and d.isdigit() for d in dims_text):
            raise FormatError(
                f"tensor '{name}' needs non-negative integer dims on checkpoint "
                f"line {i + 1}"
            )
        dims = tuple(map(int, dims_text))
        if name in arrays:
            raise FormatError(f"duplicate tensor '{name}' at line {i + 1}")
        try:
            raw = base64.b64decode(lines[i + 1], validate=True)
        except ValueError:
            raise FormatError(
                f"tensor '{name}' has a malformed base64 payload on checkpoint "
                f"line {i + 2}"
            ) from None
        nbytes = 8 * math.prod(dims)
        if len(raw) != nbytes:
            raise FormatError(
                f"tensor '{name}' declares shape {dims} ({nbytes} bytes) but "
                f"its payload holds {len(raw)} bytes"
            )
        values = np.frombuffer(raw, "<f8").reshape(dims)
        if not np.isfinite(values).all():
            raise FormatError(f"tensor '{name}' holds non-finite values")
        arrays[name] = values
    return arrays


def load_checkpoint(model: Model, arrays: Mapping[str, np.ndarray]) -> None:
    """Copy stored arrays into a freshly built model, name by name."""
    expected = set(model.params)
    got = set(arrays)
    if expected != got:
        raise ContractError(
            f"checkpoint tensors {sorted(got)} do not match model tensors "
            f"{sorted(expected)}"
        )
    for name, tensor in model.params.items():
        if arrays[name].shape != tensor.data.shape:
            raise ContractError(
                f"tensor '{name}' has shape {arrays[name].shape}, "
                f"model expects {tensor.data.shape}"
            )
        tensor.data[...] = arrays[name]
