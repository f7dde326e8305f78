"""Loss, optimizers, and the epoch loop.

The loop holds out the tail of the dataset for validation (never shuffled,
never trained on), shuffles the training portion each epoch with a seeded
generator, and reports one line per epoch.  Reported accuracies come from a
clean dropout-free pass at the end of the epoch, so they are deterministic;
the reported training loss is the batch-weighted mean of the losses actually
optimised.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .autodiff import Tape, Tensor
from .errors import ConfigurationError, ContractError
from .models import Model

OPTIMIZERS = ("sgd", "adam")
_DEFAULT_LR = {"sgd": 0.01, "adam": 0.001}


@dataclass
class TrainingConfig:
    batch_size: int = 512
    epochs: int = 40
    validation_split: float = 0.1
    optimizer: str = "adam"
    learning_rate: float | None = None  # None resolves per optimizer
    beta1: float = 0.9
    beta2: float = 0.999
    epsilon: float = 1e-8
    seed: int = 0

    def __post_init__(self):
        if self.batch_size < 1:
            raise ConfigurationError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.epochs < 0:
            raise ConfigurationError(f"epochs must be >= 0, got {self.epochs}")
        if not 0.0 <= self.validation_split < 1.0:
            raise ConfigurationError(
                f"validation_split must be in [0, 1), got {self.validation_split}"
            )
        if self.optimizer not in OPTIMIZERS:
            raise ConfigurationError(
                f"optimizer must be one of {OPTIMIZERS}, got '{self.optimizer}'"
            )
        if self.learning_rate is not None and self.learning_rate <= 0:
            raise ConfigurationError("learning_rate must be positive")

    def resolved_learning_rate(self) -> float:
        if self.learning_rate is not None:
            return self.learning_rate
        return _DEFAULT_LR[self.optimizer]


@dataclass
class EpochReport:
    epoch: int
    loss: float
    accuracy: float
    val_loss: float
    val_accuracy: float

    def line(self) -> str:
        return (
            f"epoch={self.epoch} loss={self.loss:.6f} acc={self.accuracy:.6f} "
            f"val_loss={self.val_loss:.6f} val_acc={self.val_accuracy:.6f}"
        )


def cross_entropy(tape: Tape, scores: Tensor, targets) -> Tensor:
    """Mean over examples of -log(scores[i, target_i]), log floored at 1e-12."""
    idx = np.asarray(targets, dtype=np.int64)
    if scores.data.ndim != 2:
        raise ContractError(f"scores must be [N x K], got {scores.shape}")
    n = scores.shape[0]
    if n == 0:
        raise ContractError("cross entropy over an empty batch is undefined")
    picked = tape.pick_rows(scores, idx)
    return tape.scale(tape.sum(tape.safe_log(picked)), -1.0 / n)


def sgd_step(params: dict[str, Tensor], learning_rate: float) -> None:
    """w <- w - lr * grad for every parameter."""
    for tensor in params.values():
        tensor.data -= learning_rate * tensor.grad


class AdamState:
    """First and second moment accumulators, one pair per parameter."""

    def __init__(self, params: dict[str, Tensor]):
        self.m = {name: np.zeros_like(t.data) for name, t in params.items()}
        self.v = {name: np.zeros_like(t.data) for name, t in params.items()}


def adam_step(
    params: dict[str, Tensor],
    state: AdamState,
    t: int,
    learning_rate: float,
    beta1: float = 0.9,
    beta2: float = 0.999,
    epsilon: float = 1e-8,
) -> None:
    """One bias-corrected Adam update; ``t`` is the 1-based step count."""
    if t < 1:
        raise ContractError(f"adam step count must be >= 1, got {t}")
    for name, tensor in params.items():
        g = tensor.grad
        m = state.m[name]
        v = state.v[name]
        m *= beta1
        m += (1.0 - beta1) * g
        v *= beta2
        v += (1.0 - beta2) * g * g
        m_hat = m / (1.0 - beta1**t)
        v_hat = v / (1.0 - beta2**t)
        tensor.data -= learning_rate * m_hat / (np.sqrt(v_hat) + epsilon)


def accuracy(predictions, targets) -> float:
    p = np.asarray(predictions)
    t = np.asarray(targets)
    if p.shape != t.shape:
        raise ContractError(f"got {p.shape} predictions for {t.shape} targets")
    if p.size == 0:
        raise ContractError("accuracy over zero examples is undefined")
    return float(np.mean(p == t))


def _split_inputs(inputs) -> tuple[np.ndarray, np.ndarray | None]:
    if isinstance(inputs, (tuple, list)):
        if len(inputs) != 2:
            raise ContractError("inputs must be questions or (questions, visual)")
        return np.asarray(inputs[0]), np.asarray(inputs[1])
    return np.asarray(inputs), None


def validation_count(n: int, split: float) -> int:
    """ceil(n * split), guarded against float noise just above an integer."""
    return int(math.ceil(n * split - 1e-9))


def evaluate(model: Model, inputs, targets) -> tuple[float, float]:
    """Dropout-free loss and accuracy over a whole set."""
    questions, visual = _split_inputs(inputs)
    idx = np.asarray(targets, dtype=np.int64)
    tape = Tape()
    scores = model.forward(tape, questions, visual, training=False)
    loss = cross_entropy(tape, scores, idx)
    preds = np.argmax(scores.data, axis=-1)
    return float(loss.data), accuracy(preds, idx)


def fit(
    model: Model,
    inputs,
    targets,
    config: TrainingConfig,
    on_epoch: Callable[[EpochReport], None] | None = None,
) -> list[EpochReport]:
    """Train in place and return one report per epoch.

    The held-out tail only ever flows through dropout-free evaluation
    passes, so its values cannot influence the parameter trajectory.  A
    non-finite batch loss stops training with a ContractError before its
    gradient reaches the parameters.
    """
    questions, visual = _split_inputs(inputs)
    idx = np.asarray(targets, dtype=np.int64)
    n = len(idx)
    if len(questions) != n:
        raise ContractError(f"{len(questions)} questions for {n} targets")
    if visual is not None and len(visual) != n:
        raise ContractError(f"{len(visual)} visual rows for {n} targets")

    n_val = validation_count(n, config.validation_split)
    n_train = n - n_val
    if n_train <= 0:
        raise ConfigurationError(
            f"validation split {config.validation_split} leaves no training "
            f"examples out of {n}"
        )

    def pick(source, sel):
        return None if source is None else source[sel]

    train_slice = slice(0, n_train)
    val_slice = slice(n_train, n)
    rng = np.random.default_rng(config.seed)
    lr = config.resolved_learning_rate()
    state = AdamState(model.params) if config.optimizer == "adam" else None
    step = 0
    reports = []

    for epoch in range(1, config.epochs + 1):
        order = rng.permutation(n_train)
        loss_total = 0.0
        for start in range(0, n_train, config.batch_size):
            sel = order[start : start + config.batch_size]
            tape = Tape()
            scores = model.forward(
                tape,
                questions[sel],
                pick(visual, sel),
                training=True,
                rng=rng,
            )
            loss = cross_entropy(tape, scores, idx[sel])
            step += 1
            loss_value = float(loss.data)
            if not math.isfinite(loss_value):
                raise ContractError(
                    f"training diverged: loss is {loss_value} at epoch {epoch}, "
                    f"step {step}"
                )
            for tensor in model.params.values():
                tensor.zero_grad()
            tape.backward(loss)
            if state is None:
                sgd_step(model.params, lr)
            else:
                adam_step(
                    model.params, state, step, lr,
                    config.beta1, config.beta2, config.epsilon,
                )
            loss_total += loss_value * len(sel)

        def bundle(sl):
            q = questions[sl]
            v = pick(visual, sl)
            return q if v is None else (q, v)

        _, train_acc = evaluate(model, bundle(train_slice), idx[train_slice])
        if n_val > 0:
            val_loss, val_acc = evaluate(model, bundle(val_slice), idx[val_slice])
        else:
            val_loss, val_acc = 0.0, 0.0  # nothing held out
        report = EpochReport(
            epoch=epoch,
            loss=loss_total / n_train,
            accuracy=train_acc,
            val_loss=val_loss,
            val_accuracy=val_acc,
        )
        reports.append(report)
        if on_epoch is not None:
            on_epoch(report)
    return reports
