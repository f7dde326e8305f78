"""Loss, optimisers, and the fit loop."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from imageqa.autodiff import Tape, Tensor
from imageqa.errors import ConfigurationError, ContractError
from imageqa.models import ModelConfig, build_model
from imageqa.train import (
    AdamState,
    EpochReport,
    TrainingConfig,
    accuracy,
    adam_step,
    cross_entropy,
    evaluate,
    fit,
    sgd_step,
    validation_count,
)
from tests.helpers import encoded_corpus, order_corpus, separable_corpus


def uniform_scores(n, k):
    return Tensor(np.full((n, k), 1.0 / k))


def predicted_classes(model, questions):
    return np.argmax(model.forward(Tape(), questions, training=False).data, axis=-1)


# ----------------------------------------------------------------------
# cross-entropy


def test_uniform_scores_cost_log_k():
    for k in (2, 4, 10):
        tape = Tape()
        loss = cross_entropy(tape, uniform_scores(3, k), np.zeros(3, dtype=int))
        assert abs(loss.data - math.log(k)) < 1e-9


def test_perfect_scores_cost_nothing():
    scores = Tensor(np.eye(4)[[1, 2]])
    loss = cross_entropy(Tape(), scores, np.array([1, 2]))
    assert abs(float(loss.data)) < 1e-9  # log(1) = 0 exactly, up to the floor


def test_softmax_cross_entropy_gradient_is_probs_minus_onehot():
    rng = np.random.default_rng(3)
    logits = Tensor(rng.normal(size=(4, 5)), requires_grad=True)
    targets = np.array([0, 2, 4, 2])
    tape = Tape()
    probs = tape.softmax(logits)
    loss = cross_entropy(tape, probs, targets)
    logits.zero_grad()
    tape.backward(loss)
    onehot = np.eye(5)[targets]
    expected = (probs.data - onehot) / 4.0
    np.testing.assert_allclose(logits.grad, expected, atol=1e-12)


def test_target_out_of_range_fails():
    with pytest.raises(IndexError):
        cross_entropy(Tape(), uniform_scores(2, 3), np.array([0, 3]))


# ----------------------------------------------------------------------
# optimiser steps


def test_sgd_moves_against_the_gradient():
    p = Tensor(np.array([1.0, 2.0]), requires_grad=True)
    p.grad[:] = [0.5, -1.0]
    sgd_step({"p": p}, learning_rate=0.1)
    np.testing.assert_allclose(p.data, [0.95, 2.1], atol=1e-15)


def test_two_sgd_steps_equal_one_step_on_the_summed_gradient():
    a = Tensor(np.array([1.0, -3.0]), requires_grad=True)
    b = Tensor(np.array([1.0, -3.0]), requires_grad=True)
    g1, g2 = np.array([0.2, 0.4]), np.array([-0.1, 1.0])
    a.grad[:] = g1
    sgd_step({"p": a}, learning_rate=0.05)
    a.grad[:] = g2
    sgd_step({"p": a}, learning_rate=0.05)
    b.grad[:] = g1 + g2
    sgd_step({"p": b}, learning_rate=0.05)
    np.testing.assert_allclose(a.data, b.data, atol=1e-15)


def test_adam_first_step_is_a_signed_learning_rate():
    p = Tensor(np.array([0.0, 0.0, 0.0]), requires_grad=True)
    p.grad[:] = [3.0, -0.2, 1e-4]
    state = AdamState({"p": p})
    adam_step({"p": p}, state, t=1, learning_rate=0.01)
    # bias correction makes m̂ = g and v̂ = g², so the step is α·sign(g)
    # up to the epsilon fuzz
    np.testing.assert_allclose(p.data, [-0.01, 0.01, -0.01], atol=0.01 * 1e-3)


def test_adam_zero_gradient_is_a_fixed_point():
    p = Tensor(np.array([5.0]), requires_grad=True)
    state = AdamState({"p": p})
    for t in range(1, 4):
        p.grad[:] = 0.0
        adam_step({"p": p}, state, t=t, learning_rate=0.5)
    np.testing.assert_array_equal(p.data, [5.0])


def test_adam_minimises_a_parabola_like_the_scalar_recurrence():
    # independent scalar simulation of the published update rule
    w, m, v = 1.0, 0.0, 0.0
    alpha, b1, b2, eps = 0.1, 0.9, 0.999, 1e-8
    trace = []
    for t in range(1, 101):
        g = 2.0 * w
        m = b1 * m + (1 - b1) * g
        v = b2 * v + (1 - b2) * g * g
        mhat = m / (1 - b1**t)
        vhat = v / (1 - b2**t)
        w -= alpha * mhat / (math.sqrt(vhat) + eps)
        trace.append(w)

    p = Tensor(np.array([1.0]), requires_grad=True)
    state = AdamState({"p": p})
    for t in range(1, 101):
        p.grad[:] = 2.0 * p.data
        adam_step({"p": p}, state, t=t, learning_rate=alpha)
        assert abs(float(p.data[0]) - trace[t - 1]) < 1e-12
    assert abs(float(p.data[0])) < 0.5


def test_adam_rejects_zero_based_time():
    p = Tensor(np.array([1.0]), requires_grad=True)
    state = AdamState({"p": p})
    with pytest.raises(ContractError):
        adam_step({"p": p}, state, t=0, learning_rate=0.1)


def test_single_sgd_step_decreases_the_loss():
    text = separable_corpus(6)
    questions, targets, vocab_a, vocab_q = encoded_corpus(text, maxlen=5)
    cfg = ModelConfig(
        input_dim=len(vocab_q),
        output_dim=len(vocab_a),
        textual_embedding_dim=16,
        hidden_state_dim=16,
        dropout_rate=0.0,
        seed=3,
    )
    model = build_model("blind-bow", cfg)

    def loss_now():
        tape = Tape()
        scores = model.forward(tape, questions, training=False)
        return tape, cross_entropy(tape, scores, targets)

    tape, before = loss_now()
    for p in model.params.values():
        p.zero_grad()
    tape.backward(before)
    sgd_step(model.params, learning_rate=1e-4)
    _, after = loss_now()
    assert float(after.data) < float(before.data)


# ----------------------------------------------------------------------
# fit loop plumbing


def test_validation_count_rounds_up_but_not_spuriously():
    assert validation_count(10, 0.0) == 0
    assert validation_count(10, 0.1) == 1
    assert validation_count(10, 0.15) == 2
    assert validation_count(3, 0.5) == 2
    assert validation_count(5, 0.2) == 1  # 5*0.2 == 1.0, no ceil overshoot


def test_accuracy_examples_and_contracts():
    assert accuracy(np.array([1, 2, 3]), np.array([1, 0, 3])) == pytest.approx(2 / 3)
    assert accuracy(np.array([7]), np.array([7])) == 1.0
    with pytest.raises(ContractError):
        accuracy(np.array([1]), np.array([1, 2]))
    with pytest.raises(ContractError):
        accuracy(np.array([], dtype=int), np.array([], dtype=int))


def training_fixture(pairs=6, seed=5, **overrides):
    text = separable_corpus(pairs)
    questions, targets, vocab_a, vocab_q = encoded_corpus(text, maxlen=5)
    cfg = ModelConfig(
        input_dim=len(vocab_q),
        output_dim=len(vocab_a),
        textual_embedding_dim=24,
        hidden_state_dim=24,
        dropout_rate=overrides.pop("dropout_rate", 0.0),
        seed=seed,
    )
    model = build_model("blind-bow", cfg)
    config = TrainingConfig(
        optimizer="adam",
        learning_rate=overrides.pop("learning_rate", 0.01),
        epochs=overrides.pop("epochs", 30),
        batch_size=overrides.pop("batch_size", 6),
        validation_split=overrides.pop("validation_split", 0.0),
        seed=seed,
        **overrides,
    )
    return model, questions, targets, config


def test_zero_epochs_returns_nothing_and_touches_nothing():
    model, questions, targets, config = training_fixture(epochs=0)
    before = {k: p.data.tobytes() for k, p in model.params.items()}
    reports = fit(model, questions, targets, config)
    assert reports == []
    assert {k: p.data.tobytes() for k, p in model.params.items()} == before


def test_fit_overfits_a_tiny_separable_corpus():
    model, questions, targets, config = training_fixture(epochs=60)
    reports = fit(model, questions, targets, config)
    assert len(reports) == 60
    assert reports[0].epoch == 1 and reports[-1].epoch == 60
    assert reports[-1].accuracy == 1.0
    assert reports[-1].loss < reports[0].loss
    preds = predicted_classes(model, questions)
    np.testing.assert_array_equal(preds, targets)


def test_fit_is_bitwise_deterministic():
    runs = []
    for _ in range(2):
        model, questions, targets, config = training_fixture(
            epochs=8, dropout_rate=0.3
        )
        fit(model, questions, targets, config)
        runs.append({k: p.data.tobytes() for k, p in model.params.items()})
    assert runs[0] == runs[1]


def test_validation_rows_never_influence_training():
    # mangle the held-out tail; the learned weights must not move
    results = []
    for mangle in (False, True):
        model, questions, targets, config = training_fixture(
            pairs=10, epochs=6, validation_split=0.2, batch_size=4
        )
        q = questions.copy()
        t = targets.copy()
        if mangle:
            q[-2:] = q[-2:][:, ::-1] * 0 + 2
            t[-2:] = 0
        fit(model, q, t, config)
        results.append({k: p.data.tobytes() for k, p in model.params.items()})
    assert results[0] == results[1]


def test_validation_metrics_reflect_the_holdout():
    model, questions, targets, config = training_fixture(
        pairs=10, epochs=40, validation_split=0.2, batch_size=8
    )
    reports = fit(model, questions, targets, config)
    last = reports[-1]
    assert last.val_loss > 0.0
    # the held-out answers never appear in training, so they are unlearnable
    assert last.val_accuracy < 1.0
    preds = predicted_classes(model, questions[-2:])
    assert accuracy(preds, targets[-2:]) == last.val_accuracy


def test_no_holdout_reports_zero_validation_metrics():
    model, questions, targets, config = training_fixture(epochs=2)
    reports = fit(model, questions, targets, config)
    assert all(r.val_loss == 0.0 and r.val_accuracy == 0.0 for r in reports)


def test_everything_held_out_fails():
    # ceil(6 * 0.99) = 6 rows held out leaves nothing to train on
    model, questions, targets, config = training_fixture(validation_split=0.99)
    with pytest.raises(ConfigurationError):
        fit(model, questions, targets, config)
    with pytest.raises(ConfigurationError):
        TrainingConfig(validation_split=1.0)


def test_streaming_callback_sees_every_epoch_in_order():
    model, questions, targets, config = training_fixture(epochs=5)
    seen = []
    reports = fit(model, questions, targets, config, on_epoch=seen.append)
    assert seen == reports
    assert [r.epoch for r in seen] == [1, 2, 3, 4, 5]


def test_report_line_format():
    line = EpochReport(3, 1.25, 0.5, 0.75, 0.25).line()
    assert line == "epoch=3 loss=1.250000 acc=0.500000 val_loss=0.750000 val_acc=0.250000"


def test_evaluate_matches_manual_loss_and_accuracy():
    model, questions, targets, _ = training_fixture()
    loss, acc = evaluate(model, questions, targets)
    tape = Tape()
    scores = model.forward(tape, questions, training=False)
    expected = cross_entropy(tape, scores, targets)
    assert abs(loss - float(expected.data)) < 1e-12
    assert acc == accuracy(predicted_classes(model, questions), targets)


def test_recurrent_model_learns_token_order():
    text = order_corpus(pairs=4)
    questions, targets, vocab_a, vocab_q = encoded_corpus(text, maxlen=4)
    cfg = ModelConfig(
        input_dim=len(vocab_q),
        output_dim=len(vocab_a),
        textual_embedding_dim=24,
        hidden_state_dim=24,
        dropout_rate=0.0,
        seed=11,
    )
    model = build_model("blind-rnn", cfg)
    config = TrainingConfig(
        optimizer="adam", learning_rate=0.01, epochs=60, batch_size=8, seed=11
    )
    reports = fit(model, questions, targets, config)
    assert reports[-1].accuracy >= 0.95


def test_training_config_validation():
    with pytest.raises(ConfigurationError):
        TrainingConfig(optimizer="rmsprop")
    with pytest.raises(ConfigurationError):
        TrainingConfig(epochs=-1)
    with pytest.raises(ConfigurationError):
        TrainingConfig(batch_size=0)
    with pytest.raises(ConfigurationError):
        TrainingConfig(validation_split=1.5)
    assert TrainingConfig(optimizer="sgd").resolved_learning_rate() == 0.01
    assert TrainingConfig(optimizer="adam").resolved_learning_rate() == 0.001
    assert TrainingConfig(optimizer="adam", learning_rate=0.2).resolved_learning_rate() == 0.2


@settings(deadline=None, max_examples=20)
@given(
    n=st.integers(min_value=1, max_value=50),
    split=st.floats(min_value=0.0, max_value=0.99),
)
def test_validation_count_bounds(n, split):
    k = validation_count(n, split)
    assert 0 <= k <= n
    assert k >= n * split - 1e-6
