"""Model behaviour: all four families, both cells, all merges."""

import numpy as np
import pytest

from imageqa.autodiff import Tape, Tensor, grad_check
from imageqa.errors import (
    ConfigurationError,
    ContractError,
    DimensionError,
    EmptySequenceError,
    FormatError,
)
from imageqa.models import (
    Model,
    ModelConfig,
    build_model,
    decode_predictions,
    format_checkpoint,
    gru_step,
    load_checkpoint,
    lstm_step,
    parse_checkpoint,
)
from imageqa.train import cross_entropy
from tests.helpers import v1_checkpoint_text, with_first_value

RNG = np.random.default_rng(0)
QUESTIONS = np.array([[0, 2, 3, 4], [0, 0, 5, 2]])
TARGETS = np.array([1, 3])


def tiny_config(**kw):
    base = dict(
        input_dim=7,
        output_dim=5,
        textual_embedding_dim=6,
        hidden_state_dim=6,
        dropout_rate=0.0,
        seed=13,
    )
    base.update(kw)
    return ModelConfig(**base)


def all_models():
    visual = np.random.default_rng(1).normal(size=(2, 4))
    yield build_model("blind-bow", tiny_config()), None
    yield build_model("blind-rnn", tiny_config(cell="gru")), None
    yield build_model("blind-rnn", tiny_config(cell="lstm")), None
    for merge, dv in [("concat", 0), ("mul", 6), ("sum", 6), ("ave", 6)]:
        cfg = tiny_config(
            visual_dim=4, visual_embedding_dim=dv, multimodal_merge_mode=merge
        )
        yield build_model("vl-bow", cfg), visual
    cfg = tiny_config(visual_dim=4, visual_embedding_dim=6, multimodal_merge_mode="sum")
    yield build_model("vl-rnn", cfg), visual


# ----------------------------------------------------------------------
# forward contracts


def test_score_rows_sum_to_one_for_every_kind():
    for model, visual in all_models():
        tape = Tape()
        scores = model.forward(tape, QUESTIONS, visual, training=False)
        assert scores.shape == (2, 5)
        np.testing.assert_allclose(scores.data.sum(axis=1), 1.0, atol=1e-9)
        assert np.all(scores.data > 0)


def test_blind_bow_is_permutation_invariant_over_real_tokens():
    model = build_model("blind-bow", tiny_config())
    tape = Tape()
    a = model.forward(tape, np.array([[0, 2, 3, 4]]), training=False)
    b = model.forward(tape, np.array([[0, 4, 2, 3]]), training=False)
    np.testing.assert_allclose(a.data, b.data, atol=1e-12)


def test_blind_rnn_is_order_sensitive():
    model = build_model("blind-rnn", tiny_config(cell="gru"))
    tape = Tape()
    a = model.language_vectors(tape, np.array([[2, 3]]))
    b = model.language_vectors(tape, np.array([[3, 2]]))
    assert np.max(np.abs(a.data - b.data)) > 1e-9


def test_prepending_pads_changes_nothing():
    for model, visual in all_models():
        tape = Tape()
        short = model.forward(tape, np.array([[2, 3]] * 2), visual, training=False)
        longer = model.forward(
            tape, np.array([[0, 0, 0, 2, 3]] * 2), visual, training=False
        )
        np.testing.assert_allclose(short.data, longer.data, atol=1e-12)


def test_all_pad_question_raises_empty_sequence():
    # one empty row fails the whole batch, for every kind
    for model, visual in all_models():
        for questions, row in [([[0, 0, 0], [0, 0, 0]], 0), ([[0, 2, 3], [0, 0, 0]], 1)]:
            with pytest.raises(EmptySequenceError, match=f"question {row} "):
                model.forward(Tape(), np.array(questions), visual, training=False)


def test_pad_row_of_embedding_gets_exactly_zero_gradient():
    for model, visual in all_models():
        tape = Tape()
        scores = model.forward(tape, QUESTIONS, visual, training=False)
        loss = cross_entropy(tape, scores, TARGETS)
        for p in model.params.values():
            p.zero_grad()
        tape.backward(loss)
        emb = model.params["embedding"]
        assert np.all(emb.grad[0] == 0.0), model.kind
        assert np.any(emb.grad[1:] != 0.0), model.kind


def test_out_of_range_index_raises_for_every_kind():
    for model, visual in all_models():
        vocab = model.config.input_dim
        for bad in (-1, vocab):
            questions = np.array([[0, 2, 3], [0, 4, bad]])
            with pytest.raises(IndexError, match=f"index {bad} at row 1, position 2 "):
                model.forward(Tape(), questions, visual, training=False)


def test_bow_average_is_the_mean_of_the_real_token_rows():
    model = build_model("blind-bow", tiny_config())
    table = model.params["embedding"].data
    # pads anywhere in the row are left out, repeated tokens count twice
    vectors = model.language_vectors(Tape(), np.array([[0, 2, 0, 5, 2], [0, 0, 0, 0, 6]]))
    np.testing.assert_allclose(
        vectors.data, [(2 * table[2] + table[5]) / 3, table[6]], atol=1e-15
    )


def test_each_row_encodes_as_it_would_alone():
    # ragged rows, one with a pad inside it: the batch starts at the first
    # real column of its longest row, and shorter rows carry their state
    questions = np.array([[2, 3, 4, 5, 6], [0, 0, 0, 0, 3], [0, 4, 0, 2, 2]])
    for model, _ in all_models():
        batched = model.language_vectors(Tape(), questions)
        for n, row in enumerate(questions):
            alone = model.language_vectors(Tape(), row[None, :])
            np.testing.assert_allclose(batched.data[n], alone.data[0], atol=1e-12)


def test_a_batch_tiled_eight_times_records_as_many_tape_nodes():
    # the encoders compute the whole batch at once: the tape grows with the
    # number of time steps, never with the number of rows
    for cfg, kind in [
        (tiny_config(), "blind-bow"),
        (tiny_config(cell="gru"), "blind-rnn"),
        (tiny_config(cell="lstm"), "blind-rnn"),
    ]:
        model = build_model(kind, cfg)
        once, tiled = Tape(), Tape()
        model.forward(once, QUESTIONS, training=False)
        model.forward(tiled, np.tile(QUESTIONS, (8, 1)), training=False)
        assert len(tiled.nodes) == len(once.nodes), cfg.cell


def test_same_seed_builds_bitwise_identical_parameters():
    a = build_model("blind-rnn", tiny_config(cell="lstm"))
    b = build_model("blind-rnn", tiny_config(cell="lstm"))
    for name in a.params:
        assert a.params[name].data.tobytes() == b.params[name].data.tobytes()


def test_visual_features_carry_no_gradient_and_stay_unchanged():
    visual = np.random.default_rng(2).normal(size=(2, 4))
    snapshot = visual.tobytes()
    cfg = tiny_config(visual_dim=4, visual_embedding_dim=6, multimodal_merge_mode="mul")
    model = build_model("vl-bow", cfg)
    tape = Tape()
    loss = cross_entropy(
        tape, model.forward(tape, QUESTIONS, visual, training=False), TARGETS
    )
    for p in model.params.values():
        p.zero_grad()
    tape.backward(loss)
    assert visual.tobytes() == snapshot
    assert np.any(model.params["visual.weight"].grad != 0.0)


def test_blind_model_rejects_visual_and_vision_requires_it():
    blind = build_model("blind-bow", tiny_config())
    with pytest.raises(ContractError):
        blind.forward(Tape(), QUESTIONS, np.zeros((2, 4)), training=False)
    vis_cfg = tiny_config(visual_dim=4, multimodal_merge_mode="concat")
    vision = build_model("vl-bow", vis_cfg)
    with pytest.raises(ContractError):
        vision.forward(Tape(), QUESTIONS, training=False)
    with pytest.raises(DimensionError):
        vision.forward(Tape(), QUESTIONS, np.zeros((2, 9)), training=False)


# ----------------------------------------------------------------------
# recurrent cells


def zero_params(model: Model):
    for p in model.params.values():
        p.data[...] = 0.0


def test_gru_zero_weights_keep_zero_state():
    model = build_model("blind-rnn", tiny_config(cell="gru"))
    zero_params(model)
    tape = Tape()
    state = model.language_vectors(tape, np.array([[2, 3, 4]]))
    np.testing.assert_array_equal(state.data, np.zeros((1, 6)))
    # and the classifier then scores uniformly
    scores = model.forward(Tape(), np.array([[2, 3, 4]]), training=False)
    np.testing.assert_allclose(scores.data, np.full((1, 5), 0.2))


def test_lstm_zero_weights_forget_bias_keeps_zero_cell():
    model = build_model("blind-rnn", tiny_config(cell="lstm"))
    zero_params(model)
    model.params["rnn.b_f"].data[...] = 1.0  # the documented init
    tape = Tape()
    h = Tensor(np.zeros((3, 6)))
    c = Tensor(np.zeros((3, 6)))
    x = Tensor(np.zeros((3, 6)))
    h2, c2 = lstm_step(tape, h, c, x, model.params)
    np.testing.assert_array_equal(c2.data, np.zeros((3, 6)))
    np.testing.assert_array_equal(h2.data, np.zeros((3, 6)))


def test_single_step_gradients():
    for cell in ("gru", "lstm"):
        model = build_model("blind-rnn", tiny_config(cell=cell))
        rng = np.random.default_rng(4)
        h = Tensor(rng.normal(size=(2, 6)), requires_grad=True)
        x = Tensor(rng.normal(size=(2, 6)), requires_grad=True)
        c = Tensor(rng.normal(size=(2, 6)), requires_grad=True)
        params = list(model.params.values()) + [h, x, c]

        def f(tape, cell=cell):
            if cell == "gru":
                out = gru_step(tape, h, x, model.params)
            else:
                out, _ = lstm_step(tape, h, c, x, model.params)
            return tape.sum(out)

        assert grad_check(f, params, h=1e-5) < 1e-4, cell


def test_lstm_forget_bias_initialised_to_one():
    model = build_model("blind-rnn", tiny_config(cell="lstm"))
    np.testing.assert_array_equal(model.params["rnn.b_f"].data, np.ones(6))
    np.testing.assert_array_equal(model.params["rnn.b_i"].data, np.zeros(6))


# ----------------------------------------------------------------------
# fusion rules


def test_equal_width_rule_fails_at_build_time():
    for merge in ("mul", "sum", "ave"):
        cfg = tiny_config(visual_dim=4, visual_embedding_dim=0,
                          multimodal_merge_mode=merge)
        with pytest.raises(ConfigurationError):
            build_model("vl-bow", cfg)  # language 6 vs visual 4
        rnn_cfg = tiny_config(hidden_state_dim=8, visual_dim=4,
                              visual_embedding_dim=6, multimodal_merge_mode=merge)
        with pytest.raises(ConfigurationError):
            build_model("vl-rnn", rnn_cfg)  # language 8 vs visual 6


def test_concat_width_is_the_sum_of_branches():
    for d_lang, d_vis, dv in [(6, 4, 0), (3, 5, 5), (8, 2, 7)]:
        cfg = tiny_config(
            textual_embedding_dim=d_lang, visual_dim=d_vis,
            visual_embedding_dim=dv, multimodal_merge_mode="concat",
        )
        model = build_model("vl-bow", cfg)
        expected = d_lang + (dv if dv > 0 else d_vis)
        assert model.merged_dim == expected
        assert model.params["classifier.weight"].shape == (expected, 5)


def test_sum_merge_with_zero_visual_equals_blind_scores():
    # same seed and same draw order: with no visual dense layer the two
    # models hold identical parameters, so zero features must cancel out
    blind = build_model("blind-bow", tiny_config())
    fused = build_model(
        "vl-bow",
        tiny_config(visual_dim=6, visual_embedding_dim=0, multimodal_merge_mode="sum")
    )
    for name in blind.params:
        assert blind.params[name].data.tobytes() == fused.params[name].data.tobytes()
    a = blind.forward(Tape(), QUESTIONS, training=False)
    b = fused.forward(Tape(), QUESTIONS, np.zeros((2, 6)), training=False)
    np.testing.assert_array_equal(a.data, b.data)


def test_ave_merge_is_the_elementwise_mean():
    cfg = tiny_config(visual_dim=6, visual_embedding_dim=0,
                      multimodal_merge_mode="ave")
    model = build_model("vl-bow", cfg)
    visual = np.random.default_rng(5).normal(size=(2, 6))
    lang = model.language_vectors(Tape(), QUESTIONS)
    merged = 0.5 * (lang.data + visual)
    logits = merged @ model.params["classifier.weight"].data
    logits += model.params["classifier.bias"].data
    shifted = np.exp(logits - logits.max(axis=1, keepdims=True))
    expected = shifted / shifted.sum(axis=1, keepdims=True)
    scores = model.forward(Tape(), QUESTIONS, visual, training=False)
    np.testing.assert_allclose(scores.data, expected, atol=1e-12)


def test_unknown_kind_and_bad_configs():
    with pytest.raises(ConfigurationError):
        build_model("deep-fusion", tiny_config())
    with pytest.raises(ConfigurationError):
        build_model("blind-bow", tiny_config(input_dim=1))
    with pytest.raises(ConfigurationError):
        build_model("blind-bow", tiny_config(dropout_rate=1.0))
    with pytest.raises(ConfigurationError):
        build_model("blind-rnn", tiny_config(cell="tanh-rnn"))
    with pytest.raises(ConfigurationError):
        build_model("vl-bow", tiny_config(visual_dim=0))
    with pytest.raises(ConfigurationError):
        build_model("vl-bow", tiny_config(visual_dim=4, multimodal_merge_mode="stack"))


# ----------------------------------------------------------------------
# decoding


def test_decode_takes_the_best_class_and_breaks_ties_low():
    model = build_model("blind-bow", tiny_config())
    # force known scores: zero everything, bias picks the winner
    zero_params(model)
    model.params["classifier.bias"].data[:] = [0.0, 2.0, 0.0, 2.0, 0.0]
    words = decode_predictions(
        model, np.array([[2, 3]]), index2word={i: f"w{i}" for i in range(5)}
    )
    assert words == ["w1"]  # index 1 and 3 tie at 2.0; lowest wins


def test_decode_empty_batch_is_empty():
    model = build_model("blind-bow", tiny_config())
    assert decode_predictions(model, np.zeros((0, 4)), index2word={}) == []


def test_bow_sum_pooling_scales_the_average():
    avg = build_model("blind-bow", tiny_config())
    summed = build_model("blind-bow", tiny_config(bow_pooling="sum"))
    tape = Tape()
    a = avg.language_vectors(tape, np.array([[0, 2, 3]]))
    s = summed.language_vectors(tape, np.array([[0, 2, 3]]))
    np.testing.assert_allclose(s.data, 2.0 * a.data, atol=1e-12)


# ----------------------------------------------------------------------
# checkpoints


def test_checkpoint_round_trip_is_bitwise():
    for model, _ in all_models():
        text = format_checkpoint(model.params)
        assert text.isascii() and text.startswith("imageqa-checkpoint 2\n")
        assert format_checkpoint(model.params) == text
        # written and read back as UTF-8 text, the way callers store it
        arrays = parse_checkpoint(text.encode("utf-8").decode("utf-8"))
        assert list(arrays) == list(model.params)
        clone = build_model(model.kind, model.config)
        for p in clone.params.values():
            p.data[...] = 0.0
        load_checkpoint(clone, arrays)
        for name in model.params:
            assert (
                clone.params[name].data.tobytes() == model.params[name].data.tobytes()
            ), (model.kind, name)


def test_checkpoint_mismatch_is_rejected():
    model = build_model("blind-bow", tiny_config())
    arrays = parse_checkpoint(format_checkpoint(model.params))
    other = build_model("blind-bow", tiny_config(textual_embedding_dim=9))
    with pytest.raises(ContractError):
        load_checkpoint(other, arrays)
    del arrays["embedding"]
    with pytest.raises(ContractError):
        load_checkpoint(model, arrays)


def test_checkpoint_keeps_edge_values_bit_for_bit():
    info = np.finfo(np.float64)
    edge = np.array([-0.0, 0.0, info.smallest_subnormal, -info.smallest_subnormal,
                     info.tiny / 3, info.max, -info.max, 1 / 3])
    arrays = parse_checkpoint(format_checkpoint({"edge": Tensor(edge.reshape(2, 4))}))
    assert arrays["edge"].shape == (2, 4)
    assert arrays["edge"].tobytes() == edge.tobytes()


@pytest.mark.parametrize(
    "edit, needle",
    [
        (lambda ls: v1_checkpoint_text(parse_checkpoint("\n".join(ls))).split("\n"),
         "first line"),
        (lambda ls: ls[:2] + [ls[2][:-5] + "*" + ls[2][-4:]] + ls[3:], "base64"),
        (lambda ls: ls[:2] + [ls[2][:-1]] + ls[3:], "base64"),
        (lambda ls: ls[:2] + [ls[2][:-4]] + ls[3:], "bytes"),
        (lambda ls: ls[:1] + ["embedding 7 5"] + ls[2:], "bytes"),
        (lambda ls: ls[:1] + ["embedding 7 x"] + ls[2:], "integer dims"),
        (lambda ls: ls[:1] + [" 7 6"] + ls[2:], "missing tensor name"),
        (lambda ls: ls[:3] + ls[1:], "duplicate tensor 'embedding'"),
        (lambda ls: ls[:-2], "alternate"),
        (lambda ls: with_first_value(ls, np.nan), "tensor 'embedding' holds non-finite"),
        (lambda ls: with_first_value(ls, -np.inf), "tensor 'embedding' holds non-finite"),
    ],
    ids=[
        "v1-text", "bad-base64-character", "bad-base64-padding", "truncated-payload",
        "wrong-byte-count", "non-integer-dims", "missing-name", "duplicate-name",
        "odd-line-count", "nan-payload", "inf-payload",
    ],
)
def test_malformed_checkpoint_is_a_format_error(edit, needle):
    model = build_model("blind-bow", tiny_config())
    lines = format_checkpoint(model.params).split("\n")
    with pytest.raises(FormatError, match=needle):
        parse_checkpoint("\n".join(edit(lines)))
