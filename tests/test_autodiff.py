"""Engine tests: every primitive's value and backward rule, checked against
central finite differences computed independently in this file."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from imageqa.autodiff import Tape, Tensor, grad_check
from imageqa.errors import ConfigurationError, ContractError, DimensionError


def finite_diff(f, tensor, h=1e-6):
    """Central differences of a scalar-valued callable, entry by entry."""
    grad = np.zeros_like(tensor.data)
    flat = tensor.data.reshape(-1)
    gflat = grad.reshape(-1)
    for i in range(flat.size):
        saved = flat[i]
        flat[i] = saved + h
        up = f()
        flat[i] = saved - h
        down = f()
        flat[i] = saved
        gflat[i] = (up - down) / (2 * h)
    return grad


# ----------------------------------------------------------------------
# matmul


def test_matmul_identity():
    tape = Tape()
    a = Tensor([[1.0, 2.0], [3.0, 4.0]])
    eye = Tensor(np.eye(2))
    out = tape.matmul(a, eye)
    np.testing.assert_array_equal(out.data, a.data)


def test_matmul_selects_column():
    tape = Tape()
    a = Tensor([[1.0, 2.0], [3.0, 4.0]])
    e1 = Tensor([[0.0], [1.0]])
    out = tape.matmul(a, e1)
    np.testing.assert_array_equal(out.data, [[2.0], [4.0]])


def test_matmul_backward_matches_finite_differences():
    rng = np.random.default_rng(5)
    a = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
    b = Tensor(rng.normal(size=(4, 2)), requires_grad=True)
    weights = Tensor(rng.normal(size=(3, 2)))  # random projection to a scalar

    def f(tape):
        return tape.sum(tape.mul(tape.matmul(a, b), weights))

    assert grad_check(f, [a, b], h=1e-5) < 1e-5


def test_matmul_shape_mismatch_names_both_shapes():
    tape = Tape()
    with pytest.raises(DimensionError) as err:
        tape.matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((4, 2))))
    assert "(2, 3)" in str(err.value) and "(4, 2)" in str(err.value)


# ----------------------------------------------------------------------
# embedding lookup


def test_embedding_lookup_selects_rows():
    tape = Tape()
    table = Tensor(np.arange(12.0).reshape(4, 3))
    out = tape.embedding_lookup(table, [2, 0, 2])
    np.testing.assert_array_equal(out.data, table.data[[2, 0, 2]])


def test_embedding_lookup_equals_one_hot_matmul_bitwise():
    rng = np.random.default_rng(7)
    for _ in range(100):
        v, d = int(rng.integers(2, 12)), int(rng.integers(1, 9))
        table = Tensor(rng.normal(size=(v, d)))
        i = int(rng.integers(0, v))
        one_hot = np.zeros((1, v))
        one_hot[0, i] = 1.0
        tape = Tape()
        via_lookup = tape.embedding_lookup(table, [i])
        via_matmul = tape.matmul(Tensor(one_hot), table)
        assert via_lookup.data.tobytes() == via_matmul.data.tobytes()


def test_embedding_repeated_index_accumulates_gradient():
    rng = np.random.default_rng(8)
    table = Tensor(rng.normal(size=(5, 3)), requires_grad=True)
    w = Tensor(rng.normal(size=(2, 3)))

    def loss_value():
        tape = Tape()
        return float(tape.sum(tape.mul(tape.embedding_lookup(table, [1, 1]), w)).data)

    tape = Tape()
    out = tape.sum(tape.mul(tape.embedding_lookup(table, [1, 1]), w))
    table.zero_grad()
    tape.backward(out)
    numeric = finite_diff(loss_value, table)
    np.testing.assert_allclose(table.grad, numeric, atol=1e-7)
    # row 1 sees the sum of both step adjoints, other rows see nothing
    np.testing.assert_allclose(table.grad[1], w.data[0] + w.data[1])
    assert np.all(table.grad[[0, 2, 3, 4]] == 0.0)


def test_embedding_index_out_of_range_reports_position():
    tape = Tape()
    table = Tensor(np.zeros((3, 2)))
    with pytest.raises(IndexError) as err:
        tape.embedding_lookup(table, [0, 5])
    assert "position 1" in str(err.value)


def test_index_checks_name_the_first_bad_position():
    tape = Tape()
    for bad in (-1, 3):
        indices = np.array([0, 2, bad, 1, bad])
        with pytest.raises(IndexError, match=f"index {bad} at position 2 "):
            tape.embedding_lookup(Tensor(np.zeros((3, 2))), indices)
        with pytest.raises(IndexError, match=f"index {bad} at position 2 "):
            tape.pick_rows(Tensor(np.zeros((5, 3))), indices)


# ----------------------------------------------------------------------
# nonlinearities


def test_sigmoid_tanh_at_zero():
    tape = Tape()
    x = Tensor([0.0], requires_grad=True)
    s = tape.sigmoid(x)
    assert s.data[0] == 0.5
    tape.backward(tape.sum(s))
    np.testing.assert_allclose(x.grad, [0.25])
    tape2 = Tape()
    assert tape2.tanh(Tensor([0.0])).data[0] == 0.0


def test_sigmoid_tanh_backward_match_finite_differences():
    rng = np.random.default_rng(9)
    x = Tensor(rng.uniform(-1, 1, size=7), requires_grad=True)
    w = Tensor(rng.normal(size=7))
    for op in ("sigmoid", "tanh"):

        def f(tape, op=op):
            return tape.sum(tape.mul(getattr(tape, op)(x), w))

        assert grad_check(f, [x], h=1e-5) < 1e-6


def test_sigmoid_matches_the_sign_split_formula_bitwise():
    # the formula sigmoid replaced: boolean gathers on each side of 0
    def sign_split(x):
        out = np.empty_like(x)
        pos = x >= 0
        out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
        ex = np.exp(x[~pos])
        out[~pos] = ex / (1.0 + ex)
        return out

    rng = np.random.default_rng(16)
    x = np.concatenate([
        rng.normal(scale=20.0, size=5000),
        [1000.0, -1000.0, 0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan],
    ])
    with np.errstate(invalid="ignore"):
        expected = sign_split(x)
        got = Tape().sigmoid(Tensor(x)).data
    assert got.tobytes() == expected.tobytes()


def test_sigmoid_is_stable_at_extremes():
    tape = Tape()
    out = tape.sigmoid(Tensor([-1000.0, 1000.0]))
    assert np.all(np.isfinite(out.data))
    np.testing.assert_allclose(out.data, [0.0, 1.0], atol=1e-12)


# ----------------------------------------------------------------------
# softmax


def test_softmax_uniform_on_equal_scores():
    tape = Tape()
    out = tape.softmax(Tensor([0.0, 0.0]))
    np.testing.assert_allclose(out.data, [0.5, 0.5])


def test_softmax_survives_huge_scores():
    tape = Tape()
    out = tape.softmax(Tensor([1000.0, 0.0]))
    assert np.all(np.isfinite(out.data))
    np.testing.assert_allclose(out.data, [1.0, 0.0], atol=1e-300)


@given(st.lists(st.floats(-50, 50), min_size=1, max_size=8))
def test_softmax_rows_sum_to_one_and_keep_argmax(scores):
    tape = Tape()
    out = tape.softmax(Tensor(scores))
    assert abs(out.data.sum() - 1.0) < 1e-9
    assert np.all(out.data > 0)
    best = int(np.argmax(scores))
    gap = float(scores[best]) - max(
        (s for i, s in enumerate(scores) if i != best), default=-np.inf
    )
    # argmax survives only when the winning margin itself survives exp():
    # a gap below float precision legitimately ties after normalisation
    if gap > 1e-9:
        assert int(np.argmax(out.data)) == best


def test_softmax_backward_matches_finite_differences():
    rng = np.random.default_rng(10)
    x = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
    w = Tensor(rng.normal(size=(3, 4)))

    def f(tape):
        return tape.sum(tape.mul(tape.softmax(x), w))

    assert grad_check(f, [x], h=1e-5) < 1e-6


# ----------------------------------------------------------------------
# elementwise ops, concat, dropout


def test_mul_and_concat_values():
    tape = Tape()
    out = tape.mul(Tensor([1.0, 2.0]), Tensor([3.0, 4.0]))
    np.testing.assert_array_equal(out.data, [3.0, 8.0])
    cat = tape.concat(Tensor([1.0]), Tensor([2.0, 3.0]))
    np.testing.assert_array_equal(cat.data, [1.0, 2.0, 3.0])


def test_elementwise_shape_mismatch():
    tape = Tape()
    for op in (tape.add, tape.sub, tape.mul):
        with pytest.raises(DimensionError):
            op(Tensor([1.0]), Tensor([1.0, 2.0]))


def test_mul_backward_matches_finite_differences():
    rng = np.random.default_rng(13)
    a = Tensor(rng.normal(size=5), requires_grad=True)
    b = Tensor(rng.normal(size=5), requires_grad=True)

    def f(tape):
        return tape.sum(tape.mul(a, b))

    assert grad_check(f, [a, b], h=1e-5) < 1e-6


def test_concat_backward_splits_gradient():
    a = Tensor(np.ones(2), requires_grad=True)
    b = Tensor(np.ones(3), requires_grad=True)
    w = Tensor(np.arange(5.0))
    tape = Tape()
    out = tape.sum(tape.mul(tape.concat(a, b), w))
    tape.backward(out)
    np.testing.assert_array_equal(a.grad, [0.0, 1.0])
    np.testing.assert_array_equal(b.grad, [2.0, 3.0, 4.0])


def test_dropout_identity_paths():
    tape = Tape()
    x = Tensor(np.ones((2, 2)))
    assert tape.dropout(x, 0.5, training=False) is x
    assert tape.dropout(x, 0.0, training=True) is x


def test_dropout_preserves_expectation():
    rng = np.random.default_rng(14)
    tape = Tape()
    x = Tensor(np.ones(100_000))
    out = tape.dropout(x, 0.5, training=True, rng=rng)
    assert 0.98 <= out.data.mean() <= 1.02
    kept = out.data[out.data != 0.0]
    np.testing.assert_allclose(kept, 2.0)  # survivors scaled by 1/(1-rate)


def test_dropout_rate_one_is_a_configuration_error():
    tape = Tape()
    for rate in (1.0, 1.5):
        with pytest.raises(ConfigurationError):
            tape.dropout(Tensor([1.0]), rate, training=True,
                         rng=np.random.default_rng(0))


# ----------------------------------------------------------------------
# backward mechanics


def test_backward_of_sum_is_ones():
    w = Tensor(np.arange(5.0), requires_grad=True)
    tape = Tape()
    tape.backward(tape.sum(w))
    np.testing.assert_array_equal(w.grad, np.ones(5))


def test_zero_scaled_loss_gives_zero_gradient():
    w = Tensor([1.0, -2.0, 3.0], requires_grad=True)
    tape = Tape()
    loss = tape.scale(tape.sum(tape.tanh(w)), 0.0)
    tape.backward(loss)
    np.testing.assert_array_equal(w.grad, np.zeros(3))


def test_backward_requires_scalar():
    tape = Tape()
    out = tape.tanh(Tensor([1.0, 2.0]))
    with pytest.raises(ContractError):
        tape.backward(out)


def test_fanout_accumulates_both_consumers():
    w = Tensor([0.3, -0.4], requires_grad=True)

    def f(tape):
        return tape.add(tape.sum(tape.tanh(w)), tape.sum(tape.mul(w, w)))

    assert grad_check(f, [w], h=1e-5) < 1e-6


def test_gradients_accumulate_until_zeroed():
    w = Tensor([2.0], requires_grad=True)
    for expected in (2.0, 4.0):
        tape = Tape()
        tape.backward(tape.sum(tape.mul(w, w)))  # d/dw w^2 = 4
        np.testing.assert_allclose(w.grad, [2.0 * expected])
    w.zero_grad()
    np.testing.assert_array_equal(w.grad, [0.0])


def test_no_output_shares_memory_with_an_input():
    # _emit wraps each output without a copy, so every primitive must
    # compute a fresh array
    a = Tensor([[0.5, -1.0], [2.0, 0.25]], requires_grad=True)
    b = Tensor([[1.5, 0.5], [-0.5, 3.0]], requires_grad=True)
    bias = Tensor([0.1, -0.2], requires_grad=True)
    tape = Tape()
    outputs = [
        tape.matmul(a, b), tape.embedding_lookup(a, [1, 0, 1]), tape.pick_rows(a, [0, 1]),
        tape.add(a, b), tape.sub(a, b), tape.mul(a, b), tape.concat(a, b),
        tape.bias_add(a, bias), tape.scale(a, 2.0), tape.sum(a), tape.sigmoid(a),
        tape.tanh(a), tape.softmax(a), tape.safe_log(b),
        tape.dropout(a, 0.5, True, np.random.default_rng(0)),
    ]
    assert len(outputs) == len(tape.nodes)
    for node in tape.nodes:
        for x in node.inputs:
            assert not np.shares_memory(node.output.data, x.data)


def test_rules_skip_the_adjoints_of_constants():
    c = Tensor([[1.0, 2.0], [3.0, 4.0]])  # a constant input, like a count matrix
    w = Tensor([[0.5, -1.0], [2.0, 0.25]], requires_grad=True)
    tape = Tape()
    y = tape.matmul(c, w)
    z = tape.mul(c, y)
    tape.backward(tape.sum(z))
    g = np.ones((2, 2))
    assert tape.nodes[0].backward_rule(g)[0] is None
    assert tape.nodes[1].backward_rule(g)[0] is None
    np.testing.assert_array_equal(w.grad, c.data.T @ c.data)
    assert c.grad is None


def test_seeded_program_is_bitwise_reproducible():
    def run():
        rng = np.random.default_rng(42)
        x = Tensor(rng.normal(size=(4, 4)))
        tape = Tape()
        out = tape.dropout(tape.softmax(x), 0.3, training=True, rng=rng)
        return out.data.tobytes()

    assert run() == run()


# ----------------------------------------------------------------------
# grad_check itself


def test_grad_check_on_square():
    w = Tensor([3.0], requires_grad=True)

    def f(tape):
        return tape.sum(tape.mul(w, w))

    tape = Tape()
    loss = f(tape)
    w.zero_grad()
    tape.backward(loss)
    np.testing.assert_allclose(w.grad, [6.0])
    assert grad_check(f, [w], h=1e-5) < 1e-8


def test_all_primitives_pass_grad_check_away_from_kinks():
    rng = np.random.default_rng(15)
    x = Tensor(rng.uniform(0.2, 1.0, size=(3, 4)), requires_grad=True)
    b = Tensor(rng.uniform(-1.0, -0.2, size=4), requires_grad=True)
    w = Tensor(rng.normal(size=(3, 4)))

    cases = {
        "bias_add": lambda t: t.sum(t.mul(t.bias_add(x, b), w)),
        "safe_log": lambda t: t.sum(t.mul(t.safe_log(x), w)),
        "scale": lambda t: t.scale(t.sum(x), 0.7),
        "pick_rows": lambda t: t.sum(t.pick_rows(x, [1, 0, 3])),
        "softmax": lambda t: t.sum(t.mul(t.softmax(x), w)),
        "sub": lambda t: t.sum(t.sub(x, t.mul(x, x))),
    }
    for name, f in cases.items():
        assert grad_check(f, [x, b], h=1e-5) < 1e-4, name


@settings(max_examples=25)
@given(st.lists(st.floats(-30, 30), min_size=2, max_size=6))
def test_forward_ops_never_produce_nan(values):
    tape = Tape()
    x = Tensor(values)
    outs = [tape.tanh(x), tape.sigmoid(x), tape.softmax(x)]
    for out in outs:
        assert not np.any(np.isnan(out.data))
