"""Reverse-mode automatic differentiation over dense float64 tensors.

The engine is define-by-run: each forward pass records its operations on a
fresh Tape, and ``Tape.backward`` replays the records in reverse to
accumulate d(loss)/d(tensor) into every tensor that asked for a gradient.
The primitive set is deliberately small, just what the question-answering
models need, and every primitive states its backward rule explicitly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import ConfigurationError, ContractError, DimensionError


class Tensor:
    """A dense float64 array, optionally accumulating a same-shape gradient.

    Gradients accumulate across backward passes; callers zero them between
    optimizer steps via ``zero_grad``.
    """

    __slots__ = ("data", "grad", "requires_grad")

    def __init__(self, data, requires_grad: bool = False):
        # np.array rather than ascontiguousarray: the latter turns scalar
        # (0-d) values into 1-d arrays, and sums must stay true scalars
        self.data = np.array(data, dtype=np.float64, order="C")
        self.requires_grad = bool(requires_grad)
        self.grad = np.zeros_like(self.data) if self.requires_grad else None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    def zero_grad(self) -> None:
        if self.grad is not None:
            self.grad[...] = 0.0

    def __repr__(self) -> str:
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"


@dataclass
class TapeNode:
    """One recorded operation: inputs, the produced output, and a rule that
    maps the output adjoint to one adjoint per input (None for inputs that
    cannot carry gradient, e.g. integer index lists captured in closures)."""

    inputs: tuple[Tensor, ...]
    output: Tensor
    backward_rule: Callable[[np.ndarray], tuple]


class Tape:
    """Ordered record of one forward pass.

    Nodes are appended as operations execute, so inputs of any node always
    precede it: a single reverse sweep visits each node exactly once.
    A tape and its intermediate tensors belong to one forward/backward pair;
    parameters (leaf tensors) may be reused across many tapes.
    """

    def __init__(self):
        self.nodes: list[TapeNode] = []
        self._produced: set[int] = set()  # ids of the outputs recorded here

    def _emit(self, inputs: Sequence[Tensor], out_data, backward_rule) -> Tensor:
        # every primitive hands over a freshly computed array, so it becomes
        # the output's data as it is, without a second copy
        out = Tensor.__new__(Tensor)
        out.data = np.asarray(out_data, dtype=np.float64, order="C")
        out.grad = None
        out.requires_grad = False
        self.nodes.append(TapeNode(tuple(inputs), out, backward_rule))
        self._produced.add(id(out))
        return out

    def _needs_grad(self, x: Tensor) -> bool:
        """Whether an adjoint for ``x`` is used: it is a parameter, or an
        output recorded on this tape.  Rules skip the other inputs."""
        return x.requires_grad or id(x) in self._produced

    # ------------------------------------------------------------------
    # linear algebra

    def matmul(self, a: Tensor, b: Tensor) -> Tensor:
        """[m x k] @ [k x n] -> [m x n]; backward: ga = g b^T, gb = a^T g."""
        if a.data.ndim != 2 or b.data.ndim != 2 or a.shape[1] != b.shape[0]:
            raise DimensionError(
                f"matmul needs [m x k] @ [k x n], got {a.shape} and {b.shape}"
            )

        need_a, need_b = self._needs_grad(a), self._needs_grad(b)

        def rule(g):
            return (g @ b.data.T if need_a else None, a.data.T @ g if need_b else None)

        return self._emit((a, b), a.data @ b.data, rule)

    def embedding_lookup(self, table: Tensor, indices) -> Tensor:
        """Select rows of ``table``; equivalent to one-hot rows times the table.

        Backward scatter-adds the output adjoint back into the selected rows,
        so a row looked up twice receives the sum of both adjoints.
        """
        if table.data.ndim != 2:
            raise DimensionError(f"embedding table must be [V x d], got {table.shape}")
        arr = np.asarray(indices, dtype=np.intp)
        vocab = table.shape[0]
        bad = np.flatnonzero((arr < 0) | (arr >= vocab))
        if bad.size:
            pos = bad[0]
            raise IndexError(
                f"embedding index {arr.flat[pos]} at position {pos} outside [0, {vocab})"
            )

        def rule(g):
            gt = np.zeros_like(table.data)
            np.add.at(gt, arr, g)
            return (gt,)

        return self._emit((table,), table.data[arr], rule)

    def pick_rows(self, x: Tensor, indices) -> Tensor:
        """x[i, indices[i]] for each row i of a matrix."""
        if x.data.ndim != 2:
            raise DimensionError(f"pick_rows needs a matrix, got {x.shape}")
        arr = np.asarray(indices, dtype=np.intp)
        if arr.shape != x.shape[:1]:
            raise DimensionError(
                f"pick_rows got indices of shape {arr.shape} for {x.shape[0]} rows"
            )
        cols = x.shape[1]
        bad = np.flatnonzero((arr < 0) | (arr >= cols))
        if bad.size:
            pos = bad[0]
            raise IndexError(f"class index {arr[pos]} at position {pos} outside [0, {cols})")
        rng_rows = np.arange(x.shape[0])

        def rule(g):
            gx = np.zeros_like(x.data)
            gx[rng_rows, arr] = g
            return (gx,)

        return self._emit((x,), x.data[rng_rows, arr], rule)

    # ------------------------------------------------------------------
    # pointwise and structural

    def add(self, a: Tensor, b: Tensor) -> Tensor:
        if a.shape != b.shape:
            raise DimensionError(f"add needs equal shapes, got {a.shape} and {b.shape}")

        def rule(g):
            return g, g

        return self._emit((a, b), a.data + b.data, rule)

    def sub(self, a: Tensor, b: Tensor) -> Tensor:
        if a.shape != b.shape:
            raise DimensionError(f"sub needs equal shapes, got {a.shape} and {b.shape}")

        def rule(g):
            return g, -g

        return self._emit((a, b), a.data - b.data, rule)

    def mul(self, a: Tensor, b: Tensor) -> Tensor:
        if a.shape != b.shape:
            raise DimensionError(f"mul needs equal shapes, got {a.shape} and {b.shape}")

        need_a, need_b = self._needs_grad(a), self._needs_grad(b)

        def rule(g):
            return (g * b.data if need_a else None, g * a.data if need_b else None)

        return self._emit((a, b), a.data * b.data, rule)

    def concat(self, a: Tensor, b: Tensor) -> Tensor:
        """Concatenate along the last axis; leading extents must match."""
        if a.data.ndim != b.data.ndim or a.shape[:-1] != b.shape[:-1]:
            raise DimensionError(
                f"concat needs matching leading extents, got {a.shape} and {b.shape}"
            )
        p = a.shape[-1]

        def rule(g):
            return g[..., :p], g[..., p:]

        return self._emit((a, b), np.concatenate([a.data, b.data], axis=-1), rule)

    def bias_add(self, x: Tensor, b: Tensor) -> Tensor:
        """Add a vector to every row of a matrix."""
        if x.data.ndim != 2 or b.data.ndim != 1 or x.shape[1] != b.shape[0]:
            raise DimensionError(
                f"bias_add needs [n x k] + [k], got {x.shape} and {b.shape}"
            )

        def rule(g):
            return g, g.sum(axis=0)

        return self._emit((x, b), x.data + b.data, rule)

    def scale(self, x: Tensor, c: float) -> Tensor:
        c = float(c)

        def rule(g):
            return (g * c,)

        return self._emit((x,), x.data * c, rule)

    def sum(self, x: Tensor) -> Tensor:
        """Sum of all entries, as a scalar tensor."""

        def rule(g):
            return (np.full_like(x.data, float(g)),)

        return self._emit((x,), np.asarray(x.data.sum()), rule)

    # ------------------------------------------------------------------
    # nonlinearities

    def sigmoid(self, x: Tensor) -> Tensor:
        # e = exp(-|x|) never overflows: 1/(1+e) for x >= 0, e/(1+e) below;
        # where(), not -abs(), so a NaN keeps its sign bit
        pos = x.data >= 0
        e = np.exp(np.where(pos, -x.data, x.data))
        out = np.where(pos, 1.0 / (1.0 + e), e / (1.0 + e))

        def rule(g):
            return (g * out * (1.0 - out),)

        return self._emit((x,), out, rule)

    def tanh(self, x: Tensor) -> Tensor:
        y = np.tanh(x.data)

        def rule(g):
            return (g * (1.0 - y * y),)

        return self._emit((x,), y, rule)

    def softmax(self, x: Tensor) -> Tensor:
        """Softmax over the last axis, stabilised by max subtraction."""
        if x.data.ndim < 1 or x.shape[-1] < 1:
            raise DimensionError(f"softmax needs a non-empty last axis, got {x.shape}")
        z = x.data - x.data.max(axis=-1, keepdims=True)
        e = np.exp(z)
        y = e / e.sum(axis=-1, keepdims=True)

        def rule(g):
            inner = (g * y).sum(axis=-1, keepdims=True)
            return ((g - inner) * y,)

        return self._emit((x,), y, rule)

    def safe_log(self, x: Tensor, floor: float = 1e-12) -> Tensor:
        """log(max(x, floor)); gradient is 1/x above the floor, 0 at or below."""
        clipped = np.maximum(x.data, floor)
        active = x.data > floor

        def rule(g):
            return (np.where(active, g / clipped, 0.0),)

        return self._emit((x,), np.log(clipped), rule)

    def dropout(self, x: Tensor, rate: float, training: bool, rng=None) -> Tensor:
        """Inverted dropout: zero entries with probability ``rate`` and scale
        survivors by 1/(1-rate) so the expectation is unchanged.  Identity
        when not training or when rate is 0 (no randomness is consumed)."""
        if not 0.0 <= rate < 1.0:
            raise ConfigurationError(f"dropout rate must be in [0, 1), got {rate}")
        if not training or rate == 0.0:
            return x
        if rng is None:
            raise ContractError("dropout in training mode needs a random generator")
        keep = (rng.random(x.shape) >= rate).astype(np.float64)
        factor = 1.0 / (1.0 - rate)

        def rule(g):
            return (g * keep * factor,)

        return self._emit((x,), x.data * keep * factor, rule)

    # ------------------------------------------------------------------
    # reverse sweep

    def backward(self, loss: Tensor) -> None:
        """Accumulate d(loss)/d(tensor) into every requires_grad tensor that
        the recorded graph reaches from ``loss``."""
        if loss.data.size != 1:
            raise ContractError(f"backward needs a scalar loss, got shape {loss.shape}")
        adjoint: dict[int, np.ndarray] = {id(loss): np.ones_like(loss.data)}
        if loss.requires_grad:
            loss.grad += 1.0
        for node in reversed(self.nodes):
            g = adjoint.pop(id(node.output), None)
            if g is None:
                continue  # not on any path to the loss
            pieces = node.backward_rule(g)
            for tensor, piece in zip(node.inputs, pieces):
                if piece is None:
                    continue
                if tensor.requires_grad:
                    tensor.grad += piece
                key = id(tensor)
                if key not in self._produced:
                    continue  # a parameter or a constant: no rule reads it
                if key in adjoint:
                    adjoint[key] += piece
                else:
                    # copy: pieces may be views into another adjoint buffer
                    adjoint[key] = np.array(piece, dtype=np.float64)


def grad_check(f, params: Sequence[Tensor], h: float = 1e-5) -> float:
    """Compare analytic gradients of a scalar function against central
    finite differences.

    ``f`` takes a fresh Tape and returns a scalar Tensor; it must be
    deterministic (dropout disabled) and is the caller's responsibility to
    keep away from sub-gradient kinks such as safe_log's floor.  Returns
    max over all parameter entries of
    |analytic - numeric| / max(1, |numeric|).
    """
    tape = Tape()
    loss = f(tape)
    for p in params:
        p.zero_grad()
    tape.backward(loss)
    analytic = [np.array(p.grad) for p in params]

    worst = 0.0
    for p, grads in zip(params, analytic):
        flat = p.data.reshape(-1)
        gflat = grads.reshape(-1)
        for i in range(flat.size):
            saved = flat[i]
            flat[i] = saved + h
            up = float(f(Tape()).data)
            flat[i] = saved - h
            down = float(f(Tape()).data)
            flat[i] = saved
            numeric = (up - down) / (2.0 * h)
            err = abs(gflat[i] - numeric) / max(1.0, abs(numeric))
            worst = max(worst, err)
    return worst
