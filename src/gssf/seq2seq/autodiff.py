"""Minimal reverse-mode automatic differentiation over float64 numpy arrays.

A ``Tensor`` wraps an ndarray and records, while gradients are enabled, the
operation that produced it. ``backward()`` on a scalar output walks the tape
in reverse topological order and accumulates gradients into every leaf.
Only the operations the recognizer needs are provided; all arithmetic is
double precision and fully deterministic.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager

import numpy as np

_state = threading.local()


def grad_enabled() -> bool:
    return getattr(_state, "enabled", True)


@contextmanager
def no_grad():
    """Disable tape recording in the current thread (inference paths)."""
    prev = grad_enabled()
    _state.enabled = False
    try:
        yield
    finally:
        _state.enabled = prev


def _unbroadcast(g: np.ndarray, shape: tuple) -> np.ndarray:
    """Reduce gradient ``g`` back to ``shape`` after numpy broadcasting."""
    if g.shape == shape:
        return g
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g.reshape(shape)


def _index_has_arrays(idx) -> bool:
    if isinstance(idx, tuple):
        return any(_index_has_arrays(i) for i in idx)
    return isinstance(idx, (np.ndarray, list))


class Tensor:
    __slots__ = ("data", "grad", "_parents", "_backward")

    # Make `ndarray <op> Tensor` defer to the reflected Tensor operators
    # instead of numpy broadcasting the Tensor as a zero-dim object.
    __array_ufunc__ = None

    def __init__(self, data, parents=(), backward=None):
        if isinstance(data, np.ndarray) and data.dtype == np.float64:
            self.data = data
        else:
            self.data = np.asarray(data, dtype=np.float64)
        self.grad: np.ndarray | None = None
        self._parents = parents if grad_enabled() else ()
        self._backward = backward if grad_enabled() else None

    @property
    def shape(self):
        return self.data.shape

    def _accum(self, g: np.ndarray) -> None:
        # Gradients are never mutated in place, so aliasing is safe here.
        self.grad = g if self.grad is None else self.grad + g

    # -- arithmetic -------------------------------------------------------

    def __add__(self, other):
        other = as_tensor(other)
        out_data = self.data + other.data

        def backward(g):
            self._accum(_unbroadcast(g, self.data.shape))
            other._accum(_unbroadcast(g, other.data.shape))

        return Tensor(out_data, (self, other), backward)

    __radd__ = __add__

    def __sub__(self, other):
        other = as_tensor(other)
        out_data = self.data - other.data

        def backward(g):
            self._accum(_unbroadcast(g, self.data.shape))
            other._accum(_unbroadcast(-g, other.data.shape))

        return Tensor(out_data, (self, other), backward)

    def __rsub__(self, other):
        return as_tensor(other).__sub__(self)

    def __neg__(self):
        def backward(g):
            self._accum(-g)

        return Tensor(-self.data, (self,), backward)

    def __mul__(self, other):
        other = as_tensor(other)
        out_data = self.data * other.data

        def backward(g):
            self._accum(_unbroadcast(g * other.data, self.data.shape))
            other._accum(_unbroadcast(g * self.data, other.data.shape))

        return Tensor(out_data, (self, other), backward)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = as_tensor(other)
        out_data = self.data / other.data

        def backward(g):
            self._accum(_unbroadcast(g / other.data, self.data.shape))
            other._accum(_unbroadcast(-g * out_data / other.data, other.data.shape))

        return Tensor(out_data, (self, other), backward)

    def __matmul__(self, other):
        """Matrix product; both operands must be at least 2-D."""
        other = as_tensor(other)
        a, b = self.data, other.data
        out_data = a @ b

        def backward(g):
            self._accum(_unbroadcast(g @ np.swapaxes(b, -1, -2), a.shape))
            other._accum(_unbroadcast(np.swapaxes(a, -1, -2) @ g, b.shape))

        return Tensor(out_data, (self, other), backward)

    def __rmatmul__(self, other):
        return as_tensor(other).__matmul__(self)

    def __rtruediv__(self, other):
        return as_tensor(other).__truediv__(self)

    def __getitem__(self, idx):
        out_data = self.data[idx]
        fancy = _index_has_arrays(idx)

        def backward(g):
            buf = np.zeros_like(self.data)
            if fancy:
                np.add.at(buf, idx, g)
            else:
                buf[idx] = g
            self._accum(buf)

        return Tensor(out_data, (self,), backward)

    # -- elementwise ------------------------------------------------------

    def exp(self):
        out_data = np.exp(self.data)

        def backward(g):
            self._accum(g * out_data)

        return Tensor(out_data, (self,), backward)

    def log(self):
        def backward(g):
            self._accum(g / self.data)

        return Tensor(np.log(self.data), (self,), backward)

    def tanh(self):
        out_data = np.tanh(self.data)

        def backward(g):
            self._accum(g * (1.0 - out_data * out_data))

        return Tensor(out_data, (self,), backward)

    # -- shape ------------------------------------------------------------

    def reshape(self, *shape):
        src_shape = self.data.shape

        def backward(g):
            self._accum(g.reshape(src_shape))

        return Tensor(self.data.reshape(*shape), (self,), backward)

    def sum(self, axis=None, keepdims=False):
        out_data = self.data.sum(axis=axis, keepdims=keepdims)
        src_shape = self.data.shape

        def backward(g):
            if axis is not None and not keepdims:
                axes = (axis,) if isinstance(axis, int) else axis
                g = np.expand_dims(g, tuple(a % len(src_shape) for a in axes))
            self._accum(np.broadcast_to(g, src_shape))

        return Tensor(out_data, (self,), backward)

    # -- graph ------------------------------------------------------------

    def backward(self, seed: np.ndarray | None = None) -> None:
        """Accumulate gradients of this (scalar) tensor w.r.t. every leaf."""
        if seed is None:
            if self.data.size != 1:
                raise ValueError("backward() without seed requires a scalar")
            seed = np.ones_like(self.data)
        order: list[Tensor] = []
        seen: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                order.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                if id(p) not in seen:
                    stack.append((p, False))
        self.grad = seed
        for node in reversed(order):
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)


def as_tensor(value) -> Tensor:
    return value if isinstance(value, Tensor) else Tensor(value)


def concat(tensors: list[Tensor], axis: int) -> Tensor:
    tensors = [as_tensor(t) for t in tensors]
    out_data = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.data.shape[axis] for t in tensors]
    splits = np.cumsum(sizes)[:-1]

    def backward(g):
        for t, piece in zip(tensors, np.split(g, splits, axis=axis)):
            t._accum(piece)

    return Tensor(out_data, tuple(tensors), backward)


def log_softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Numerically stable log softmax; exact -log(n) on all-zero inputs."""
    shift = x - x.data.max(axis=axis, keepdims=True)
    return shift - shift.exp().sum(axis=axis, keepdims=True).log()
