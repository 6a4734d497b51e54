"""Dense tensors with reverse-mode automatic differentiation.

A :class:`Tensor` wraps a numpy array (float64 by default, float32
selectable) and records the operations applied to it.  Calling
:meth:`Tensor.backward` on a scalar result accumulates d(result)/d(leaf)
into the ``grad`` slot of every leaf created with ``requires_grad=True``.

Only the operations this project's networks need are implemented; every
public operation validates that its result is finite and raises
:class:`NumericError` otherwise.
"""

from __future__ import annotations

import contextlib
from typing import Callable, Iterable, Sequence

import numpy as np

DEFAULT_DTYPE = np.float64

_grad_enabled = True

# Gradient sink of the backward pass currently in flight; maps id(tensor) of
# intermediate nodes to their accumulated upstream gradient.
_active_sink: dict[int, np.ndarray] | None = None


class NumericError(ArithmeticError):
    """An operation produced NaN or Inf."""


@contextlib.contextmanager
def no_grad():
    """Disable graph recording (inference / sampling hot paths)."""
    global _grad_enabled
    prev = _grad_enabled
    _grad_enabled = False
    try:
        yield
    finally:
        _grad_enabled = prev


def _check_finite(arr: np.ndarray, op: str) -> None:
    if not np.all(np.isfinite(arr)):
        raise NumericError(f"non-finite values produced by '{op}'")


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum a gradient back down to ``shape`` after numpy broadcasting."""
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad


def _route(t: "Tensor", grad: np.ndarray) -> None:
    """Hand a parent its upstream gradient during a backward pass."""
    if t._backward is not None and _active_sink is not None:
        cur = _active_sink.get(id(t))
        _active_sink[id(t)] = grad if cur is None else cur + grad
    else:
        t._accumulate(grad)


class Tensor:
    """N-dimensional array with optional gradient tracking."""

    __slots__ = ("data", "grad", "requires_grad", "_backward", "_parents")

    def __init__(self, data, requires_grad: bool = False, dtype=None):
        arr = np.asarray(data, dtype=dtype)
        if arr.dtype not in (np.float32, np.float64):
            arr = arr.astype(DEFAULT_DTYPE)
        _check_finite(arr, "tensor")
        self.data: np.ndarray = arr
        self.grad: np.ndarray | None = None
        self.requires_grad = bool(requires_grad)
        self._backward: Callable[[np.ndarray], None] | None = None
        self._parents: tuple[Tensor, ...] = ()

    @staticmethod
    def _from_op(
        data: np.ndarray,
        parents: Sequence["Tensor"],
        backward: Callable[[np.ndarray], None],
        op: str,
    ) -> "Tensor":
        _check_finite(data, op)
        out = Tensor.__new__(Tensor)
        out.data = data
        out.grad = None
        if _grad_enabled and any(p.requires_grad for p in parents):
            out.requires_grad = True
            out._parents = tuple(parents)
            out._backward = backward
        else:
            out.requires_grad = False
            out._parents = ()
            out._backward = None
        return out

    # -- introspection ------------------------------------------------------

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def dtype(self):
        return self.data.dtype

    def item(self) -> float:
        return float(self.data)

    def detach(self) -> "Tensor":
        return Tensor(self.data)

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"

    # -- autodiff -------------------------------------------------------------

    def _accumulate(self, grad: np.ndarray) -> None:
        if self.grad is None:
            self.grad = np.array(grad, dtype=self.data.dtype, copy=True)
        else:
            self.grad += grad

    def backward(self) -> None:
        """Backpropagate from a scalar; accumulates into leaf ``grad`` slots."""
        global _active_sink
        if self.data.size != 1:
            raise ValueError("backward() requires a scalar tensor")
        # Iterative topological sort; training graphs can be deep.
        topo: list[Tensor] = []
        visited: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                topo.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                if id(p) not in visited and p.requires_grad:
                    stack.append((p, False))

        grads: dict[int, np.ndarray] = {id(self): np.ones_like(self.data)}
        _active_sink = grads
        try:
            for node in reversed(topo):
                g = grads.pop(id(node), None)
                if g is None:
                    continue
                if node._backward is None:
                    node._accumulate(g)
                else:
                    node._backward(g)
        finally:
            _active_sink = None

    # -- operators ------------------------------------------------------------

    def __add__(self, other):
        return add(self, other)

    __radd__ = __add__

    def __mul__(self, other):
        return mul(self, other)

    __rmul__ = __mul__

    def __sub__(self, other):
        return add(self, mul(other, -1.0))

    def __rsub__(self, other):
        return add(mul(self, -1.0), other)

    def __truediv__(self, other):
        return mul(self, power(as_tensor(other), -1.0))

    def __rtruediv__(self, other):
        return mul(as_tensor(other), power(self, -1.0))

    def __neg__(self):
        return mul(self, -1.0)

    def __pow__(self, exponent: float):
        return power(self, exponent)

    def __matmul__(self, other):
        return matmul(self, other)

    def __getitem__(self, key):
        return take(self, key)

    def sum(self, axis=None, keepdims=False):
        return tsum(self, axis=axis, keepdims=keepdims)

    def mean(self, axis=None, keepdims=False):
        return tmean(self, axis=axis, keepdims=keepdims)

    def reshape(self, *shape):
        return reshape(self, shape if len(shape) > 1 else shape[0])

    def transpose(self, axes):
        return transpose(self, axes)

    def exp(self):
        return exp(self)

    def log(self):
        return log(self)

    def sqrt(self):
        return sqrt(self)

    def abs(self):
        return absolute(self)

    def relu(self):
        return relu(self)

    def tanh(self):
        return tanh(self)


def as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def parameter(data, dtype=None) -> Tensor:
    """A leaf tensor that accumulates gradients."""
    return Tensor(data, requires_grad=True, dtype=dtype)


# -- elementwise binary ops ----------------------------------------------------


def add(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    data = a.data + b.data

    def backward(g, _a=a, _b=b):
        if _a.requires_grad:
            _route(_a, _unbroadcast(g, _a.shape))
        if _b.requires_grad:
            _route(_b, _unbroadcast(g, _b.shape))

    return Tensor._from_op(data, (a, b), backward, "add")


def mul(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    data = a.data * b.data

    def backward(g, _a=a, _b=b):
        if _a.requires_grad:
            _route(_a, _unbroadcast(g * _b.data, _a.shape))
        if _b.requires_grad:
            _route(_b, _unbroadcast(g * _a.data, _b.shape))

    return Tensor._from_op(data, (a, b), backward, "mul")


def power(a, exponent: float) -> Tensor:
    a = as_tensor(a)
    with np.errstate(divide="ignore"):
        data = a.data**exponent

    def backward(g, _a=a, _e=exponent):
        if _a.requires_grad:
            _route(_a, g * _e * _a.data ** (_e - 1.0))

    return Tensor._from_op(data, (a,), backward, "power")


def matmul(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    data = a.data @ b.data

    def backward(g, _a=a, _b=b):
        if _a.requires_grad:
            ga = g @ np.swapaxes(_b.data, -1, -2)
            _route(_a, _unbroadcast(ga, _a.shape))
        if _b.requires_grad:
            gb = np.swapaxes(_a.data, -1, -2) @ g
            _route(_b, _unbroadcast(gb, _b.shape))

    return Tensor._from_op(data, (a, b), backward, "matmul")


# -- reductions and shape ops ----------------------------------------------------


def tsum(a, axis=None, keepdims: bool = False) -> Tensor:
    a = as_tensor(a)
    data = a.data.sum(axis=axis, keepdims=keepdims)

    def backward(g, _a=a, _axis=axis, _keep=keepdims):
        if not _a.requires_grad:
            return
        if _axis is not None and not _keep:
            g = np.expand_dims(g, _axis)
        _route(_a, np.broadcast_to(g, _a.shape).copy())

    return Tensor._from_op(np.asarray(data), (a,), backward, "sum")


def tmean(a, axis=None, keepdims: bool = False) -> Tensor:
    a = as_tensor(a)
    if axis is None:
        n = a.data.size
    else:
        n = int(np.prod([a.shape[ax] for ax in np.atleast_1d(axis)]))
    return mul(tsum(a, axis=axis, keepdims=keepdims), 1.0 / float(n))


def reshape(a, shape) -> Tensor:
    a = as_tensor(a)
    data = a.data.reshape(shape)

    def backward(g, _a=a):
        if _a.requires_grad:
            _route(_a, g.reshape(_a.shape))

    return Tensor._from_op(data, (a,), backward, "reshape")


def transpose(a, axes) -> Tensor:
    a = as_tensor(a)
    data = a.data.transpose(axes)
    inv = tuple(np.argsort(axes))

    def backward(g, _a=a, _inv=inv):
        if _a.requires_grad:
            _route(_a, g.transpose(_inv))

    return Tensor._from_op(data, (a,), backward, "transpose")


def take(a, key) -> Tensor:
    a = as_tensor(a)
    data = a.data[key]

    def backward(g, _a=a, _key=key):
        if _a.requires_grad:
            full = np.zeros_like(_a.data)
            np.add.at(full, _key, g)
            _route(_a, full)

    return Tensor._from_op(np.asarray(data), (a,), backward, "take")


def concat(tensors: Iterable[Tensor], axis: int = 0) -> Tensor:
    ts = [as_tensor(t) for t in tensors]
    data = np.concatenate([t.data for t in ts], axis=axis)
    offsets = np.cumsum([0] + [t.shape[axis] for t in ts])

    def backward(g, _ts=ts, _axis=axis, _off=offsets):
        slicer: list = [slice(None)] * g.ndim
        for t, lo, hi in zip(_ts, _off[:-1], _off[1:]):
            if t.requires_grad:
                slicer[_axis] = slice(int(lo), int(hi))
                _route(t, g[tuple(slicer)])

    return Tensor._from_op(data, ts, backward, "concat")


# -- elementwise nonlinearities ----------------------------------------------------


def relu(a) -> Tensor:
    a = as_tensor(a)
    data = np.maximum(a.data, 0.0)

    def backward(g, _a=a):
        if _a.requires_grad:
            _route(_a, g * (_a.data > 0.0))

    return Tensor._from_op(data, (a,), backward, "relu")


def absolute(a) -> Tensor:
    a = as_tensor(a)
    data = np.abs(a.data)

    def backward(g, _a=a):
        if _a.requires_grad:
            _route(_a, g * np.sign(_a.data))

    return Tensor._from_op(data, (a,), backward, "abs")


def exp(a) -> Tensor:
    a = as_tensor(a)
    data = np.exp(a.data)

    def backward(g, _a=a, _out=data):
        if _a.requires_grad:
            _route(_a, g * _out)

    return Tensor._from_op(data, (a,), backward, "exp")


def log(a) -> Tensor:
    a = as_tensor(a)
    with np.errstate(divide="ignore", invalid="ignore"):
        data = np.log(a.data)

    def backward(g, _a=a):
        if _a.requires_grad:
            _route(_a, g / _a.data)

    return Tensor._from_op(data, (a,), backward, "log")


def sqrt(a) -> Tensor:
    a = as_tensor(a)
    data = np.sqrt(a.data)

    def backward(g, _a=a, _out=data):
        if _a.requires_grad:
            _route(_a, g * 0.5 / _out)

    return Tensor._from_op(data, (a,), backward, "sqrt")


def tanh(a) -> Tensor:
    a = as_tensor(a)
    data = np.tanh(a.data)

    def backward(g, _a=a, _out=data):
        if _a.requires_grad:
            _route(_a, g * (1.0 - _out * _out))

    return Tensor._from_op(data, (a,), backward, "tanh")


def silu(a) -> Tensor:
    """x * sigmoid(x)."""
    a = as_tensor(a)
    # exp(-|x|) never overflows, so both branches are safe to evaluate.
    e = np.exp(-np.abs(a.data))
    s = np.where(a.data >= 0, 1.0 / (1.0 + e), e / (1.0 + e))
    data = a.data * s

    def backward(g, _a=a, _s=s):
        if _a.requires_grad:
            _route(_a, g * (_s + _a.data * _s * (1.0 - _s)))

    return Tensor._from_op(data, (a,), backward, "silu")


_GELU_C = float(np.sqrt(2.0 / np.pi))


def gelu(a) -> Tensor:
    """Gaussian error linear unit (tanh approximation)."""
    a = as_tensor(a)
    x = a.data
    inner = _GELU_C * (x + 0.044715 * x * x * x)
    t = np.tanh(inner)
    data = 0.5 * x * (1.0 + t)

    def backward(g, _a=a, _t=t):
        x = _a.data
        if _a.requires_grad:
            d_inner = _GELU_C * (1.0 + 3.0 * 0.044715 * x * x)
            _route(_a, g * (0.5 * (1.0 + _t) + 0.5 * x * (1.0 - _t * _t) * d_inner))

    return Tensor._from_op(data, (a,), backward, "gelu")


def softmax(a, axis: int = -1) -> Tensor:
    """Numerically stable softmax along ``axis``."""
    a = as_tensor(a)
    shift = np.max(a.data, axis=axis, keepdims=True)  # constant; softmax is shift-invariant
    e = exp(add(a, -shift))
    return mul(e, power(tsum(e, axis=axis, keepdims=True), -1.0))


def where_mask(mask: np.ndarray, a, b) -> Tensor:
    """Blend two tensors with a constant boolean mask (True selects ``a``)."""
    a = as_tensor(a)
    m = np.asarray(mask).astype(a.data.dtype)
    return add(mul(a, m), mul(as_tensor(b), 1.0 - m))


# -- conv1d (stride 1) ----------------------------------------------------


def conv1d(x, weight, bias, padding: int = 1) -> Tensor:
    """1D convolution over (batch, channels, length), stride 1.

    ``weight`` is (out_channels, in_channels, kernel); output length equals
    input length when padding = (kernel - 1) // 2.
    """
    x, weight, bias = as_tensor(x), as_tensor(weight), as_tensor(bias)
    B, C, L = x.shape
    O, _, K = weight.shape
    xp = np.pad(x.data, ((0, 0), (0, 0), (padding, padding)))
    Lout = L + 2 * padding - K + 1
    windows = np.lib.stride_tricks.sliding_window_view(xp, K, axis=2)  # (B, C, Lout, K)
    cols = windows.transpose(0, 1, 3, 2).reshape(B, C * K, Lout)
    data = np.einsum("ok,bkl->bol", weight.data.reshape(O, C * K), cols)
    data = data + bias.data[None, :, None]

    def backward(g, _x=x, _w=weight, _b=bias, _cols=cols):
        if _b.requires_grad:
            _route(_b, g.sum(axis=(0, 2)))
        if _w.requires_grad:
            gw = np.einsum("bol,bkl->ok", g, _cols).reshape(O, C, K)
            _route(_w, gw)
        if _x.requires_grad:
            gcols = np.einsum("ok,bol->bkl", _w.data.reshape(O, C * K), g)
            gcols = gcols.reshape(B, C, K, Lout)
            gxp = np.zeros((B, C, L + 2 * padding), dtype=_x.data.dtype)
            for k in range(K):
                gxp[:, :, k : k + Lout] += gcols[:, :, k, :]
            _route(_x, gxp[:, :, padding : padding + L])

    return Tensor._from_op(data, (x, weight, bias), backward, "conv1d")
