"""Dense tensors with reverse-mode automatic differentiation.

A :class:`Tensor` wraps a numpy array (float64 by default, float32
selectable) and records the operations applied to it.  Calling
:meth:`Tensor.backward` on a scalar result accumulates d(result)/d(leaf)
into the ``grad`` slot of every leaf created with ``requires_grad=True``.

Only the operations this project's networks need are implemented; every
public operation validates that its result is finite and raises
:class:`NumericError` otherwise.

Every tensor operand is a Tensor.  A constant operand (a Python scalar or a
numpy array) enters only through ``add`` and ``mul``, and so ``+``, ``-``
and ``*``, which wrap it in the other operand's dtype.
"""

from __future__ import annotations

import contextlib
import math
from contextvars import ContextVar
from typing import Callable, Sequence

import numpy as np

DEFAULT_DTYPE = np.float64

# Grad mode is per thread: a no_grad() block in one thread never changes
# another's, and every thread starts with recording on.
_grad_enabled: ContextVar[bool] = ContextVar("grad_enabled", default=True)


class NumericError(ArithmeticError):
    """An operation produced NaN or Inf."""


@contextlib.contextmanager
def no_grad():
    """Disable graph recording in the calling thread (inference / sampling hot paths)."""
    token = _grad_enabled.set(False)
    try:
        yield
    finally:
        _grad_enabled.reset(token)


def keep_heap_mapped(nbytes: int) -> None:
    """Let a loop reuse the heap pages its short-lived arrays free.

    ``nbytes``, allocated and freed at once: glibc's malloc serves a block
    that large by mmap, and freeing it raises malloc's mmap threshold to
    ``nbytes`` and its trim threshold to twice that (for blocks up to 32 MB;
    a larger one changes nothing).  malloc then serves smaller arrays from
    its heap and gives heap pages back only past 2 * ``nbytes`` free, so the
    loop's short-lived arrays stop faulting fresh pages in on every step.
    Until some large array has been freed, it trims past 128 kB.  A smaller
    call never lowers the thresholds, and under another allocator this is
    one untouched allocation.

    Any large array the process frees raises the thresholds the same way, so
    a caller sizes ``nbytes`` for its own loop rather than rely on what ran
    before it: ``sampling.impute`` passes the bytes of the network's weights
    (at least 2 MB), ``training.train`` 31 MB.
    """
    np.empty(nbytes, dtype=np.uint8)


def _check_finite(arr: np.ndarray, op: str) -> None:
    if not np.isfinite(arr).all():
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


def _walked(g: np.ndarray):
    raise RuntimeError("backward() through a graph that an earlier backward() freed")


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
        self._backward: Callable[[np.ndarray], Sequence[np.ndarray | None]] | None = None
        self._parents: tuple[Tensor, ...] = ()

    @staticmethod
    def _from_op(
        data: np.ndarray,
        parents: Sequence["Tensor"],
        backward: Callable[[np.ndarray], Sequence[np.ndarray | None]],
        op: str,
    ) -> "Tensor":
        _check_finite(data, op)
        out = Tensor.__new__(Tensor)
        out.data = data
        out.grad = None
        if _grad_enabled.get() and any(p.requires_grad for p in parents):
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

    def item(self) -> float:
        return float(self.data)

    # -- autodiff -------------------------------------------------------------

    def _accumulate(self, grad: np.ndarray) -> None:
        if self.grad is None:
            self.grad = np.array(grad, dtype=self.data.dtype, copy=True)
        else:
            self.grad += grad

    def backward(self) -> None:
        """Backpropagate from a scalar; accumulates into leaf ``grad`` slots.

        Each op's backward returns one gradient per parent, ``None`` for a
        parent that needs none.  This walk is the only place that routes
        them: a leaf accumulates its share at once, and the shares of an
        intermediate node are summed in ``grads``, in the order they arrive,
        until the walk reaches it.  All of it is local to one graph, so
        backward passes over different graphs, in any threads, share nothing.

        The walk consumes the graph: once a node's shares are routed, it drops
        its parents and its backward closure, so the arrays that closure saved
        are released as the walk passes and nothing of the graph outlives the
        call.  A later backward() that reaches a walked node raises
        ``RuntimeError``.
        """
        if self.data.size != 1:
            raise ValueError("backward() requires a scalar tensor")
        # Iterative topological sort of the op nodes; training graphs can be deep.
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
                if id(p) not in visited and p._backward is not None:
                    stack.append((p, False))

        grads: dict[int, np.ndarray] = {id(self): np.ones_like(self.data)}
        while topo:
            node = topo.pop()
            g = grads.pop(id(node))
            if node._backward is None:  # a leaf called backward() on itself
                node._accumulate(g)
                continue
            for p, pg in zip(node._parents, node._backward(g), strict=True):
                if pg is None:
                    continue
                if p._backward is None:
                    p._accumulate(pg)
                else:
                    cur = grads.get(id(p))
                    grads[id(p)] = pg if cur is None else cur + pg
            # Not None, which would read as a leaf: a walked node stays an op node.
            node._parents, node._backward = (), _walked

    # -- operators ------------------------------------------------------------

    def __add__(self, other):
        return add(self, other)

    __radd__ = __add__

    def __mul__(self, other):
        return mul(self, other)

    __rmul__ = __mul__

    def __sub__(self, other):
        return add(self, -other)

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

    def abs(self):
        return absolute(self)


def _like(x, ref: Tensor) -> Tensor:
    """``x`` as a Tensor; a constant takes ``ref``'s dtype.

    NumPy promotes a float32 array with a 0-d float64 array to float64, so a
    Python scalar wrapped at the default dtype would turn a float32 network
    into a float64 one.
    """
    return x if isinstance(x, Tensor) else Tensor(x, dtype=ref.data.dtype)


def _operands(a, b) -> tuple[Tensor, Tensor]:
    """Both operands of a binary op as Tensors, constants in the other's dtype."""
    if isinstance(a, Tensor):
        return a, _like(b, a)
    return _like(a, b), b


def parameter(data) -> Tensor:
    """A leaf tensor that accumulates gradients."""
    return Tensor(data, requires_grad=True)


# -- elementwise binary ops ----------------------------------------------------


def add(a, b) -> Tensor:
    a, b = _operands(a, b)
    data = a.data + b.data

    def backward(g, _a=a, _b=b):
        return (_unbroadcast(g, _a.shape) if _a.requires_grad else None,
                _unbroadcast(g, _b.shape) if _b.requires_grad else None)

    return Tensor._from_op(data, (a, b), backward, "add")


def mul(a, b) -> Tensor:
    a, b = _operands(a, b)
    data = a.data * b.data

    def backward(g, _a=a, _b=b):
        return (_unbroadcast(g * _b.data, _a.shape) if _a.requires_grad else None,
                _unbroadcast(g * _a.data, _b.shape) if _b.requires_grad else None)

    return Tensor._from_op(data, (a, b), backward, "mul")


def power(a, exponent: float) -> Tensor:
    with np.errstate(divide="ignore"):
        data = a.data**exponent

    def backward(g, _a=a, _e=exponent):
        return (g * _e * _a.data ** (_e - 1.0),)

    return Tensor._from_op(data, (a,), backward, "power")


def matmul(a, b) -> Tensor:
    data = a.data @ b.data

    def backward(g, _a=a, _b=b):
        ga = _unbroadcast(g @ np.swapaxes(_b.data, -1, -2), _a.shape) if _a.requires_grad else None
        gb = _unbroadcast(np.swapaxes(_a.data, -1, -2) @ g, _b.shape) if _b.requires_grad else None
        return ga, gb

    return Tensor._from_op(data, (a, b), backward, "matmul")


def linear(x, weight, bias) -> Tensor:
    """x @ weight + bias over the last axis of x, as one 2-D GEMM.

    All leading axes of ``x`` are folded into rows, so a (batch, tokens, in)
    input costs a single BLAS call instead of one per batch entry.
    """
    lead = x.shape[:-1]
    x2 = x.data.reshape(-1, weight.shape[0])
    out = x2 @ weight.data
    out += bias.data
    data = out.reshape(*lead, weight.shape[1])

    def backward(g, _x=x, _w=weight, _b=bias, _x2=x2):
        g2 = g.reshape(-1, _w.shape[1])
        return ((g2 @ _w.data.T).reshape(_x.shape) if _x.requires_grad else None,
                _x2.T @ g2 if _w.requires_grad else None,
                g2.sum(axis=0) if _b.requires_grad else None)

    return Tensor._from_op(data, (x, weight, bias), backward, "linear")


def _normalized(x: Tensor, gamma, beta, view, eps: float, op: str, film=None,
                silu: bool = False) -> Tensor:
    """h = xhat * gamma + beta, xhat being ``x`` normalized over the last axis
    of ``x.reshape(view)``; then h * scale1 + shift for ``film=(scale1, shift)``,
    and SiLU if ``silu``.  All operands broadcast against ``x``.

    The forward pass keeps the arithmetic order of the composed chain, so its
    values are the same bits, and one output check stands for the chain's:
    products, sums and SiLU keep a non-finite value non-finite.  The backward
    pass takes SiLU's and FiLM's gradients as the chain did, then the closed
    form r * (g_hat - mean(g_hat) - x_hat * mean(g_hat * x_hat)), g_hat = g * gamma.
    """
    xv = x.data.reshape(view)
    inv_n = 1.0 / float(xv.shape[-1])
    xhat = xv - xv.sum(axis=-1, keepdims=True) * inv_n
    var = (xhat * xhat).sum(axis=-1, keepdims=True) * inv_n
    _check_finite(var, op)  # an overflowed variance would zero the row, not poison it
    r = (var + eps) ** -0.5
    xhat *= r
    h = xhat.reshape(x.shape) * gamma.data
    h += beta.data
    pre = h if film is None else h * film[0].data + film[1].data
    s = _sigmoid(pre) if silu else None
    data = pre * s if silu else pre

    def backward(g, _x=x, _gamma=gamma, _beta=beta, _xhat=xhat, _r=r, _h=h, _pre=pre, _s=s):
        gx = gg = gb = None
        if _s is not None:
            g = _silu_grad(g, _pre, _s)
        shares = ()
        if film is not None:
            scale1, shift = film
            shares = (_unbroadcast(g * _h, scale1.shape) if scale1.requires_grad else None,
                      _unbroadcast(g, shift.shape) if shift.requires_grad else None)
            g = g * scale1.data
        if _x.requires_grad:
            gh = (g * _gamma.data).reshape(view)
            gx = gh - gh.mean(axis=-1, keepdims=True)
            gh *= _xhat
            gx -= _xhat * gh.mean(axis=-1, keepdims=True)
            gx *= _r
            gx = gx.reshape(_x.shape)
        if _gamma.requires_grad:
            gg = _unbroadcast(g * _xhat.reshape(g.shape), _gamma.shape)
        if _beta.requires_grad:
            gb = _unbroadcast(g, _beta.shape)
        return gx, gg, gb, *shares

    return Tensor._from_op(data, (x, gamma, beta, *(film or ())), backward, op)


def layer_norm(x, gamma, beta, eps: float) -> Tensor:
    """Normalize over the last axis, then scale by ``gamma`` and shift by ``beta``."""
    return _normalized(x, gamma, beta, x.shape, eps, "layer_norm")


def group_norm(x, gamma, beta, groups: int, eps: float, film=None, silu: bool = False) -> Tensor:
    """Normalize (batch, channels, length) over channel groups, then scale by
    ``gamma`` and shift by ``beta``, both (channels, 1); ``film`` and ``silu``
    add the U-Net stage's FiLM (per channel, over L) and SiLU to the node."""
    batch, channels, length = x.shape  # explicit sizes: a 0-row batch has no -1 to infer
    return _normalized(x, gamma, beta, (batch, groups, channels // groups * length), eps,
                       "group_norm", film, silu)


def attention(x, wq, bq, wk, bk, wv, bv, wo, bo, heads: int, drop_mask=None) -> Tensor:
    """Multi-head scaled dot-product self-attention over (batch, tokens, dim), as one node.

    Each projection is one 2-D GEMM over all rows, and the score and mixing
    products are batched over (batch, heads).  The scale and the softmax run
    in place in the composed chain's arithmetic order, so the forward values
    are the same bits.  ``drop_mask`` (batch, heads, tokens, tokens), if
    given, multiplies the attention probabilities.  Every buffer a GEMM
    produces is checked; exp(s - max) is at most 1, so the softmax needs no
    check of its own.
    """
    params = (x, wq, bq, wk, bk, wv, bv, wo, bo)
    B, T, d = x.shape
    hd = d // heads
    x2 = x.data.reshape(-1, d)
    keep = _grad_enabled.get() and any(p.requires_grad for p in params)

    def project(w, b):  # x @ w + b as a (batch, heads, tokens, head_dim) view
        h = x2 @ w.data
        h += b.data
        _check_finite(h, "attention")
        return h.reshape(B, T, heads, hd).transpose(0, 2, 1, 3)

    q, k = project(wq, bq), project(wk, bk)
    probs = q @ k.transpose(0, 1, 3, 2)
    _check_finite(probs, "attention")
    if not keep:  # inference holds one projection at a time
        q = k = None
    scale = 1.0 / math.sqrt(hd)
    probs *= scale
    # each row's max, one token column at a time: exact, and cheaper than max(axis=-1)
    top = probs[..., 0].copy()
    for j in range(1, T):
        np.maximum(top, probs[..., j], out=top)
    probs -= top[..., None]
    np.exp(probs, out=probs)
    probs *= probs.sum(axis=-1, keepdims=True) ** -1.0
    # the backward pass needs the probabilities before dropout
    dropped = probs if drop_mask is None else probs * drop_mask
    v = project(wv, bv)
    mixed = dropped @ v
    _check_finite(mixed, "attention")
    if not keep:
        probs = dropped = v = None
    merged = mixed.transpose(0, 2, 1, 3).reshape(-1, d)
    del mixed
    out = merged @ wo.data
    out += bo.data
    data = out.reshape(B, T, d)

    def backward(g, _x2=x2, _q=q, _k=k, _v=v, _p=probs, _pd=dropped, _m=drop_mask, _om=merged):
        g2 = g.reshape(-1, d)
        gmix = (g2 @ wo.data.T).reshape(B, T, heads, hd).transpose(0, 2, 1, 3)
        gv = _pd.transpose(0, 1, 3, 2) @ gmix
        gs = gmix @ _v.transpose(0, 1, 3, 2)  # d(dropped probabilities)
        if _m is not None:
            gs *= _m
        gs -= (gs * _p).sum(axis=-1, keepdims=True)  # softmax backward
        gs *= _p
        gs *= scale
        gq, gk = gs @ _k, gs.transpose(0, 1, 3, 2) @ _q
        gx, shares = None, []
        for gh, w, b in ((gq, wq, bq), (gk, wk, bk), (gv, wv, bv)):
            gh2 = gh.transpose(0, 2, 1, 3).reshape(-1, d)
            shares += [_x2.T @ gh2 if w.requires_grad else None,
                       gh2.sum(axis=0) if b.requires_grad else None]
            if x.requires_grad:
                gx = gh2 @ w.data.T if gx is None else gx + gh2 @ w.data.T
        return (None if gx is None else gx.reshape(x.shape), *shares,
                _om.T @ g2 if wo.requires_grad else None,
                g2.sum(axis=0) if bo.requires_grad else None)

    return Tensor._from_op(data, params, backward, "attention")


def reglu_film(u, scale, shift) -> Tensor:
    """ReGLU then FiLM, in one buffer: value * relu(gate) * (scale + 1) + shift.

    The last axis of ``u`` holds the value half, then the gate half;
    ``scale`` and ``shift`` broadcast against one half.  The arithmetic order
    is the composed chain's, so the forward values are the same bits.
    """
    h = u.shape[-1] // 2
    if scale.shape[-1] != h or shift.shape[-1] != h or u.shape[-1] != 2 * h:
        raise ValueError(f"modulation dim {scale.shape[-1]} does not match features {h}")
    value, gate = u.data[..., :h], u.data[..., h:]
    scale1 = scale.data + 1.0
    data = np.maximum(gate, 0.0)
    data *= value
    data *= scale1
    data += shift.data

    def backward(g, _u=u, _scale=scale, _shift=shift, _s1=scale1):
        value, gate = _u.data[..., :h], _u.data[..., h:]
        rect = np.maximum(gate, 0.0)
        gu = None
        if _u.requires_grad:
            gh = g * _s1  # d(value * relu(gate))
            gu = np.empty_like(_u.data)
            np.multiply(gh, rect, out=gu[..., :h])
            np.multiply(gh, value, out=gu[..., h:])
            gu[..., h:] *= gate > 0.0
        return (gu,
                _unbroadcast(g * (value * rect), _scale.shape) if _scale.requires_grad else None,
                _unbroadcast(g, _shift.shape) if _shift.requires_grad else None)

    return Tensor._from_op(data, (u, scale, shift), backward, "reglu_film")


def linear_film_relu(x, weight, bias, scale1, shift) -> Tensor:
    """relu((x @ weight + bias) * scale1 + shift), the time-modulated MLP block, as one node.

    ``scale1`` and ``shift`` broadcast against the (rows, out) result.  The
    arithmetic order is the composed chain's, so the forward values are the
    same bits; with grad off it all runs in the GEMM's buffer.  One check of
    the pre-ReLU buffer catches what the per-op checks did: a product or sum
    of finite operands keeps a non-finite value non-finite, while relu(-inf)
    would be 0.
    """
    width = weight.shape[1]
    if scale1.shape[-1] != width or shift.shape[-1] != width:
        raise ValueError(f"modulation dim {scale1.shape[-1]} does not match features {width}")
    params = (x, weight, bias, scale1, shift)
    keep = _grad_enabled.get() and any(p.requires_grad for p in params)
    x2 = x.data.reshape(-1, weight.shape[0])
    h = x2 @ weight.data
    h += bias.data
    h = h.reshape(*x.shape[:-1], width)
    pre = np.empty_like(h) if keep else h  # the scale gradient needs h
    np.multiply(h, scale1.data, out=pre)
    pre += shift.data
    _check_finite(pre, "linear_film_relu")
    data = np.maximum(pre, 0.0, out=pre)

    def backward(g, _x2=x2, _h=h, _out=data):
        gp = g * (_out > 0.0)
        gh = gp * scale1.data
        g2 = gh.reshape(-1, width)
        return ((g2 @ weight.data.T).reshape(x.shape) if x.requires_grad else None,
                _x2.T @ g2 if weight.requires_grad else None,
                g2.sum(axis=0) if bias.requires_grad else None,
                _unbroadcast(gp * _h, scale1.shape) if scale1.requires_grad else None,
                _unbroadcast(gp, shift.shape) if shift.requires_grad else None)

    return Tensor._from_op(data, params, backward, "linear_film_relu")


# -- reductions and shape ops ----------------------------------------------------


def tsum(a, axis=None, keepdims: bool = False) -> Tensor:
    data = a.data.sum(axis=axis, keepdims=keepdims)

    def backward(g, _a=a, _axis=axis, _keep=keepdims):
        if _axis is not None and not _keep:
            g = np.expand_dims(g, _axis)
        return (np.broadcast_to(g, _a.shape).copy(),)

    return Tensor._from_op(np.asarray(data), (a,), backward, "sum")


def tmean(a, axis=None, keepdims: bool = False) -> Tensor:
    if axis is None:
        n = a.data.size
    else:
        n = int(np.prod([a.shape[ax] for ax in np.atleast_1d(axis)]))
    return mul(tsum(a, axis=axis, keepdims=keepdims), 1.0 / float(n))


def reshape(a, shape) -> Tensor:
    data = a.data.reshape(shape)

    def backward(g, _a=a):
        return (g.reshape(_a.shape),)

    return Tensor._from_op(data, (a,), backward, "reshape")


def transpose(a, axes) -> Tensor:
    data = a.data.transpose(axes)
    inv = tuple(np.argsort(axes))

    def backward(g, _inv=inv):
        return (g.transpose(_inv),)

    return Tensor._from_op(data, (a,), backward, "transpose")


def take(a, key) -> Tensor:
    data = a.data[key]

    def backward(g, _a=a, _key=key):
        full = np.zeros_like(_a.data)
        np.add.at(full, _key, g)
        return (full,)

    return Tensor._from_op(np.asarray(data), (a,), backward, "take")


def concat(ts: Sequence[Tensor], axis: int = 0) -> Tensor:
    data = np.concatenate([t.data for t in ts], axis=axis)
    offsets = np.cumsum([0] + [t.shape[axis] for t in ts])

    def backward(g, _ts=ts, _axis=axis, _off=offsets):
        slicer: list = [slice(None)] * g.ndim
        shares = []
        for t, lo, hi in zip(_ts, _off[:-1], _off[1:]):
            slicer[_axis] = slice(int(lo), int(hi))
            shares.append(g[tuple(slicer)] if t.requires_grad else None)
        return shares

    return Tensor._from_op(data, ts, backward, "concat")


# -- elementwise nonlinearities ----------------------------------------------------


def relu(a) -> Tensor:
    data = np.maximum(a.data, 0.0)

    def backward(g, _a=a):
        return (g * (_a.data > 0.0),)

    return Tensor._from_op(data, (a,), backward, "relu")


def absolute(a) -> Tensor:
    data = np.abs(a.data)

    def backward(g, _a=a):
        return (g * np.sign(_a.data),)

    return Tensor._from_op(data, (a,), backward, "abs")


def exp(a) -> Tensor:
    data = np.exp(a.data)

    def backward(g, _out=data):
        return (g * _out,)

    return Tensor._from_op(data, (a,), backward, "exp")


def _sigmoid(a: np.ndarray) -> np.ndarray:
    """1 / (1 + e) where a >= 0, else e / (1 + e); e = exp(-|a|) never overflows."""
    e = np.abs(a)
    np.negative(e, out=e)
    np.exp(e, out=e)
    d = 1.0 + e
    s = np.divide(e, d, out=e)
    return np.divide(1.0, d, out=s, where=a >= 0)


def _silu_grad(g: np.ndarray, a: np.ndarray, s: np.ndarray) -> np.ndarray:
    """g * (s + a * s * (1 - s)), SiLU's input gradient, s = sigmoid(a), in one buffer."""
    gs = a * s
    gs *= 1.0 - s
    gs += s
    return np.multiply(gs, g, out=gs)


def silu(a) -> Tensor:
    """x * sigmoid(x)."""
    s = _sigmoid(a.data)
    data = a.data * s

    def backward(g, _a=a, _s=s):
        return (_silu_grad(g, _a.data, _s),)

    return Tensor._from_op(data, (a,), backward, "silu")


_GELU_C = float(np.sqrt(2.0 / np.pi))


def gelu(a) -> Tensor:
    """Gaussian error linear unit (tanh approximation)."""
    x = a.data
    inner = _GELU_C * (x + 0.044715 * x * x * x)
    t = np.tanh(inner)
    data = 0.5 * x * (1.0 + t)

    def backward(g, _a=a, _t=t):
        x = _a.data
        d_inner = _GELU_C * (1.0 + 3.0 * 0.044715 * x * x)
        return (g * (0.5 * (1.0 + _t) + 0.5 * x * (1.0 - _t * _t) * d_inner),)

    return Tensor._from_op(data, (a,), backward, "gelu")


def softmax(a, axis: int = -1) -> Tensor:
    """Numerically stable softmax along ``axis``."""
    shift = np.max(a.data, axis=axis, keepdims=True)  # constant; softmax is shift-invariant
    e = exp(add(a, -shift))
    return mul(e, power(tsum(e, axis=axis, keepdims=True), -1.0))


def where_mask(mask: np.ndarray, a, b) -> Tensor:
    """Blend two tensors with a constant boolean mask (True selects ``a``)."""
    m = np.asarray(mask).astype(a.data.dtype)
    return add(mul(a, m), mul(b, 1.0 - m))


# -- conv1d (stride 1) ----------------------------------------------------


def conv1d(x, weight, bias, padding: int = 1) -> Tensor:
    """1D convolution over (batch, channels, length), stride 1.

    ``weight`` is (out_channels, in_channels, kernel); output length equals
    input length when padding = (kernel - 1) // 2.  The windows are gathered,
    one slice copy per tap, into a (batch * length, channels * kernel) matrix
    that holds zeros only at the padding, so the forward pass and both
    weight-side gradients are each one GEMM.
    """
    B, C, L = x.shape
    O, _, K = weight.shape
    Lout = L + 2 * padding - K + 1
    cols = np.empty((B, Lout, C, K), dtype=x.data.dtype)
    xt = x.data.transpose(0, 2, 1)
    for k in range(K):  # tap k reads x at position l + k - padding
        lo, hi = max(0, padding - k), min(Lout, L + padding - k)
        cols[:, :lo, :, k] = 0.0
        cols[:, hi:, :, k] = 0.0
        cols[:, lo:hi, :, k] = xt[:, lo + k - padding : hi + k - padding]
    cols = cols.reshape(B * Lout, C * K)
    w2 = weight.data.reshape(O, C * K)
    out = cols @ w2.T
    out += bias.data
    # (batch, channels, length) in C order, so a following reshape is a view.
    data = np.ascontiguousarray(out.reshape(B, Lout, O).transpose(0, 2, 1))

    def backward(g, _x=x, _w=weight, _b=bias, _cols=cols):
        g2 = g.transpose(0, 2, 1).reshape(B * Lout, O)
        gx = None
        if _x.requires_grad:
            gcols = (g2 @ _w.data.reshape(O, C * K)).reshape(B, Lout, C, K)
            # taps 0..K-1 add onto zeros through a (batch, length, channels) view
            gxp = np.zeros((B, C, L + 2 * padding), dtype=_x.data.dtype)
            for k in range(K):
                gxp.transpose(0, 2, 1)[:, k : k + Lout] += gcols[:, :, :, k]
            gx = gxp[:, :, padding : padding + L]
        return (gx,
                (g2.T @ _cols).reshape(O, C, K) if _w.requires_grad else None,
                g2.sum(axis=0) if _b.requires_grad else None)

    return Tensor._from_op(data, (x, weight, bias), backward, "conv1d")
