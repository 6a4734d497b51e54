import os
import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from conftest import check_gradients
from tabdiffuse import tensor as T
from tabdiffuse.tensor import NumericError, Tensor, parameter


def test_shape_invariant():
    t = Tensor(np.zeros((2, 3)))
    assert t.shape == (2, 3) and t.size == 6


def test_nonfinite_rejected():
    with pytest.raises(NumericError):
        Tensor([1.0, np.inf])
    with pytest.raises(NumericError):
        Tensor([1.0]) / Tensor([0.0])


def test_float32_selectable():
    t = Tensor([1.0, 2.0], dtype=np.float32)
    assert t.dtype == np.float32
    assert (t + t).dtype == np.float32


def test_linear_backward_matches_input():
    # loss = sum(w * x) -> dloss/dw == x
    x = np.array([1.0, -2.0, 3.0])
    w = parameter(np.array([0.5, 0.5, 0.5]))
    loss = (w * x).sum()
    loss.backward()
    np.testing.assert_allclose(w.grad, x)


def test_matmul_backward():
    a = parameter(np.arange(6, dtype=float).reshape(2, 3) / 7.0)
    b = parameter(np.arange(12, dtype=float).reshape(3, 4) / 11.0)
    check_gradients(lambda: (a @ b).sum(), [a, b])


def test_batched_matmul_backward():
    a = parameter(np.linspace(-1, 1, 24).reshape(2, 3, 4))
    b = parameter(np.linspace(0.1, 0.9, 8).reshape(4, 2))
    check_gradients(lambda: ((a @ b) * (a @ b)).mean(), [a, b])


def test_broadcast_add_mul_backward():
    a = parameter(np.linspace(-1, 1, 6).reshape(2, 3))
    bias = parameter(np.array([0.3, -0.2, 0.1]))
    check_gradients(lambda: ((a + bias) * (a + bias)).sum(), [a, bias])


@pytest.mark.parametrize(
    "opname",
    ["relu", "exp", "log", "sqrt", "tanh", "silu", "gelu", "abs"],
)
def test_elementwise_op_gradients(opname):
    p = parameter(np.array([0.31, 0.77, 1.53, 2.1]))
    op = {
        "relu": T.relu, "exp": T.exp, "log": T.log, "sqrt": T.sqrt,
        "tanh": T.tanh, "silu": T.silu,
        "gelu": T.gelu, "abs": T.absolute,
    }[opname]
    check_gradients(lambda: op(p).sum(), [p])


def test_softmax_rows_sum_to_one_and_grad():
    p = parameter(np.array([[0.2, -1.0, 0.5], [2.0, 0.1, -0.3]]))
    s = T.softmax(p, axis=-1)
    np.testing.assert_allclose(s.data.sum(axis=-1), [1.0, 1.0], atol=1e-12)
    target = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
    check_gradients(lambda: ((T.softmax(p, axis=-1) - target) ** 2.0).sum(), [p])


def test_take_concat_reshape_transpose_gradients():
    p = parameter(np.linspace(-2, 2, 12).reshape(3, 4))

    def loss():
        a = p[1:, :2]
        b = T.concat([a, a], axis=1)
        c = b.reshape(2, 2, 2).transpose((1, 0, 2))
        return (c * c).sum()

    check_gradients(loss, [p])


def test_conv1d_forward_matches_direct():
    rng = np.random.default_rng(0)
    x = rng.normal(size=(2, 3, 5))
    w = rng.normal(size=(4, 3, 3))
    b = rng.normal(size=(4,))
    out = T.conv1d(Tensor(x), Tensor(w), Tensor(b), padding=1)
    xp = np.pad(x, ((0, 0), (0, 0), (1, 1)))
    expect = np.zeros((2, 4, 5))
    for bi in range(2):
        for o in range(4):
            for l in range(5):
                expect[bi, o, l] = (xp[bi, :, l : l + 3] * w[o]).sum() + b[o]
    np.testing.assert_allclose(out.data, expect, atol=1e-12)


def test_conv1d_gradients():
    rng = np.random.default_rng(1)
    x = parameter(rng.normal(size=(2, 2, 6)) * 0.5)
    w = parameter(rng.normal(size=(3, 2, 3)) * 0.5)
    b = parameter(rng.normal(size=(3,)) * 0.5)
    check_gradients(lambda: (T.conv1d(x, w, b) ** 2.0).mean(), [x, w, b])


def test_reused_node_accumulates():
    p = parameter(np.array([2.0]))
    loss = (p * p + p).sum()  # d/dp = 2p + 1 = 5
    loss.backward()
    np.testing.assert_allclose(p.grad, [5.0])


def test_backward_requires_scalar():
    p = parameter(np.ones(3))
    with pytest.raises(ValueError):
        (p * 2.0).backward()


def test_no_grad_suppresses_graph():
    p = parameter(np.ones(3))
    with T.no_grad():
        out = (p * 2.0).sum()
    assert not out.requires_grad


def test_where_mask_selects():
    m = np.array([True, False, True])
    out = T.where_mask(m, Tensor([1.0, 1.0, 1.0]), Tensor([9.0, 9.0, 9.0]))
    np.testing.assert_allclose(out.data, [1.0, 9.0, 1.0])


# -- fused kernels against the composed chains they replaced ---------------------


def _linear_ref(x, w, b):
    return T.matmul(x, w) + b


def _layer_norm_ref(x, gamma, beta, eps):
    mu = x.mean(axis=-1, keepdims=True)
    xc = x - mu
    var = (xc * xc).mean(axis=-1, keepdims=True)
    return xc * ((var + eps) ** -0.5) * gamma + beta


def _conv1d_ref(x, w, b, padding):
    B, C, L = x.shape
    O, _, K = w.shape
    xp = np.pad(x, ((0, 0), (0, 0), (padding, padding)))
    windows = np.lib.stride_tricks.sliding_window_view(xp, K, axis=2)
    cols = windows.transpose(0, 1, 3, 2).reshape(B, C * K, -1)
    return np.einsum("ok,bkl->bol", w.reshape(O, C * K), cols) + b[None, :, None]


def _rel_err(a, b):
    return np.max(np.abs(a - b)) / np.max(np.abs(b))


@pytest.mark.parametrize("shape", [(5, 3), (2, 4, 3)], ids=["2d", "3d"])
def test_linear_kernel_gradients(shape):
    rng = np.random.default_rng(2)
    x = parameter(rng.normal(size=shape))
    w = parameter(rng.normal(size=(3, 4)) * 0.5)
    b = parameter(rng.normal(size=(4,)))
    check_gradients(lambda: (T.linear(x, w, b) ** 2.0).mean(), [x, w, b])


def test_layer_norm_kernel_gradients():
    rng = np.random.default_rng(3)
    x = parameter(rng.normal(1.0, 2.0, size=(2, 3, 5)))
    gamma = parameter(rng.normal(size=(5,)))
    beta = parameter(rng.normal(size=(5,)))
    target = rng.normal(size=(2, 3, 5))
    check_gradients(lambda: ((T.layer_norm(x, gamma, beta, 1e-5) - target) ** 2.0).mean(),
                    [x, gamma, beta])


def test_conv1d_kernel_one_gradients():
    # the U-Net's channel-changing skip path; kernel 3 is test_conv1d_gradients
    rng = np.random.default_rng(4)
    x = parameter(rng.normal(size=(2, 3, 5)) * 0.5)
    w = parameter(rng.normal(size=(4, 3, 1)) * 0.5)
    b = parameter(rng.normal(size=(4,)) * 0.5)
    check_gradients(lambda: (T.conv1d(x, w, b, padding=0) ** 2.0).mean(), [x, w, b])


def test_layer_norm_forward_is_bitwise_the_composed_chain():
    rng = np.random.default_rng(5)
    x = Tensor(rng.normal(3.0, 2.0, size=(16, 11, 24)))
    gamma, beta = Tensor(rng.normal(size=(24,))), Tensor(rng.normal(size=(24,)))
    np.testing.assert_array_equal(T.layer_norm(x, gamma, beta, 1e-5).data,
                                  _layer_norm_ref(x, gamma, beta, 1e-5).data)


def test_linear_forward_matches_matmul_plus_bias():
    rng = np.random.default_rng(6)
    w, b = Tensor(rng.normal(size=(24, 7))), Tensor(rng.normal(size=(7,)))
    x2 = Tensor(rng.normal(size=(32, 24)))
    np.testing.assert_array_equal(T.linear(x2, w, b).data, _linear_ref(x2, w, b).data)
    x3 = Tensor(rng.normal(size=(16, 11, 24)))
    assert _rel_err(T.linear(x3, w, b).data, _linear_ref(x3, w, b).data) <= 1e-12
    head_w, head_b = Tensor(rng.normal(size=(24, 1))), Tensor(rng.normal(size=(1,)))
    assert _rel_err(T.linear(x3, head_w, head_b).data,
                    _linear_ref(x3, head_w, head_b).data) <= 1e-12


@pytest.mark.parametrize("kernel", [1, 3])
def test_conv1d_forward_matches_einsum(kernel):
    rng = np.random.default_rng(7)
    x = rng.normal(size=(8, 6, 10))
    w, b = rng.normal(size=(5, 6, kernel)), rng.normal(size=(5,))
    pad = (kernel - 1) // 2
    out = T.conv1d(Tensor(x), Tensor(w), Tensor(b), padding=pad).data
    assert out.shape == (8, 5, 10)
    assert _rel_err(out, _conv1d_ref(x, w, b, pad)) <= 1e-12


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("op", ["linear", "layer_norm", "conv1d"])
def test_fused_ops_reject_nonfinite_output(op):
    big = 1e308
    call = {
        "linear": lambda: T.linear(np.full((2, 3), big), np.full((3, 2), big), np.zeros(2)),
        "layer_norm": lambda: T.layer_norm(np.array([[big, -big, big]]), np.ones(3),
                                           np.zeros(3), 1e-5),
        "conv1d": lambda: T.conv1d(np.full((1, 2, 4), big), np.full((3, 2, 3), big),
                                   np.zeros(3)),
    }[op]
    with pytest.raises(NumericError, match=op):
        call()


# -- grad mode and the gradient sink are per thread ------------------------------------


def test_grad_mode_and_sink_are_per_thread():
    rng = np.random.default_rng(8)
    x = rng.normal(size=(6, 4))
    w0, b0 = rng.normal(size=(4, 3)), rng.normal(size=(3,))

    def grads():
        w, b = parameter(w0.copy()), parameter(b0.copy())
        h = T.linear(x, w, b)
        for _ in range(8):  # a deep graph keeps the backward pass busy
            h = T.tanh(h) * 1.5
        (h**2.0).sum().backward()
        return w.grad, b.grad

    expect = grads()
    workers = min(2 * (os.cpu_count() or 1), 64) + 2  # more threads than cores
    start = threading.Barrier(workers)

    def worker():
        start.wait(timeout=30)
        out = []
        for _ in range(100):
            with T.no_grad():
                assert not T.linear(x, parameter(w0), parameter(b0)).requires_grad
            out.append(grads())
        return out

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            futures = [pool.submit(worker) for _ in range(workers)]
            results = [f.result(timeout=120) for f in futures]
    finally:
        sys.setswitchinterval(interval)
    for gw, gb in (g for res in results for g in res):
        np.testing.assert_array_equal(gw, expect[0])
        np.testing.assert_array_equal(gb, expect[1])
    assert T._grad_enabled.get()
