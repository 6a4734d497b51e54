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
