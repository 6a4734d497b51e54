import numpy as np
import pytest

from conftest import check_gradients
from tabdiffuse.optim import AdamW, smooth_l1
from tabdiffuse.tensor import Tensor, parameter


# -- smooth_l1 ---------------------------------------------------------------


def test_smooth_l1_quadratic_region():
    pred = Tensor(np.zeros(4))
    target = Tensor(np.full(4, 0.5))
    assert smooth_l1(pred, target, beta=1.0).item() == pytest.approx(0.125)


def test_smooth_l1_linear_region():
    pred = Tensor(np.zeros(4))
    target = Tensor(np.full(4, 2.0))
    assert smooth_l1(pred, target, beta=1.0).item() == pytest.approx(1.5)


def test_smooth_l1_zero():
    x = Tensor(np.linspace(-1, 1, 5))
    assert smooth_l1(x, x, beta=1.0).item() == 0.0


def test_smooth_l1_shape_mismatch():
    with pytest.raises(ValueError):
        smooth_l1(Tensor(np.zeros(3)), Tensor(np.zeros(4)), beta=1.0)
    with pytest.raises(ValueError):
        smooth_l1(Tensor(np.zeros(3)), Tensor(np.zeros(3)), beta=0.0)


def test_smooth_l1_continuous_and_c1_at_beta():
    beta = 1.0
    eps = 1e-7

    def val(d):
        return smooth_l1(Tensor([0.0]), Tensor([d]), beta).item()

    assert val(beta - eps) == pytest.approx(val(beta + eps), abs=1e-6)
    slope_in = (val(beta) - val(beta - eps)) / eps
    slope_out = (val(beta + eps) - val(beta)) / eps
    assert slope_in == pytest.approx(1.0, abs=1e-5)
    assert slope_out == pytest.approx(1.0, abs=1e-5)


def test_smooth_l1_gradient_sign_and_fd():
    w = parameter(np.array([0.5]))
    loss = smooth_l1(w, Tensor([0.0]), beta=1.0)
    loss.backward()
    np.testing.assert_allclose(w.grad, [0.5], atol=1e-12)
    w2 = parameter(np.array([0.5, -1.7, 2.3, 0.01]))
    check_gradients(lambda: smooth_l1(w2, Tensor(np.zeros(4)), beta=1.0), [w2])


# -- AdamW ---------------------------------------------------------------------


def test_adamw_zero_grad_no_motion():
    p = parameter(np.array([1.0, -2.0]))
    opt = AdamW({"w": p}, lr=0.1, weight_decay=0.0)
    p.grad = np.zeros(2)
    before = p.data.copy()
    opt.step()
    np.testing.assert_array_equal(p.data, before)


def test_adamw_single_step_hand_value():
    # g=1, lr=0.1, defaults: bias-corrected m_hat/sqrt(v_hat) == 1 exactly.
    p = parameter(np.array([0.0]))
    opt = AdamW({"w": p}, lr=0.1, weight_decay=0.0)
    p.grad = np.array([1.0])
    opt.step()
    assert p.data[0] == pytest.approx(-0.1, abs=1e-8)
    assert p.grad is None  # zeroed after the step


def test_adamw_descent_direction():
    p = parameter(np.array([0.0]))
    opt = AdamW({"w": p}, lr=0.01, weight_decay=0.0)
    for _ in range(50):
        p.grad = np.array([3.0])
        opt.step()
    assert p.data[0] < -0.2  # moved opposite sign(g)


def test_adamw_decoupled_weight_decay():
    p = parameter(np.array([1.0]))
    opt = AdamW({"w": p}, lr=0.1, weight_decay=0.5)
    p.grad = np.array([0.0])
    opt.step()
    # pure decay: w <- w - lr*wd*w
    assert p.data[0] == pytest.approx(1.0 - 0.1 * 0.5 * 1.0)


def test_adamw_shape_mismatch_rejected():
    p = parameter(np.array([1.0, 2.0]))
    opt = AdamW({"w": p}, lr=0.1)
    p.grad = np.zeros(3)
    with pytest.raises(ValueError):
        opt.step()


def test_adamw_failed_step_changes_nothing():
    # every gradient is checked before any buffer is written
    a, b = parameter(np.array([1.0, 2.0])), parameter(np.array([3.0, 4.0]))
    opt = AdamW({"a": a, "b": b}, lr=0.1)
    a.grad, b.grad = np.ones(2), np.zeros(3)
    with pytest.raises(ValueError, match="gradient shape mismatch for b"):
        opt.step()
    np.testing.assert_array_equal(a.data, [1.0, 2.0])
    assert opt.step_count == 0
    # retried with a good gradient, the step is a first step
    b.grad = np.ones(2)
    opt.step()
    a2, b2 = parameter(np.array([1.0, 2.0])), parameter(np.array([3.0, 4.0]))
    fresh = AdamW({"a": a2, "b": b2}, lr=0.1)
    a2.grad, b2.grad = np.ones(2), np.ones(2)
    fresh.step()
    assert a.data.tobytes() == a2.data.tobytes() and b.data.tobytes() == b2.data.tobytes()


def test_adamw_rejects_a_parameter_that_left_its_buffer_and_mixed_dtypes():
    p = parameter(np.array([1.0, 2.0]))
    opt = AdamW({"w": p})
    p.data = np.array([1.0, 2.0])
    p.grad = np.ones(2)
    with pytest.raises(ValueError, match="no longer views"):
        opt.step()
    with pytest.raises(ValueError, match="one dtype"):
        AdamW({"a": parameter(np.zeros(2)), "b": Tensor(np.zeros(2, np.float32), True)})


class _PerTensorAdamW:
    """The per-tensor AdamW the flat one replaced: moments made on a
    parameter's first gradient, twelve numpy calls per tensor."""

    def __init__(self, params, lr, weight_decay, beta1=0.9, beta2=0.999, eps=1e-8):
        self.params, self.lr, self.wd = params, lr, weight_decay
        self.beta1, self.beta2, self.eps = beta1, beta2, eps
        self.t, self.m, self.v = 0, {}, {}

    def step(self, grads):
        self.t += 1
        bc1, bc2 = 1.0 - self.beta1**self.t, 1.0 - self.beta2**self.t
        for name, p in self.params.items():
            g = grads[name]
            if g is None:
                continue
            m = self.m.setdefault(name, np.zeros_like(p))
            v = self.v.setdefault(name, np.zeros_like(p))
            m *= self.beta1
            m += (1.0 - self.beta1) * g
            v *= self.beta2
            v += (1.0 - self.beta2) * g * g
            m_hat = m / bc1
            v_hat = v / bc2
            p -= self.lr * (m_hat / (np.sqrt(v_hat) + self.eps) + self.wd * p)


@pytest.mark.parametrize("dtype", ["float64", "float32"])
def test_flat_adamw_is_bitwise_the_per_tensor_update(dtype):
    # "t" has no gradient for three steps (a tokenizer under --no-time-embedding):
    # its weight must not move, nor its moments, which its later steps read
    rng = np.random.default_rng(21)
    shapes = {"w": (4, 3), "b": (3,), "t": (2, 5), "gamma": (3, 1)}
    init = {k: rng.normal(size=s).astype(dtype) for k, s in shapes.items()}
    params = {k: parameter(a.copy()) for k, a in init.items()}
    ref = _PerTensorAdamW({k: a.copy() for k, a in init.items()}, lr=0.05, weight_decay=0.01)
    opt = AdamW(params, lr=0.05, weight_decay=0.01)
    for step in range(6):
        grads = {k: rng.normal(size=s).astype(dtype) for k, s in shapes.items()}
        if step < 3:
            grads["t"] = None
        for k, p in params.items():
            p.grad = None if grads[k] is None else grads[k].copy()
        assert opt.step() == (3 if step < 3 else 4)
        ref.step(grads)
        for k, p in params.items():
            assert p.data.dtype == dtype and p.data.shape == shapes[k]
            assert p.data.tobytes() == ref.params[k].tobytes(), (step, k)
        if step < 3:
            assert params["t"].data.tobytes() == init["t"].tobytes()


from hypothesis import given, settings
from hypothesis import strategies as st


@given(seed=st.integers(0, 10_000), beta=st.floats(0.05, 4.0))
@settings(max_examples=40, deadline=None)
def test_smooth_l1_nonnegative_and_sign_symmetric(seed, beta):
    from tabdiffuse.rng import Rng

    d = Rng(seed).normal((8,))
    pos = smooth_l1(Tensor(np.zeros(8)), Tensor(d), beta).item()
    neg = smooth_l1(Tensor(np.zeros(8)), Tensor(-d), beta).item()
    assert pos >= 0.0
    assert pos == pytest.approx(neg, rel=1e-12)
