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
