import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tabdiffuse.schedule import (
    build_cosine_schedule,
    ddim_sigma,
    harmonization_plan,
    skip_seq,
)


def reference_jump_plan(ddim_seq, jump_length, jump_n_sample):
    """Literal transcription of the published retrace-schedule pseudocode."""
    jumps = {}
    for j in range(0, len(ddim_seq) - jump_length, jump_n_sample):
        jumps[ddim_seq[j]] = jump_n_sample - 1
    t = len(ddim_seq)
    ts = []
    while t >= 1:
        t = t - 1
        ts.append(ddim_seq[t])
        if jumps.get(ddim_seq[t], 0) > 0:
            jumps[ddim_seq[t]] = jumps[ddim_seq[t]] - 1
            for _ in range(jump_length):
                t = t + 1
                ts.append(ddim_seq[t])
    ts.append(-1)
    return ts


# -- cosine schedule ---------------------------------------------------------


@pytest.mark.parametrize("T", [100, 500, 1000])
def test_cosine_schedule_invariants(T):
    s = build_cosine_schedule(T)
    assert np.all(s.beta > 0) and np.all(s.beta < 1)
    assert np.all(np.diff(s.alpha_bar) < 0)
    assert s.alpha_bar[0] < 1.0
    assert s.alpha_bar[-1] <= 1e-3


@pytest.mark.parametrize("T", [1, 2, 10, 100, 500, 1000])
def test_alpha_bar_is_product_of_alphas(T):
    s = build_cosine_schedule(T)
    prod = 1.0
    for i in range(T):
        prod *= 1.0 - s.beta[i]
        assert abs(s.alpha_bar[i] - prod) <= 1e-12


def test_cosine_midpoint_closed_form():
    # Closed form holds wherever beta clipping is inactive.
    T, t = 1000, 500
    s = build_cosine_schedule(T)
    f = lambda u: math.cos(((u / T + 0.008) / 1.008) * math.pi / 2) ** 2
    assert s.alpha_bar_at(t) == pytest.approx(f(t) / f(0), rel=1e-10)


def test_schedule_time_bounds():
    s = build_cosine_schedule(10)
    assert s.alpha_bar_at(0) == 1.0
    with pytest.raises(IndexError):
        s.alpha_bar_at(-1)
    with pytest.raises(IndexError):
        s.alpha_bar_at(11)
    with pytest.raises(ValueError):
        build_cosine_schedule(0)


# -- ddim sigma -----------------------------------------------------------------


def test_ddim_sigma_eta_zero():
    s = build_cosine_schedule(100)
    for t in [1, 3, 50, 100]:
        assert ddim_sigma(s, t, t - 1, eta=0.0) == 0.0


def test_ddim_sigma_direct_formula():
    s = build_cosine_schedule(200)
    t, prev_t, eta = 150, 100, 0.7
    abar_t, abar_p = s.alpha_bar_at(t), s.alpha_bar_at(prev_t)
    expect = eta * math.sqrt((1 - abar_p) / (1 - abar_t)) * math.sqrt(1 - abar_t / abar_p)
    assert ddim_sigma(s, t, prev_t, eta) == pytest.approx(expect, rel=1e-12)


def test_ddim_sigma_bounds():
    s = build_cosine_schedule(10)
    with pytest.raises(IndexError):
        ddim_sigma(s, 5, 5, eta=0.5)
    with pytest.raises(IndexError):
        ddim_sigma(s, 11, 3, eta=0.5)
    with pytest.raises(ValueError):
        ddim_sigma(s, 5, 3, eta=-1.0)


# -- skip sequence ----------------------------------------------------------------


def test_skip_seq_identity():
    assert skip_seq(500, 500, "uniform") == list(range(500))


def test_skip_seq_uniform_stride():
    assert skip_seq(500, 10, "uniform") == [0, 50, 100, 150, 200, 250, 300, 350, 400, 450]


def test_skip_seq_quad_hand_traced():
    assert skip_seq(500, 10, "quad") == [0, 4, 19, 44, 79, 123, 177, 241, 316, 400]


def test_skip_seq_unknown_type():
    with pytest.raises(ValueError):
        skip_seq(500, 10, "cubic")
    with pytest.raises(ValueError):
        skip_seq(10, 11, "uniform")


@given(num=st.integers(1, 1000), frac=st.floats(0.01, 1.0))
@settings(max_examples=200, deadline=None)
def test_skip_seq_uniform_ascending_in_range(num, frac):
    steps = max(1, int(num * frac))
    seq = skip_seq(num, steps, "uniform")
    assert all(0 <= v < num for v in seq)
    assert all(b > a for a, b in zip(seq, seq[1:]))


@given(num=st.integers(150, 1000))
@settings(max_examples=100, deadline=None)
def test_skip_seq_quad_ascending_when_sparse(num):
    # int truncation makes dense quad sequences repeat; strictness holds in
    # the sparse regime the fast sampler actually uses (0.8*num > steps^2).
    seq = skip_seq(num, 10, "quad")
    assert all(0 <= v < num for v in seq)
    assert all(b > a for a, b in zip(seq, seq[1:]))


# -- harmonization plan -------------------------------------------------------------


def test_plan_no_jumps_is_plain_reversal():
    seq = [0, 1, 2, 3, 4]
    plan = harmonization_plan(seq, jump_length=5, jump_n_sample=3)
    assert plan.ts == [4, 3, 2, 1, 0, -1]
    plan = harmonization_plan(seq, jump_length=1, jump_n_sample=1)
    assert plan.ts == [4, 3, 2, 1, 0, -1]


def test_plan_hand_traced_case():
    plan = harmonization_plan([0, 1, 2, 3, 4], jump_length=1, jump_n_sample=2)
    assert plan.ts == [4, 3, 2, 3, 2, 1, 0, 1, 0, -1]


def test_plan_length_formula():
    seq = list(range(12))
    jl, jns = 2, 3
    plan = harmonization_plan(seq, jl, jns)
    n_registered = len(range(0, len(seq) - jl, jns))
    assert len(plan.ts) == len(seq) + n_registered * (jns - 1) * 2 * jl + 1


def test_plan_validation():
    with pytest.raises(ValueError):
        harmonization_plan([], 1, 1)
    with pytest.raises(ValueError):
        harmonization_plan([0, 1], 0, 1)


def test_plan_steps_move_one_subset_position():
    seq = skip_seq(500, 25, "uniform")
    plan = harmonization_plan(seq, jump_length=1, jump_n_sample=5)
    pos = {v: i for i, v in enumerate(seq)}
    for a, b in plan.pairs():
        if b == -1:
            assert a == seq[0]
        else:
            assert abs(pos[b] - pos[a]) == 1


@given(
    length=st.integers(1, 40),
    jl=st.integers(1, 6),
    jns=st.integers(1, 6),
    stride=st.integers(1, 7),
)
@settings(max_examples=1000, deadline=None)
def test_plan_matches_reference_interpreter(length, jl, jns, stride):
    seq = list(range(0, length * stride, stride))
    assert harmonization_plan(seq, jl, jns).ts == reference_jump_plan(seq, jl, jns)
