import numpy as np
import pytest

from tabdiffuse.rng import Rng, derive_seed


def test_same_seed_same_stream():
    a = Rng(123).normal((4,))
    b = Rng(123).normal((4,))
    np.testing.assert_array_equal(a, b)


def test_two_calls_differ_and_reseed_reproduces_both():
    rng = Rng(7)
    first = rng.normal((4,))
    second = rng.normal((4,))
    assert not np.array_equal(first, second)
    rng2 = Rng(7)
    np.testing.assert_array_equal(rng2.normal((4,)), first)
    np.testing.assert_array_equal(rng2.normal((4,)), second)


def test_normal_moments():
    z = Rng(0).normal((100_000,))
    assert abs(z.mean()) < 0.02
    assert abs(z.var() - 1.0) < 0.05


def test_shape_arithmetic():
    assert Rng(1).normal((2, 3)).shape == (2, 3)
    assert Rng(1).normal((2, 3)).size == 6


def test_uniform_open_closed():
    u = Rng(3).uniform((10_000,))
    assert np.all(u > 0.0) and np.all(u <= 1.0)


def test_integers_range():
    t = Rng(5).integers(1, 11, (1000,))
    assert t.min() >= 1 and t.max() <= 10
    assert len(np.unique(t)) == 10


def test_derive_seed_path_sensitivity():
    assert derive_seed(1, 2, 3) != derive_seed(1, 3, 2)
    assert derive_seed(1) != derive_seed(2)


@pytest.mark.parametrize("n", [1, 2, 3, 17])
def test_normal_odd_sizes(n):
    assert Rng(9).normal((n,)).shape == (n,)


def _two_call_box_muller(gen, shape):
    """The normal stream as Rng drew it with one uniform call per Box-Muller half."""
    n = int(np.prod(shape)) if shape else 1
    m = (n + 1) // 2
    u1 = 1.0 - gen.random(size=(m,))
    u2 = 1.0 - gen.random(size=(m,))
    r = np.sqrt(-2.0 * np.log(u1))
    z = np.empty(2 * m)
    z[0::2] = r * np.cos(2.0 * np.pi * u2)
    z[1::2] = r * np.sin(2.0 * np.pi * u2)
    return z[:n].reshape(shape) if shape else float(z[0])


@pytest.mark.parametrize("shape", [(), (1,), (7,), (400, 4), (3, 5, 2)])
def test_normal_is_the_two_call_box_muller_stream(shape):
    for seed in [*range(50), derive_seed(1, 2), (1 << 64) - 1]:
        rng, gen = Rng(seed), np.random.Generator(np.random.Philox(key=seed))
        for _ in range(2):  # the second draw starts where the first left the stream
            ours, ref = rng.normal(shape), _two_call_box_muller(gen, shape)
            assert type(ours) is type(ref)
            assert np.asarray(ours).tobytes() == np.asarray(ref).tobytes()


@pytest.mark.parametrize("shape", [(1,), (7,), (16,), (400, 4), (13, 3), (0, 4)])
@pytest.mark.parametrize("count", [1, 5, 8])
def test_stacked_draws_are_the_box_muller_stream(shape, count):
    """The sampler's noise thread draws several calls' normals in one pass;
    they must be the bits of the calls one by one, and leave the stream where
    the calls would."""
    for seed in range(20):
        rng, gen = Rng(seed), np.random.Generator(np.random.Philox(key=seed))
        got = rng.draw_normals(count, shape)
        assert got.shape == (count, *shape)
        expected = [_two_call_box_muller(gen, shape) for _ in range(count)]
        assert [z.tobytes() for z in got] == [z.tobytes() for z in expected]
        assert rng.uniform((3,)).tobytes() == (1.0 - gen.random(size=(3,))).tobytes()
