import numpy as np
import pytest

from tabdiffuse.bench import (
    EvalRow,
    MaskSpec,
    average_inferences,
    average_ranks,
    downstream_eval,
    draw_masks,
    ensemble_eval,
    rank_table,
    summarize,
)
from tabdiffuse.metrics import accuracy, mse_missing, pearson_missing, rmse
from tabdiffuse.rng import Rng, derive_seed


# -- imputation metrics ---------------------------------------------------------


def test_mse_perfect_is_zero():
    x = np.arange(6, dtype=float).reshape(2, 3)
    m = np.array([[True, False, True], [False, True, True]])
    assert mse_missing(x, x.copy(), m) == 0.0


def test_mse_hand_case():
    x = np.zeros((1, 2))
    xh = np.array([[1.0, 0.0]])
    m = np.zeros((1, 2), dtype=bool)
    assert mse_missing(x, xh, m) == pytest.approx(0.5)


def test_mse_ignores_known_entries():
    x = np.zeros((2, 2))
    xh = np.array([[100.0, 1.0], [100.0, 1.0]])
    m = np.array([[True, False], [True, False]])
    assert mse_missing(x, xh, m) == pytest.approx(1.0)


def test_mse_random_oracle():
    rng = np.random.default_rng(0)
    x, xh = rng.normal(size=(5, 4)), rng.normal(size=(5, 4))
    m = rng.random((5, 4)) > 0.5
    expect = np.mean((x[~m] - xh[~m]) ** 2)
    assert mse_missing(x, xh, m) == pytest.approx(expect, rel=1e-12)


def test_mse_requires_missing():
    with pytest.raises(ValueError):
        mse_missing(np.ones((2, 2)), np.ones((2, 2)), np.ones((2, 2), dtype=bool))


def test_pearson_perfect_and_inverted():
    x = np.arange(8, dtype=float).reshape(2, 4)
    m = np.zeros((2, 4), dtype=bool)
    assert pearson_missing(x, x.copy(), m) == pytest.approx(1.0)
    inverted = x.mean() - (x - x.mean())
    assert pearson_missing(x, inverted, m) == pytest.approx(-1.0)


def test_pearson_random_oracle():
    rng = np.random.default_rng(1)
    x, xh = rng.normal(size=(4, 5)), rng.normal(size=(4, 5))
    m = rng.random((4, 5)) > 0.6
    a, b = x[~m], xh[~m]
    expect = np.corrcoef(a, b)[0, 1]
    assert pearson_missing(x, xh, m) == pytest.approx(expect, rel=1e-10)


def test_pearson_zero_variance_is_error():
    x = np.array([[1.0, 2.0, 3.0]])
    xh = np.array([[5.0, 5.0, 5.0]])
    m = np.zeros((1, 3), dtype=bool)
    with pytest.raises(ValueError, match="zero variance"):
        pearson_missing(x, xh, m)


def test_rmse_and_accuracy_fixtures():
    y = np.array([1.0, 2.0, 3.0, 4.0])
    assert rmse(y, y) == 0.0
    assert accuracy(y, y) == 1.0
    half = np.array([1.0, 2.0, 9.0, 9.0])
    assert accuracy(y, half) == pytest.approx(0.5)
    assert rmse(np.zeros(4), np.full(4, 2.0)) == pytest.approx(2.0)
    rng = np.random.default_rng(2)
    a, b = rng.normal(size=10), rng.normal(size=10)
    assert rmse(a, b) == pytest.approx(np.sqrt(np.mean((a - b) ** 2)), rel=1e-12)
    with pytest.raises(ValueError):
        rmse(np.ones(3), np.ones(4))
    with pytest.raises(ValueError):
        accuracy(np.array([]), np.array([]))


# -- ranks -------------------------------------------------------------------------


def test_average_ranks_with_ties():
    np.testing.assert_allclose(average_ranks(np.array([0.3, 0.1, 0.3])), [2.5, 1.0, 2.5])
    np.testing.assert_allclose(average_ranks(np.array([5.0, 1.0, 3.0])), [3.0, 1.0, 2.0])


def test_rank_table_dominant_method():
    summary = {
        "s1": {"a": 0.1, "b": 0.5, "c": 0.9},
        "s2": {"a": 0.2, "b": 0.9, "c": 0.5},
    }
    table = dict((m, (mean, std)) for m, mean, std in rank_table(summary))
    assert table["a"] == (1.0, 0.0)


def test_rank_table_swapped_pair():
    summary = {
        "s1": {"a": 0.1, "b": 0.2},
        "s2": {"a": 0.2, "b": 0.1},
    }
    table = dict((m, mean) for m, mean, _ in rank_table(summary))
    assert table["a"] == table["b"] == 1.5


def test_rank_table_tie_fixture():
    summary = {"s1": {"a": 0.5, "b": 0.5, "c": 1.0}}
    table = dict((m, mean) for m, mean, _ in rank_table(summary))
    assert table["a"] == table["b"] == 1.5 and table["c"] == 3.0


def test_rank_table_invariant_to_input_order():
    s1 = {"s1": {"a": 0.1, "b": 0.2}, "s2": {"a": 0.3, "b": 0.2}}
    s2 = {"s2": {"b": 0.2, "a": 0.3}, "s1": {"b": 0.2, "a": 0.1}}
    assert rank_table(s1) == rank_table(s2)


def test_rank_table_rejects_inconsistent_methods():
    with pytest.raises(ValueError):
        rank_table({"s1": {"a": 1.0}, "s2": {"b": 1.0}})


# -- ensemble protocol -----------------------------------------------------------


def test_mask_spec_validation_and_labels():
    assert MaskSpec("mcar", p_random=0.3).label == "mcar-0.3"
    assert MaskSpec("mar", p_col=2).label == "mar-2"
    with pytest.raises(ValueError):
        MaskSpec("mcar", p_col=1)
    with pytest.raises(ValueError):
        MaskSpec("mar", p_random=0.5)
    with pytest.raises(ValueError):
        MaskSpec("rot13")
    for p_random in (0.0, 1.0, 30.0):  # a cell goes missing with probability in (0, 1)
        with pytest.raises(ValueError, match="p_random"):
            MaskSpec("mcar", p_random=p_random)
    with pytest.raises(ValueError, match="p_col"):
        MaskSpec("mar", p_col=0)


def test_ensemble_eval_deterministic_imputer_ignores_n_inferences():
    x = Rng(0).uniform((40, 3))

    def mean_imputer(walks):
        for x_obs, mask, _ in walks:
            out = x_obs.copy()
            out[~mask] = 0.5
            yield out

    masks = draw_masks(MaskSpec("mcar", p_random=0.4), 40, 3, n_mask_seeds=3, base_seed=0)
    rows1 = ensemble_eval(mean_imputer, "mean", x, "mcar-0.4", masks, n_inferences=1)
    rows5 = ensemble_eval(mean_imputer, "mean", x, "mcar-0.4", masks, n_inferences=5)
    assert [r.mse for r in rows1] == pytest.approx([r.mse for r in rows5], rel=1e-12)


def test_ensemble_eval_average_then_score_hand_case():
    # 2x2 table, one missing cell, two inferences returning 0 and 1:
    # the score must be (truth - 0.5)^2, not the mean of the two squared errors.
    x = np.array([[0.2, 0.4], [0.6, 0.8]])

    calls = {"n": 0}

    def flip_imputer(walks):
        for x_obs, mask, _ in walks:
            out = x_obs.copy()
            out[~mask] = float(calls["n"] % 2)
            calls["n"] += 1
            yield out

    class OneCell(MaskSpec):
        pass

    spec = MaskSpec("mcar", p_random=0.25)
    rows = ensemble_eval(flip_imputer, "flip", x, spec.label,
                         draw_masks(spec, 2, 2, n_mask_seeds=1, base_seed=3), n_inferences=2)
    # reconstruct the mask the harness used
    from tabdiffuse.rng import derive_seed

    mask = spec.generate(2, 2, derive_seed(3, 0))
    truth = x[~mask]
    expect = float(np.mean((truth - 0.5) ** 2))
    assert rows[0].mse == pytest.approx(expect, rel=1e-12)


def test_average_inferences_sums_the_derived_streams_in_order():
    x = np.array([[0.2, 0.4], [0.6, 0.8]])
    masks = draw_masks(MaskSpec("mcar", p_random=0.5), 2, 2, n_mask_seeds=2, base_seed=17)
    seen = []

    def infer(walks):  # every walk of the setting arrives at once, in mask-then-stream order
        seen.extend(seed for _, _, seed in walks)
        return (np.full((2, 2), float(k + 1)) for k in range(len(walks)))

    sink = {}
    ensemble_eval(infer, "m", x, "mcar-0.5", masks, n_inferences=4, imputation_sink=sink)
    assert seen == [derive_seed(mask_seed, i) for mask_seed, _ in masks for i in range(4)]
    np.testing.assert_array_equal(sink[("m", "mcar-0.5")], np.full((2, 2), 10.0 / 4))
    outputs = iter([np.full((2, 3), float(k)) for k in range(1, 9)])
    out = average_inferences(outputs, 4)
    np.testing.assert_array_equal(out, np.full((2, 3), (1.0 + 2.0 + 3.0 + 4.0) / 4))
    assert next(outputs)[0, 0] == 5.0  # the next mask's imputations are left unread
    # summed from a float64 zero, so a float32 imputer is averaged in float64
    one = np.float32(0.1)
    avg = average_inferences(iter([np.full(2, one)] * 3), 3)
    assert avg.dtype == np.float64
    np.testing.assert_array_equal(avg, (0.0 + float(one) + float(one) + float(one)) / 3)


@pytest.mark.parametrize("n", [0, -1])
def test_average_inferences_rejects_fewer_than_one(n):
    outputs = iter([np.zeros(2)])
    with pytest.raises(ValueError, match="inferences"):
        average_inferences(outputs, n)
    assert len(list(outputs)) == 1


def test_ensemble_eval_rejects_fewer_than_one_mask_seed():
    x = Rng(2).uniform((10, 2))
    calls = []
    with pytest.raises(ValueError, match="mask seeds"):
        ensemble_eval(lambda walks: calls.extend(walks), "id", x, "mcar-0.5",
                      draw_masks(MaskSpec("mcar", p_random=0.5), 10, 2, n_mask_seeds=0,
                                 base_seed=0))
    assert calls == []


def test_draw_masks_rejects_a_mask_that_hides_nothing():
    spec = MaskSpec("mcar", p_random=0.2)

    def hides(base_seed, s):
        return not spec.generate(2, 2, derive_seed(base_seed, s)).all()

    base = next(b for b in range(1000) if hides(b, 0) and not hides(b, 1))
    with pytest.raises(ValueError, match="mcar-0.2 mask of mask seed 1 hides no entry"):
        draw_masks(spec, 2, 2, n_mask_seeds=2, base_seed=base)
    [(seed, mask)] = draw_masks(spec, 2, 2, n_mask_seeds=1, base_seed=base)
    assert seed == derive_seed(base, 0)
    np.testing.assert_array_equal(mask, spec.generate(2, 2, seed))


def test_ensemble_eval_mask_seeds_differ():
    x = Rng(1).uniform((30, 4))
    seen = []

    def spy(walks):
        for x_obs, mask, _ in walks:
            seen.append(mask.copy())
            out = x_obs.copy()
            out[~mask] = 0.0
            yield out

    ensemble_eval(spy, "spy", x, "mcar-0.5",
                  draw_masks(MaskSpec("mcar", p_random=0.5), 30, 4, n_mask_seeds=3, base_seed=0),
                  n_inferences=1)
    assert not np.array_equal(seen[0], seen[1])
    assert not np.array_equal(seen[1], seen[2])


def test_summarize_means_per_seed_scores():
    rows = [
        EvalRow("m", "s", 0, 0.2, 0.9),
        EvalRow("m", "s", 1, 0.4, 0.8),
    ]
    assert summarize(rows) == {"s": {"m": pytest.approx(0.3)}}


# -- downstream fits -----------------------------------------------------------------


def test_downstream_regression_reaches_noise_floor():
    rng = Rng(5)
    X = rng.uniform((400, 3))
    w = np.array([2.0, -1.0, 0.5])
    noise = 0.01 * rng.normal((400,))
    y = X @ w + 0.3 + noise
    out = downstream_eval(X[:300], y[:300], X[300:], y[300:], task="regression", steps=800)
    assert out < 0.03  # near the injected noise scale


def test_downstream_classification_beats_majority_on_train():
    rng = Rng(6)
    X = rng.normal((300, 2))
    y = (X[:, 0] + 0.3 * rng.normal((300,)) > 0).astype(float)
    majority = max(np.mean(y), 1 - np.mean(y))
    acc = downstream_eval(X, y, X, y, task="binclass")
    assert acc >= majority


def test_downstream_deterministic_and_validating():
    rng = Rng(7)
    X = rng.uniform((100, 2))
    y = (X[:, 0] > 0.5).astype(float)
    a = downstream_eval(X, y, X, y, task="binclass", seed=3)
    b = downstream_eval(X, y, X, y, task="binclass", seed=3)
    assert a == b
    with pytest.raises(ValueError):
        downstream_eval(X, np.zeros(100), X, np.zeros(100), task="multiclass")
    with pytest.raises(ValueError):
        downstream_eval(X, y, X, y, task="clustering")


def test_metrics_ignore_known_entry_values():
    rng = np.random.default_rng(9)
    x = rng.normal(size=(6, 3))
    xh = rng.normal(size=(6, 3))
    m = rng.random((6, 3)) > 0.5
    trashed = xh.copy()
    trashed[m] = 1e6
    assert mse_missing(x, xh, m) == mse_missing(x, trashed, m)
    assert pearson_missing(x, xh, m) == pearson_missing(x, trashed, m)
