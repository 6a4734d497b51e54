import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tabdiffuse.data import (
    CsvFormatError,
    Dataset,
    MinMaxScaler,
    gen_mar_mask,
    gen_mcar_mask,
    load_csv,
    read_mask_csv,
    split,
    write_csv,
    write_rows,
)


# -- csv io ---------------------------------------------------------------------


def test_load_csv_roundtrip(tmp_path):
    path = tmp_path / "t.csv"
    values = np.array([[1.5, -2.25], [0.125, 3.0], [7.0, 0.0]])
    write_rows(path, ["a", "b"], values.tolist(), comments=["meta line"])
    ds = load_csv(path)
    assert ds.feature_names == ("a", "b")
    np.testing.assert_array_equal(ds.features, values)


def test_load_csv_skips_a_utf8_byte_order_mark(tmp_path):
    path = tmp_path / "export.csv"
    path.write_bytes(b"\xef\xbb\xbfa,b\n1,0\n2,1\n3,0\n")
    ds = load_csv(path, target_column="a")
    assert ds.feature_names == ("b",)
    np.testing.assert_array_equal(ds.target, [1, 2, 3])


def test_load_csv_reports_bad_cell(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("a,b\n1.0,2.0\n3.0,oops\n")
    with pytest.raises(CsvFormatError, match=r"row 3.*'b'.*oops"):
        load_csv(path)


def test_load_csv_empty(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text("")
    with pytest.raises(CsvFormatError, match="empty"):
        load_csv(path)
    path.write_text("a,b\n")
    with pytest.raises(CsvFormatError, match="no data rows"):
        load_csv(path)


def test_load_csv_target_split_and_task_inference(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("x1,x2,y\n1,2,0\n3,4,1\n5,6,0\n")
    ds = load_csv(path, target_column="y")
    assert ds.feature_names == ("x1", "x2")
    assert ds.task == "binclass"
    np.testing.assert_array_equal(ds.target, [0, 1, 0])
    reg = tmp_path / "r.csv"
    reg.write_text("x,y\n1,0.5\n2,0.7\n3,0.9\n")
    assert load_csv(reg, target_column="y").task == "regression"
    with pytest.raises(CsvFormatError, match="no column named"):
        load_csv(path, target_column="zzz")


def test_dataset_rejects_incomplete():
    with pytest.raises(ValueError):
        Dataset(features=np.array([[1.0, np.nan]]), feature_names=("a", "b"))


# -- scaler ------------------------------------------------------------------------


def test_scaler_basic_mapping():
    sc = MinMaxScaler()
    X = np.array([[0.0], [5.0], [10.0]])
    out = sc.fit(X).transform(X)
    np.testing.assert_allclose(out[:, 0], [0.0, 0.5, 1.0])


def test_scaler_inverse_is_identity():
    rng = np.random.default_rng(0)
    X = rng.normal(3.0, 7.0, size=(50, 4))
    sc = MinMaxScaler().fit(X)
    np.testing.assert_allclose(sc.inverse_transform(sc.transform(X)), X, atol=1e-12)


def test_scaler_no_clipping_outside_range():
    sc = MinMaxScaler().fit(np.array([[0.0], [10.0]]))
    out = sc.transform(np.array([[-5.0], [15.0]]))
    np.testing.assert_allclose(out[:, 0], [-0.5, 1.5])


def test_scaler_constant_column():
    X = np.array([[2.0, 1.0], [2.0, 3.0]])
    sc = MinMaxScaler().fit(X)
    out = sc.transform(X)
    np.testing.assert_allclose(out[:, 0], [0.0, 0.0])
    inv = sc.inverse_transform(np.array([[0.7, 0.5]]))
    assert inv[0, 0] == 2.0  # constant column inverts to its single value


def test_scaler_requires_fit():
    with pytest.raises(RuntimeError):
        MinMaxScaler().transform(np.ones((2, 2)))


def test_scaler_dict_roundtrip():
    sc = MinMaxScaler().fit(np.array([[1.0, 2.0], [3.0, 4.0]]))
    sc2 = MinMaxScaler.from_dict(sc.to_dict())
    np.testing.assert_array_equal(sc.data_min_, sc2.data_min_)
    np.testing.assert_array_equal(sc.data_max_, sc2.data_max_)


# -- split --------------------------------------------------------------------------


def _dataset(n=10, k=2):
    return Dataset(
        features=np.arange(n * k, dtype=float).reshape(n, k),
        feature_names=tuple(f"c{i}" for i in range(k)),
        target=np.arange(n, dtype=float),
        target_name="y",
        task="regression",
    )


def test_split_sizes():
    tr, te = split(_dataset(10), fraction=0.8, seed=0)
    assert tr.n_rows == 8 and te.n_rows == 2


def test_split_deterministic():
    a1, b1 = split(_dataset(20), seed=5)
    a2, b2 = split(_dataset(20), seed=5)
    np.testing.assert_array_equal(a1.features, a2.features)
    np.testing.assert_array_equal(b1.features, b2.features)


def test_split_partition_is_exhaustive():
    ds = _dataset(13)
    tr, te = split(ds, seed=3)
    merged = np.vstack([tr.features, te.features])
    assert sorted(map(tuple, merged)) == sorted(map(tuple, ds.features))
    assert tr.target is not None and len(tr.target) == tr.n_rows


def test_split_validation():
    with pytest.raises(ValueError):
        split(_dataset(1))
    with pytest.raises(ValueError):
        split(_dataset(5), fraction=1.0)


# -- masks ---------------------------------------------------------------------------


def test_mcar_rate_in_binomial_bound():
    m = gen_mcar_mask(1000, 100, p_random=0.3, seed=0)
    frac = 1.0 - m.mean()
    assert abs(frac - 0.3) <= 0.005


def test_mcar_extremes_and_reproducibility():
    m1 = gen_mcar_mask(50, 4, 0.5, seed=9)
    m2 = gen_mcar_mask(50, 4, 0.5, seed=9)
    np.testing.assert_array_equal(m1, m2)
    tiny = gen_mcar_mask(100, 10, 1e-9, seed=1)
    assert tiny.all()  # p -> 0 limit: everything known
    with pytest.raises(ValueError):
        gen_mcar_mask(10, 2, 0.0, seed=0)
    with pytest.raises(ValueError):
        gen_mcar_mask(10, 2, 1.0, seed=0)


def test_mar_mask_is_column_structured():
    m = gen_mar_mask(30, 6, p_col=2, seed=4)
    col_known = m.all(axis=0)
    col_missing = (~m).all(axis=0)
    assert (col_known | col_missing).all()  # every column all-known or all-missing
    assert col_missing.sum() == 2
    one = gen_mar_mask(30, 6, p_col=1, seed=5)
    assert (~one).sum() == 30


def test_mar_columns_vary_across_seeds():
    picks = {tuple(np.flatnonzero(~gen_mar_mask(5, 6, 2, seed=s).all(axis=0))) for s in range(100)}
    assert len(picks) > 1


def test_mar_validation():
    with pytest.raises(ValueError):
        gen_mar_mask(10, 4, p_col=4, seed=0)
    with pytest.raises(ValueError):
        gen_mar_mask(10, 4, p_col=0, seed=0)


def test_mask_csv_roundtrip(tmp_path):
    m = gen_mcar_mask(20, 3, 0.4, seed=2)
    path = tmp_path / "m.csv"
    write_csv(path, m.astype(int), ["a", "b", "c"])
    np.testing.assert_array_equal(read_mask_csv(path), m)


@given(st.integers(0, 10_000), st.floats(0.05, 0.95))
@settings(max_examples=50, deadline=None)
def test_mask_reproducible_property(seed, p):
    a = gen_mcar_mask(17, 3, p, seed)
    b = gen_mcar_mask(17, 3, p, seed)
    np.testing.assert_array_equal(a, b)
    assert a.dtype == np.bool_


@given(seed=st.integers(0, 10_000))
@settings(max_examples=40, deadline=None)
def test_scaler_roundtrip_property(seed):
    from tabdiffuse.rng import Rng

    X = Rng(seed).normal((20, 3)) * 5.0 + 2.0
    sc = MinMaxScaler().fit(X)
    np.testing.assert_allclose(sc.inverse_transform(sc.transform(X)), X, atol=1e-10)
