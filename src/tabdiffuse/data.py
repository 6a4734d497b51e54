"""Dataset ingestion, min-max scaling, splits, and missingness masks.

CSV convention: comma-separated, UTF-8, header row, '.' decimal point.
Lines starting with '#' are metadata comments and are skipped on read.
Mask files use the same shape with 0/1 cells (1 = known).
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .rng import Rng

TASKS = ("regression", "binclass", "multiclass", "none")


class CsvFormatError(ValueError):
    """Malformed input file; message carries the row/column location."""


@dataclass(frozen=True)
class Dataset:
    """Complete numeric table with an optional prediction target."""

    features: np.ndarray
    feature_names: tuple[str, ...]
    target: np.ndarray | None = None
    target_name: str | None = None
    task: str = "none"

    def __post_init__(self):
        if self.task not in TASKS:
            raise ValueError(f"unknown task {self.task!r}")
        if not np.all(np.isfinite(self.features)):
            raise ValueError("dataset features must be complete and finite")
        if self.features.shape[1] != len(self.feature_names):
            raise ValueError("feature name count does not match the table width")
        if self.target is not None and len(self.target) != len(self.features):
            raise ValueError("target length does not match the table")

    @property
    def n_rows(self) -> int:
        return self.features.shape[0]

    @property
    def n_features(self) -> int:
        return self.features.shape[1]


def _infer_task(values: np.ndarray) -> str:
    ints = np.all(values == np.round(values))
    if ints and len(np.unique(values)) == 2:
        return "binclass"
    if ints and len(np.unique(values)) <= 20:
        return "multiclass"
    return "regression"


def load_csv(path, target_column: str | None = None) -> Dataset:
    """Parse a complete numeric table; rejects unparseable cells with location."""
    path = Path(path)
    with path.open(newline="", encoding="utf-8-sig") as fh:  # a spreadsheet export's BOM
        rows = [r for r in csv.reader(fh) if r and not r[0].lstrip().startswith("#")]
    if not rows:
        raise CsvFormatError(f"{path}: empty file")
    header, body = rows[0], rows[1:]
    if not body:
        raise CsvFormatError(f"{path}: no data rows")
    data = np.empty((len(body), len(header)), dtype=np.float64)
    for i, row in enumerate(body):
        if len(row) != len(header):
            raise CsvFormatError(f"{path}: row {i + 2} has {len(row)} cells, expected {len(header)}")
        for j, cell in enumerate(row):
            try:
                data[i, j] = float(cell)
            except ValueError:
                raise CsvFormatError(
                    f"{path}: unparseable cell at row {i + 2}, column {header[j]!r}: {cell!r}"
                ) from None
    if target_column is not None and target_column not in header:
        raise CsvFormatError(f"{path}: no column named {target_column!r}")
    ti = header.index(target_column) if target_column is not None else None
    for i, j in np.argwhere(~np.isfinite(data)):
        if j != ti:  # the target's own check belongs to the command that reads it
            raise CsvFormatError(f"{path}: non-finite cell at row {i + 2}, column "
                                 f"{header[j]!r}: {body[i][j]!r}")
    if ti is None:
        return Dataset(features=data, feature_names=tuple(header))
    feats = np.delete(data, ti, axis=1)
    names = tuple(h for i, h in enumerate(header) if i != ti)
    target = data[:, ti]
    return Dataset(
        features=feats,
        feature_names=names,
        target=target,
        target_name=target_column,
        task=_infer_task(target),
    )


def write_rows(path, header, rows, comments=()) -> None:
    """The package's CSV writer: '#' comment lines, the header, then the rows,
    each written as it is drawn.  A Python float is written as its repr(), the
    shortest form that reads back bit for bit."""
    with Path(path).open("w", newline="", encoding="utf-8") as fh:
        fh.writelines(f"# {line}\n" for line in comments)
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def write_csv(path, values: np.ndarray, names) -> None:
    """Write a numeric table under a header of column names."""
    rows = (row.tolist() for row in np.asarray(values, dtype=np.float64))
    write_rows(path, names, rows)


class MinMaxScaler:
    """Per-column affine map of the observed training range onto [0, 1].

    Constant columns transform to 0 and invert back to their single value
    so degenerate tables survive benchmark sweeps.  Values outside the
    fitted range map outside [0, 1]; nothing is clipped.
    """

    def __init__(self):
        self.data_min_: np.ndarray | None = None
        self.data_max_: np.ndarray | None = None

    @property
    def fitted(self) -> bool:
        return self.data_min_ is not None

    def fit(self, X: np.ndarray) -> "MinMaxScaler":
        X = np.asarray(X, dtype=np.float64)
        self.data_min_ = X.min(axis=0)
        self.data_max_ = X.max(axis=0)
        return self

    def _span(self) -> np.ndarray:
        span = self.data_max_ - self.data_min_
        return np.where(span == 0.0, 1.0, span)

    def transform(self, X: np.ndarray) -> np.ndarray:
        if not self.fitted:
            raise RuntimeError("scaler must be fitted before transform")
        X = np.asarray(X, dtype=np.float64)
        out = (X - self.data_min_) / self._span()
        return np.where(self.data_max_ == self.data_min_, 0.0, out)

    def inverse_transform(self, Z: np.ndarray) -> np.ndarray:
        if not self.fitted:
            raise RuntimeError("scaler must be fitted before inverse_transform")
        Z = np.asarray(Z, dtype=np.float64)
        out = Z * self._span() + self.data_min_
        return np.where(self.data_max_ == self.data_min_, self.data_min_, out)

    def to_dict(self) -> dict:
        return {
            "data_min": self.data_min_.tolist() if self.fitted else None,
            "data_max": self.data_max_.tolist() if self.fitted else None,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "MinMaxScaler":
        sc = cls()
        if d.get("data_min") is not None:
            sc.data_min_ = np.asarray(d["data_min"], dtype=np.float64)
            sc.data_max_ = np.asarray(d["data_max"], dtype=np.float64)
        return sc


def split(dataset: Dataset, fraction: float = 0.8, seed: int = 0) -> tuple[Dataset, Dataset]:
    """Seeded shuffle then split; the two parts are disjoint and exhaustive."""
    if dataset.n_rows < 2:
        raise ValueError("need at least 2 rows to split")
    if not 0.0 < fraction < 1.0:
        raise ValueError("fraction must lie in (0, 1)")
    perm = Rng(seed).permutation(dataset.n_rows)
    cut = int(round(dataset.n_rows * fraction))
    cut = min(max(cut, 1), dataset.n_rows - 1)
    tr, te = perm[:cut], perm[cut:]

    def subset(idx):
        return replace(
            dataset,
            features=dataset.features[idx],
            target=None if dataset.target is None else dataset.target[idx],
        )

    return subset(tr), subset(te)


# -- missingness masks (True = known) -----------------------------------------


def gen_mcar_mask(n_rows: int, n_cols: int, p_random: float, seed: int) -> np.ndarray:
    """Each cell goes missing independently with probability ``p_random``."""
    if not 0.0 < p_random < 1.0:
        raise ValueError("p_random must lie in (0, 1)")
    u = Rng(seed).uniform((n_rows, n_cols))
    return u > p_random  # u in (0, 1], so P(missing) = p exactly


def gen_mar_mask(n_rows: int, n_cols: int, p_col: int, seed: int) -> np.ndarray:
    """``p_col`` uniformly chosen columns go entirely missing."""
    if not 1 <= p_col < n_cols:
        raise ValueError("p_col must lie in [1, n_cols)")
    cols = Rng(seed).choice_without_replacement(n_cols, p_col)
    mask = np.ones((n_rows, n_cols), dtype=bool)
    mask[:, cols] = False
    return mask


def read_mask_csv(path) -> np.ndarray:
    ds = load_csv(path)
    if not np.all(np.isin(ds.features, (0.0, 1.0))):
        raise CsvFormatError(f"{path}: mask cells must be 0 or 1")
    return ds.features.astype(bool)
