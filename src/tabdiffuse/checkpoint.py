"""Deterministic checkpoint container.

Layout: 8-byte magic, big-endian uint64 header length, UTF-8 JSON header
(sorted keys), then the raw parameters and buffers (batch-norm running
statistics) concatenated in header order (C-contiguous, little-endian), with
nothing between or after them.  The header carries the architecture config,
array names and shapes, and what the network carries beside its weights: its
training time-axis length (``train_t``), its data ``scaler`` and its
``feature_names``.  So a checkpoint alone reconstructs a working imputer.
Identical inputs produce identical bytes.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict
from pathlib import Path

import numpy as np

from .data import MinMaxScaler
from .denoisers import Denoiser, DenoiserConfig, build_denoiser

MAGIC = b"TDCK0001"
FORMAT_VERSION = 1


class CheckpointError(ValueError):
    pass


def save_checkpoint(path, denoiser: Denoiser, meta: dict | None = None) -> None:
    if denoiser.scaler is not None and not denoiser.scaler.fitted:
        raise CheckpointError(f"{path}: the network's scaler is not fitted")
    entries = []
    offset = 0
    blobs = []
    for name, array in denoiser.named_arrays():
        blob = np.ascontiguousarray(array, dtype=denoiser.config.dtype)
        blob = blob.astype("<" + blob.dtype.str[1:], copy=False)
        raw = blob.tobytes()
        entries.append({"name": name, "shape": list(array.shape), "offset": offset})
        offset += len(raw)
        blobs.append(raw)
    scaler, names = denoiser.scaler, denoiser.feature_names
    header = {
        "format_version": FORMAT_VERSION,
        "config": {k: (list(v) if isinstance(v, tuple) else v)
                   for k, v in asdict(denoiser.config).items()},
        "dtype": denoiser.config.dtype,
        "train_t": denoiser.train_t,
        "params": entries,
        "scaler": scaler.to_dict() if scaler is not None else None,
        "feature_names": list(names) if names is not None else None,
        "meta": meta or {},
    }
    head = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")
    with Path(path).open("wb") as fh:
        fh.write(MAGIC)
        fh.write(len(head).to_bytes(8, "big"))
        fh.write(head)
        for raw in blobs:
            fh.write(raw)


def _scaler(path, value, n_features: int) -> MinMaxScaler | None:
    """The header's ``scaler``: null, or data_min and data_max of n_features finite values."""
    if value is None:
        return None
    if not (isinstance(value, dict) and sorted(value) == ["data_max", "data_min"]
            and all(isinstance(arr, list) and len(arr) == n_features
                    and all(type(v) in (int, float) and math.isfinite(v) for v in arr)
                    for arr in value.values())):
        raise CheckpointError(f"{path}: scaler must be null or hold data_min and data_max, "
                              f"{n_features} finite values each")
    return MinMaxScaler.from_dict(value)


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _params(path, value) -> list[tuple[str, tuple[int, ...], int]]:
    """The header's ``params``: (name, shape, offset) of each array, in body order."""
    if not isinstance(value, list):
        raise CheckpointError(f"{path}: params must be a list, got {value!r}")
    for i, entry in enumerate(value):
        if not (isinstance(entry, dict) and isinstance(entry.get("name"), str)
                and isinstance(entry.get("shape"), list)
                and all(_is_int(n) and n >= 0 for n in entry["shape"])
                and _is_int(entry.get("offset"))):
            raise CheckpointError(f"{path}: params[{i}] must hold a str name, a shape of "
                                  f"ints >= 0 and an int offset, got {entry!r}")
    return [(entry["name"], tuple(entry["shape"]), entry["offset"]) for entry in value]


def load_checkpoint(path):
    """Returns (denoiser, meta); the denoiser carries its ``train_t``,
    ``scaler`` and ``feature_names``."""
    raw = Path(path).read_bytes()
    if raw[:8] != MAGIC:
        raise CheckpointError(f"{path}: not a checkpoint file")
    head_len = int.from_bytes(raw[8:16], "big")
    if 16 + head_len > len(raw):
        raise CheckpointError(f"{path}: the header length runs past the end of the file")
    try:
        header = json.loads(raw[16 : 16 + head_len].decode("utf-8"))
    except ValueError as err:  # UnicodeDecodeError and JSONDecodeError
        raise CheckpointError(f"{path}: cannot decode the header: {err}") from None
    if not isinstance(header, dict):
        raise CheckpointError(f"{path}: the header is not a JSON object")
    if header.get("format_version") != FORMAT_VERSION:
        raise CheckpointError(f"{path}: unsupported format version")
    missing = [key for key in ("config", "dtype", "feature_names", "params", "scaler", "train_t")
               if key not in header]
    if missing:
        raise CheckpointError(f"{path}: header lacks {', '.join(missing)}")
    try:
        cfg_dict = dict(header["config"])
        cfg_dict["unet_channels"] = tuple(cfg_dict["unet_channels"])
        config = DenoiserConfig(**cfg_dict)
    except (KeyError, TypeError, ValueError) as err:
        raise CheckpointError(f"{path}: bad config: {err}") from None
    train_t = header["train_t"]
    if train_t is not None and not (_is_int(train_t) and train_t >= 1):
        raise CheckpointError(f"{path}: train_t must be an int >= 1 or null, got {train_t!r}")
    scaler = _scaler(path, header["scaler"], config.n_features)
    names = header["feature_names"]
    if names is not None and not (isinstance(names, list) and len(names) == config.n_features
                                  and all(isinstance(name, str) for name in names)):
        raise CheckpointError(f"{path}: feature_names must be null or {config.n_features} "
                              f"strings, got {names!r}")
    meta = header.get("meta", {})
    if not isinstance(meta, dict):
        raise CheckpointError(f"{path}: meta must be an object, got {meta!r}")
    params = _params(path, header["params"])
    if header["dtype"] != config.dtype:
        raise CheckpointError(f"{path}: arrays stored as {header['dtype']}, config says "
                              f"{config.dtype}")
    denoiser = build_denoiser(config, seed=None)  # draws nothing: every weight is read below
    body = memoryview(raw)[16 + head_len :]  # a view: the weights are copied once, below
    np_dtype = np.dtype(config.dtype).newbyteorder("<")
    by_name = dict(denoiser.named_arrays())
    missing = sorted(set(by_name) - {name for name, _, _ in params})
    if missing:
        raise CheckpointError(f"{path}: missing arrays {missing}")
    end = 0  # the arrays lie back to back in header order and fill the body
    for name, shape, offset in params:
        if name not in by_name:
            raise CheckpointError(f"{path}: unknown array {name!r}")
        if offset != end:
            raise CheckpointError(f"{path}: array {name!r} starts at byte {offset} of the body, "
                                  f"not where the array before it ends ({end})")
        end += math.prod(shape) * np_dtype.itemsize
        if end > len(body):
            raise CheckpointError(f"{path}: the file ends inside array {name!r}")
        arr = np.frombuffer(body[offset:end], dtype=np_dtype).reshape(shape)
        if by_name[name].shape != arr.shape:
            raise CheckpointError(f"{path}: shape mismatch for {name!r}")
        np.copyto(by_name[name], arr)
    if len(body) != end:
        raise CheckpointError(f"{path}: {len(body) - end} bytes follow the last array")
    denoiser.train_t = train_t
    denoiser.scaler = scaler
    denoiser.feature_names = tuple(names) if names is not None else None
    return denoiser, meta
