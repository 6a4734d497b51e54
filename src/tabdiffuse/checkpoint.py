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
import os
from dataclasses import asdict, fields
from pathlib import Path

import numpy as np

from .data import MinMaxScaler
from .denoisers import Denoiser, DenoiserConfig, build_denoiser

MAGIC = b"TDCK0001"
FORMAT_VERSION = 1
HEADER_KEYS = frozenset({"config", "dtype", "feature_names", "format_version", "meta",
                         "params", "scaler", "train_t"})


class CheckpointError(ValueError):
    pass


def save_checkpoint(path, denoiser: Denoiser, meta: dict | None = None) -> None:
    """Write ``denoiser`` (its weights, buffers, ``train_t``, ``scaler`` and
    ``feature_names``) and ``meta`` to ``path``.

    The offsets come from the shapes, and each array is written straight from
    its own buffer, so saving holds no second copy of the weights.
    """
    if denoiser.scaler is not None and not denoiser.scaler.fitted:
        raise CheckpointError(f"{path}: the network's scaler is not fitted")
    np_dtype = np.dtype(denoiser.config.dtype).newbyteorder("<")
    arrays = list(denoiser.named_arrays())
    entries = []
    offset = 0
    for name, array in arrays:
        entries.append({"name": name, "shape": list(array.shape), "offset": offset})
        offset += array.size * np_dtype.itemsize
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
        for _, array in arrays:  # a copy only where an array is not C-contiguous little-endian
            fh.write(np.ascontiguousarray(array, dtype=np_dtype))


def _scaler(path, value, n_features: int) -> MinMaxScaler | None:
    """The header's ``scaler``: null, or data_min and data_max of n_features finite
    values, each min at most its max."""
    if value is None:
        return None
    if not (isinstance(value, dict) and sorted(value) == ["data_max", "data_min"]
            and all(isinstance(arr, list) and len(arr) == n_features
                    and all(type(v) in (int, float) and math.isfinite(v) for v in arr)
                    for arr in value.values())
            and all(lo <= hi for lo, hi in zip(value["data_min"], value["data_max"]))):
        raise CheckpointError(f"{path}: scaler must be null or hold data_min and data_max, "
                              f"{n_features} finite values each, each min at most its max")
    return MinMaxScaler.from_dict(value)


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _params(path, value) -> list[tuple[str, tuple[int, ...], int]]:
    """The header's ``params``: (name, shape, offset) of each array, in body order."""
    if not isinstance(value, list):
        raise CheckpointError(f"{path}: params must be a list, got {value!r}")
    seen = set()
    for i, entry in enumerate(value):
        if not (isinstance(entry, dict) and isinstance(entry.get("name"), str)
                and isinstance(entry.get("shape"), list)
                and all(_is_int(n) and n >= 0 for n in entry["shape"])
                and _is_int(entry.get("offset"))):
            raise CheckpointError(f"{path}: params[{i}] must hold a str name, a shape of "
                                  f"ints >= 0 and an int offset, got {entry!r}")
        unknown = sorted(set(entry) - {"name", "shape", "offset"})
        if unknown:
            raise CheckpointError(f"{path}: params[{i}] has unknown keys {', '.join(unknown)}")
        if entry["name"] in seen:
            raise CheckpointError(f"{path}: params lists array {entry['name']!r} twice")
        seen.add(entry["name"])
    return [(entry["name"], tuple(entry["shape"]), entry["offset"]) for entry in value]


def load_checkpoint(path):
    """Returns (denoiser, meta); the denoiser carries its ``train_t``,
    ``scaler`` and ``feature_names``.

    The whole header is checked before any array is read.  Each array is then
    read from the file straight into the network's own parameter or buffer, so
    loading holds one copy of the weights.
    """
    with Path(path).open("rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        preamble = fh.read(16)
        if preamble[:8] != MAGIC:
            raise CheckpointError(f"{path}: not a checkpoint file")
        head_len = int.from_bytes(preamble[8:16], "big")
        if 16 + head_len > size or len(head := fh.read(head_len)) != head_len:
            raise CheckpointError(f"{path}: the header length runs past the end of the file")
        denoiser, params, meta = _from_header(path, head)
        _read_arrays(path, fh, size - 16 - head_len, denoiser, params)
    return denoiser, meta


def _from_header(path, head: bytes) -> tuple[Denoiser, list, dict]:
    """The network the header describes (its arrays still zero), its params and meta."""
    try:
        header = json.loads(head.decode("utf-8"))
    except ValueError as err:  # UnicodeDecodeError and JSONDecodeError
        raise CheckpointError(f"{path}: cannot decode the header: {err}") from None
    if not isinstance(header, dict):
        raise CheckpointError(f"{path}: the header is not a JSON object")
    version = header.get("format_version")
    if not (_is_int(version) and version == FORMAT_VERSION):
        raise CheckpointError(f"{path}: unsupported format version")
    missing = sorted(HEADER_KEYS - {"meta"} - set(header))
    if missing:
        raise CheckpointError(f"{path}: header lacks {', '.join(missing)}")
    unknown = sorted(set(header) - HEADER_KEYS)
    if unknown:
        raise CheckpointError(f"{path}: header has unknown keys {', '.join(unknown)}")
    cfg_dict = header["config"]
    if not isinstance(cfg_dict, dict):
        raise CheckpointError(f"{path}: config must be an object, got {cfg_dict!r}")
    missing = [field.name for field in fields(DenoiserConfig) if field.name not in cfg_dict]
    if missing:
        raise CheckpointError(f"{path}: config lacks {', '.join(missing)}")
    try:
        config = DenoiserConfig(**{**cfg_dict, "unet_channels": tuple(cfg_dict["unet_channels"])})
    except (TypeError, ValueError) as err:
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
    denoiser = build_denoiser(config, seed=None)  # draws nothing: every weight is read after
    denoiser.train_t = train_t
    denoiser.scaler = scaler
    denoiser.feature_names = tuple(names) if names is not None else None
    return denoiser, params, meta


def _read_arrays(path, fh, body_len: int, denoiser: Denoiser, params) -> None:
    """Read the body, which ``fh`` is at the start of, into ``denoiser``'s arrays."""
    np_dtype = np.dtype(denoiser.config.dtype).newbyteorder("<")
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
        nbytes = math.prod(shape) * np_dtype.itemsize
        end += nbytes
        if end > body_len:
            raise CheckpointError(f"{path}: the file ends inside array {name!r}")
        target = by_name[name]
        if target.shape != shape:
            raise CheckpointError(f"{path}: shape mismatch for {name!r}")
        if fh.readinto(target) != nbytes:  # the file shrank since it was opened
            raise CheckpointError(f"{path}: the file ends inside array {name!r}")
        if not np_dtype.isnative:
            target.byteswap(inplace=True)
    if body_len != end:
        raise CheckpointError(f"{path}: {body_len - end} bytes follow the last array")
