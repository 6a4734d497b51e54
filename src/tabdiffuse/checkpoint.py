"""Deterministic checkpoint container.

Layout: 8-byte magic, big-endian uint64 header length, UTF-8 JSON header
(sorted keys), then the raw parameters and buffers (batch-norm running
statistics) concatenated in header order (C-contiguous, little-endian).  The
header carries the architecture config, array names and shapes, and what the
network carries beside its weights: its training time-axis length
(``train_t``), its data ``scaler`` and its ``feature_names``.  So a
checkpoint alone reconstructs a working imputer.  Identical inputs produce
identical bytes.
"""

from __future__ import annotations

import json
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


def load_checkpoint(path):
    """Returns (denoiser, meta); the denoiser carries its ``train_t``,
    ``scaler`` and ``feature_names``."""
    raw = Path(path).read_bytes()
    if raw[:8] != MAGIC:
        raise CheckpointError(f"{path}: not a checkpoint file")
    head_len = int.from_bytes(raw[8:16], "big")
    header = json.loads(raw[16 : 16 + head_len].decode("utf-8"))
    if header.get("format_version") != FORMAT_VERSION:
        raise CheckpointError(f"{path}: unsupported format version")
    missing = [key for key in ("config", "dtype", "feature_names", "params", "scaler", "train_t")
               if key not in header]
    if missing:
        raise CheckpointError(f"{path}: header lacks {', '.join(missing)}")
    cfg_dict = dict(header["config"])
    cfg_dict["unet_channels"] = tuple(cfg_dict["unet_channels"])
    config = DenoiserConfig(**cfg_dict)
    if header["dtype"] != config.dtype:
        raise CheckpointError(f"{path}: arrays stored as {header['dtype']}, config says "
                              f"{config.dtype}")
    denoiser = build_denoiser(config, seed=None)  # draws nothing: every weight is read below
    body = memoryview(raw)[16 + head_len :]  # a view: the weights are copied once, below
    np_dtype = np.dtype(config.dtype).newbyteorder("<")
    seen = set()
    by_name = dict(denoiser.named_arrays())
    for entry in header["params"]:
        name, shape, offset = entry["name"], tuple(entry["shape"]), entry["offset"]
        if name not in by_name:
            raise CheckpointError(f"{path}: unknown array {name!r}")
        n = int(np.prod(shape)) if shape else 1
        buf = body[offset : offset + n * np_dtype.itemsize]
        if len(buf) < n * np_dtype.itemsize:
            raise CheckpointError(f"{path}: the file ends inside array {name!r}")
        arr = np.frombuffer(buf, dtype=np_dtype).reshape(shape)
        if by_name[name].shape != arr.shape:
            raise CheckpointError(f"{path}: shape mismatch for {name!r}")
        np.copyto(by_name[name], arr)
        seen.add(name)
    missing = sorted(set(by_name) - seen)
    if missing:
        raise CheckpointError(f"{path}: missing arrays {missing}")
    denoiser.train_t = header["train_t"]
    denoiser.scaler = MinMaxScaler.from_dict(header["scaler"]) if header["scaler"] else None
    names = header["feature_names"]
    denoiser.feature_names = tuple(names) if names else None
    return denoiser, header.get("meta", {})
