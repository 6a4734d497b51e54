"""Deterministic checkpoint container.

Layout: 8-byte magic, big-endian uint64 header length, UTF-8 JSON header
(sorted keys), then the raw parameter buffers concatenated in header order
(C-contiguous, little-endian).  The header carries the architecture config,
parameter names and shapes, the training time-axis length, and the data
scaler, so a checkpoint alone reconstructs a working imputer.  Identical
inputs produce identical bytes.
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


def save_checkpoint(
    path,
    denoiser: Denoiser,
    train_t: int,
    scaler: MinMaxScaler | None = None,
    feature_names: tuple[str, ...] | None = None,
    meta: dict | None = None,
) -> None:
    params = list(denoiser.named_parameters())
    dtype = denoiser.config.dtype
    entries = []
    offset = 0
    blobs = []
    for name, p in params:
        blob = np.ascontiguousarray(p.data, dtype=denoiser.config.np_dtype)
        blob = blob.astype("<" + blob.dtype.str[1:], copy=False)
        raw = blob.tobytes()
        entries.append({"name": name, "shape": list(p.data.shape), "offset": offset})
        offset += len(raw)
        blobs.append(raw)
    header = {
        "format_version": FORMAT_VERSION,
        "config": {k: (list(v) if isinstance(v, tuple) else v)
                   for k, v in asdict(denoiser.config).items()},
        "dtype": dtype,
        "train_t": int(train_t),
        "params": entries,
        "scaler": scaler.to_dict() if scaler is not None else None,
        "feature_names": list(feature_names) if feature_names is not None else None,
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
    """Returns (denoiser, train_t, scaler, feature_names, meta)."""
    raw = Path(path).read_bytes()
    if raw[:8] != MAGIC:
        raise CheckpointError(f"{path}: not a checkpoint file")
    head_len = int.from_bytes(raw[8:16], "big")
    header = json.loads(raw[16 : 16 + head_len].decode("utf-8"))
    if header.get("format_version") != FORMAT_VERSION:
        raise CheckpointError(f"{path}: unsupported format version")
    cfg_dict = dict(header["config"])
    cfg_dict["unet_channels"] = tuple(cfg_dict["unet_channels"])
    config = DenoiserConfig(**cfg_dict)
    denoiser = build_denoiser(config, seed=0)
    body = memoryview(raw)[16 + head_len :]  # a view: the weights are copied once, below
    np_dtype = np.dtype("<f8" if header["dtype"] == "float64" else "<f4")
    seen = set()
    by_name = dict(denoiser.named_parameters())
    for entry in header["params"]:
        name, shape, offset = entry["name"], tuple(entry["shape"]), entry["offset"]
        if name not in by_name:
            raise CheckpointError(f"{path}: unknown parameter {name!r}")
        n = int(np.prod(shape)) if shape else 1
        buf = body[offset : offset + n * np_dtype.itemsize]
        arr = np.frombuffer(buf, dtype=np_dtype).reshape(shape)
        if by_name[name].data.shape != arr.shape:
            raise CheckpointError(f"{path}: shape mismatch for {name!r}")
        by_name[name].data = np.array(arr, dtype=config.np_dtype)
        seen.add(name)
    missing = set(by_name) - seen
    if missing:
        raise CheckpointError(f"{path}: missing parameters {sorted(missing)[:3]}...")
    scaler = MinMaxScaler.from_dict(header["scaler"]) if header["scaler"] else None
    names = tuple(header["feature_names"]) if header["feature_names"] else None
    return denoiser, header["train_t"], scaler, names, header.get("meta", {})
