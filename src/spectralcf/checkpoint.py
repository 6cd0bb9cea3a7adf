"""Binary checkpoint container for trained models.

Layout (little-endian): magic "SPCK", u32 version 1, u8 model-type tag 0,
u32 K, C, F, u64 n_users, n_items, f64 RMSprop decay and epsilon, then
the arrays of ``ModelParams.arrays()`` (X_u0, X_i0 and the K filter matrices,
shaped by ``ModelConfig.shapes``) row-major as 64-bit floats. BPR-MF is
the K = 0 model and is written the same way. Round-trips are bit-exact.

Older BPR-MF files carry tag 1 (u32 d, u64 n_users, n_items, f64 decay,
epsilon, then the user and item tables); they are read as K = 0 models.
A short or over-long file, or a header with C or F of 0, raises ValueError
naming it.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .data import atomic_open, check_size, read_exact
from .model import ModelConfig, ModelParams

_MAGIC = b"SPCK"
_VERSION = 1
TYPE_SPECTRAL = 0
TYPE_LEGACY_BPR_MF = 1


@dataclass
class SpectralCheckpoint:
    params: ModelParams
    config: ModelConfig
    rms_decay: float = 0.9
    rms_epsilon: float = 1e-8


def save_checkpoint(ckpt: SpectralCheckpoint, path) -> None:
    """Write ``ckpt`` to ``path`` atomically: a failed save keeps the old file."""
    cfg, params = ckpt.config, ckpt.params
    with atomic_open(path, "wb") as fh:
        fh.write(_MAGIC)
        fh.write(struct.pack("<IB", _VERSION, TYPE_SPECTRAL))
        fh.write(struct.pack(
            "<IIIQQdd", cfg.K, cfg.C, cfg.F, params.n_users, params.n_items,
            ckpt.rms_decay, ckpt.rms_epsilon,
        ))
        for arr in params.arrays():
            fh.write(np.ascontiguousarray(arr, dtype="<f8").tobytes())


def _header_config(path: Path, **fields) -> ModelConfig:
    try:
        return ModelConfig(**fields)
    except ValueError as exc:
        raise ValueError(f"{path}: bad header: {exc}") from exc


def load_checkpoint(path) -> SpectralCheckpoint:
    """Read a checkpoint; a legacy BPR-MF file comes back as the K = 0 model."""
    path = Path(path)
    with open(path, "rb") as fh:
        if fh.read(4) != _MAGIC:
            raise ValueError(f"{path}: not a checkpoint file")
        version, tag = struct.unpack("<IB", read_exact(fh, 5, path))
        if version != _VERSION:
            raise ValueError(f"{path}: unsupported checkpoint version {version}")
        if tag == TYPE_SPECTRAL:
            K, C, F, n_users, n_items, decay, eps = struct.unpack(
                "<IIIQQdd", read_exact(fh, 44, path))
            config = _header_config(path, K=K, C=C, F=F)
        elif tag == TYPE_LEGACY_BPR_MF:
            C, n_users, n_items, decay, eps = struct.unpack("<IQQdd", read_exact(fh, 36, path))
            config = _header_config(path, K=0, C=C)
        else:
            raise ValueError(f"{path}: unknown model-type tag {tag}")
        shapes = config.shapes(n_users, n_items)
        check_size(fh, fh.tell() + 8 * sum(rows * cols for rows, cols in shapes), path)
        params = ModelParams.from_arrays([
            np.frombuffer(fh.read(8 * rows * cols), dtype="<f8").copy().reshape(rows, cols)
            for rows, cols in shapes
        ])
    return SpectralCheckpoint(params, config, decay, eps)
