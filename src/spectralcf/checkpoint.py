"""Binary checkpoint container for trained models.

Layout (little-endian): magic "SPCK", u32 version 1, u8 model-type tag 0,
u32 K, C, F, u64 n_users, n_items, f64 RMSprop decay and epsilon, then
the arrays of ``ModelParams.arrays()`` (X_u0, X_i0 and the K filter matrices,
shaped by ``ModelConfig.shapes``) row-major as 64-bit floats. BPR-MF is
the K = 0 model and is written the same way. Round-trips are bit-exact.
A short or over-long file, another tag, or a header with C or F of 0,
raises ValueError naming it.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .data import atomic_open
from .model import ModelConfig, ModelParams

_MAGIC = b"SPCK"
_VERSION = 1
TYPE_SPECTRAL = 0
# After the magic: the version and the tag, then the header.
_PREFIX = struct.Struct("<IB")
_HEADER = struct.Struct("<IIIQQdd")  # K, C, F, n_users, n_items, decay, epsilon


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
        fh.write(_MAGIC + _PREFIX.pack(_VERSION, TYPE_SPECTRAL))
        fh.write(_HEADER.pack(cfg.K, cfg.C, cfg.F, params.n_users, params.n_items,
                              ckpt.rms_decay, ckpt.rms_epsilon))
        for arr in params.arrays():
            fh.write(np.ascontiguousarray(arr, dtype="<f8").tobytes())


def _header_config(path: Path, **fields) -> ModelConfig:
    try:
        return ModelConfig(**fields)
    except ValueError as exc:
        raise ValueError(f"{path}: bad header: {exc}") from exc


def _unpack(fmt: struct.Struct, buf: bytes, offset: int, path: Path):
    """(the fields of ``fmt`` at ``offset`` of ``buf``, the offset after them)."""
    if len(buf) < offset + fmt.size:
        raise ValueError(f"{path}: truncated file")
    return fmt.unpack_from(buf, offset), offset + fmt.size


def load_checkpoint(path) -> SpectralCheckpoint:
    """Read a checkpoint in one read. Its size is checked against the header
    before any array is laid out, so a header with a huge K fails as
    truncated without building K shapes."""
    path = Path(path)
    buf = path.read_bytes()
    if buf[:len(_MAGIC)] != _MAGIC:
        raise ValueError(f"{path}: not a checkpoint file")
    (version, tag), offset = _unpack(_PREFIX, buf, len(_MAGIC), path)
    if version != _VERSION:
        raise ValueError(f"{path}: unsupported checkpoint version {version}")
    if tag != TYPE_SPECTRAL:
        raise ValueError(f"{path}: unknown model-type tag {tag}")
    (K, C, F, n_users, n_items, decay, eps), offset = _unpack(_HEADER, buf, offset, path)
    config = _header_config(path, K=K, C=C, F=F)
    # The sizes of ModelConfig.shapes, summed in closed form.
    n_floats = C * (n_users + n_items) + (C * F + (K - 1) * F * F if K else 0)
    expected = offset + 8 * n_floats
    if len(buf) < expected:
        raise ValueError(f"{path}: truncated file ({len(buf)} of {expected} bytes)")
    if len(buf) > expected:
        raise ValueError(f"{path}: {len(buf) - expected} trailing bytes after the last array")
    arrays = []
    for rows, cols in config.shapes(n_users, n_items):
        arrays.append(np.frombuffer(buf, "<f8", rows * cols, offset).reshape(rows, cols).copy())
        offset += 8 * rows * cols
    return SpectralCheckpoint(ModelParams.from_arrays(arrays), config, decay, eps)
