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

from .data import atomic_open
from .model import ModelConfig, ModelParams

_MAGIC = b"SPCK"
_VERSION = 1
TYPE_SPECTRAL = 0
TYPE_LEGACY_BPR_MF = 1
# After the magic: the version and the tag, then the header of that tag.
_PREFIX = struct.Struct("<IB")
_HEADERS = {
    TYPE_SPECTRAL: struct.Struct("<IIIQQdd"),  # K, C, F, n_users, n_items, decay, epsilon
    TYPE_LEGACY_BPR_MF: struct.Struct("<IQQdd"),  # d, n_users, n_items, decay, epsilon
}


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
        fh.write(_HEADERS[TYPE_SPECTRAL].pack(cfg.K, cfg.C, cfg.F, params.n_users,
                                              params.n_items, ckpt.rms_decay, ckpt.rms_epsilon))
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
    """Read a checkpoint in one read; a legacy BPR-MF file comes back as the
    K = 0 model."""
    path = Path(path)
    buf = path.read_bytes()
    if buf[:len(_MAGIC)] != _MAGIC:
        raise ValueError(f"{path}: not a checkpoint file")
    (version, tag), offset = _unpack(_PREFIX, buf, len(_MAGIC), path)
    if version != _VERSION:
        raise ValueError(f"{path}: unsupported checkpoint version {version}")
    if tag not in _HEADERS:
        raise ValueError(f"{path}: unknown model-type tag {tag}")
    fields, offset = _unpack(_HEADERS[tag], buf, offset, path)
    if tag == TYPE_SPECTRAL:
        K, C, F, n_users, n_items, decay, eps = fields
        config = _header_config(path, K=K, C=C, F=F)
    else:
        C, n_users, n_items, decay, eps = fields
        config = _header_config(path, K=0, C=C)
    shapes = config.shapes(n_users, n_items)
    expected = offset + 8 * sum(rows * cols for rows, cols in shapes)
    if len(buf) < expected:
        raise ValueError(f"{path}: truncated file ({len(buf)} of {expected} bytes)")
    if len(buf) > expected:
        raise ValueError(f"{path}: {len(buf) - expected} trailing bytes after the last array")
    arrays = []
    for rows, cols in shapes:
        arrays.append(np.frombuffer(buf, "<f8", rows * cols, offset).reshape(rows, cols).copy())
        offset += 8 * rows * cols
    return SpectralCheckpoint(ModelParams.from_arrays(arrays), config, decay, eps)
