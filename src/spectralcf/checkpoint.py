"""Binary checkpoint container for trained models.

Layout (little-endian): magic "SPCK", u32 version, u8 model-type tag, then a
per-type header and the parameter arrays row-major as 64-bit floats. The
optimizer's decay and epsilon ride along so a run can be reproduced from its
checkpoint alone. Round-trips are bit-exact.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .baselines import BprMfModel
from .data import atomic_open
from .model import ModelConfig, ModelParams

_MAGIC = b"SPCK"
_VERSION = 1
TYPE_SPECTRAL = 0
TYPE_BPR_MF = 1


@dataclass
class SpectralCheckpoint:
    params: ModelParams
    config: ModelConfig
    rms_decay: float = 0.9
    rms_epsilon: float = 1e-8


@dataclass
class BprMfCheckpoint:
    model: BprMfModel
    rms_decay: float = 0.9
    rms_epsilon: float = 1e-8


def _write_array(fh, arr: np.ndarray) -> None:
    fh.write(np.ascontiguousarray(arr, dtype="<f8").tobytes())


def _read_array(fh, shape) -> np.ndarray:
    count = int(np.prod(shape))
    buf = fh.read(8 * count)
    if len(buf) != 8 * count:
        raise ValueError("truncated checkpoint file")
    return np.frombuffer(buf, dtype="<f8").copy().reshape(shape)


def save_checkpoint(obj, path) -> None:
    """Write ``obj`` to ``path`` atomically: a failed save keeps the old file."""
    with atomic_open(path, "wb") as fh:
        fh.write(_MAGIC)
        if isinstance(obj, SpectralCheckpoint):
            cfg, params = obj.config, obj.params
            fh.write(struct.pack("<IB", _VERSION, TYPE_SPECTRAL))
            fh.write(struct.pack(
                "<IIIQQdd", cfg.K, cfg.C, cfg.F, params.n_users, params.n_items,
                obj.rms_decay, obj.rms_epsilon,
            ))
            _write_array(fh, params.X_u0)
            _write_array(fh, params.X_i0)
            for theta in params.thetas:
                _write_array(fh, theta)
        elif isinstance(obj, BprMfCheckpoint):
            model = obj.model
            fh.write(struct.pack("<IB", _VERSION, TYPE_BPR_MF))
            fh.write(struct.pack(
                "<IQQdd", model.d, model.P_u.shape[0], model.Q_i.shape[0],
                obj.rms_decay, obj.rms_epsilon,
            ))
            _write_array(fh, model.P_u)
            _write_array(fh, model.Q_i)
        else:
            raise TypeError(f"cannot checkpoint object of type {type(obj).__name__}")


def load_checkpoint(path):
    """Read a checkpoint; returns a SpectralCheckpoint or BprMfCheckpoint."""
    path = Path(path)
    with open(path, "rb") as fh:
        if fh.read(4) != _MAGIC:
            raise ValueError(f"{path}: not a checkpoint file")
        version, tag = struct.unpack("<IB", fh.read(5))
        if version != _VERSION:
            raise ValueError(f"{path}: unsupported checkpoint version {version}")
        if tag == TYPE_SPECTRAL:
            K, C, F, n_users, n_items, decay, eps = struct.unpack("<IIIQQdd", fh.read(44))
            X_u0 = _read_array(fh, (n_users, C))
            X_i0 = _read_array(fh, (n_items, C))
            thetas = [_read_array(fh, (C if k == 0 else F, F)) for k in range(K)]
            return SpectralCheckpoint(
                params=ModelParams(X_u0, X_i0, thetas),
                config=ModelConfig(K=K, C=C, F=F),
                rms_decay=decay,
                rms_epsilon=eps,
            )
        if tag == TYPE_BPR_MF:
            d, n_users, n_items, decay, eps = struct.unpack("<IQQdd", fh.read(36))
            P = _read_array(fh, (n_users, d))
            Q = _read_array(fh, (n_items, d))
            return BprMfCheckpoint(model=BprMfModel(P, Q), rms_decay=decay, rms_epsilon=eps)
        raise ValueError(f"{path}: unknown model-type tag {tag}")
