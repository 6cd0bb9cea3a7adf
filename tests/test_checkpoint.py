import re
import struct

import numpy as np
import pytest

from spectralcf import cli, data
from spectralcf.checkpoint import SpectralCheckpoint, load_checkpoint, save_checkpoint
from spectralcf.model import ModelConfig, init_params

from conftest import random_interactions


@pytest.mark.parametrize("K", [0, 1, 3])
def test_spectral_round_trip_reads_k_filters(tmp_path, K):
    cfg = ModelConfig(K=K, C=3, F=2, seed=K)
    params = init_params(cfg, n_users=4, n_items=5)
    path = tmp_path / "model.spck"
    save_checkpoint(SpectralCheckpoint(params, cfg, 0.8, 1e-7), path)
    back = load_checkpoint(path)
    assert back.config == ModelConfig(K=K, C=3, F=2)
    assert len(back.params.thetas) == K
    assert np.array_equal(back.params.X_u0, params.X_u0)
    assert np.array_equal(back.params.X_i0, params.X_i0)
    for got, want in zip(back.params.thetas, params.thetas):
        assert np.array_equal(got, want)
    assert (back.rms_decay, back.rms_epsilon) == (0.8, 1e-7)


@pytest.mark.parametrize("edit, message", [
    (lambda buf: b"SPCX" + buf[4:], "not a checkpoint file"),
    (lambda buf: buf[:4] + struct.pack("<I", 2) + buf[8:], "unsupported checkpoint version 2"),
], ids=["magic", "version"])
def test_foreign_prefix_rejected(tmp_path, edit, message):
    cfg = ModelConfig(K=1, C=2, F=2)
    path = tmp_path / "model.spck"
    save_checkpoint(SpectralCheckpoint(init_params(cfg, n_users=3, n_items=4), cfg, 0.9, 1e-8),
                    path)
    path.write_bytes(edit(path.read_bytes()))
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: {message}$"):
        load_checkpoint(path)


def test_legacy_bpr_mf_tag_rejected(tmp_path):
    """The older BPR-MF layout (tag 1) is no longer read."""
    path = tmp_path / "bpr.spck"
    # magic, version, tag 1, then d, n_users, n_items, decay, epsilon, P, Q
    header = struct.pack("<IB", 1, 1) + struct.pack("<IQQdd", 3, 4, 5, 0.8, 1e-7)
    path.write_bytes(b"SPCK" + header + np.zeros(27, dtype="<f8").tobytes())
    with pytest.raises(ValueError, match="unknown model-type tag 1") as info:
        load_checkpoint(path)
    assert str(path) in str(info.value)


def test_cli_trained_bpr_mf_writes_the_spectral_tag(tmp_path, capsys):
    ds = random_interactions(np.random.default_rng(1), min_users=4, min_items=4)
    data.save_split(data.split_standard(ds, 0.7, rng_seed=0), tmp_path / "split")
    code = cli.main(["train", "--split-dir", str(tmp_path / "split"), "--model", "bpr-mf",
                     "--d", "3", "--epochs", "2", "--batch-size", "4",
                     "--out-dir", str(tmp_path)])
    assert code == 0, capsys.readouterr().err
    raw = (tmp_path / "model.spck").read_bytes()
    assert struct.unpack_from("<IB", raw, 4) == (1, 0)
    K, C, _, n_users, n_items = struct.unpack_from("<IIIQQ", raw, 9)
    assert (K, C, n_users, n_items) == (0, 3, ds.n_users, ds.n_items)
    assert len(raw) == 4 + 5 + 44 + 8 * (n_users + n_items) * 3
    assert load_checkpoint(tmp_path / "model.spck").config == ModelConfig(K=0, C=3)


@pytest.fixture
def saved(tmp_path):
    cfg = ModelConfig(K=2, C=3, F=2)
    path = tmp_path / "model.spck"
    save_checkpoint(SpectralCheckpoint(init_params(cfg, 4, 5), cfg), path)
    return path


@pytest.mark.parametrize("size", [7, 9, 30, 53, -8])
def test_truncated_file_names_it(saved, size):
    saved.write_bytes(saved.read_bytes()[:size])
    with pytest.raises(ValueError, match="truncated") as info:
        load_checkpoint(saved)
    assert str(saved) in str(info.value)


def test_huge_layer_count_fails_before_laying_out_shapes(tmp_path, monkeypatch):
    """A header-only file with K = 2**32 - 1 is truncated; its size is known
    without building the K + 2 shapes the header implies."""
    shapes = ModelConfig.shapes

    def bounded_shapes(self, n_users, n_items):
        if self.K > 10**6:
            raise AssertionError(f"shapes built for K={self.K}")
        return shapes(self, n_users, n_items)

    monkeypatch.setattr(ModelConfig, "shapes", bounded_shapes)
    path = tmp_path / "model.spck"
    path.write_bytes(b"SPCK" + struct.pack("<IB", 1, 0)
                     + struct.pack("<IIIQQdd", 2**32 - 1, 2, 2, 4, 5, 0.9, 1e-8))
    assert len(path.read_bytes()) == 53
    with pytest.raises(ValueError, match="truncated") as info:
        load_checkpoint(path)
    assert str(path) in str(info.value)


def test_trailing_bytes_rejected(saved):
    saved.write_bytes(saved.read_bytes() + b"\0" * 8)
    with pytest.raises(ValueError, match="8 trailing bytes") as info:
        load_checkpoint(saved)
    assert str(saved) in str(info.value)


def test_zero_width_header_names_it(tmp_path):
    # magic, version, tag 0, then K = 1, C = 0, F = 2, n_users, n_items, decay, epsilon
    path = tmp_path / "model.spck"
    path.write_bytes(b"SPCK" + struct.pack("<IB", 1, 0)
                     + struct.pack("<IIIQQdd", 1, 0, 2, 4, 5, 0.9, 1e-8))
    assert len(path.read_bytes()) == 53
    with pytest.raises(ValueError, match="C and F >= 1") as info:
        load_checkpoint(path)
    assert str(path) in str(info.value)
