import numpy as np
import pytest

from spectralcf.baselines import BprMfModel
from spectralcf.checkpoint import (
    BprMfCheckpoint,
    SpectralCheckpoint,
    load_checkpoint,
    save_checkpoint,
)
from spectralcf.model import ModelConfig, init_params


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


def test_bpr_mf_round_trip(tmp_path):
    rng = np.random.default_rng(0)
    mf = BprMfModel(P_u=rng.standard_normal((4, 3)), Q_i=rng.standard_normal((5, 3)))
    path = tmp_path / "bpr.spck"
    save_checkpoint(BprMfCheckpoint(mf), path)
    back = load_checkpoint(path)
    assert isinstance(back, BprMfCheckpoint)
    assert np.array_equal(back.model.P_u, mf.P_u)
    assert np.array_equal(back.model.Q_i, mf.Q_i)
    # magic, version, tag, then d, n_users, n_items, decay, epsilon, arrays
    assert path.stat().st_size == 4 + 5 + 36 + 8 * (4 + 5) * 3
