import numpy as np
import pytest

from spectralcf import baselines, training
from spectralcf.model import FactorTable, ModelConfig, ModelParams, forward

from conftest import make_interactions, random_interactions


class TestPopularity:
    def test_counts(self, toy_set):
        table = baselines.popularity_scorer(toy_set)
        assert isinstance(table, FactorTable)
        assert np.array_equal(table.V_u, np.ones((toy_set.n_users, 1)))
        assert table.V_i[:, 0].tolist() == [3.0, 1.0, 1.0, 2.0]
        # Every user's scores are exactly the counts.
        scores = table.V_u @ table.V_i.T
        assert all(row.tolist() == [3.0, 1.0, 1.0, 2.0] for row in scores)


def mf_loss(params, batch, reg):
    """The pairwise loss of BPR-MF: the spectral loss at K = 0."""
    return training.bpr_loss(baselines.bpr_mf_scorer(params), batch, reg)


def mf_gradients(params, batch, reg):
    cfg = ModelConfig(K=0, C=params.X_u0.shape[1])
    _, trace = forward(params, None, cfg)
    grads = training.backward(params, None, cfg, batch, reg, trace)
    return grads.X_u0, grads.X_i0


def flatten_mf(params):
    return np.concatenate([params.X_u0.ravel(), params.X_i0.ravel()])


def unflatten_mf(vec, like):
    n = like.X_u0.size
    return ModelParams(vec[:n].reshape(like.X_u0.shape), vec[n:].reshape(like.X_i0.shape), [])


class TestBprMf:
    def _instance(self, rng):
        ds = random_interactions(rng, max_users=6, max_items=8, density=0.4,
                                 min_users=3, min_items=4)
        d = int(rng.integers(2, 5))
        init = np.random.default_rng(int(rng.integers(1000)))
        params = ModelParams(
            X_u0=init.normal(0.01, 0.02, size=(ds.n_users, d)),
            X_i0=init.normal(0.01, 0.02, size=(ds.n_items, d)),
            thetas=[],
        )
        batch = training.sample_batch(ds, int(rng.integers(3, 9)), rng)
        return ds, params, batch

    def test_loss_matches_naive_loop(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            _, params, batch = self._instance(rng)
            reg = 1e-3
            want = 0.0
            for r, j, j_neg in zip(batch.r, batch.j, batch.j_neg):
                diff = params.X_u0[r] @ (params.X_i0[j] - params.X_i0[j_neg])
                want += float(np.logaddexp(0.0, -diff))
            want += reg * ((params.X_u0 ** 2).sum() + (params.X_i0 ** 2).sum())
            got = mf_loss(params, batch, reg)
            assert got == pytest.approx(want, rel=1e-12)

    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(4)
        step = 1e-5
        for trial in range(6):
            _, params, batch = self._instance(rng)
            reg = 0.0 if trial % 2 == 0 else 1e-3
            G_P, G_Q = mf_gradients(params, batch, reg)
            got = np.concatenate([G_P.ravel(), G_Q.ravel()])
            flat = flatten_mf(params)
            fd = np.zeros_like(flat)
            for idx in range(len(flat)):
                up = flat.copy()
                up[idx] += step
                dn = flat.copy()
                dn[idx] -= step
                fd[idx] = (
                    mf_loss(unflatten_mf(up, params), batch, reg)
                    - mf_loss(unflatten_mf(dn, params), batch, reg)
                ) / (2 * step)
            denom = np.maximum(np.abs(fd), 1e-6)
            assert (np.abs(got - fd) / denom).max() < 1e-4

    def test_fit_is_deterministic(self):
        rng = np.random.default_rng(5)
        ds = random_interactions(rng, max_users=6, max_items=8, density=0.4,
                                 min_users=3, min_items=4)
        cfg = training.TrainConfig(batch_size=4, epochs=10, learning_rate=1e-3,
                                   reg=1e-3, seed=7)
        m1, h1 = baselines.fit_bpr_mf(ds, 3, cfg, init_seed=1)
        m2, h2 = baselines.fit_bpr_mf(ds, 3, cfg, init_seed=1)
        assert h1 == h2
        assert m1.thetas == [] and m1.X_u0.shape == (ds.n_users, 3)
        assert np.array_equal(m1.X_u0, m2.X_u0)
        assert np.array_equal(m1.X_i0, m2.X_i0)

    def test_fit_reduces_loss(self):
        rng = np.random.default_rng(6)
        ds = random_interactions(rng, max_users=8, max_items=10, density=0.4,
                                 min_users=5, min_items=6)
        cfg = training.TrainConfig(batch_size=16, epochs=120, learning_rate=1e-2,
                                   reg=0.0, seed=0)
        _, history = baselines.fit_bpr_mf(ds, 4, cfg)
        assert np.mean(history[-10:]) < np.mean(history[:10])

    def test_d_validation(self):
        ds = make_interactions(2, 2, {(0, 0), (1, 1)})
        cfg = training.TrainConfig(batch_size=2, epochs=1, learning_rate=1e-3,
                                   reg=0.0, seed=0)
        with pytest.raises(ValueError):
            baselines.fit_bpr_mf(ds, 0, cfg)

    def test_scorer_is_dot_product(self):
        rng = np.random.default_rng(7)
        params = ModelParams(X_u0=rng.standard_normal((3, 4)),
                             X_i0=rng.standard_normal((5, 4)), thetas=[])
        table = baselines.bpr_mf_scorer(params)
        # K = 0: the factors are the input embeddings, scored by inner product.
        assert table.V_u is params.X_u0 and table.V_i is params.X_i0


class TestSharedSampler:
    def test_same_seed_same_triples_across_models(self, toy_set):
        """Both models consume the identical triple stream for a given seed."""
        rng_a = np.random.default_rng(42)
        rng_b = np.random.default_rng(42)
        for _ in range(5):
            a = training.sample_batch(toy_set, 6, rng_a)
            b = training.sample_batch(toy_set, 6, rng_b)
            assert all(np.array_equal(x, y) for x, y in zip(a, b))
