import numpy as np
import pytest

from spectralcf import baselines, training
from spectralcf.baselines import BprMfModel
from spectralcf.model import FactorTable, ModelConfig, ModelParams, forward

from conftest import make_interactions, random_interactions


def dense_cosine_oracle(train):
    """Item-item cosine over 0/1 interaction columns, diagonal zeroed."""
    R = np.zeros((train.n_users, train.n_items))
    for u in range(train.n_users):
        R[u, train.items_of(u)] = 1.0
    sim = np.zeros((train.n_items, train.n_items))
    for i in range(train.n_items):
        for j in range(train.n_items):
            if i == j:
                continue
            num = float(R[:, i] @ R[:, j])
            den = np.linalg.norm(R[:, i]) * np.linalg.norm(R[:, j])
            sim[i, j] = num / den
    return sim


class TestItemKnn:
    def test_full_similarity_matches_dense_oracle(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            ds = random_interactions(rng, max_users=7, max_items=9, density=0.4)
            model = baselines.fit_itemknn(ds, k_neighbors=ds.n_items)
            got = model.similarity.toarray()
            want = dense_cosine_oracle(ds)
            assert np.allclose(got, want, atol=1e-12)

    def test_topk_truncation(self):
        rng = np.random.default_rng(1)
        ds = random_interactions(rng, max_users=10, max_items=12, density=0.5,
                                 min_users=6, min_items=8)
        k = 3
        model = baselines.fit_itemknn(ds, k_neighbors=k)
        sim = model.similarity.toarray()
        kept = model.neighbor_sim.toarray()
        for i in range(ds.n_items):
            row = sim[i]
            nz = np.nonzero(kept[i])[0]
            assert len(nz) <= k
            # Kept entries carry the original values and are all positive.
            assert np.allclose(kept[i, nz], row[nz])
            assert (kept[i, nz] > 0).all()
            # No discarded entry may beat the smallest kept one.
            if len(nz) == k:
                dropped = np.setdiff1d(np.arange(ds.n_items), nz)
                dropped = dropped[dropped != i]
                if len(dropped):
                    assert row[dropped].max() <= kept[i, nz].min() + 1e-12

    def test_tie_break_keeps_lowest_index(self):
        # Items 1 and 2 have identical columns, so sim(0,1) == sim(0,2);
        # with k=1 the retained neighbor of item 0 must be item 1.
        ds = make_interactions(3, 3, {(0, 0), (0, 1), (0, 2), (1, 1), (1, 2), (2, 0)})
        model = baselines.fit_itemknn(ds, k_neighbors=1)
        kept = model.neighbor_sim.toarray()
        assert kept[0, 1] > 0
        assert kept[0, 2] == 0

    def test_scoring_sums_neighbor_similarities(self):
        rng = np.random.default_rng(2)
        ds = random_interactions(rng, max_users=6, max_items=8, density=0.4)
        model = baselines.fit_itemknn(ds, k_neighbors=4)
        kept = model.neighbor_sim.toarray()
        scorer = baselines.itemknn_scorer(model, ds)
        for u in range(ds.n_users):
            vec = scorer(u)
            for i in range(ds.n_items):
                want = kept[i, ds.items_of(u)].sum()
                assert baselines.score_itemknn(model, ds, u, i) == pytest.approx(want)
                assert vec[i] == pytest.approx(want)

    def test_k_validation(self):
        ds = make_interactions(2, 2, {(0, 0), (1, 1)})
        with pytest.raises(ValueError):
            baselines.fit_itemknn(ds, k_neighbors=0)


class TestPopularity:
    def test_counts(self, toy_set):
        scorer = baselines.popularity_scorer(toy_set)
        counts = scorer(0)
        assert counts.tolist() == [3.0, 1.0, 1.0, 2.0]
        # Identical for every user.
        assert np.array_equal(scorer(1), counts)


def mf_loss(model, batch, reg):
    """The pairwise loss of BPR-MF: the spectral loss at K = 0."""
    return training.bpr_loss(FactorTable(V_u=model.P_u, V_i=model.Q_i), batch, reg)


def mf_gradients(model, batch, reg):
    params = ModelParams(X_u0=model.P_u, X_i0=model.Q_i, thetas=[])
    cfg = ModelConfig(K=0, C=model.d)
    _, trace = forward(params, None, cfg)
    grads = training.backward(params, None, cfg, batch, reg, trace)
    return grads.X_u0, grads.X_i0


def flatten_mf(model):
    return np.concatenate([model.P_u.ravel(), model.Q_i.ravel()])


def unflatten_mf(vec, like):
    n = like.P_u.size
    P = vec[:n].reshape(like.P_u.shape)
    Q = vec[n:].reshape(like.Q_i.shape)
    return BprMfModel(P, Q)


class TestBprMf:
    def _instance(self, rng):
        ds = random_interactions(rng, max_users=6, max_items=8, density=0.4,
                                 min_users=3, min_items=4)
        d = int(rng.integers(2, 5))
        init = np.random.default_rng(int(rng.integers(1000)))
        model = BprMfModel(
            P_u=init.normal(0.01, 0.02, size=(ds.n_users, d)),
            Q_i=init.normal(0.01, 0.02, size=(ds.n_items, d)),
        )
        batch = training.sample_batch(ds, int(rng.integers(3, 9)), rng)
        return ds, model, batch

    def test_loss_matches_naive_loop(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            _, model, batch = self._instance(rng)
            reg = 1e-3
            want = 0.0
            for t in batch:
                diff = model.P_u[t.r] @ (model.Q_i[t.j] - model.Q_i[t.j_neg])
                want += float(np.logaddexp(0.0, -diff))
            want += reg * ((model.P_u ** 2).sum() + (model.Q_i ** 2).sum())
            got = mf_loss(model, batch, reg)
            assert got == pytest.approx(want, rel=1e-12)

    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(4)
        step = 1e-5
        for trial in range(6):
            _, model, batch = self._instance(rng)
            reg = 0.0 if trial % 2 == 0 else 1e-3
            G_P, G_Q = mf_gradients(model, batch, reg)
            got = np.concatenate([G_P.ravel(), G_Q.ravel()])
            flat = flatten_mf(model)
            fd = np.zeros_like(flat)
            for idx in range(len(flat)):
                up = flat.copy()
                up[idx] += step
                dn = flat.copy()
                dn[idx] -= step
                fd[idx] = (
                    mf_loss(unflatten_mf(up, model), batch, reg)
                    - mf_loss(unflatten_mf(dn, model), batch, reg)
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
        assert np.array_equal(m1.P_u, m2.P_u)
        assert np.array_equal(m1.Q_i, m2.Q_i)

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
        model = BprMfModel(P_u=rng.standard_normal((3, 4)),
                           Q_i=rng.standard_normal((5, 4)))
        scorer = baselines.bpr_mf_scorer(model)
        for u in range(3):
            assert np.allclose(scorer(u), model.Q_i @ model.P_u[u])


class TestSharedSampler:
    def test_same_seed_same_triples_across_models(self, toy_set):
        """Both models consume the identical triple stream for a given seed."""
        rng_a = np.random.default_rng(42)
        rng_b = np.random.default_rng(42)
        for _ in range(5):
            a = training.sample_batch(toy_set, 6, rng_a)
            b = training.sample_batch(toy_set, 6, rng_b)
            assert a == b
