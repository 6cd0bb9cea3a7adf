import warnings

import numpy as np
import pytest

from spectralcf import graph, model, training
from spectralcf.errors import NumericError
from spectralcf.model import ModelParams
from spectralcf.training import REG_BATCH_ROWS, REG_FULL, Batch, TrainConfig

from conftest import make_interactions, random_interactions


def kernel_of(ds):
    return graph.conv_kernel(graph.build_graph(ds), None, graph.KERNEL_CLOSED_SPARSE)


def flatten_params(p: ModelParams) -> np.ndarray:
    return np.concatenate([p.X_u0.ravel(), p.X_i0.ravel()] + [t.ravel() for t in p.thetas])


def unflatten_like(vec: np.ndarray, like: ModelParams) -> ModelParams:
    arrays = []
    offset = 0
    for a in [like.X_u0, like.X_i0] + like.thetas:
        arrays.append(vec[offset:offset + a.size].reshape(a.shape))
        offset += a.size
    return ModelParams(arrays[0], arrays[1], arrays[2:])


def fd_gradient(loss_fn, params: ModelParams, step=1e-5) -> np.ndarray:
    """Central finite differences over the flattened parameter vector."""
    x0 = flatten_params(params)
    out = np.zeros_like(x0)
    for idx in range(x0.size):
        xp = x0.copy()
        xp[idx] += step
        xm = x0.copy()
        xm[idx] -= step
        out[idx] = (loss_fn(unflatten_like(xp, params)) - loss_fn(unflatten_like(xm, params))) / (2 * step)
    return out


class TestSampler:
    def test_triples_are_valid(self):
        rng = np.random.default_rng(0)
        for trial in range(10):
            ds = random_interactions(rng, max_users=6, max_items=10, density=0.4)
            batch = training.sample_batch(ds, 64, np.random.default_rng(trial))
            assert all(len(a) == 64 and a.dtype == np.int64 for a in batch)
            for r, j, j_neg in zip(batch.r, batch.j, batch.j_neg):
                items = ds.items_of(r)
                assert j in items
                assert j_neg not in items

    def test_deterministic(self, toy_set):
        a = training.sample_batch(toy_set, 32, np.random.default_rng(9))
        b = training.sample_batch(toy_set, 32, np.random.default_rng(9))
        assert all(np.array_equal(x, y) for x, y in zip(a, b))

    def test_precomputed_tables_draw_the_same_batch(self, toy_set):
        a = training.sample_batch(toy_set, 32, np.random.default_rng(9))
        b = training.sample_batch(toy_set, 32, np.random.default_rng(9),
                                  training.eligible_users(toy_set),
                                  training.pair_keys(toy_set))
        assert all(np.array_equal(x, y) for x, y in zip(a, b))

    def test_saturated_user_excluded_with_warning(self):
        # u1 has every item; only u2 can contribute triples.
        ds = make_interactions(2, 2, {(0, 0), (0, 1), (1, 0)})
        with pytest.warns(UserWarning):
            batch = training.sample_batch(ds, 16, np.random.default_rng(0))
        assert np.array_equal(batch.r, np.ones(16))
        assert np.array_equal(batch.j_neg, np.ones(16))

    def test_near_saturated_user_draws_the_missing_item(self):
        # u1 has every item but i4; u2 keeps a second user in the draw.
        n_items = 12
        pairs = {(0, i) for i in range(n_items) if i != 4} | {(1, 4)}
        ds = make_interactions(2, n_items, pairs)
        batch = training.sample_batch(ds, 2000, np.random.default_rng(5))
        near = batch.r == 0
        assert near.sum() > 900
        assert np.array_equal(batch.j_neg[near], np.full(near.sum(), 4))
        assert not np.isin(4, batch.j_neg[~near])

    def test_draws_are_uniform(self):
        # Users, positives within a user and negatives within the user's
        # complement: every cell within 5% of its expected count.
        pairs = {(0, 0), (0, 3), (0, 5), (1, 1), (1, 2), (2, 0), (2, 1), (2, 6),
                 (2, 7), (3, 4), (3, 6)}
        ds = make_interactions(4, 8, pairs)
        n = 200_000
        batch = training.sample_batch(ds, n, np.random.default_rng(20))

        def within_5pct(counts, expected):
            assert np.all(np.abs(counts - expected) <= 0.05 * expected), counts

        within_5pct(np.bincount(batch.r, minlength=4), n / 4)
        for u in range(4):
            mine = batch.r == u
            items = ds.items_of(u)
            others = np.setdiff1d(np.arange(8), items)
            pos = np.bincount(batch.j[mine], minlength=8)
            neg = np.bincount(batch.j_neg[mine], minlength=8)
            assert pos[others].sum() == 0 and neg[items].sum() == 0
            within_5pct(pos[items], mine.sum() / len(items))
            within_5pct(neg[others], mine.sum() / len(others))

    def test_saturated_user_warned_once_per_run(self):
        ds = make_interactions(2, 2, {(0, 0), (0, 1), (1, 0)})
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            training.train(ds, None, model.ModelConfig(K=0, C=2),
                           TrainConfig(batch_size=4, epochs=3))
        assert sum("every item" in str(w.message) for w in caught) == 1

    def test_no_eligible_user_raises(self):
        ds = make_interactions(1, 2, {(0, 0), (0, 1)})
        with pytest.raises(ValueError):
            training.sample_batch(ds, 8, np.random.default_rng(0))


class TestLoss:
    def _setup(self, seed=0, K=2, C=3, F=3):
        rng = np.random.default_rng(seed)
        ds = random_interactions(rng, max_users=5, max_items=7, density=0.5)
        kern = kernel_of(ds)
        cfg = model.ModelConfig(K=K, C=C, F=F, seed=seed)
        params = model.init_params(cfg, ds.n_users, ds.n_items)
        batch = training.sample_batch(ds, 8, np.random.default_rng(seed + 100))
        return ds, kern, cfg, params, batch

    def test_matches_naive_loop(self):
        for seed in range(5):
            ds, kern, cfg, params, batch = self._setup(seed)
            factors, _ = model.forward(params, kern, cfg)
            reg = 1e-2
            got = training.bpr_loss(factors, batch, reg, REG_FULL)
            expected = 0.0
            for r, j, j_neg in zip(batch.r, batch.j, batch.j_neg):
                diff = factors.V_u[r] @ (factors.V_i[j] - factors.V_i[j_neg])
                expected += -np.log(1.0 / (1.0 + np.exp(-diff)))
            expected += reg * (np.sum(factors.V_u ** 2) + np.sum(factors.V_i ** 2))
            assert got == pytest.approx(expected, rel=1e-10)

    def test_batch_rows_scope_regularizes_touched_rows_only(self):
        ds, kern, cfg, params, batch = self._setup(3)
        factors, _ = model.forward(params, kern, cfg)
        reg = 1e-2
        got = training.bpr_loss(factors, batch, reg, REG_BATCH_ROWS)
        users = set(batch.r.tolist())
        items = set(batch.j.tolist()) | set(batch.j_neg.tolist())
        expected = 0.0
        for r, j, j_neg in zip(batch.r, batch.j, batch.j_neg):
            diff = factors.V_u[r] @ (factors.V_i[j] - factors.V_i[j_neg])
            expected += -np.log(1.0 / (1.0 + np.exp(-diff)))
        expected += reg * sum(np.sum(factors.V_u[u] ** 2) for u in users)
        expected += reg * sum(np.sum(factors.V_i[i] ** 2) for i in items)
        assert got == pytest.approx(expected, rel=1e-10)

    def test_zero_reg_drops_penalty(self):
        ds, kern, cfg, params, batch = self._setup(4)
        factors, _ = model.forward(params, kern, cfg)
        with_reg = training.bpr_loss(factors, batch, 1e-2, REG_FULL)
        without = training.bpr_loss(factors, batch, 0.0, REG_FULL)
        assert without < with_reg


class TestBackward:
    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(42)
        for trial in range(8):
            n_u = int(rng.integers(2, 6))
            n_i = int(rng.integers(3, 8))
            ds = random_interactions(
                rng, max_users=n_u, max_items=n_i, density=0.5,
                min_users=n_u, min_items=n_i,
            )
            K = int(rng.integers(1, 4))
            C = int(rng.integers(2, 5))
            F = int(rng.integers(2, 5))
            reg = float(rng.choice([0.0, 1e-3]))
            scope = REG_FULL if trial % 2 == 0 else REG_BATCH_ROWS
            kern = kernel_of(ds)
            cfg = model.ModelConfig(K=K, C=C, F=F, seed=trial)
            params = model.init_params(cfg, ds.n_users, ds.n_items)
            batch = training.sample_batch(ds, 8, np.random.default_rng(trial))

            def loss_fn(p):
                factors, _ = model.forward(p, kern, cfg)
                return training.bpr_loss(factors, batch, reg, scope)

            _, trace = model.forward(params, kern, cfg)
            analytic = flatten_params(
                training.backward(params, kern, cfg, batch, reg, trace, scope)
            )
            numeric = fd_gradient(loss_fn, params)
            # Absolute floor keeps near-zero gradient entries from blowing up
            # the ratio on finite-difference truncation noise.
            denom = np.maximum(np.abs(numeric), 1e-6)
            assert (np.abs(analytic - numeric) / denom).max() < 1e-4

    def test_scatter_add_matches_add_at_bit_for_bit(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            n_rows, width = int(rng.integers(1, 30)), int(rng.integers(1, 70))
            # Few distinct rows, so most are hit many times.
            rows = rng.integers(n_rows, size=int(rng.integers(0, 400)))
            values = rng.standard_normal((len(rows), width)) * 10.0 ** rng.integers(-8, 8)
            expected = np.zeros((n_rows, width))
            np.add.at(expected, rows, values)
            assert np.array_equal(training.scatter_add(n_rows, rows, values), expected)

    def test_zero_layer_gradient_matches_add_at_reference(self):
        # At K = 0 the gradient of X_u0 / X_i0 is G_V itself (plus the
        # regularizer), so backward must equal the three np.add.at scatters.
        rng = np.random.default_rng(9)
        for trial in range(10):
            n_u, n_i, C = int(rng.integers(2, 6)), int(rng.integers(3, 8)), 5
            cfg = model.ModelConfig(K=0, C=C, seed=trial)
            params = model.init_params(cfg, n_u, n_i)
            size = int(rng.integers(1, 300))
            batch = Batch(rng.integers(n_u, size=size), rng.integers(n_i, size=size),
                          rng.integers(n_i, size=size))
            reg = float(rng.choice([0.0, 1e-3]))
            _, trace = model.forward(params, None, cfg)
            got = training.backward(params, None, cfg, batch, reg, trace, REG_FULL)

            V_u, V_i = params.X_u0, params.X_i0
            r, j, jn = batch
            g = -training._stable_sigmoid_neg(
                np.einsum("ij,ij->i", V_u[r], V_i[j] - V_i[jn]))
            G_V = np.zeros((n_u + n_i, C))
            np.add.at(G_V, r, g[:, None] * (V_i[j] - V_i[jn]))
            np.add.at(G_V, n_u + j, g[:, None] * V_u[r])
            np.add.at(G_V, n_u + jn, -g[:, None] * V_u[r])
            G_V[:n_u] += 2.0 * reg * V_u
            G_V[n_u:] += 2.0 * reg * V_i
            assert np.array_equal(got.X_u0, G_V[:n_u])
            assert np.array_equal(got.X_i0, G_V[n_u:])

    @pytest.mark.filterwarnings("ignore:.*interact with every item")
    def test_shared_terms_change_nothing(self):
        # The training loop hands the loss's terms to backward; the results
        # are those of the standalone calls, bit for bit.
        rng = np.random.default_rng(11)
        for trial in range(6):
            ds = random_interactions(rng, max_users=8, max_items=9, density=0.5)
            cfg = model.ModelConfig(K=trial % 3, C=3, F=2, seed=trial)
            kern = kernel_of(ds) if cfg.K else None
            params = model.init_params(cfg, ds.n_users, ds.n_items)
            batch = training.sample_batch(ds, 16, np.random.default_rng(trial))
            factors, trace = model.forward(params, kern, cfg)
            terms = training._pair_terms(factors, batch)
            assert (training.bpr_loss(factors, batch, 1e-3, REG_FULL, terms=terms)
                    == training.bpr_loss(factors, batch, 1e-3, REG_FULL))
            shared = training.backward(params, kern, cfg, batch, 1e-3, trace, REG_FULL,
                                       terms=terms)
            alone = training.backward(params, kern, cfg, batch, 1e-3, trace, REG_FULL)
            for a, b in zip(shared.arrays(), alone.arrays()):
                assert np.array_equal(a, b)

    def test_requires_trace(self, toy_set):
        cfg = model.ModelConfig(K=1, C=3, F=3, seed=0)
        params = model.init_params(cfg, toy_set.n_users, toy_set.n_items)
        batch = Batch(np.array([0]), np.array([0]), np.array([1]))
        with pytest.raises(ValueError):
            training.backward(params, kernel_of(toy_set), cfg, batch, 0.0, None, REG_FULL)


class TestRmsprop:
    def test_matches_reference_formula(self):
        rng = np.random.default_rng(0)
        params = ModelParams(
            rng.standard_normal((3, 2)), rng.standard_normal((4, 2)),
            [rng.standard_normal((2, 2))],
        )
        grads = ModelParams(
            rng.standard_normal((3, 2)), rng.standard_normal((4, 2)),
            [rng.standard_normal((2, 2))],
        )
        opt = training.init_opt_state(params)
        lr, decay, eps = 1e-2, 0.9, 1e-8
        new_params, new_opt = training.rmsprop_step(params, grads, opt, lr, decay, eps)
        for p, g, acc, p_new, acc_new in [
            (params.X_u0, grads.X_u0, opt.X_u0, new_params.X_u0, new_opt.X_u0),
            (params.X_i0, grads.X_i0, opt.X_i0, new_params.X_i0, new_opt.X_i0),
            (params.thetas[0], grads.thetas[0], opt.thetas[0],
             new_params.thetas[0], new_opt.thetas[0]),
        ]:
            acc_ref = decay * acc + (1 - decay) * g ** 2
            assert np.allclose(acc_new, acc_ref, atol=1e-15)
            assert np.allclose(p_new, p - lr * g / np.sqrt(acc_ref + eps), atol=1e-15)

    def test_inputs_unmodified(self):
        rng = np.random.default_rng(1)
        params = ModelParams(rng.standard_normal((2, 2)), rng.standard_normal((2, 2)), [])
        before = flatten_params(params)
        grads = ModelParams(np.ones((2, 2)), np.ones((2, 2)), [])
        opt = training.init_opt_state(params)
        training.rmsprop_step(params, grads, opt, 1e-2, 0.9, 1e-8)
        assert np.array_equal(flatten_params(params), before)


class TestTrainLoop:
    def test_history_length_and_decrease(self, toy_set):
        cfg = model.ModelConfig(K=2, C=4, F=4, seed=0)
        tc = TrainConfig(batch_size=8, epochs=120, learning_rate=1e-2, reg=1e-3, seed=0)
        _, history = training.train(toy_set, kernel_of(toy_set), cfg, tc)
        assert len(history) == 120
        assert np.mean(history[-12:]) < np.mean(history[:12])

    def test_bit_identical_for_same_seed(self, toy_set):
        cfg = model.ModelConfig(K=2, C=4, F=4, seed=3)
        tc = TrainConfig(batch_size=8, epochs=15, learning_rate=1e-2, reg=1e-3, seed=3)
        a, ha = training.train(toy_set, kernel_of(toy_set), cfg, tc)
        b, hb = training.train(toy_set, kernel_of(toy_set), cfg, tc)
        assert ha == hb
        assert np.array_equal(a.X_u0, b.X_u0)
        assert np.array_equal(a.X_i0, b.X_i0)
        assert all(np.array_equal(x, y) for x, y in zip(a.thetas, b.thetas))

    def test_different_sampling_seed_changes_course(self, toy_set):
        cfg = model.ModelConfig(K=1, C=4, F=4, seed=3)
        kern = kernel_of(toy_set)
        _, ha = training.train(toy_set, kern, cfg, TrainConfig(batch_size=8, epochs=5, seed=3))
        _, hb = training.train(toy_set, kern, cfg, TrainConfig(batch_size=8, epochs=5, seed=4))
        assert ha != hb

    def test_numeric_blowup_reports_epoch(self, toy_set):
        # An absurd learning rate drives the factors non-finite quickly.
        cfg = model.ModelConfig(K=2, C=4, F=4, seed=0)
        tc = TrainConfig(batch_size=8, epochs=4000, learning_rate=1e30, reg=0.0, seed=0)
        try:
            training.train(toy_set, kernel_of(toy_set), cfg, tc)
        except NumericError as exc:
            assert "epoch" in str(exc)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            TrainConfig(batch_size=0)
        with pytest.raises(ValueError):
            TrainConfig(epochs=0)
        with pytest.raises(ValueError):
            TrainConfig(learning_rate=-1.0)
        with pytest.raises(ValueError):
            TrainConfig(reg=-0.1)
        with pytest.raises(ValueError):
            TrainConfig(reg_scope="everything")
