import numpy as np
import pytest

from spectralcf import graph, model
from spectralcf.errors import DimensionError, NumericError

from conftest import random_interactions


def toy_kernel(ds):
    return graph.conv_kernel(graph.build_graph(ds), None, graph.KERNEL_CLOSED_SPARSE)


class TestConfig:
    def test_factor_width(self):
        cfg = model.ModelConfig(K=3, C=16, F=16)
        assert cfg.factor_width == 16 + 3 * 16

    def test_shapes(self):
        cfg = model.ModelConfig(K=3, C=5, F=4)
        assert cfg.shapes(7, 9) == [(7, 5), (9, 5), (5, 4), (4, 4), (4, 4)]
        assert model.ModelConfig(K=0, C=5).shapes(7, 9) == [(7, 5), (9, 5)]

    def test_rejects_bad_values(self):
        with pytest.raises(ValueError):
            model.ModelConfig(K=-1, C=4, F=4)
        with pytest.raises(ValueError):
            model.ModelConfig(K=2, C=0, F=4)


class TestInit:
    def test_shapes(self):
        cfg = model.ModelConfig(K=3, C=5, F=4, seed=0)
        params = model.init_params(cfg, n_users=7, n_items=9)
        assert params.X_u0.shape == (7, 5)
        assert params.X_i0.shape == (9, 5)
        assert params.thetas[0].shape == (5, 4)
        for theta in params.thetas[1:]:
            assert theta.shape == (4, 4)
        params.validate_shapes(cfg)

    def test_arrays_round_trip_in_shapes_order(self):
        cfg = model.ModelConfig(K=2, C=3, F=2, seed=0)
        params = model.init_params(cfg, n_users=4, n_items=5)
        arrays = params.arrays()
        assert [a.shape for a in arrays] == cfg.shapes(4, 5)
        again = model.ModelParams.from_arrays(arrays).arrays()
        assert all(a is b for a, b in zip(arrays, again))

    def test_validate_shapes_names_both_layouts(self):
        cfg = model.ModelConfig(K=2, C=3, F=2, seed=0)
        params = model.init_params(cfg, n_users=4, n_items=5)
        params.thetas[1] = np.zeros((3, 2))
        with pytest.raises(DimensionError, match=r"expected .*\(2, 2\)\].*got .*\(3, 2\)\]"):
            params.validate_shapes(cfg)
        with pytest.raises(DimensionError):
            model.init_params(cfg, 4, 5).validate_shapes(model.ModelConfig(K=1, C=3, F=2))

    def test_distribution(self):
        # Large sample so the first two moments are tight.
        cfg = model.ModelConfig(K=1, C=400, F=4, seed=1)
        params = model.init_params(cfg, n_users=400, n_items=4)
        draws = params.X_u0.ravel()
        assert abs(draws.mean() - 0.01) < 2e-4
        assert abs(draws.std() - 0.02) < 2e-4

    def test_deterministic(self):
        cfg = model.ModelConfig(K=2, C=4, F=4, seed=5)
        a = model.init_params(cfg, 3, 4)
        b = model.init_params(cfg, 3, 4)
        assert np.array_equal(a.X_u0, b.X_u0)
        assert np.array_equal(a.X_i0, b.X_i0)
        assert all(np.array_equal(x, y) for x, y in zip(a.thetas, b.thetas))

    def test_seed_changes_draws(self):
        cfg_a = model.ModelConfig(K=2, C=4, F=4, seed=5)
        cfg_b = model.ModelConfig(K=2, C=4, F=4, seed=6)
        assert not np.array_equal(
            model.init_params(cfg_a, 3, 4).X_u0, model.init_params(cfg_b, 3, 4).X_u0
        )


class TestForward:
    def test_output_widths(self):
        rng = np.random.default_rng(0)
        ds = random_interactions(rng)
        cfg = model.ModelConfig(K=3, C=4, F=5, seed=0)
        params = model.init_params(cfg, ds.n_users, ds.n_items)
        factors, trace = model.forward(params, toy_kernel(ds), cfg)
        width = cfg.factor_width
        assert factors.V_u.shape == (ds.n_users, width)
        assert factors.V_i.shape == (ds.n_items, width)
        assert len(trace.xs) == cfg.K + 1

    def test_layers_are_sigmoid_bounded(self):
        rng = np.random.default_rng(1)
        ds = random_interactions(rng)
        cfg = model.ModelConfig(K=2, C=4, F=4, seed=2)
        params = model.init_params(cfg, ds.n_users, ds.n_items)
        _, trace = model.forward(params, toy_kernel(ds), cfg)
        for x in trace.xs[1:]:
            assert (x > 0).all() and (x < 1).all()

    def test_concatenation_order(self):
        rng = np.random.default_rng(2)
        ds = random_interactions(rng)
        cfg = model.ModelConfig(K=2, C=3, F=4, seed=3)
        params = model.init_params(cfg, ds.n_users, ds.n_items)
        factors, trace = model.forward(params, toy_kernel(ds), cfg)
        nu = ds.n_users
        stacked = np.hstack(trace.xs)
        assert np.array_equal(factors.V_u, stacked[:nu])
        assert np.array_equal(factors.V_i, stacked[nu:])
        assert np.array_equal(trace.xs[0][:nu], params.X_u0)

    def test_manual_one_layer(self):
        # Hand-rolled single layer: X1 = sigmoid(kernel @ X0 @ theta).
        rng = np.random.default_rng(3)
        ds = random_interactions(rng)
        kernel = toy_kernel(ds)
        cfg = model.ModelConfig(K=1, C=4, F=4, seed=4)
        params = model.init_params(cfg, ds.n_users, ds.n_items)
        factors, _ = model.forward(params, kernel, cfg)
        x0 = np.vstack([params.X_u0, params.X_i0])
        x1 = model.sigmoid(kernel.matrix @ x0 @ params.thetas[0])
        assert np.allclose(factors.V_u, np.hstack([x0, x1])[: ds.n_users])

    def test_zero_layers_need_no_kernel(self):
        cfg = model.ModelConfig(K=0, C=3, seed=6)
        assert cfg.factor_width == 3
        params = model.init_params(cfg, 4, 5)
        assert params.thetas == []
        factors, trace = model.forward(params, None, cfg)
        assert np.array_equal(factors.V_u, params.X_u0)
        assert np.array_equal(factors.V_i, params.X_i0)
        assert trace.kxs == []

    def test_kernel_mismatch(self):
        rng = np.random.default_rng(4)
        ds_a = random_interactions(rng, max_users=4, max_items=4)
        ds_b = random_interactions(rng, max_users=7, max_items=8, min_users=5, min_items=5)
        cfg = model.ModelConfig(K=1, C=3, F=3, seed=0)
        params = model.init_params(cfg, ds_a.n_users, ds_a.n_items)
        with pytest.raises(DimensionError):
            model.forward(params, toy_kernel(ds_b), cfg)

    def test_nonfinite_input_raises(self):
        rng = np.random.default_rng(5)
        ds = random_interactions(rng)
        cfg = model.ModelConfig(K=1, C=3, F=3, seed=0)
        params = model.init_params(cfg, ds.n_users, ds.n_items)
        params.X_u0[0, 0] = np.nan
        with pytest.raises(NumericError):
            model.forward(params, toy_kernel(ds), cfg)


class TestScoring:
    def _factors(self, seed=0):
        rng = np.random.default_rng(seed)
        V_u = rng.standard_normal((4, 6))
        V_i = rng.standard_normal((5, 6))
        return model.FactorTable(V_u=V_u, V_i=V_i)

    def test_score_is_dot_product(self):
        f = self._factors()
        assert f.V_u[2] @ f.V_i[3] == pytest.approx(model.score(f, 2, 3))

    def test_score_index_bounds(self):
        f = self._factors()
        with pytest.raises(DimensionError):
            model.score(f, 4, 0)
        with pytest.raises(DimensionError):
            model.score(f, 0, 5)

    def test_top_m_excludes_and_orders(self):
        f = self._factors(1)
        exclude = [1, 3]
        ranked = model.top_m(f.V_i @ f.V_u[0], exclude, M=5)
        assert not set(ranked) & set(exclude)
        scores = [model.score(f, 0, i) for i in ranked]
        assert scores == sorted(scores, reverse=True)

    def test_top_m_tie_break_ascending_index(self):
        V_u = np.ones((1, 2))
        V_i = np.array([[1.0, 0.0], [0.5, 0.5], [0.0, 1.0]])  # all score 1.0
        f = model.FactorTable(V_u=V_u, V_i=V_i)
        assert list(model.top_m(f.V_i @ f.V_u[0], [], M=3)) == [0, 1, 2]

    def test_top_m_truncates(self):
        f = self._factors(2)
        scores = f.V_i @ f.V_u[0]
        assert len(model.top_m(scores, [], M=2)) == 2
        assert len(model.top_m(scores, [0, 1, 2, 3], M=10)) == 1

    def test_top_m_never_returns_excluded(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            n = int(rng.integers(1, 12))
            scores = rng.standard_normal(n)
            if rng.random() < 0.3:
                scores[:] = 0.5  # every score ties
            exclude = np.flatnonzero(rng.random(n) < 0.5)
            M = int(rng.integers(1, n + 3))
            ranked = model.top_m(scores, exclude, M)
            assert not set(ranked.tolist()) & set(exclude.tolist())
            assert len(ranked) == min(M, n - len(exclude))

    def test_top_m_everything_excluded(self):
        scores = np.array([3.0, 1.0, 2.0])
        assert len(model.top_m(scores, [0, 1, 2], M=3)) == 0
        assert len(model.top_m(np.full(4, 1.0), np.arange(4), M=2)) == 0

    def test_top_m_rejects_bad_m(self):
        with pytest.raises(ValueError):
            model.top_m(np.zeros(3), [], M=0)

    def test_top_m_rejects_non_finite_scores(self):
        for bad in (np.nan, np.inf, -np.inf):
            scores = np.array([1.0, bad, 0.5])
            with pytest.raises(NumericError):
                model.top_m(scores, [], M=2)
            # Excluded or not, a non-finite score is an error.
            with pytest.raises(NumericError):
                model.top_m(scores, [1], M=2)

    def test_top_m_rows_matches_sorted_oracle_row_by_row(self):
        rng = np.random.default_rng(7)
        for _ in range(60):
            n_rows, n = int(rng.integers(1, 9)), int(rng.integers(1, 14))
            scores = rng.integers(0, 4, size=(n_rows, n)).astype(float)
            scores[rng.random(n_rows) < 0.3] = 0.25  # rows where every score ties
            exclude = rng.random((n_rows, n)) < 0.4
            M = int(rng.integers(1, n + 3))
            ranked = model.top_m_rows(scores, *csr_rows(exclude), M)
            assert ranked.shape == (n_rows, min(M, n))
            for row, mask, got in zip(scores, exclude, ranked):
                kept = [i for i in range(n) if not mask[i]]
                expected = sorted(kept, key=lambda i: (-row[i], i))[:M]
                assert got[:len(expected)].tolist() == expected
                assert (got[len(expected):] == -1).all()
                assert model.top_m(row, np.flatnonzero(mask), M).tolist() == expected


    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("block", [
        "boundary-ties", "all-equal", "signed-zeros", "excluded-and-short", "no-rows",
        "m-past-items", "float-512x533",
    ])
    def test_top_m_rows_matches_the_lexsort_ranker(self, block, seed):
        scores, exclude, M = ranker_block(block, np.random.default_rng(seed))
        got = model.top_m_rows(scores, *csr_rows(exclude), M)
        expected = lexsort_top_m_rows(scores, exclude, M)
        assert got.dtype == expected.dtype and got.shape == expected.shape
        assert np.array_equal(got, expected)

    def test_top_m_rows_reads_any_csr_rows_of_the_mask(self):
        """Tie-heavy blocks whose exclusions come as CSR rows with repeated
        and unordered items, an indptr that starts past 0, rows that exclude
        everything or nothing, no rows at all and M past the item count: the
        list is the lexsort ranker's on the same mask."""
        rng = np.random.default_rng(21)
        kinds = set()
        for _ in range(300):
            n_rows, n = int(rng.integers(0, 12)), int(rng.integers(1, 16))
            scores = rng.integers(0, 3, size=(n_rows, n)).astype(float)
            exclude = rng.random((n_rows, n)) < rng.random()
            exclude[rng.random(n_rows) < 0.2] = True
            exclude[rng.random(n_rows) < 0.2] = False
            M = int(rng.integers(1, n + 4))
            offset = int(rng.integers(0, 4))
            rows = [rng.permutation(np.concatenate([items, rng.choice(items, size=len(items))]))
                    if len(items) else items for items in map(np.flatnonzero, exclude)]
            lengths = [len(items) for items in rows]
            indptr = offset + np.concatenate([[0], np.cumsum(lengths, dtype=np.int64)])
            indices = np.concatenate([rng.integers(0, n, size=offset), *rows, [0, 0]]
                                     ).astype(np.int64)
            got = model.top_m_rows(scores, indptr, indices, M)
            assert np.array_equal(got, lexsort_top_m_rows(scores, exclude, M))
            kinds.update(kind for kind, present in [
                ("no-rows", not n_rows), ("m-past-items", M > n),
                ("all-excluded", exclude.all(axis=1).any()),
                ("none-excluded", (~exclude).all(axis=1).any()),
                ("repeats", sum(lengths) > exclude.sum())] if present)
        assert kinds == {"no-rows", "m-past-items", "all-excluded", "none-excluded", "repeats"}


def csr_rows(exclude):
    """The rows of a boolean mask as CSR arrays (indptr, indices)."""
    indptr = np.concatenate([[0], np.cumsum(exclude.sum(axis=1), dtype=np.int64)])
    return indptr, np.nonzero(exclude)[1]


def lexsort_top_m_rows(scores, exclude, M):
    """The block ranker as it was before its per-row sort, kept as the
    oracle: one stable lexsort of every candidate of the block by (row,
    -score), then a scatter into the -1-padded result."""
    scores = np.asarray(scores, dtype=np.float64)
    n_rows, n_items = scores.shape
    width = min(M, n_items)
    masked = np.where(exclude, -np.inf, scores)
    kth = np.partition(masked, n_items - width, axis=1)[:, n_items - width]
    rows, cols = np.divmod(np.flatnonzero((masked >= kth[:, None]) & ~exclude), n_items)
    order = np.lexsort((-masked[rows, cols], rows))
    rows, cols = rows[order], cols[order]
    counts = np.bincount(rows, minlength=n_rows)
    rank = np.arange(len(rows)) - (np.cumsum(counts) - counts)[rows]
    keep = rank < width
    ranked = np.full((n_rows, width), -1, dtype=np.int64)
    ranked[rows[keep], rank[keep]] = cols[keep]
    return ranked


def candidate_counts(scores, exclude, M):
    """Per row, how many items score at least the row's width-th value."""
    width = min(M, scores.shape[1])
    masked = np.where(exclude, -np.inf, scores)
    kth = np.sort(masked, axis=1)[:, scores.shape[1] - width]
    return ((masked >= kth[:, None]) & ~exclude).sum(axis=1), width


def ranker_block(name, rng):
    """(scores, exclude, M) for one kind of block the ranker must handle."""
    if name == "boundary-ties":
        # Odd rows draw from four values, so ties straddle the width boundary
        # there and a row holds more candidates than the width; even rows
        # have distinct scores.
        scores = rng.standard_normal((64, 30))
        scores[1::2] = rng.integers(0, 4, size=(32, 30))
        exclude, M = rng.random((64, 30)) < 0.2, 10
        counts, width = candidate_counts(scores, exclude, M)
        assert (counts[1::2] > width).any() and (counts[::2] == width).all()
    elif name == "all-equal":
        scores, exclude, M = np.full((16, 20), 0.25), rng.random((16, 20)) < 0.3, 7
    elif name == "signed-zeros":
        scores = rng.choice([-0.0, 0.0, 1.0, -1.0], size=(32, 12))
        exclude, M = rng.random((32, 12)) < 0.2, 5
    elif name == "excluded-and-short":
        scores = rng.integers(0, 3, size=(24, 15)).astype(float)
        exclude = np.zeros((24, 15), dtype=bool)
        exclude[::3] = True  # every item excluded
        exclude[1::3, 3:] = True  # three candidates against a width of 12
        M = 12
    elif name == "no-rows":
        scores, exclude, M = np.zeros((0, 9)), np.zeros((0, 9), dtype=bool), 4
    elif name == "m-past-items":
        scores = rng.integers(0, 2, size=(8, 6)).astype(float)
        exclude, M = rng.random((8, 6)) < 0.3, 20
    else:
        scores = rng.standard_normal((512, 64)) @ rng.standard_normal((64, 533))
        exclude, M = rng.random((512, 533)) < 0.1, 100
    return scores, exclude, M

class TestSigmoid:
    def test_extreme_inputs_stay_finite(self):
        out = model.sigmoid(np.array([-1e9, -710.0, 0.0, 710.0, 1e9]))
        assert np.isfinite(out).all()
        assert out[0] == 0.0 or out[0] < 1e-200
        assert out[-1] == 1.0
        assert out[2] == 0.5
