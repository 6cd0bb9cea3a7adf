import numpy as np
import pytest

from spectralcf import data, evaluation, model
from spectralcf.errors import NumericError
from spectralcf.evaluation import MAP_DENOM_RELEVANT, MAP_DENOM_TRUNCATED

from conftest import make_interactions, random_interactions


def recall_oracle(ranked, relevant, M):
    top = list(ranked)[:M]
    return sum(1 for x in top if x in relevant) / len(relevant)


def map_oracle(ranked, relevant, M, denom=MAP_DENOM_TRUNCATED):
    hits = 0
    total = 0.0
    for k, item in enumerate(list(ranked)[:M], start=1):
        if item in relevant:
            hits += 1
            total += hits / k
    if denom == MAP_DENOM_TRUNCATED:
        return total / min(len(relevant), M)
    return total / len(relevant)


def score_table(table):
    """A table of scores (users x items) as a FactorTable: ``table @ I`` is
    exact for finite scores, and a NaN or inf still makes its row non-finite."""
    return model.FactorTable(V_u=table, V_i=np.eye(table.shape[1]))


def naive_rows(score_fn, split, cutoffs, denom=MAP_DENOM_TRUNCATED):
    """Plain-python per-user metrics, in the layout of ``EvalReport.per_user``."""
    train = split.train
    rows = []
    for u in range(train.n_users):
        relevant = set(split.test.items_of(u).tolist())
        if not relevant:
            continue
        seen = set(int(i) for i in train.items_of(u))
        scores = score_fn(u)
        candidates = [i for i in range(train.n_items) if i not in seen]
        ranked = sorted(candidates, key=lambda i: (-scores[i], i))
        row = {"user": u, "n_test": len(relevant)}
        for m in cutoffs:
            row[f"recall@{m}"] = recall_oracle(ranked, relevant, m)
            row[f"map@{m}"] = map_oracle(ranked, relevant, m, denom)
        rows.append(row)
    return rows


def naive_evaluate(score_fn, split, cutoffs, denom=MAP_DENOM_TRUNCATED):
    """Plain-python re-implementation used as the oracle: per-user values
    summed one user after another in ascending order, then averaged."""
    rows = naive_rows(score_fn, split, cutoffs, denom)

    def mean(key):
        total = 0.0
        for row in rows:
            total += row[key]
        return total / len(rows)

    return (
        {m: mean(f"recall@{m}") for m in cutoffs},
        {m: mean(f"map@{m}") for m in cutoffs},
        len(rows),
    )


class TestMetricPrimitives:
    def test_recall_hand_case(self):
        assert evaluation.recall_at_m([5, 2, 9, 1], {2, 1, 7}, 3) == pytest.approx(1 / 3)

    def test_map_hand_case(self):
        # Relevant at ranks 1 and 3 of the top-3: (1/1 + 2/3) / min(2, 3).
        got = evaluation.map_at_m([4, 8, 6], {4, 6}, 3)
        assert got == pytest.approx((1.0 + 2 / 3) / 2)

    def test_map_denominator_variants(self):
        ranked = [4, 8, 6, 1, 2]
        relevant = {4, 6, 1, 2, 9, 11}
        trunc = evaluation.map_at_m(ranked, relevant, 3, MAP_DENOM_TRUNCATED)
        rel = evaluation.map_at_m(ranked, relevant, 3, MAP_DENOM_RELEVANT)
        assert trunc == pytest.approx((1.0 + 2 / 3) / 3)
        assert rel == pytest.approx((1.0 + 2 / 3) / 6)

    def test_empty_relevant_rejected(self):
        with pytest.raises(ValueError):
            evaluation.recall_at_m([1], set(), 1)
        with pytest.raises(ValueError):
            evaluation.map_at_m([1], set(), 1)

    def test_perfect_ranking(self):
        assert evaluation.recall_at_m([3, 1], {3, 1}, 2) == 1.0
        assert evaluation.map_at_m([3, 1], {3, 1}, 2) == 1.0

    def test_agrees_with_oracle_on_random_instances(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            n = int(rng.integers(3, 30))
            ranked = list(rng.permutation(n))
            relevant = set(
                int(x) for x in rng.choice(n, size=int(rng.integers(1, n)), replace=False)
            )
            m = int(rng.integers(1, n + 2))
            assert evaluation.recall_at_m(ranked, relevant, m) == recall_oracle(ranked, relevant, m)
            for denom in (MAP_DENOM_TRUNCATED, MAP_DENOM_RELEVANT):
                assert evaluation.map_at_m(ranked, relevant, m, denom) == map_oracle(
                    ranked, relevant, m, denom
                )


class TestEvaluate:
    def _random_split(self, rng):
        ds = random_interactions(rng, max_users=8, max_items=12, density=0.5,
                                 min_users=4, min_items=6)
        return data.split_standard(ds, 0.6, rng_seed=int(rng.integers(1000)))

    def test_matches_naive_evaluator(self):
        rng = np.random.default_rng(1)
        for trial in range(30):
            split = self._random_split(rng)
            n_items = split.train.n_items
            table = rng.standard_normal((split.train.n_users, n_items))
            cutoffs = [1, 3, 5]
            report = evaluation.evaluate(score_table(table), split, cutoffs)
            recall_ref, map_ref, n_ref = naive_evaluate(lambda u: table[u], split, cutoffs)
            assert report.n_evaluable_users == n_ref
            for m in cutoffs:
                assert report.recall_at[m] == pytest.approx(recall_ref[m], abs=1e-12)
                assert report.map_at[m] == pytest.approx(map_ref[m], abs=1e-12)

    def test_factor_table_scorer(self):
        rng = np.random.default_rng(2)
        split = self._random_split(rng)
        f = model.FactorTable(
            V_u=rng.standard_normal((split.train.n_users, 5)),
            V_i=rng.standard_normal((split.train.n_items, 5)),
        )
        report = evaluation.evaluate(f, split, [3])
        ref, _, _ = naive_evaluate(lambda u: f.V_i @ f.V_u[u], split, [3])
        assert report.recall_at[3] == pytest.approx(ref[3], abs=1e-12)

    def test_score_order_invariance(self):
        rng = np.random.default_rng(3)
        split = self._random_split(rng)
        table = rng.standard_normal((split.train.n_users, split.train.n_items))
        a = evaluation.evaluate(score_table(table), split, [2, 4])
        b = evaluation.evaluate(score_table(np.exp(table * 3)), split, [2, 4])
        assert a.recall_at == b.recall_at
        assert a.map_at == b.map_at

    def test_users_without_test_items_skipped(self):
        ds = make_interactions(2, 3, {(0, 0), (0, 1), (0, 2), (1, 0)})
        split = data.split_standard(ds, 0.7, rng_seed=0)
        # User 1 has a single interaction, so it stays in train only.
        report = evaluation.evaluate(
            score_table(np.zeros((split.train.n_users, split.train.n_items))), split, [2]
        )
        assert report.n_evaluable_users + report.n_skipped_users == 2
        assert report.n_skipped_users >= 1

    def test_perfect_scorer_maxes_metrics(self):
        rng = np.random.default_rng(4)
        split = self._random_split(rng)
        n_items = split.train.n_items
        oracle = score_table(split.test.to_csr().toarray().astype(float))
        big_m = n_items
        report = evaluation.evaluate(oracle, split, [big_m])
        assert report.recall_at[big_m] == pytest.approx(1.0)
        report_small = evaluation.evaluate(oracle, split, [1])
        assert report_small.map_at[1] == pytest.approx(1.0)

    def test_per_user_breakdown(self):
        rng = np.random.default_rng(5)
        split = self._random_split(rng)
        table = rng.standard_normal((split.train.n_users, split.train.n_items))
        report = evaluation.evaluate(score_table(table), split, [2], keep_per_user=True)
        assert len(report.per_user) == report.n_evaluable_users
        for row in report.per_user:
            assert "recall@2" in row and "map@2" in row


class TestBlockwiseEvaluate:
    """The block ranker against the plain-python oracle, to the last bit."""

    def _split(self, rng, max_users=40):
        ds = random_interactions(rng, max_users=max_users, max_items=15, density=0.45,
                                 min_users=12, min_items=5)
        return data.split_standard(ds, 0.6, rng_seed=int(rng.integers(1000)))

    def test_integer_scores_match_oracle_exactly(self, monkeypatch):
        rng = np.random.default_rng(11)
        for trial in range(25):
            split = self._split(rng)
            n_items = split.train.n_items
            # Few distinct integer scores force ties inside every ranking.
            table = rng.integers(0, 3, size=(split.train.n_users, n_items)).astype(float)
            scorer = lambda u: table[u]  # the oracle's view of the same scores
            # The last cutoff exceeds every user's candidate count.
            cutoffs = [1, 2, 5, n_items + 2]
            block_rows = int(rng.integers(1, 5))
            monkeypatch.setattr(evaluation, "BLOCK_ROWS", block_rows)
            for denom in (MAP_DENOM_TRUNCATED, MAP_DENOM_RELEVANT):
                report = evaluation.evaluate(score_table(table), split, cutoffs,
                                             keep_per_user=True, map_denom=denom)
                assert report.n_evaluable_users > block_rows  # crosses a block boundary
                recall_ref, map_ref, n_ref = naive_evaluate(scorer, split, cutoffs, denom)
                assert report.n_evaluable_users == n_ref
                assert report.recall_at == recall_ref
                assert report.map_at == map_ref
                assert report.per_user == naive_rows(scorer, split, cutoffs, denom)

    def test_factor_table_matches_callable_and_block_size(self, monkeypatch):
        """Narrow factors against their product as a score table (what a
        per-user callable used to return), over several block sizes."""
        rng = np.random.default_rng(12)
        split = self._split(rng)
        f = model.FactorTable(
            V_u=rng.integers(-2, 3, size=(split.train.n_users, 3)).astype(float),
            V_i=rng.integers(-2, 3, size=(split.train.n_items, 3)).astype(float),
        )
        cutoffs = [1, 4, 30]
        ref = evaluation.evaluate(score_table(f.V_u @ f.V_i.T), split, cutoffs,
                                  keep_per_user=True)
        for block_rows in (1, 2, 7, 512):
            monkeypatch.setattr(evaluation, "BLOCK_ROWS", block_rows)
            got = evaluation.evaluate(f, split, cutoffs, keep_per_user=True)
            assert got == ref

    def test_non_finite_scores_rejected(self):
        rng = np.random.default_rng(13)
        split = self._split(rng)
        user = int(np.flatnonzero(np.diff(split.test.indptr))[-1])
        for bad in (np.nan, np.inf, -np.inf):
            f = model.FactorTable(V_u=rng.standard_normal((split.train.n_users, 4)),
                                  V_i=rng.standard_normal((split.train.n_items, 4)))
            f.V_u[user, 0] = bad
            with pytest.raises(NumericError):
                evaluation.evaluate(f, split, [3])
        table = rng.standard_normal((split.train.n_users, split.train.n_items))
        for bad in (np.nan, np.inf):
            table[user, 0] = bad
            with pytest.raises(NumericError):
                evaluation.evaluate(score_table(table), split, [3])

    def test_unknown_map_denom_rejected(self):
        split = self._split(np.random.default_rng(14))
        scores = score_table(np.zeros((split.train.n_users, split.train.n_items)))
        with pytest.raises(ValueError, match="map_denom"):
            evaluation.evaluate(scores, split, [3], map_denom="relevent")


class TestReportFile:
    def test_layout_and_values(self, tmp_path):
        report = evaluation.EvalReport(
            cutoffs=[5, 10],
            recall_at={5: 0.25, 10: 0.5},
            map_at={5: 0.1, 10: 0.125},
            n_evaluable_users=4,
            n_skipped_users=1,
        )
        path = tmp_path / "report.tsv"
        evaluation.save_report(report, path, header={"note": "fixture"})
        lines = path.read_text().splitlines()
        meta = [ln for ln in lines if ln.startswith("#")]
        body = [ln for ln in lines if not ln.startswith("#")]
        assert any("note=fixture" in ln for ln in meta)
        assert body[0].split("\t") == ["5", "recall", f"{0.25:.10f}"]
        assert ["10", "map", f"{0.125:.10f}"] in [ln.split("\t") for ln in body]
