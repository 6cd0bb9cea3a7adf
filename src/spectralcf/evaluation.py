"""Top-M ranking metrics over a train/test split.

Each evaluable user (non-empty test set) has all items ranked with their
training items excluded; Recall@M and truncated average precision are
averaged over evaluable users.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .data import SplitPair, atomic_open
from .model import FactorTable, top_m

MAP_DENOM_TRUNCATED = "truncated"  # min(|relevant|, M)
MAP_DENOM_RELEVANT = "relevant"


@dataclass
class EvalReport:
    cutoffs: list[int]
    recall_at: dict[int, float]
    map_at: dict[int, float]
    n_evaluable_users: int
    n_skipped_users: int
    per_user: list[dict] = field(default_factory=list)


def recall_at_m(ranked, relevant: set, M: int) -> float:
    """|top-M intersect relevant| / |relevant|."""
    if not relevant:
        raise ValueError("relevant set is empty")
    hits = sum(1 for i in list(ranked)[:M] if i in relevant)
    return hits / len(relevant)


def map_at_m(ranked, relevant: set, M: int, denom: str = MAP_DENOM_TRUNCATED) -> float:
    """Truncated average precision at M.

    Sums precision@k over ranks k <= M holding a relevant item, divided by
    min(|relevant|, M) (or |relevant| with denom="relevant").
    """
    if not relevant:
        raise ValueError("relevant set is empty")
    hits = 0
    precision_sum = 0.0
    for k, item in enumerate(list(ranked)[:M], start=1):
        if item in relevant:
            hits += 1
            precision_sum += hits / k
    denominator = len(relevant) if denom == MAP_DENOM_RELEVANT else min(len(relevant), M)
    return precision_sum / denominator


def user_scores(scorer, u: int, n_items: int) -> np.ndarray:
    """Scores of every item for user u from a FactorTable or a scoring callable."""
    if isinstance(scorer, FactorTable):
        return scorer.V_i @ scorer.V_u[u]
    scores = np.asarray(scorer(u), dtype=np.float64)
    if scores.shape != (n_items,):
        raise ValueError(f"scorer returned shape {scores.shape}, expected ({n_items},)")
    return scores


def evaluate(scorer, split: SplitPair, cutoffs, keep_per_user: bool = False,
             map_denom: str = MAP_DENOM_TRUNCATED) -> EvalReport:
    """Rank every item (training items excluded) for each evaluable user.

    ``scorer`` is a FactorTable or a callable mapping a user index to a
    score vector over all items. Users with empty test sets are skipped and
    counted separately.
    """
    cutoffs = sorted(int(m) for m in cutoffs)
    if not cutoffs or cutoffs[0] < 1:
        raise ValueError("cutoffs must be positive")
    train = split.train
    n_items = train.n_items

    recall_sums = {m: 0.0 for m in cutoffs}
    map_sums = {m: 0.0 for m in cutoffs}
    per_user = []
    n_eval = 0
    max_m = cutoffs[-1]
    for u in range(train.n_users):
        relevant = set(split.test_items_of(u))
        if not relevant:
            continue
        n_eval += 1
        ranked = top_m(user_scores(scorer, u, n_items), train.items_of(u), max_m)
        row = {"user": u, "n_test": len(relevant)}
        for m in cutoffs:
            rec = recall_at_m(ranked, relevant, m)
            ap = map_at_m(ranked, relevant, m, denom=map_denom)
            recall_sums[m] += rec
            map_sums[m] += ap
            row[f"recall@{m}"] = rec
            row[f"map@{m}"] = ap
        if keep_per_user:
            per_user.append(row)

    if n_eval == 0:
        recall_at = {m: float("nan") for m in cutoffs}
        map_at = {m: float("nan") for m in cutoffs}
    else:
        recall_at = {m: recall_sums[m] / n_eval for m in cutoffs}
        map_at = {m: map_sums[m] / n_eval for m in cutoffs}
    return EvalReport(
        cutoffs=cutoffs,
        recall_at=recall_at,
        map_at=map_at,
        n_evaluable_users=n_eval,
        n_skipped_users=train.n_users - n_eval,
        per_user=per_user,
    )


def save_report(report: EvalReport, path, header: dict | None = None) -> None:
    """Write the report: '# key=value' metadata lines, then one
    cutoff<TAB>metric<TAB>value line per entry."""
    with atomic_open(path, "w", encoding="utf-8") as fh:
        meta = {
            "n_evaluable_users": report.n_evaluable_users,
            "n_skipped_users": report.n_skipped_users,
        }
        if header:
            meta.update(header)
        for key, value in meta.items():
            fh.write(f"# {key}={value}\n")
        for m in report.cutoffs:
            fh.write(f"{m}\trecall\t{report.recall_at[m]:.10f}\n")
        for m in report.cutoffs:
            fh.write(f"{m}\tmap\t{report.map_at[m]:.10f}\n")
