"""Top-M ranking metrics over a train/test split.

Each evaluable user (non-empty test set) has all items ranked with their
training items excluded; Recall@M and truncated average precision are
averaged over evaluable users. Users are scored and ranked in blocks.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .data import SplitPair, atomic_open
from .model import FactorTable, top_m_rows

MAP_DENOM_TRUNCATED = "truncated"  # min(|relevant|, M)
MAP_DENOM_RELEVANT = "relevant"
BLOCK_ROWS = 512  # users scored and ranked together by evaluate


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


def check_cutoffs(cutoffs) -> list[int]:
    """The distinct cutoffs in ascending order; there must be at least one,
    and each >= 1."""
    cutoffs = sorted({int(m) for m in cutoffs})
    if not cutoffs or cutoffs[0] < 1:
        raise ValueError("cutoffs must be positive")
    return cutoffs


def evaluate(factors: FactorTable, split: SplitPair, cutoffs, keep_per_user: bool = False,
             map_denom: str = MAP_DENOM_TRUNCATED) -> EvalReport:
    """Rank every item (training items excluded) for each evaluable user.

    Users with empty test sets are skipped and counted separately.
    Evaluable users are scored ``BLOCK_ROWS`` at a time, with one
    ``V_u[block] @ V_i^T`` product, and ranked by :func:`model.top_m_rows`,
    which sorts only each row's top candidates, so memory grows with
    BLOCK_ROWS x n_items, not with the number of users;
    Recall@M and AP@M come from cumulative sums over rank positions, and
    per-user values are summed in ascending user order, as a loop over users
    would.
    """
    cutoffs = check_cutoffs(cutoffs)
    if map_denom not in (MAP_DENOM_TRUNCATED, MAP_DENOM_RELEVANT):
        raise ValueError(f"unknown map_denom: {map_denom!r}")
    train = split.train
    seen, relevant = train.to_csr().astype(bool), split.test.to_csr().astype(bool)
    n_test = np.diff(split.test.indptr)
    users = np.flatnonzero(n_test)
    recall = np.empty((len(users), len(cutoffs)))
    ap = np.empty_like(recall)
    for lo in range(0, len(users), BLOCK_ROWS):
        block = users[lo:lo + BLOCK_ROWS]
        with np.errstate(over="ignore", invalid="ignore"):  # top_m_rows reports it
            ranked = top_m_rows(factors.V_u[block] @ factors.V_i.T, seen[block].toarray(),
                                cutoffs[-1])
        hit = np.take_along_axis(relevant[block].toarray(), ranked, axis=1) & (ranked >= 0)
        hits = np.cumsum(hit, axis=1)
        # precision@k summed over the hit ranks k, in rank order
        precision_sum = np.cumsum(np.where(hit, hits / np.arange(1, hit.shape[1] + 1), 0.0),
                                  axis=1)
        at = np.minimum(cutoffs, hit.shape[1]) - 1
        n_rel = n_test[block][:, None]
        denom = n_rel if map_denom == MAP_DENOM_RELEVANT else np.minimum(n_rel, cutoffs)
        recall[lo:lo + len(block)] = hits[:, at] / n_rel
        ap[lo:lo + len(block)] = precision_sum[:, at] / denom

    per_user = []
    if keep_per_user:
        for u, rec_row, ap_row in zip(users.tolist(), recall.tolist(), ap.tolist()):
            row = {"user": u, "n_test": int(n_test[u])}
            for m, rec, avg in zip(cutoffs, rec_row, ap_row):
                row[f"recall@{m}"] = rec
                row[f"map@{m}"] = avg
            per_user.append(row)

    n_eval = len(users)
    if n_eval == 0:
        recall_at = {m: float("nan") for m in cutoffs}
        map_at = {m: float("nan") for m in cutoffs}
    else:
        # cumsum adds in sequence, user by user, unlike a pairwise sum()
        recall_sums = np.cumsum(recall, axis=0)[-1].tolist()
        map_sums = np.cumsum(ap, axis=0)[-1].tolist()
        recall_at = {m: s / n_eval for m, s in zip(cutoffs, recall_sums)}
        map_at = {m: s / n_eval for m, s in zip(cutoffs, map_sums)}
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
