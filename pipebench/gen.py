"""Seeded generator of MovieLens-1M-shaped ``user::item::rating::timestamp`` files.

The recipe follows the shape of MovieLens-1M: per-user activity is
``max(20, lognormal(4.6, 0.9))``, rescaled so the file holds exactly the
requested number of distinct pairs, and item popularity is Zipf(1.3) over a
seeded permutation of the items. Each user's items are drawn without
replacement in proportion to popularity (Gumbel top-k). A small share of
pairs is rated twice, so deduplication has work to do.

This module does not import ``spectralcf``: the pairs it returns are the
reference the split check compares the program's output against.
"""

from __future__ import annotations

import numpy as np

ZIPF_EXPONENT = 1.3
MIN_ACTIVITY = 20
DUPLICATE_SHARE = 0.005


def _activity(rng, n_users: int, n_pairs: int, cap: int) -> np.ndarray:
    """Per-user pair counts in [MIN_ACTIVITY, cap] summing to exactly n_pairs."""
    if not (MIN_ACTIVITY * n_users <= n_pairs <= cap * n_users):
        raise ValueError("n_pairs is out of reach for this many users and items")
    raw = np.maximum(MIN_ACTIVITY, rng.lognormal(4.6, 0.9, n_users))
    counts = np.clip(np.floor(raw * n_pairs / raw.sum()), MIN_ACTIVITY, cap).astype(np.int64)
    while (gap := n_pairs - int(counts.sum())) != 0:
        room = counts < cap if gap > 0 else counts > MIN_ACTIVITY
        who = rng.permutation(np.flatnonzero(room))[: abs(gap)]
        counts[who] += 1 if gap > 0 else -1
    return counts


def generate(seed: int, n_users: int, n_items: int, n_pairs: int):
    """Return ``(lines, pairs)``.

    ``lines`` are the file's text lines in user order; ``pairs`` is an
    ``(n_pairs, 2)`` int array of distinct 1-based ``(user, item)`` ids, the
    deduplicated content of ``lines``.
    """
    rng = np.random.default_rng(seed)
    cap = n_items // 2
    counts = _activity(rng, n_users, n_pairs, cap)
    rank = rng.permutation(n_items)
    log_p = -ZIPF_EXPONENT * np.log1p(rank.astype(np.float64))

    users = np.repeat(np.arange(1, n_users + 1), counts)
    items = np.empty(n_pairs, dtype=np.int64)
    start = 0
    for c in counts:
        keys = log_p + rng.gumbel(size=n_items)
        items[start:start + c] = np.argpartition(-keys, c - 1)[:c] + 1
        start += c
    pairs = np.column_stack([users, items])

    dup = np.sort(rng.choice(n_pairs, size=int(DUPLICATE_SHARE * n_pairs), replace=False))
    rows = np.insert(np.arange(n_pairs), dup + 1, dup)
    ratings = rng.integers(1, 6, size=len(rows))
    stamps = 956703932 + rng.integers(0, 90_000_000, size=len(rows))
    lines = [
        f"{u}::{i}::{r}::{t}"
        for (u, i), r, t in zip(pairs[rows].tolist(), ratings.tolist(), stamps.tolist())
    ]
    return lines, pairs


def write(path, lines) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines))
        fh.write("\n")

