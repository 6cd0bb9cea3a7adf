"""Interaction parsing, implicit-feedback conversion and train/test splitting.

Interactions enter as raw (user, item) records with optional ratings,
are collapsed to deduplicated binary feedback with dense integer ids,
and are split per user either 80/20-style or by retaining a fixed
number of training items per user (cold-start protocol).
"""

from __future__ import annotations

import io
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import EmptyDatasetError, ParseError

PROTOCOL_STANDARD = "standard_80_20"
PROTOCOL_COLD_START = "cold_start"


@dataclass(frozen=True)
class RawInteraction:
    """One input record before conversion to implicit feedback."""

    user_ext: str
    item_ext: str
    weight: float | None = None
    timestamp: int | None = None


@dataclass
class InteractionSet:
    """Deduplicated implicit interactions over dense user/item indices.

    Every user index and every item index has at least one interaction;
    ``user_items[u]`` is the ascending array of items interacted by ``u``.
    ``user_ids`` / ``item_ids`` map indices back to external ids.
    """

    n_users: int
    n_items: int
    pairs: set[tuple[int, int]]
    user_items: list[np.ndarray]
    user_ids: list[str] = field(default_factory=list)
    item_ids: list[str] = field(default_factory=list)

    def to_csr(self):
        """Binary interaction matrix R (n_users x n_items, CSR, float64)."""
        import scipy.sparse as sp

        rows = np.concatenate(
            [np.full(len(items), u, dtype=np.int64) for u, items in enumerate(self.user_items)]
        )
        cols = np.concatenate(self.user_items)
        data = np.ones(len(rows), dtype=np.float64)
        return sp.csr_matrix((data, (rows, cols)), shape=(self.n_users, self.n_items))

    def n_interactions(self) -> int:
        return len(self.pairs)


@dataclass
class SplitPair:
    """A train InteractionSet plus held-out test pairs in the same index space."""

    train: InteractionSet
    test: set[tuple[int, int]]
    protocol: str
    protocol_param: float
    seed: int
    n_excluded_users: int = 0
    n_swapped: int = 0
    n_rescued: int = 0

    def test_items_of(self, u: int) -> list[int]:
        return sorted(i for (r, i) in self.test if r == u)


def parse_interactions(source, fmt: str) -> list[RawInteraction]:
    """Parse a byte stream of interaction lines.

    ``fmt`` is ``"movielens_dat"`` (``user::item::rating::timestamp``) or
    ``"tsv"`` (``user<TAB>item[<TAB>weight[<TAB>timestamp]]``). Blank lines are
    skipped; any malformed line raises :class:`ParseError` with its line number.
    """
    if fmt not in ("movielens_dat", "tsv"):
        raise ValueError(f"unknown format: {fmt!r}")
    if isinstance(source, (bytes, bytearray)):
        source = io.BytesIO(source)
    records = []
    for line_no, raw_line in enumerate(source, start=1):
        if isinstance(raw_line, bytes):
            line = raw_line.decode("utf-8").rstrip("\r\n")
        else:
            line = raw_line.rstrip("\r\n")
        if not line:
            continue
        if fmt == "movielens_dat":
            parts = line.split("::")
            if len(parts) != 4:
                raise ParseError(line_no, f"expected 4 '::'-separated fields, got {len(parts)}")
            user, item, rating, ts = parts
            if not user or not item:
                raise ParseError(line_no, "empty user or item id")
            try:
                weight = float(rating)
                timestamp = int(ts)
            except ValueError as exc:
                raise ParseError(line_no, f"bad numeric field: {exc}") from None
            records.append(RawInteraction(user, item, weight, timestamp))
        else:
            parts = line.split("\t")
            if len(parts) < 2 or len(parts) > 4:
                raise ParseError(line_no, f"expected 2-4 tab-separated fields, got {len(parts)}")
            user, item = parts[0], parts[1]
            if not user or not item:
                raise ParseError(line_no, "empty user or item id")
            weight = None
            timestamp = None
            try:
                if len(parts) >= 3:
                    weight = float(parts[2])
                if len(parts) == 4:
                    timestamp = int(parts[3])
            except ValueError as exc:
                raise ParseError(line_no, f"bad numeric field: {exc}") from None
            records.append(RawInteraction(user, item, weight, timestamp))
    return records


def to_implicit(raws: list[RawInteraction], min_user_interactions: int = 1) -> InteractionSet:
    """Collapse raw records to a binary InteractionSet with dense indices.

    Ratings are discarded (any observation counts as 1), duplicates are
    collapsed, users with fewer than ``min_user_interactions`` interactions are
    dropped, and filtering iterates until no isolated user or item remains.
    Surviving ids are re-indexed densely in order of first appearance.
    """
    if min_user_interactions < 1:
        raise ValueError("min_user_interactions must be >= 1")

    seen: set[tuple[str, str]] = set()
    ordered: list[tuple[str, str]] = []
    for r in raws:
        key = (r.user_ext, r.item_ext)
        if key not in seen:
            seen.add(key)
            ordered.append(key)

    users = {u for u, _ in ordered}
    items = {i for _, i in ordered}
    # Remove light users, then items left with no interactions, until stable.
    while True:
        u_count: dict[str, int] = {}
        i_count: dict[str, int] = {}
        for u, i in ordered:
            if u in users and i in items:
                u_count[u] = u_count.get(u, 0) + 1
                i_count[i] = i_count.get(i, 0) + 1
        new_users = {u for u, c in u_count.items() if c >= min_user_interactions}
        # Items only survive through interactions with surviving users.
        new_items = {i for i, c in i_count.items() if c >= 1}
        if new_users != users or new_items != items:
            users, items = new_users, new_items
            if not users or not items:
                raise EmptyDatasetError("no interactions left after filtering")
            continue
        break

    kept = [(u, i) for (u, i) in ordered if u in users and i in items]
    if not kept:
        raise EmptyDatasetError("no interactions left after filtering")

    user_index: dict[str, int] = {}
    item_index: dict[str, int] = {}
    for u, i in kept:
        if u not in user_index:
            user_index[u] = len(user_index)
        if i not in item_index:
            item_index[i] = len(item_index)

    pairs = {(user_index[u], item_index[i]) for (u, i) in kept}
    return _build_interaction_set(
        pairs,
        n_users=len(user_index),
        n_items=len(item_index),
        user_ids=list(user_index),
        item_ids=list(item_index),
    )


def _build_interaction_set(pairs, n_users, n_items, user_ids=None, item_ids=None):
    per_user: list[list[int]] = [[] for _ in range(n_users)]
    for u, i in pairs:
        per_user[u].append(i)
    user_items = [np.array(sorted(lst), dtype=np.int64) for lst in per_user]
    return InteractionSet(
        n_users=n_users,
        n_items=n_items,
        pairs=set(pairs),
        user_items=user_items,
        user_ids=list(user_ids) if user_ids is not None else [str(u) for u in range(n_users)],
        item_ids=list(item_ids) if item_ids is not None else [str(i) for i in range(n_items)],
    )


def _repair_isolated_items(train_pairs, test_pairs, n_items):
    """Give every item at least one training interaction.

    A per-user random split can strand all of an item's interactions in test,
    but the training graph needs every vertex at degree >= 1. For each such
    item, one of its test pairs (u, i) is swapped into train while one of u's
    train pairs (u, j) with train degree of j >= 2 moves out to test, keeping
    every per-user train count intact. Users holding i in test are tried in
    order of descending test-set size (ties: smallest index); the demoted j is
    u's highest-degree train item (ties: smallest index). If no user holding i
    can give up a train item safely, the pair is promoted without a demotion,
    growing that user's train count by one. Everything is deterministic.

    Returns ``(n_swapped, n_promoted)``.
    """
    train_count = np.zeros(n_items, dtype=np.int64)
    for _, i in train_pairs:
        train_count[i] += 1
    missing = [i for i in range(n_items) if train_count[i] == 0]
    if not missing:
        return 0, 0
    test_size: dict[int, int] = {}
    for u, _ in test_pairs:
        test_size[u] = test_size.get(u, 0) + 1
    user_train: dict[int, set[int]] = {}
    for u, j in train_pairs:
        user_train.setdefault(u, set()).add(j)
    # Test holders of each missing item, gathered once. Exact: a demoted pair
    # (u, j) has train_count[j] >= 2, so j is never an item awaiting repair.
    holders_of: dict[int, list[int]] = {i: [] for i in missing}
    for u, j in test_pairs:
        if j in holders_of:
            holders_of[j].append(u)

    n_swapped = n_promoted = 0
    for i in missing:
        holders = sorted(holders_of[i], key=lambda u: (-test_size[u], u))
        swapped = False
        for u in holders:
            demotable = [j for j in user_train.get(u, ()) if train_count[j] >= 2]
            if not demotable:
                continue
            j = min(demotable, key=lambda j: (-train_count[j], j))
            train_pairs.remove((u, j))
            test_pairs.add((u, j))
            train_pairs.add((u, i))
            test_pairs.remove((u, i))
            user_train[u].remove(j)
            user_train[u].add(i)
            train_count[j] -= 1
            train_count[i] += 1
            n_swapped += 1
            swapped = True
            break
        if not swapped:
            u = holders[0]
            test_pairs.remove((u, i))
            train_pairs.add((u, i))
            user_train.setdefault(u, set()).add(i)
            train_count[i] += 1
            test_size[u] -= 1
            n_promoted += 1
    return n_swapped, n_promoted


def split_standard(data: InteractionSet, train_fraction: float, rng_seed: int) -> SplitPair:
    """Per-user random split: floor(fraction * |I_u|) items to train, min 1.

    A user whose train share would round to zero keeps one training item and
    contributes nothing to test. Items that end up with no training
    interaction are repaired by :func:`_repair_isolated_items` so the training
    graph has no isolated vertices. Deterministic for a fixed seed.
    """
    if not (0.0 < train_fraction < 1.0):
        raise ValueError("train_fraction must be in (0, 1)")
    rng = np.random.default_rng(rng_seed)
    train_pairs: set[tuple[int, int]] = set()
    test_pairs: set[tuple[int, int]] = set()
    for u in range(data.n_users):
        items = data.user_items[u]
        n_train = max(1, int(np.floor(train_fraction * len(items))))
        perm = rng.permutation(len(items))
        for k, idx in enumerate(perm):
            (train_pairs if k < n_train else test_pairs).add((u, int(items[idx])))
    n_swapped, n_promoted = _repair_isolated_items(train_pairs, test_pairs, data.n_items)
    train = _build_interaction_set(
        train_pairs, data.n_users, data.n_items, data.user_ids, data.item_ids
    )
    return SplitPair(
        train=train,
        test=test_pairs,
        protocol=PROTOCOL_STANDARD,
        protocol_param=train_fraction,
        seed=rng_seed,
        n_swapped=n_swapped,
        n_rescued=n_promoted,
    )


def split_cold_start(data: InteractionSet, items_per_user: int, rng_seed: int) -> SplitPair:
    """Retain exactly ``items_per_user`` random training items per user.

    Users with <= items_per_user interactions are excluded from the protocol
    (their count is reported on the returned SplitPair); the index space is
    rebuilt over retained users and their items. All non-retained items of a
    retained user go to test, then isolated items are repaired as in
    :func:`split_standard`; the count-preserving swap keeps the exact-P
    property except in the rare promoted cases reported as ``n_rescued``.
    """
    if items_per_user < 1:
        raise ValueError("items_per_user must be >= 1")
    retained = [u for u in range(data.n_users) if len(data.user_items[u]) > items_per_user]
    n_excluded = data.n_users - len(retained)
    if not retained:
        raise EmptyDatasetError("no user has more interactions than items_per_user")

    # Dense re-index over retained users and the items they touch.
    new_user_ids = [data.user_ids[u] for u in retained]
    item_map: dict[int, int] = {}
    new_item_ids: list[str] = []
    for u in retained:
        for i in data.user_items[u]:
            i = int(i)
            if i not in item_map:
                item_map[i] = len(item_map)
                new_item_ids.append(data.item_ids[i])

    rng = np.random.default_rng(rng_seed)
    train_pairs: set[tuple[int, int]] = set()
    test_pairs: set[tuple[int, int]] = set()
    for new_u, u in enumerate(retained):
        items = data.user_items[u]
        perm = rng.permutation(len(items))
        for k, idx in enumerate(perm):
            pair = (new_u, item_map[int(items[idx])])
            (train_pairs if k < items_per_user else test_pairs).add(pair)
    n_swapped, n_promoted = _repair_isolated_items(train_pairs, test_pairs, len(item_map))
    train = _build_interaction_set(
        train_pairs, len(retained), len(item_map), new_user_ids, new_item_ids
    )
    return SplitPair(
        train=train,
        test=test_pairs,
        protocol=PROTOCOL_COLD_START,
        protocol_param=float(items_per_user),
        seed=rng_seed,
        n_excluded_users=n_excluded,
        n_swapped=n_swapped,
        n_rescued=n_promoted,
    )


def save_split(split: SplitPair, out_dir) -> None:
    """Write train.tsv, test.tsv and split.meta (key=value) into ``out_dir``."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    train = split.train

    def _write_pairs(path, pairs):
        with open(path, "w", encoding="utf-8") as fh:
            for u, i in sorted(pairs):
                fh.write(f"{train.user_ids[u]}\t{train.item_ids[i]}\n")

    _write_pairs(out / "train.tsv", train.pairs)
    _write_pairs(out / "test.tsv", split.test)
    meta = {
        "format_version": 1,
        "protocol": split.protocol,
        "protocol_param": split.protocol_param,
        "seed": split.seed,
        "n_users": train.n_users,
        "n_items": train.n_items,
        "n_train": len(train.pairs),
        "n_test": len(split.test),
        "n_excluded_users": split.n_excluded_users,
        "n_swapped": split.n_swapped,
        "n_rescued": split.n_rescued,
    }
    with open(out / "split.meta", "w", encoding="utf-8") as fh:
        for key, value in meta.items():
            fh.write(f"{key}={value}\n")


def _read_meta(src: Path) -> dict[str, str]:
    meta: dict[str, str] = {}
    with open(src / "split.meta", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if line:
                key, _, value = line.partition("=")
                meta[key] = value
    return meta


def _check_meta(meta: dict[str, str], checks: dict[str, int]) -> None:
    for key, actual in checks.items():
        if int(meta[key]) != actual:
            raise ValueError(
                f"split.meta says {key}={meta[key]} but the files contain {actual}"
            )


def load_train(in_dir) -> InteractionSet:
    """Load the train half of a persisted split; test.tsv is not read.

    The dense index space is rebuilt from train.tsv in order of first
    appearance, so index values are deterministic given the files (they need
    not match the in-memory split that wrote them; all ids round-trip).
    The user, item and train-pair counts must match split.meta.
    """
    src = Path(in_dir)
    meta = _read_meta(src)
    user_index: dict[str, int] = {}
    item_index: dict[str, int] = {}
    train_pairs: set[tuple[int, int]] = set()
    with open(src / "train.tsv", encoding="utf-8") as fh:
        for rec in parse_interactions(fh, "tsv"):
            u = user_index.setdefault(rec.user_ext, len(user_index))
            i = item_index.setdefault(rec.item_ext, len(item_index))
            train_pairs.add((u, i))
    train = _build_interaction_set(
        train_pairs, len(user_index), len(item_index), list(user_index), list(item_index)
    )
    _check_meta(meta, {
        "n_users": train.n_users,
        "n_items": train.n_items,
        "n_train": len(train_pairs),
    })
    return train


def load_split(in_dir) -> SplitPair:
    """Load a persisted split: :func:`load_train`, then test.tsv in the same
    index space, its pair count checked against split.meta."""
    src = Path(in_dir)
    train = load_train(src)
    meta = _read_meta(src)
    user_index = {ext: u for u, ext in enumerate(train.user_ids)}
    item_index = {ext: i for i, ext in enumerate(train.item_ids)}
    test_pairs: set[tuple[int, int]] = set()
    with open(src / "test.tsv", encoding="utf-8") as fh:
        for rec in parse_interactions(fh, "tsv"):
            if rec.user_ext not in user_index or rec.item_ext not in item_index:
                raise ValueError(
                    f"test pair ({rec.user_ext}, {rec.item_ext}) outside the train index space"
                )
            test_pairs.add((user_index[rec.user_ext], item_index[rec.item_ext]))
    _check_meta(meta, {"n_test": len(test_pairs)})
    return SplitPair(
        train=train,
        test=test_pairs,
        protocol=meta["protocol"],
        protocol_param=float(meta["protocol_param"]),
        seed=int(meta["seed"]),
        n_excluded_users=int(meta.get("n_excluded_users", 0)),
        n_swapped=int(meta.get("n_swapped", 0)),
        n_rescued=int(meta.get("n_rescued", 0)),
    )
