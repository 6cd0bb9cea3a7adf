"""Interaction parsing, implicit-feedback conversion and train/test splitting.

Interactions are held column-wise. The parser returns one list per field;
an :class:`InteractionSet` is the CSR pattern of the binary interaction
matrix (``indptr``, ``indices``) over dense user/item indices, plus the
external id lists. Raw records are collapsed to deduplicated binary feedback
and split per user either 80/20-style or by retaining a fixed number of
training items per user (cold-start protocol).
"""

from __future__ import annotations

import os
from collections import deque
from contextlib import ExitStack, contextmanager
from dataclasses import dataclass
from itertools import repeat
from operator import methodcaller
from pathlib import Path

import numpy as np

from .errors import EmptyDatasetError, ParseError, SplitFormatError

PROTOCOL_STANDARD = "standard_80_20"
PROTOCOL_COLD_START = "cold_start"

# Field separator, allowed field counts and their wording in error messages.
_FORMATS = {
    "movielens_dat": ("::", 4, 4, "4 '::'-separated"),
    "tsv": ("\t", 2, 4, "2-4 tab-separated"),
}


@dataclass(frozen=True)
class RawColumns:
    """Parsed records in input order, one list per id field.

    Ratings and timestamps are validated by the parser but not kept: every
    observation counts as one implicit interaction.
    """

    users: list[str]
    items: list[str]

    def __len__(self) -> int:
        return len(self.users)


@dataclass(eq=False)
class InteractionSet:
    """Binary interactions over dense user/item indices, as a CSR pattern.

    Row ``u`` is ``indices[indptr[u]:indptr[u + 1]]``, the ascending items of
    user ``u``. ``user_ids`` / ``item_ids`` map indices back to external ids.
    A training set has at least one interaction per user and per item; the
    test half of a split shares its train set's index space and need not.
    """

    n_users: int
    n_items: int
    indptr: np.ndarray
    indices: np.ndarray
    user_ids: list[str]
    item_ids: list[str]

    @classmethod
    def from_pairs(cls, n_users, n_items, users, items, user_ids, item_ids):
        """Deduplicate and sort parallel (user, item) index arrays into a set."""
        users = np.asarray(users, dtype=np.int64)
        items = np.asarray(items, dtype=np.int64)
        width = max(n_items, 1)
        keys = np.sort(users * width + items)
        first = np.ones(len(keys), dtype=bool)
        first[1:] = keys[1:] != keys[:-1]
        keys = keys[first]
        rows = keys // width
        return cls(
            n_users=n_users,
            n_items=n_items,
            indptr=_indptr(rows, n_users),
            indices=keys - rows * width,
            user_ids=list(user_ids),
            item_ids=list(item_ids),
        )

    def items_of(self, u: int) -> np.ndarray:
        """Ascending items of user ``u`` (a view into ``indices``)."""
        return self.indices[self.indptr[u]:self.indptr[u + 1]]

    def rows(self) -> np.ndarray:
        """The user index of every entry of ``indices``."""
        return np.repeat(np.arange(self.n_users, dtype=np.int64), np.diff(self.indptr))

    @property
    def pairs(self) -> set[tuple[int, int]]:
        """The interactions as a set of (user, item) tuples, built on each
        access; for comparisons on small sets, never on the data path."""
        return set(zip(self.rows().tolist(), self.indices.tolist()))

    def to_csr(self):
        """Binary interaction matrix R (n_users x n_items, CSR, float64)."""
        import scipy.sparse as sp

        data = np.ones(len(self.indices), dtype=np.float64)
        return sp.csr_matrix((data, self.indices, self.indptr),
                             shape=(self.n_users, self.n_items), copy=True)

    def n_interactions(self) -> int:
        return len(self.indices)

    def subset(self, mask: np.ndarray) -> InteractionSet:
        """The entries where ``mask`` (aligned with ``indices``) is true, in
        the same index space."""
        return InteractionSet(
            n_users=self.n_users,
            n_items=self.n_items,
            indptr=_indptr(self.rows()[mask], self.n_users),
            indices=self.indices[mask],
            user_ids=self.user_ids,
            item_ids=self.item_ids,
        )


def _indptr(rows: np.ndarray, n_rows: int) -> np.ndarray:
    """Row pointers of ascending row indices."""
    indptr = np.zeros(n_rows + 1, dtype=np.int64)
    np.cumsum(np.bincount(rows, minlength=n_rows), out=indptr[1:])
    return indptr


@dataclass
class SplitPair:
    """A train InteractionSet plus the held-out test pairs, a second
    InteractionSet over the same index space."""

    train: InteractionSet
    test: InteractionSet
    protocol: str
    protocol_param: float
    seed: int
    n_excluded_users: int = 0
    n_swapped: int = 0
    n_rescued: int = 0

    def test_items_of(self, u: int) -> list[int]:
        return self.test.items_of(u).tolist()


def parse_interactions(source, fmt: str) -> RawColumns:
    """Parse interaction lines from bytes, text or a file object.

    ``fmt`` is ``"movielens_dat"`` (``user::item::rating::timestamp``) or
    ``"tsv"`` (``user<TAB>item[<TAB>weight[<TAB>timestamp]]``). Blank lines are
    skipped; any malformed line raises :class:`ParseError` with its 1-based
    line number, blank lines counted.
    """
    if fmt not in _FORMATS:
        raise ValueError(f"unknown format: {fmt!r}")
    text = source if isinstance(source, (bytes, bytearray, str)) else source.read()
    if not isinstance(text, str):
        try:
            text = text.decode("utf-8")
        except UnicodeDecodeError as exc:
            line_no = text.count(b"\n", 0, exc.start) + 1
            raise ParseError(line_no, f"invalid UTF-8: {exc.reason}") from None
    lines = text.split("\n")
    if "\r" in text:
        lines = [line.rstrip("\r") for line in lines]

    # Fast path, for files whose lines all have one field count: one flat
    # list of fields, sliced into columns that are checked whole. Splitting
    # on the separator and on "\n" at once equals splitting each line, as no
    # line holds a "\n". Any breach, or a tsv file mixing field counts, falls
    # through to the line-by-line reader, which reports the first bad line.
    sep, lo, hi, _ = _FORMATS[fmt]
    records = [line for line in lines if line]
    if not records:
        return RawColumns([], [])
    n_seps = set(map(methodcaller("count", sep), records))
    width = n_seps.pop() + 1
    if not n_seps and lo <= width <= hi:
        fields = "\n".join(records).replace(sep, "\n").split("\n")
        users, items = fields[0::width], fields[1::width]
        if "" not in users and "" not in items:
            try:
                if width >= 3:
                    deque(map(float, fields[2::width]), maxlen=0)
                if width == 4:
                    deque(map(int, fields[3::width]), maxlen=0)
            except ValueError:
                pass
            else:
                return RawColumns(users, items)
    return _parse_lines(lines, fmt)


def _parse_lines(lines: list[str], fmt: str) -> RawColumns:
    """Line-by-line reader: the reference for what the fast path accepts."""
    sep, lo, hi, expected = _FORMATS[fmt]
    users: list[str] = []
    items: list[str] = []
    for line_no, line in enumerate(lines, start=1):
        if not line:
            continue
        parts = line.split(sep)
        if not lo <= len(parts) <= hi:
            raise ParseError(line_no, f"expected {expected} fields, got {len(parts)}")
        if not parts[0] or not parts[1]:
            raise ParseError(line_no, "empty user or item id")
        try:
            if len(parts) >= 3:
                float(parts[2])
            if len(parts) == 4:
                int(parts[3])
        except ValueError as exc:
            raise ParseError(line_no, f"bad numeric field: {exc}") from None
        users.append(parts[0])
        items.append(parts[1])
    return RawColumns(users, items)


def _codes_in(values: list[str], ids: list[str]) -> np.ndarray:
    """Index of each value in ``ids``, -1 where absent."""
    index = {ext: code for code, ext in enumerate(ids)}
    return np.fromiter(map(index.get, values, repeat(-1)), dtype=np.int64, count=len(values))


def _first_appearance_codes(values: list[str]) -> tuple[list[str], np.ndarray]:
    """(distinct values in order of first appearance, each value's code)."""
    ids = list(dict.fromkeys(values))
    return ids, _codes_in(values, ids)


def _in_first_appearance_order(codes: np.ndarray) -> np.ndarray:
    """Distinct codes ordered by where each first occurs."""
    distinct, first = np.unique(codes, return_index=True)
    return distinct[np.argsort(first)]


def to_implicit(columns: RawColumns, min_user_interactions: int = 1) -> InteractionSet:
    """Collapse parsed records to a binary InteractionSet with dense indices.

    Ratings are discarded (any observation counts as 1), duplicates are
    collapsed, users with fewer than ``min_user_interactions`` interactions are
    dropped, and filtering iterates until no isolated user or item remains.
    Surviving ids are re-indexed densely in order of first appearance.
    """
    if min_user_interactions < 1:
        raise ValueError("min_user_interactions must be >= 1")
    user_ext, u = _first_appearance_codes(columns.users)
    item_ext, i = _first_appearance_codes(columns.items)
    n_u, n_i = len(user_ext), len(item_ext)
    keys, first = np.unique(u * n_i + i, return_index=True)
    u, i = keys // n_i, keys % n_i

    # Remove light users, then items left with no interactions, until stable.
    keep_u = np.ones(n_u, dtype=bool)
    keep_i = np.ones(n_i, dtype=bool)
    while True:
        live = keep_u[u] & keep_i[i]
        new_u = np.bincount(u[live], minlength=n_u) >= min_user_interactions
        # Items only survive through interactions with surviving users.
        new_i = np.bincount(i[live], minlength=n_i) >= 1
        if np.array_equal(new_u, keep_u) and np.array_equal(new_i, keep_i):
            break
        keep_u, keep_i = new_u, new_i
        if not keep_u.any() or not keep_i.any():
            raise EmptyDatasetError("no interactions left after filtering")
    if not live.any():
        raise EmptyDatasetError("no interactions left after filtering")

    # Dense indices in order of first appearance among the surviving records.
    order = np.argsort(first[live])
    u, i = u[live], i[live]
    users = _in_first_appearance_order(u[order])
    items = _in_first_appearance_order(i[order])
    user_code = np.empty(n_u, dtype=np.int64)
    user_code[users] = np.arange(len(users))
    item_code = np.empty(n_i, dtype=np.int64)
    item_code[items] = np.arange(len(items))
    return InteractionSet.from_pairs(
        len(users), len(items), user_code[u], item_code[i],
        user_ids=[user_ext[k] for k in users.tolist()],
        item_ids=[item_ext[k] for k in items.tolist()],
    )


def _repair_isolated_items(data: InteractionSet, in_train: np.ndarray):
    """Give every item at least one training interaction.

    ``in_train`` marks which entries of ``data`` went to train; it is updated
    in place. A per-user random split can strand all of an item's
    interactions in test, but the training graph needs every vertex at
    degree >= 1. For each such item, one of its test pairs (u, i) is swapped
    into train while one of u's train pairs (u, j) with train degree of
    j >= 2 moves out to test, keeping every per-user train count intact.
    Users holding i in test are tried in order of descending test-set size
    (ties: smallest index); the demoted j is u's highest-degree train item
    (ties: smallest index). If no user holding i can give up a train item
    safely, the pair is promoted without a demotion, growing that user's
    train count by one. Everything is deterministic.

    Returns ``(n_swapped, n_promoted)``.
    """
    rows, cols, indptr = data.rows(), data.indices, data.indptr
    train_count = np.bincount(cols[in_train], minlength=data.n_items)
    missing = np.flatnonzero(train_count == 0)
    if not len(missing):
        return 0, 0
    test_size = np.bincount(rows[~in_train], minlength=data.n_users)
    # Test entries of each missing item, gathered once. Exact: a demoted pair
    # (u, j) has train_count[j] >= 2, so j is never an item awaiting repair.
    held = np.flatnonzero(~in_train & (train_count[cols] == 0))
    held = held[np.argsort(cols[held], kind="stable")]
    bounds = np.searchsorted(cols[held], np.append(missing, data.n_items))

    n_swapped = n_promoted = 0
    for k, i in enumerate(missing.tolist()):
        holders = held[bounds[k]:bounds[k + 1]]
        users = rows[holders]
        holders = holders[np.lexsort((users, -test_size[users]))]
        for p in holders:
            u = rows[p]
            train_of_u = indptr[u] + np.flatnonzero(in_train[indptr[u]:indptr[u + 1]])
            demotable = train_of_u[train_count[cols[train_of_u]] >= 2]
            if not len(demotable):
                continue
            q = demotable[np.lexsort((cols[demotable], -train_count[cols[demotable]]))[0]]
            in_train[q] = False
            in_train[p] = True
            train_count[cols[q]] -= 1
            train_count[i] += 1
            n_swapped += 1
            break
        else:
            p = holders[0]
            in_train[p] = True
            train_count[i] += 1
            test_size[rows[p]] -= 1
            n_promoted += 1
    return n_swapped, n_promoted


def _split_pair(data: InteractionSet, in_train: np.ndarray, **fields) -> SplitPair:
    """Repair isolated items, then cut ``data`` into its train and test halves."""
    n_swapped, n_promoted = _repair_isolated_items(data, in_train)
    return SplitPair(train=data.subset(in_train), test=data.subset(~in_train),
                     n_swapped=n_swapped, n_rescued=n_promoted, **fields)


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
    in_train = np.zeros(data.n_interactions(), dtype=bool)
    bounds = data.indptr.tolist()
    for u in range(data.n_users):
        lo, n = bounds[u], bounds[u + 1] - bounds[u]
        n_train = max(1, int(np.floor(train_fraction * n)))
        in_train[lo + rng.permutation(n)[:n_train]] = True
    return _split_pair(data, in_train, protocol=PROTOCOL_STANDARD,
                       protocol_param=train_fraction, seed=rng_seed)


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
    sizes = np.diff(data.indptr)
    kept_user = sizes > items_per_user
    retained = np.flatnonzero(kept_user)
    n_excluded = data.n_users - len(retained)
    if not len(retained):
        raise EmptyDatasetError("no user has more interactions than items_per_user")

    # The retained users' rows, in order; items re-indexed densely in order of
    # first appearance along them.
    entries = np.flatnonzero(np.repeat(kept_user, sizes))
    new_u = (np.cumsum(kept_user) - 1)[data.rows()[entries]]
    old_i = data.indices[entries]
    items = _in_first_appearance_order(old_i)
    item_code = np.empty(data.n_items, dtype=np.int64)
    item_code[items] = np.arange(len(items))
    new_i = item_code[old_i]

    # Draw each user's training items over its row in the old item order.
    rng = np.random.default_rng(rng_seed)
    in_train = np.zeros(len(entries), dtype=bool)
    indptr = _indptr(new_u, len(retained))
    bounds = indptr.tolist()
    for r in range(len(retained)):
        lo, n = bounds[r], bounds[r + 1] - bounds[r]
        in_train[lo + rng.permutation(n)[:items_per_user]] = True

    order = np.lexsort((new_i, new_u))
    reindexed = InteractionSet(
        n_users=len(retained),
        n_items=len(items),
        indptr=indptr,
        indices=new_i[order],
        user_ids=[data.user_ids[u] for u in retained.tolist()],
        item_ids=[data.item_ids[i] for i in items.tolist()],
    )
    return _split_pair(reindexed, in_train[order], protocol=PROTOCOL_COLD_START,
                       protocol_param=float(items_per_user), seed=rng_seed,
                       n_excluded_users=n_excluded)


def _pairs_bytes(s: InteractionSet) -> bytes:
    """One ``user<TAB>item`` line per entry, in (user, item) index order."""
    users = np.asarray(s.user_ids, dtype=object)[s.rows()].tolist()
    items = np.asarray(s.item_ids, dtype=object)[s.indices].tolist()
    return "".join([f"{u}\t{i}\n" for u, i in zip(users, items)]).encode("utf-8")


@contextmanager
def atomic_open(path, mode="wb", **kwargs):
    """Open a temporary file beside ``path`` for writing; on a clean exit move
    it over ``path``, on any exception (interrupts included) delete it, so
    ``path`` holds either its previous bytes or the complete new ones."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, mode, **kwargs) as fh:
            yield fh
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def _write_files(out: Path, payloads: dict[str, bytes]) -> None:
    """Write every payload to its temporary file before moving any of them
    into place, so a failed write leaves all the previous files intact."""
    with ExitStack() as stack:
        for name, payload in payloads.items():
            stack.enter_context(atomic_open(out / name)).write(payload)


def save_split(split: SplitPair, out_dir) -> None:
    """Write train.tsv, test.tsv and split.meta (key=value) into ``out_dir``."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    train = split.train
    meta = {
        "format_version": 1,
        "protocol": split.protocol,
        "protocol_param": split.protocol_param,
        "seed": split.seed,
        "n_users": train.n_users,
        "n_items": train.n_items,
        "n_train": train.n_interactions(),
        "n_test": split.test.n_interactions(),
        "n_excluded_users": split.n_excluded_users,
        "n_swapped": split.n_swapped,
        "n_rescued": split.n_rescued,
    }
    _write_files(out, {
        "train.tsv": _pairs_bytes(train),
        "test.tsv": _pairs_bytes(split.test),
        "split.meta": "".join(f"{k}={v}\n" for k, v in meta.items()).encode("utf-8"),
    })


def _read_meta(src: Path) -> dict[str, str]:
    meta: dict[str, str] = {}
    with open(src / "split.meta", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if line:
                key, _, value = line.partition("=")
                meta[key] = value
    return meta


def _meta_field(meta: dict[str, str], src: Path, key: str, cast, default=None):
    """``cast(meta[key])``; a missing key falls back to ``default`` when given."""
    if key not in meta:
        if default is not None:
            return default
        raise SplitFormatError(f"{src / 'split.meta'}: missing key {key!r}")
    try:
        return cast(meta[key])
    except ValueError:
        raise SplitFormatError(
            f"{src / 'split.meta'}: {key}={meta[key]!r} is not a valid {cast.__name__}"
        ) from None


def _check_meta(meta: dict[str, str], src: Path, checks: dict[str, int]) -> None:
    for key, actual in checks.items():
        if _meta_field(meta, src, key, int) != actual:
            raise SplitFormatError(
                f"{src / 'split.meta'} says {key}={meta[key]} but the files contain {actual}"
            )


def _read_pairs(path: Path) -> RawColumns:
    with open(path, "rb") as fh:
        return parse_interactions(fh, "tsv")


def _load_train(src: Path, meta: dict[str, str]) -> InteractionSet:
    columns = _read_pairs(src / "train.tsv")
    user_ids, users = _first_appearance_codes(columns.users)
    item_ids, items = _first_appearance_codes(columns.items)
    train = InteractionSet.from_pairs(len(user_ids), len(item_ids), users, items,
                                      user_ids, item_ids)
    _check_meta(meta, src, {
        "n_users": train.n_users,
        "n_items": train.n_items,
        "n_train": train.n_interactions(),
    })
    return train


def load_train(in_dir) -> InteractionSet:
    """Load the train half of a persisted split; test.tsv is not read.

    The dense index space is rebuilt from train.tsv in order of first
    appearance, so index values are deterministic given the files (they need
    not match the in-memory split that wrote them; all ids round-trip).
    The user, item and train-pair counts must match split.meta.
    """
    src = Path(in_dir)
    return _load_train(src, _read_meta(src))


def load_split(in_dir) -> SplitPair:
    """Load a persisted split: :func:`load_train`, then test.tsv in the same
    index space, its pair count checked against split.meta."""
    src = Path(in_dir)
    meta = _read_meta(src)
    train = _load_train(src, meta)
    columns = _read_pairs(src / "test.tsv")
    users = _codes_in(columns.users, train.user_ids)
    items = _codes_in(columns.items, train.item_ids)
    outside = np.flatnonzero((users < 0) | (items < 0))
    if len(outside):
        k = outside[0]
        raise SplitFormatError(
            f"test pair ({columns.users[k]}, {columns.items[k]}) outside the train index space"
        )
    test = InteractionSet.from_pairs(train.n_users, train.n_items, users, items,
                                     train.user_ids, train.item_ids)
    _check_meta(meta, src, {"n_test": test.n_interactions()})
    return SplitPair(
        train=train,
        test=test,
        protocol=_meta_field(meta, src, "protocol", str),
        protocol_param=_meta_field(meta, src, "protocol_param", float),
        seed=_meta_field(meta, src, "seed", int),
        n_excluded_users=_meta_field(meta, src, "n_excluded_users", int, default=0),
        n_swapped=_meta_field(meta, src, "n_swapped", int, default=0),
        n_rescued=_meta_field(meta, src, "n_rescued", int, default=0),
    )
