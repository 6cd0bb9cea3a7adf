"""Interaction parsing, implicit-feedback conversion and train/test splitting.

Interactions are held column-wise. The parser codes each id column against
its distinct ids; an :class:`InteractionSet` is the CSR pattern of the
binary interaction matrix (``indptr``, ``indices``) over dense user/item
indices, plus the external id lists. Raw records are collapsed to deduplicated binary feedback
and split per user either 80/20-style or by retaining a fixed number of
training items per user (cold-start protocol). A saved split is three text
files plus a binary index cache, which spares the commands that read the
split the parse of its text files.
"""

from __future__ import annotations

import codecs
import hashlib
import io
import os
import zipfile
from contextlib import ExitStack, contextmanager
from dataclasses import dataclass
from itertools import repeat
from pathlib import Path

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import EmptyDatasetError, ParseError, SplitFormatError

PROTOCOL_STANDARD = "standard_80_20"
PROTOCOL_COLD_START = "cold_start"

# The binary index cache save_split writes beside the tsv files, and the two
# halves it holds, each keyed by the sha256 of its tsv file.
INDEX_CACHE = "index.npz"
_HALVES = ("train", "test")
# The only split.meta format_version the loader reads.
SPLIT_FORMAT_VERSION = 1

# Field separator, allowed field counts and their wording in error messages.
_FORMATS = {
    "movielens_dat": ("::", 4, 4, "4 '::'-separated"),
    "tsv": ("\t", 2, 4, "2-4 tab-separated"),
}


@dataclass(frozen=True)
class RawColumns:
    """Parsed records in input order, each id column coded.

    ``user_ids`` / ``item_ids`` hold the distinct ids in order of first
    appearance; record ``r`` has user ``user_ids[users[r]]`` and item
    ``item_ids[items[r]]`` (``users`` and ``items`` are int64). Ratings and
    timestamps are validated by the parser but not kept: every observation
    counts as one implicit interaction.
    """

    user_ids: list[str]
    item_ids: list[str]
    users: np.ndarray
    items: np.ndarray

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


def parse_interactions(raw: bytes, fmt: str, path=None) -> RawColumns:
    """Parse interaction lines from ``raw``, the bytes of a file.

    ``fmt`` is ``"movielens_dat"`` (``user::item::rating::timestamp``) or
    ``"tsv"`` (``user<TAB>item[<TAB>weight[<TAB>timestamp]]``). Blank lines are
    skipped; any malformed line raises :class:`ParseError` with its 1-based
    line number, blank lines counted, and ``path``, the file, when given.

    Two readers share this contract. The byte scanner (:func:`_scan`) takes
    every file whose records all have one field count and no irregular bytes;
    the line-by-line reader (:func:`_parse_lines`) takes the rest, and is the
    one that names a bad line. Neither sees a leading UTF-8 byte-order mark.
    """
    if fmt not in _FORMATS:
        raise ValueError(f"unknown format: {fmt!r}")
    raw = raw.removeprefix(codecs.BOM_UTF8)
    columns = _scan(raw, fmt)
    return _parse_lines(raw, fmt, path) if columns is None else columns


def _scan(buf, fmt: str) -> RawColumns | None:
    """The byte scanner: None for a file it does not take.

    Line ends and separators are found with NumPy over the bytes, and each id
    column is coded in one pass (:func:`_code_ids`). It takes valid UTF-8
    without NUL bytes whose records all have one allowed field count, with
    ``\\r`` only right before a line end, no empty id and, for ``::``, no run
    of three or more ``:``. Numeric fields of ASCII digits are accepted
    column-wise; any other column is checked with ``float()``/``int()``.
    """
    sep, lo, hi, _ = _FORMATS[fmt]
    if b"\0" in buf:
        return None
    if not buf.isascii():
        try:
            buf.decode("utf-8")
        except UnicodeDecodeError:
            return None
    b = np.frombuffer(buf, dtype=np.uint8)
    newlines = np.flatnonzero(b == ord("\n"))
    starts = np.concatenate(([0], newlines + 1))
    ends = np.append(newlines, len(b))
    cr = ends > starts
    cr[cr] = b[ends[cr] - 1] == ord("\r")
    if np.count_nonzero(cr) != buf.count(b"\r"):
        return None
    ends -= cr
    record = ends > starts
    starts, ends = starts[record], ends[record]
    n = len(starts)
    if not n:
        return RawColumns([], [], np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64))

    if sep == "\t":
        seps = np.flatnonzero(b == ord("\t"))
    else:
        colon = b == ord(":")
        pair = colon[:-1] & colon[1:]
        if (pair[:-1] & colon[2:]).any():
            return None
        seps = np.flatnonzero(pair)
    # Sorted separators cut into blocks of width - 1: each block lying inside
    # its own record means every record has exactly width - 1 of them.
    width = len(seps) // n + 1
    if len(seps) != n * (width - 1) or not lo <= width <= hi:
        return None
    seps = seps.reshape(n, width - 1)
    if (seps[:, 0] < starts).any() or (seps[:, -1] >= ends).any():
        return None
    field_starts = [starts, *(seps + len(sep)).T]
    field_ends = [*seps.T, ends]
    user_lens, item_lens = field_ends[0] - starts, field_ends[1] - field_starts[1]
    if not (user_lens.all() and item_lens.all()):
        return None
    if width >= 3:
        # One trailing sentinel keeps an end at the end of the file in range.
        nondigit = np.append((b < ord("0")) | (b > ord("9")), True)
        for col, cast in [(2, float), (3, int)][:width - 2]:
            if not _numbers_parse(buf, nondigit, field_starts[col], field_ends[col], cast):
                return None
    user_ids, users = _code_ids(b, starts, user_lens)
    item_ids, items = _code_ids(b, field_starts[1], item_lens)
    return RawColumns(user_ids, item_ids, users, items)


def _numbers_parse(buf, nondigit: np.ndarray, starts: np.ndarray, ends: np.ndarray,
                   cast) -> bool:
    """Whether ``cast`` accepts every field ``buf[starts[r]:ends[r]]``. A
    column of non-empty ASCII digit runs (``nondigit`` marks every other
    byte) passes whole, any other column field by field."""
    if (ends > starts).all():
        bounds = np.column_stack([starts, ends]).ravel()
        if not np.logical_or.reduceat(nondigit, bounds)[::2].any():
            return True
    try:
        for s, e in zip(starts.tolist(), ends.tolist()):
            cast(buf[s:e].decode("utf-8"))
    except ValueError:
        return False
    return True


def _code_ids(b: np.ndarray, starts: np.ndarray, lens: np.ndarray):
    """Code the id column ``b[starts[r]:starts[r] + lens[r]]`` (lengths >= 1)
    in order of first appearance: (the distinct ids, decoded, and each
    field's int64 code).

    Each field is keyed by its bytes, zero padded, so keys are equal exactly
    when ids are (the scanner admits no NUL byte). A field of up to 8 bytes
    is one little-endian uint64, read straight from the bytes; a longer one
    is fixed-width bytes of the next power of two, so that no key is more
    than twice its field. :func:`_code_keys` codes the keys of each width
    class; only the distinct ids are decoded.
    """
    pad = 8
    while pad < lens.max():
        pad *= 2
    padded = np.concatenate([b, np.zeros(pad, dtype=np.uint8)])
    groups = []
    short = np.flatnonzero(lens <= 8)
    if len(short):
        # The 8 bytes from every offset, as overlapping uint64 words.
        words = np.ndarray((len(b) + pad - 7,), dtype="<u8", buffer=padded, strides=(1,))
        low_bytes = np.uint64(2**64 - 1) >> (64 - 8 * lens[short]).astype(np.uint64)
        groups.append((short, words[starts[short]] & low_bytes))
    lo, width = 8, 16
    while lo < pad:
        rows = np.flatnonzero((lens > lo) & (lens <= width))
        if len(rows):
            field = sliding_window_view(padded, width)[starts[rows]]
            field[np.arange(width) >= lens[rows, None]] = 0
            groups.append((rows, field.view(f"S{width}").ravel()))
        lo, width = width, 2 * width
    ids, codes = _code_keys(groups, len(starts))
    return [i.decode("utf-8") for i in ids], codes


def _code_keys(groups, n: int) -> tuple[list, np.ndarray]:
    """Code ``n`` values in order of first appearance: (the distinct values,
    each value's int64 code).

    ``groups`` holds ``(rows, keys)`` pairs that together cover rows 0..n-1
    once, where no key of one group equals a key of another. uint64 keys
    stand for their 8 little-endian bytes. Each group's distinct keys get
    codes of their own, then :func:`_by_first_appearance` renumbers them all.
    """
    values, codes = [], np.empty(n, dtype=np.int64)
    for rows, keys in groups:
        distinct, inverse = np.unique(keys, return_inverse=True)
        codes[rows] = inverse + len(values)
        values += (distinct.view("S8") if distinct.dtype.kind == "u" else distinct).tolist()
    order, table = _by_first_appearance(codes, len(values))
    return [values[k] for k in order.tolist()], table[codes]


def _decode(raw: bytes, path=None) -> str:
    """``raw`` decoded as UTF-8; an invalid byte raises :class:`ParseError`
    naming its line (and ``path`` when given)."""
    try:
        return raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        line_no = raw.count(b"\n", 0, exc.start) + 1
        raise ParseError(line_no, f"invalid UTF-8: {exc.reason}", path) from None


def _parse_lines(raw: bytes, fmt: str, path=None) -> RawColumns:
    """Line-by-line reader: the reference for what the byte scanner takes,
    and the source of every :class:`ParseError`."""
    sep, lo, hi, expected = _FORMATS[fmt]
    users: list[str] = []
    items: list[str] = []
    for line_no, line in enumerate(_decode(raw, path).split("\n"), start=1):
        line = line.rstrip("\r")
        if not line:
            continue
        parts = line.split(sep)
        if not lo <= len(parts) <= hi:
            raise ParseError(line_no, f"expected {expected} fields, got {len(parts)}", path)
        if not parts[0] or not parts[1]:
            raise ParseError(line_no, "empty user or item id", path)
        try:
            if len(parts) >= 3:
                float(parts[2])
            if len(parts) == 4:
                int(parts[3])
        except ValueError as exc:
            raise ParseError(line_no, f"bad numeric field: {exc}", path) from None
        users.append(parts[0])
        items.append(parts[1])
    rows = np.arange(len(users))
    user_ids, user_codes = _code_keys([(rows, np.array(users, dtype=object))], len(rows))
    item_ids, item_codes = _code_keys([(rows, np.array(items, dtype=object))], len(rows))
    return RawColumns(user_ids, item_ids, user_codes, item_codes)


def _codes_in(values: list[str], ids: list[str]) -> np.ndarray:
    """Index of each value in ``ids``, -1 where absent."""
    index = {ext: code for code, ext in enumerate(ids)}
    return np.fromiter(map(index.get, values, repeat(-1)), dtype=np.int64, count=len(values))


def _by_first_appearance(codes: np.ndarray, n_codes: int) -> tuple[np.ndarray, np.ndarray]:
    """Renumber codes 0..n_codes-1 in order of first occurrence in ``codes``:
    (the codes that occur, in that order; the table from each code to its
    new number, -1 for a code that does not occur)."""
    n = len(codes)
    first = np.full(n_codes, n)
    np.minimum.at(first, codes, np.arange(n))
    occur = np.flatnonzero(first < n)
    order = occur[np.argsort(first[occur])]
    table = np.full(n_codes, -1, dtype=np.int64)
    table[order] = np.arange(len(order))
    return order, table


def check_min_interactions(min_user_interactions: int) -> None:
    if min_user_interactions < 1:
        raise ValueError("min_user_interactions must be >= 1")


def check_train_fraction(train_fraction: float) -> None:
    if not (0.0 < train_fraction < 1.0):
        raise ValueError("train_fraction must be in (0, 1)")


def check_items_per_user(items_per_user: int) -> None:
    if items_per_user < 1:
        raise ValueError("items_per_user must be >= 1")


def to_implicit(columns: RawColumns, min_user_interactions: int = 1) -> InteractionSet:
    """Collapse parsed records to a binary InteractionSet with dense indices.

    Ratings are discarded (any observation counts as 1), duplicates are
    collapsed, and users with fewer than ``min_user_interactions`` distinct
    items are dropped, with every item only they held. One pass suffices:
    dropping a user changes no other user's count. Surviving ids are
    re-indexed densely in order of first appearance.
    """
    check_min_interactions(min_user_interactions)
    user_ext, u = columns.user_ids, columns.users
    item_ext, i = columns.item_ids, columns.items
    n_u, n_i = len(user_ext), len(item_ext)
    keys, first = np.unique(u * n_i + i, return_index=True)
    u, i = keys // n_i, keys % n_i
    live = (np.bincount(u, minlength=n_u) >= min_user_interactions)[u]
    if not live.any():
        raise EmptyDatasetError("no interactions left after filtering")

    # Dense indices in order of first appearance among the surviving records;
    # an item no surviving user holds gets none.
    order = np.argsort(first[live])
    u, i = u[live], i[live]
    users, user_code = _by_first_appearance(u[order], n_u)
    items, item_code = _by_first_appearance(i[order], n_i)
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


def _draw_train(rng, indptr: np.ndarray, n_train: np.ndarray) -> np.ndarray:
    """Mark ``n_train[r]`` random entries of each row ``r`` of the CSR
    pointers ``indptr`` as train: one ``rng.permutation`` per row, rows in
    order."""
    in_train = np.zeros(indptr[-1], dtype=bool)
    bounds = indptr.tolist()
    for lo, hi, n in zip(bounds, bounds[1:], n_train.tolist()):
        in_train[lo + rng.permutation(hi - lo)[:n]] = True
    return in_train


def split_standard(data: InteractionSet, train_fraction: float, rng_seed: int) -> SplitPair:
    """Per-user random split: floor(fraction * |I_u|) items to train, min 1.

    A user whose train share would round to zero keeps one training item and
    contributes nothing to test. Items that end up with no training
    interaction are repaired by :func:`_repair_isolated_items` so the training
    graph has no isolated vertices. Deterministic for a fixed seed.
    """
    check_train_fraction(train_fraction)
    n_train = np.maximum(1, np.floor(train_fraction * np.diff(data.indptr))).astype(np.int64)
    in_train = _draw_train(np.random.default_rng(rng_seed), data.indptr, n_train)
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
    check_items_per_user(items_per_user)
    sizes = np.diff(data.indptr)
    kept_user = sizes > items_per_user
    retained = np.flatnonzero(kept_user)
    n_excluded = data.n_users - len(retained)
    if not len(retained):
        raise EmptyDatasetError("no user has more interactions than items_per_user")

    # The retained users' rows, in order; items re-indexed densely in order of
    # first appearance along them.
    entries = np.flatnonzero(np.repeat(kept_user, sizes))
    new_u = np.repeat(np.arange(len(retained)), sizes[retained])
    old_i = data.indices[entries]
    items, item_code = _by_first_appearance(old_i, data.n_items)
    new_i = item_code[old_i]

    # Draw each user's training items over its row in the old item order.
    indptr = _indptr(new_u, len(retained))
    in_train = _draw_train(np.random.default_rng(rng_seed), indptr,
                           np.full(len(retained), items_per_user))

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
    """One ``user<TAB>item`` line per entry, in (user, item) index order; the
    lines of one user are one join over its items."""
    items = np.asarray(s.item_ids, dtype=object)[s.indices].tolist()
    bounds = s.indptr.tolist()
    return "".join([f"{u}\t" + f"\n{u}\t".join(items[lo:hi]) + "\n"
                    for u, lo, hi in zip(s.user_ids, bounds, bounds[1:]) if hi > lo]
                   ).encode("utf-8")


def _id_blob(kind: str, ids: list[str]) -> np.ndarray:
    """``ids`` joined by newlines, as UTF-8 bytes. An id that cannot be one
    field of a tsv line (empty, or holding a tab or a line break) raises
    SplitFormatError naming it: train.tsv would read back as other ids."""
    blob = "\n".join(ids)
    if "\t" in blob or "\r" in blob or blob.count("\n") != max(len(ids) - 1, 0) or "" in ids:
        bad = next(i for i in ids if not i or "\t" in i or "\r" in i or "\n" in i)
        raise SplitFormatError(f"{kind} id {bad!r} cannot be written as a tsv field "
                               "(it is empty or holds a tab or a line break)")
    return np.frombuffer(blob.encode("utf-8"), dtype=np.uint8)


def _index_cache(split: SplitPair, tsv: dict[str, bytes]) -> bytes:
    """The index cache of a split (``INDEX_CACHE``), as ``np.savez`` bytes.

    It holds both halves in the index space :func:`load_train` derives from
    train.tsv, the ids, and the sha256 of each tsv payload in ``tsv``. Every
    user has a train row, so users keep their order; items are renumbered
    in order of first appearance along the train rows, and each row's items
    sorted again by one sort of (row, item) keys.
    """
    train = split.train
    items, code = _by_first_appearance(train.indices, train.n_items)
    if len(items) != train.n_items or not np.diff(train.indptr).all():
        raise SplitFormatError("the train half leaves a user or an item without an "
                               "interaction, so train.tsv cannot list it")
    arrays = {
        "user_ids": _id_blob("user", train.user_ids),
        "item_ids": _id_blob("item", [train.item_ids[i] for i in items.tolist()]),
    }
    for half, s in zip(_HALVES, (train, split.test)):
        offsets = s.rows() * train.n_items
        arrays[f"{half}_indptr"] = s.indptr
        arrays[f"{half}_indices"] = np.sort(offsets + code[s.indices]) - offsets
        arrays[f"{half}_sha256"] = np.frombuffer(
            hashlib.sha256(tsv[f"{half}.tsv"]).digest(), dtype=np.uint8)
    buf = io.BytesIO()
    np.savez(buf, **arrays)
    return buf.getvalue()


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
    """Write train.tsv, test.tsv, split.meta (key=value) and the index cache
    into ``out_dir``, all or none of them."""
    train = split.train
    meta = {
        "format_version": SPLIT_FORMAT_VERSION,
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
    payloads = {"train.tsv": _pairs_bytes(train), "test.tsv": _pairs_bytes(split.test)}
    payloads[INDEX_CACHE] = _index_cache(split, payloads)
    payloads["split.meta"] = "".join(f"{k}={v}\n" for k, v in meta.items()).encode("utf-8")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    _write_files(out, payloads)


def read_key_values(path) -> dict[str, str]:
    """Read a flat key=value file (a ``--config`` file or split.meta): a
    leading byte-order mark, '#' lines and blanks are skipped, and a key may
    be given only once; any other line raises ParseError naming file and line."""
    values: dict[str, str] = {}
    first_line: dict[str, int] = {}
    text = _decode(Path(path).read_bytes().removeprefix(codecs.BOM_UTF8), path)
    for line_no, line in enumerate(io.StringIO(text, newline=None), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        key, eq, value = line.partition("=")
        if not eq:
            raise ParseError(line_no, f"expected key=value, got {line!r}", path)
        key = key.strip()
        if key in values:
            raise ParseError(line_no, f"key {key!r} given again "
                                      f"(first on line {first_line[key]})", path)
        values[key] = value.strip()
        first_line[key] = line_no
    return values


def _meta_field(meta: dict[str, str], src: Path, key: str, cast):
    """``cast(meta[key])``; a missing or malformed value raises SplitFormatError."""
    if key not in meta:
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


def _read_cache(src: Path, raw: dict[str, bytes]) -> list[InteractionSet] | None:
    """The halves named in ``raw`` from the index cache, or None unless it
    reads cleanly, each half's bytes hash to the digest recorded for it and
    its arrays hold what an ``InteractionSet`` promises: ``indptr`` runs from
    0 to the entry count without falling, and every row's items lie in
    [0, n_items) and strictly ascend. ``raw`` holds each half's tsv file,
    read once: on a miss the text reader parses the same bytes. The file is
    opened here, not by ``np.load``, so one that is no zip leaves no handle
    open."""
    try:
        with open(src / INDEX_CACHE, "rb") as fh, np.load(fh, allow_pickle=False) as z:
            for half, payload in raw.items():
                if z[f"{half}_sha256"].tobytes() != hashlib.sha256(payload).digest():
                    return None
            user_ids = z["user_ids"].tobytes().decode("utf-8").split("\n")
            item_ids = z["item_ids"].tobytes().decode("utf-8").split("\n")
            arrays = [(z[f"{half}_indptr"], z[f"{half}_indices"]) for half in raw]
    except (OSError, EOFError, KeyError, ValueError, zipfile.BadZipFile):
        return None
    for indptr, indices in arrays:
        if (indptr.dtype != np.int64 or indices.dtype != np.int64
                or indptr.shape != (len(user_ids) + 1,) or indices.ndim != 1
                or indptr[0] != 0 or indptr[-1] != len(indices)
                or (np.diff(indptr) < 0).any()
                or (len(indices) and (indices.min() < 0 or indices.max() >= len(item_ids)))):
            return None
        if not _rows_ascend(indptr, indices):
            return None
    return [InteractionSet(len(user_ids), len(item_ids), indptr, indices, user_ids, item_ids)
            for indptr, indices in arrays]


def _rows_ascend(indptr: np.ndarray, indices: np.ndarray) -> bool:
    """Whether the items strictly ascend within every row of a CSR pattern
    whose ``indptr`` never falls: they may fall only where a row starts."""
    falls = np.diff(indices) <= 0
    starts = indptr[1:-1]
    falls[starts[(starts > 0) & (starts < len(indices))] - 1] = False
    return not falls.any()


def _read_test(src: Path, train: InteractionSet, raw: bytes) -> InteractionSet:
    """test.tsv's bytes ``raw`` parsed as text, in the index space of ``train``."""
    columns = parse_interactions(raw, "tsv", src / "test.tsv")
    # Only the distinct test ids are looked up in the train index space.
    users = _codes_in(columns.user_ids, train.user_ids)[columns.users]
    items = _codes_in(columns.item_ids, train.item_ids)[columns.items]
    outside = np.flatnonzero((users < 0) | (items < 0))
    if len(outside):
        k = outside[0]
        user, item = columns.user_ids[columns.users[k]], columns.item_ids[columns.items[k]]
        raise SplitFormatError(f"test pair ({user}, {item}) outside the train index space")
    return InteractionSet.from_pairs(train.n_users, train.n_items, users, items,
                                     train.user_ids, train.item_ids)


def _load(src: Path, with_test: bool):
    """(split.meta, the train half, the test half or None): the one reader of
    a persisted split. test.tsv is read only ``with_test``, and each tsv file
    read is read once. The index cache serves the halves when every file read
    hashes to its digest; otherwise their bytes are parsed. The train counts
    are checked against split.meta before test.tsv is parsed."""
    meta = read_key_values(src / "split.meta")
    if _meta_field(meta, src, "format_version", int) != SPLIT_FORMAT_VERSION:
        raise SplitFormatError(
            f"{src / 'split.meta'}: unsupported format_version {meta['format_version']}")
    halves = _HALVES if with_test else _HALVES[:1]
    raw = {half: (src / f"{half}.tsv").read_bytes() for half in halves}
    cached = _read_cache(src, raw)
    if cached:
        train = cached[0]
    else:
        columns = parse_interactions(raw["train"], "tsv", src / "train.tsv")
        train = InteractionSet.from_pairs(len(columns.user_ids), len(columns.item_ids),
                                          columns.users, columns.items,
                                          columns.user_ids, columns.item_ids)
    _check_meta(meta, src, {
        "n_users": train.n_users,
        "n_items": train.n_items,
        "n_train": train.n_interactions(),
    })
    if not with_test:
        return meta, train, None
    test = cached[1] if cached else _read_test(src, train, raw["test"])
    _check_meta(meta, src, {"n_test": test.n_interactions()})
    return meta, train, test


def load_train(in_dir) -> InteractionSet:
    """Load the train half of a persisted split; test.tsv is not read.

    The dense index space is the one train.tsv gives in order of first
    appearance, so index values are deterministic given the files (they need
    not match the in-memory split that wrote them; all ids round-trip). It
    comes from the index cache when train.tsv hashes to the digest the cache
    records, else from parsing train.tsv. The user, item and train-pair
    counts must match split.meta, whose format_version must be
    ``SPLIT_FORMAT_VERSION``.
    """
    return _load(Path(in_dir), with_test=False)[1]


def load_split(in_dir) -> SplitPair:
    """Load a persisted split: :func:`load_train`, then test.tsv in the same
    index space, its pair count checked against split.meta. The index cache
    serves both halves when both tsv files hash to its digests; otherwise
    both are parsed."""
    src = Path(in_dir)
    meta, train, test = _load(src, with_test=True)
    return SplitPair(
        train=train,
        test=test,
        protocol=_meta_field(meta, src, "protocol", str),
        protocol_param=_meta_field(meta, src, "protocol_param", float),
        seed=_meta_field(meta, src, "seed", int),
        n_excluded_users=_meta_field(meta, src, "n_excluded_users", int),
        n_swapped=_meta_field(meta, src, "n_swapped", int),
        n_rescued=_meta_field(meta, src, "n_rescued", int),
    )
