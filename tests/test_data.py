import builtins
import errno
import io
import os
import re
import shutil
from pathlib import Path

import numpy as np
import pytest

from spectralcf import cli, data
from spectralcf.errors import EmptyDatasetError, ParseError, SpectralCFError, SplitFormatError

from conftest import make_interactions, random_interactions


def users_of(cols):
    """The user id of every record, in input order."""
    return [cols.user_ids[u] for u in cols.users.tolist()]


def items_of(cols):
    """The item id of every record, in input order."""
    return [cols.item_ids[i] for i in cols.items.tolist()]


class TestParse:
    def test_movielens_dat(self):
        raw = b"1::1193::5::978300760\n1::661::3::978302109\n2::1193::4::978298413\n"
        cols = data.parse_interactions(raw, "movielens_dat")
        assert len(cols) == 3
        assert users_of(cols) == ["1", "1", "2"]
        assert items_of(cols) == ["1193", "661", "1193"]

    def test_tsv_two_to_four_fields(self):
        raw = b"a\tx\nb\ty\t2.5\nc\tz\t1\t99\n"
        cols = data.parse_interactions(raw, "tsv")
        assert users_of(cols) == ["a", "b", "c"]
        assert items_of(cols) == ["x", "y", "z"]
        # The optional fields are checked on every line, also in mixed files.
        for bad, line_no in [(b"a\tx\nb\ty\t2.5x\n", 2), (b"a\tx\t1\t9.5\nb\ty\n", 1),
                             (b"a\tx\t1\t2\t3\n", 1), (b"a\t\n", 1)]:
            with pytest.raises(ParseError) as exc:
                data.parse_interactions(bad, "tsv")
            assert exc.value.line_no == line_no

    def test_blank_lines_skipped(self):
        cols = data.parse_interactions(b"a\tx\n\n\nb\ty\n", "tsv")
        assert len(cols) == 2
        assert users_of(cols) == ["a", "b"]

    def test_malformed_line_reports_number(self):
        # Blank lines count, and CRLF endings change nothing.
        for raw, line_no in [(b"a\tx\nbroken\n", 2), (b"a\tx\n\nbroken\n", 3),
                             (b"a\tx\r\nbroken\r\nb\ty\r\n", 2),
                             (b"a\tx\r\n\r\nb\ty\r\nbroken\r\n", 4)]:
            with pytest.raises(ParseError) as exc:
                data.parse_interactions(raw, "tsv")
            assert exc.value.line_no == line_no
        cols = data.parse_interactions(b"a\tx\r\n\r\nb\ty\t1\r\n", "tsv")
        assert users_of(cols) == ["a", "b"] and items_of(cols) == ["x", "y"]

    def test_bad_numeric_field(self):
        with pytest.raises(ParseError) as exc:
            data.parse_interactions(b"1::2::bad::3\n", "movielens_dat")
        assert exc.value.line_no == 1

    def test_unknown_format(self):
        with pytest.raises(ValueError):
            data.parse_interactions(b"", "csv")


def first_appearance_oracle(values):
    """(distinct values in order of first appearance, each value's code)."""
    ids = list(dict.fromkeys(values))
    index = {v: k for k, v in enumerate(ids)}
    return ids, [index[v] for v in values]


def parsed_or_line(parse, raw, fmt):
    """Per-record (user, item) ids as parse codes them, or the line number
    of its ParseError."""
    try:
        cols = parse(raw, fmt)
    except ParseError as exc:
        return exc.line_no
    assert cols.users.dtype == cols.items.dtype == np.int64
    assert len(cols.users) == len(cols.items) == len(cols)
    assert cols.user_ids == first_appearance_oracle(users_of(cols))[0]
    assert cols.item_ids == first_appearance_oracle(items_of(cols))[0]
    return cols.user_ids, cols.users.tolist(), cols.item_ids, cols.items.tolist()


ID_CHARS = ["a", "b", "Z", "0", "7", "-", ".", " ", ":", "\u00e9", "\u65e5", "\U0001f600"]
RATINGS = ["5", "3", "12", "4.5", "1e3", " 7", "-5", "x", "", "\u0663"]
STAMPS = ["978300760", "0", "42", "-5", " 7", "4.5", "1_0", ""]
NOISE = [b"\0", b"\xff", b"\xc3", b"\r", b":::", b":", b"\t", b"\n", b"::", b"\r\n"]


def random_file(rng):
    """A small interaction file: mostly well formed, often with one defect."""
    fmt = ["tsv", "movielens_dat"][rng.integers(2)]
    sep = "\t" if fmt == "tsv" else "::"
    pool = ["".join(rng.choice(ID_CHARS, size=rng.integers(1, 20)).tolist())
            for _ in range(rng.integers(1, 8))]
    if fmt == "movielens_dat" and rng.random() < 0.5:
        pool = [p.replace(":", "") or "q" for p in pool]
    width = 4 if fmt == "movielens_dat" else int(rng.integers(2, 5))
    mixed = rng.random() < 0.15
    clean = rng.random() < 0.5
    lines = []
    for _ in range(rng.integers(0, 25)):
        w = int(rng.integers(2, 6)) if mixed else width
        fields = [pool[rng.integers(len(pool))], pool[rng.integers(len(pool))]]
        if w >= 3:
            fields.append("4" if clean else RATINGS[rng.integers(len(RATINGS))])
        if w >= 4:
            fields.append("978300760" if clean else STAMPS[rng.integers(len(STAMPS))])
        fields += ["1"] * (w - 4)
        lines.append(sep.join(fields))
        if rng.random() < 0.1:
            lines.append("")
    end = "\r\n" if rng.random() < 0.3 else "\n"
    raw = end.join(lines).encode("utf-8")
    if lines and rng.random() < 0.7:
        raw += end.encode()
    if rng.random() < 0.3:
        at = int(rng.integers(len(raw) + 1))
        raw = raw[:at] + NOISE[rng.integers(len(NOISE))] + raw[at:]
    return raw, fmt


class TestScannerAgainstLineReader:
    """The byte scanner and the line-by-line reader code the same ids the same
    way, or report the same bad line."""

    CASES = [
        (b"a\tx\r\nb\ty\r\n", "tsv"),
        (b"a\tx\n\n\nb\ty\n\n", "tsv"),
        (b"a\tx\nb\ty", "tsv"),
        (b"\n\n", "tsv"),
        (b"", "movielens_dat"),
        ("user-\u00e9\u65e5\titem-longer-than-16-bytes\nu\ti\n".encode(), "tsv"),
        (b"long-user-id-1\tx\nlong-user-id-2\tx\nlong-user-id-1\ty\nu\tx\n", "tsv"),
        (b"a:b::c:d::5::978300760\na::c:d::1::2\n", "movielens_dat"),
        (b"a:::b::5::1\n", "movielens_dat"),
        (b"a::b::4.5::1\nc::d::1e3:: 7\ne::f::-5::-5\n", "movielens_dat"),
        (b"a::b::4.5::x\n", "movielens_dat"),
        (b"a\tb\t1\nc\td\n", "tsv"),
        (b"a\tx\nb\0\ty\n", "tsv"),
        (b"a\tx\nb\xff\ty\n", "tsv"),
        (b"a\tx\nb\ry\tz\n", "tsv"),
        (b"a\tx\r\r\nb\ty\n", "tsv"),
        (b"a\tx\nb\t\n", "tsv"),
        (b"a\tx\n\tb\n", "tsv"),
        # The separator count fits one width, but not line by line.
        (b"a\tb\t1\nc\n", "tsv"),
        (b"1::2::3::4\n5:::6::7\n", "movielens_dat"),
    ]

    def check(self, raw, fmt):
        expected = parsed_or_line(data._parse_lines, raw, fmt)
        assert parsed_or_line(data.parse_interactions, raw, fmt) == expected
        scanned = data._scan(raw, fmt)
        if scanned is not None:
            assert parsed_or_line(lambda *_: scanned, raw, fmt) == expected
        return scanned is not None

    def test_hand_written_cases(self):
        taken = [self.check(raw, fmt) for raw, fmt in self.CASES]
        # Regular files go to the scanner, irregular ones to the line reader.
        assert taken[:8] == [True] * 8
        assert taken[8:11] == [False, True, False] and taken[11:] == [False] * 9

    def test_random_files(self):
        rng = np.random.default_rng(20)
        taken = [self.check(*random_file(rng)) for _ in range(600)]
        assert sum(taken) > 150

    def test_numeric_columns_checked_apart_from_ids(self):
        # A column of non-digit numbers is checked value by value, and the
        # file stays with the scanner.
        raw = b"a::b::4.5::1\nc::d::1e3:: 7\n"
        assert users_of(data._scan(raw, "movielens_dat")) == ["a", "c"]
        assert data._scan(b"a::b::4.5::1\nc::d::x::7\n", "movielens_dat") is None


def test_first_appearance_order_matches_dict_order():
    rng = np.random.default_rng(10)
    for size in [0, 1, 5, 50, 400]:
        codes = rng.integers(int(rng.integers(1, 30)), size=size)
        expected = list(dict.fromkeys(codes.tolist()))
        assert data._in_first_appearance_order(codes).tolist() == expected


class TestToImplicit:
    def test_duplicates_collapse(self):
        raws = data.parse_interactions(b"a\tx\na\tx\na\ty\nb\tx\n", "tsv")
        ds = data.to_implicit(raws)
        assert ds.n_interactions() == 3
        assert ds.n_users == 2 and ds.n_items == 2

    def test_indices_follow_first_appearance(self):
        raws = data.parse_interactions(b"u9\tiB\nu1\tiA\nu9\tiA\n", "tsv")
        ds = data.to_implicit(raws)
        assert ds.user_ids == ["u9", "u1"]
        assert ds.item_ids == ["iB", "iA"]
        assert (0, 0) in ds.pairs and (1, 1) in ds.pairs and (0, 1) in ds.pairs

    def test_min_interactions_filter_cascades(self):
        # After dropping user b (1 interaction), item z loses its only edge
        # and disappears too.
        raws = data.parse_interactions(b"a\tx\na\ty\nb\tz\n", "tsv")
        ds = data.to_implicit(raws, min_user_interactions=2)
        assert ds.n_users == 1 and ds.n_items == 2
        assert ds.user_ids == ["a"] and ds.item_ids == ["x", "y"]

    def test_filter_drops_orphaned_items(self):
        # c falls under the threshold; z, touched only by c, goes with it.
        # v stays because a still touches it.
        raw = b"a\tx\na\tv\nb\tx\nb\ty\nc\tz\n"
        ds = data.to_implicit(data.parse_interactions(raw, "tsv"), min_user_interactions=2)
        assert ds.user_ids == ["a", "b"]
        assert set(ds.item_ids) == {"x", "v", "y"}

    def test_everything_filtered_raises(self):
        raws = data.parse_interactions(b"a\tx\n", "tsv")
        with pytest.raises(EmptyDatasetError):
            data.to_implicit(raws, min_user_interactions=5)

    def test_user_items_sorted_ascending(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            ds = random_interactions(rng)
            for items in map(ds.items_of, range(ds.n_users)):
                assert (np.diff(items) > 0).all() if len(items) > 1 else True


class TestStandardSplit:
    def test_partition_and_fraction(self):
        rng = np.random.default_rng(1)
        for trial in range(25):
            ds = random_interactions(rng, max_users=10, max_items=12, density=0.4)
            split = data.split_standard(ds, 0.8, rng_seed=trial)
            train_pairs = split.train.pairs
            assert train_pairs | split.test.pairs == ds.pairs
            assert not (train_pairs & split.test.pairs)
            # Every user keeps at least one training interaction.
            for u in range(ds.n_users):
                assert len(split.train.items_of(u)) >= 1

    def test_per_user_counts_without_rescue(self):
        rng = np.random.default_rng(2)
        for trial in range(25):
            ds = random_interactions(rng, max_users=10, max_items=12, density=0.5)
            split = data.split_standard(ds, 0.8, rng_seed=100 + trial)
            if split.n_rescued:
                continue
            for u in range(ds.n_users):
                n = len(ds.items_of(u))
                expected = max(1, int(np.floor(0.8 * n)))
                assert len(split.train.items_of(u)) == expected

    def test_every_item_keeps_train_degree(self):
        rng = np.random.default_rng(3)
        for trial in range(40):
            ds = random_interactions(rng, max_users=6, max_items=12, density=0.2)
            split = data.split_standard(ds, 0.5, rng_seed=trial)
            item_deg = np.zeros(ds.n_items, dtype=int)
            for (_, i) in split.train.pairs:
                item_deg[i] += 1
            assert (item_deg >= 1).all()

    def test_determinism(self, toy_set):
        a = data.split_standard(toy_set, 0.8, rng_seed=7)
        b = data.split_standard(toy_set, 0.8, rng_seed=7)
        assert a.train.pairs == b.train.pairs and a.test.pairs == b.test.pairs

    def test_single_interaction_user_stays_in_train(self):
        ds = make_interactions(2, 2, {(0, 0), (1, 0), (1, 1)})
        split = data.split_standard(ds, 0.8, rng_seed=0)
        assert len(split.train.items_of(0)) == 1

    def test_bad_fraction(self, toy_set):
        with pytest.raises(ValueError):
            data.split_standard(toy_set, 1.5, rng_seed=0)


class TestColdStartSplit:
    def test_exactly_p_train_items(self):
        rng = np.random.default_rng(4)
        for trial in range(20):
            ds = random_interactions(rng, max_users=8, max_items=10, density=0.6, min_users=4, min_items=6)
            p = 2
            split = data.split_cold_start(ds, p, rng_seed=trial)
            # Swaps preserve the per-user count; only rare promotions grow it.
            sizes = [len(split.train.items_of(u)) for u in range(split.train.n_users)]
            assert sum(sizes) == p * split.train.n_users + split.n_rescued
            if split.n_rescued == 0:
                assert all(n == p for n in sizes)

    def test_light_users_excluded_and_counted(self):
        # u1 has one interaction, u2 and u3 have three; P=2 keeps only u2, u3.
        ds = make_interactions(
            3, 4, {(0, 0), (1, 0), (1, 1), (1, 2), (2, 1), (2, 2), (2, 3)}
        )
        split = data.split_cold_start(ds, 2, rng_seed=0)
        assert split.n_excluded_users == 1
        assert split.train.n_users == 2
        assert "u1" not in split.train.user_ids

    def test_items_reindexed_densely(self):
        # After excluding u1, item i1 may survive only through u2.
        ds = make_interactions(
            3, 4, {(0, 0), (1, 0), (1, 1), (1, 2), (2, 1), (2, 2), (2, 3)}
        )
        split = data.split_cold_start(ds, 2, rng_seed=0)
        n_items = split.train.n_items
        touched = {i for (_, i) in split.train.pairs} | {i for (_, i) in split.test.pairs}
        assert touched == set(range(n_items))
        assert len(split.train.item_ids) == n_items

    def test_partition_of_retained_users(self):
        rng = np.random.default_rng(5)
        for trial in range(20):
            ds = random_interactions(rng, max_users=8, max_items=10, density=0.6, min_users=4, min_items=6)
            split = data.split_cold_start(ds, 2, rng_seed=trial)
            # Map retained pairs through external ids and compare with source.
            ext = {
                (split.train.user_ids[u], split.train.item_ids[i])
                for (u, i) in (split.train.pairs | split.test.pairs)
            }
            orig = {
                (ds.user_ids[u], ds.item_ids[i])
                for (u, i) in ds.pairs
                if len(ds.items_of(u)) > 2
            }
            # Items that only light users touched vanish with them.
            retained_items = set(split.train.item_ids)
            orig = {(u, i) for (u, i) in orig if i in retained_items}
            assert ext == orig

    def test_all_users_too_light_raises(self, toy_set):
        with pytest.raises(EmptyDatasetError):
            data.split_cold_start(toy_set, 3, rng_seed=0)

    def test_determinism(self):
        rng = np.random.default_rng(6)
        ds = random_interactions(rng, max_users=8, max_items=10, density=0.6, min_users=4, min_items=6)
        a = data.split_cold_start(ds, 2, rng_seed=9)
        b = data.split_cold_start(ds, 2, rng_seed=9)
        assert a.train.pairs == b.train.pairs and a.test.pairs == b.test.pairs


class TestSplitPersistence:
    def test_round_trip_pairs_by_external_id(self, tmp_path):
        rng = np.random.default_rng(7)
        for trial in range(10):
            ds = random_interactions(rng, max_users=8, max_items=10, density=0.4)
            split = data.split_standard(ds, 0.8, rng_seed=trial)
            out = tmp_path / f"s{trial}"
            out.mkdir()
            data.save_split(split, out)
            back = data.load_split(out)

            def ext_pairs(s, pairs):
                return {(s.train.user_ids[u], s.train.item_ids[i]) for (u, i) in pairs}

            assert ext_pairs(back, back.train.pairs) == ext_pairs(split, split.train.pairs)
            assert ext_pairs(back, back.test.pairs) == ext_pairs(split, split.test.pairs)
            assert back.protocol == split.protocol
            assert back.seed == split.seed

    def test_sidecar_counts(self, tmp_path, toy_set):
        split = data.split_standard(toy_set, 0.8, rng_seed=3)
        data.save_split(split, tmp_path)
        meta = dict(
            line.strip().split("=", 1)
            for line in (tmp_path / "split.meta").read_text().splitlines()
            if line.strip()
        )
        assert int(meta["n_train"]) == len(split.train.pairs)
        assert int(meta["n_test"]) == split.test.n_interactions()
        assert meta["protocol"] == data.PROTOCOL_STANDARD

    def test_identical_files_for_same_seed(self, tmp_path, toy_set):
        for name in ("a", "b"):
            d = tmp_path / name
            d.mkdir()
            data.save_split(data.split_standard(toy_set, 0.8, rng_seed=5), d)
        for fname in ("train.tsv", "test.tsv", "split.meta"):
            assert (tmp_path / "a" / fname).read_bytes() == (tmp_path / "b" / fname).read_bytes()

    def test_corrupt_counts_rejected(self, tmp_path, toy_set):
        split = data.split_standard(toy_set, 0.8, rng_seed=3)
        data.save_split(split, tmp_path)
        meta = (tmp_path / "split.meta").read_text().replace(
            f"n_test={split.test.n_interactions()}", "n_test=999"
        )
        (tmp_path / "split.meta").write_text(meta)
        with pytest.raises(ValueError):
            data.load_split(tmp_path)

    def test_missing_meta_key_names_file_and_key(self, tmp_path, toy_set, capsys):
        data.save_split(data.split_standard(toy_set, 0.8, rng_seed=3), tmp_path)
        meta = tmp_path / "split.meta"
        meta.write_text("".join(line for line in meta.read_text().splitlines(keepends=True)
                                if not line.startswith(("n_test=", "protocol="))))
        with pytest.raises(SpectralCFError, match=r"split\.meta: missing key 'n_test'"):
            data.load_split(tmp_path)
        assert cli.main(["evaluate", "--split-dir", str(tmp_path), "--checkpoint", "x.spck"]) == 1
        err = capsys.readouterr().err
        assert "split.meta" in err and "n_test" in err

    def test_non_integer_meta_value_names_file_and_key(self, tmp_path, toy_set, capsys):
        data.save_split(data.split_standard(toy_set, 0.8, rng_seed=3), tmp_path)
        meta = tmp_path / "split.meta"
        meta.write_text(meta.read_text().replace(f"n_users={toy_set.n_users}", "n_users=abc"))
        with pytest.raises(SpectralCFError, match=r"split\.meta: n_users='abc'"):
            data.load_train(tmp_path)
        assert cli.main(["train", "--split-dir", str(tmp_path), "--out-dir", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert "split.meta" in err and "n_users" in err

    @pytest.mark.parametrize("edit, message", [
        (lambda text: text.replace("format_version=1\n", ""), "missing key 'format_version'"),
        (lambda text: text.replace("format_version=1", "format_version=2"),
         "unsupported format_version 2"),
    ], ids=["missing", "other"])
    def test_format_version_checked(self, tmp_path, toy_set, capsys, edit, message):
        data.save_split(data.split_standard(toy_set, 0.8, rng_seed=3), tmp_path)
        meta = tmp_path / "split.meta"
        meta.write_text(edit(meta.read_text()))
        for load in (data.load_train, data.load_split):
            with pytest.raises(SplitFormatError, match=re.escape(f"{meta}: {message}")):
                load(tmp_path)
        assert cli.main(["train", "--split-dir", str(tmp_path), "--out-dir", str(tmp_path)]) == 1
        assert capsys.readouterr().err == f"error: {meta}: {message}\n"

    @pytest.mark.parametrize("line, reason", [
        ("seed=4", "key 'seed' given again (first on line 4)"),
        ("n_users 3", "expected key=value, got 'n_users 3'"),
    ], ids=["duplicate-key", "no-equals"])
    def test_malformed_meta_line_names_file_and_line(self, tmp_path, toy_set, line, reason):
        data.save_split(data.split_standard(toy_set, 0.8, rng_seed=3), tmp_path)
        meta = tmp_path / "split.meta"
        lines = meta.read_text().splitlines(keepends=True)
        assert lines[3].startswith("seed=")
        meta.write_text("".join(lines + [line + "\n"]))
        for load in (data.load_train, data.load_split):
            with pytest.raises(ParseError) as info:
                load(tmp_path)
            assert str(info.value) == f"{meta}: line {len(lines) + 1}: {reason}"

    def test_test_pair_outside_train_index_space_named(self, tmp_path, toy_set):
        data.save_split(data.split_standard(toy_set, 0.8, rng_seed=3), tmp_path)
        with open(tmp_path / "test.tsv", "a", encoding="utf-8") as fh:
            fh.write(f"{toy_set.user_ids[0]}\tnew-item\n")
        with pytest.raises(SplitFormatError, match=rf"test pair \({toy_set.user_ids[0]}, "
                                                    r"new-item\) outside the train index"):
            data.load_split(tmp_path)

    def test_interrupted_atomic_write_keeps_previous_bytes(self, tmp_path):
        path = tmp_path / "model.spck"
        path.write_bytes(b"previous")
        with pytest.raises(KeyboardInterrupt):
            with data.atomic_open(path) as fh:
                fh.write(b"half of the new")
                raise KeyboardInterrupt
        assert [p.name for p in tmp_path.iterdir()] == ["model.spck"]
        assert path.read_bytes() == b"previous"
        with data.atomic_open(path) as fh:
            fh.write(b"new")
        assert [p.name for p in tmp_path.iterdir()] == ["model.spck"]
        assert path.read_bytes() == b"new"

    def test_failed_write_keeps_previous_files(self, tmp_path, toy_set, monkeypatch):
        data.save_split(data.split_standard(toy_set, 0.8, rng_seed=3), tmp_path)
        before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}

        class HalfWriter:
            """Writes half of what it is given, then fails as a full disk does."""

            def __init__(self, fh):
                self.fh = fh

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.fh.close()

            def write(self, payload):
                self.fh.write(payload[: len(payload) // 2])
                raise OSError(errno.ENOSPC, "No space left on device")

        def failing_open(path, mode="r", *args, **kwargs):
            fh = open(path, mode, *args, **kwargs)
            return HalfWriter(fh) if "test.tsv" in str(path) and "w" in mode else fh

        monkeypatch.setattr(data, "open", failing_open, raising=False)
        other = data.split_standard(random_interactions(np.random.default_rng(8)), 0.8, 0)
        with pytest.raises(OSError):
            data.save_split(other, tmp_path)
        assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before


def test_pairs_bytes_match_one_line_per_entry():
    # Both halves, so users without an entry (test rows) are covered too.
    rng = np.random.default_rng(12)
    for trial in range(20):
        ds = random_interactions(rng, max_users=10, max_items=12, density=0.4)
        split = data.split_standard(ds, 0.5, rng_seed=trial)
        for s in (split.train, split.test):
            lines = [f"{s.user_ids[u]}\t{s.item_ids[i]}\n"
                     for u, i in zip(s.rows().tolist(), s.indices.tolist())]
            assert data._pairs_bytes(s) == "".join(lines).encode("utf-8")


class TestSplitFilesReadBack:
    """split refuses, before writing any file, what train.tsv could not
    carry back to the loader; a bad line is named with its file."""

    @pytest.mark.parametrize("line, shown", [
        ("u\tx::i15::5::0", r"user id 'u\tx'"),
        ("3::i\r::5::0", r"item id 'i\r'"),
    ], ids=["tab-in-user", "cr-ending-item"])
    def test_split_rejects_an_id_a_tsv_field_cannot_hold(self, tmp_path, capsys, line,
                                                         shown):
        raw = tmp_path / "ratings.dat"
        lines = ["1::i1::5::0", "1::i2::4::0", "2::i1::3::0", "2::i15::1::0", line]
        raw.write_bytes(("\n".join(lines) + "\n").encode("utf-8"))
        out = tmp_path / "split"
        assert cli.main(["split", "--input", str(raw), "--format", "movielens-dat",
                         "--out-dir", str(out)]) == 1
        assert shown in capsys.readouterr().err
        assert not out.exists()

    def test_train_half_without_a_user_row_rejected(self, tmp_path, toy_set):
        split = data.split_standard(toy_set, 0.8, rng_seed=3)
        split.train = split.train.subset(split.train.rows() != 0)
        with pytest.raises(SplitFormatError, match="without an interaction"):
            data.save_split(split, tmp_path / "split")
        assert not (tmp_path / "split").exists()

    @pytest.mark.parametrize("name", ["train.tsv", "test.tsv"])
    def test_parse_error_names_the_file(self, tmp_path, toy_set, capsys, name):
        data.save_split(data.split_standard(toy_set, 0.8, rng_seed=3), tmp_path)
        path = tmp_path / name
        line_no = len(path.read_text().splitlines()) + 1
        with open(path, "a", encoding="utf-8") as fh:
            fh.write("broken\n")
        with pytest.raises(ParseError, match=rf"^{re.escape(str(path))}: line {line_no}: ") as exc:
            data.load_split(tmp_path)
        assert exc.value.line_no == line_no
        assert cli.main(["evaluate", "--split-dir", str(tmp_path), "--checkpoint", "x.spck"]) == 1
        assert f"error: {path}: line {line_no}: " in capsys.readouterr().err


    @pytest.mark.parametrize("command", ["split", "spectral-embed"])
    def test_parse_error_of_an_input_names_the_file(self, tmp_path, capsys, command):
        raw = tmp_path / "ratings.dat"
        raw.write_text("1::2::3::4\nbroken\n")
        assert cli.main([command, "--input", str(raw), "--format", "movielens-dat",
                         "--out-dir", str(tmp_path / "out")]) == 1
        assert f"error: {raw}: line 2: " in capsys.readouterr().err


def cache_split(tmp_path, protocol, seed):
    """A split of a random skewed tsv input, saved with its index cache."""
    rng = np.random.default_rng(seed)
    users, items = rng.integers(40, size=600), rng.zipf(1.5, size=600) % 60
    raw = "".join(f"u{u}\ti{i}\n" for u, i in zip(users.tolist(), items.tolist()))
    ds = data.to_implicit(data.parse_interactions(raw, "tsv"))
    split = (data.split_standard(ds, 0.8, seed) if protocol == "standard"
             else data.split_cold_start(ds, 2, seed))
    out = tmp_path / "split"
    data.save_split(split, out)
    return out


def loaded(path):
    """Everything load_split and load_train return, as plain values."""
    s, train = data.load_split(path), data.load_train(path)
    halves = [(h.n_users, h.n_items, h.indptr.dtype, h.indices.dtype, h.indptr.tolist(),
               h.indices.tolist(), h.user_ids, h.item_ids) for h in (s.train, s.test, train)]
    return halves, (s.protocol, s.protocol_param, s.seed, s.n_excluded_users, s.n_swapped,
                    s.n_rescued)


def cache_hit(split_dir, halves):
    """Whether the index cache serves the named halves as the files stand."""
    raw = {half: (split_dir / f"{half}.tsv").read_bytes() for half in halves}
    return data._read_cache(split_dir, raw) is not None


def drop_cache(path):
    (path / data.INDEX_CACHE).unlink()


def reverse_train(path):
    """A stale train digest: the same pairs, listed in another order, so the
    text reader numbers users and items differently."""
    train = path / "train.tsv"
    train.write_text("".join(reversed(train.read_text().splitlines(True))))


def drop_test_line(path):
    """A stale test digest: one test pair fewer, split.meta updated to match."""
    test, meta = path / "test.tsv", path / "split.meta"
    lines = test.read_text().splitlines(True)
    test.write_text("".join(lines[:-1]))
    meta.write_text(meta.read_text().replace(f"n_test={len(lines)}\n",
                                             f"n_test={len(lines) - 1}\n"))


def truncate_cache(path):
    cache = path / data.INDEX_CACHE
    cache.write_bytes(cache.read_bytes()[:cache.stat().st_size // 2])


class TestIndexCache:
    @pytest.mark.parametrize("protocol", ["standard", "cold-start"])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("edit, cached", [
        (None, True), (drop_cache, False), (reverse_train, False), (drop_test_line, False),
        (truncate_cache, False),
    ], ids=["cache", "no-cache", "train-edited", "test-edited", "truncated-cache"])
    def test_loads_what_the_text_reader_does(self, tmp_path, protocol, seed, edit, cached):
        split_dir = cache_split(tmp_path, protocol, seed)
        if edit:
            edit(split_dir)
        assert cache_hit(split_dir, data._HALVES) == cached
        text_dir = tmp_path / "text"
        shutil.copytree(split_dir, text_dir)
        (text_dir / data.INDEX_CACHE).unlink(missing_ok=True)
        assert loaded(split_dir) == loaded(text_dir)

    def test_train_cache_serves_load_train_after_a_test_edit(self, tmp_path):
        split_dir = cache_split(tmp_path, "standard", 3)
        drop_test_line(split_dir)
        assert cache_hit(split_dir, ("train",))
        (split_dir / "test.tsv").unlink()
        assert data.load_train(split_dir).n_interactions() > 0

    def test_stale_cache_reads_train_tsv_once(self, tmp_path, monkeypatch):
        split_dir = cache_split(tmp_path, "standard", 4)
        reverse_train(split_dir)
        opened, real_open = [], io.open

        def spy(file, *args, **kwargs):
            if isinstance(file, (str, os.PathLike)):
                opened.append(Path(file).name)
            return real_open(file, *args, **kwargs)

        monkeypatch.setattr(builtins, "open", spy)
        monkeypatch.setattr(io, "open", spy)
        train = data.load_train(split_dir)
        monkeypatch.undo()
        assert opened.count("train.tsv") == 1
        assert opened.count(data.INDEX_CACHE) == 1
        assert train.n_interactions() == data.load_train(split_dir).n_interactions()
