import errno

import numpy as np
import pytest

from spectralcf import cli, data
from spectralcf.errors import EmptyDatasetError, ParseError, SpectralCFError

from conftest import make_interactions, random_interactions


class TestParse:
    def test_movielens_dat(self):
        raw = b"1::1193::5::978300760\n1::661::3::978302109\n2::1193::4::978298413\n"
        cols = data.parse_interactions(raw, "movielens_dat")
        assert len(cols) == 3
        assert cols.users == ["1", "1", "2"]
        assert cols.items == ["1193", "661", "1193"]

    def test_tsv_two_to_four_fields(self):
        raw = b"a\tx\nb\ty\t2.5\nc\tz\t1\t99\n"
        cols = data.parse_interactions(raw, "tsv")
        assert cols.users == ["a", "b", "c"]
        assert cols.items == ["x", "y", "z"]
        # The optional fields are checked on every line, also in mixed files.
        for bad, line_no in [(b"a\tx\nb\ty\t2.5x\n", 2), (b"a\tx\t1\t9.5\nb\ty\n", 1),
                             (b"a\tx\t1\t2\t3\n", 1), (b"a\t\n", 1)]:
            with pytest.raises(ParseError) as exc:
                data.parse_interactions(bad, "tsv")
            assert exc.value.line_no == line_no

    def test_blank_lines_skipped(self):
        cols = data.parse_interactions(b"a\tx\n\n\nb\ty\n", "tsv")
        assert len(cols) == 2
        assert cols.users == ["a", "b"]

    def test_malformed_line_reports_number(self):
        # Blank lines count, and CRLF endings change nothing.
        for raw, line_no in [(b"a\tx\nbroken\n", 2), (b"a\tx\n\nbroken\n", 3),
                             (b"a\tx\r\nbroken\r\nb\ty\r\n", 2),
                             (b"a\tx\r\n\r\nb\ty\r\nbroken\r\n", 4)]:
            with pytest.raises(ParseError) as exc:
                data.parse_interactions(raw, "tsv")
            assert exc.value.line_no == line_no
        cols = data.parse_interactions(b"a\tx\r\n\r\nb\ty\t1\r\n", "tsv")
        assert cols.users == ["a", "b"] and cols.items == ["x", "y"]

    def test_bad_numeric_field(self):
        with pytest.raises(ParseError) as exc:
            data.parse_interactions(b"1::2::bad::3\n", "movielens_dat")
        assert exc.value.line_no == 1

    def test_unknown_format(self):
        with pytest.raises(ValueError):
            data.parse_interactions(b"", "csv")


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
