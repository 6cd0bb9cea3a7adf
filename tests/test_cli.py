import hashlib

import numpy as np
import pytest

from spectralcf import cli


def write_raw(path, rng, n_users=12, n_items=10, density=0.45):
    """Random bipartite interactions as a raw TSV with guaranteed coverage."""
    rows = []
    for u in range(n_users):
        items = np.nonzero(rng.random(n_items) < density)[0]
        if len(items) == 0:
            items = [int(rng.integers(n_items))]
        for i in items:
            rows.append(f"u{u}\ti{i}")
    # Make sure every item shows up at least once.
    seen = {r.split("\t")[1] for r in rows}
    for i in range(n_items):
        if f"i{i}" not in seen:
            rows.append(f"u0\ti{i}")
    path.write_text("\n".join(rows) + "\n")
    return path


def write_movielens(path):
    """A fixed ``::`` file: skewed item popularity, repeated pairs, users
    with one or two interactions, lines in shuffled order."""
    rng = np.random.default_rng(20)
    popularity = 1.0 / np.arange(1, 41) ** 1.2
    lines = []
    for u in range(1, 51):
        for i in rng.choice(40, size=int(rng.integers(1, 25)), p=popularity / popularity.sum()):
            rating, stamp = rng.integers(1, 6), 978300000 + rng.integers(10**6)
            lines.append(f"{u * 3}::{i * 7 + 1}::{rating}::{stamp}")
    path.write_text("\n".join(rng.permutation(lines)) + "\n")
    return path


def run(capsys, argv):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def tree_digest(root):
    chunks = []
    for p in sorted(root.rglob("*")):
        if p.is_file():
            chunks.append(p.relative_to(root).as_posix().encode())
            chunks.append(p.read_bytes())
    return hashlib.sha256(b"".join(chunks)).hexdigest()


@pytest.fixture
def workspace(tmp_path, capsys):
    """Raw file plus a finished split directory shared by the command tests."""
    raw = write_raw(tmp_path / "raw.tsv", np.random.default_rng(0))
    split_dir = tmp_path / "split"
    code, out, err = run(capsys, [
        "split", "--input", str(raw), "--fraction", "0.7",
        "--seed", "3", "--out-dir", str(split_dir),
    ])
    assert code == 0, err
    return tmp_path, raw, split_dir


class TestSplit:
    def test_reports_counts_and_writes_files(self, workspace, capsys):
        _, raw, split_dir = workspace
        for name in ("train.tsv", "test.tsv", "split.meta"):
            assert (split_dir / name).exists()

    def test_same_flags_same_bytes(self, tmp_path, capsys):
        raw = write_raw(tmp_path / "raw.tsv", np.random.default_rng(1))
        digests = []
        for run_dir in ("a", "b"):
            out_dir = tmp_path / run_dir
            code, _, err = run(capsys, [
                "split", "--input", str(raw), "--seed", "11",
                "--out-dir", str(out_dir),
            ])
            assert code == 0, err
            digests.append(tree_digest(out_dir))
        assert digests[0] == digests[1]

    @pytest.mark.parametrize("protocol, train_sha, test_sha", [
        (["--protocol", "standard", "--fraction", "0.8"],
         "5f4b0d81478e2bff33b776390fa9383fee107770e67eb87d1411f47a0b6290d0",
         "cfee8be0ba27c5ca8d2f0072e98506d19da069c2d98565f9c7addf88a60c6fad"),
        (["--protocol", "cold-start", "--p", "2"],
         "3498ab89bd2a49deeaa1a51fc1be2230b2dd314acfb2683fb7d093805b13cf0a",
         "70a44bd625b9844ade30465caa47e6b87f572b289bffc320a0a32884eb7cb6a0"),
    ])
    def test_split_bytes_pinned(self, tmp_path, capsys, protocol, train_sha, test_sha):
        """The split files of a fixed input keep the bytes they have always had."""
        raw = write_movielens(tmp_path / "ratings.dat")
        out = tmp_path / "split"
        code, _, err = run(capsys, ["split", "--input", str(raw), "--format", "movielens-dat",
                                    "--seed", "5", "--out-dir", str(out), *protocol])
        assert code == 0, err
        assert hashlib.sha256((out / "train.tsv").read_bytes()).hexdigest() == train_sha
        assert hashlib.sha256((out / "test.tsv").read_bytes()).hexdigest() == test_sha

    def test_cold_start_protocol(self, tmp_path, capsys):
        raw = write_raw(tmp_path / "raw.tsv", np.random.default_rng(2))
        code, out, err = run(capsys, [
            "split", "--input", str(raw), "--protocol", "cold-start",
            "--p", "2", "--out-dir", str(tmp_path / "cs"),
        ])
        assert code == 0, err
        assert "train_interactions" in out

    def test_missing_input_fails(self, tmp_path, capsys):
        code, _, err = run(capsys, [
            "split", "--input", str(tmp_path / "nope.tsv"),
            "--out-dir", str(tmp_path / "x"),
        ])
        assert code == 1
        assert err.startswith("error:")


class TestTrainEvaluateRecommend:
    def _train(self, capsys, split_dir, out_dir, extra=()):
        return run(capsys, [
            "train", "--split-dir", str(split_dir), "--out-dir", str(out_dir),
            "-K", "2", "-C", "4", "-F", "4", "--epochs", "5",
            "--batch-size", "8", "--seed", "0", *extra,
        ])

    def test_full_pipeline(self, workspace, capsys):
        tmp_path, _, split_dir = workspace
        out_dir = tmp_path / "run"
        code, out, err = self._train(capsys, split_dir, out_dir)
        assert code == 0, err
        assert (out_dir / "model.spck").exists()
        log_lines = (out_dir / "loss.tsv").read_text().splitlines()
        assert len(log_lines) == 5
        first = log_lines[0].split("\t")
        assert first[0] == "1" and float(first[1]) > 0

        code, out, err = run(capsys, [
            "evaluate", "--split-dir", str(split_dir),
            "--checkpoint", str(out_dir / "model.spck"),
            "--cutoffs", "2,4", "--out-dir", str(out_dir),
        ])
        assert code == 0, err
        assert (out_dir / "report.tsv").exists()
        assert out.splitlines()[0] == "cutoff\trecall\tmap"

        code, out, err = run(capsys, [
            "recommend", "--split-dir", str(split_dir),
            "--checkpoint", str(out_dir / "model.spck"),
            "--user", "u0", "-M", "3", "--out-dir", str(out_dir),
        ])
        assert code == 0, err
        lines = out.strip().splitlines()
        assert 1 <= len(lines) <= 3
        for line in lines:
            ext, score = line.split("\t")
            assert ext.startswith("i")
            float(score)

    def test_bpr_mf_model(self, workspace, capsys):
        tmp_path, _, split_dir = workspace
        out_dir = tmp_path / "mf"
        code, out, err = run(capsys, [
            "train", "--split-dir", str(split_dir), "--model", "bpr-mf",
            "--d", "4", "--epochs", "5", "--batch-size", "8",
            "--out-dir", str(out_dir),
        ])
        assert code == 0, err
        code, _, err = run(capsys, [
            "evaluate", "--split-dir", str(split_dir),
            "--checkpoint", str(out_dir / "model.spck"),
            "--cutoffs", "3", "--out-dir", str(out_dir),
        ])
        assert code == 0, err

    def test_bpr_mf_skips_the_graph(self, workspace, capsys, monkeypatch):
        tmp_path, _, split_dir = workspace

        def no_graph(*args, **kwargs):
            raise AssertionError("bpr-mf training built the graph")

        monkeypatch.setattr(cli.graph, "build_graph", no_graph)
        code, _, err = run(capsys, [
            "train", "--split-dir", str(split_dir), "--model", "bpr-mf",
            "--d", "4", "--epochs", "3", "--batch-size", "8",
            "--out-dir", str(tmp_path / "mf"),
        ])
        assert code == 0, err

    def test_failed_retrain_keeps_previous_model(self, workspace, capsys):
        tmp_path, _, split_dir = workspace
        out_dir = tmp_path / "retrain"
        code, _, err = self._train(capsys, split_dir, out_dir)
        assert code == 0, err
        before = {p.name: p.read_bytes() for p in out_dir.iterdir() if p.is_file()}
        assert {"model.spck", "loss.tsv"} <= before.keys()
        code, _, err = self._train(capsys, split_dir, out_dir,
                                   extra=("--lr", "1e300", "--epochs", "50"))
        assert code == 1
        assert "training aborted" in err
        after = {p.name: p.read_bytes() for p in out_dir.iterdir() if p.is_file()}
        assert after == before

    def test_kernel_forms_reach_same_loss(self, workspace, capsys):
        tmp_path, _, split_dir = workspace
        finals = {}
        for form in ("closed-sparse", "dense-eig"):
            out_dir = tmp_path / form
            code, out, err = self._train(capsys, split_dir, out_dir,
                                         extra=("--kernel", form))
            assert code == 0, err
            line = [ln for ln in out.splitlines() if ln.startswith("final_loss")][0]
            finals[form] = float(line.split("\t")[1])
        a, b = finals["closed-sparse"], finals["dense-eig"]
        assert abs(a - b) / abs(a) < 1e-5

    def test_basis_cache_reused(self, workspace, capsys):
        tmp_path, _, split_dir = workspace
        out_dir = tmp_path / "cache_run"
        code, _, err = self._train(capsys, split_dir, out_dir,
                                   extra=("--kernel", "dense-eig"))
        assert code == 0, err
        cache_files = list((out_dir / "basis_cache").glob("*.spcf"))
        assert len(cache_files) == 1
        stamp = cache_files[0].stat().st_mtime_ns
        code, _, err = self._train(capsys, split_dir, out_dir,
                                   extra=("--kernel", "dense-eig"))
        assert code == 0, err
        assert cache_files[0].stat().st_mtime_ns == stamp

    def test_unknown_user_fails(self, workspace, capsys):
        tmp_path, _, split_dir = workspace
        out_dir = tmp_path / "run2"
        code, _, err = self._train(capsys, split_dir, out_dir)
        assert code == 0, err
        code, _, err = run(capsys, [
            "recommend", "--split-dir", str(split_dir),
            "--checkpoint", str(out_dir / "model.spck"),
            "--user", "nobody", "--out-dir", str(out_dir),
        ])
        assert code == 1
        assert "unknown user" in err

    def test_mismatched_checkpoint_fails(self, workspace, tmp_path, capsys):
        ws_tmp, _, split_dir = workspace
        out_dir = ws_tmp / "run3"
        code, _, err = self._train(capsys, split_dir, out_dir)
        assert code == 0, err
        # A second dataset with different counts.
        raw2 = write_raw(tmp_path / "raw2.tsv", np.random.default_rng(9),
                         n_users=6, n_items=5)
        other_split = tmp_path / "split2"
        code, _, err = run(capsys, [
            "split", "--input", str(raw2), "--out-dir", str(other_split),
        ])
        assert code == 0, err
        code, _, err = run(capsys, [
            "evaluate", "--split-dir", str(other_split),
            "--checkpoint", str(out_dir / "model.spck"),
            "--out-dir", str(tmp_path / "r"),
        ])
        assert code == 1
        assert "error:" in err

    def test_recommend_reads_only_train(self, workspace, capsys):
        tmp_path, _, split_dir = workspace
        out_dir = tmp_path / "notest"
        code, _, err = self._train(capsys, split_dir, out_dir)
        assert code == 0, err
        argv = ["recommend", "--split-dir", str(split_dir),
                "--checkpoint", str(out_dir / "model.spck"),
                "--user", "u0", "-M", "3", "--out-dir", str(out_dir)]
        code, before, err = run(capsys, argv)
        assert code == 0, err
        (split_dir / "test.tsv").unlink()
        code, after, err = run(capsys, argv)
        assert code == 0, err
        assert after == before

    def test_exclude_seen_toggle(self, workspace, capsys):
        tmp_path, _, split_dir = workspace
        out_dir = tmp_path / "seen"
        code, _, err = self._train(capsys, split_dir, out_dir)
        assert code == 0, err
        n_items = sum(1 for _ in (split_dir / "train.tsv").read_text().splitlines())
        big_m = str(10_000)
        code, out_excl, err = run(capsys, [
            "recommend", "--split-dir", str(split_dir),
            "--checkpoint", str(out_dir / "model.spck"),
            "--user", "u0", "-M", big_m, "--out-dir", str(out_dir),
        ])
        assert code == 0, err
        code, out_incl, err = run(capsys, [
            "recommend", "--split-dir", str(split_dir),
            "--checkpoint", str(out_dir / "model.spck"),
            "--user", "u0", "-M", big_m, "--exclude-seen", "false",
            "--out-dir", str(out_dir),
        ])
        assert code == 0, err
        excl = {ln.split("\t")[0] for ln in out_excl.strip().splitlines()}
        incl = {ln.split("\t")[0] for ln in out_incl.strip().splitlines()}
        assert excl < incl


class TestConfigPrecedence:
    def test_flag_beats_config_beats_default(self, workspace, capsys):
        tmp_path, _, split_dir = workspace
        config = tmp_path / "run.cfg"
        config.write_text("# fixture config\nepochs=3\nC=4\nF=4\nK=2\nbatch_size=8\n")

        out_a = tmp_path / "from_config"
        code, out, err = run(capsys, [
            "train", "--split-dir", str(split_dir), "--config", str(config),
            "--out-dir", str(out_a),
        ])
        assert code == 0, err
        assert "epochs\t3" in out

        out_b = tmp_path / "flag_wins"
        code, out, err = run(capsys, [
            "train", "--split-dir", str(split_dir), "--config", str(config),
            "--epochs", "2", "--out-dir", str(out_b),
        ])
        assert code == 0, err
        assert "epochs\t2" in out

    def test_defaults_fill_remaining(self, tmp_path, capsys):
        raw = write_raw(tmp_path / "raw.tsv", np.random.default_rng(4))
        split_dir = tmp_path / "s"
        code, out, err = run(capsys, [
            "split", "--input", str(raw), "--out-dir", str(split_dir),
        ])
        assert code == 0, err

    def test_malformed_config_rejected(self, workspace, capsys):
        tmp_path, _, split_dir = workspace
        config = tmp_path / "bad.cfg"
        config.write_text("epochs 3\n")
        code, _, err = run(capsys, [
            "train", "--split-dir", str(split_dir), "--config", str(config),
            "--out-dir", str(tmp_path / "x"),
        ])
        assert code == 1
        assert "bad.cfg:1" in err


class TestOutDirEnv:
    def test_env_overrides_flag(self, workspace, capsys, monkeypatch):
        tmp_path, raw, _ = workspace
        env_dir = tmp_path / "env_out"
        monkeypatch.setenv(cli.OUT_DIR_ENV, str(env_dir))
        code, _, err = run(capsys, [
            "split", "--input", str(raw), "--out-dir", str(tmp_path / "ignored"),
        ])
        assert code == 0, err
        assert (env_dir / "train.tsv").exists()
        assert not (tmp_path / "ignored").exists()


class TestSpectralEmbed:
    def test_from_split_dir(self, workspace, capsys):
        tmp_path, _, split_dir = workspace
        out_dir = tmp_path / "embed"
        code, out, err = run(capsys, [
            "spectral-embed", "--split-dir", str(split_dir),
            "-k", "2", "--out-dir", str(out_dir),
        ])
        assert code == 0, err
        lines = (out_dir / "coordinates.tsv").read_text().splitlines()
        kinds = [ln.split("\t")[0] for ln in lines]
        assert set(kinds) == {"user", "item"}
        for ln in lines:
            parts = ln.split("\t")
            assert len(parts) == 4
            float(parts[2]), float(parts[3])

    def test_from_raw_input(self, tmp_path, capsys):
        raw = write_raw(tmp_path / "raw.tsv", np.random.default_rng(5))
        code, _, err = run(capsys, [
            "spectral-embed", "--input", str(raw), "-k", "1",
            "--out-dir", str(tmp_path / "e"),
        ])
        assert code == 0, err

    def test_requires_a_source(self, tmp_path, capsys):
        code, _, err = run(capsys, [
            "spectral-embed", "--out-dir", str(tmp_path)])
        assert code == 1
        assert "error:" in err
