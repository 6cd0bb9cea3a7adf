import argparse
import hashlib
import math
import os
import re
import shlex
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from spectralcf import cli, data, graph
from spectralcf.checkpoint import load_checkpoint, save_checkpoint


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


def files_in(root):
    """Relative paths of the files under ``root``, sorted; none if it is missing."""
    return sorted(p.relative_to(root).as_posix() for p in root.rglob("*") if p.is_file())


def tree_digest(root):
    chunks = []
    for p in sorted(root.rglob("*")):
        if p.is_file():
            chunks.append(p.relative_to(root).as_posix().encode())
            chunks.append(p.read_bytes())
    return hashlib.sha256(b"".join(chunks)).hexdigest()


def pinned_split(tmp_path, capsys):
    """The standard 0.8 split, seed 5, of ``write_movielens``'s file."""
    raw = write_movielens(tmp_path / "ratings.dat")
    split = tmp_path / "split"
    code, _, err = run(capsys, ["split", "--input", str(raw), "--format", "movielens-dat",
                                "--seed", "5", "--out-dir", str(split),
                                "--protocol", "standard", "--fraction", "0.8"])
    assert code == 0, err
    return split


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

    @pytest.mark.parametrize("protocol, train_sha, test_sha, index_sha", [
        (["--protocol", "standard", "--fraction", "0.8"],
         "5f4b0d81478e2bff33b776390fa9383fee107770e67eb87d1411f47a0b6290d0",
         "cfee8be0ba27c5ca8d2f0072e98506d19da069c2d98565f9c7addf88a60c6fad",
         "5fe264b31af2e770d3df54c708e97a183b329f0eb4ca6331b45c1a5ab07c085f"),
        (["--protocol", "cold-start", "--p", "2"],
         "3498ab89bd2a49deeaa1a51fc1be2230b2dd314acfb2683fb7d093805b13cf0a",
         "70a44bd625b9844ade30465caa47e6b87f572b289bffc320a0a32884eb7cb6a0",
         "fa681245253c52525cdc4b6dacf125587f34c36c03ae583d851eeb470ea23e36"),
        # The README sweep's filter: at 6 the surviving items are numbered in
        # another order than the parse gave them.
        (["--protocol", "cold-start", "--p", "2", "--min-interactions", "6"],
         "fb10d6fbbb9c3f7c324d9776ea7fe8a8e82c1d67d756607a363a189af5abf4d7",
         "b1cc14176afa9f6342cdf59d8da448c001669579cd73136ee8809df791e395e6",
         "c0de6b1475ceeb2cdebd4491d50190f29a6574e7ac7718c1d233501bb9ea974c"),
    ])
    def test_split_bytes_pinned(self, tmp_path, capsys, protocol, train_sha, test_sha,
                                index_sha):
        """The split files and the index cache of a fixed input keep the bytes
        they have always had."""
        raw = write_movielens(tmp_path / "ratings.dat")
        out = tmp_path / "split"
        code, _, err = run(capsys, ["split", "--input", str(raw), "--format", "movielens-dat",
                                    "--seed", "5", "--out-dir", str(out), *protocol])
        assert code == 0, err
        assert hashlib.sha256((out / "train.tsv").read_bytes()).hexdigest() == train_sha
        assert hashlib.sha256((out / "test.tsv").read_bytes()).hexdigest() == test_sha
        assert hashlib.sha256((out / data.INDEX_CACHE).read_bytes()).hexdigest() == index_sha

    @pytest.mark.parametrize("model_argv, checkpoint_sha, loss_sha, report_sha, recommend_sha", [
        (["-K", "2", "-C", "4", "-F", "4"],
         "c4fea6764141348381c6759015b5c9960de2e59a8c85d3cf07560466f4febcd7",
         "e2d154d522b3be5166c79ee09f1b68d84b7ba57a242596b47d85a6440fe11917",
         "73d21596ba823ade9f204f94c07868719d23cb331530100af38622bf90ac2c18",
         "64645d6c858e1350c963f15a5ac704c150bbaa871bd5e3c3b26c3b03553552e8"),
        (["--model", "bpr-mf", "--d", "12"],
         "30b5a4575689b9526b9d6edae12cb4e85f3866573964ec5f11565ea490016c10",
         "f9816a28c3f4e75a88b72978d72494fac1a3222f26858dffdc322decbd11b379",
         "0db9db81b7839f4fffa691b797ca3c8748b2e9be29234e254e21e5209e90e43a",
         "f7ea4aae3bec76bc75ee8aa0e86dfe8f4b1e61550e1101827a80ed3696f32ec1"),
    ], ids=["spectralcf", "bpr-mf"])
    def test_model_outputs_pinned(self, tmp_path, capsys, model_argv, checkpoint_sha,
                                  loss_sha, report_sha, recommend_sha):
        """The checkpoint, loss log, report metrics and recommend output of a
        fixed input and seed keep their bytes (the report's header lines hold
        paths, so they are left out)."""
        split, out = pinned_split(tmp_path, capsys), tmp_path / "run"
        steps = [
            ["train", "--split-dir", str(split), "--out-dir", str(out), *model_argv,
             "--epochs", "20", "--batch-size", "64", "--lr", "0.01", "--seed", "0"],
            ["evaluate", "--split-dir", str(split), "--checkpoint", str(out / "model.spck"),
             "--cutoffs", "1,5,20", "--out-dir", str(out)],
            ["recommend", "--split-dir", str(split), "--checkpoint", str(out / "model.spck"),
             "--user", "3", "-M", "10", "--out-dir", str(out)],
        ]
        for argv in steps:
            code, stdout, err = run(capsys, argv)
            assert code == 0, err
        assert hashlib.sha256((out / "model.spck").read_bytes()).hexdigest() == checkpoint_sha
        assert hashlib.sha256((out / "loss.tsv").read_bytes()).hexdigest() == loss_sha
        body = [ln for ln in (out / "report.tsv").read_text().splitlines(True)
                if not ln.startswith("#")]
        assert hashlib.sha256("".join(body).encode()).hexdigest() == report_sha
        assert len(stdout.splitlines()) == 10
        assert hashlib.sha256(stdout.encode()).hexdigest() == recommend_sha

    def test_scoring_outputs_pinned(self, tmp_path, capsys):
        """The report metrics on a cold-start P=2 split and a full-length
        ``recommend --exclude-seen false`` list keep their bytes."""
        raw = write_movielens(tmp_path / "ratings.dat")
        split, out = tmp_path / "split", tmp_path / "run"
        common = ["--split-dir", str(split), "--out-dir", str(out)]
        ckpt = ["--checkpoint", str(out / "model.spck")]
        steps = [
            ["split", "--input", str(raw), "--format", "movielens-dat", "--seed", "5",
             "--out-dir", str(split), "--protocol", "cold-start", "--p", "2"],
            ["train", *common, "-K", "2", "-C", "4", "-F", "4", "--epochs", "20",
             "--batch-size", "64", "--lr", "0.01", "--seed", "0"],
            ["evaluate", *common, *ckpt, "--cutoffs", "1,5,20"],
            ["recommend", *common, *ckpt, "--user", "3", "-M", "100",
             "--exclude-seen", "false"],
        ]
        for argv in steps:
            code, stdout, err = run(capsys, argv)
            assert code == 0, err
        body = [ln for ln in (out / "report.tsv").read_text().splitlines(True)
                if not ln.startswith("#")]
        assert (hashlib.sha256("".join(body).encode()).hexdigest()
                == "d9944fdbd750c68f20116b55306ab082f0fd586ea79ee778b83b5931c01d0397")
        # M exceeds the item count, so every item is listed.
        assert len(stdout.splitlines()) == data.load_train(split).n_items
        assert hashlib.sha256(stdout.encode()).hexdigest() == (
            "4d72fdad97335494887cb961a74e19b90dc2617d49139cbbd0fd71111b448eb6")

    def test_coordinates_pinned(self, tmp_path, capsys):
        """spectral-embed -k 2 of the pinned split keeps its bytes."""
        split, out = pinned_split(tmp_path, capsys), tmp_path / "embed"
        code, _, err = run(capsys, ["spectral-embed", "--split-dir", str(split),
                                    "--out-dir", str(out), "-k", "2"])
        assert code == 0, err
        assert (hashlib.sha256((out / "coordinates.tsv").read_bytes()).hexdigest()
                == "f56f4af6075ac62f7b521bd88f7fcb4cbbbabb4f6c10184b58a0cb005ec405e2")

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


def test_commands_after_split_read_the_index_cache(workspace, capsys, monkeypatch):
    tmp_path, _, split_dir = workspace
    calls = []
    parse = data.parse_interactions

    def spy(*args, **kwargs):
        calls.append(args)
        return parse(*args, **kwargs)

    monkeypatch.setattr(data, "parse_interactions", spy)
    out = tmp_path / "run"
    common = ["--split-dir", str(split_dir), "--out-dir", str(out)]
    recommend = ["recommend", *common, "--checkpoint", str(out / "model.spck"), "--user", "u0"]
    for argv in [
        ["train", *common, "-K", "2", "-C", "4", "-F", "4", "--epochs", "3", "--batch-size", "8"],
        ["train", *common, "--model", "bpr-mf", "--epochs", "3", "--batch-size", "8",
         "--checkpoint", "bpr.spck"],
        ["evaluate", *common, "--checkpoint", str(out / "model.spck")],
        recommend,
        ["spectral-embed", *common, "-k", "2"],
    ]:
        code, _, err = run(capsys, argv)
        assert code == 0, err
    assert calls == []
    # Without the cache, train.tsv is parsed.
    (split_dir / data.INDEX_CACHE).unlink()
    code, _, err = run(capsys, recommend)
    assert code == 0, err
    assert len(calls) == 1


def test_import_leaves_out_what_only_some_commands_need():
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(src), *filter(None, [os.environ.get("PYTHONPATH")])])}
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, spectralcf.cli; "
         "print(*(m in sys.modules for m in ('scipy.sparse.linalg', 'scipy.sparse.csgraph', "
         "'scipy.special')))"],
        env=env, capture_output=True, text=True, timeout=120)
    assert proc.stdout.split() == ["False", "False", "False"], proc.stderr


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

    def test_duplicate_cutoffs_listed_once_in_order(self, workspace, capsys):
        tmp_path, _, split_dir = workspace
        out_dir = tmp_path / "dup"
        code, _, err = self._train(capsys, split_dir, out_dir)
        assert code == 0, err
        code, out, err = run(capsys, [
            "evaluate", "--split-dir", str(split_dir),
            "--checkpoint", str(out_dir / "model.spck"),
            "--cutoffs", "40,20,20", "--out-dir", str(out_dir),
        ])
        assert code == 0, err
        assert [ln.split("\t")[0] for ln in out.splitlines()[1:-1]] == ["20", "40"]
        body = [ln.split("\t")[:2] for ln in (out_dir / "report.tsv").read_text().splitlines()
                if not ln.startswith("#")]
        assert body == [["20", "recall"], ["40", "recall"], ["20", "map"], ["40", "map"]]

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

    def test_bpr_mf_width_defaults_to_factor_width(self, workspace, capsys):
        tmp_path, _, split_dir = workspace
        for flags, width in (([], 64), (["-K", "1", "-C", "4", "-F", "2"], 6)):
            out_dir = tmp_path / f"mf{width}"
            code, _, err = run(capsys, [
                "train", "--split-dir", str(split_dir), "--model", "bpr-mf", *flags,
                "--epochs", "2", "--batch-size", "8", "--out-dir", str(out_dir),
            ])
            assert code == 0, err
            config = load_checkpoint(out_dir / "model.spck").config
            assert (config.K, config.C) == (0, width)

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

    @pytest.mark.parametrize("extra", [(), ("--model", "bpr-mf"), ("-K", "0")],
                             ids=["spectralcf", "bpr-mf", "K0"])
    def test_divergence_prints_one_error_line(self, workspace, capsys, extra):
        tmp_path, _, split_dir = workspace
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = self._train(capsys, split_dir, tmp_path / "diverged",
                                         extra=(*extra, "--lr", "1e300", "--epochs", "50"))
        assert code == 1
        assert err.startswith("error: ") and "training aborted" in err
        assert err.count("\n") == 1

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

    def test_exclude_seen_spellings(self, workspace, capsys):
        tmp_path, _, split_dir = workspace
        out_dir = tmp_path / "spellings"
        code, _, err = self._train(capsys, split_dir, out_dir)
        assert code == 0, err
        argv = ["recommend", "--split-dir", str(split_dir), "--checkpoint",
                str(out_dir / "model.spck"), "--user", "u0", "-M", "100", "--out-dir",
                str(out_dir)]
        outputs = {}
        for value in (None, "true", "yes", "1", "false", "no", "0"):
            code, outputs[value], err = run(capsys, argv + (["--exclude-seen", value]
                                                            if value else []))
            assert code == 0, err
        assert outputs[None] == outputs["true"] == outputs["yes"] == outputs["1"]
        assert outputs["false"] == outputs["no"] == outputs["0"] != outputs[None]
        with pytest.raises(SystemExit) as info:
            cli.main([*argv, "--exclude-seen", "maybe"])
        assert info.value.code == 2
        assert "expected a boolean, got 'maybe'" in capsys.readouterr().err

    def test_absolute_output_path_stands_as_given(self, workspace, capsys):
        tmp_path, _, split_dir = workspace
        ckpt = tmp_path / "elsewhere" / "m.spck"
        ckpt.parent.mkdir()
        code, out, err = self._train(capsys, split_dir, tmp_path / "out",
                                     extra=("--checkpoint", str(ckpt)))
        assert code == 0, err
        assert ckpt.is_absolute() and f"checkpoint\t{ckpt}\n" in out
        assert files_in(tmp_path / "out") == ["loss.tsv"]
        load_checkpoint(ckpt)

    @pytest.mark.parametrize("flags, setting", [
        (["--lr", "nan"], "learning_rate"),
        (["--lr", "inf"], "learning_rate"),
        (["--rms-epsilon", "nan"], "rms_epsilon"),
        (["--rms-epsilon", "inf"], "rms_epsilon"),
        (["--reg", "nan"], "reg"),
        (["--reg", "inf"], "reg"),
        (["--model", "bpr-mf", "--lr", "nan"], "learning_rate"),
    ], ids=["lr-nan", "lr-inf", "rms-epsilon-nan", "rms-epsilon-inf", "reg-nan", "reg-inf",
            "bpr-mf-lr-nan"])
    def test_non_finite_setting_rejected(self, workspace, capsys, flags, setting):
        """NaN and infinity fail the range checks instead of training to a
        checkpoint of non-finite parameters."""
        tmp_path, _, split_dir = workspace
        out_dir = tmp_path / "non-finite"
        code, out, err = self._train(capsys, split_dir, out_dir, extra=flags)
        assert code == 1 and out == ""
        assert err.startswith(f"error: {setting} must be ") and len(err.splitlines()) == 1
        assert not (out_dir / "model.spck").exists()

    def test_no_evaluable_users_reports_nan(self, tmp_path, capsys):
        # Each user has one item, which the standard split keeps in train.
        raw = tmp_path / "raw.tsv"
        raw.write_text("u0\ti0\nu1\ti1\nu2\ti2\nu3\ti0\n")
        split_dir, out_dir = tmp_path / "split", tmp_path / "run"
        code, out, err = run(capsys, ["split", "--input", str(raw), "--out-dir", str(split_dir)])
        assert code == 0, err
        assert "test_interactions\t0\n" in out
        code, _, err = self._train(capsys, split_dir, out_dir)
        assert code == 0, err
        code, out, err = run(capsys, ["evaluate", "--split-dir", str(split_dir), "--checkpoint",
                                      str(out_dir / "model.spck"), "--cutoffs", "1,2",
                                      "--out-dir", str(out_dir)])
        assert code == 0, err
        assert out.splitlines()[1:3] == ["1\tnan\tnan", "2\tnan\tnan"]
        report = (out_dir / "report.tsv").read_text()
        assert "n_evaluable_users" in report and "nan" in report

    def test_recommend_rejects_non_finite_scores(self, workspace, capsys):
        tmp_path, _, split_dir = workspace
        out_dir = tmp_path / "nan"
        code, _, err = run(capsys, [
            "train", "--split-dir", str(split_dir), "--model", "bpr-mf",
            "--d", "4", "--epochs", "3", "--batch-size", "8", "--out-dir", str(out_dir),
        ])
        assert code == 0, err
        ckpt = load_checkpoint(out_dir / "model.spck")
        ckpt.params.X_i0[1, 0] = np.nan
        save_checkpoint(ckpt, out_dir / "model.spck")
        code, out, err = run(capsys, [
            "recommend", "--split-dir", str(split_dir),
            "--checkpoint", str(out_dir / "model.spck"),
            "--user", "u0", "-M", "3", "--out-dir", str(out_dir),
        ])
        assert code == 1
        assert "non-finite score" in err
        assert out == ""

    def test_unknown_map_denom_in_config_fails(self, workspace, capsys):
        tmp_path, _, split_dir = workspace
        out_dir = tmp_path / "denom"
        code, _, err = self._train(capsys, split_dir, out_dir)
        assert code == 0, err
        config = tmp_path / "eval.cfg"
        config.write_text("map_denom=relevent\n")
        code, _, err = run(capsys, [
            "evaluate", "--split-dir", str(split_dir), "--config", str(config),
            "--checkpoint", str(out_dir / "model.spck"), "--out-dir", str(out_dir),
        ])
        assert code == 1
        assert "map_denom" in err
        assert not (out_dir / "report.tsv").exists()

    def test_unknown_kernel_form_fails_before_eigendecomposition(
            self, workspace, capsys, monkeypatch):
        tmp_path, _, split_dir = workspace
        out_dir = tmp_path / "typo"

        def no_eig(*args, **kwargs):
            raise AssertionError("eigendecompose reached with a bad kernel form")

        monkeypatch.setattr(cli.graph, "eigendecompose", no_eig)
        config = tmp_path / "train.cfg"
        config.write_text("kernel=dense_eig_typo\n")
        code, _, err = self._train(capsys, split_dir, out_dir, extra=("--config", str(config)))
        assert code == 1
        assert "unknown kernel form" in err
        assert files_in(out_dir) == []


class TestKernelOptions:
    """A K = 0 model is trained and scored with no kernel, whatever the kernel form."""

    def test_k0_training_builds_no_graph_or_kernel(self, workspace, capsys, monkeypatch):
        tmp_path, _, split_dir = workspace

        def never(*args, **kwargs):
            raise AssertionError("train -K 0 built a graph or kernel it never reads")

        for name in ("build_graph", "eigendecompose", "conv_kernel"):
            monkeypatch.setattr(cli.graph, name, never)
        code, _, err = run(capsys, [
            "train", "--split-dir", str(split_dir), "-K", "0", "--kernel", "dense-eig",
            "--epochs", "3", "--batch-size", "8", "--out-dir", str(tmp_path / "k0"),
        ])
        assert code == 0, err
        assert load_checkpoint(tmp_path / "k0" / "model.spck").config.K == 0

    def test_bpr_mf_evaluated_with_dense_eig_needs_no_eigendecomposition(
            self, workspace, capsys, monkeypatch):
        tmp_path, _, split_dir = workspace
        out_dir = tmp_path / "mf"
        code, _, err = run(capsys, [
            "train", "--split-dir", str(split_dir), "--model", "bpr-mf", "--d", "4",
            "--epochs", "3", "--batch-size", "8", "--out-dir", str(out_dir),
        ])
        assert code == 0, err

        def no_graph(*args, **kwargs):
            raise AssertionError("a K = 0 model built the graph")

        monkeypatch.setattr(cli.graph, "build_graph", no_graph)
        for command in ("evaluate", "recommend"):
            argv = [command, "--split-dir", str(split_dir), "--checkpoint",
                    str(out_dir / "model.spck"), "--kernel", "dense-eig", "--out-dir", str(out_dir)]
            code, _, err = run(capsys, argv + (["--user", "u0"] if command == "recommend" else []))
            assert code == 0, err
        assert files_in(out_dir) == ["loss.tsv", "model.spck", "report.tsv"]


class TestScoringKernel:
    """evaluate and recommend score every K > 0 model with the closed form."""

    def _train(self, capsys, split_dir, out_dir):
        return run(capsys, [
            "train", "--split-dir", str(split_dir), "--out-dir", str(out_dir),
            "-K", "2", "-C", "4", "-F", "4", "--epochs", "3", "--batch-size", "8",
            "--kernel", "dense-eig",
        ])

    def test_dense_eig_training_writes_only_model_and_loss_log(self, workspace, capsys):
        tmp_path, _, split_dir = workspace
        out_dir = tmp_path / "dense"
        code, _, err = self._train(capsys, split_dir, out_dir)
        assert code == 0, err
        assert files_in(out_dir) == ["loss.tsv", "model.spck"]

    def test_dense_eig_training_decomposes_once_through_the_module_attribute(
            self, workspace, capsys, monkeypatch):
        # pipebench/spans.py times graph.eigendecompose_s by wrapping this attribute.
        tmp_path, _, split_dir = workspace
        calls = []
        eigendecompose = graph.eigendecompose

        def counted(*args, **kwargs):
            calls.append(args)
            return eigendecompose(*args, **kwargs)

        monkeypatch.setattr(graph, "eigendecompose", counted)
        code, _, err = self._train(capsys, split_dir, tmp_path / "dense")
        assert code == 0, err
        assert len(calls) == 1

    def test_sym_model_scores_with_closed_form_whatever_the_flag(
            self, workspace, capsys, monkeypatch):
        tmp_path, _, split_dir = workspace
        out_dir = tmp_path / "sym"
        code, _, err = self._train(capsys, split_dir, out_dir)
        assert code == 0, err

        def no_eig(*args, **kwargs):
            raise AssertionError("a K > 0 model was scored from its eigensystem")

        monkeypatch.setattr(cli.graph, "eigendecompose", no_eig)
        score_dir = tmp_path / "scored"
        common = ["--split-dir", str(split_dir), "--checkpoint", str(out_dir / "model.spck"),
                  "--out-dir", str(score_dir)]
        outputs = {}
        for form in ("dense-eig", "closed-sparse"):
            code, _, err = run(capsys, ["evaluate", *common, "--kernel", form,
                                        "--cutoffs", "2,4", "--report", f"{form}.tsv"])
            assert code == 0, err
            code, out, err = run(capsys, ["recommend", *common, "--kernel", form,
                                          "--user", "u0", "-M", "5"])
            assert code == 0, err
            outputs[form] = ((score_dir / f"{form}.tsv").read_bytes(), out)
        assert outputs["dense-eig"] == outputs["closed-sparse"]


class TestCorruptFiles:
    def test_corrupt_checkpoint_fails_with_an_error_line(self, workspace, capsys):
        tmp_path, _, split_dir = workspace
        out_dir = tmp_path / "corrupt"
        code, _, err = run(capsys, [
            "train", "--split-dir", str(split_dir), "--out-dir", str(out_dir),
            "-K", "1", "-C", "2", "-F", "2", "--epochs", "2", "--batch-size", "8",
        ])
        assert code == 0, err
        ckpt = out_dir / "model.spck"
        good = ckpt.read_bytes()
        for blob, message in [(good[:7], "truncated"), (good + b"junkjunk", "trailing")]:
            ckpt.write_bytes(blob)
            code, out, err = run(capsys, [
                "evaluate", "--split-dir", str(split_dir), "--checkpoint", str(ckpt),
                "--out-dir", str(out_dir),
            ])
            assert code == 1
            assert err.startswith("error:") and str(ckpt) in err and message in err
            assert "Traceback" not in err
            assert not (out_dir / "report.tsv").exists()


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
        assert "bad.cfg: line 1: expected key=value" in err

    def test_non_utf8_config_names_file_and_line(self, workspace, capsys):
        tmp_path, _, split_dir = workspace
        config = tmp_path / "bad.cfg"
        config.write_bytes(b"epochs=3\nK=\xff\n")
        code, _, err = run(capsys, [
            "train", "--split-dir", str(split_dir), "--config", str(config),
            "--out-dir", str(tmp_path / "x"),
        ])
        assert code == 1
        assert err == f"error: {config}: line 2: invalid UTF-8: invalid start byte\n"
        assert not (tmp_path / "x").exists()


    def test_config_with_byte_order_mark(self, workspace, capsys):
        """A leading UTF-8 byte-order mark is no part of the first key, and
        line numbers stay those of the file."""
        tmp_path, _, split_dir = workspace
        config = tmp_path / "bom.cfg"
        config.write_bytes(b"\xef\xbb\xbfepochs=3\nK=2\n")
        code, out, err = run(capsys, [
            "train", "--split-dir", str(split_dir), "--config", str(config),
            "--out-dir", str(tmp_path / "x"),
        ])
        assert code == 0, err
        assert "epochs\t3" in out
        config.write_bytes(b"\xef\xbb\xbfepochs=3\nK 2\n")
        code, _, err = run(capsys, [
            "train", "--split-dir", str(split_dir), "--config", str(config),
            "--out-dir", str(tmp_path / "x"),
        ])
        assert code == 1
        assert f"{config}: line 2: expected key=value" in err


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

    def test_solves_without_the_full_eigensystem(self, workspace, capsys, monkeypatch):
        tmp_path, _, split_dir = workspace

        def dense(*args, **kwargs):
            raise AssertionError("spectral-embed built a dense n x n eigensystem")

        monkeypatch.setattr(cli.graph, "eigendecompose", dense)
        monkeypatch.setattr(cli.graph, "sym_laplacian_dense", dense)
        code, _, err = run(capsys, [
            "spectral-embed", "--split-dir", str(split_dir), "-k", "2",
            "--out-dir", str(tmp_path / "embed"),
        ])
        assert code == 0, err
        assert (tmp_path / "embed" / "coordinates.tsv").exists()

    def test_requires_a_source(self, tmp_path, capsys):
        code, _, err = run(capsys, [
            "spectral-embed", "--out-dir", str(tmp_path)])
        assert code == 1
        assert "error:" in err


# The file arguments each command requires, pointing at files that do not exist.
def required_argv(command, missing):
    return {
        "split": ["--input", str(missing / "raw.tsv")],
        "train": ["--split-dir", str(missing)],
        "evaluate": ["--split-dir", str(missing), "--checkpoint", str(missing / "m.spck")],
        "recommend": ["--split-dir", str(missing), "--checkpoint", str(missing / "m.spck"),
                      "--user", "u0"],
        "spectral-embed": ["--split-dir", str(missing)],
    }[command]


def command_of(key):
    """The last command taking ``key``; every command reads an option alike."""
    return [c for c, keys in cli.COMMAND_OPTIONS.items() if key in keys][-1]


def non_default_text(opt):
    if opt.choices:
        return next(c for c in opt.choices if c != opt.default)
    if opt.type is cli.int_list:
        return "5,10"
    return str((opt.default or 0) + 1)


class TestOptionTable:
    """Every option is read the same way from its flag and from a config file."""

    @pytest.mark.parametrize("key", sorted(cli.OPTIONS))
    def test_flag_and_config_resolve_alike(self, tmp_path, key):
        opt, command = cli.OPTIONS[key], command_of(key)
        text = non_default_text(opt)
        base = [command, *required_argv(command, tmp_path / "missing")]
        # The flag takes the '-' spelling of a choice, the config file the '_' one.
        from_flag = cli.parse_args([*base, opt.flag, text.replace("_", "-")])
        config = tmp_path / "run.cfg"
        config.write_text(f"{key}={text}\n")
        from_config = cli.parse_args([*base, "--config", str(config)])
        assert getattr(from_flag, key) == getattr(from_config, key) == opt.parse(text)
        assert getattr(from_config, key) != opt.default
        defaults = cli.parse_args(base)
        for other in cli.COMMAND_OPTIONS[command]:
            if other != key:
                assert getattr(from_config, other) == getattr(defaults, other)

    @pytest.mark.parametrize("key", sorted(cli.OPTIONS))
    def test_bad_config_value_fails_before_any_file_is_read(self, tmp_path, capsys, key):
        command = command_of(key)
        config = tmp_path / "run.cfg"
        config.write_text(f"{key}=x\n")
        code, _, err = run(capsys, [command, *required_argv(command, tmp_path / "missing"),
                                    "--config", str(config), "--out-dir", str(tmp_path / "out")])
        assert code == 1
        assert err.startswith(f"error: {config}: {key}: ")
        assert "No such file" not in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command, line, message", [
        ("train", "K=abc", "K: 'abc' is not a valid int"),
        ("evaluate", "cutoffs=20,x", "cutoffs: '20,x' is not a valid int_list"),
    ])
    def test_bad_config_value_names_file_and_key(self, tmp_path, capsys, command, line,
                                                 message):
        config = tmp_path / "run.cfg"
        config.write_text(line + "\n")
        code, _, err = run(capsys, [command, *required_argv(command, tmp_path / "missing"),
                                    "--config", str(config)])
        assert code == 1
        assert err == f"error: {config}: {message}\n"

    def test_repeated_config_key_fails(self, tmp_path, capsys):
        config = tmp_path / "run.cfg"
        config.write_text("K=2\n# later\nepochs=2\nK=1\n")
        code, _, err = run(capsys, ["train", *required_argv("train", tmp_path / "missing"),
                                    "--config", str(config)])
        assert code == 1
        assert err == f"error: {config}: line 4: key 'K' given again (first on line 1)\n"

    @pytest.mark.parametrize("command, flags, message", [
        ("split", ["--fraction", "1.8"], "train_fraction must be in (0, 1)"),
        ("split", ["--protocol", "cold-start", "--p", "0"], "items_per_user must be >= 1"),
        ("split", ["--min-interactions", "0"], "min_user_interactions must be >= 1"),
        ("train", ["-K", "-1"], "K must be >= 0, C and F >= 1 (got K=-1"),
        ("train", ["--model", "bpr-mf", "--d", "0"], "(got K=0, C=0"),
        ("train", ["--epochs", "0"], "epochs and batch_size must be >= 1"),
        ("train", ["--rms-decay", "1.5"], "rms_decay must lie in (0, 1)"),
        ("evaluate", ["--cutoffs", "0"], "cutoffs must be positive"),
        ("evaluate", ["--cutoffs", "20,-5"], "cutoffs must be positive"),
        ("evaluate", ["--cutoffs", ""], "cutoffs must be positive"),
        ("recommend", ["-M", "0"], "M must be >= 1"),
        ("spectral-embed", ["-k", "0"], "k=0 out of range"),
    ])
    def test_out_of_range_value_fails_before_any_file_is_read(self, tmp_path, capsys,
                                                              command, flags, message):
        code, _, err = run(capsys, [command, *required_argv(command, tmp_path / "missing"),
                                    *flags, "--out-dir", str(tmp_path / "out")])
        assert code == 1
        assert err.startswith("error: ") and message in err
        assert not (tmp_path / "out").exists()

    def test_unknown_config_key_fails(self, workspace, capsys, monkeypatch):
        tmp_path, _, split_dir = workspace

        def no_read(*args, **kwargs):
            raise AssertionError("split read despite an unknown config key")

        monkeypatch.setattr(cli.data, "load_train", no_read)
        config = tmp_path / "run.cfg"
        out_dir = tmp_path / "typo"
        # A misspelt key, and the keys of the removed normalization and
        # steps_per_epoch options.
        for key, value in (("epoch", "3"), ("normalization", "sym_orthonormal"),
                           ("steps_per_epoch", "2")):
            config.write_text(f"{key}={value}\n")
            code, out, err = run(capsys, ["train", "--split-dir", str(split_dir), "--config",
                                          str(config), "--out-dir", str(out_dir)])
            assert code == 1
            assert err == f"error: {config}: unknown key '{key}'\n"
            assert out == "" and not out_dir.exists()

    def test_one_config_serves_every_command(self, workspace, capsys):
        tmp_path, _, split_dir = workspace
        config = tmp_path / "all.cfg"
        config.write_text("format=tsv\nK=1\nC=2\nF=2\nepochs=2\nbatch_size=8\n"
                          "kernel=dense_eig\ncutoffs=2,4\nM=3\nk=1\n")
        out_dir = tmp_path / "all"
        common = ["--split-dir", str(split_dir), "--config", str(config),
                  "--out-dir", str(out_dir)]
        ckpt = ["--checkpoint", str(out_dir / "model.spck")]
        for argv in (["train", *common], ["evaluate", *common, *ckpt],
                     ["recommend", *common, *ckpt, "--user", "u0"],
                     ["spectral-embed", *common]):
            code, out, err = run(capsys, argv)
            assert code == 0, err
        assert len(out_dir.joinpath("coordinates.tsv").read_text().splitlines()[0].split()) == 3

    def test_spectral_embed_rejects_both_sources(self, workspace, capsys):
        tmp_path, raw, split_dir = workspace
        out_dir = tmp_path / "both"
        code, out, err = run(capsys, ["spectral-embed", "--split-dir", str(split_dir),
                                      "--input", str(raw), "--out-dir", str(out_dir)])
        assert code == 1
        assert err.startswith("error:") and "--input" in err
        assert not out_dir.exists()


class ReadRecorder(argparse.Namespace):
    """A Namespace that notes the name of every attribute read from it."""

    def __init__(self, **kwargs):
        super().__init__(**kwargs)
        self.read = set()

    def __getattribute__(self, name):
        value = object.__getattribute__(self, name)
        if name != "read" and not name.startswith("_"):
            object.__getattribute__(self, "read").add(name)
        return value


def test_every_command_reads_each_of_its_options(workspace, capsys):
    """Every key of ``COMMAND_OPTIONS[command]`` is read by some run of the
    command. ``kernel`` on evaluate and recommend is the one exception: it is
    checked, and chooses nothing (scoring always uses the closed form)."""
    tmp_path, raw, split_dir = workspace
    out = tmp_path / "reads"
    common = ["--split-dir", str(split_dir), "--out-dir", str(out)]
    small = ["-K", "1", "-C", "2", "-F", "2", "--epochs", "2", "--batch-size", "8"]
    ckpt = ["--checkpoint", str(out / "model.spck")]
    runs = [
        ["split", "--input", str(raw), "--out-dir", str(out / "standard")],
        ["split", "--input", str(raw), "--protocol", "cold-start", "--out-dir", str(out / "cs")],
        ["train", *common, *small],
        ["train", *common, *small, "--model", "bpr-mf", "--checkpoint", "bpr.spck"],
        ["evaluate", *common, *ckpt, "--cutoffs", "2"],
        ["recommend", *common, *ckpt, "--user", "u0"],
        ["spectral-embed", *common, "-k", "1"],
        ["spectral-embed", "--input", str(raw), "--out-dir", str(out), "-k", "1"],
    ]
    read = {command: set() for command in cli.COMMAND_OPTIONS}
    for argv in runs:
        args = cli.parse_args(argv)
        recorder = ReadRecorder(**vars(args))
        assert args.func(recorder) == 0, argv
        read[argv[0]] |= recorder.read
    capsys.readouterr()
    unread = {"evaluate": {"kernel"}, "recommend": {"kernel"}}
    for command, keys in cli.COMMAND_OPTIONS.items():
        assert set(keys) - unread.get(command, set()) <= read[command], command


def test_cold_start_sweep_runs_through_the_cli(tmp_path, capsys, monkeypatch):
    """The README's cold-start sweep for P = 1, 2 (so --min-interactions is 3),
    at 2 epochs, on a 12-user tsv file."""
    rng = np.random.default_rng(0)
    lines = [f"u{u}\ti{i}\t{rng.integers(1, 6)}" for u in range(12)
             for i in rng.choice(10, size=int(rng.integers(4, 8)), replace=False)]
    (tmp_path / "ratings.tsv").write_text("\n".join(lines) + "\n")
    monkeypatch.chdir(tmp_path)
    for p in ("1", "2"):
        run_dir = f"cs/p{p}/run"
        for argv in (
            ["split", "--input", "ratings.tsv", "--format", "tsv", "--protocol", "cold-start",
             "--p", p, "--min-interactions", "3", "--seed", "0", "--out-dir", f"cs/p{p}"],
            ["train", "--split-dir", f"cs/p{p}", "--epochs", "2", "--out-dir", run_dir],
            ["train", "--split-dir", f"cs/p{p}", "--model", "bpr-mf", "--d", "64",
             "--epochs", "2", "--checkpoint", "bpr.spck", "--loss-log", "bpr_loss.tsv",
             "--out-dir", run_dir],
            ["evaluate", "--split-dir", f"cs/p{p}", "--checkpoint", f"{run_dir}/model.spck",
             "--cutoffs", "20", "--out-dir", run_dir],
            ["evaluate", "--split-dir", f"cs/p{p}", "--checkpoint", f"{run_dir}/bpr.spck",
             "--cutoffs", "20", "--report", "bpr_report.tsv", "--out-dir", run_dir],
        ):
            code, _, err = run(capsys, argv)
            assert code == 0, err
        for report in ("report.tsv", "bpr_report.tsv"):
            text = (tmp_path / run_dir / report).read_text()
            body = [ln.split("\t") for ln in text.splitlines() if not ln.startswith("#")]
            assert [row[:2] for row in body] == [["20", "recall"], ["20", "map"]]
            for row in body:
                assert math.isfinite(float(row[2])) and 0.0 <= float(row[2]) <= 1.0


README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_commands_parse():
    """Every ``spectralcf ...`` command in the README's sh blocks, with ``\\``
    continuations joined and ``$P`` set to 1, parses; together they use every
    command."""
    commands = []
    for block in re.findall(r"```sh\n(.*?)```", README.read_text(), re.S):
        for line in block.replace("\\\n", " ").splitlines():
            words = shlex.split(line.replace("$P", "1"))
            if words[:1] == ["spectralcf"]:
                commands.append(words[1:])
    assert {argv[0] for argv in commands} == set(cli.COMMAND_OPTIONS)
    for argv in commands:
        cli.parse_args(argv)
