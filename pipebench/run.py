#!/usr/bin/env python3
"""Pipeline benchmark: split -> train -> evaluate -> recommend -> spectral-embed.

Runs the command-line front end in-process through ``spectralcf.cli.main``,
on a MovieLens-1M-shaped input generated from ``--seed``, and prints one JSON
result line:

    python3 pipebench/run.py --workload ml1m-standard --seed 0 --seconds 36 --trace 0

A run repeats whole rounds of ``split`` (the set-up), ``train``, ``evaluate``,
one ``recommend``, ``train --model bpr-mf`` and ``spectral-embed`` until
``--seconds`` have passed, and reports the median of each stage. Outputs are
checked against computations made apart from the program (``checks.py``)
after the timed stages. ``--trace 1`` wraps the package's public functions
(``spans.py``) and reports per-layer figures instead; its spans go to
``.pipebench-work/traces/``. Standard error carries the per-round samples as
one JSON line.

Run it from the root of the repository; it imports the package from ``src/``.
"""

from __future__ import annotations

import os
import sys

# Single-threaded BLAS, set before NumPy loads: a run's times then do not hang
# on how many cores other processes leave free (1 never exceeds nproc).
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
# It would override every command's --out-dir.
os.environ.pop("SPECTRALCF_OUT_DIR", None)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import gen  # noqa: E402
from spans import Tracer, self_times  # noqa: E402

K, C, F = 3, 16, 16
BATCH = 1024
CUTOFFS = [20, 40, 60, 80, 100]
M = 20
EMBED_K = 2
RECOMMEND_USERS = 3


@dataclass(frozen=True)
class Workload:
    users: int
    items: int
    pairs: int
    protocol: str  # "standard" (fraction 0.8) or "cold-start" (P = 2)
    kernel: str
    epochs: int


# Why each workload exists is recorded in README.md.
WORKLOADS = {
    "ml1m-standard": Workload(868, 533, 130_000, "standard", "closed-sparse", 20),
    "coldstart-p2": Workload(745, 457, 120_000, "cold-start", "closed-sparse", 30),
    "spectral-dense": Workload(745, 457, 60_000, "standard", "dense-eig", 25),
}
FRACTION = 0.8
P = 2


def import_package():
    """The package from this checkout's src/, never an installed copy."""
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import spectralcf.cli as cli
    except ImportError as exc:
        sys.exit(f"error: cannot import spectralcf from {ROOT / 'src'}: {exc}")
    if not Path(cli.__file__).resolve().is_relative_to(ROOT / "src"):
        sys.exit(f"error: spectralcf resolved to {cli.__file__}, not {ROOT / 'src'}")
    return cli


class Runner:
    """Calls the CLI, timing each command; counts attempts and failures."""

    def __init__(self, cli):
        self.cli = cli
        self.tracer: Tracer | None = None
        self.attempted = 0
        self.failed = 0

    def __call__(self, span: str, argv: list[str]) -> tuple[float, str]:
        gc.collect()
        out = io.StringIO()
        scope = self.tracer.span(span) if self.tracer else contextlib.nullcontext()
        self.attempted += 1
        t0 = time.perf_counter()
        with scope, contextlib.redirect_stdout(out):
            code = self.cli.main(argv)
        elapsed = time.perf_counter() - t0
        if code != 0:
            self.failed += 1
            raise checks.CheckFailed(f"{argv[0]} exited with {code}")
        return elapsed, out.getvalue()


def digest(*paths: Path) -> str:
    h = hashlib.sha256()
    for path in paths:
        h.update(path.read_bytes())
    return h.hexdigest()


def run(args, runner: Runner) -> dict:
    wl = WORKLOADS[args.workload]
    work = ROOT / ".pipebench-work" / f"{args.workload}-s{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        return _run(args, runner, wl, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _run(args, runner: Runner, wl: Workload, work: Path) -> dict:
    lines, pairs = gen.generate(args.seed, wl.users, wl.items, wl.pairs)
    raw = work / "ratings.dat"
    gen.write(raw, lines)
    n_lines = len(lines)
    del lines
    rec_users = np.random.default_rng([args.seed, 1]).choice(
        np.arange(1, wl.users + 1), size=RECOMMEND_USERS, replace=False).tolist()

    tracer = runner.tracer = Tracer() if args.trace else None
    if tracer:
        tracer.install()

    split_dir = work / "split"
    split_argv = ["split", "--input", str(raw), "--format", "movielens-dat", "--seed", "0",
                  "--out-dir", str(split_dir)]
    split_argv += (["--protocol", "standard", "--fraction", str(FRACTION)]
                   if wl.protocol == "standard" else ["--protocol", "cold-start", "--p", str(P)])
    out = work / "run"
    common = ["--split-dir", str(split_dir), "--out-dir", str(out)]
    kernel = ["--kernel", wl.kernel]
    ckpt = str(out / "model.spck")
    train_argv = ["train", *common, *kernel, "-K", str(K), "-C", str(C), "-F", str(F),
                  "--batch-size", str(BATCH), "--epochs", str(wl.epochs), "--seed", "0"]
    bpr_argv = ["train", *common, "--model", "bpr-mf", "--d", str(C + K * F),
                "--batch-size", str(BATCH), "--epochs", str(wl.epochs), "--seed", "0",
                "--checkpoint", "bpr.spck", "--loss-log", "bpr_loss.tsv"]
    eval_argv = ["evaluate", *common, *kernel, "--checkpoint", ckpt,
                 "--cutoffs", ",".join(map(str, CUTOFFS))]
    embed_argv = ["spectral-embed", "--split-dir", str(split_dir), "--out-dir", str(out),
                  "-k", str(EMBED_K)]

    times = {name: [] for name in ("setup", "train", "evaluate", "recommend", "baseline_train",
                                   "embed")}
    rounds: list[float] = []
    recommendations: dict[int, str] = {}
    # Every round must write the same bytes; the checks then cover all rounds.
    digests = {"split": set(), "checkpoint": set(), "coordinates": set()}

    def one_round():
        t0 = time.perf_counter()
        # Every round sets up afresh, and its train pays the eigendecomposition,
        # as a first run does.
        shutil.rmtree(split_dir, ignore_errors=True)
        shutil.rmtree(out / "basis_cache", ignore_errors=True)
        times["setup"].append(runner("cli.split", split_argv)[0])
        digests["split"].add(digest(*(split_dir / f
                                      for f in ("train.tsv", "test.tsv", "split.meta"))))
        times["train"].append(runner("cli.train", train_argv)[0])
        digests["checkpoint"].add(digest(out / "model.spck"))
        times["evaluate"].append(runner("cli.evaluate", eval_argv)[0])
        user = rec_users[len(rounds) % len(rec_users)]
        t, text = runner("cli.recommend", ["recommend", *common, *kernel, "--checkpoint",
                                           ckpt, "--user", str(user), "-M", str(M)])
        times["recommend"].append(t)
        recommendations[user] = text
        times["baseline_train"].append(runner("cli.train_bpr_mf", bpr_argv)[0])
        times["embed"].append(runner("cli.spectral_embed", embed_argv)[0])
        digests["coordinates"].add(digest(out / "coordinates.tsv"))
        rounds.append(time.perf_counter() - t0)

    start = time.perf_counter()
    while not rounds or time.perf_counter() - start < args.seconds:
        one_round()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer:
        tracer.uninstall()

    print(json.dumps({"rounds": rounds, **times}), file=sys.stderr)
    for name, seen in digests.items():
        if len(seen) != 1:
            raise checks.CheckFailed(f"rounds wrote different {name} files for the same seed")
    facts = verify(split_dir, out, pairs, wl, recommendations)
    if facts["embed_failed"]:
        # Every round's coordinates are those bytes, so every embed failed.
        runner.failed += len(times["embed"])

    if not tracer:
        return {
            "setup_s": (statistics.median(times["setup"]), "s"),
            "train_s": (statistics.median(times["train"]), "s"),
            "evaluate_s": (statistics.median(times["evaluate"]), "s"),
            "recommend_s": (statistics.median(times["recommend"]), "s"),
            "baseline_train_s": (statistics.median(times["baseline_train"]), "s"),
            "embed_s": (statistics.median(times["embed"]), "s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
            "recall_at_20": (facts["recall_at_20"], "ratio"),
        }
    traces = ROOT / ".pipebench-work" / "traces"
    traces.mkdir(parents=True, exist_ok=True)
    tracer.write(traces / f"{args.workload}-s{args.seed}.jsonl")
    facts["raw_lines"] = n_lines
    facts["checkpoint_bytes"] = (out / "model.spck").stat().st_size
    overhead = tracer.cost() / len(rounds)
    return per_layer(tracer.spans, facts, overhead)


def verify(split_dir: Path, out: Path, pairs, wl: Workload, recommendations) -> dict:
    """Every check of checks.py on the last round's outputs; returns counts."""
    train = checks.read_pairs(split_dir / "train.tsv")
    test = checks.read_pairs(split_dir / "test.tsv")
    meta = checks.read_meta(split_dir / "split.meta")
    checks.check_split(train, test, meta, pairs, wl.protocol,
                       FRACTION if wl.protocol == "standard" else P)
    checks.check_loss(out / "loss.tsv")
    checks.check_loss(out / "bpr_loss.tsv")
    ref = checks.Reference(train, out / "model.spck")
    recall, n_eval = checks.check_report(out / "report.tsv", ref, test, CUTOFFS)
    for user, text in recommendations.items():
        checks.check_recommend(text, ref, user, M)
    try:
        checks.check_embedding(out / "coordinates.tsv", ref, EMBED_K)
        embed_failed = False
    except checks.TrivialEmbedding as exc:
        print(f"spectral-embed failed: {exc}", file=sys.stderr)
        embed_failed = True
    return {
        "embed_failed": embed_failed,
        "recall_at_20": recall,
        "users_evaluated": n_eval,
        "train_pairs": len(train),
        "test_pairs": len(test),
        "repaired_items": int(meta["n_swapped"]) + int(meta["n_rescued"]),
        "n_vertices": ref.n_users + ref.n_items,
    }


def per_layer(spans: list[dict], facts: dict, overhead: float) -> dict:
    """Per-layer figures from the spans; a function never called reads 0."""
    by_id = {s["id"]: s for s in spans}
    root = {}
    for s in spans:  # parents precede children in the list
        root[s["id"]] = root[s["parent"]] if s["parent"] is not None else s["name"]
    own = self_times(spans)

    def dur(s):
        return s["end"] - s["start"]

    def named(*names, under=None, parent=None):
        return [s for s in spans if s["name"] in names
                and (under is None or root[s["id"]] == under)
                and (parent is None or (s["parent"] is not None
                                        and by_id[s["parent"]]["name"] == parent))]

    def med(values):
        return statistics.median(values) if values else 0.0

    def t(*names, **where):
        return (med([dur(s) for s in named(*names, **where)]), "s")

    def steps(outer):
        return [(s, sum(1 for c in spans if c["parent"] == s["id"]
                        and c["name"] == "training.sample_batch"))
                for s in named(outer)]

    train_steps = [(s, n) for s, n in steps("training.train") if n]
    bpr_steps = [(s, n) for s, n in steps("baselines.fit_bpr_mf") if n]
    evaluate_s = t("evaluation.evaluate")[0]
    nnz = [s["nnz"] for s in named("graph.conv_kernel", under="cli.train") if "nnz" in s]
    m = {
        "data.parse_interactions_s": t("data.parse_interactions", parent="cli.split"),
        "data.to_implicit_s": t("data.to_implicit"),
        "data.split_s": t("data.split_standard", "data.split_cold_start"),
        "data.repair_isolated_items_s": t("data._repair_isolated_items"),
        "data.save_split_s": t("data.save_split"),
        "data.load_split_s": t("data.load_split"),
        "data.raw_lines": (facts["raw_lines"], "count"),
        "data.train_pairs": (facts["train_pairs"], "count"),
        "data.test_pairs": (facts["test_pairs"], "count"),
        "data.repaired_items": (facts["repaired_items"], "count"),
        "graph.build_graph_s": t("graph.build_graph"),
        "graph.conv_kernel_s": t("graph.conv_kernel"),
        "graph.eigendecompose_s": t("graph.eigendecompose"),
        "graph.save_basis_s": t("graph.save_basis"),
        "graph.load_basis_s": t("graph.load_basis"),
        "graph.n_vertices": (facts["n_vertices"], "count"),
        "graph.kernel_nnz": (med(nnz), "count"),
        "model.forward_s": t("model.forward"),
        "training.sample_batch_s": t("training.sample_batch", under="cli.train"),
        "training.bpr_loss_s": t("training.bpr_loss", under="cli.train"),
        "training.backward_s": t("training.backward", under="cli.train"),
        "training.rmsprop_step_s": t("training.rmsprop_step", under="cli.train"),
        "training.step_s": (med([dur(s) / n for s, n in train_steps]), "s"),
        "training.steps": (med([n for _, n in train_steps]), "count"),
        "training.triples_per_s": (med([BATCH * n / dur(s) for s, n in train_steps]), "1/s"),
        "baselines.fit_bpr_mf_s": t("baselines.fit_bpr_mf"),
        "baselines.bpr_mf_step_s": (med([dur(s) / n for s, n in bpr_steps]), "s"),
        "evaluation.evaluate_s": (evaluate_s, "s"),
        "evaluation.save_report_s": t("evaluation.save_report"),
        "evaluation.users_evaluated": (facts["users_evaluated"], "count"),
        "evaluation.users_per_s": (facts["users_evaluated"] / evaluate_s if evaluate_s else 0.0,
                                   "1/s"),
        "checkpoint.save_checkpoint_s": t("checkpoint.save_checkpoint"),
        "checkpoint.load_checkpoint_s": t("checkpoint.load_checkpoint"),
        "checkpoint.bytes": (facts["checkpoint_bytes"], "bytes"),
    }
    for command in ("split", "train", "train_bpr_mf", "evaluate", "recommend",
                    "spectral_embed"):
        m[f"cli.{command}_self_s"] = (med([own[s["id"]] for s in named(f"cli.{command}")]), "s")
    m["trace.overhead_s"] = (overhead, "s")
    return m


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    runner = Runner(import_package())
    try:
        metrics = run(args, runner)
        correct = True
    except checks.CheckFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        metrics, correct = {}, False
    result = {
        "correct": correct,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
