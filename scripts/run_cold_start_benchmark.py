#!/usr/bin/env python3
"""Full cold-start benchmark over a range of per-user training sizes.

For each P in --p-values the script keeps exactly P training items per user,
holds out the rest, trains the spectral model and the pairwise-ranking
matrix-factorization baseline on identical triple streams, and reports
Recall@20 and MAP@20 side by side. On a full-size dataset such as the
MovieLens-1M ratings file this takes hours; it is a reporting tool, not part
of the test suite.

Example:
    python3 scripts/run_cold_start_benchmark.py \
        --input ratings.dat --format movielens-dat \
        --p-values 1,2,3,4,5 --epochs 200 --out benchmark.tsv
"""

import argparse
import sys
import time

import numpy as np

from spectralcf import baselines, data, evaluation, graph, model, training


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--input", required=True, help="raw interaction file")
    parser.add_argument("--format", default="tsv",
                        choices=["tsv", "movielens-dat"])
    parser.add_argument("--p-values", default="1,2,3,4,5",
                        help="comma-separated training sizes per user")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("-K", type=int, default=3, dest="K")
    parser.add_argument("-C", type=int, default=16, dest="C")
    parser.add_argument("-F", type=int, default=16, dest="F")
    parser.add_argument("--d", type=int, default=None,
                        help="baseline width; defaults to C + K*F")
    parser.add_argument("--lr", type=float, default=1e-3)
    parser.add_argument("--reg", type=float, default=1e-3)
    parser.add_argument("--batch-size", type=int, default=1024)
    parser.add_argument("--epochs", type=int, default=200)
    parser.add_argument("--cutoff", type=int, default=20)
    parser.add_argument("--out", default=None, help="optional TSV report path")
    return parser.parse_args(argv)


def run_one(dataset, p, args):
    split = data.split_cold_start(dataset, p, args.seed)
    train_set = split.train
    g = graph.build_graph(train_set)
    kernel = graph.conv_kernel(g, None, graph.KERNEL_CLOSED_SPARSE)
    tc = training.TrainConfig(
        batch_size=args.batch_size, epochs=args.epochs, learning_rate=args.lr,
        reg=args.reg, seed=args.seed,
    )
    m = args.cutoff

    t0 = time.time()
    cfg = model.ModelConfig(K=args.K, C=args.C, F=args.F, seed=args.seed)
    params, _ = training.train(train_set, kernel, cfg, tc)
    factors, _ = model.forward(params, kernel, cfg)
    spec = evaluation.evaluate(factors, split, [m])

    d = args.d if args.d is not None else args.C + args.K * args.F
    mf, _ = baselines.fit_bpr_mf(train_set, d, tc, init_seed=args.seed)
    bpr = evaluation.evaluate(baselines.bpr_mf_scorer(mf), split, [m])

    return {
        "P": p,
        "users": train_set.n_users,
        "spectral_recall": spec.recall_at[m],
        "spectral_map": spec.map_at[m],
        "bpr_recall": bpr.recall_at[m],
        "bpr_map": bpr.map_at[m],
        "seconds": time.time() - t0,
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    p_values = [int(tok) for tok in args.p_values.split(",") if tok]

    with open(args.input, "rb") as fh:
        columns = data.parse_interactions(fh, args.format.replace("-", "_"))
    # Users need at least max(P)+1 interactions so every split has test items.
    dataset = data.to_implicit(columns, min_user_interactions=max(p_values) + 1)
    print(f"dataset: {dataset.n_users} users, {dataset.n_items} items, "
          f"{dataset.n_interactions()} interactions", file=sys.stderr)

    m = args.cutoff
    rows = []
    header = ("P", f"recall@{m} spectral", f"recall@{m} bpr",
              f"map@{m} spectral", f"map@{m} bpr", "seconds")
    print("\t".join(header))
    for p in p_values:
        row = run_one(dataset, p, args)
        rows.append(row)
        print(f"{row['P']}\t{row['spectral_recall']:.6f}\t{row['bpr_recall']:.6f}"
              f"\t{row['spectral_map']:.6f}\t{row['bpr_map']:.6f}"
              f"\t{row['seconds']:.1f}", flush=True)

    gains = [row["spectral_recall"] / row["bpr_recall"] - 1.0
             for row in rows if row["bpr_recall"] > 0]
    if gains:
        print(f"mean relative recall gain: {np.mean(gains):+.1%}", file=sys.stderr)

    if args.out:
        with data.atomic_open(args.out, "w", encoding="utf-8") as fh:
            fh.write("\t".join(header) + "\n")
            for row in rows:
                fh.write(f"{row['P']}\t{row['spectral_recall']:.10f}"
                         f"\t{row['bpr_recall']:.10f}"
                         f"\t{row['spectral_map']:.10f}"
                         f"\t{row['bpr_map']:.10f}"
                         f"\t{row['seconds']:.1f}\n")
        print(f"report written to {args.out}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
