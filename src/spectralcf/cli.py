"""Command-line front end.

Subcommands: ``split``, ``train``, ``evaluate``, ``recommend`` and
``spectral-embed``. Every setting is a row of ``OPTIONS``; its precedence is
flag, then an optional flat key=value config file, then the row's default.
The environment variable ``SPECTRALCF_OUT_DIR``, when set, overrides the
output directory of every command.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from . import baselines, data, evaluation, graph, model, training
from .checkpoint import SpectralCheckpoint, load_checkpoint, save_checkpoint
from .errors import DimensionError, SpectralCFError

OUT_DIR_ENV = "SPECTRALCF_OUT_DIR"


def int_list(text: str) -> tuple[int, ...]:
    """Comma-separated ints; empty items are skipped."""
    return tuple(int(tok) for tok in text.split(",") if tok)


class Option(NamedTuple):
    """One setting, read the same way from its flag and from a config file.

    A value of an option with ``choices`` matches a choice with ``-`` and
    ``_`` taken as the same character, and resolves to the choice as spelled
    here, which is the spelling the package uses. For such an option ``help``
    is a noun: errors name the option by it.
    """

    flag: str
    type: Callable = str
    default: object = None
    choices: tuple = ()
    help: str = ""

    def parse(self, text: str):
        if self.choices:
            for choice in self.choices:
                if choice.replace("-", "_") == text.replace("-", "_"):
                    return choice
            raise argparse.ArgumentTypeError(
                f"unknown {self.help}: {text!r} (choose from {', '.join(self.choices)})")
        try:
            return self.type(text)
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"{text!r} is not a valid {self.type.__name__}") from None


# Every setting a flag or a config key can give; the key is the config key.
OPTIONS = {
    "seed": Option("--seed", int, 0, help="RNG seed"),
    "format": Option("--format", default="tsv", choices=("movielens_dat", "tsv"),
                     help="input format"),
    "protocol": Option("--protocol", default="standard", choices=("standard", "cold-start"),
                       help="split protocol"),
    "fraction": Option("--fraction", float, 0.8,
                       help="train fraction for the standard protocol"),
    "p": Option("--p", int, 1, help="train items per user for cold-start"),
    "min_interactions": Option("--min-interactions", int, 1,
                               help="drop users with fewer interactions before splitting"),
    "model": Option("--model", default="spectralcf", choices=("spectralcf", "bpr-mf"),
                    help="model"),
    "kernel": Option("--kernel", default=graph.KERNEL_CLOSED_SPARSE,
                     choices=(graph.KERNEL_CLOSED_SPARSE, graph.KERNEL_DENSE_EIG),
                     help="kernel form (scoring always uses closed-sparse)"),
    "K": Option("-K", int, 3, help="number of propagation layers"),
    "C": Option("-C", int, 16, help="input factor width"),
    "F": Option("-F", int, 16, help="per-layer factor width"),
    "d": Option("--d", int, None, help="bpr-mf latent dimension (default C + K*F)"),
    "reg": Option("--reg", float, 1e-3, help="L2 regularization weight"),
    "batch_size": Option("--batch-size", int, 1024, help="triples per training step"),
    "epochs": Option("--epochs", int, 200, help="training epochs"),
    "lr": Option("--lr", float, 1e-3, help="learning rate"),
    "rms_decay": Option("--rms-decay", float, 0.9, help="RMSprop decay"),
    "rms_epsilon": Option("--rms-epsilon", float, 1e-8, help="RMSprop epsilon"),
    "reg_scope": Option("--reg-scope", default=training.REG_FULL,
                        choices=(training.REG_FULL, training.REG_BATCH_ROWS),
                        help="regularization scope"),
    "cutoffs": Option("--cutoffs", int_list, (20, 40, 60, 80, 100),
                      help="comma-separated list of M values"),
    "map_denom": Option("--map-denom", default=evaluation.MAP_DENOM_TRUNCATED,
                        choices=(evaluation.MAP_DENOM_TRUNCATED, evaluation.MAP_DENOM_RELEVANT),
                        help="MAP denominator"),
    "M": Option("-M", int, 20, help="list length"),
    "k": Option("-k", int, 2, help="number of coordinates per vertex"),
}

# The options each command takes, by OPTIONS key.
COMMAND_OPTIONS = {
    "split": ("seed", "format", "protocol", "fraction", "p", "min_interactions"),
    "train": ("seed", "model", "kernel", "K", "C", "F", "d", "reg", "batch_size", "epochs",
              "lr", "rms_decay", "rms_epsilon", "reg_scope"),
    "evaluate": ("kernel", "cutoffs", "map_denom"),
    "recommend": ("kernel", "M"),
    "spectral-embed": ("format", "k"),
}


def _out_dir(args) -> Path:
    env = os.environ.get(OUT_DIR_ENV)
    if env:
        return Path(env)
    return Path(getattr(args, "out_dir", None) or ".")


def _out_path(args, name: str) -> Path:
    """Resolve a user-supplied output path against the output directory."""
    p = Path(name)
    if p.is_absolute():
        return p
    return _out_dir(args) / p


def _print_err(message: str) -> None:
    print(f"error: {message}", file=sys.stderr)


# ---------------------------------------------------------------------------
# split


def cmd_split(args) -> int:
    # Range checks come before the input is read.
    if args.protocol == "standard":
        data.check_train_fraction(args.fraction)
    else:
        data.check_items_per_user(args.p)
    data.check_min_interactions(args.min_interactions)
    columns = data.read_interactions(args.input, args.format)
    dataset = data.to_implicit(columns, min_user_interactions=args.min_interactions)

    if args.protocol == "standard":
        split = data.split_standard(dataset, args.fraction, args.seed)
    else:
        split = data.split_cold_start(dataset, args.p, args.seed)

    out = _out_dir(args)
    data.save_split(split, out)
    print(f"users\t{split.train.n_users}")
    print(f"items\t{split.train.n_items}")
    print(f"train_interactions\t{split.train.n_interactions()}")
    print(f"test_interactions\t{split.test.n_interactions()}")
    print(f"excluded_users\t{split.n_excluded_users}")
    print(f"rescued_pairs\t{split.n_rescued}")
    print(f"written\t{out}")
    return 0


# ---------------------------------------------------------------------------
# train


def _build_kernel(train_set, form: str) -> graph.ConvKernel:
    """The propagation kernel of ``form``; only dense_eig needs the eigensystem."""
    g = graph.build_graph(train_set)
    basis = graph.eigendecompose(g) if form == graph.KERNEL_DENSE_EIG else None
    return graph.conv_kernel(g, basis, form)


def cmd_train(args) -> int:
    # Both configurations check their ranges before the split is read.
    tc = training.TrainConfig(
        batch_size=args.batch_size,
        epochs=args.epochs,
        learning_rate=args.lr,
        reg=args.reg,
        rms_decay=args.rms_decay,
        rms_epsilon=args.rms_epsilon,
        seed=args.seed,
        reg_scope=args.reg_scope,
    )
    # BPR-MF is the K = 0 model of width d, by default SpectralCF's factor width.
    bpr_mf = args.model == "bpr-mf"
    mc = model.ModelConfig(K=args.K, C=args.C, F=args.F, seed=args.seed)
    if bpr_mf:
        mc = model.ModelConfig(K=0, C=mc.factor_width if args.d is None else args.d, seed=args.seed)
    train_set = data.load_train(args.split_dir)

    _out_dir(args).mkdir(parents=True, exist_ok=True)
    ckpt_path = _out_path(args, args.checkpoint)
    log_path = _out_path(args, args.loss_log)

    # No graph or kernel is built for a K = 0 model, which never reads one.
    if bpr_mf:
        params, history = baselines.fit_bpr_mf(train_set, mc.C, tc, init_seed=mc.seed)
    else:
        kernel = _build_kernel(train_set, args.kernel) if mc.K else None
        params, history = training.train(train_set, kernel, mc, tc)

    # Both files are replaced only once training has succeeded, each atomically.
    save_checkpoint(SpectralCheckpoint(params, mc, tc.rms_decay, tc.rms_epsilon), ckpt_path)
    with data.atomic_open(log_path, "w", encoding="utf-8") as fh:
        for epoch, loss in enumerate(history, start=1):
            fh.write(f"{epoch}\t{loss:.10f}\n")
    print(f"model\t{args.model}")
    print(f"epochs\t{len(history)}")
    print(f"final_loss\t{history[-1]:.10f}")
    print(f"checkpoint\t{ckpt_path}")
    print(f"loss_log\t{log_path}")
    return 0


# ---------------------------------------------------------------------------
# evaluate


def _scorer_from_checkpoint(ckpt: SpectralCheckpoint, train_set) -> model.FactorTable:
    """The checkpoint's factors over ``train_set``: the one scorer type of
    ``evaluate`` and ``recommend``. At K = 0 no graph or kernel is built.

    A K > 0 model is scored with the sparse closed form, whatever
    ``--kernel`` says: in the orthonormal eigenbasis U U^T = I, so the
    eigen-product is the closed form (acceptance gate 1 certifies the two
    agree).
    """
    params = ckpt.params
    if (params.n_users, params.n_items) != (train_set.n_users, train_set.n_items):
        raise DimensionError(
            f"checkpoint is for {params.n_users} users x {params.n_items} items, "
            f"split has {train_set.n_users} x {train_set.n_items}"
        )
    kernel = _build_kernel(train_set, graph.KERNEL_CLOSED_SPARSE) if ckpt.config.K else None
    return model.forward(params, kernel, ckpt.config)[0]


def cmd_evaluate(args) -> int:
    evaluation.check_cutoffs(args.cutoffs)  # before the split is read
    split = data.load_split(args.split_dir)
    factors = _scorer_from_checkpoint(load_checkpoint(args.checkpoint), split.train)
    report = evaluation.evaluate(factors, split, args.cutoffs, map_denom=args.map_denom)

    out = _out_dir(args)
    out.mkdir(parents=True, exist_ok=True)
    report_path = _out_path(args, args.report)
    header = {
        "checkpoint": str(args.checkpoint),
        "split": str(args.split_dir),
        "map_denom": args.map_denom,
        "n_evaluable_users": report.n_evaluable_users,
        "n_skipped_users": report.n_skipped_users,
    }
    evaluation.save_report(report, report_path, header)

    print("cutoff\trecall\tmap")
    for m in report.cutoffs:
        print(f"{m}\t{report.recall_at[m]:.6f}\t{report.map_at[m]:.6f}")
    print(f"report\t{report_path}")
    return 0


# ---------------------------------------------------------------------------
# recommend


def cmd_recommend(args) -> int:
    model.check_list_length(args.M)  # before the split is read
    train_set = data.load_train(args.split_dir)
    factors = _scorer_from_checkpoint(load_checkpoint(args.checkpoint), train_set)

    try:
        u = train_set.user_ids.index(args.user)
    except ValueError:
        raise ValueError(f"unknown user id: {args.user!r}") from None

    scores = (factors.V_u[[u]] @ factors.V_i.T)[0]
    exclude = train_set.items_of(u) if args.exclude_seen else np.empty(0, dtype=np.int64)
    for i in model.top_m(scores, exclude, args.M):
        print(f"{train_set.item_ids[i]}\t{scores[i]:.10f}")
    return 0


# ---------------------------------------------------------------------------
# spectral-embed


def cmd_spectral_embed(args) -> int:
    if (args.split_dir is None) == (args.input is None):
        raise ValueError("give exactly one of --split-dir or --input")
    graph.check_coordinate_count(args.k)  # before the input is read
    if args.split_dir is not None:
        dataset = data.load_train(args.split_dir)
    else:
        dataset = data.to_implicit(data.read_interactions(args.input, args.format))

    g = graph.build_graph(dataset)
    coords = graph.spectral_coordinates(g, args.k)

    out = _out_dir(args)
    out.mkdir(parents=True, exist_ok=True)
    path = _out_path(args, args.output)
    with data.atomic_open(path, "w", encoding="utf-8") as fh:
        for v in range(g.n_vertices):
            if v < g.n_users:
                kind, ext = "user", dataset.user_ids[v]
            else:
                kind, ext = "item", dataset.item_ids[v - g.n_users]
            row = "\t".join(f"{c:.10f}" for c in coords[v])
            fh.write(f"{kind}\t{ext}\t{row}\n")
    print(f"vertices\t{g.n_vertices}")
    print(f"coordinates\t{path}")
    return 0


# ---------------------------------------------------------------------------
# parser


def _str2bool(value: str) -> bool:
    lowered = value.lower()
    if lowered in ("1", "true", "yes"):
        return True
    if lowered in ("0", "false", "no"):
        return False
    raise argparse.ArgumentTypeError(f"expected a boolean, got {value!r}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spectralcf",
        description="Spectral collaborative filtering on a user-item bipartite graph.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_command(name, func, help):
        p = sub.add_parser(name, help=help)
        p.add_argument("--config", help="flat key=value config file")
        p.add_argument("--out-dir", help=f"output directory (env {OUT_DIR_ENV} overrides)")
        for key in COMMAND_OPTIONS[name]:
            opt = OPTIONS[key]
            p.add_argument(opt.flag, dest=key, type=opt.parse, choices=opt.choices or None,
                           help=opt.help)
        p.set_defaults(func=func)
        return p

    p = add_command("split", cmd_split, "ingest interactions and write a train/test split")
    p.add_argument("--input", required=True, help="raw interaction file")

    p = add_command("train", cmd_train, "train a model on a saved split")
    p.add_argument("--split-dir", required=True, help="directory written by split")
    p.add_argument("--checkpoint", default="model.spck", help="checkpoint file name")
    p.add_argument("--loss-log", default="loss.tsv", help="per-epoch loss file name")

    p = add_command("evaluate", cmd_evaluate, "score a checkpoint against held-out pairs")
    p.add_argument("--split-dir", required=True)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--report", default="report.tsv", help="report file name")

    p = add_command("recommend", cmd_recommend, "print top-M items for one user")
    p.add_argument("--split-dir", required=True)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--user", required=True, help="external user id")
    p.add_argument("--exclude-seen", type=_str2bool, default=True,
                   help="drop the user's training items from the list (default true)")

    p = add_command("spectral-embed", cmd_spectral_embed,
                    "export low-frequency vertex coordinates")
    p.add_argument("--split-dir", help="use the train half of a saved split")
    p.add_argument("--input", help="raw interaction file (alternative to --split-dir)")
    p.add_argument("--output", default="coordinates.tsv", help="coordinates file name")

    return parser


def parse_args(argv=None) -> argparse.Namespace:
    """Parse ``argv`` and resolve every option of its command into the result:
    the flag, else the ``--config`` value, else the default.

    Config values are read by the same ``Option.parse`` as flags, and are
    checked even where a flag overrides them. Every config key must name an
    option, of this command or another, so that one file can serve every
    command. All of this happens before any data file is read.
    """
    args = build_parser().parse_args(argv)
    cfg = data.read_key_values(args.config) if args.config else {}
    for key in cfg:
        if key not in OPTIONS:
            raise ValueError(f"{args.config}: unknown key {key!r}")
    for key in COMMAND_OPTIONS[args.command]:
        if key in cfg:
            try:
                value = OPTIONS[key].parse(cfg[key])
            except argparse.ArgumentTypeError as exc:
                raise ValueError(f"{args.config}: {key}: {exc}") from None
        else:
            value = OPTIONS[key].default
        if getattr(args, key) is None:
            setattr(args, key, value)
    return args


def main(argv=None) -> int:
    try:
        args = parse_args(argv)
        return args.func(args)
    except (SpectralCFError, ValueError, TypeError, OSError) as exc:
        _print_err(str(exc))
        return 1


if __name__ == "__main__":
    sys.exit(main())
