"""Command-line front end.

Subcommands: ``split``, ``train``, ``evaluate``, ``recommend`` and
``spectral-embed``. Hyper-parameter precedence is flags, then an optional
flat key=value config file, then built-in defaults. The environment
variable ``SPECTRALCF_OUT_DIR``, when set, overrides the output directory
of every command.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import sys
from pathlib import Path

import numpy as np

from . import baselines, data, evaluation, graph, model, training
from .checkpoint import SpectralCheckpoint, load_checkpoint, save_checkpoint
from .errors import DimensionError, SpectralCFError

OUT_DIR_ENV = "SPECTRALCF_OUT_DIR"

# Default hyper-parameters; CLI flags and the config file both override them.
DEFAULTS = {
    "format": "tsv",
    "protocol": "standard",
    "fraction": 0.8,
    "p": 1,
    "min_interactions": 1,
    "seed": 0,
    "model": "spectralcf",
    "kernel": "closed-sparse",
    "K": 3,
    "C": 16,
    "F": 16,
    "d": 16,
    "reg": 1e-3,
    "batch_size": 1024,
    "epochs": 200,
    "lr": 1e-3,
    "rms_decay": 0.9,
    "rms_epsilon": 1e-8,
    "steps_per_epoch": 1,
    "reg_scope": training.REG_FULL,
    "cutoffs": "20,40,60,80,100",
    "map_denom": evaluation.MAP_DENOM_TRUNCATED,
    "M": 20,
    "k": 2,
    "normalization": graph.NORM_SYM,
}

_CASTS = {
    "fraction": float,
    "p": int,
    "min_interactions": int,
    "seed": int,
    "K": int,
    "C": int,
    "F": int,
    "d": int,
    "reg": float,
    "batch_size": int,
    "epochs": int,
    "lr": float,
    "rms_decay": float,
    "rms_epsilon": float,
    "steps_per_epoch": int,
    "M": int,
    "k": int,
}


def load_config_file(path) -> dict:
    """Read a flat key=value config file; '#' lines and blanks are skipped."""
    cfg = {}
    with open(path, "r", encoding="utf-8") as fh:
        for line_no, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{line_no}: expected key=value, got {line!r}")
            key, _, value = line.partition("=")
            cfg[key.strip()] = value.strip()
    return cfg


def _resolve(args, cfg: dict, key: str):
    """Flag value if given, else config-file value, else the default."""
    flag = getattr(args, key, None)
    if flag is not None:
        return flag
    if key in cfg:
        return _CASTS.get(key, str)(cfg[key])
    return DEFAULTS[key]


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
    cfg = load_config_file(args.config) if args.config else {}
    fmt = str(_resolve(args, cfg, "format")).replace("-", "_")
    protocol = str(_resolve(args, cfg, "protocol"))
    seed = _resolve(args, cfg, "seed")
    min_inter = _resolve(args, cfg, "min_interactions")

    with open(args.input, "rb") as fh:
        columns = data.parse_interactions(fh, fmt)
    dataset = data.to_implicit(columns, min_user_interactions=min_inter)

    if protocol == "standard":
        split = data.split_standard(dataset, float(_resolve(args, cfg, "fraction")), seed)
    elif protocol == "cold-start":
        split = data.split_cold_start(dataset, int(_resolve(args, cfg, "p")), seed)
    else:
        raise ValueError(f"unknown protocol: {protocol!r}")

    out = _out_dir(args)
    out.mkdir(parents=True, exist_ok=True)
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


def _basis_cache_path(cache_dir: Path, train_file: Path, normalization: str) -> Path:
    digest = hashlib.sha256(train_file.read_bytes()).hexdigest()
    return cache_dir / f"{digest}_{normalization}.spcf"


def _kernel_options(args, cfg) -> tuple[str, str]:
    """The kernel form and normalization, checked before any file is read."""
    flag = str(_resolve(args, cfg, "kernel"))
    form, normalization = flag.replace("-", "_"), str(_resolve(args, cfg, "normalization"))
    if form not in (graph.KERNEL_CLOSED_SPARSE, graph.KERNEL_DENSE_EIG):
        raise ValueError(f"unknown kernel form: {flag!r}")
    graph.check_normalization(normalization)
    if form == graph.KERNEL_CLOSED_SPARSE and normalization != graph.NORM_SYM:
        raise ValueError(f"the closed-sparse kernel needs normalization {graph.NORM_SYM!r}, "
                         f"not {normalization!r}")
    return form, normalization


def _build_kernel(args, train_set, form: str, normalization: str):
    """Build the propagation kernel, caching the eigensystem for dense-eig."""
    g = graph.build_graph(train_set)
    if form == graph.KERNEL_CLOSED_SPARSE:
        return graph.conv_kernel(g, None, form)
    cache_dir = _out_dir(args) / "basis_cache"
    cache_dir.mkdir(parents=True, exist_ok=True)
    cache = _basis_cache_path(cache_dir, Path(args.split_dir) / "train.tsv", normalization)
    if cache.exists():
        basis = graph.load_basis(cache)
    else:
        basis = graph.eigendecompose(g, normalization)
        graph.save_basis(basis, cache)
    return graph.conv_kernel(g, basis, form)


def cmd_train(args) -> int:
    cfg = load_config_file(args.config) if args.config else {}
    form, normalization = _kernel_options(args, cfg)
    train_set = data.load_train(args.split_dir)

    which = str(_resolve(args, cfg, "model"))
    seed = _resolve(args, cfg, "seed")
    tc = training.TrainConfig(
        batch_size=_resolve(args, cfg, "batch_size"),
        epochs=_resolve(args, cfg, "epochs"),
        learning_rate=_resolve(args, cfg, "lr"),
        reg=_resolve(args, cfg, "reg"),
        rms_decay=_resolve(args, cfg, "rms_decay"),
        rms_epsilon=_resolve(args, cfg, "rms_epsilon"),
        seed=seed,
        steps_per_epoch=_resolve(args, cfg, "steps_per_epoch"),
        reg_scope=str(_resolve(args, cfg, "reg_scope")),
    )

    _out_dir(args).mkdir(parents=True, exist_ok=True)
    ckpt_path = _out_path(args, args.checkpoint)
    log_path = _out_path(args, args.loss_log)

    if which == "spectralcf":
        mc = model.ModelConfig(
            K=_resolve(args, cfg, "K"),
            C=_resolve(args, cfg, "C"),
            F=_resolve(args, cfg, "F"),
            seed=seed,
        )
        kernel = _build_kernel(args, train_set, form, normalization)
        params, history = training.train(train_set, kernel, mc, tc)
    elif which == "bpr-mf":
        # BPR-MF is the K = 0 model, with input width d; it needs no graph.
        d = _resolve(args, cfg, "d")
        params, history = baselines.fit_bpr_mf(train_set, d, tc, init_seed=seed)
        mc = model.ModelConfig(K=0, C=d)
    else:
        raise ValueError(f"unknown model: {which!r}")

    # Both files are replaced only once training has succeeded, each atomically.
    save_checkpoint(SpectralCheckpoint(params, mc, tc.rms_decay, tc.rms_epsilon), ckpt_path)
    with data.atomic_open(log_path, "w", encoding="utf-8") as fh:
        for epoch, loss in enumerate(history, start=1):
            fh.write(f"{epoch}\t{loss:.10f}\n")
    print(f"model\t{which}")
    print(f"epochs\t{len(history)}")
    print(f"final_loss\t{history[-1]:.10f}")
    print(f"checkpoint\t{ckpt_path}")
    print(f"loss_log\t{log_path}")
    return 0


# ---------------------------------------------------------------------------
# evaluate


def _scorer_from_checkpoint(ckpt: SpectralCheckpoint, train_set, args, form: str,
                            normalization: str) -> model.FactorTable:
    """The checkpoint's factors over ``train_set``: the one scorer type of
    ``evaluate`` and ``recommend``. At K = 0 no graph or kernel is built."""
    params = ckpt.params
    if (params.n_users, params.n_items) != (train_set.n_users, train_set.n_items):
        raise DimensionError(
            f"checkpoint is for {params.n_users} users x {params.n_items} items, "
            f"split has {train_set.n_users} x {train_set.n_items}"
        )
    kernel = _build_kernel(args, train_set, form, normalization) if ckpt.config.K else None
    return model.forward(params, kernel, ckpt.config)[0]


def cmd_evaluate(args) -> int:
    cfg = load_config_file(args.config) if args.config else {}
    kernel_options = _kernel_options(args, cfg)
    split = data.load_split(args.split_dir)
    ckpt = load_checkpoint(args.checkpoint)
    factors = _scorer_from_checkpoint(ckpt, split.train, args, *kernel_options)

    cutoffs = [int(tok) for tok in str(_resolve(args, cfg, "cutoffs")).split(",") if tok]
    denom = str(_resolve(args, cfg, "map_denom"))
    report = evaluation.evaluate(factors, split, cutoffs, map_denom=denom)

    out = _out_dir(args)
    out.mkdir(parents=True, exist_ok=True)
    report_path = _out_path(args, args.report)
    header = {
        "checkpoint": str(args.checkpoint),
        "split": str(args.split_dir),
        "map_denom": denom,
        "n_evaluable_users": report.n_evaluable_users,
        "n_skipped_users": report.n_skipped_users,
    }
    evaluation.save_report(report, report_path, header)

    print("cutoff\trecall\tmap")
    for m in cutoffs:
        print(f"{m}\t{report.recall_at[m]:.6f}\t{report.map_at[m]:.6f}")
    print(f"report\t{report_path}")
    return 0


# ---------------------------------------------------------------------------
# recommend


def cmd_recommend(args) -> int:
    cfg = load_config_file(args.config) if args.config else {}
    kernel_options = _kernel_options(args, cfg)
    train_set = data.load_train(args.split_dir)
    ckpt = load_checkpoint(args.checkpoint)
    factors = _scorer_from_checkpoint(ckpt, train_set, args, *kernel_options)

    try:
        u = train_set.user_ids.index(args.user)
    except ValueError:
        raise ValueError(f"unknown user id: {args.user!r}") from None

    scores = (factors.V_u[[u]] @ factors.V_i.T)[0]
    exclude = train_set.items_of(u) if args.exclude_seen else np.empty(0, dtype=np.int64)
    for i in model.top_m(scores, exclude, _resolve(args, cfg, "M")):
        print(f"{train_set.item_ids[i]}\t{scores[i]:.10f}")
    return 0


# ---------------------------------------------------------------------------
# spectral-embed


def cmd_spectral_embed(args) -> int:
    cfg = load_config_file(args.config) if args.config else {}
    if args.split_dir is not None:
        dataset = data.load_train(args.split_dir)
    elif args.input is not None:
        fmt = str(_resolve(args, cfg, "format")).replace("-", "_")
        with open(args.input, "rb") as fh:
            dataset = data.to_implicit(data.parse_interactions(fh, fmt))
    else:
        raise ValueError("one of --split-dir or --input is required")

    g = graph.build_graph(dataset)
    coords = graph.spectral_coordinates(g, _resolve(args, cfg, "k"),
                                        str(_resolve(args, cfg, "normalization")))

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

    def add_common(p):
        p.add_argument("--config", help="flat key=value config file")
        p.add_argument("--out-dir", help=f"output directory (env {OUT_DIR_ENV} overrides)")
        p.add_argument("--seed", type=int, help="RNG seed")

    p = sub.add_parser("split", help="ingest interactions and write a train/test split")
    add_common(p)
    p.add_argument("--input", required=True, help="raw interaction file")
    p.add_argument("--format", choices=["movielens-dat", "tsv"])
    p.add_argument("--protocol", choices=["standard", "cold-start"])
    p.add_argument("--fraction", type=float, help="train fraction for the standard protocol")
    p.add_argument("--p", type=int, help="train items per user for cold-start")
    p.add_argument("--min-interactions", type=int, dest="min_interactions",
                   help="drop users with fewer interactions before splitting")
    p.set_defaults(func=cmd_split)

    p = sub.add_parser("train", help="train a model on a saved split")
    add_common(p)
    p.add_argument("--split-dir", required=True, help="directory written by split")
    p.add_argument("--model", choices=["spectralcf", "bpr-mf"])
    p.add_argument("--kernel", choices=["closed-sparse", "dense-eig"])
    p.add_argument("--normalization",
                   choices=[graph.NORM_SYM, graph.NORM_RW])
    p.add_argument("-K", type=int, dest="K", help="number of propagation layers")
    p.add_argument("-C", type=int, dest="C", help="input factor width")
    p.add_argument("-F", type=int, dest="F", help="per-layer factor width")
    p.add_argument("--d", type=int, help="latent dimension of the bpr-mf baseline")
    p.add_argument("--reg", type=float, help="L2 regularization weight")
    p.add_argument("--batch-size", type=int, dest="batch_size")
    p.add_argument("--epochs", type=int)
    p.add_argument("--lr", type=float, help="learning rate")
    p.add_argument("--rms-decay", type=float, dest="rms_decay")
    p.add_argument("--rms-epsilon", type=float, dest="rms_epsilon")
    p.add_argument("--steps-per-epoch", type=int, dest="steps_per_epoch")
    p.add_argument("--reg-scope", dest="reg_scope",
                   choices=[training.REG_FULL, training.REG_BATCH_ROWS])
    p.add_argument("--checkpoint", default="model.spck", help="checkpoint file name")
    p.add_argument("--loss-log", default="loss.tsv", help="per-epoch loss file name")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("evaluate", help="score a checkpoint against held-out pairs")
    add_common(p)
    p.add_argument("--split-dir", required=True)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--kernel", choices=["closed-sparse", "dense-eig"])
    p.add_argument("--normalization", choices=[graph.NORM_SYM, graph.NORM_RW])
    p.add_argument("--cutoffs", help="comma-separated list of M values")
    p.add_argument("--map-denom", dest="map_denom",
                   choices=[evaluation.MAP_DENOM_TRUNCATED, evaluation.MAP_DENOM_RELEVANT])
    p.add_argument("--report", default="report.tsv", help="report file name")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("recommend", help="print top-M items for one user")
    add_common(p)
    p.add_argument("--split-dir", required=True)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--kernel", choices=["closed-sparse", "dense-eig"])
    p.add_argument("--normalization", choices=[graph.NORM_SYM, graph.NORM_RW])
    p.add_argument("--user", required=True, help="external user id")
    p.add_argument("-M", type=int, dest="M", help="list length")
    p.add_argument("--exclude-seen", type=_str2bool, default=True,
                   help="drop the user's training items from the list (default true)")
    p.set_defaults(func=cmd_recommend)

    p = sub.add_parser("spectral-embed", help="export low-frequency vertex coordinates")
    add_common(p)
    p.add_argument("--split-dir", help="use the train half of a saved split")
    p.add_argument("--input", help="raw interaction file (alternative to --split-dir)")
    p.add_argument("--format", choices=["movielens-dat", "tsv"])
    p.add_argument("--normalization", choices=[graph.NORM_SYM, graph.NORM_RW])
    p.add_argument("-k", type=int, dest="k", help="number of coordinates per vertex")
    p.add_argument("--output", default="coordinates.tsv", help="coordinates file name")
    p.set_defaults(func=cmd_spectral_embed)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (SpectralCFError, ValueError, TypeError, OSError) as exc:
        _print_err(str(exc))
        return 1


if __name__ == "__main__":
    sys.exit(main())
