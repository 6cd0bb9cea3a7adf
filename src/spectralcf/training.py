"""Pairwise-ranking training: triple sampling, loss, gradients and RMSprop.

Gradients are exact reverse-mode derivatives of the batch loss through the
layered forward pass, the column-wise concatenation into the factor tables
and the regularizer; no autodiff framework is involved. 64-bit floats
throughout so finite-difference checks stay reliable.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
import scipy.sparse as sp

from .errors import NumericError
from .data import InteractionSet
from .graph import ConvKernel
from .model import FactorTable, LayerTrace, ModelConfig, ModelParams, forward, init_params

REG_FULL = "full"
REG_BATCH_ROWS = "batch_rows"


class Batch(NamedTuple):
    """Triples as parallel index arrays: user ``r[t]`` with an interacted item
    ``j[t]`` and a non-interacted item ``j_neg[t]``."""

    r: np.ndarray
    j: np.ndarray
    j_neg: np.ndarray


@dataclass(frozen=True)
class TrainConfig:
    batch_size: int = 1024
    epochs: int = 200
    learning_rate: float = 0.001
    reg: float = 0.001
    rms_decay: float = 0.9
    rms_epsilon: float = 1e-8
    seed: int = 0
    reg_scope: str = REG_FULL

    def __post_init__(self):
        if self.batch_size < 1 or self.epochs < 1:
            raise ValueError("epochs and batch_size must be >= 1")
        # Written so that NaN fails every range test.
        for name in ("learning_rate", "rms_epsilon"):
            value = getattr(self, name)
            if not 0 < value < math.inf:
                raise ValueError(f"{name} must be positive and finite (got {value})")
        if not (0.0 < self.rms_decay < 1.0):
            raise ValueError("rms_decay must lie in (0, 1)")
        if not 0 <= self.reg < math.inf:
            raise ValueError(f"reg must be >= 0 and finite (got {self.reg})")
        if self.reg_scope not in (REG_FULL, REG_BATCH_ROWS):
            raise ValueError(f"unknown reg_scope: {self.reg_scope!r}")


def init_opt_state(params: ModelParams) -> ModelParams:
    """RMSprop's running mean-square accumulators: zeros shaped like ``params``."""
    return ModelParams.from_arrays([np.zeros_like(a) for a in params.arrays()])


def eligible_users(train: InteractionSet) -> np.ndarray:
    """Users with a negative item to draw, ascending.

    Users who interacted with every item have no negatives and are excluded
    (with a warning); having none left is an error.
    """
    eligible = np.flatnonzero(np.diff(train.indptr) < train.n_items)
    if not len(eligible):
        raise ValueError("no user has a negative item to sample")
    if len(eligible) < train.n_users:
        warnings.warn(
            f"{train.n_users - len(eligible)} user(s) interact with every item; "
            "excluded from triple sampling",
            stacklevel=3,
        )
    return eligible


def pair_keys(train: InteractionSet) -> np.ndarray:
    """``u * n_items + i`` for every interaction, ascending: rows are ascending
    and each row's items are sorted, so the CSR order is already key order."""
    return train.rows() * train.n_items + train.indices


def sample_batch(train: InteractionSet, batch_size: int, rng: np.random.Generator,
                 eligible: np.ndarray | None = None,
                 keys: np.ndarray | None = None) -> Batch:
    """Draw ``batch_size`` triples with array operations.

    Users are uniform over ``eligible`` (default :func:`eligible_users`) and
    positives uniform over each user's items. Negatives are uniform over the
    user's complement by rejection in rounds: every round looks the slots'
    keys up in ``keys`` (default :func:`pair_keys`) and redraws only the
    slots that hit an interaction. Draw order: all users, all positives, then
    the negatives round by round.
    """
    if eligible is None:
        eligible = eligible_users(train)
    if keys is None:
        keys = pair_keys(train)
    n_items = train.n_items
    r = eligible[rng.integers(len(eligible), size=batch_size)]
    start = train.indptr[r]
    j = train.indices[start + rng.integers(train.indptr[r + 1] - start)]
    j_neg = rng.integers(n_items, size=batch_size)
    todo = np.arange(batch_size)
    while len(todo):
        cand = r[todo] * n_items + j_neg[todo]
        pos = np.minimum(np.searchsorted(keys, cand), len(keys) - 1)
        todo = todo[keys[pos] == cand]
        j_neg[todo] = rng.integers(n_items, size=len(todo))
    return Batch(r, j, j_neg)


def _reg_rows(r, j, jn, scope):
    """Rows of V_u / V_i the regularizer covers: every row, or the batch's."""
    if scope == REG_FULL:
        return slice(None), slice(None)
    return np.unique(r), np.unique(np.concatenate([j, jn]))


def _pair_terms(factors: FactorTable, batch: Batch) -> tuple[np.ndarray, np.ndarray]:
    """``V_i[j] - V_i[j_neg]`` and ``diff = score(r, j) - score(r, j_neg)`` of
    every triple: the terms :func:`bpr_loss` and :func:`backward` share, which
    the training loop works out once per step."""
    r, j, jn = batch
    item_diff = factors.V_i[j] - factors.V_i[jn]
    return item_diff, np.einsum("ij,ij->i", factors.V_u[r], item_diff)


def bpr_loss(factors: FactorTable, batch: Batch, reg: float,
             reg_scope: str = REG_FULL, *, terms=None) -> float:
    """Sum over triples of -ln sigmoid(score(r,j) - score(r,j_neg)), plus the
    squared-Frobenius regularizer over the factor tables (applied once per
    batch, not divided by the batch size). ``terms`` is
    :func:`_pair_terms` of the same factors and batch, when already known."""
    r, j, jn = batch
    if not len(r):
        raise ValueError("batch is empty")
    _, diff = _pair_terms(factors, batch) if terms is None else terms
    with np.errstate(over="ignore", invalid="ignore"):  # the check below reports it
        loss = np.logaddexp(0.0, -diff).sum()
        if reg != 0.0:
            ur, ir = _reg_rows(r, j, jn, reg_scope)
            loss += reg * ((factors.V_u[ur] ** 2).sum() + (factors.V_i[ir] ** 2).sum())
    if not np.isfinite(loss):
        raise NumericError("loss is not finite")
    return float(loss)


def backward(params: ModelParams, kernel: ConvKernel | None, config: ModelConfig,
             batch: Batch, reg: float, trace: LayerTrace,
             reg_scope: str = REG_FULL, *, terms=None) -> ModelParams:
    """Exact gradients of :func:`bpr_loss` w.r.t. every parameter array.

    Needs the LayerTrace of the paired forward call, and takes the loss's
    ``terms`` when it has them; returns gradients in a ModelParams container
    with matching shapes. The kernel is symmetric in every form, so it
    propagates gradients back unchanged.
    """
    if trace is None:
        raise ValueError("backward requires the LayerTrace of the paired forward call")
    n_users = params.n_users
    V = trace.V
    V_u, V_i = V[:n_users], V[n_users:]
    r, j, jn = batch
    if terms is None:
        terms = _pair_terms(FactorTable(V_u=V_u, V_i=V_i), batch)
    item_diff, diff = terms

    # d/d(diff) of softplus(-diff)
    g = -_stable_sigmoid_neg(diff)

    g_u = g[:, None] * V_u[r]
    G_V = scatter_add(len(V), np.concatenate([r, n_users + j, n_users + jn]),
                      np.vstack([g[:, None] * item_diff, g_u, -g_u]))
    if reg != 0.0:
        ur, ir = _reg_rows(r, j, jn, reg_scope)
        G_V[:n_users][ur] += 2.0 * reg * V_u[ur]
        G_V[n_users:][ir] += 2.0 * reg * V_i[ir]

    # Split the concatenation back into per-layer blocks.
    widths = [x.shape[1] for x in trace.xs]
    offsets = np.concatenate([[0], np.cumsum(widths)])
    blocks = [G_V[:, offsets[k]:offsets[k + 1]] for k in range(len(widths))]

    grad_thetas: list[np.ndarray | None] = [None] * config.K
    accum = blocks[config.K]
    for k in range(config.K, 0, -1):
        Xk = trace.xs[k]
        dZ = accum * Xk * (1.0 - Xk)
        grad_thetas[k - 1] = trace.kxs[k - 1].T @ dZ
        accum = blocks[k - 1] + kernel.apply(dZ @ params.thetas[k - 1].T)

    return ModelParams(X_u0=accum[:n_users], X_i0=accum[n_users:], thetas=grad_thetas)


def scatter_add(n_rows: int, rows: np.ndarray, values: np.ndarray) -> np.ndarray:
    """``out[rows[t]] += values[t]`` into zeros(n_rows, width), in order of t.

    One product with a CSC incidence matrix holding a single 1.0 per column
    (column t at row ``rows[t]``): the product visits the columns in order,
    so every row sums its values in the sequence ``np.add.at`` would, bit
    for bit, at a fraction of its cost.
    """
    incidence = sp.csc_matrix(
        (np.ones(len(rows)), rows, np.arange(len(rows) + 1)), shape=(n_rows, len(rows)))
    return incidence @ values


def _stable_sigmoid_neg(diff: np.ndarray) -> np.ndarray:
    # sigmoid(-diff) without overflow for large |diff|
    out = np.empty_like(diff)
    pos = diff >= 0
    out[pos] = np.exp(-diff[pos]) / (1.0 + np.exp(-diff[pos]))
    out[~pos] = 1.0 / (1.0 + np.exp(diff[~pos]))
    return out


def rmsprop_step(params: ModelParams, grads: ModelParams, opt: ModelParams,
                 learning_rate: float, decay: float, epsilon: float):
    """One RMSprop update; returns (new params, new accumulators)."""
    new_params, new_opt = [], []
    for p, g, acc in zip(params.arrays(), grads.arrays(), opt.arrays()):
        acc = decay * acc + (1.0 - decay) * g * g
        new_params.append(p - learning_rate * g / np.sqrt(acc + epsilon))
        new_opt.append(acc)
    return ModelParams.from_arrays(new_params), ModelParams.from_arrays(new_opt)


def train(train_set: InteractionSet, kernel: ConvKernel | None, model_config: ModelConfig,
          train_config: TrainConfig):
    """Full training loop; returns (final params, per-epoch loss history).

    ``kernel`` may be None when ``model_config.K`` is 0 (BPR-MF).

    Each epoch draws one batch and applies one RMSprop update, so the
    history holds one loss per step. Deterministic for fixed seeds. The
    sampler's eligible users (and the warning about users who interact with
    every item) and its sorted interaction keys are worked out once per run.
    Numeric failures abort with the epoch number and the last finite loss.
    """
    rng = np.random.default_rng(train_config.seed)
    eligible = eligible_users(train_set)
    keys = pair_keys(train_set)
    params = init_params(model_config, train_set.n_users, train_set.n_items)
    opt = init_opt_state(params)
    history: list[float] = []
    for epoch in range(1, train_config.epochs + 1):
        try:
            batch = sample_batch(train_set, train_config.batch_size, rng, eligible, keys)
            factors, trace = forward(params, kernel, model_config)
            terms = _pair_terms(factors, batch)
            loss = bpr_loss(factors, batch, train_config.reg, train_config.reg_scope,
                            terms=terms)
            grads = backward(params, kernel, model_config, batch, train_config.reg, trace,
                             train_config.reg_scope, terms=terms)
            params, opt = rmsprop_step(params, grads, opt, train_config.learning_rate,
                                       train_config.rms_decay, train_config.rms_epsilon)
        except NumericError as exc:
            last_finite = history[-1] if history else float("nan")
            raise NumericError(
                f"training aborted at epoch {epoch}: {exc}; last finite loss {last_finite}"
            ) from exc
        history.append(loss)
    return params, history
