"""ItemKNN, BPR matrix-factorization and popularity baselines.

All share the evaluation module. BPR-MF is the spectral model with no
propagation layers (K = 0, factors = input embeddings), trained by the same
loop: same batched triple sampler (``training.sample_batch``), pairwise loss,
gradients and RMSprop step, so identical seeds draw identical batches for the
two models.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from . import training
from .data import InteractionSet
from .model import ModelConfig


@dataclass
class ItemKnnModel:
    """Cosine similarity over item interaction-indicator columns.

    ``similarity`` is the full symmetric matrix (diagonal zeroed);
    ``neighbor_sim`` keeps only each row's top-k entries and is what scoring
    uses.
    """

    similarity: sp.csr_matrix
    neighbor_sim: sp.csr_matrix
    k_neighbors: int


@dataclass
class BprMfModel:
    P_u: np.ndarray
    Q_i: np.ndarray

    @property
    def d(self) -> int:
        return self.P_u.shape[1]


def fit_itemknn(train: InteractionSet, k_neighbors: int = 50) -> ItemKnnModel:
    """Cosine item-item similarity with per-item top-k neighbor retention."""
    if k_neighbors < 1:
        raise ValueError("k_neighbors must be >= 1")
    R = train.to_csr()
    co = (R.T @ R).toarray()
    norms = np.sqrt(np.diag(co))
    sim = co / np.outer(norms, norms)
    np.fill_diagonal(sim, 0.0)

    topk = np.zeros_like(sim)
    k = min(k_neighbors, train.n_items - 1)
    for i in range(train.n_items):
        row = sim[i]
        # Highest similarity first, ties by ascending item index.
        order = np.lexsort((np.arange(len(row)), -row))[:k]
        keep = order[row[order] > 0.0]
        topk[i, keep] = row[keep]
    return ItemKnnModel(
        similarity=sp.csr_matrix(sim),
        neighbor_sim=sp.csr_matrix(topk),
        k_neighbors=k_neighbors,
    )


def score_itemknn(model: ItemKnnModel, train: InteractionSet, u: int, i: int) -> float:
    """Sum of similarities between item i's retained neighbors and the user's items."""
    positives = train.items_of(u)
    row = np.asarray(model.neighbor_sim.getrow(i).todense()).ravel()
    return float(row[positives].sum())


def itemknn_scorer(model: ItemKnnModel, train: InteractionSet):
    """Per-user score vectors for the evaluation module."""
    R = train.to_csr()

    def scorer(u: int) -> np.ndarray:
        indicator = np.asarray(R.getrow(u).todense()).ravel()
        return model.neighbor_sim @ indicator

    return scorer


def popularity_scorer(train: InteractionSet):
    """Rank items by training interaction count, identically for every user."""
    counts = np.bincount(train.indices, minlength=train.n_items).astype(np.float64)

    def scorer(u: int) -> np.ndarray:
        return counts

    return scorer


def fit_bpr_mf(train: InteractionSet, d: int, train_config: training.TrainConfig,
               init_seed: int = 0):
    """Optimize the pairwise loss on plain user/item embeddings of width d.

    This is :func:`training.train` at K = 0, so it shares the sampler, the
    loss, the gradients, the optimizer and the Gaussian(0.01, 0.02)
    initialization with the spectral model; returns (model, loss history).
    """
    if d < 1:
        raise ValueError("d must be >= 1")
    params, history = training.train(train, None, ModelConfig(K=0, C=d, seed=init_seed),
                                     train_config)
    return BprMfModel(params.X_u0, params.X_i0), history


def bpr_mf_scorer(model: BprMfModel):
    def scorer(u: int) -> np.ndarray:
        return model.Q_i @ model.P_u[u]

    return scorer
