"""BPR matrix-factorization and popularity baselines.

Both score as a ``model.FactorTable``, like the spectral model, so evaluation
and recommendation have one scoring path. BPR-MF is the spectral model with
no propagation layers (K = 0, factors = input embeddings), trained by the
same loop: same batched triple sampler (``training.sample_batch``), pairwise
loss, gradients and RMSprop step, so identical seeds draw identical batches
for the two models.
"""

from __future__ import annotations

import numpy as np

from . import training
from .data import InteractionSet
from .model import FactorTable, ModelConfig, ModelParams


def popularity_scorer(train: InteractionSet) -> FactorTable:
    """Rank items by training interaction count, identically for every user:
    a one-column table whose scores are exactly 1.0 x count."""
    counts = np.bincount(train.indices, minlength=train.n_items).astype(np.float64)
    return FactorTable(V_u=np.ones((train.n_users, 1)), V_i=counts[:, None])


def fit_bpr_mf(train: InteractionSet, d: int, train_config: training.TrainConfig,
               init_seed: int = 0):
    """Optimize the pairwise loss on plain user/item embeddings of width d.

    This is :func:`training.train` at K = 0, so it shares the sampler, the
    loss, the gradients, the optimizer and the Gaussian(0.01, 0.02)
    initialization with the spectral model; returns (ModelParams with no
    filters, loss history).
    """
    return training.train(train, None, ModelConfig(K=0, C=d, seed=init_seed), train_config)


def bpr_mf_scorer(params: ModelParams) -> FactorTable:
    """The K = 0 factors: the input embeddings themselves."""
    return FactorTable(V_u=params.X_u0, V_i=params.X_i0)
