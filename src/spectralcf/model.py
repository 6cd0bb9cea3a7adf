"""Model parameters, the layered spectral-convolution forward pass and ranking.

Layer k maps X_k to X_{k+1} = sigmoid(kernel @ X_k @ Theta_k) over the stacked
user/item vertex matrix; the final factors concatenate every layer's output
(including the raw input embeddings) column-wise. With K = 0 there is no
propagation and the factors are the input embeddings themselves: plain
matrix factorization (BPR-MF when trained with the pairwise loss).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, NumericError
from .graph import ConvKernel

SIGMOID_CLAMP = 500.0


def sigmoid(z: np.ndarray) -> np.ndarray:
    # Imported on first use: only a K > 0 forward pass needs scipy.special.
    # expit, not 1 / (1 + exp(-z)), which differs from it by a few ulp.
    from scipy.special import expit

    # Clamp keeps exp() finite; results are unchanged in the normal regime.
    return expit(np.clip(z, -SIGMOID_CLAMP, SIGMOID_CLAMP))


@dataclass(frozen=True)
class ModelConfig:
    """Layer count K, input embedding width C, filters per layer F."""

    K: int = 3
    C: int = 16
    F: int = 16
    seed: int = 0

    def __post_init__(self):
        if self.K < 0 or self.C < 1 or self.F < 1:
            raise ValueError(f"K must be >= 0, C and F >= 1 (got K={self.K}, C={self.C}, "
                             f"F={self.F})")

    @property
    def factor_width(self) -> int:
        return self.C + self.K * self.F

    def shapes(self, n_users: int, n_items: int) -> list[tuple[int, int]]:
        """Shapes of X_u0, X_i0 and the K filters: the first filter is C x F,
        every later one F x F."""
        return ([(n_users, self.C), (n_items, self.C)]
                + [(self.F if k else self.C, self.F) for k in range(self.K)])


@dataclass
class ModelParams:
    """Initial embeddings and per-layer filter matrices, shaped as
    :meth:`ModelConfig.shapes` says.

    Gradients and the RMSprop accumulators of the training module use this
    container too, shape for shape.
    """

    X_u0: np.ndarray
    X_i0: np.ndarray
    thetas: list[np.ndarray]

    @property
    def n_users(self) -> int:
        return self.X_u0.shape[0]

    @property
    def n_items(self) -> int:
        return self.X_i0.shape[0]

    def arrays(self) -> list[np.ndarray]:
        """X_u0, X_i0, then the filters: the order of ``ModelConfig.shapes``."""
        return [self.X_u0, self.X_i0, *self.thetas]

    @classmethod
    def from_arrays(cls, arrays) -> ModelParams:
        X_u0, X_i0, *thetas = arrays
        return cls(X_u0, X_i0, thetas)

    def validate_shapes(self, config: ModelConfig) -> None:
        expected = config.shapes(self.n_users, self.n_items)
        actual = [a.shape for a in self.arrays()]
        if actual != expected:
            raise DimensionError(f"expected parameter shapes {expected}, got {actual}")


@dataclass
class FactorTable:
    """Final latent factors; rows are users/items, width C + K*F."""

    V_u: np.ndarray
    V_i: np.ndarray


@dataclass
class LayerTrace:
    """Forward-pass intermediates needed by reverse-mode gradients.

    ``xs[k]`` is the layer-k activation (xs[0] is the raw stacked input);
    ``kxs[k]`` is the kernel product kernel @ xs[k] that feeds xs[k+1], and
    ``V`` the concatenation of every ``xs[k]`` (the factor rows, users then
    items), both kept so the backward pass need not recompute them.
    """

    xs: list[np.ndarray]
    kxs: list[np.ndarray]
    V: np.ndarray


def init_params(config: ModelConfig, n_users: int, n_items: int) -> ModelParams:
    """Draw every parameter i.i.d. from a Gaussian with mean 0.01, std 0.02.

    The draw order (user embeddings, item embeddings, filters layer by layer)
    is fixed so a seed pins the full parameter set.
    """
    rng = np.random.default_rng(config.seed)
    return ModelParams.from_arrays(
        [rng.normal(0.01, 0.02, size=s) for s in config.shapes(n_users, n_items)])


def forward(params: ModelParams, kernel: ConvKernel | None, config: ModelConfig):
    """Run the K-layer propagation; returns (FactorTable, LayerTrace).

    ``kernel`` is unused, and may be None, when K = 0.
    """
    params.validate_shapes(config)
    n_users = params.n_users
    X0 = np.vstack([params.X_u0, params.X_i0])
    if config.K and kernel.matrix.shape[0] != X0.shape[0]:
        raise DimensionError(
            f"kernel is {kernel.matrix.shape[0]}x{kernel.matrix.shape[1]} "
            f"but the model has {X0.shape[0]} vertices"
        )
    xs = [X0]
    kxs = []
    for k in range(config.K):
        KX = kernel.apply(xs[-1])
        with np.errstate(over="ignore", invalid="ignore"):  # the check below reports it
            Z = KX @ params.thetas[k]
        if not np.isfinite(Z).all():
            raise NumericError(f"non-finite pre-activation at layer {k + 1}")
        kxs.append(KX)
        xs.append(sigmoid(Z))
    V = np.hstack(xs)
    factors = FactorTable(V_u=V[:n_users], V_i=V[n_users:])
    return factors, LayerTrace(xs=xs, kxs=kxs, V=V)


def score(factors: FactorTable, u: int, i: int) -> float:
    """Inner product of a user's and an item's factor rows."""
    if not (0 <= u < factors.V_u.shape[0]):
        raise DimensionError(f"user index {u} out of range")
    if not (0 <= i < factors.V_i.shape[0]):
        raise DimensionError(f"item index {i} out of range")
    return float(factors.V_u[u] @ factors.V_i[i])


def check_list_length(M: int) -> None:
    if M < 1:
        raise ValueError("M must be >= 1")


def top_m_rows(scores: np.ndarray, exclude: np.ndarray, M: int) -> np.ndarray:
    """Row-wise top-M: for each row of ``scores`` (rows x items), the indices
    of its M highest scores, descending, ties by ascending index.

    ``exclude`` is a boolean mask of the same shape; masked items never
    appear. Returns a rows x min(M, items) array; a row with fewer candidates
    than that is padded with -1 at its end. Raises NumericError on any
    non-finite score, masked or not.
    """
    check_list_length(M)
    scores = np.asarray(scores, dtype=np.float64)
    if not np.isfinite(scores).all():
        r, i = np.argwhere(~np.isfinite(scores))[0]
        raise NumericError(f"non-finite score {scores[r, i]} at row {r}, item {i}")
    n_rows, n_items = scores.shape
    width = min(M, n_items)
    masked = np.where(exclude, -np.inf, scores)
    # Every candidate scoring at least the width-th largest value; ties at
    # that value can make a row hold more than width of them.
    kth = np.partition(masked, n_items - width, axis=1)[:, n_items - width]
    rows, cols = np.divmod(np.flatnonzero((masked >= kth[:, None]) & ~exclude), n_items)
    # Row-major order lists each row's columns ascending and lexsort is
    # stable, so ties keep ascending item index.
    order = np.lexsort((-masked[rows, cols], rows))
    rows, cols = rows[order], cols[order]
    counts = np.bincount(rows, minlength=n_rows)
    rank = np.arange(len(rows)) - (np.cumsum(counts) - counts)[rows]
    keep = rank < width
    ranked = np.full((n_rows, width), -1, dtype=np.int64)
    ranked[rows[keep], rank[keep]] = cols[keep]
    return ranked


def top_m(scores: np.ndarray, exclude, M: int) -> np.ndarray:
    """Indices of the M highest scores, descending, ties by ascending index.

    ``exclude`` is an array of item indices that never appear; fewer than M
    candidates yields a shorter list. One row of :func:`top_m_rows`.
    """
    mask = np.zeros((1, len(scores)), dtype=bool)
    mask[0, exclude] = True
    ranked = top_m_rows(np.asarray(scores)[None, :], mask, M)[0]
    return ranked[ranked >= 0]
