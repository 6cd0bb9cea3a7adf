"""Bipartite graph construction, Laplacian eigensystem and spectral filtering.

The vertex set stacks users first, items second. The graph is stored as one
operator, D^{-1/2} A D^{-1/2} = [[0, B], [B^T, 0]] with B = D_u^{-1/2} R
D_i^{-1/2}, and nothing normalizes it again. The eigenbasis is the
orthonormal eigensystem of the symmetric normalized Laplacian
I - D^{-1/2} A D^{-1/2}, which shares its spectrum with the random-walk
Laplacian I - D^{-1} A and makes the Fourier-transform identities exact. In
that basis U U^T = I, so the propagation kernel U U^T + U Lambda U^T is the
sparse closed form 2I - D^{-1/2} A D^{-1/2}, and the dense eigensystem is
needed only to certify that and to filter in the frequency domain. It is
computed when asked for and never stored. It comes from one SVD of the
n_u x n_i block B: a singular triple (sigma, p, q) pairs [p; q]/sqrt(2)
with eigenvalue 1 - sigma and [p; -q]/sqrt(2) with 1 + sigma, and the extra
singular vectors of the larger side, padded with zeros, have eigenvalue 1.
The dense (n_u + n_i)^2 Laplacian (``sym_laplacian_dense``) is built only
for tests and the acceptance gates.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .data import InteractionSet
from .errors import DegenerateInterpolationError, DimensionError, NumericError

KERNEL_DENSE_EIG = "dense_eig"
KERNEL_CLOSED_SPARSE = "closed_sparse"

_EIG_RESIDUAL_TOL = 1e-8
_TIE_TOL = 1e-9
_RESIDUAL_BLOCK = 256  # columns per step of the eigen-residual, to bound its scratch


@dataclass
class BipartiteGraph:
    """User-item bipartite graph: ``normalized`` is D^{-1/2} A D^{-1/2} (CSR)
    of the adjacency A = [[0, R], [R^T, 0]], D its diagonal degree matrix."""

    n_users: int
    n_items: int
    normalized: sp.csr_matrix

    @property
    def n_vertices(self) -> int:
        return self.n_users + self.n_items


@dataclass
class SpectralBasis:
    """Eigenvalues (ascending) and eigenvectors (one per column) of the Laplacian."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    @property
    def n_vertices(self) -> int:
        return len(self.eigenvalues)


@dataclass
class ConvKernel:
    """The layer propagation matrix, as a dense eigen-product or sparse closed form.

    Both forms are symmetric (the closed form exactly, the eigen-product to
    rounding), so ``apply`` also serves the backward pass.
    """

    matrix: object  # ndarray for dense_eig, csr_matrix for closed_sparse

    def apply(self, X: np.ndarray) -> np.ndarray:
        return self.matrix @ X


def build_graph(train: InteractionSet) -> BipartiteGraph:
    """The normalized adjacency of the training interactions.

    The CSR arrays of [[0, B], [B^T, 0]] are the rows of B, their columns
    shifted past the users, followed by the rows of B^T: three
    concatenations, with no sort, since both keep each row's columns
    ascending.
    """
    if not train.n_interactions():
        raise ValueError("training set is empty")
    degree = np.append(np.diff(train.indptr), np.bincount(train.indices, minlength=train.n_items))
    if (degree < 1).any():
        bad = int(np.argmin(degree))
        raise ValueError(f"isolated vertex at index {bad}; degrees must be >= 1")
    d_inv_sqrt = 1.0 / np.sqrt(degree.astype(np.float64))
    R = sp.csr_matrix((d_inv_sqrt[train.rows()] * d_inv_sqrt[train.n_users + train.indices],
                       train.indices, train.indptr), shape=(train.n_users, train.n_items))
    T = R.T.tocsr()
    n = train.n_users + train.n_items
    normalized = sp.csr_matrix(
        (np.concatenate([R.data, T.data]),
         np.concatenate([R.indices + train.n_users, T.indices]),
         np.concatenate([R.indptr, R.indptr[-1] + T.indptr[1:]])),
        shape=(n, n))
    return BipartiteGraph(train.n_users, train.n_items, normalized)


def sym_laplacian_dense(graph: BipartiteGraph) -> np.ndarray:
    """I - D^{-1/2} A D^{-1/2} as a dense array, symmetrized, built in one buffer."""
    L = graph.normalized.toarray()
    np.negative(L, out=L)
    L.flat[:: graph.n_vertices + 1] += 1.0
    L += L.T
    L *= 0.5
    return L


def _canonical_sign(vectors: np.ndarray) -> np.ndarray:
    """Each column negated when its first entry beyond +-1e-12 is negative."""
    big = (vectors > 1e-12) | (vectors < -1e-12)
    first = big.argmax(axis=0)
    cols = np.arange(vectors.shape[1])
    flip = big[first, cols] & (vectors[first, cols] < 0)
    return vectors * np.where(flip, -1.0, 1.0)


def _tie_break_degenerate(values: np.ndarray, vectors: np.ndarray) -> np.ndarray:
    """Order columns within eigenvalue ties lexicographically, so the basis is
    deterministic. The values keep their order, so they stay ascending; the
    caller's residual check certifies the re-pairing."""
    order = np.arange(len(values))
    breaks = np.flatnonzero(np.diff(values) > _TIE_TOL) + 1
    for start, stop in zip(np.r_[0, breaks], np.r_[breaks, len(values)]):
        if stop - start > 1:
            # lexsort's last key is its primary one: reverse the rows so row 0 leads.
            order[start:stop] = start + np.lexsort(vectors[::-1, start:stop])
    return vectors[:, order]


def _check_residual(residual: float) -> None:
    if residual > _EIG_RESIDUAL_TOL:
        raise NumericError(f"eigensolver residual {residual:.3e} exceeds {_EIG_RESIDUAL_TOL}")


def check_coordinate_count(k: int) -> None:
    """The lower bound on ``spectral_coordinates``'s k; the upper one needs the graph."""
    if k < 1:
        raise DimensionError(f"k={k} out of range: must be >= 1")


def _bipartite_eigensystem(A_norm: sp.csr_matrix, n_u: int):
    """Eigenpairs of I - A_norm from one SVD of its user-item block, laid out
    with eigenvalues ascending; ``eigendecompose`` gives the column pairing."""
    n = A_norm.shape[0]
    P, sigma, Qt = np.linalg.svd(A_norm[:n_u, n_u:].toarray(), full_matrices=True)
    r = len(sigma)
    half = np.sqrt(0.5)
    # sigma descends, so 1 - sigma ascends from the left, 1 + sigma (reversed)
    # ascends to the right, and the eigenvalue-1 columns sit in between.
    vectors = np.zeros((n, n))
    vectors[:n_u, :r] = P[:, :r] * half
    vectors[n_u:, :r] = Qt[:r].T * half
    vectors[:n_u, n - r :] = P[:, r - 1 :: -1] * half
    vectors[n_u:, n - r :] = Qt[r - 1 :: -1].T * -half
    vectors[:n_u, r:n_u] = P[:, r:]
    vectors[n_u:, n_u : n - r] = Qt[r:].T
    values = np.concatenate([1.0 - sigma, np.ones(n - 2 * r), 1.0 + sigma[::-1]])
    return values, vectors


def eigendecompose(graph: BipartiteGraph) -> SpectralBasis:
    """Full orthonormal eigensystem of I - D^{-1/2} A D^{-1/2}.

    The graph is bipartite, so L_sym = I - [[0, B], [B^T, 0]] with
    B = D_u^{-1/2} R D_i^{-1/2}, and its eigensystem comes from one SVD of
    the n_u x n_i block B: singular triple (sigma_j, p_j, q_j) gives
    eigenvalue 1 - sigma_j with [p_j; q_j]/sqrt(2) and 1 + sigma_j with
    [p_j; -q_j]/sqrt(2), and the remaining singular vectors of the larger
    side, padded with zeros, give eigenvalue 1. The dense n x n Laplacian
    is never built; the residual is checked through the sparse operator.

    Eigenvalues are ascending. Each column's first entry beyond +-1e-12 is
    made positive, then columns within a tie are ordered lexicographically. The
    residual of the final pairing above 1e-8 raises NumericError.
    """
    values, vectors = _bipartite_eigensystem(graph.normalized, graph.n_users)
    vectors = _canonical_sign(vectors)
    vectors = _tie_break_degenerate(values, vectors)
    residual = 0.0
    for start in range(0, len(values), _RESIDUAL_BLOCK):
        cols = slice(start, start + _RESIDUAL_BLOCK)
        block = vectors[:, cols]
        # L U - U Lambda = U (1 - Lambda) - normalized U, one column block at a time.
        scratch = block * (1.0 - values[cols]) - graph.normalized @ block
        residual = max(residual, np.abs(scratch).max())
    _check_residual(residual)
    return SpectralBasis(values, vectors)


def _check_signal(basis: SpectralBasis, signal: np.ndarray, name: str) -> np.ndarray:
    signal = np.asarray(signal, dtype=np.float64)
    if signal.shape != (basis.n_vertices,):
        raise DimensionError(
            f"{name} has shape {signal.shape}, expected ({basis.n_vertices},)"
        )
    return signal


def gft(basis: SpectralBasis, signal: np.ndarray) -> np.ndarray:
    """Forward graph Fourier transform of a vertex signal."""
    signal = _check_signal(basis, signal, "signal")
    return basis.eigenvectors.T @ signal


def igft(basis: SpectralBasis, spectrum: np.ndarray) -> np.ndarray:
    """Inverse graph Fourier transform of a spectral-domain signal."""
    spectrum = _check_signal(basis, spectrum, "spectrum")
    return basis.eigenvectors @ spectrum


def apply_diag_filter(basis: SpectralBasis, theta: np.ndarray, signal: np.ndarray) -> np.ndarray:
    """Filter a vertex signal with the diagonal spectral response theta_l * lambda_l."""
    theta = _check_signal(basis, theta, "theta")
    signal = _check_signal(basis, signal, "signal")
    return igft(basis, theta * basis.eigenvalues * gft(basis, signal))


def verify_polynomial_equivalence(basis: SpectralBasis, theta: np.ndarray):
    """Interpolate the diagonal filter response by a polynomial in the eigenvalues.

    Returns ``(coefficients, max_residual)`` where coefficients ``a_p``
    (length N, degree <= N-1) satisfy sum_p a_p lambda_l^p = theta_l * lambda_l
    for every l. Repeated eigenvalues are merged when their targets agree
    (reduced-degree solution) and rejected when they conflict.
    """
    theta = _check_signal(basis, theta, "theta")
    lam = basis.eigenvalues
    targets = theta * lam
    scale = max(1.0, np.abs(targets).max())

    uniq_lam: list[float] = []
    uniq_target: list[float] = []
    for l, t in zip(lam, targets):
        if uniq_lam and abs(l - uniq_lam[-1]) <= _TIE_TOL:
            if abs(t - uniq_target[-1]) > 1e-8 * scale:
                raise DegenerateInterpolationError(
                    f"eigenvalue {l:.6g} repeats with conflicting targets "
                    f"{uniq_target[-1]:.6g} vs {t:.6g}"
                )
            continue
        uniq_lam.append(float(l))
        uniq_target.append(float(t))

    m = len(uniq_lam)
    V = np.vander(np.array(uniq_lam), N=m, increasing=True)
    coeffs_m, *_ = np.linalg.lstsq(V, np.array(uniq_target), rcond=None)
    coeffs = np.zeros(basis.n_vertices)
    coeffs[:m] = coeffs_m
    residual = np.abs(np.vander(lam, N=m, increasing=True) @ coeffs_m - targets).max()
    return coeffs, float(residual)


def conv_kernel(graph: BipartiteGraph, basis: SpectralBasis | None, form: str) -> ConvKernel:
    """Build the propagation matrix U U^T + U diag(Lambda) U^T.

    ``dense_eig`` evaluates the eigen-products literally from the basis;
    ``closed_sparse`` uses the equivalent sparse closed form
    2I - D^{-1/2} A D^{-1/2}, equal to it because the basis is orthonormal
    (U U^T = I). The two agree to 1e-8 in Frobenius norm.
    """
    if form == KERNEL_DENSE_EIG:
        if basis is None:
            raise ValueError("dense_eig form requires a basis")
        U = basis.eigenvectors
        K = (U * (1.0 + basis.eigenvalues)) @ U.T
        return ConvKernel(K)
    if form == KERNEL_CLOSED_SPARSE:
        K = (2.0 * sp.identity(graph.n_vertices, format="csr") - graph.normalized).tocsr()
        return ConvKernel(K)
    raise ValueError(f"unknown kernel form: {form!r}")


def _top_pairs(block: sp.csr_matrix, count: int):
    """The ``count`` largest eigenpairs of a symmetric block, largest first.

    Blocks of up to max(64, 4 * count) vertices use dense ``eigh``; larger
    ones Lanczos from a seeded random start vector, so the output is
    deterministic. A constant start vector would not do: it is invariant
    under every automorphism of the graph, so its Krylov space misses each
    eigenvector that is antisymmetric under one (two equal chains hanging
    off the same vertex carry such a low frequency).
    """
    from scipy.sparse.linalg import ArpackNoConvergence, eigsh  # only spectral-embed needs it

    m = block.shape[0]
    if m <= max(64, 4 * count):
        mu, vectors = np.linalg.eigh(block.toarray())
        return mu[::-1][:count], vectors[:, ::-1][:, :count]
    v0 = np.random.default_rng(0).standard_normal(m)
    try:
        mu, vectors = eigsh(block, count, which="LA", tol=0, v0=v0)
    except ArpackNoConvergence as exc:
        raise NumericError(f"eigsh did not converge on a {m}-vertex component: {exc}") from exc
    return mu[::-1], vectors[:, ::-1]


def spectral_coordinates(graph: BipartiteGraph, k: int) -> np.ndarray:
    """Vertex coordinates from the k smallest nonzero Laplacian eigenvalues.

    Every connected component contributes one eigenvalue 0, whose eigenvector
    only marks the component, and the spectrum of the graph is the union of
    its components' spectra. So each component is solved on its own for the
    top k + 1 eigenpairs of its block of D^{-1/2} A D^{-1/2} (eigenvalue mu,
    Laplacian eigenvalue 1 - mu), its top pair (mu = 1) is dropped, and the k
    smallest Laplacian eigenvalues of the pool are kept, ties in component
    order. Memory is O(nk) plus the small dense blocks. Columns are unit
    eigenvectors of I - D^{-1/2} A D^{-1/2}, first entry beyond +-1e-12 positive.
    Residuals above 1e-8 raise NumericError.
    """
    from scipy.sparse.csgraph import connected_components  # only spectral-embed needs it

    check_coordinate_count(k)
    n = graph.n_vertices
    n_comp, label = connected_components(graph.normalized, directed=False)
    if k > n - n_comp:
        raise DimensionError(f"k={k} out of range [1, {n - n_comp}]")

    # Components as contiguous diagonal blocks, vertices ascending in each.
    order = np.argsort(label, kind="stable")
    bounds = np.searchsorted(label[order], np.arange(n_comp + 1))
    blocks = graph.normalized[order][:, order]
    pool = []  # (Laplacian eigenvalue, vertices, eigenvector), component by component
    for start, stop in zip(bounds[:-1], bounds[1:]):
        mu, U = _top_pairs(blocks[start:stop, start:stop], k + 1)
        pool += [(1.0 - mu[j], order[start:stop], U[:, j]) for j in range(1, len(mu))]
    chosen = sorted(pool, key=lambda pair: pair[0])[:k]  # stable: ties keep component order

    lam = np.array([value for value, _, _ in chosen])
    coords = np.zeros((n, k))
    for j, (_, vertices, u) in enumerate(chosen):
        coords[vertices, j] = u
    residual = coords - graph.normalized @ coords - coords * lam
    _check_residual(np.abs(residual).max())
    return _canonical_sign(coords)
