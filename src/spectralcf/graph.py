"""Bipartite graph construction, Laplacian eigensystem and spectral filtering.

The vertex set stacks users first, items second. The default eigenbasis is
the orthonormal eigensystem of the symmetric normalized Laplacian
I - D^{-1/2} A D^{-1/2}, which shares its spectrum with the random-walk
Laplacian I - D^{-1} A and makes the Fourier-transform identities exact.
Eigenvectors of the random-walk Laplacian itself are available behind the
``rw_raw`` normalization tag for fidelity experiments (inverse via solve).
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import scipy.sparse as sp

from .data import InteractionSet, atomic_open
from .errors import DegenerateInterpolationError, DimensionError, NumericError

NORM_SYM = "sym_orthonormal"
NORM_RW = "rw_raw"

KERNEL_DENSE_EIG = "dense_eig"
KERNEL_CLOSED_SPARSE = "closed_sparse"

_EIG_RESIDUAL_TOL = 1e-8
_TIE_TOL = 1e-9
_ZERO_TOL = 1e-8  # eigenvalues below it count as zero (one per component)

_CACHE_MAGIC = b"SPCF"
_CACHE_VERSION = 1
_NORM_TAGS = {NORM_SYM: 0, NORM_RW: 1}
_TAGS_NORM = {v: k for k, v in _NORM_TAGS.items()}


@dataclass
class BipartiteGraph:
    """User-item bipartite graph with adjacency [[0, R], [R^T, 0]]."""

    n_users: int
    n_items: int
    adjacency: sp.csr_matrix
    degree: np.ndarray

    @property
    def n_vertices(self) -> int:
        return self.n_users + self.n_items


@dataclass
class SpectralBasis:
    """Eigenvalues (ascending) and eigenvectors (one per column) of the Laplacian."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    normalization: str

    @property
    def n_vertices(self) -> int:
        return len(self.eigenvalues)


@dataclass
class ConvKernel:
    """The layer propagation matrix, as a dense eigen-product or sparse closed form.

    Both forms are symmetric (the closed form exactly, the eigen-product to
    rounding), so ``apply`` also serves the backward pass.
    """

    form: str
    matrix: object  # ndarray for dense_eig, csr_matrix for closed_sparse

    def apply(self, X: np.ndarray) -> np.ndarray:
        return self.matrix @ X


def build_graph(train: InteractionSet) -> BipartiteGraph:
    """Assemble the adjacency and degree vector from training interactions."""
    if not train.n_interactions():
        raise ValueError("training set is empty")
    R = train.to_csr()
    A = sp.bmat([[None, R], [R.T, None]], format="csr")
    degree = np.asarray(A.sum(axis=1)).ravel().astype(np.int64)
    if (degree < 1).any():
        bad = int(np.argmin(degree))
        raise ValueError(f"isolated vertex at index {bad}; degrees must be >= 1")
    return BipartiteGraph(train.n_users, train.n_items, A, degree)


def _sym_normalized_adjacency(graph: BipartiteGraph) -> sp.csr_matrix:
    d_inv_sqrt = 1.0 / np.sqrt(graph.degree.astype(np.float64))
    D = sp.diags(d_inv_sqrt)
    return (D @ graph.adjacency @ D).tocsr()


def sym_laplacian_dense(graph: BipartiteGraph) -> np.ndarray:
    A_norm = _sym_normalized_adjacency(graph).toarray()
    L = np.eye(graph.n_vertices) - A_norm
    return (L + L.T) / 2.0


def _canonical_sign(vectors: np.ndarray) -> np.ndarray:
    out = vectors.copy()
    for c in range(out.shape[1]):
        col = out[:, c]
        nz = np.nonzero(np.abs(col) > 1e-12)[0]
        if len(nz) and col[nz[0]] < 0:
            out[:, c] = -col
    return out


def _tie_break_degenerate(values: np.ndarray, vectors: np.ndarray):
    """Order columns within eigenvalue ties lexicographically (deterministic caching)."""
    order = list(range(len(values)))
    start = 0
    while start < len(values):
        stop = start + 1
        while stop < len(values) and values[stop] - values[stop - 1] <= _TIE_TOL:
            stop += 1
        if stop - start > 1:
            group = sorted(order[start:stop], key=lambda c: tuple(vectors[:, c]))
            order[start:stop] = group
        start = stop
    order = np.array(order)
    return values[order], vectors[:, order]


def eigendecompose(graph: BipartiteGraph, normalization: str = NORM_SYM) -> SpectralBasis:
    """Full eigensystem of the normalized Laplacian.

    The sym_orthonormal basis diagonalizes I - D^{-1/2} A D^{-1/2} with an
    orthonormal eigenbasis; rw_raw rescales it to eigenvectors of
    I - D^{-1} A (unit 2-norm columns, no orthogonality). Eigenvalues are
    identical in the two cases and sorted ascending, ties broken by column
    lexicographic order after making each column's first nonzero entry
    positive. Residuals above 1e-8 raise NumericError.
    """
    L = sym_laplacian_dense(graph)
    values, vectors = np.linalg.eigh(L)
    residual = np.abs(L @ vectors - vectors * values[None, :]).max()
    if residual > _EIG_RESIDUAL_TOL:
        raise NumericError(f"eigensolver residual {residual:.3e} exceeds {_EIG_RESIDUAL_TOL}")
    if normalization == NORM_SYM:
        vectors = _canonical_sign(vectors)
        values, vectors = _tie_break_degenerate(values, vectors)
        return SpectralBasis(values, vectors, NORM_SYM)
    if normalization == NORM_RW:
        # L_rw = D^{-1/2} L_sym D^{1/2}: same spectrum, rescaled eigenvectors.
        d_inv_sqrt = 1.0 / np.sqrt(graph.degree.astype(np.float64))
        vectors = d_inv_sqrt[:, None] * vectors
        vectors = vectors / np.linalg.norm(vectors, axis=0, keepdims=True)
        vectors = _canonical_sign(vectors)
        values, vectors = _tie_break_degenerate(values, vectors)
        return SpectralBasis(values, vectors, NORM_RW)
    raise ValueError(f"unknown normalization: {normalization!r}")


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
    if basis.normalization == NORM_SYM:
        return basis.eigenvectors.T @ signal
    return np.linalg.solve(basis.eigenvectors, signal)


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
    2I - D^{-1/2} A D^{-1/2}, valid only for the sym_orthonormal basis
    (where U U^T = I). The two agree to 1e-8 in Frobenius norm.
    """
    if form == KERNEL_DENSE_EIG:
        if basis is None:
            raise ValueError("dense_eig form requires a basis")
        U = basis.eigenvectors
        K = U @ U.T + (U * basis.eigenvalues[None, :]) @ U.T
        return ConvKernel(KERNEL_DENSE_EIG, K)
    if form == KERNEL_CLOSED_SPARSE:
        if basis is not None and basis.normalization != NORM_SYM:
            raise ValueError("closed_sparse kernel is only valid for the sym_orthonormal basis")
        A_norm = _sym_normalized_adjacency(graph)
        K = (2.0 * sp.identity(graph.n_vertices, format="csr") - A_norm).tocsr()
        return ConvKernel(KERNEL_CLOSED_SPARSE, K)
    raise ValueError(f"unknown kernel form: {form!r}")


def spectral_coordinates(basis: SpectralBasis, k: int) -> np.ndarray:
    """Vertex coordinates from the k eigenvectors after the zero-eigenvalue ones.

    The zero eigenvalue repeats once per connected component and its
    eigenvectors only indicate components, so all of them are skipped.
    """
    n_zero = int((basis.eigenvalues < _ZERO_TOL).sum())
    if not (1 <= k <= basis.n_vertices - n_zero):
        raise DimensionError(f"k={k} out of range [1, {basis.n_vertices - n_zero}]")
    return basis.eigenvectors[:, n_zero : n_zero + k].copy()


def save_basis(basis: SpectralBasis, path) -> None:
    """Write the eigensystem cache: SPCF header, then values and row-major vectors."""
    n = basis.n_vertices
    with atomic_open(path, "wb") as fh:
        fh.write(_CACHE_MAGIC)
        fh.write(struct.pack("<IQB", _CACHE_VERSION, n, _NORM_TAGS[basis.normalization]))
        fh.write(np.ascontiguousarray(basis.eigenvalues, dtype="<f8").tobytes())
        fh.write(np.ascontiguousarray(basis.eigenvectors, dtype="<f8").tobytes())


def load_basis(path) -> SpectralBasis:
    path = Path(path)
    with open(path, "rb") as fh:
        magic = fh.read(4)
        if magic != _CACHE_MAGIC:
            raise ValueError(f"{path}: not a basis cache file")
        version, n, tag = struct.unpack("<IQB", fh.read(13))
        if version != _CACHE_VERSION:
            raise ValueError(f"{path}: unsupported cache version {version}")
        if tag not in _TAGS_NORM:
            raise ValueError(f"{path}: unknown normalization tag {tag}")
        values = np.frombuffer(fh.read(8 * n), dtype="<f8").copy()
        vectors = np.frombuffer(fh.read(8 * n * n), dtype="<f8").copy().reshape(n, n)
        if len(values) != n or vectors.size != n * n:
            raise ValueError(f"{path}: truncated cache file")
    return SpectralBasis(values, vectors, _TAGS_NORM[tag])
