"""Checks of each pipeline stage against computations made apart from the program.

Nothing here imports ``spectralcf``. The references are the generator's pairs,
the split protocols as documented, and a NumPy/SciPy forward pass, ranking and
metric written from the method's definition. Every check raises
``CheckFailed`` with a reason.
"""

from __future__ import annotations

import struct

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import connected_components
from scipy.sparse.linalg import eigsh
from scipy.special import expit


class CheckFailed(Exception):
    pass


class TrivialEmbedding(CheckFailed):
    """spectral-embed exported eigenvectors of eigenvalue 0 of a disconnected graph."""


def _require(cond, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


def read_pairs(path) -> np.ndarray:
    """``user<TAB>item`` lines of integer ids -> (n, 2) int array, file order."""
    with open(path, encoding="utf-8") as fh:
        tokens = fh.read().split()
    return np.array(tokens, dtype=np.int64).reshape(-1, 2)


def read_meta(path) -> dict:
    with open(path, encoding="utf-8") as fh:
        return dict(line.strip().split("=", 1) for line in fh if "=" in line)


def _keys(pairs: np.ndarray) -> np.ndarray:
    return pairs[:, 0] * (1 << 32) + pairs[:, 1]


def check_split(train: np.ndarray, test: np.ndarray, meta: dict, pairs: np.ndarray,
                protocol: str, param: float) -> None:
    """train and test partition the generator's pairs; per-user train counts
    follow the protocol, with the documented promotions as the only excess."""
    train_keys, test_keys = _keys(train), _keys(test)
    _require(len(np.unique(train_keys)) == len(train_keys), "duplicate pair in train.tsv")
    _require(len(np.unique(test_keys)) == len(test_keys), "duplicate pair in test.tsv")
    _require(not np.isin(train_keys, test_keys).any(), "train and test share a pair")
    union = np.sort(np.concatenate([train_keys, test_keys]))
    _require(np.array_equal(union, np.sort(_keys(pairs))),
             "train + test differ from the generated pairs")
    _require(np.array_equal(np.unique(train[:, 1]), np.unique(pairs[:, 1])),
             "an item has no training interaction")

    users, n_u = np.unique(pairs[:, 0], return_counts=True)
    if protocol == "standard":
        expected = np.maximum(1, np.floor(param * n_u).astype(np.int64))
    else:
        expected = np.full(len(users), int(param))
    got = np.zeros(len(users), dtype=np.int64)
    np.add.at(got, np.searchsorted(users, train[:, 0]), 1)
    excess = got - expected
    _require((excess >= 0).all(), "a user has fewer training items than the protocol keeps")
    _require(int(excess.sum()) == int(meta["n_rescued"]),
             f"{int(excess.sum())} extra training items but n_rescued={meta['n_rescued']}")
    _require(int(meta["n_train"]) == len(train) and int(meta["n_test"]) == len(test),
             "split.meta counts disagree with the files")


def check_loss(path) -> None:
    """Finite, and the last quarter of epochs averages below the first."""
    loss = np.loadtxt(path, ndmin=2)[:, 1]
    _require(np.isfinite(loss).all(), f"{path}: non-finite loss")
    q = max(1, len(loss) // 4)
    _require(loss[-q:].mean() < loss[:q].mean(), f"{path}: loss did not decrease")


def read_spectral_checkpoint(path):
    """Parameters of a version-1 spectral checkpoint, from its documented layout:
    "SPCK", u32 version, u8 type 0, u32 K, C, F, u64 users, items, f64 decay,
    epsilon, then X_u0, X_i0 and the filters, row-major little-endian f64."""
    with open(path, "rb") as fh:
        blob = fh.read()
    _require(blob[:4] == b"SPCK", f"{path}: bad magic")
    version, tag = struct.unpack_from("<IB", blob, 4)
    _require(version == 1 and tag == 0, f"{path}: not a v1 spectral checkpoint")
    K, C, F, n_users, n_items, _, _ = struct.unpack_from("<IIIQQdd", blob, 9)
    shapes = [(n_users, C), (n_items, C), (C, F)] + [(F, F)] * (K - 1)
    offset, arrays = 9 + 44, []
    for shape in shapes:
        count = shape[0] * shape[1]
        arrays.append(np.frombuffer(blob, "<f8", count, offset).reshape(shape))
        offset += 8 * count
    _require(offset == len(blob), f"{path}: size does not match its header")
    return arrays[0], arrays[1], arrays[2:]


class Reference:
    """The model's factors recomputed from train.tsv and a checkpoint.

    The index space is the documented one: users, then items, in order of
    first appearance in train.tsv. The kernel is the closed form
    2I - D^-1/2 A D^-1/2 of U U^T + U diag(lambda) U^T.
    """

    def __init__(self, train: np.ndarray, checkpoint):
        self.user_ids, u = _first_appearance(train[:, 0])
        self.item_ids, i = _first_appearance(train[:, 1])
        self.n_users, self.n_items = len(self.user_ids), len(self.item_ids)
        n = self.n_users + self.n_items
        R = sp.csr_matrix((np.ones(len(train)), (u, i)), shape=(self.n_users, self.n_items))
        A = sp.bmat([[None, R], [R.T, None]], format="csr")
        d = 1.0 / np.sqrt(np.asarray(A.sum(axis=1)).ravel())
        self.A_norm = (sp.diags(d) @ A @ sp.diags(d)).tocsr()
        self.seen = R
        self.user_index = dict(zip(self.user_ids.tolist(), range(self.n_users)))
        self.item_index = dict(zip(self.item_ids.tolist(), range(self.n_items)))
        self.vertex_index = {("user", ext): k for ext, k in self.user_index.items()}
        self.vertex_index.update(
            {("item", ext): self.n_users + k for ext, k in self.item_index.items()})
        X_u0, X_i0, thetas = read_spectral_checkpoint(checkpoint)
        _require(X_u0.shape[0] == self.n_users and X_i0.shape[0] == self.n_items,
                 "checkpoint shape disagrees with train.tsv")
        kernel = 2.0 * sp.identity(n, format="csr") - self.A_norm
        xs = [np.vstack([X_u0, X_i0])]
        for theta in thetas:
            xs.append(expit(kernel @ xs[-1] @ theta))
        V = np.hstack(xs)
        self.V_u, self.V_i = V[: self.n_users], V[self.n_users:]

    def scores(self, users: np.ndarray) -> np.ndarray:
        """Scores over all items, training items set to -inf."""
        s = self.V_u[users] @ self.V_i.T
        s[self.seen[users].nonzero()] = -np.inf
        return s


def _first_appearance(ids: np.ndarray):
    uniq, first, inverse = np.unique(ids, return_index=True, return_inverse=True)
    order = np.argsort(first)
    rank = np.empty(len(uniq), dtype=np.int64)
    rank[order] = np.arange(len(uniq))
    return uniq[order], rank[inverse]


def reference_metrics(ref: Reference, test: np.ndarray, cutoffs):
    """Recall@M and truncated MAP@M averaged over users with test items."""
    users = np.array([ref.user_index[x] for x in test[:, 0].tolist()])
    items = np.array([ref.item_index[x] for x in test[:, 1].tolist()])
    relevant = sp.csr_matrix((np.ones(len(users), dtype=bool), (users, items)),
                             shape=(ref.n_users, ref.n_items))
    evaluable = np.flatnonzero(np.diff(relevant.indptr))
    n_rel = np.diff(relevant.indptr)[evaluable]
    max_m = max(cutoffs)
    recall = {m: 0.0 for m in cutoffs}
    ap = {m: 0.0 for m in cutoffs}
    for start in range(0, len(evaluable), 512):
        block = evaluable[start:start + 512]
        # Score descending, ties by ascending item index.
        top = np.argsort(-ref.scores(block), axis=1, kind="stable")[:, :max_m]
        hit = np.take_along_axis(relevant[block].toarray(), top, axis=1)
        hits = np.cumsum(hit, axis=1)
        precision = np.where(hit, hits / np.arange(1, max_m + 1), 0.0)
        rel = n_rel[start:start + 512]
        for m in cutoffs:
            recall[m] += (hits[:, m - 1] / rel).sum()
            ap[m] += (precision[:, :m].sum(axis=1) / np.minimum(rel, m)).sum()
    n = len(evaluable)
    return {m: recall[m] / n for m in cutoffs}, {m: ap[m] / n for m in cutoffs}, n


def check_report(path, ref: Reference, test: np.ndarray, cutoffs, tol=1e-7):
    """report.tsv agrees with the reference pass; returns (Recall@min(cutoffs),
    number of users evaluated)."""
    recall, ap, n_eval = reference_metrics(ref, test, cutoffs)
    got = {}
    header = {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            if line.startswith("#"):
                key, _, value = line[1:].strip().partition("=")
                header[key] = value
            elif line.strip():
                m, metric, value = line.split("\t")
                got[(int(m), metric)] = float(value)
    _require(int(header["n_evaluable_users"]) == n_eval,
             f"report evaluates {header['n_evaluable_users']} users, reference {n_eval}")
    for m in cutoffs:
        _require(abs(got[(m, "recall")] - recall[m]) <= tol,
                 f"Recall@{m} {got[(m, 'recall')]} != reference {recall[m]}")
        _require(abs(got[(m, "map")] - ap[m]) <= tol,
                 f"MAP@{m} {got[(m, 'map')]} != reference {ap[m]}")
    return got[(min(cutoffs), "recall")], n_eval


def check_recommend(output: str, ref: Reference, user_ext: int, M: int, tol=1e-8) -> None:
    """The printed list is a top-M of the reference scores with seen items
    excluded: its scores match, descend, and no unlisted item beats them."""
    rows = [line.split("\t") for line in output.splitlines() if line.strip()]
    _require(len(rows) == M, f"user {user_ext}: {len(rows)} items listed, expected {M}")
    u = ref.user_index[user_ext]
    items = np.array([ref.item_index[int(item)] for item, _ in rows])
    printed = np.array([float(score) for _, score in rows])
    scores = ref.scores(np.array([u]))[0]
    _require(np.isfinite(scores[items]).all(), f"user {user_ext}: a seen item is listed")
    _require(len(set(items.tolist())) == M, f"user {user_ext}: an item is listed twice")
    _require(np.abs(scores[items] - printed).max() <= tol,
             f"user {user_ext}: printed scores differ from the reference")
    _require((np.diff(scores[items]) <= tol).all(), f"user {user_ext}: list not descending")
    rest = np.delete(scores, items)
    _require(rest.max() <= scores[items].min() + tol,
             f"user {user_ext}: an unlisted item outscores the list")


def check_embedding(path, ref: Reference, k: int, tol=1e-6) -> None:
    """Coordinates are unit, orthogonal eigenvectors of the sym-normalized
    Laplacian with small residuals, for its k smallest nontrivial eigenvalues.

    Raises ``TrivialEmbedding`` if a coordinate has eigenvalue 0 on a
    disconnected graph: a component indicator, not a low frequency.
    """
    n = ref.n_users + ref.n_items
    X = np.zeros((n, k))
    seen = np.zeros(n, dtype=bool)
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            kind, ext, *coords = line.rstrip("\n").split("\t")
            v = ref.vertex_index[(kind, int(ext))]
            X[v] = [float(c) for c in coords]
            seen[v] = True
    _require(seen.all(), f"{path}: {int((~seen).sum())} vertices missing")
    L = sp.identity(n, format="csr") - ref.A_norm
    gram = X.T @ X
    _require(np.abs(gram - np.eye(k)).max() <= tol, f"{path}: columns not orthonormal")
    lam = np.einsum("ij,ij->j", X, L @ X)
    residual = np.linalg.norm(L @ X - X * lam, axis=0).max()
    _require(residual <= tol, f"{path}: eigen-residual {residual:.2e}")
    expected, n_comp = smallest_nontrivial_eigenvalues(ref.A_norm, k)
    if n_comp > 1 and (np.abs(lam) <= tol).any():
        raise TrivialEmbedding(
            f"{path}: eigenvalues {lam} on a graph of {n_comp} components; "
            f"the smallest nontrivial ones are {expected}")
    _require(np.abs(lam - expected).max() <= tol,
             f"{path}: eigenvalues {lam} but eigsh gives {expected}")


def smallest_nontrivial_eigenvalues(A_norm, count: int):
    """The ``count`` smallest eigenvalues of I - A_norm above the zeros, ascending,
    and the number of connected components.

    The spectrum is the union of the components' spectra, and each component
    contributes one zero, so one zero is dropped per component. Lanczos
    cannot resolve a zero repeated across components, so each component is
    solved on its own: eigsh on A_norm (largest algebraic) for large ones,
    dense for small ones.
    """
    n_comp, label = connected_components(A_norm, directed=False)
    found = []
    for c in range(n_comp):
        members = np.flatnonzero(label == c)
        block = A_norm[members][:, members]
        if len(members) <= 4 * (count + 1):
            mu = np.linalg.eigvalsh(block.toarray())
        else:
            mu = eigsh(block, k=count + 1, which="LA", tol=1e-12,
                       v0=np.ones(len(members)), return_eigenvectors=False)
        found.append(np.sort(1.0 - mu)[1:])
    return np.sort(np.concatenate(found))[:count], n_comp
