import numpy as np
import pytest
from scipy.linalg import subspace_angles
from scipy.sparse.csgraph import connected_components

from spectralcf import graph
from spectralcf.errors import DegenerateInterpolationError, DimensionError
from spectralcf.graph import KERNEL_CLOSED_SPARSE, KERNEL_DENSE_EIG

from conftest import make_interactions, random_interactions, two_community_dataset


def union_find_components(n_users, n_items, pairs):
    """Independent connected-component counter over the bipartite vertices."""
    parent = list(range(n_users + n_items))

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for u, i in pairs:
        ra, rb = find(u), find(n_users + i)
        if ra != rb:
            parent[ra] = rb
    return len({find(v) for v in range(n_users + n_items)})


class TestBuildGraph:
    def test_toy_graph_shape_and_degrees(self, toy_set):
        g = graph.build_graph(toy_set)
        assert g.n_vertices == 7
        assert g.adjacency.nnz == 14  # seven undirected edges
        assert list(g.degree[:3]) == [1, 3, 3]
        assert list(g.degree[3:]) == [3, 1, 1, 2]

    def test_single_edge(self):
        ds = make_interactions(1, 1, {(0, 0)})
        g = graph.build_graph(ds)
        assert g.n_vertices == 2
        assert g.adjacency.toarray().tolist() == [[0, 1], [1, 0]]
        assert list(g.degree) == [1, 1]

    def test_complete_bipartite_2x2(self):
        ds = make_interactions(2, 2, {(0, 0), (0, 1), (1, 0), (1, 1)})
        g = graph.build_graph(ds)
        assert (g.degree == 2).all()

    def test_off_diagonal_blocks_only(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            ds = random_interactions(rng)
            g = graph.build_graph(ds)
            a = g.adjacency.toarray()
            nu = ds.n_users
            assert not a[:nu, :nu].any()
            assert not a[nu:, nu:].any()
            assert np.array_equal(a, a.T)


class TestEigendecompose:
    def test_single_edge_closed_form(self):
        ds = make_interactions(1, 1, {(0, 0)})
        basis = graph.eigendecompose(graph.build_graph(ds))
        assert basis.eigenvalues == pytest.approx([0.0, 2.0], abs=1e-12)
        r = 1 / np.sqrt(2)
        assert basis.eigenvectors[:, 0] == pytest.approx([r, r])
        assert basis.eigenvectors[:, 1] == pytest.approx([r, -r])

    def test_orthonormal_and_sorted(self):
        rng = np.random.default_rng(1)
        for _ in range(15):
            ds = random_interactions(rng)
            basis = graph.eigendecompose(graph.build_graph(ds))
            n = basis.n_vertices
            assert np.allclose(basis.eigenvectors.T @ basis.eigenvectors, np.eye(n), atol=1e-10)
            assert np.diff(basis.eigenvalues).min() >= 0

    def test_eigen_residual(self):
        rng = np.random.default_rng(2)
        for _ in range(10):
            ds = random_interactions(rng)
            g = graph.build_graph(ds)
            basis = graph.eigendecompose(g)
            L = graph.sym_laplacian_dense(g)
            res = L @ basis.eigenvectors - basis.eigenvectors * basis.eigenvalues
            assert np.abs(res).max() < 1e-8

    def test_spectrum_bounds_and_zero_multiplicity(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            ds = random_interactions(rng, max_users=12, max_items=14, density=0.15)
            g = graph.build_graph(ds)
            basis = graph.eigendecompose(g)
            assert basis.eigenvalues.min() > -1e-10
            assert basis.eigenvalues.max() < 2 + 1e-10
            n_zero = int((np.abs(basis.eigenvalues) < 1e-8).sum())
            assert n_zero == union_find_components(ds.n_users, ds.n_items, ds.pairs)

    def test_zero_eigenvector_is_scaled_degree_root(self, toy_set):
        g = graph.build_graph(toy_set)
        basis = graph.eigendecompose(g)
        v = basis.eigenvectors[:, 0]
        expected = np.sqrt(g.degree.astype(float))
        expected /= np.linalg.norm(expected)
        assert np.allclose(np.abs(v), expected, atol=1e-10)

    def test_sign_canonicalization_deterministic(self, toy_set):
        g = graph.build_graph(toy_set)
        a = graph.eigendecompose(g)
        b = graph.eigendecompose(g)
        assert np.array_equal(a.eigenvectors, b.eigenvectors)
        for col in a.eigenvectors.T:
            nz = col[np.abs(col) > 1e-12]
            assert nz[0] > 0

    @staticmethod
    def _several_components(rng, n_users, n_items):
        """A random n_users x n_items block with a user that repeats user 0's
        items (so B is rank-deficient), plus three small islands."""
        main = random_interactions(rng, min_users=n_users - 1, max_users=n_users - 1,
                                   min_items=n_items, max_items=n_items, density=0.2)
        R = main.to_csr().tocoo()
        pairs = set(zip(R.row.tolist(), R.col.tolist()))
        pairs |= {(n_users - 1, i) for u, i in pairs if u == 0}
        twins = make_interactions(n_users, n_items, pairs)
        islands = [make_interactions(1, 2, {(0, 0), (0, 1)}),
                   make_interactions(2, 1, {(0, 0), (1, 0)}),
                   make_interactions(1, 1, {(0, 0)})]
        return graph.build_graph(disjoint_union(rng, [twins, *islands]))

    @pytest.mark.parametrize("shape", [(30, 12), (12, 30), (21, 21)])
    def test_svd_route_matches_dense_eigh(self, shape):
        rng = np.random.default_rng(5)
        for _ in range(3):
            g = self._several_components(rng, *shape)
            n_u, n = g.n_users, g.n_vertices
            L = graph.sym_laplacian_dense(g)
            assert connected_components(g.adjacency)[0] >= 4
            assert np.linalg.matrix_rank(L[:n_u, n_u:]) < min(n_u, n - n_u)
            basis = graph.eigendecompose(g)
            U, lam = basis.eigenvectors, basis.eigenvalues
            assert np.abs(lam - np.linalg.eigvalsh(L)).max() <= 1e-12
            # Ties hold values that differ in the last bits; they must still ascend.
            assert np.diff(lam).min() >= 0
            assert np.abs(U.T @ U - np.eye(n)).max() <= 1e-12
            assert np.abs(L @ U - U * lam).max() < 1e-8
            # The kernel is a function of L alone, whatever basis spans its eigenspaces.
            w, V = np.linalg.eigh(L)
            K = graph.conv_kernel(g, basis, KERNEL_DENSE_EIG).matrix
            assert np.abs(K - (V * (1.0 + w)) @ V.T).max() <= 1e-12

    def test_large_unit_cluster_is_bit_identical_across_calls(self):
        rng = np.random.default_rng(6)
        g = graph.build_graph(random_interactions(rng, min_users=120, max_users=120,
                                                  min_items=10, max_items=10))
        a, b = graph.eigendecompose(g), graph.eigendecompose(g)
        assert int((np.abs(a.eigenvalues - 1.0) <= 1e-9).sum()) >= 110
        assert np.array_equal(a.eigenvalues, b.eigenvalues)
        assert np.array_equal(a.eigenvectors, b.eigenvectors)

    def test_builds_no_dense_laplacian_and_calls_no_eigh(self, monkeypatch):
        def dense(*args, **kwargs):
            raise AssertionError("eigendecompose built or diagonalized the dense Laplacian")

        monkeypatch.setattr(graph, "sym_laplacian_dense", dense)
        monkeypatch.setattr(np.linalg, "eigh", dense)
        rng = np.random.default_rng(7)
        g = graph.build_graph(random_interactions(rng))
        assert graph.eigendecompose(g).n_vertices == g.n_vertices


def tie_break_by_tuples(values, vectors):
    """Reference tie-break: the columns of each run of eigenvalues within
    _TIE_TOL of the previous one sorted as tuples, a stable sort."""
    order = list(range(len(values)))
    start = 0
    while start < len(values):
        stop = start + 1
        while stop < len(values) and values[stop] - values[stop - 1] <= graph._TIE_TOL:
            stop += 1
        order[start:stop] = sorted(order[start:stop], key=lambda c: tuple(vectors[:, c]))
        start = stop
    return vectors[:, order]


def test_tie_break_matches_tuple_sort():
    rng = np.random.default_rng(8)
    for _ in range(200):
        n, m = int(rng.integers(1, 5)), int(rng.integers(1, 40))
        # Few distinct entries, so leading entries tie and whole columns repeat;
        # eigenvalues in runs, some chained by gaps below the tolerance.
        vectors = rng.choice([-1.0, -0.0, 0.0, 0.5, 1.0], size=(n, m))
        vectors[:, rng.integers(m, size=m // 3)] = vectors[:, rng.integers(m, size=m // 3)]
        values = np.sort(rng.choice([0.0, 0.5, 0.5 + 6e-10, 0.5 + 1.2e-9, 1.0, 2.0], size=m))
        got = graph._tie_break_degenerate(values, vectors)
        assert got.tobytes() == tie_break_by_tuples(values, vectors).tobytes()


class TestFourier:
    def test_round_trip(self):
        rng = np.random.default_rng(5)
        for _ in range(25):
            ds = random_interactions(rng)
            basis = graph.eigendecompose(graph.build_graph(ds))
            x = rng.standard_normal(basis.n_vertices)
            assert np.abs(graph.igft(basis, graph.gft(basis, x)) - x).max() < 1e-9

    def test_gft_of_basis_column_is_unit_vector(self, toy_set):
        basis = graph.eigendecompose(graph.build_graph(toy_set))
        out = graph.gft(basis, basis.eigenvectors[:, 0])
        expected = np.zeros(7)
        expected[0] = 1.0
        assert np.allclose(out, expected, atol=1e-10)

    def test_single_edge_hand_values(self):
        ds = make_interactions(1, 1, {(0, 0)})
        basis = graph.eigendecompose(graph.build_graph(ds))
        out = graph.gft(basis, np.array([1.0, 0.0]))
        r = 1 / np.sqrt(2)
        assert out == pytest.approx([r, r])

    def test_dimension_error(self, toy_set):
        basis = graph.eigendecompose(graph.build_graph(toy_set))
        with pytest.raises(DimensionError):
            graph.gft(basis, np.ones(3))


class TestDiagFilter:
    def test_all_ones_theta_equals_laplacian(self):
        rng = np.random.default_rng(7)
        ds = random_interactions(rng)
        g = graph.build_graph(ds)
        basis = graph.eigendecompose(g)
        x = rng.standard_normal(g.n_vertices)
        out = graph.apply_diag_filter(basis, np.ones(g.n_vertices), x)
        assert np.allclose(out, graph.sym_laplacian_dense(g) @ x, atol=1e-10)

    def test_zero_theta(self, toy_set):
        basis = graph.eigendecompose(graph.build_graph(toy_set))
        out = graph.apply_diag_filter(basis, np.zeros(7), np.ones(7))
        assert np.allclose(out, 0.0)

    def test_matches_dense_triple_product(self):
        rng = np.random.default_rng(8)
        for _ in range(10):
            ds = random_interactions(rng, max_users=4, max_items=5)
            basis = graph.eigendecompose(graph.build_graph(ds))
            n = basis.n_vertices
            theta = rng.standard_normal(n)
            x = rng.standard_normal(n)
            u = basis.eigenvectors
            expected = u @ np.diag(theta * basis.eigenvalues) @ u.T @ x
            assert np.allclose(graph.apply_diag_filter(basis, theta, x), expected, atol=1e-10)


class TestPolynomialEquivalence:
    def _distinct_basis(self, rng, n_max=12):
        while True:
            ds = random_interactions(rng, max_users=4, max_items=6, density=0.4)
            if ds.n_users + ds.n_items > n_max:
                continue
            basis = graph.eigendecompose(graph.build_graph(ds))
            if np.diff(basis.eigenvalues).min() > 1e-3:
                return basis

    def test_identity_theta_gives_lambda_polynomial(self):
        rng = np.random.default_rng(9)
        basis = self._distinct_basis(rng)
        coeffs, residual = graph.verify_polynomial_equivalence(
            basis, np.ones(basis.n_vertices)
        )
        expected = np.zeros(basis.n_vertices)
        expected[1] = 1.0
        assert residual < 1e-8
        assert np.allclose(coeffs, expected, atol=1e-6)

    def test_two_point_hand_interpolation(self):
        ds = make_interactions(1, 1, {(0, 0)})
        basis = graph.eigendecompose(graph.build_graph(ds))
        coeffs, residual = graph.verify_polynomial_equivalence(basis, np.array([5.0, 3.0]))
        # Polynomial through (0, 0) and (2, 6) is 3*lambda.
        assert residual < 1e-10
        assert coeffs == pytest.approx([0.0, 3.0], abs=1e-9)

    def test_polynomial_reproduces_filter_action(self):
        rng = np.random.default_rng(10)
        for _ in range(10):
            basis = self._distinct_basis(rng)
            n = basis.n_vertices
            theta = rng.standard_normal(n)
            coeffs, residual = graph.verify_polynomial_equivalence(basis, theta)
            assert residual < 1e-6
            u = basis.eigenvectors
            L = u @ np.diag(basis.eigenvalues) @ u.T
            x = rng.standard_normal(n)
            target = graph.apply_diag_filter(basis, theta, x)
            acc = np.zeros(n)
            power = x.copy()
            for a in coeffs:
                acc += a * power
                power = L @ power
            assert np.abs(acc - target).max() < 1e-6

    def test_conflicting_repeated_eigenvalues_raise(self):
        # Two disconnected single edges share eigenvalues {0, 2} twice.
        ds = make_interactions(2, 2, {(0, 0), (1, 1)})
        basis = graph.eigendecompose(graph.build_graph(ds))
        theta = np.array([1.0, 2.0, 3.0, 4.0])
        with pytest.raises(DegenerateInterpolationError):
            graph.verify_polynomial_equivalence(basis, theta)

    def test_consistent_repeated_eigenvalues_reduce_degree(self):
        ds = make_interactions(2, 2, {(0, 0), (1, 1)})
        basis = graph.eigendecompose(graph.build_graph(ds))
        # Same target on every repeated eigenvalue: still interpolable.
        theta = np.array([1.0, 1.0, 1.0, 1.0])
        coeffs, residual = graph.verify_polynomial_equivalence(basis, theta)
        assert residual < 1e-8


class TestConvKernel:
    def test_single_edge_kernel_matrix(self):
        ds = make_interactions(1, 1, {(0, 0)})
        g = graph.build_graph(ds)
        k = graph.conv_kernel(g, None, KERNEL_CLOSED_SPARSE)
        assert np.allclose(k.matrix.toarray(), [[2, -1], [-1, 2]])

    def test_forms_agree(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            ds = random_interactions(rng)
            g = graph.build_graph(ds)
            basis = graph.eigendecompose(g)
            dense = graph.conv_kernel(g, basis, KERNEL_DENSE_EIG)
            sparse = graph.conv_kernel(g, None, KERNEL_CLOSED_SPARSE)
            assert np.linalg.norm(dense.matrix - sparse.matrix.toarray()) < 1e-8

    def test_regular_graph_row_sums(self):
        ds = make_interactions(2, 2, {(0, 0), (0, 1), (1, 0), (1, 1)})
        g = graph.build_graph(ds)
        k = graph.conv_kernel(g, None, KERNEL_CLOSED_SPARSE)
        assert np.allclose(np.asarray(k.matrix.sum(axis=1)).ravel(), 1.0)

    def test_symmetry(self):
        rng = np.random.default_rng(12)
        ds = random_interactions(rng)
        g = graph.build_graph(ds)
        basis = graph.eigendecompose(g)
        dense = graph.conv_kernel(g, basis, KERNEL_DENSE_EIG)
        assert np.abs(dense.matrix - dense.matrix.T).max() < 1e-10

    def test_apply_matches_matmul(self):
        rng = np.random.default_rng(14)
        ds = random_interactions(rng)
        g = graph.build_graph(ds)
        k = graph.conv_kernel(g, None, KERNEL_CLOSED_SPARSE)
        X = rng.standard_normal((g.n_vertices, 3))
        assert np.allclose(k.apply(X), k.matrix @ X)
        # The backward pass applies K in place of K^T; the closed form must be
        # exactly symmetric for that to be exact.
        assert (k.matrix != k.matrix.T).nnz == 0


class TestSpectralCoordinates:
    def test_shapes_and_orthonormality(self, toy_set):
        coords = graph.spectral_coordinates(graph.build_graph(toy_set), 2)
        assert coords.shape == (7, 2)
        assert np.allclose(coords.T @ coords, np.eye(2), atol=1e-10)

    def test_skips_trivial_eigenvector(self, toy_set):
        g = graph.build_graph(toy_set)
        basis = graph.eigendecompose(g)
        coords = graph.spectral_coordinates(g, 3)
        want = basis.eigenvectors[:, 1:4]
        signs = np.sign(np.einsum("ij,ij->j", coords, want))
        assert np.abs(coords - want * signs).max() <= 1e-10

    def test_skips_every_component_indicator(self):
        # Two components: a 2x2 biclique and a path u3-i3-u4-i4.
        ds = make_interactions(4, 4, {(0, 0), (0, 1), (1, 0), (1, 1),
                                      (2, 2), (3, 2), (3, 3)})
        g = graph.build_graph(ds)
        coords = graph.spectral_coordinates(g, 2)
        L = graph.sym_laplacian_dense(g)
        rayleigh = np.einsum("ij,ij->j", coords, L @ coords)
        assert (rayleigh > 1e-6).all()
        with pytest.raises(DimensionError):
            graph.spectral_coordinates(g, 7)

    def test_toy_graph_vertex_affinity(self, toy_set):
        # In the 2-coordinate frequency plot, i4 sits closer to u1 than the
        # items u1 never co-interacted around (i2, i3).
        coords = graph.spectral_coordinates(graph.build_graph(toy_set), 2)
        u1 = coords[0]
        d = {name: np.linalg.norm(coords[3 + idx] - u1) for idx, name in
             enumerate(["i1", "i2", "i3", "i4"])}
        assert d["i4"] < d["i2"]
        assert d["i4"] < d["i3"]

    def test_k_out_of_range(self, toy_set):
        g = graph.build_graph(toy_set)
        with pytest.raises(DimensionError):
            graph.spectral_coordinates(g, 7)
        with pytest.raises(DimensionError):
            graph.spectral_coordinates(g, 0)


def disjoint_union(rng, blocks):
    """The blocks' interactions as separate components of one set, with user
    and item indices shuffled so that the components interleave."""
    pairs, n_u, n_i = [], 0, 0
    for block in blocks:
        R = block.to_csr().tocoo()
        pairs += [(n_u + int(u), n_i + int(i)) for u, i in zip(R.row, R.col)]
        n_u, n_i = n_u + block.n_users, n_i + block.n_items
    pu, pi = rng.permutation(n_u), rng.permutation(n_i)
    return make_interactions(n_u, n_i, {(int(pu[u]), int(pi[i])) for u, i in pairs})


def dense_laplacian(g):
    """I - D^-1/2 A D^-1/2 from the definition."""
    A = g.adjacency.toarray().astype(np.float64)
    d = g.degree.astype(np.float64)
    return np.eye(g.n_vertices) - A / np.sqrt(np.outer(d, d))


def assert_matches_full_eigensystem(g, k):
    """The k columns are orthonormal eigenvectors of the Laplacian for the k
    smallest nonzero eigenvalues of the full eigensystem, and span its
    eigenspaces: all of those below the k-th eigenvalue, and a part of the
    k-th one's."""
    coords = graph.spectral_coordinates(g, k)
    basis = graph.eigendecompose(g)
    nonzero = basis.eigenvalues > 1e-8
    want = basis.eigenvalues[nonzero][:k]
    L = dense_laplacian(g)
    assert coords.shape == (g.n_vertices, k)
    assert np.abs(coords.T @ coords - np.eye(k)).max() <= 1e-10
    lam = np.einsum("ij,ij->j", coords, L @ coords)
    assert np.abs(lam - want).max() <= 1e-10
    assert np.abs(L @ coords - coords * lam).max() <= 1e-8
    inner = basis.eigenvectors[:, nonzero & (basis.eigenvalues < want[-1] - 1e-8)]
    outer = basis.eigenvectors[:, nonzero & (basis.eigenvalues <= want[-1] + 1e-8)]
    if inner.shape[1]:
        assert np.max(subspace_angles(coords, inner)) <= 1e-6
    assert np.max(subspace_angles(outer, coords)) <= 1e-6


class TestPartialSolver:
    """spectral_coordinates against the full eigensystem of eigendecompose."""

    ISLANDS = [make_interactions(1, 2, {(0, 0), (0, 1)}),
               make_interactions(2, 1, {(0, 0), (1, 0)})]

    def test_random_multi_component_graphs(self):
        rng = np.random.default_rng(30)
        for trial in range(6):
            twin = random_interactions(rng)
            blocks = [two_community_dataset(trial, n_users=50, n_items=40),
                      random_interactions(rng), twin, twin, *self.ISLANDS,
                      make_interactions(1, 1, {(0, 0)})]
            g = graph.build_graph(disjoint_union(rng, blocks))
            k_max = g.n_vertices - connected_components(g.adjacency)[0]
            for k in (1, 2, 3, 7, int(rng.integers(8, k_max)), k_max):
                assert_matches_full_eigensystem(g, k)

    def test_k_reaching_into_the_unit_cluster(self):
        # 10 users and 100 items: at most 10 eigenvalues below 1, then 1
        # repeated; k = 12 and 20 solve the 110-vertex block with eigsh.
        rng = np.random.default_rng(31)
        pairs = {(u, i) for u in range(10) for i in range(100) if rng.random() < 0.15}
        pairs |= {(int(rng.integers(10)), i) for i in range(100)}
        pairs |= {(u, u) for u in range(10)} | {(u + 1, u) for u in range(9)}
        hub = make_interactions(10, 100, pairs)
        g = graph.build_graph(disjoint_union(rng, [hub, *self.ISLANDS]))
        for k in (9, 12, 20, 40, g.n_vertices - 3):
            assert_matches_full_eigensystem(g, k)

    def test_components_smaller_than_k_plus_one(self):
        rng = np.random.default_rng(32)
        edge = make_interactions(1, 1, {(0, 0)})
        g = graph.build_graph(disjoint_union(rng, [edge, edge, *self.ISLANDS]))
        for k in range(1, g.n_vertices - 4 + 1):
            assert_matches_full_eigensystem(g, k)
        with pytest.raises(DimensionError):
            graph.spectral_coordinates(g, g.n_vertices - 4 + 1)

    def test_finds_frequencies_antisymmetric_under_an_automorphism(self):
        # Two equal 20-vertex chains hang off item 0 of a random core. The
        # lowest frequencies live on the chains, one of them odd under the
        # swap of the chains, which a constant start vector cannot reach.
        rng = np.random.default_rng(33)
        core = {(u, int(i)) for u in range(60)
                for i in rng.choice(40, size=int(rng.integers(3, 10)), replace=False)}
        core |= {(int(rng.integers(60)), i) for i in range(40)}
        pairs, u, i = set(core), 60, 40
        for _ in range(2):
            prev = 0
            for _ in range(10):
                pairs |= {(u, prev), (u, i)}
                prev, u, i = i, u + 1, i + 1
        g = graph.build_graph(make_interactions(u, i, pairs))
        assert_matches_full_eigensystem(g, 4)

    def test_dense_solves_stay_small_on_a_large_graph(self, monkeypatch):
        # 6k vertices: a sparse random giant plus 3-vertex islands. Dense eigh
        # may only see components of up to max(64, 4 (k + 1)) vertices.
        rng = np.random.default_rng(34)
        n_users, n_items, k = 3000, 2900, 2
        users = np.repeat(np.arange(n_users), 8)
        items = rng.integers(n_items, size=len(users))
        pairs = set(zip(users.tolist(), items.tolist()))
        pairs |= {(int(rng.integers(n_users)), i) for i in range(n_items)}
        for island in range(30):
            pairs |= {(n_users + island, n_items + 2 * island),
                      (n_users + island, n_items + 2 * island + 1)}
        g = graph.build_graph(make_interactions(n_users + 30, n_items + 60, pairs))
        assert g.n_vertices >= 5000
        seen = []
        eigh = np.linalg.eigh

        def spy(a, *args, **kwargs):
            seen.append(a.shape[0])
            return eigh(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigh", spy)
        coords = graph.spectral_coordinates(g, k)
        assert seen and max(seen) <= max(64, 4 * (k + 1))
        assert coords.shape == (g.n_vertices, k)

