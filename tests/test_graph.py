import numpy as np
import pytest

from spectralcf import graph
from spectralcf.errors import DegenerateInterpolationError, DimensionError
from spectralcf.graph import (
    KERNEL_CLOSED_SPARSE,
    KERNEL_DENSE_EIG,
    NORM_RW,
    NORM_SYM,
)

from conftest import make_interactions, random_interactions


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
            assert (np.diff(basis.eigenvalues) >= -1e-12).all()

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

    def test_rw_basis_diagonalizes_random_walk_laplacian(self):
        rng = np.random.default_rng(4)
        for _ in range(10):
            ds = random_interactions(rng)
            g = graph.build_graph(ds)
            basis = graph.eigendecompose(g, NORM_RW)
            a = g.adjacency.toarray()
            L_rw = np.eye(g.n_vertices) - a / g.degree[:, None]
            res = L_rw @ basis.eigenvectors - basis.eigenvectors * basis.eigenvalues
            assert np.abs(res).max() < 1e-8
            assert np.allclose(np.linalg.norm(basis.eigenvectors, axis=0), 1.0)

    def test_sign_canonicalization_deterministic(self, toy_set):
        g = graph.build_graph(toy_set)
        a = graph.eigendecompose(g)
        b = graph.eigendecompose(g)
        assert np.array_equal(a.eigenvectors, b.eigenvectors)
        for col in a.eigenvectors.T:
            nz = col[np.abs(col) > 1e-12]
            assert nz[0] > 0


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

    def test_rw_round_trip_via_solve(self):
        rng = np.random.default_rng(6)
        ds = random_interactions(rng)
        basis = graph.eigendecompose(graph.build_graph(ds), NORM_RW)
        x = rng.standard_normal(basis.n_vertices)
        assert np.abs(graph.igft(basis, graph.gft(basis, x)) - x).max() < 1e-8

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

    def test_rw_closed_sparse_rejected(self):
        rng = np.random.default_rng(13)
        ds = random_interactions(rng)
        g = graph.build_graph(ds)
        basis = graph.eigendecompose(g, NORM_RW)
        with pytest.raises(ValueError):
            graph.conv_kernel(g, basis, KERNEL_CLOSED_SPARSE)

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
        basis = graph.eigendecompose(graph.build_graph(toy_set))
        coords = graph.spectral_coordinates(basis, 2)
        assert coords.shape == (7, 2)
        assert np.allclose(coords.T @ coords, np.eye(2), atol=1e-10)

    def test_skips_trivial_eigenvector(self, toy_set):
        basis = graph.eigendecompose(graph.build_graph(toy_set))
        coords = graph.spectral_coordinates(basis, 3)
        assert np.array_equal(coords, basis.eigenvectors[:, 1:4])

    def test_skips_every_component_indicator(self):
        # Two components: a 2x2 biclique and a path u3-i3-u4-i4.
        ds = make_interactions(4, 4, {(0, 0), (0, 1), (1, 0), (1, 1),
                                      (2, 2), (3, 2), (3, 3)})
        g = graph.build_graph(ds)
        basis = graph.eigendecompose(g)
        coords = graph.spectral_coordinates(basis, 2)
        L = graph.sym_laplacian_dense(g)
        rayleigh = np.einsum("ij,ij->j", coords, L @ coords)
        assert (rayleigh > 1e-6).all()
        with pytest.raises(DimensionError):
            graph.spectral_coordinates(basis, 7)

    def test_toy_graph_vertex_affinity(self, toy_set):
        # In the 2-coordinate frequency plot, i4 sits closer to u1 than the
        # items u1 never co-interacted around (i2, i3).
        basis = graph.eigendecompose(graph.build_graph(toy_set))
        coords = graph.spectral_coordinates(basis, 2)
        u1 = coords[0]
        d = {name: np.linalg.norm(coords[3 + idx] - u1) for idx, name in
             enumerate(["i1", "i2", "i3", "i4"])}
        assert d["i4"] < d["i2"]
        assert d["i4"] < d["i3"]

    def test_k_out_of_range(self, toy_set):
        basis = graph.eigendecompose(graph.build_graph(toy_set))
        with pytest.raises(DimensionError):
            graph.spectral_coordinates(basis, 7)
        with pytest.raises(DimensionError):
            graph.spectral_coordinates(basis, 0)


class TestBasisPersistence:
    def test_round_trip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(15)
        for norm in (NORM_SYM, NORM_RW):
            ds = random_interactions(rng)
            basis = graph.eigendecompose(graph.build_graph(ds), norm)
            path = tmp_path / f"{norm}.spcf"
            graph.save_basis(basis, path)
            back = graph.load_basis(path)
            assert back.normalization == norm
            assert np.array_equal(back.eigenvalues, basis.eigenvalues)
            assert np.array_equal(back.eigenvectors, basis.eigenvectors)

    def test_header_magic(self, tmp_path, toy_set):
        basis = graph.eigendecompose(graph.build_graph(toy_set))
        path = tmp_path / "b.spcf"
        graph.save_basis(basis, path)
        raw = path.read_bytes()
        assert raw[:4] == b"SPCF"
        with pytest.raises(ValueError):
            graph.load_basis(__file__)

    def test_short_or_padded_file_names_it(self, tmp_path, toy_set):
        path = tmp_path / "b.spcf"
        graph.save_basis(graph.eigendecompose(graph.build_graph(toy_set)), path)
        raw = path.read_bytes()
        for blob, match in [(raw[:7], "truncated"), (raw[:17], "truncated"),
                            (raw[:-8], "truncated"), (raw + b"\0" * 8, "8 trailing bytes")]:
            path.write_bytes(blob)
            with pytest.raises(ValueError, match=match) as info:
                graph.load_basis(path)
            assert str(path) in str(info.value)
