"""Basis, transform, projection and norm tests."""

import math

import numpy as np
import pytest

from phasemono import spectral


def mode_samples(basis):
    """Matrix of all basis functions sampled on the full grid, one column per
    (flattened) mode."""
    if basis.dims == 1:
        return basis.mats[0]
    return np.kron(basis.mats[0], basis.mats[1])


def gram_matrix(basis):
    """Quadrature Gram matrix of the basis functions."""
    w = mode_samples(basis)
    return basis.cell * (w.T @ w)


@pytest.fixture
def basis_pi():
    return spectral.build_basis(1, math.pi, 8)


class TestEigenpairs:
    def test_closed_form_on_pi(self, basis_pi):
        # (i pi / L)^2 with L = pi
        assert basis_pi.eigenvalues[3] == pytest.approx(9.0)
        assert basis_pi.eigenvalues[0] == 0.0
        assert np.all(np.diff(basis_pi.eigenvalues) > 0)

    def test_constant_mode(self, basis_pi):
        grid = spectral.to_grid(basis_pi, np.eye(8)[0])
        assert np.allclose(grid, 1.0 / math.sqrt(math.pi))

    def test_2d_tensor_eigenvalue(self):
        b = spectral.build_basis(2, (math.pi, math.pi), 4)
        lam = b.eigenvalues.reshape(4, 4)
        assert lam[1, 2] == pytest.approx(5.0)

    def test_neumann_eigen_relation_by_finite_differences(self):
        # -lap(v_i) = lambda_i v_i checked against second differences
        b = spectral.build_basis(1, 2.0, 5, m_quad=400)
        x = b.nodes[0]
        h = x[1] - x[0]
        for i in (1, 2, 4):
            v = spectral.to_grid(b, np.eye(5)[i])
            lap_fd = (v[2:] - 2 * v[1:-1] + v[:-2]) / h ** 2
            err = np.max(np.abs(-lap_fd - b.eigenvalues[i] * v[1:-1]))
            assert err <= 10 * b.eigenvalues[i] * h ** 2

    def test_invalid_sizes(self):
        with pytest.raises(ValueError):
            spectral.build_basis(1, 1.0, 0)
        with pytest.raises(ValueError):
            spectral.build_basis(1, 1.0, 8, m_quad=8)
        with pytest.raises(ValueError):
            spectral.build_basis(3, (1, 1, 1), 4)


class TestGram:
    def test_orthonormal_to_1e10(self):
        b = spectral.build_basis(1, 1.7, 12)
        g = gram_matrix(b)
        assert np.max(np.abs(g - np.eye(12))) <= 1e-10

    def test_2d_gram(self):
        b = spectral.build_basis(2, (1.0, 2.0), 4)
        g = gram_matrix(b)
        assert np.max(np.abs(g - np.eye(16))) <= 1e-10


class TestProjection:
    def test_single_cosine_hits_one_coefficient(self):
        b = spectral.build_basis(1, math.pi, 6)
        f = np.cos(b.nodes[0])
        c = spectral.from_grid(b, f)
        assert abs(c[1]) > 0.1
        mask = np.ones(6, dtype=bool)
        mask[1] = False
        assert np.max(np.abs(c[mask])) <= 1e-12

    def test_zero_function(self):
        b = spectral.build_basis(1, 1.0, 6)
        assert np.all(spectral.from_grid(b, np.zeros(12)) == 0.0)

    def test_beyond_truncation_projects_to_zero(self):
        b = spectral.build_basis(1, 1.0, 6, m_quad=16)
        f = np.cos((b.n + 1) * math.pi * b.nodes[0] / 1.0)
        c = spectral.from_grid(b, f)
        assert np.max(np.abs(c)) <= 1e-12

    def test_idempotent_and_nonexpansive(self):
        b = spectral.build_basis(1, 1.0, 8, m_quad=64)
        rng = np.random.default_rng(0)
        f = np.tanh((b.nodes[0] - 0.5) / 0.2) + 0.3 * rng.standard_normal(64)
        c1 = spectral.from_grid(b, f)
        c2 = spectral.from_grid(b, spectral.to_grid(b, c1))
        assert np.max(np.abs(c1 - c2)) <= 1e-12
        f_h = math.sqrt(spectral.grid_integral(b, f * f))
        assert spectral.h_norm(b, c1) <= f_h + 1e-12

    def test_projection_matches_least_squares(self):
        # the quadrature projection is the optimal grid fit in the span
        b = spectral.build_basis(1, 1.3, 5, m_quad=24)
        rng = np.random.default_rng(4)
        f = rng.standard_normal(24)
        w = mode_samples(b)
        lstsq = np.linalg.lstsq(w, f, rcond=None)[0]
        assert np.max(np.abs(lstsq - spectral.from_grid(b, f))) <= 1e-10

    def test_grid_size_mismatch(self):
        b = spectral.build_basis(1, 1.0, 4)
        with pytest.raises(ValueError):
            spectral.from_grid(b, np.zeros(7))


class TestRoundTrip:
    def test_unit_mode(self):
        b = spectral.build_basis(1, 1.0, 8)
        e1 = np.eye(8)[1]
        back = spectral.from_grid(b, spectral.to_grid(b, e1))
        assert np.max(np.abs(back - e1)) <= 1e-12

    def test_zero_field(self):
        b = spectral.build_basis(1, 1.0, 8)
        assert np.all(spectral.from_grid(b, spectral.to_grid(b, np.zeros(8))) == 0.0)

    def test_random_coefficients_spec_sizes(self):
        b = spectral.build_basis(1, 1.0, 16, m_quad=48)
        rng = np.random.default_rng(99)
        for _ in range(20):
            c = rng.standard_normal(16)
            back = spectral.from_grid(b, spectral.to_grid(b, c))
            assert np.max(np.abs(back - c)) <= 1e-10

    def test_2d_round_trip(self):
        b = spectral.build_basis(2, (1.0, 1.5), 6)
        rng = np.random.default_rng(2)
        c = rng.standard_normal(36)
        back = spectral.from_grid(b, spectral.to_grid(b, c))
        assert np.max(np.abs(back - c)) <= 1e-10


class TestNorms:
    def test_unit_mode_h_norm(self, basis_pi):
        c = np.eye(8)[1]
        h, v = spectral.h_norm(basis_pi, c), spectral.v_norm(basis_pi, c)
        assert h == pytest.approx(1.0, abs=1e-14)
        # Dirichlet energy v^2 - h^2 of v_1 on [0, pi] equals lambda_1 = 1
        assert v * v - h * h == pytest.approx(1.0, abs=1e-14)
        assert v == pytest.approx(math.sqrt(2.0), abs=1e-14)

    def test_parseval_combination(self, basis_pi):
        c = np.zeros(8)
        c[0], c[1] = 2.0, 1.0
        assert spectral.h_norm(basis_pi, c) ** 2 == pytest.approx(5.0, abs=1e-13)

    def test_laplacian_diagonal(self):
        # the Laplacian acts on coefficients as -lambda_j: the second
        # difference of the represented field matches it to O(h^2)
        b = spectral.build_basis(1, math.pi, 8, m_quad=2000)
        c = np.zeros(8)
        c[1], c[3] = -0.5, 2.0
        u = spectral.to_grid(b, c)
        fd = (u[2:] - 2.0 * u[1:-1] + u[:-2]) / b.spacings[0] ** 2
        lap = spectral.to_grid(b, -b.eigenvalues * c)[1:-1]
        assert np.max(np.abs(fd - lap)) <= 1e-4 * np.max(np.abs(lap))

    @pytest.mark.parametrize("dims", [1, 2])
    def test_grid_integral_of_a_stack_gives_each_grids_bits(self, dims):
        b = spectral.build_basis(dims, 1.0, 8)
        grids = np.random.default_rng(6).standard_normal((2, 3) + b.grid_shape)
        got = spectral.grid_integral(b, grids)
        assert got.shape == (2, 3)
        alone = [[spectral.grid_integral(b, g) for g in row] for row in grids]
        assert type(alone[0][0]) is float
        assert np.array_equal(got, alone)

    def test_w_norm_formula(self):
        b = spectral.build_basis(1, math.pi, 4)
        c = np.eye(4)[2]  # lambda = 4
        assert spectral.w_norm(b, c) == pytest.approx(math.sqrt(1 + 4 + 16), abs=1e-13)


class TestNestedConvergence:
    def test_projection_error_decreases_in_v(self):
        # smooth Neumann-compatible target: exp(cos(pi x / L))
        L = 1.0
        ref = spectral.build_basis(1, L, 64, m_quad=256)
        u = np.exp(np.cos(math.pi * ref.nodes[0] / L))
        u_ref = spectral.from_grid(ref, u)
        errs = []
        for n in (4, 8, 16, 32):
            b = spectral.build_basis(1, L, n, m_quad=256)
            c = spectral.from_grid(b, u)
            diff = spectral.embed_coeffs(b, ref, c) - u_ref
            errs.append(spectral.v_norm(ref, diff))
        assert all(b < a for a, b in zip(errs, errs[1:]))
        assert errs[-1] <= 1e-6


class TestEmbedding:
    def test_zero_padding(self):
        src = spectral.build_basis(1, 1.0, 4)
        dst = spectral.build_basis(1, 1.0, 8)
        c = np.array([1.0, -2.0, 0.5, 3.0])
        out = spectral.embed_coeffs(src, dst, c)
        assert np.allclose(out[:4], c)
        assert np.all(out[4:] == 0.0)

    def test_norms_preserved(self):
        src = spectral.build_basis(1, 2.0, 5)
        dst = spectral.build_basis(1, 2.0, 11)
        rng = np.random.default_rng(8)
        c = rng.standard_normal(5)
        out = spectral.embed_coeffs(src, dst, c)
        assert spectral.h_norm(src, c) == pytest.approx(spectral.h_norm(dst, out))

    @pytest.mark.parametrize("dims", [1, 2])
    def test_member_axis_embeds_each_row(self, dims):
        src = spectral.build_basis(dims, 1.0, 3)
        dst = spectral.build_basis(dims, 1.0, 5)
        rows = np.random.default_rng(9).standard_normal((4, src.total_modes))
        out = spectral.embed_coeffs(src, dst, rows)
        assert out.shape == (4, dst.total_modes)
        for row, got in zip(rows, out):
            assert np.array_equal(got, spectral.embed_coeffs(src, dst, row))
        # the norms reduce each row of a stack as the call on that row does
        for norm in (spectral.h_norm, spectral.v_norm, spectral.w_norm):
            got = norm(src, rows)
            assert got.shape == (4,)
            assert all(g == norm(src, row) for g, row in zip(got, rows))

    def test_incompatible_bases_raise(self):
        a = spectral.build_basis(1, 1.0, 4)
        b = spectral.build_basis(1, 2.0, 8)
        with pytest.raises(ValueError):
            spectral.embed_coeffs(a, b, np.zeros(4))
