"""Named profile vocabulary tests."""

import math

import numpy as np
import pytest

from phasemono import spectral
from phasemono.profiles import profile_grid


@pytest.fixture
def basis():
    return spectral.build_basis(1, 1.0, 8)


class TestBasicProfiles:
    def test_zero_and_constant(self, basis):
        assert np.all(profile_grid(basis, "zero") == 0.0)
        assert np.all(profile_grid(basis, "constant 2.5") == 2.5)

    def test_cosine_pointwise_amplitude(self, basis):
        vals = profile_grid(basis, "cosine 0.8 1")
        assert np.max(np.abs(vals)) <= 0.8
        expected = 0.8 * np.cos(math.pi * basis.nodes[0])
        assert np.allclose(vals, expected)

    def test_cosine_mode_bounds(self, basis):
        with pytest.raises(ValueError):
            profile_grid(basis, "cosine 1.0 9")

    def test_tanh_front(self, basis):
        vals = profile_grid(basis, "tanh 0.9 0.1")
        assert vals[0] == pytest.approx(-0.9, abs=1e-2)
        assert vals[-1] == pytest.approx(0.9, abs=1e-2)

    def test_unknown_profile(self, basis):
        with pytest.raises(ValueError):
            profile_grid(basis, "sawtooth 1.0")

    def test_2d_cosine(self):
        b = spectral.build_basis(2, (1.0, 1.0), 4)
        vals = profile_grid(b, "cosine 0.5 1 0")
        assert vals.shape == (8, 8)
        assert np.allclose(vals, 0.5 * np.cos(math.pi * b.nodes[0])[:, None])

    def test_2d_tanh_repeats_the_1d_front_along_y(self):
        b1 = spectral.build_basis(1, 1.0, 4)
        b2 = spectral.build_basis(2, (1.0, 0.5), 4)
        front = profile_grid(b1, "tanh 0.9 0.12")
        vals = profile_grid(b2, "tanh 0.9 0.12")
        assert np.array_equal(vals, np.broadcast_to(front[:, None], b2.grid_shape))


class TestRandomSmooth:
    def test_deterministic_given_seed(self, basis):
        a = profile_grid(basis, "random-smooth 0.5", np.random.default_rng(5))
        b = profile_grid(basis, "random-smooth 0.5", np.random.default_rng(5))
        assert np.array_equal(a, b)

    def test_truncation_consistent_across_levels(self):
        # the same seed describes the same underlying field; a finer basis
        # only resolves more of it
        b8 = spectral.build_basis(1, 1.0, 8)
        b16 = spectral.build_basis(1, 1.0, 16)
        f8 = spectral.from_grid(b8, profile_grid(b8, "random-smooth 0.5",
                                                 np.random.default_rng(5)))
        f16 = spectral.from_grid(b16, profile_grid(b16, "random-smooth 0.5",
                                                   np.random.default_rng(5)))
        assert np.allclose(f8, f16[:8], atol=1e-12)

    def test_2d_truncation_consistent_across_levels(self):
        b4 = spectral.build_basis(2, (1.0, 1.0), 4)
        b8 = spectral.build_basis(2, (1.0, 1.0), 8)
        f4, f8 = (spectral.from_grid(b, profile_grid(b, "random-smooth 0.5",
                                                     np.random.default_rng(5)))
                  for b in (b4, b8))
        assert np.max(np.abs(f4.reshape(4, 4) - f8.reshape(8, 8)[:4, :4])) <= 1e-12

    def test_amplitude_is_master_norm(self, basis):
        vals = profile_grid(basis, "random-smooth 0.5 0.5",
                            np.random.default_rng(1))
        c = spectral.from_grid(basis, vals)
        assert spectral.h_norm(basis, c) <= 0.5 + 1e-12


class TestCsvImport:
    def test_interpolates_onto_quadrature_grid(self, basis, tmp_path):
        path = tmp_path / "data.csv"
        xs = np.linspace(0, 1, 21)
        np.savetxt(path, np.column_stack([xs, 2.0 * xs]), delimiter=",")
        vals = profile_grid(basis, f"csv {path}")
        assert np.allclose(vals, 2.0 * basis.nodes[0], atol=1e-12)

    def test_rejected_in_2d(self, tmp_path):
        b = spectral.build_basis(2, (1.0, 1.0), 4)
        path = tmp_path / "data.csv"
        path.write_text("0,1\n1,1\n")
        with pytest.raises(ValueError):
            profile_grid(b, f"csv {path}")
