"""Domain-wall partition function: oracles, polynomial part, and the
homogeneous PDE with its reduction."""

import numpy as np
import pytest

from bpl.config import SpectralConfig
from bpl.dwbc import (
    dwbc_configuration_sum,
    dwbc_derivative_coeff,
    dwbc_partition,
    dwbc_pde_residual,
    dwbc_potential,
    dwbc_upsilon,
    dwbc_upsilon_residual,
    extract_zbar,
)
from bpl.errors import CapacityError
from bpl.polyengine import partial_derivative
from bpl.reduction import block_dimensions
from bpl.ybcore import weight_c

from conftest import draw_complex


class TestPartitionOracles:
    def test_single_site_is_c_weight(self, rng):
        cfg = SpectralConfig.random_instance(1, 0, seed=1)
        lam = draw_complex(rng)
        z = dwbc_partition([lam], cfg)
        assert abs(z - weight_c(cfg.gamma)) < 1e-14

    def test_permutation_symmetry(self, rng):
        cfg = SpectralConfig.random_instance(3, 0, seed=2)
        lams = [draw_complex(rng) for _ in range(3)]
        z1 = dwbc_partition(lams, cfg)
        z2 = dwbc_partition([lams[1], lams[2], lams[0]], cfg)
        assert abs(z1 - z2) < 1e-12 * abs(z1)

    def test_two_site_configuration_count(self, rng):
        # with two sites exactly two arrow configurations survive the
        # boundary conditions; check against the explicit weight sum
        cfg = SpectralConfig.random_instance(2, 0, seed=3)
        from bpl.ybcore import weight_a, weight_b

        lams = [draw_complex(rng), draw_complex(rng)]
        c = weight_c(cfg.gamma)
        a = lambda lam, mu: weight_a(lam - mu, cfg.gamma)
        b = lambda lam, mu: weight_b(lam - mu)
        # rows carry lam_1 (top), lam_2 (bottom); columns mu_1, mu_2;
        # the c-vertices sit on one diagonal or the other
        expect = (
            c * b(lams[0], cfg.mu[0]) * a(lams[1], cfg.mu[1]) * c
            + c * a(lams[0], cfg.mu[1]) * b(lams[1], cfg.mu[1]) * c
        )
        # independent enumeration oracle agrees with the operator product
        z = dwbc_partition(lams, cfg)
        zc = dwbc_configuration_sum(lams, cfg)
        assert abs(z - zc) < 1e-13 * abs(z)

    @pytest.mark.parametrize("L", [1, 2, 3])
    def test_configuration_sum_matches_b_product(self, L, rng):
        cfg = SpectralConfig.random_instance(L, 0, seed=10 + L)
        for _ in range(3):
            lams = [draw_complex(rng) for _ in range(L)]
            zb = dwbc_partition(lams, cfg)
            zc = dwbc_configuration_sum(lams, cfg)
            assert abs(zb - zc) < 1e-10 * max(abs(zb), 1e-30)

    def test_capacity_caps(self):
        cfg = SpectralConfig.random_instance(7, 0, seed=4)
        with pytest.raises(CapacityError):
            dwbc_partition([0.1] * 7, cfg)
        cfg5 = SpectralConfig.random_instance(5, 0, seed=5)
        with pytest.raises(CapacityError):
            dwbc_configuration_sum([0.1] * 5, cfg5)

    def test_argument_count_checked(self):
        cfg = SpectralConfig.random_instance(3, 0, seed=6)
        with pytest.raises(ValueError, match="exactly L"):
            dwbc_partition([0.1, 0.2], cfg)


class TestPolynomialPart:
    def test_holdout_and_degree(self):
        for L in (2, 3):
            cfg = SpectralConfig.random_instance(L, 0, seed=20 + L)
            inst = extract_zbar(cfg)
            assert inst.fit.holdout_residual < 1e-9
            assert inst.top_coefficient < 1e-9
            assert inst.symmetry_defect < 1e-9

    def test_symmetry_under_resampled_grids(self, rng):
        # interpolating with permuted variable grids gives the same coefficients
        from bpl.functional import circle_grid
        from bpl.polyengine import tensor_interpolate
        from itertools import product as iproduct

        cfg = SpectralConfig.random_instance(2, 0, seed=25)
        L = cfg.L
        grids = [circle_grid(L, slot=i, nslots=L) for i in range(L)]
        swapped = [grids[1], grids[0]]
        vals = np.zeros((L, L), dtype=complex)
        for tup in iproduct(range(L), repeat=L):
            lams = [swapped[i][tup[i]] for i in range(L)]
            vals[tup] = np.exp((L - 1) * sum(lams)) * dwbc_partition(lams, cfg)
        coeffs = tensor_interpolate(vals, [np.exp(2 * g) for g in swapped])
        inst = extract_zbar(cfg)
        assert np.max(np.abs(coeffs - inst.zbar.coeffs)) < 1e-10 * inst.zbar.max_abs()


class TestHomogeneousPde:
    @pytest.mark.parametrize("L", [2, 3, 4])
    def test_residual(self, L):
        cfg = SpectralConfig.random_instance(L, 0, seed=30 + L)
        assert dwbc_pde_residual(cfg, npoints=10) < 1e-8

    def test_scale_invariance(self, rng):
        # the equation is linear homogeneous: rescaling the polynomial part
        # leaves the relative residual unchanged
        cfg = SpectralConfig.random_instance(2, 0, seed=35)
        inst = extract_zbar(cfg)
        scaled = type(inst)(
            cfg, inst.zbar * 7.0, inst.fit, inst.symmetry_defect, inst.top_coefficient
        )
        r1 = dwbc_pde_residual(cfg, inst)
        r2 = dwbc_pde_residual(cfg, scaled)
        assert abs(r1 - r2) < 1e-12

    def test_coefficients_at_a_point(self, rng):
        # potential and derivative coefficients from their defining products
        cfg = SpectralConfig.random_instance(2, 0, seed=36)
        q, ys = cfg.q, cfg.ys
        xs = np.exp(2 * draw_complex(rng, 2))
        expect_v = (xs[0] * q - ys[0] / q) + (xs[1] * q - ys[1] / q)
        assert abs(dwbc_potential(xs, cfg) - expect_v) < 1e-13 * abs(expect_v)
        expect_q0 = -(
            (xs[0] * q - ys[0] / q)
            * (xs[0] * q - ys[1] / q)
            * (xs[1] * q - xs[0] / q)
            / (xs[1] - xs[0])
        )
        assert abs(dwbc_derivative_coeff(0, xs, cfg) - expect_q0) < 1e-12 * abs(expect_q0)


class TestReduction:
    @pytest.mark.parametrize("L", [3, 4])
    def test_upsilon_residual(self, L):
        cfg = SpectralConfig.random_instance(L, 0, seed=40 + L)
        assert dwbc_upsilon_residual(cfg, npoints=3) < 1e-8

    def test_vector_dimension(self):
        for L in (3, 4, 5):
            cfg = SpectralConfig.random_instance(L, 0, seed=45 + L)
            system = dwbc_upsilon(cfg)
            assert block_dimensions(system.length, system.nvars)[0] == L * (L - 2) + 1

    def test_defining_rows_vanish(self, rng):
        from bpl.reduction import build_psi, upsilon_apply

        cfg = SpectralConfig.random_instance(3, 0, seed=50)
        inst = extract_zbar(cfg)
        system = dwbc_upsilon(cfg)
        psi = build_psi(inst.zbar, cfg)
        xs = np.exp(2 * np.array([0.1, 0.4 + 0.2j, -0.3 + 0.1j]))
        rows = upsilon_apply(system, psi, 0.0, xs)
        assert np.max(np.abs(rows[1:])) < 1e-12 * max(1, inst.zbar.max_abs())
