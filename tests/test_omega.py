"""Extraction of the commuting operator family and its joint spectra."""

import numpy as np
import pytest

from bpl.config import SpectralConfig
from bpl.functional import FnSampler, extract_fbar, lambda_bar_coefficients, spectrum
from bpl.omega import (
    SymmetricBasis,
    action_polynomiality_residual,
    build_lbar,
    check_eigk,
    extract_omegas,
)
from bpl.polyengine import MultiPoly

from conftest import draw_complex


class TestSymmetricBasis:
    def test_dimensions(self):
        assert SymmetricBasis(1, 2).dim == 3
        assert SymmetricBasis(2, 2).dim == 6   # partitions in a 2x2 box
        assert SymmetricBasis(3, 2).dim == 10

    def test_embed_project_round_trip(self, rng):
        basis = SymmetricBasis(2, 3)
        vec = draw_complex(rng, basis.dim)
        back, defect = basis.project(basis.embed(vec))
        assert np.max(np.abs(back - vec)) < 1e-14
        assert defect < 1e-14

    def test_project_flags_asymmetric_input(self):
        basis = SymmetricBasis(2, 1)
        lopsided = MultiPoly.monomial(2, 1, (1, 0))
        _, defect = basis.project(lopsided)
        assert defect > 0.5


class TestLbar:
    def test_action_on_eigenfunction(self, rng):
        # Lbar(x0) applied to the overlap polynomial reproduces the
        # eigenvalue polynomial pointwise (functional-layer oracle)
        cfg = SpectralConfig.random_instance(2, 1, seed=31)
        lbar = build_lbar(cfg)
        eig = spectrum(cfg, 1)[0]
        fit = extract_fbar(FnSampler(cfg, eig))
        vec, _ = lbar.basis.project(fit.poly)
        deltas = lambda_bar_coefficients(eig, cfg, nodes=lbar.x0_nodes)
        for _ in range(4):
            lam0 = draw_complex(rng)
            x0 = np.exp(2 * lam0)
            powers = x0 ** np.arange(cfg.L + 1)
            lhs = np.tensordot(powers, lbar.coefficient_matrices, axes=(0, 0)) @ vec
            lam_bar = np.polyval(deltas[::-1], x0)
            assert np.max(np.abs(lhs - lam_bar * vec)) < 1e-9 * max(
                abs(lam_bar) * np.max(np.abs(vec)), 1e-30
            )

    def test_degree_bound_in_x0(self):
        # sampling at two extra x0 nodes: coefficients above degree L vanish
        from bpl.functional import circle_grid
        from bpl.polyengine import tensor_interpolate
        from bpl.functional import fz_coefficients

        cfg = SpectralConfig.random_instance(2, 1, seed=13)
        L, n = cfg.L, cfg.n
        lam0s = circle_grid(L + 3, slot=0, nslots=2)
        lams = circle_grid(L, slot=1, nslots=2)
        xs = np.exp(2 * lams)
        p = MultiPoly(np.array([0.3 - 0.2j, 1.1 + 0.4j], dtype=complex))
        vals = np.zeros((L + 3, L), dtype=complex)
        for a0, lam0 in enumerate(lam0s):
            x0 = np.exp(2 * lam0)
            for t, lam in enumerate(lams):
                j0, ks = fz_coefficients(lam0, [lam], cfg)
                vals[a0, t] = j0 * np.exp(L * lam0) * p((xs[t],))
                vals[a0, t] -= ks[0] * np.exp(lam0) * np.exp((L - 1) * lam) * p((x0,))
        coeffs = tensor_interpolate(vals, [np.exp(2 * lam0s), xs])
        scale = np.max(np.abs(coeffs))
        assert np.max(np.abs(coeffs[L + 1 :])) < 1e-9 * scale

    def test_polynomiality_is_checked_not_assumed(self):
        cfg = SpectralConfig.random_instance(3, 2, seed=17)
        # symmetric input: held-out residual at roundoff
        assert action_polynomiality_residual(cfg, (2, 1), symmetrize=True) < 1e-10
        # bare non-symmetric monomial: the action is genuinely rational
        assert action_polynomiality_residual(cfg, (2, 0), symmetrize=False) > 1e-3

    def test_build_diagnostics(self):
        cfg = SpectralConfig.random_instance(3, 2, seed=19)
        lbar = build_lbar(cfg)
        assert lbar.polynomiality_residual < 1e-9
        assert lbar.symmetry_defect < 1e-9

    def test_vacuum_coefficient_equals_eigenvalue(self, cfg2, rng):
        # with no variables the relation collapses to its J-part
        from bpl.functional import fz_coefficients

        eig = spectrum(cfg2, 0)[0]
        lam0 = draw_complex(rng)
        j0, _ = fz_coefficients(lam0, [], cfg2)
        jbar = j0 * np.exp(cfg2.L * lam0)
        lam_bar = eig.eigenvalue(lam0) * np.exp(cfg2.L * lam0)
        assert abs(jbar - lam_bar) < 1e-11 * abs(lam_bar)


class TestOmegaFamily:
    def test_commutators(self):
        cfg = SpectralConfig.random_instance(3, 2, seed=29)
        family = extract_omegas(cfg)
        assert np.max(family.commutator_norms) < 1e-9

    def test_top_operator_scalar(self):
        cfg = SpectralConfig.random_instance(2, 1, seed=37)
        family = extract_omegas(cfg)
        assert family.omega_top_identity_residual < 1e-9
        # the scalar equals the leading eigenvalue coefficient for every
        # eigenvector in the sector
        eigs = spectrum(cfg, 1)
        coeffs = lambda_bar_coefficients(eigs, cfg, nodes=family.lbar.x0_nodes)
        for row in coeffs:
            assert abs(row[cfg.L] - family.omega_top_scalar) < 1e-9 * abs(row[cfg.L])

    def test_top_scalar_sector_formula(self):
        # leading transfer asymptotics: 2^-L prod y^-1/2 (q^(L-n) + q^n)
        cfg = SpectralConfig.random_instance(3, 2, seed=41)
        family = extract_omegas(cfg)
        expect = 2.0**-cfg.L / cfg.sqrt_y_prod * (cfg.q ** (cfg.L - cfg.n) + cfg.q**cfg.n)
        assert abs(family.omega_top_scalar - expect) < 1e-10 * abs(expect)

    def test_joint_diagonalization_full(self):
        cfg = SpectralConfig.random_instance(3, 2, seed=43)
        family = extract_omegas(cfg)
        assert family.delta_table.shape == (family.basis.dim, cfg.L + 1)
        assert family.joint_defect < 1e-8


class TestJointSpectralProblems:
    @pytest.mark.parametrize("L,n,tol", [(2, 1, 1e-9), (4, 2, 1e-8)])
    def test_eigenfunction_residuals(self, L, n, tol):
        cfg = SpectralConfig.random_instance(L, n, seed=100 + L * 10 + n)
        report = check_eigk(cfg)
        realized = [r for r in report.records if not r.vanishing]
        assert realized, "no nonvanishing overlap polynomials found"
        assert report.max_residual < tol

    def test_top_delta_constant_across_sector(self):
        cfg = SpectralConfig.random_instance(3, 1, seed=53)
        report = check_eigk(cfg)
        tops = [r.delta[cfg.L] for r in report.records if not r.vanishing]
        assert len(tops) >= 2
        for t in tops[1:]:
            assert abs(t - tops[0]) < 1e-9 * abs(tops[0])

    def test_containment_and_surplus_reported(self):
        cfg = SpectralConfig.random_instance(3, 2, seed=59)
        report = check_eigk(cfg)
        assert report.max_containment_distance < 1e-7
        # the symmetric space is larger than the sector: surplus spectrum
        assert report.surplus_dimension == report.family.basis.dim - len(
            [r for r in report.records if not r.vanishing]
        )
        assert report.surplus_dimension >= 0
