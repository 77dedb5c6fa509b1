"""First-order reduction: block shapes, defining rows, and equivalence with
the unreduced equation."""

import numpy as np
import pytest

from bpl.closedform import closedform_residual
from bpl.config import SpectralConfig
from bpl.errors import UnsupportedShapeError
from bpl.omega import check_eigk
from bpl.polyengine import MultiPoly, partial_derivative
from bpl.reduction import (
    block_dimensions,
    build_psi,
    spectral_reduction,
    upsilon_apply,
    upsilon_residual,
)

from conftest import draw_complex


def random_poly(rng, nvars, m):
    c = rng.standard_normal((m + 1,) * nvars) + 1j * rng.standard_normal((m + 1,) * nvars)
    return MultiPoly(c)


def distinct_point(rng, nvars):
    return np.array(
        [np.exp(0.4 * (i / max(nvars, 1) - 0.5) + 1j * rng.uniform(0, 2 * np.pi)) for i in range(nvars)]
    )


class TestShapes:
    def test_dimensions(self):
        assert block_dimensions(3, 1) == (2, 1)
        assert block_dimensions(4, 2) == (5, 2)
        assert block_dimensions(5, 3) == (10, 3)

    def test_two_site_unsupported(self):
        with pytest.raises(UnsupportedShapeError, match="first order"):
            block_dimensions(2, 1)
        cfg = SpectralConfig.random_instance(2, 1, seed=1)
        with pytest.raises(UnsupportedShapeError):
            spectral_reduction(cfg)

    def test_three_site_has_no_padding(self):
        # L = 3: a single derivative block, so the full vector is (head, d_i head)
        cfg = SpectralConfig.random_instance(3, 1, seed=2)
        rng = np.random.default_rng(0)
        f = random_poly(rng, 1, 2)
        psi = build_psi(f, cfg)
        assert psi.dim == 2
        assert len(psi.blocks) == 1

    def test_chain_matches_repeated_differentiation(self):
        cfg = SpectralConfig.random_instance(4, 2, seed=3)
        rng = np.random.default_rng(1)
        f = random_poly(rng, 2, 3)
        psi = build_psi(f, cfg)
        assert psi.dim == 5
        for i in range(2):
            assert np.allclose(psi.blocks[0][i].coeffs, partial_derivative(f, i, 1).coeffs)
            assert np.allclose(psi.blocks[1][i].coeffs, partial_derivative(f, i, 2).coeffs)

    def test_top_block_telescopes(self):
        # d_i applied to the top block equals the order-(L-1) derivative
        cfg = SpectralConfig.random_instance(4, 2, seed=4)
        rng = np.random.default_rng(2)
        f = random_poly(rng, 2, 3)
        psi = build_psi(f, cfg)
        for i in range(2):
            top = partial_derivative(psi.top_block()[i], i, 1)
            assert np.allclose(top.coeffs, partial_derivative(f, i, cfg.L - 1).coeffs)


class TestUpsilon:
    def test_defining_rows_vanish_identically(self, rng):
        cfg = SpectralConfig.random_instance(4, 2, seed=5)
        system = spectral_reduction(cfg)
        f = random_poly(rng, 2, 3)
        psi = build_psi(f, cfg)
        for _ in range(5):
            pt = distinct_point(rng, 2)
            rows = upsilon_apply(system, psi, draw_complex(rng), pt)
            assert np.max(np.abs(rows[1:])) < 1e-12 * max(1, f.max_abs())

    def test_residual_on_extracted_eigenfunctions(self):
        cfg = SpectralConfig.random_instance(3, 1, seed=6)
        system = spectral_reduction(cfg)
        report = check_eigk(cfg)
        rng = np.random.default_rng(3)
        checked = 0
        for rec in report.records:
            if rec.vanishing:
                continue
            checked += 1
            for _ in range(4):
                pt = distinct_point(rng, 1)
                assert upsilon_residual(system, rec.fbar_fit.poly, rec.delta[cfg.L - 1], pt) < 1e-8
        assert checked > 0

    def test_wrong_eigenvalue_detected(self):
        cfg = SpectralConfig.random_instance(3, 1, seed=7)
        system = spectral_reduction(cfg)
        report = check_eigk(cfg)
        rec = next(r for r in report.records if not r.vanishing)
        rng = np.random.default_rng(4)
        pt = distinct_point(rng, 1)
        good = upsilon_residual(system, rec.fbar_fit.poly, rec.delta[cfg.L - 1], pt)
        bad = upsilon_residual(system, rec.fbar_fit.poly, rec.delta[cfg.L - 1] + 1.0, pt)
        assert good < 1e-8
        assert bad > 1e-3

    def test_pde_row_equivalence(self, rng):
        # the reduction neither loses nor adds anything: its top row equals
        # the unreduced equation evaluated directly
        for (L, n) in [(3, 1), (4, 2)]:
            cfg = SpectralConfig.random_instance(L, n, seed=10 * L + n)
            system = spectral_reduction(cfg)
            for _ in range(5):
                f = random_poly(rng, n, L - 1)
                delta = draw_complex(rng)
                pt = distinct_point(rng, n)
                psi = build_psi(f, cfg)
                row = upsilon_apply(system, psi, delta, pt)[0]
                direct = system.pde_row(f, delta, pt)
                assert abs(row - direct) < 1e-12 * max(1, abs(direct))

    def test_pde_row_matches_closedform_residual_scale(self, rng):
        # consistency with the direct residual checker on an eigenfunction
        cfg = SpectralConfig.random_instance(3, 2, seed=8)
        report = check_eigk(cfg)
        rec = next(r for r in report.records if not r.vanishing)
        assert closedform_residual(cfg, rec.fbar_fit.poly, rec.delta[cfg.L - 1]) < 1e-8

    def test_dimension_mismatch_rejected(self, rng):
        cfg = SpectralConfig.random_instance(4, 2, seed=9)
        system = spectral_reduction(cfg)
        shorter = build_psi(random_poly(rng, 2, 2), SpectralConfig.random_instance(3, 2, seed=9))
        with pytest.raises(UnsupportedShapeError):
            upsilon_apply(system, shorter, 0.0, distinct_point(rng, 2))
