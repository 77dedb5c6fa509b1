"""First-order reduction: block shapes, defining rows, and equivalence with
the unreduced equation."""

import numpy as np
import pytest

from bpl.closedform import closedform_residual
from bpl.config import SpectralConfig
from bpl.errors import UnsupportedShapeError
from bpl import reduction
from bpl.polyengine import derivative_tensor
from bpl.reduction import (
    block_dimensions,
    build_psi,
    spectral_reduction,
    upsilon_apply,
    upsilon_residual,
)
from bpl import suites
from bpl.functional import annulus_points
from bpl.omega import MAX_TENSOR_DIM
from bpl.suites import Artifacts, run_checks, run_checks_timed

from conftest import draw_complex


def random_poly(rng, nvars, m):
    """Coefficient tensor of a random polynomial."""
    return rng.standard_normal((m + 1,) * nvars) + 1j * rng.standard_normal((m + 1,) * nvars)


def distinct_point(rng, nvars):
    return np.array(
        [np.exp(0.4 * (i / max(nvars, 1) - 0.5) + 1j * rng.uniform(0, 2 * np.pi)) for i in range(nvars)]
    )


def distinct_points(rng, count, nvars):
    return np.array([distinct_point(rng, nvars) for _ in range(count)])


class TestShapes:
    def test_dimensions(self):
        assert block_dimensions(3, 1) == (2, 1)
        assert block_dimensions(4, 2) == (5, 2)
        assert block_dimensions(5, 3) == (10, 3)

    def test_two_site_unsupported(self):
        with pytest.raises(UnsupportedShapeError, match="first order"):
            block_dimensions(2, 1)
        with pytest.raises(UnsupportedShapeError, match="order L - 1 = 0"):
            block_dimensions(1, 1)
        cfg = SpectralConfig.random_instance(2, 1, seed=1)
        with pytest.raises(UnsupportedShapeError):
            spectral_reduction(cfg)

    def test_three_site_has_no_padding(self):
        # L = 3: a single derivative block, so the full vector is (head, d_i head)
        cfg = SpectralConfig.random_instance(3, 1, seed=2)
        rng = np.random.default_rng(0)
        f = random_poly(rng, 1, 2)
        psi = build_psi(f, cfg.L)
        assert psi.shape == (2, 3)
        assert np.array_equal(psi[1], derivative_tensor(f, 0))

    def test_chain_matches_repeated_differentiation(self):
        cfg = SpectralConfig.random_instance(4, 2, seed=3)
        rng = np.random.default_rng(1)
        f = random_poly(rng, 2, 3)
        psi = build_psi(f, cfg.L)
        assert psi.shape == (5, 4, 4)
        assert np.array_equal(psi[0], f)
        for i in range(2):
            assert np.allclose(psi[1 + i], derivative_tensor(f, i, 1))
            assert np.allclose(psi[3 + i], derivative_tensor(f, i, 2))

    def test_top_block_telescopes(self):
        # d_i applied to the top block equals the order-(L-1) derivative
        cfg = SpectralConfig.random_instance(4, 2, seed=4)
        rng = np.random.default_rng(2)
        f = random_poly(rng, 2, 3)
        psi = build_psi(f, cfg.L)
        for i in range(2):
            top = derivative_tensor(psi[len(psi) - 2 + i], i, 1)
            assert np.allclose(top, derivative_tensor(f, i, cfg.L - 1))


class TestUpsilon:
    def test_defining_rows_vanish_identically(self, rng):
        cfg = SpectralConfig.random_instance(4, 2, seed=5)
        system = spectral_reduction(cfg)
        f = random_poly(rng, 2, 3)
        rows = upsilon_apply(system, build_psi(f, cfg.L), draw_complex(rng), distinct_points(rng, 5, 2))
        assert rows.shape == (5, 5)
        assert np.max(np.abs(rows[:, 1:])) < 1e-12 * max(1, np.max(np.abs(f)))

    def test_residual_on_extracted_eigenfunctions(self):
        cfg = SpectralConfig.random_instance(3, 1, seed=6)
        system = spectral_reduction(cfg)
        store = Artifacts(cfg)
        rng = np.random.default_rng(3)
        used = [k for k, rec in enumerate(store.eigk.records) if not rec.vanishing]
        assert used
        pts = np.array([distinct_points(rng, 4, 1) for _ in used])
        residual, magnitudes = upsilon_residual(
            system, store.fits.coeffs[used],
            [store.eigk.records[k].delta[cfg.L - 1] for k in used], pts)
        assert residual.shape == (len(used), 4)
        assert magnitudes.shape == (len(used), 4, 3)
        assert np.max(residual) < 1e-8

    def test_several_points_give_the_worst_single_point(self, rng):
        # a batch of points gives, row for row, what one call per point
        # gives, up to the rounding of a batched matrix product
        cfg = SpectralConfig.random_instance(4, 2, seed=5)
        system = spectral_reduction(cfg)
        f = random_poly(rng, 2, 3)
        delta = draw_complex(rng)
        pts = distinct_points(rng, 4, 2)
        (residual,), (magnitudes,) = upsilon_residual(system, f[None], [delta], pts[None])
        rows = upsilon_apply(system, build_psi(f, cfg.L), delta, pts)
        single = [upsilon_residual(system, f[None], [delta], pt[None, None]) for pt in pts]
        assert np.max(residual) == pytest.approx(max(r[0][0, 0] for r in single), rel=1e-12)
        for k, pt in enumerate(pts):
            assert single[k][0][0, 0] == pytest.approx(residual[k], rel=1e-12)
            assert np.allclose(single[k][1][0, 0], magnitudes[k], rtol=1e-12, atol=1e-15)
            one_rows = upsilon_apply(system, build_psi(f, cfg.L), delta, [pt])[0]
            assert np.allclose(one_rows, rows[k], rtol=1e-12, atol=1e-12 * np.max(np.abs(rows[k])))

    @pytest.mark.parametrize("L,n", [(4, 2), (5, 1), (4, 3)])
    def test_batch_equals_one_candidate_and_one_point_at_a_time(self, rng, L, n):
        # a batch of candidates, each with its own delta and points, gives
        # what one call per candidate and point gives, up to the rounding
        # of a batched matrix product
        cfg = SpectralConfig.random_instance(L, n, seed=5)
        system = spectral_reduction(cfg)
        fbars = np.array([random_poly(rng, n, L - 1) for _ in range(3)])
        deltas = [draw_complex(rng) for _ in fbars]
        pts = np.array([distinct_points(rng, 4, n) for _ in fbars])
        residual, magnitudes = upsilon_residual(system, fbars, deltas, pts)
        rows = upsilon_apply(system, build_psi(fbars, cfg.L, n), deltas, pts)
        assert rows.shape == (3, 4, block_dimensions(L, n)[0])
        for f, delta, own, res, mag, own_rows in zip(fbars, deltas, pts, residual, magnitudes, rows):
            for k, pt in enumerate(own):
                single, single_mag = upsilon_residual(system, f[None], [delta], pt[None, None])
                assert single[0, 0] == pytest.approx(res[k], rel=1e-13)
                assert np.allclose(single_mag[0, 0], mag[k], rtol=1e-13, atol=1e-15)
                one_rows = upsilon_apply(system, build_psi(f, cfg.L), delta, [pt])[0]
                assert np.allclose(one_rows, own_rows[k], rtol=1e-13,
                                   atol=1e-13 * np.max(np.abs(own_rows[k])))
            # and the unreduced equation's terms, evaluated directly
            direct, direct_mag = system.residual(f, delta, own)
            assert np.allclose(direct_mag, mag, rtol=1e-12, atol=1e-14)

    def test_chunks_leave_the_residuals_unchanged(self, rng, monkeypatch):
        # one candidate a chunk and one tensor a contraction, against the
        # whole batch in one
        cfg = SpectralConfig.random_instance(4, 2, seed=5)
        system = spectral_reduction(cfg)
        fbars = np.array([random_poly(rng, 2, 3) for _ in range(5)])
        deltas = [draw_complex(rng) for _ in fbars]
        pts = np.array([distinct_points(rng, 3, 2) for _ in fbars])
        whole = upsilon_residual(system, fbars, deltas, pts)
        monkeypatch.setattr(reduction.blockbuild, "BATCH_ENTRIES", 1)
        chunked = upsilon_residual(system, fbars, deltas, pts)
        for got, want in zip(chunked, whole):
            assert np.allclose(got, want, rtol=1e-13, atol=1e-15)

    def test_no_candidates(self):
        system = spectral_reduction(SpectralConfig.random_instance(4, 2, seed=5))
        residual, magnitudes = upsilon_residual(system, np.zeros((0, 4, 4)), [],
                                                np.zeros((0, 3, 2)))
        assert residual.shape == (0, 3) and magnitudes.shape == (0, 3, 4)

    def test_wrong_eigenvalue_detected(self):
        cfg = SpectralConfig.random_instance(3, 1, seed=7)
        system = spectral_reduction(cfg)
        store = Artifacts(cfg)
        k, rec = next((k, r) for k, r in enumerate(store.eigk.records) if not r.vanishing)
        fbar = store.fits.coeffs[k]
        rng = np.random.default_rng(4)
        pt = np.array([distinct_point(rng, 1)])
        delta = rec.delta[cfg.L - 1]
        # one batch: the right Delta and a wrong one at the same point
        (good, bad), _ = upsilon_residual(system, np.array([fbar, fbar]),
                                          [delta, delta + 1.0], np.array([pt, pt]))
        assert good[0] < 1e-8
        assert bad[0] > 1e-3

    def test_pde_row_equivalence(self, rng):
        # the reduction neither loses nor adds anything: its top row equals
        # the unreduced equation evaluated directly
        for (L, n) in [(3, 1), (4, 2)]:
            cfg = SpectralConfig.random_instance(L, n, seed=10 * L + n)
            system = spectral_reduction(cfg)
            for _ in range(5):
                f = random_poly(rng, n, L - 1)
                delta = draw_complex(rng)
                pts = distinct_points(rng, 3, n)
                rows = upsilon_apply(system, build_psi(f, cfg.L), delta, pts)[:, 0]
                direct = np.sum(system.terms(f, pts, delta), axis=-1)
                assert np.all(np.abs(rows - direct) < 1e-12 * np.maximum(1, np.abs(direct)))

    def test_suite_equivalence_check_uses_a_point_per_polynomial(self, monkeypatch):
        # pde-row-equivalence compares each of its 5 random polynomials at
        # its own sample point, all 5 chains in one batch
        seen = []
        original = reduction.upsilon_apply

        def recording(system, psi, delta, points):
            seen.append((psi.shape, np.asarray(points)))
            return original(system, psi, delta, points)

        monkeypatch.setattr(reduction, "upsilon_apply", recording)
        records = run_checks("reduce", SpectralConfig.random_instance(3, 1, seed=0))
        assert records[-1].name == "pde-row-equivalence"
        [(shape, points)] = seen
        assert shape == (2, 5, 3) and points.shape == (5, 1, 1)
        assert len(set(points.ravel().tolist())) == 5

    def test_pde_row_matches_closedform_residual_scale(self, rng):
        # consistency with the direct residual checker on an eigenfunction
        cfg = SpectralConfig.random_instance(3, 2, seed=8)
        store = Artifacts(cfg)
        k, rec = next((k, r) for k, r in enumerate(store.eigk.records) if not r.vanishing)
        residual, _ = closedform_residual(cfg, store.fits.coeffs[k], rec.delta[cfg.L - 1])
        assert np.max(residual) < 1e-8

    def test_dimension_mismatch_rejected(self, rng):
        cfg = SpectralConfig.random_instance(4, 2, seed=9)
        system = spectral_reduction(cfg)
        shorter = build_psi(random_poly(rng, 2, 2), 3)
        with pytest.raises(UnsupportedShapeError):
            upsilon_apply(system, shorter, 0.0, [distinct_point(rng, 2)])


class TestSuite:
    def test_passes_above_the_omega_cap(self):
        # the suite reads the overlap and Lambda_bar fits, not the Omega
        # family, so the family's tensor cap does not bound it
        cfg = SpectralConfig.random_instance(6, 5, seed=0)
        assert cfg.L**cfg.n > MAX_TENSOR_DIM
        records, built = run_checks_timed("reduce", cfg)
        assert set(built) == {"eigs", "fits", "lam_bars"}
        assert [r.name for r in records if r.passed] == ["upsilon-on-eigenfunctions",
                                                         "pde-row-equivalence"]

    @pytest.mark.parametrize("L,n", [(4, 2), (6, 3), (7, 2)])
    def test_upsilon_equals_the_joint_spectral_records(self, L, n):
        # the eigenfunctions and Delta_{L-1} as the joint spectral problems'
        # records carry them, with the suite's tags, give the suite's
        # record bit for bit
        cfg = SpectralConfig.random_instance(L, n, seed=0)
        upsilon = run_checks("reduce", cfg)[0]
        store = Artifacts(cfg)
        used = [(k, r) for k, r in enumerate(store.eigk.records) if not r.vanishing]
        points = np.array([annulus_points(cfg, n, 3, f"reduce-{r.eig_index}-{j + 1}")
                           for j, (_, r) in enumerate(used)])
        residuals, magnitudes = upsilon_residual(
            spectral_reduction(cfg), np.array([store.fits.coeffs[k] for k, _ in used]),
            [r.delta[L - 1] for _, r in used], points)
        worst, extra = suites._worst_point(residuals, magnitudes, [r.eig_index for _, r in used])
        assert upsilon.residual.hex() == worst.hex()
        assert upsilon.extra["eigenfunctions"] == len(used)
        assert upsilon.extra["worst_eig"] == extra["worst_eig"]
        assert [t.hex() for t in upsilon.extra["terms"]] == [t.hex() for t in extra["terms"]]
