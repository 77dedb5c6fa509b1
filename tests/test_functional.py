"""Overlap functions, the linear functional relation, and polynomial parts."""

import dataclasses

import numpy as np
import pytest

from bpl import functional, omega
from bpl.config import SpectralConfig
from bpl.errors import CoincidentRapiditiesError
from bpl.functional import (
    FnSampler,
    annulus_points,
    b_table,
    check_fz_residual,
    extract_fbar,
    extract_fbars,
    fz_coefficients,
    grid_chains,
    lambda_bar_coefficients,
    lbar_x0_nodes,
    spectral_grids,
    spectrum,
)
from bpl.polyengine import grid_points
from bpl.suites import _draws as _suite_draws
from bpl.suites import run_checks
from bpl.ybcore import (
    exchange_m_factors,
    r_matrix,
    sector_indices,
    transfer,
    weight_a,
    weight_b,
    weight_c,
)

from conftest import (
    SWAP,
    bits,
    draw_complex,
    eigenpair_rows,
    reference_chain,
    reference_eigenvalue,
    reference_fbar_fits,
    reference_fz_residual,
    scalar_exchange_m_factors,
    scalar_fz_coefficients,
)


def hand_rolled_b(lam, cfg):
    """Independent two-site construction: multiply the 4x4 site matrices
    explicitly as a 2x2 block product and slice the upper-right block."""
    assert cfg.L == 2
    blocks = []
    for mu in cfg.mu:
        m = SWAP @ r_matrix(lam - mu, cfg.gamma)
        blocks.append(
            {
                "a": m[0:2, 0:2], "b": m[0:2, 2:4],
                "c": m[2:4, 0:2], "d": m[2:4, 2:4],
            }
        )
    s1, s2 = blocks
    return np.kron(s1["a"], s2["b"]) + np.kron(s1["b"], s2["d"])


class TestOverlaps:
    def test_vacuum_overlap_sector_selection(self, cfg2):
        left0 = spectrum(cfg2, 0).lefts[0]
        s0 = FnSampler(cfg2, 0, left0)
        assert abs(s0.value([]) - left0[0]) < 1e-14
        s1 = FnSampler(cfg2, 1, spectrum(cfg2, 1).lefts[0])
        with pytest.warns(UserWarning, match="identically zero"):
            assert s1.value([]) == 0.0

    def test_permutation_symmetry(self, cfg3, rng):
        sampler = FnSampler(cfg3, 2, spectrum(cfg3, 2).lefts[0])
        a, b = draw_complex(rng), draw_complex(rng)
        assert abs(sampler.value([a, b]) - sampler.value([b, a])) < 1e-12

    def test_two_site_hand_algebra(self, cfg2, rng):
        left = spectrum(cfg2, 1).lefts[0]
        sampler = FnSampler(cfg2, 1, left)
        vac = np.array([1.0, 0, 0, 0], dtype=complex)
        for _ in range(3):
            lam = draw_complex(rng)
            direct = left @ (hand_rolled_b(lam, cfg2) @ vac)[sector_indices(2, 1)]
            assert abs(sampler.value([lam]) - direct) < 1e-12 * max(1, abs(direct))


class TestGridChains:
    @pytest.mark.parametrize("L,top,sizes", [(4, 2, (3, 2)), (5, 3, (2, 1, 3)), (3, 3, (1, 1, 1)),
                                              (6, 1, (4,))])
    def test_rows_equal_per_point_chains_in_grid_order(self, L, top, sizes):
        cfg = SpectralConfig.random_instance(L, top, seed=L + top)
        rng = np.random.default_rng(L)
        grids = [draw_complex(rng, (size,)) for size in sizes]
        b_ops = b_table(cfg, np.concatenate(grids), top=top)
        chains = grid_chains([[b_ops[complex(lam)] for lam in grid] for grid in grids])
        points = grid_points(grids)
        assert chains.shape == (len(points), len(sector_indices(L, top)))
        for row, lams in zip(chains, points):
            assert row.tobytes() == reference_chain(b_ops, lams).tobytes()

    def test_no_axes_is_the_vacuum(self):
        assert grid_chains([]).tolist() == [[1.0]]


class TestCoefficients:
    def test_empty_set_gives_vacuum_eigenvalue(self, cfg3, rng):
        lam0 = draw_complex(rng)
        j0, ks = fz_coefficients([lam0], [[]], cfg3)
        assert j0.shape == (1,) and ks.shape == (1, 0)
        pa = np.prod([weight_a(lam0 - m, cfg3.gamma) for m in cfg3.mu])
        pb = np.prod([weight_b(lam0 - m) for m in cfg3.mu])
        assert abs(j0[0] - (pa + pb)) < 1e-13 * abs(pa + pb)

    def test_pole_guard(self, cfg3):
        lam0 = 0.3 + 0.2j
        with pytest.raises(CoincidentRapiditiesError):
            fz_coefficients([lam0], [[lam0 + 1e-9, 0.8]], cfg3)

    def test_independent_reassembly(self, cfg3, rng):
        # recompute J0 and the K's from scratch out of a/b/c ratios
        g = cfg3.gamma
        lam0 = draw_complex(rng)
        lams = [draw_complex(rng) for _ in range(2)]
        j0, ks = (c[0] for c in fz_coefficients([lam0], [lams], cfg3))

        def ratio_a(u, v):
            return weight_a(u - v, g) / weight_b(u - v)

        ma0 = np.prod([ratio_a(l, lam0) for l in lams])
        md0 = np.prod([ratio_a(lam0, l) for l in lams])
        pa0 = np.prod([weight_a(lam0 - m, g) for m in cfg3.mu])
        pb0 = np.prod([weight_b(lam0 - m) for m in cfg3.mu])
        assert abs(j0 - (pa0 * ma0 + pb0 * md0)) < 1e-12 * abs(j0)
        for i, lam in enumerate(lams):
            rest = [t for j, t in enumerate(lams) if j != i]
            ma = weight_c(g) / weight_b(lam - lam0) * np.prod([ratio_a(t, lam) for t in rest])
            md = weight_c(g) / weight_b(lam0 - lam) * np.prod([ratio_a(lam, t) for t in rest])
            pal = np.prod([weight_a(lam - m, g) for m in cfg3.mu])
            pbl = np.prod([weight_b(lam - m) for m in cfg3.mu])
            assert abs(ks[i] - (pal * ma + pbl * md)) < 1e-12 * max(abs(ks[i]), 1)


class TestBatchedCoefficients:
    """The batched exchange and functional-relation coefficients against the
    one-point forms of ``conftest``, bit for bit."""

    @pytest.mark.parametrize("L,n", [(4, 2), (5, 1), (6, 3), (8, 4)])
    def test_lbar_batch_equals_one_point_reference(self, L, n):
        # the whole Lbar batch (x0 nodes x grid points) in one call, read at
        # up to 60 of its entries
        cfg = SpectralConfig.random_instance(L, n, seed=70 + L)
        lam0s, rows = lbar_x0_nodes(cfg), grid_points(spectral_grids(L, n))
        j0, ks = fz_coefficients(lam0s[:, None], rows, cfg)
        factors = exchange_m_factors(lam0s[:, None], rows, cfg.gamma)
        assert j0.shape == (L + 1, L**n) and ks.shape == (L + 1, L**n, n)
        assert [f.shape for f in factors] == [j0.shape, j0.shape, ks.shape, ks.shape]
        picks = np.random.default_rng(L).choice(j0.size, size=min(60, j0.size), replace=False)
        for a, p in zip(*np.unravel_index(picks, j0.shape)):
            ref_j0, ref_ks = scalar_fz_coefficients(lam0s[a], list(rows[p]), cfg)
            assert bits(j0[a, p]) == bits(ref_j0)
            assert bits(ks[a, p]) == bits(ref_ks)
            ref = scalar_exchange_m_factors(lam0s[a], list(rows[p]), cfg.gamma)
            for got, want in zip(factors, ref):
                assert bits(got[a, p]) == bits(want)

    @pytest.mark.parametrize("L,n", [(4, 2), (7, 2), (6, 3), (5, 0)])
    def test_paired_batch_equals_one_point_reference(self, L, n):
        # lam0s (P,) against rows (P, n): lam0 p with row p only
        cfg = SpectralConfig.random_instance(L, n, seed=80 + L)
        draws = draw_complex(np.random.default_rng(L + n), (40, n + 1))
        j0, ks = fz_coefficients(draws[:, 0], draws[:, 1:], cfg)
        factors = exchange_m_factors(draws[:, 0], draws[:, 1:], cfg.gamma)
        assert j0.shape == (40,) and ks.shape == (40, n)
        assert [f.shape for f in factors] == [j0.shape, j0.shape, ks.shape, ks.shape]
        for p, (lam0, *lams) in enumerate(draws):
            ref_j0, ref_ks = scalar_fz_coefficients(lam0, lams, cfg)
            assert bits(j0[p]) == bits(ref_j0)
            assert bits(ks[p]) == bits(ref_ks)
            ref = scalar_exchange_m_factors(lam0, lams, cfg.gamma)
            for got, want in zip(factors, ref):
                assert bits(got[p]) == bits(want)

    def test_paired_pole_guard_names_the_pair_a_loop_would(self, cfg3, rng):
        draws = draw_complex(rng, (6, 3))
        draws[4, 0] = draws[4, 2] + 1e-9
        draws[2, 2] = draws[2, 1] - 1e-9 + 1j * np.pi
        with pytest.raises(CoincidentRapiditiesError) as expected:
            scalar_fz_coefficients(draws[2, 0], list(draws[2, 1:]), cfg3)
        with pytest.raises(CoincidentRapiditiesError) as info:
            fz_coefficients(draws[:, 0], draws[:, 1:], cfg3)
        assert info.value.pair == tuple(expected.value.pair)
        assert info.value.separation == expected.value.separation

    def test_empty_rapidity_list(self, cfg3, rng):
        lam0s = draw_complex(rng, (3,))
        j0, ks = fz_coefficients(lam0s[:, None], np.zeros((2, 0)), cfg3)
        assert j0.shape == (3, 2) and ks.shape == (3, 2, 0)
        for a, lam0 in enumerate(lam0s):
            ref_j0, ref_ks = scalar_fz_coefficients(lam0, [], cfg3)
            assert ref_ks == []
            assert bits(j0[a]) == bits([ref_j0, ref_j0])

    @pytest.mark.parametrize("where", ["rows", "lam0", "rows-ipi", "lam0-ipi", "both"])
    def test_pole_guard_names_the_pair_a_loop_would(self, cfg3, rng, where):
        lam0s = draw_complex(rng, (3,))
        rows = draw_complex(rng, (5, 3))
        if where in ("rows", "both"):
            rows[3, 2] = rows[3, 0] + 1e-9
        if where == "rows-ipi":
            rows[4, 1] = rows[4, 2] + 1j * np.pi
        if where in ("lam0", "both"):
            lam0s[1] = rows[2, 1] - 2e-9
        if where == "lam0-ipi":
            lam0s[2] = rows[0, 2] - 1j * np.pi
        expected = None
        for lam0 in lam0s:
            for row in rows:
                try:
                    scalar_fz_coefficients(lam0, list(row), cfg3)
                except CoincidentRapiditiesError as exc:
                    expected = exc
                    break
            if expected is not None:
                break
        assert expected is not None
        for batched in (lambda: fz_coefficients(lam0s[:, None], rows, cfg3),
                        lambda: exchange_m_factors(lam0s[:, None], rows, cfg3.gamma)):
            with pytest.raises(CoincidentRapiditiesError) as info:
                batched()
            assert info.value.pair == tuple(expected.pair)
            assert info.value.separation == expected.separation


class TestFunctionalRelation:
    def test_vacuum_case_reduces_to_eigenvalue(self, cfg2, rng):
        eigs = spectrum(cfg2, 0)
        lam0 = draw_complex(rng)
        j0 = fz_coefficients([lam0], [[]], cfg2)[0][0]
        assert abs(eigs.eigenvalues(transfer(lam0, cfg2)[0])[0] - j0) < 1e-11 * abs(j0)
        assert check_fz_residual(eigs, [[lam0]])[0] < 1e-12

    @pytest.mark.parametrize("L,n", [(2, 1), (3, 1), (3, 2), (4, 1), (4, 2)])
    def test_full_grid(self, L, n):
        cfg = SpectralConfig.random_instance(L, n, seed=100 * L + n)
        rng = np.random.default_rng(L * 7 + n)
        eigs = spectrum(cfg, n)
        draws = [[draw_complex(rng) for _ in range(n + 1)] for _ in range(5)]
        worst = check_fz_residual(eigs, draws)
        assert worst.shape == (len(eigs),)
        assert np.max(worst) < 1e-8

    @staticmethod
    def _sector_draws(cfg, count=5):
        return list(_suite_draws(cfg, "fz-draws", count, width=cfg.n + 1))

    @pytest.mark.parametrize("L,n", [(3, 1), (4, 2), (7, 2), (6, 3), (9, 3)])
    def test_sector_batch_equals_the_one_eigenpair_loop(self, L, n):
        # the suite's shared draws; one call for the sector against the
        # parent's loop (one eigenpair, one draw and one scalar coefficient
        # at a time, every overlap through FnSampler, every Lambda(lam0)
        # from its own transfer matrix) and against one-eigenpair calls, in
        # reverse order: the same bits
        cfg = SpectralConfig.random_instance(L, n, seed=0)
        eigs = spectrum(cfg, n)
        draws = self._sector_draws(cfg)
        batched = check_fz_residual(eigs, draws)
        reversed_rows = eigenpair_rows(eigs, slice(None, None, -1))
        assert [w.hex() for w in check_fz_residual(reversed_rows, draws)[::-1]] == [
            w.hex() for w in batched]
        for e, worst in enumerate(batched):
            assert worst.hex() == reference_fz_residual(eigs, e, draws).hex()
            assert worst.hex() == check_fz_residual(eigenpair_rows(eigs, [e]), draws)[0].hex()

    @pytest.mark.parametrize("L,n,victim", [(4, 2, 3), (6, 3, 0), (7, 2, 20)])
    def test_error_in_one_left_vector_fails_that_eigenpair_alone(self, L, n, victim):
        # a relative 1e-6 error in one eigenpair's left vector: its relation
        # reads above the gate, every other eigenpair's still below
        cfg = SpectralConfig.random_instance(L, n, seed=0)
        eigs = spectrum(cfg, n)
        lefts = eigs.lefts.copy()
        noise = draw_complex(np.random.default_rng(L), (lefts.shape[1],))
        lefts[victim] += 1e-6 * np.linalg.norm(lefts[victim]) * noise / np.linalg.norm(noise)
        worst = check_fz_residual(dataclasses.replace(eigs, lefts=lefts), self._sector_draws(cfg))
        assert worst[victim] > 1e-8
        assert np.max(np.delete(worst, victim)) < 1e-8

    @pytest.mark.parametrize("L,n", [(3, 1), (4, 2), (6, 3)])
    def test_sign_flip_of_one_k_fails_every_eigenpair(self, L, n, monkeypatch):
        cfg = SpectralConfig.random_instance(L, n, seed=0)
        eigs = spectrum(cfg, n)
        draws = self._sector_draws(cfg)
        assert np.max(check_fz_residual(eigs, draws)) < 1e-8
        original = functional.fz_coefficients

        def flipped(*args):
            j0, ks = original(*args)
            ks = ks.copy()
            ks[..., -1] *= -1
            return j0, ks

        monkeypatch.setattr(functional, "fz_coefficients", flipped)
        assert np.min(check_fz_residual(eigs, draws)) > 1e-8

    @pytest.mark.parametrize("where", ["lam0", "rows", "late"])
    def test_coincident_draw_names_the_pair_the_loop_would(self, where):
        cfg = SpectralConfig.random_instance(4, 2, seed=3)
        eigs = spectrum(cfg, 2)
        draws = self._sector_draws(cfg)
        if where == "lam0":
            draws[3][0] = draws[3][2] + 1e-9
        if where == "rows":
            draws[4][2] = draws[4][1] - 2e-9
        if where == "late":
            draws[2][1] = draws[2][0] + 1e-10
            draws[1][2] = draws[1][1] + 1e-9
        with pytest.raises(CoincidentRapiditiesError) as expected:
            reference_fz_residual(eigs, 0, draws)
        with pytest.raises(CoincidentRapiditiesError) as info:
            check_fz_residual(eigs, draws)
        assert info.value.pair == tuple(expected.value.pair)
        assert info.value.separation == expected.value.separation

    def test_no_eigenpairs(self, cfg3):
        none = eigenpair_rows(spectrum(cfg3, 2), slice(0))
        assert check_fz_residual(none, []).shape == (0,)
        assert check_fz_residual(none, self._sector_draws(cfg3)).shape == (0,)


class TestPolynomialPart:
    def test_vacuum_sector_constant(self, cfg2):
        left = spectrum(cfg2, 0).lefts[0]
        fit = extract_fbar(FnSampler(cfg2, 0, left))
        assert fit.coeffs.shape == (1,)
        assert abs(complex(fit.coeffs[0]) - left[0]) < 1e-14

    def test_holdout_validation(self, cfg3):
        for left in spectrum(cfg3, 2).lefts:
            fit = extract_fbar(FnSampler(cfg3, 2, left))
            assert fit.holdouts[0] < 1e-9
            assert fit.grid_condition < 1e6

    @pytest.mark.parametrize("L,n", [(4, 2), (7, 2), (5, 3), (12, 1), (3, 0)])
    def test_batched_fits_equal_the_per_eigenpair_reference(self, L, n):
        # one interpolation for the whole sector against one per eigenpair,
        # every sample from a per-point chain: the same bits throughout
        cfg = SpectralConfig.random_instance(L, n, seed=0)
        eigs = spectrum(cfg, n)
        fits = extract_fbars(cfg, n, eigs.lefts)
        assert len(fits.coeffs) == len(fits.holdouts) == len(eigs)
        references = reference_fbar_fits(cfg, eigs)
        for fbar, fbar_holdout, (coeffs, cond, holdout) in zip(fits.coeffs, fits.holdouts,
                                                               references):
            assert fbar.shape == coeffs.shape
            assert fbar.tobytes() == np.ascontiguousarray(coeffs).tobytes()
            assert fbar_holdout.hex() == holdout.hex()
            assert fits.grid_condition.hex() == cond.hex()
        # a batch of one is the same fit
        alone = extract_fbar(FnSampler(cfg, n, eigs.lefts[-1]))
        assert alone.coeffs[0].tobytes() == fits.coeffs[-1].tobytes()
        assert alone.holdouts[0].hex() == fits.holdouts[-1].hex()

    def test_degree_bound_certified(self, cfg3, rng):
        # refit with one extra node per axis: the extra coefficients vanish,
        # so the per-variable degree really is L-1
        sampler = FnSampler(cfg3, 1, spectrum(cfg3, 1).lefts[0])
        L = cfg3.L
        nodes = 0.34 * np.arange(L + 1) + 0.21j * np.arange(L + 1)
        vals = np.array(
            [np.exp((L - 1) * lam) * sampler.value([lam]) for lam in nodes]
        )
        coeffs = np.linalg.solve(np.vander(np.exp(2 * nodes), L + 1, increasing=True), vals)
        assert abs(coeffs[L]) < 1e-9 * max(np.max(np.abs(coeffs)), 1)

    def test_eigenvalue_polynomial_degree(self, cfg3, rng):
        # Lambda(lam) e^{L lam} is degree L in x0; an extra sample matches
        eigs = spectrum(cfg3, 1)
        coeffs = lambda_bar_coefficients(eigs, cfg3).coeffs
        lam = draw_complex(rng)
        x0 = np.exp(2 * lam)
        blk = transfer(lam, cfg3)[1]
        for left, right, row in zip(eigs.lefts, eigs.rights, coeffs):
            direct = reference_eigenvalue(left, right, blk) * np.exp(cfg3.L * lam)
            fitted = np.polyval(row[::-1], x0)
            assert abs(direct - fitted) < 1e-9 * max(1, abs(direct))

    @pytest.mark.parametrize("L,n,seed", [(2, 1, 7), (4, 2, 2), (7, 2, 0)])
    def test_corrupted_lambda_bar_node_fails_its_holdout(self, L, n, seed, monkeypatch):
        # Lambda_bar is validated at a held-out x0: doubling the samples at
        # one node moves every eigenpair's fit off the direct value there
        cfg = SpectralConfig.random_instance(L, n, seed=seed)
        eigs = spectrum(cfg, n)
        assert np.max(lambda_bar_coefficients(eigs, cfg).holdouts) < 1e-12
        fit_grid = functional.fit_grid

        def corrupting(values, *args):
            values = values.copy()
            values[:, 0] *= 2
            return fit_grid(values, *args)

        monkeypatch.setattr(functional, "fit_grid", corrupting)
        assert np.min(lambda_bar_coefficients(eigs, cfg).holdouts) > 1e-3

    @pytest.mark.parametrize("L,n", [(9, 2), (10, 2), (12, 1)])
    def test_holdout_passes_where_the_real_line_grid_failed(self, L, n):
        # the largest sizes the CLI accepts, where a fit grid whose Vandermonde
        # condition number grows with L loses the holdout first
        [_, record] = run_checks("fz", SpectralConfig.random_instance(L, n, seed=0))
        assert record.name == "overlap-polynomial-holdout"
        assert record.passed, record.residual
        assert record.extra["grid_condition"] < 1e3


class TestSamplingGeometry:
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_overlap_fit_samples_on_the_lbar_x_nodes(self, n, monkeypatch):
        cfg = SpectralConfig.random_instance(3, n, seed=60 + n)
        lbar_points = []
        action = omega.lbar_action

        def recording_action(cfg_, lam0s, lam_points, evaluate):
            lbar_points.append(np.asarray(lam_points))
            return action(cfg_, lam0s, lam_points, evaluate)

        monkeypatch.setattr(omega, "lbar_action", recording_action)
        omega.build_lbar(cfg)

        fit_grids = []
        samples = functional.overlap_samples

        def recording_samples(lefts, b_ops, lam_grids, L):
            fit_grids.append(lam_grids)
            return samples(lefts, b_ops, lam_grids, L)

        monkeypatch.setattr(functional, "overlap_samples", recording_samples)
        extract_fbar(FnSampler(cfg, n, spectrum(cfg, n).lefts[0]))
        # the grid, then the held-out point
        assert len(fit_grids) == 2 and all(len(g) == 1 for g in fit_grids[1])
        assert np.array_equal(grid_points(fit_grids[0]), lbar_points[0])

    def test_spectral_points_keep_their_formula_and_draw_order(self):
        for L, n in ((3, 1), (4, 2), (7, 3)):
            cfg = SpectralConfig.random_instance(L, n, seed=5)
            rng = cfg.rng("closedform-points")
            expect = np.zeros((12, n), dtype=complex)
            for i in range(n):
                rho = 0.5 * (i / n - 0.5) + 0.05 * rng.uniform(-1, 1, 12)
                theta = rng.uniform(0, 2 * np.pi, 12)
                expect[:, i] = np.exp(rho + 1j * theta)
            got = annulus_points(cfg, n, 12, "closedform-points")
            assert got.tobytes() == expect.tobytes()

    @pytest.mark.parametrize("nvars", range(2, 7))
    def test_coordinates_stay_apart(self, nvars):
        cfg = SpectralConfig.random_instance(nvars, 1, seed=0)
        for tag in ("dwbc-points", "dwbc-upsilon-points", "closedform-points"):
            pts = annulus_points(cfg, nvars, 12, tag)
            gaps = np.abs(pts[:, :, None] - pts[:, None, :])[:, ~np.eye(nvars, dtype=bool)]
            # three decades above the 1e-7 guard of the rational PDE coefficients
            assert gaps.min() > 1e-4
