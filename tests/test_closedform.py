"""Closed-form PDE coefficients, solvable small cases, and the operator
comparison that validates every formula at once."""

import numpy as np
import pytest

from bpl.closedform import (
    closedform_operator,
    closedform_residual,
    compare_omega_closedform,
    delta_top_n0,
    elementary_symmetric,
    eval_q,
    eval_v,
    geometric_sum,
    pde_coefficients,
    potential_split,
    psi_branch,
    psi_value,
    special_solutions,
)
from bpl.config import SpectralConfig
from bpl.errors import CoincidentRapiditiesError
from bpl.functional import FnSampler, extract_fbar, lambda_bar_coefficients, spectrum
from bpl.omega import extract_omegas
from bpl.polyengine import MultiPoly
from bpl.suites import SUITES, Artifacts, run_checks

from conftest import draw_complex


def worst_residual(cfg, f, delta) -> float:
    return float(np.max(closedform_residual(cfg, f, delta)[0]))


def closedform_deviations(cfg) -> np.ndarray:
    return compare_omega_closedform(extract_omegas(cfg), closedform_operator(cfg))


def reference_q(coeffs, i, xs) -> complex:
    """Q_i at one point, summed term by term over m, d and l as printed."""
    n, L = coeffs.cfg.n, coeffs.cfg.L
    others = [x for j, x in enumerate(xs) if j != i]
    total = 0.0
    for m in range(L + 1):
        d = L - m
        g = sum(xs[i] ** (d + l) * coeffs.psi_table[l, d] * elementary_symmetric(others, n - 1 - l)
                for l in range(n))
        total += g * coeffs.e_ys[m]
    return coeffs.q_prefactor / np.prod([x - xs[i] for x in others]) * total


def geometric_sum_closed(q: complex, top: int) -> complex:
    """Closed form (1 - q^{top+1}) / (1 - q) of the geometric sum, for every
    integer upper limit."""
    if abs(q - 1.0) < 1e-12:
        return complex(top + 1)
    return (1 - q ** (top + 1)) / (1 - q)


class TestElementaryPieces:
    def test_geometric_sum_forms_agree(self, rng):
        for _ in range(20):
            q = draw_complex(rng)
            top = int(rng.integers(-3, 9))
            assert abs(geometric_sum(q, top) - geometric_sum_closed(q, top)) < 1e-12 * max(
                1, abs(geometric_sum(q, top))
            )

    def test_geometric_sum_continues_below_zero(self):
        q = 2.0 + 1.0j
        assert geometric_sum(q, -1) == 0.0
        assert geometric_sum(q, -2) == pytest.approx(-1 / q, rel=1e-15)
        assert geometric_sum(q, -3) == pytest.approx(-(1 / q + 1 / q**2), rel=1e-15)
        # summed term by term, so exact at q = 1: -(top + 1) terms of -1
        assert geometric_sum(1.0, -4) == -3.0

    def test_elementary_symmetric(self):
        vals = [2.0, 3.0, 5.0]
        assert elementary_symmetric(vals, 0) == 1.0
        assert elementary_symmetric(vals, 1) == pytest.approx(10.0)
        assert elementary_symmetric(vals, 2) == pytest.approx(31.0)
        assert elementary_symmetric(vals, 3) == pytest.approx(30.0)
        assert elementary_symmetric(vals, 4) == 0.0


class TestPsiTable:
    @pytest.mark.parametrize("L", [2, 3, 4, 5, 6])
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_branches_partition_the_grid(self, n, L):
        for l in range(n):
            for d in range(L + 1):
                branch = psi_branch(l, d, n, L)
                threshold = L - (n + 1) + 2 * l
                if d > threshold:
                    assert branch == "above"
                elif d < threshold:
                    assert branch == "below"
                else:
                    assert branch == ("equal-large-L" if L >= 5 else "equal-small-L")

    def test_boundary_branch_split_is_exclusive(self):
        # at the threshold exactly one of the two L-dependent forms fires
        assert psi_branch(0, 0, 2, 3) == "equal-small-L"
        assert psi_branch(0, 3, 2, 6) == "equal-large-L"

    def test_single_variable_two_site_values(self):
        # hand-reduced values for n=1, L=2: psi(0,2) = q^2 (1+q),
        # psi(0,1) = 0 (empty sum), psi(0,0) = -(1+q)
        cfg = SpectralConfig.random_instance(2, 1, seed=3)
        q = cfg.q
        assert abs(psi_value(0, 2, cfg) - q**2 * (1 + q)) < 1e-13 * abs(q**2)
        assert psi_value(0, 1, cfg) == 0.0
        assert abs(psi_value(0, 0, cfg) + (1 + q)) < 1e-13 * abs(1 + q)


class TestPotential:
    def test_vacuum_sector_value(self):
        cfg = SpectralConfig.random_instance(4, 0, seed=5)
        v = eval_v(cfg, [])
        expect = delta_top_n0(cfg)
        assert abs(v - expect) < 1e-13 * abs(expect)

    def test_x_part_vanishes_at_unit_q(self, rng):
        # (q-1)^2 kills the x-dependent piece at q = 1
        ys = np.exp(2 * draw_complex(rng, 3))
        _, slope = potential_split(1.0 + 0.0j, ys, 1, 3)
        assert slope == 0.0

    def test_x_independent_for_two_by_two(self):
        # n=2, L=2 sits on the branch boundary where the geometric sum is
        # empty: the potential does not depend on the variables
        cfg = SpectralConfig.random_instance(2, 2, seed=7)
        coeffs = pde_coefficients(cfg)
        assert coeffs.v_slope == 0.0
        assert abs(eval_v(cfg, [0.3, 0.9]) - eval_v(cfg, [2.4, -1.1])) < 1e-14

    def test_affine_in_coordinate_sum(self, rng):
        # the stored affine map reproduces the printed form
        # V = -2^{-L} prod_k y_k^{-1/2} (v1 + slope * sum_i x_i)
        cfg = SpectralConfig.random_instance(4, 2, seed=9)
        v1, slope = potential_split(cfg.q, cfg.ys, cfg.n, cfg.L)
        xs = draw_complex(rng, 2)
        printed = -(2.0**-cfg.L) / cfg.sqrt_y_prod * (v1 + slope * np.sum(xs))
        assert abs(eval_v(cfg, xs) - printed) < 1e-13 * max(1, abs(printed))


class TestDerivativeCoefficients:
    def test_pole_detection(self):
        cfg = SpectralConfig.random_instance(3, 2, seed=11)
        with pytest.raises(CoincidentRapiditiesError):
            eval_q(cfg, 0, [0.7, 0.7 + 1e-9])

    def test_pole_detection_in_a_later_row_names_the_pair(self, rng):
        cfg = SpectralConfig.random_instance(4, 3, seed=11)
        xs = np.exp(draw_complex(rng, (5, 3)))
        xs[3, 2] = xs[3, 0] + 1e-9
        with pytest.raises(CoincidentRapiditiesError) as info:
            pde_coefficients(cfg)(xs)
        assert set(info.value.pair) == {xs[3, 0], xs[3, 2]}

    @pytest.mark.parametrize("n", [0, 1, 2, 3])
    def test_a_batch_equals_one_call_per_row(self, rng, n):
        cfg = SpectralConfig.random_instance(4, n, seed=60 + n)
        coeffs = pde_coefficients(cfg)
        xs = np.exp(draw_complex(rng, (6, n)) + 0.3 * np.arange(n))
        batch = coeffs(xs)
        assert batch.shape == (6, 1 + n)
        for row, x in zip(batch, xs):
            assert np.array_equal(coeffs(x[None, :])[0], row)
            assert eval_v(cfg, x) == row[0]
            assert [eval_q(cfg, i, x) for i in range(n)] == list(row[1:])
            for i in range(n):
                expect = reference_q(coeffs, i, x)
                assert abs(row[1 + i] - expect) < 1e-12 * abs(expect)

    def test_two_by_two_ratio(self, rng):
        # for n=2, L=2 the two coefficients satisfy Q1/Q2 = -x1/x2
        cfg = SpectralConfig.random_instance(2, 2, seed=13)
        for _ in range(5):
            xs = draw_complex(rng, 2)
            ratio = eval_q(cfg, 0, xs) / eval_q(cfg, 1, xs)
            assert abs(ratio + xs[0] / xs[1]) < 1e-11 * abs(xs[0] / xs[1])

    def test_single_variable_ode_ratio(self, rng):
        # the ODE reconstructed from the extracted operator fixes the ratio
        # (Delta - V)/Q1, which the formulas must reproduce
        cfg = SpectralConfig.random_instance(2, 1, seed=17)
        store = Artifacts(cfg)
        family = store.family
        omega_top_m1 = family.omega(cfg.L - 1)
        k = int(np.flatnonzero(~store.eigk.vanishing)[0])
        fbar = store.fits.coeffs[k]
        delta = store.lam_bars.coeffs[k, cfg.L - 1]
        for _ in range(4):
            x = draw_complex(rng)
            lhs = fbar[1]  # d fbar / dx for a degree-1 polynomial
            rhs = (delta - eval_v(cfg, [x])) / eval_q(cfg, 0, [x]) * MultiPoly(fbar)((x,))
            assert abs(lhs - rhs) < 1e-8 * max(abs(lhs), 1)


class TestClosedFormResidual:
    def test_vacuum_case(self):
        cfg = SpectralConfig.random_instance(3, 0, seed=19)
        sol = special_solutions("n0", cfg)
        assert worst_residual(cfg, sol.eigenfunctions[0], sol.deltas[0]) < 1e-14

    def test_two_site_single_variable_both_signs(self):
        cfg = SpectralConfig.random_instance(2, 1, seed=23)
        sol = special_solutions("n1L2", cfg)
        assert len(sol.eigenfunctions) == 2
        for f, d in zip(sol.eigenfunctions, sol.deltas):
            assert worst_residual(cfg, f, d) < 1e-12

    def test_two_site_two_variable(self):
        cfg = SpectralConfig.random_instance(2, 2, seed=29)
        sol = special_solutions("n2L2", cfg)
        (f,) = sol.eigenfunctions
        (d,) = sol.deltas
        assert worst_residual(cfg, f, d) < 1e-12
        # the eigenvalue collapses to -(y1+y2)/(2 sqrt(y1 y2))
        ys = cfg.ys
        assert abs(d + (ys[0] + ys[1]) / (2 * cfg.sqrt_y_prod)) < 1e-13 * abs(d)

    def test_pde_holds_on_fits_at_l9(self):
        # the PDE is evaluated on the overlap fits, so at L=9 it passes only
        # when the fits are exact to near roundoff
        [record] = run_checks("pde-residual", SpectralConfig.random_instance(9, 2, seed=0))
        assert record.name == "closedform-pde-on-eigenfunctions"
        assert record.passed, record.residual


class TestSpecialSolutionStructure:
    def test_single_variable_solutions_are_linear(self):
        # the square-root-times-exponential form collapses to q x1 +- sqrt(y1 y2)
        cfg = SpectralConfig.random_instance(2, 1, seed=31)
        sol = special_solutions("n1L2", cfg)
        sq = cfg.sqrt_y_prod
        for f, sign in zip(sol.eigenfunctions, (+1, -1)):
            assert f.shape == (2,)
            assert abs(f[1] - cfg.q) < 1e-14
            assert abs(f[0] - sign * sq) < 1e-14 * max(1, abs(sq))

    def test_single_variable_deltas(self):
        cfg = SpectralConfig.random_instance(2, 1, seed=37)
        q, ys, sq = cfg.q, cfg.ys, cfg.sqrt_y_prod
        base = -(1 + q**2) * (ys[0] + ys[1]) / (4 * q * sq)
        shift = (q**2 - 1) ** 2 / (4 * q**2)
        sol = special_solutions("n1L2", cfg)
        assert abs(sol.deltas[0] - (base - shift)) < 1e-13 * abs(base)
        assert abs(sol.deltas[1] - (base + shift)) < 1e-13 * abs(base)

    def test_two_variable_solution_is_bilinear_invariant(self):
        # kappa constant leaves the characteristic invariant:
        # q^2 (y1+y2)(x1+x2) - (1+q^2)(y1 y2 + q^2 x1 x2)
        cfg = SpectralConfig.random_instance(2, 2, seed=41)
        sol = special_solutions("n2L2", cfg)
        (f,) = sol.eigenfunctions
        q, ys = cfg.q, cfg.ys
        assert f.shape == (2, 2)
        assert abs(f[1, 0] - q**2 * (ys[0] + ys[1])) < 1e-12 * abs(q**2)
        assert abs(f[1, 1] + (1 + q**2) * q**2) < 1e-12 * abs(q**2)

    def test_case_validation(self):
        cfg = SpectralConfig.random_instance(3, 1, seed=43)
        with pytest.raises(ValueError):
            special_solutions("n1L2", cfg)
        with pytest.raises(ValueError):
            special_solutions("bogus", cfg)

    def test_deltas_match_joint_spectrum(self):
        # printed eigenvalues coincide with the extracted operator's spectrum
        for case, n in (("n1L2", 1), ("n2L2", 2)):
            cfg = SpectralConfig.random_instance(2, n, seed=47 + n)
            family = extract_omegas(cfg)
            sol = special_solutions(case, cfg)
            joint = family.delta_table[:, cfg.L - 1]
            for d in sol.deltas:
                assert np.min(np.abs(joint - d)) < 1e-8 * max(1, abs(d))


class TestOperatorComparison:
    @pytest.mark.parametrize(
        "L,n", [(2, 1), (3, 1), (4, 1), (2, 2), (3, 2), (4, 2), (3, 3), (4, 3)]
    )
    def test_small_grid(self, L, n):
        cfg = SpectralConfig.random_instance(L, n, seed=1000 + 10 * L + n)
        assert closedform_deviations(cfg).max() < 1e-7

    @pytest.mark.parametrize("n", [1, 2])
    def test_longer_lattice_branch(self, n):
        # L = 5 exercises the large-L boundary branch of the psi table
        cfg = SpectralConfig.random_instance(5, n, seed=2000 + n)
        assert closedform_deviations(cfg).max() < 1e-7

    def test_failing_columns_are_named(self):
        # at L = 7 the "below" branch of psi reaches a geometric sum with
        # upper limit -2 in the top-exponent column; with the continued sum
        # the check passes and names no column
        cfg = SpectralConfig.random_instance(7, 1, seed=0)
        art = Artifacts(cfg)
        [record] = SUITES["omega-compare"](art)
        assert record.passed
        assert record.extra["columns"] == []
        assert compare_omega_closedform(art.family, closedform_operator(cfg)).max() <= 1e-12

    @pytest.mark.parametrize("L,n", [(7, 1), (7, 2), (8, 1), (8, 2), (9, 1)])
    def test_long_lattices_agree(self, L, n):
        # from L = 7 on, the "below" branch of psi reaches geometric sums
        # with upper limits of -2 and lower
        cfg = SpectralConfig.random_instance(L, n, seed=3000 + 10 * L + n)
        assert closedform_deviations(cfg).max() < 1e-7

    def test_eigenfunctions_satisfy_pde(self):
        cfg = SpectralConfig.random_instance(3, 2, seed=53)
        eigs = spectrum(cfg, cfg.n)
        lam_bars = lambda_bar_coefficients(eigs, cfg)
        checked = 0
        for left, coeffs in zip(eigs.lefts, lam_bars.coeffs):
            fbar = extract_fbar(FnSampler(cfg, cfg.n, left)).coeffs[0]
            if np.max(np.abs(fbar)) < 1e-12:
                continue
            checked += 1
            assert worst_residual(cfg, fbar, coeffs[cfg.L - 1]) < 1e-8
        assert checked > 0
