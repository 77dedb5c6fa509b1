"""Polynomial engine: evaluation, derivatives, the Taylor realization of
variable substitution, and the shared batched PDE description."""

from math import factorial

import numpy as np
import pytest

from bpl import blockbuild, polyengine
from bpl.config import SpectralConfig
from bpl.dwbc import MAX_PARTITION_L, extract_zbar
from bpl.functional import circle_grid, extract_fbars, lambda_bar_coefficients, spectral_grids
from bpl.omega import build_lbar
from bpl.polyengine import (
    MultiPoly,
    PdeSpec,
    derivative_tensor,
    eval_grid,
    eval_tensors,
    fit_grid,
    grid_condition,
    grid_points,
    tensor_interpolate,
    vandermonde,
)
from bpl.ybcore import spectrum

from conftest import draw_complex, reference_holdouts, reference_interpolate


def random_poly(rng, nvars, m):
    c = rng.standard_normal((m + 1,) * nvars) + 1j * rng.standard_normal((m + 1,) * nvars)
    return MultiPoly(c)


def monomial(nvars, m, exponents):
    c = np.zeros((m + 1,) * nvars, dtype=complex)
    c[tuple(exponents)] = 1.0
    return MultiPoly(c)


def naive_eval(p, point):
    """Independent oracle: explicit monomial double loop."""
    total = 0.0 + 0.0j
    for idx in np.ndindex(p.coeffs.shape):
        term = p.coeffs[idx]
        for i, e in enumerate(idx):
            term *= point[i] ** e
        total += term
    return total


class TestEvaluation:
    def test_constant(self):
        c = np.zeros((3, 3, 3))
        c[0, 0, 0] = 1.0
        p = MultiPoly(c)
        assert p((4.0, -2.0, 1j)) == 1.0

    def test_bilinear_monomial(self):
        p = monomial(2, 1, (1, 1))
        assert p((2.0, 3.0)) == pytest.approx(6.0)

    def test_matches_naive_monomial_sum(self, rng):
        for _ in range(20):
            p = random_poly(rng, 3, 3)
            pt = draw_complex(rng, 3)
            assert abs(p(pt) - naive_eval(p, pt)) < 1e-13 * max(1, abs(naive_eval(p, pt)))

    def test_eval_many_matches_scalar(self, rng):
        p = random_poly(rng, 2, 4)
        pts = draw_complex(rng, (7, 2))
        many = p.eval_many(pts)
        for k in range(7):
            assert abs(many[k] - naive_eval(p, pts[k])) < 1e-12

    def test_batched_evaluation_matches_scalar_per_polynomial(self, rng):
        coeffs = draw_complex(rng, (2, 3, 4, 4, 4))
        pts = draw_complex(rng, (5, 3))
        many = eval_tensors(coeffs, pts)
        assert many.shape == (2, 3, 5)
        for idx in np.ndindex(2, 3):
            p = MultiPoly(coeffs[idx])
            for k, pt in enumerate(pts):
                expect = naive_eval(p, pt)
                assert abs(many[idx + (k,)] - expect) < 1e-12 * max(1, abs(expect))

    def test_constant_polynomial_takes_the_empty_point(self):
        assert MultiPoly(np.array(2.5 + 1j))(()) == 2.5 + 1j
        with pytest.raises(ValueError, match="coordinates"):
            random_poly(np.random.default_rng(0), 2, 1)((1.0,))


class TestDerivative:
    def test_power_rule(self):
        p = monomial(1, 2, (2,))  # x^2
        assert np.allclose(derivative_tensor(p.coeffs, 0), [0.0, 2.0, 0.0])

    def test_order_above_bound_is_zero(self, rng):
        p = random_poly(rng, 2, 3)
        assert np.max(np.abs(derivative_tensor(p.coeffs, 1, order=4))) == 0.0

    def test_central_difference_oracle(self, rng):
        h = 1e-5
        for _ in range(10):
            p = random_poly(rng, 2, 3)
            pt = draw_complex(rng, 2)
            for i in range(2):
                step = np.zeros(2, dtype=complex)
                step[i] = h
                fd = (p(pt + step) - p(pt - step)) / (2 * h)
                assert abs(fd - MultiPoly(derivative_tensor(p.coeffs, i))(pt)) < 1e-8

    def test_degree_bound_preserved(self, rng):
        p = random_poly(rng, 2, 3)
        d = derivative_tensor(p.coeffs, 0)
        assert d.shape == p.coeffs.shape
        assert np.all(d[3, :] == 0)

    def test_batch_axes_ride_along(self, rng):
        coeffs = draw_complex(rng, (3, 4, 4))
        d = derivative_tensor(coeffs, 2, order=2)
        for k in range(3):
            assert np.array_equal(d[k], derivative_tensor(coeffs[k], 1, order=2))

    def test_negative_axis_counts_from_the_end(self, rng):
        coeffs = draw_complex(rng, (3, 4, 5))
        for axis in range(3):
            assert np.array_equal(derivative_tensor(coeffs, axis - 3, order=2),
                                  derivative_tensor(coeffs, axis, order=2))

    def test_taylor_series_realises_substitution(self, rng):
        # on the bounded space, sum_k (alpha - z_i)^k / k! d^k/dz_i^k p is p
        # with z_i replaced by alpha: the differential realization of x_i -> x0
        for _ in range(20):
            nvars, m = int(rng.integers(1, 4)), int(rng.integers(1, 4))
            p = random_poly(rng, nvars, m)
            i, alpha, pt = int(rng.integers(0, nvars)), draw_complex(rng), draw_complex(rng, nvars)
            taylor = sum(
                (alpha - pt[i]) ** k / factorial(k) * MultiPoly(derivative_tensor(p.coeffs, i, k))(pt)
                for k in range(m + 1)
            )
            pinned = np.array(pt, dtype=complex)
            pinned[i] = alpha
            assert abs(taylor - p(pinned)) < 1e-11 * max(1, abs(p(pinned)))


def sum_and_squares(xs):
    """V = x_0 + x_1 and Q_i = x_i^2 + i at every point."""
    return np.column_stack([xs.sum(axis=1), xs[:, 0] ** 2, xs[:, 1] ** 2 + 1])


class TestPdeSpec:
    def test_terms_and_balance_follow_the_equation(self, rng):
        # [V + sum_i Q_i d_i^2] f = Delta f with V = x_0 + x_1, Q_i = x_i^2 + i
        spec = PdeSpec(3, 2, sum_and_squares)
        f = random_poly(rng, 2, 2)
        pts, delta = draw_complex(rng, (4, 2)), draw_complex(rng)
        d2 = [MultiPoly(derivative_tensor(f.coeffs, i, 2)) for i in range(2)]
        for pt, terms, row, scale in zip(pts, spec.terms(f.coeffs, pts),
                                         *spec.balance(f.coeffs, delta, pts)):
            expect = [(pt[0] + pt[1]) * naive_eval(f, pt), pt[0] ** 2 * naive_eval(d2[0], pt),
                      (pt[1] ** 2 + 1) * naive_eval(d2[1], pt), -delta * naive_eval(f, pt)]
            assert np.allclose(terms, expect[:3], rtol=1e-14, atol=0)
            assert np.allclose(row, expect, rtol=1e-14, atol=0)
            assert scale == pytest.approx(max(abs(t) for t in expect))
            assert abs(row.sum() - sum(expect)) < 1e-13 * scale
        residual, magnitudes = spec.residual(f.coeffs, delta, pts)
        terms, scale = spec.balance(f.coeffs, delta, pts)
        assert np.array_equal(residual, np.abs(terms.sum(axis=-1)) / scale)
        assert np.max(magnitudes, axis=-1) == pytest.approx(np.ones(4))

    def test_residual_vanishes_only_on_a_solution(self, rng):
        # first order (L = 2): -x f + x^2 f' = 0 holds for f = x
        spec = PdeSpec(2, 1, lambda xs: np.column_stack([-xs[:, 0], xs[:, 0] ** 2]))
        f = monomial(1, 1, (1,))
        points = draw_complex(rng, (6, 1))
        assert np.max(spec.residual(f.coeffs, 0.0, points)[0]) < 1e-15
        assert np.max(spec.residual(f.coeffs, 1.0, points)[0]) > 0.1

    def test_stacked_tensors_equal_per_tensor_calls(self, rng):
        spec = PdeSpec(3, 2, sum_and_squares)
        coeffs = draw_complex(rng, (2, 3, 3, 3))
        deltas = draw_complex(rng, (2, 3))
        pts = draw_complex(rng, (5, 2))
        stacked = spec.terms(coeffs, pts, deltas)
        assert stacked.shape == (2, 3, 5, 4)
        for idx in np.ndindex(2, 3):
            single = spec.terms(coeffs[idx], pts, deltas[idx])
            assert np.max(np.abs(stacked[idx] - single)) <= 1e-14 * np.max(np.abs(single))


def spectral_node_sets(L, n):
    """The x nodes of the spectral fits, then the x0 nodes of Lbar."""
    return ([np.exp(2 * g) for g in spectral_grids(L, n)]
            + [np.exp(2 * circle_grid(L + 1, slot=0, nslots=n + 1))])


class TestGridEvaluation:
    @pytest.mark.parametrize("L,n", [(3, 1), (4, 2), (6, 3), (7, 2)])
    def test_equals_the_point_evaluation_at_the_grid_points(self, L, n, rng):
        # on the x grid and with each axis in turn at the L + 1 x0 nodes
        *x_grids, x0s = spectral_node_sets(L, n)
        coeffs = draw_complex(rng, (3,) + (L,) * n)
        for grids in [x_grids] + [x_grids[:i] + [x0s] + x_grids[i + 1:] for i in range(n)]:
            got = eval_grid(coeffs, grids)
            assert got.shape == (3,) + tuple(len(g) for g in grids)
            ref = eval_tensors(coeffs, grid_points(grids))
            assert np.max(np.abs(got.reshape(ref.shape) - ref)) <= 1e-14 * np.max(np.abs(ref))

    def test_rectangular_axes_and_no_batch(self, rng):
        # node sets longer and shorter than the box
        coeffs = draw_complex(rng, (2, 5))
        grids = [np.array([0.5, -1.0, 2.0]), np.array([1.5, 0.25])]
        got = eval_grid(coeffs, grids)
        assert got.shape == (3, 2)
        p = MultiPoly(coeffs)
        for (a, b), value in zip(grid_points(grids), got.ravel()):
            assert abs(value - naive_eval(p, (a, b))) <= 1e-13 * abs(naive_eval(p, (a, b)))


class TestInterpolation:
    def test_round_trip(self, rng):
        p = random_poly(rng, 2, 3)
        nodes = [draw_complex(rng, 4) + np.arange(4) for _ in range(2)]
        vals = np.array(
            [[p((a, b)) for b in nodes[1]] for a in nodes[0]]
        )
        coeffs = tensor_interpolate(vals, nodes)
        assert np.max(np.abs(coeffs - p.coeffs)) < 1e-9 * max(1, np.max(np.abs(p.coeffs)))

    def test_batch_axes(self, rng):
        p1 = random_poly(rng, 1, 2)
        p2 = random_poly(rng, 1, 2)
        nodes = np.array([1.0, 2.0, 3.5])
        vals = np.stack([p1.eval_many(nodes[:, None]), p2.eval_many(nodes[:, None])])
        coeffs = tensor_interpolate(vals, [nodes])
        assert np.allclose(coeffs[0], p1.coeffs)
        assert np.allclose(coeffs[1], p2.coeffs)

    def test_chunked_batch_equals_unchunked_solves(self, rng, monkeypatch):
        # 9 entries of 16**3 values under the 2**15-value budget: chunks of
        # 8 entries and a last chunk of 1
        assert blockbuild.BATCH_ENTRIES == 2**15
        nodes = [np.exp(2j * np.pi * (np.arange(16) + 0.1 * k) / 16) * (1 + 0.2 * k)
                 for k in range(3)]
        vals = rng.standard_normal((9, 16, 16, 16)) + 1j * rng.standard_normal((9, 16, 16, 16))
        got = tensor_interpolate(vals, nodes)
        assert got.shape == vals.shape
        for i in range(9):
            assert got[i].tobytes() == tensor_interpolate(vals[i], nodes).tobytes()
        monkeypatch.setattr(blockbuild, "BATCH_ENTRIES", 10**9)
        assert got.tobytes() == tensor_interpolate(vals, nodes).tobytes()
        # a budget below one entry still solves an entry per chunk
        monkeypatch.setattr(blockbuild, "BATCH_ENTRIES", 1)
        assert got.tobytes() == tensor_interpolate(vals, nodes).tobytes()

    @pytest.mark.parametrize("L", range(1, 13))
    def test_inverse_products_match_the_solve_reference(self, L, rng):
        # the spectral x and x0 nodes and the Zbar nodes: every node set
        # the pipeline fits on is conditioned well enough that one product
        # with the inverse keeps what the solve keeps
        node_sets = spectral_node_sets(L, 2)
        if L <= MAX_PARTITION_L:
            node_sets += [np.exp(2 * circle_grid(L, slot=i, nslots=L)) for i in range(L)]
            node_sets.append(np.exp(2 * circle_grid(L + 1, slot=L, nslots=L + 1)))
        for nodes in node_sets:
            assert grid_condition(nodes) <= 53
        for grids in (node_sets[:2], node_sets[2:3], node_sets[-2:]):
            shape = (4,) + tuple(len(g) for g in grids)
            vals = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
            got, ref = tensor_interpolate(vals, grids), reference_interpolate(vals, grids)
            assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))

    def test_colliding_nodes_rejected(self):
        # a failed check is not cached: every call with the nodes raises
        for _ in range(2):
            with pytest.raises(ValueError, match="regrid"):
                tensor_interpolate(np.zeros(3, dtype=complex), [np.array([1.0, 1.0, 2.0])])

    def test_condition_number_reported(self):
        assert grid_condition(np.exp(2j * np.pi * np.arange(5) / 5)) == pytest.approx(
            1.0, abs=1e-9
        )


def pipeline_node_sets(L):
    """Every node set ``test_inverse_products_match_the_solve_reference``
    fits on at L: the spectral x and x0 nodes at n = 2, then the Zbar nodes."""
    node_sets = spectral_node_sets(L, 2)
    if L <= MAX_PARTITION_L:
        node_sets += [np.exp(2 * circle_grid(L, slot=i, nslots=L)) for i in range(L)]
        node_sets.append(np.exp(2 * circle_grid(L + 1, slot=L, nslots=L + 1)))
    return node_sets


class TestGeometryCache:
    def test_cached_geometry_equals_a_fresh_inverse_and_condition(self):
        for nodes in pipeline_node_sets(4) + pipeline_node_sets(7):
            v = vandermonde(nodes, len(nodes) - 1)
            inverse, condition = polyengine._geometry(nodes.tobytes())
            assert inverse.tobytes() == np.linalg.inv(v).tobytes()
            assert grid_condition(nodes).hex() == condition.hex()
            assert condition.hex() == float(np.linalg.cond(v)).hex()

    def test_cached_inverse_is_read_only(self):
        nodes = spectral_node_sets(4, 2)[0]
        tensor_interpolate(np.ones(len(nodes), dtype=complex), [nodes])
        inverse = polyengine._geometry(nodes.tobytes())[0]
        with pytest.raises(ValueError, match="read-only"):
            inverse[0, 0] = 0.0

    def test_cache_stays_within_its_bound(self):
        bound = polyengine._geometry.cache_info().maxsize
        assert bound is not None
        polyengine._geometry.cache_clear()
        distinct = set()
        for L in range(1, 13):
            for nodes in pipeline_node_sets(L):
                tensor_interpolate(np.ones(len(nodes), dtype=complex), [nodes])
                distinct.add(nodes.tobytes())
                assert polyengine._geometry.cache_info().currsize <= bound
        # more node sets than the bound, so the oldest were evicted
        assert len(distinct) > bound
        assert polyengine._geometry.cache_info().currsize == bound

    @pytest.mark.parametrize("L,n", [(4, 2), (7, 2)])
    def test_cold_and_warm_cache_give_the_same_fits(self, L, n):
        cfg = SpectralConfig.random_instance(L, n, seed=0)
        eigs = spectrum(cfg, n)

        def fits():
            fields = lambda fit: [fit.coeffs, fit.grid_condition, fit.holdouts]
            lbar = build_lbar(cfg)
            out = (fields(extract_fbars(cfg, n, eigs.lefts))
                   + fields(lambda_bar_coefficients(eigs, cfg))
                   + [lbar.coefficient_matrices, lbar.polynomiality_residual,
                      lbar.symmetry_defect, lbar.grid_condition])
            if L <= MAX_PARTITION_L:
                zbar = extract_zbar(cfg)
                out += fields(zbar.fit) + [zbar.symmetry_defect, zbar.top_coefficient]
            return [np.asarray(x).tobytes() for x in out]

        polyengine._geometry.cache_clear()
        cold = fits()
        misses = polyengine._geometry.cache_info().misses
        assert misses > 0
        assert fits() == cold
        assert polyengine._geometry.cache_info().misses == misses


class TestFitGridHoldouts:
    @staticmethod
    def fit(rng, values, grids):
        held_x = draw_complex(rng, len(grids))
        held_values = draw_complex(rng, len(values))
        fit = fit_grid(values, grids, held_x, held_values)
        return fit, reference_holdouts(fit.coeffs, held_x, held_values)

    @pytest.mark.parametrize("axes", range(5))
    def test_equal_the_per_entry_loop_bit_for_bit(self, axes, rng):
        for count in range(1, 31):
            sizes = rng.integers(1, 6 if axes < 4 else 4, axes)
            grids = [draw_complex(rng, int(m)) + np.arange(m) for m in sizes]
            values = draw_complex(rng, (count,) + tuple(int(m) for m in sizes))
            fit, ref = self.fit(rng, values, grids)
            assert [h.hex() for h in fit.holdouts] == [h.hex() for h in ref]

    def test_strided_values_and_held_values(self, rng):
        # an entry axis that is not the outermost, and held values read
        # from a column of the same array, as the Lambda_bar fit passes them
        grids = [draw_complex(rng, 5) + np.arange(5), draw_complex(rng, 4) + np.arange(4)]
        base = draw_complex(rng, (5, 12, 4))
        values = np.moveaxis(base, 1, 0)
        assert not values.flags.c_contiguous
        held_x = draw_complex(rng, 2)
        fit = fit_grid(values, grids, held_x, base[0, :, 0])
        ref = reference_holdouts(fit.coeffs, held_x, base[0, :, 0])
        assert [h.hex() for h in fit.holdouts] == [h.hex() for h in ref]
        columns = draw_complex(rng, (9, 6))
        fit = fit_grid(columns[:, :-1], [grids[0]], held_x[:1], columns[:, -1])
        ref = reference_holdouts(fit.coeffs, held_x[:1], columns[:, -1])
        assert [h.hex() for h in fit.holdouts] == [h.hex() for h in ref]

    def test_lbar_and_zbar_shapes(self, rng):
        # Lbar at L = 7, n = 2: 28 basis images on the 8 x0 nodes and two
        # 7-node x axes; Zbar at L = 4: one entry on four 4-node axes
        *x_grids, x0s = spectral_node_sets(7, 2)
        zgrids = [np.exp(2 * circle_grid(4, slot=i, nslots=4)) for i in range(4)]
        for count, grids in ((28, [x0s] + x_grids), (1, zgrids)):
            values = draw_complex(rng, (count,) + tuple(len(g) for g in grids))
            fit, ref = self.fit(rng, values, grids)
            assert fit.coeffs.shape == values.shape
            assert [h.hex() for h in fit.holdouts] == [h.hex() for h in ref]
