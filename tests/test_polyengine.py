"""Polynomial engine: evaluation, derivatives, the Taylor realization of
variable substitution, and the shared batched PDE description."""

from math import factorial

import numpy as np
import pytest

from bpl import blockbuild
from bpl.polyengine import (
    MultiPoly,
    PdeSpec,
    derivative_tensor,
    eval_tensors,
    grid_condition,
    tensor_interpolate,
)

from conftest import draw_complex


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

    def test_colliding_nodes_rejected(self):
        with pytest.raises(ValueError, match="regrid"):
            tensor_interpolate(np.zeros(3, dtype=complex), [np.array([1.0, 1.0, 2.0])])

    def test_condition_number_reported(self):
        assert grid_condition(np.exp(2j * np.pi * np.arange(5) / 5)) == pytest.approx(
            1.0, abs=1e-9
        )
