"""Polynomial engine: evaluation, derivatives, the two realizations of
variable substitution, and the shared PDE description."""

import numpy as np
import pytest

from bpl.polyengine import (
    MultiPoly,
    PdeSpec,
    eval_tensors,
    grid_condition,
    partial_derivative,
    substitute,
    taylor_substitution,
    tensor_interpolate,
)

from conftest import draw_complex


def random_poly(rng, nvars, m):
    c = rng.standard_normal((m + 1,) * nvars) + 1j * rng.standard_normal((m + 1,) * nvars)
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
        p = MultiPoly.constant(3, 2, 1.0)
        assert p((4.0, -2.0, 1j)) == 1.0

    def test_bilinear_monomial(self):
        p = MultiPoly.monomial(2, 1, (1, 1))
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
            assert abs(many[k] - p(pts[k])) < 1e-12

    def test_batched_evaluation_matches_scalar_per_polynomial(self, rng):
        coeffs = draw_complex(rng, (2, 3, 4, 4, 4))
        pts = draw_complex(rng, (5, 3))
        many = eval_tensors(coeffs, pts)
        assert many.shape == (2, 3, 5)
        for idx in np.ndindex(2, 3):
            p = MultiPoly(coeffs[idx])
            for k, pt in enumerate(pts):
                assert abs(many[idx + (k,)] - p(pt)) < 1e-12 * max(1, abs(p(pt)))


class TestDerivative:
    def test_power_rule(self):
        p = MultiPoly.monomial(1, 2, (2,))  # x^2
        d = partial_derivative(p, 0)
        assert np.allclose(d.coeffs, [0.0, 2.0, 0.0])

    def test_order_above_bound_is_zero(self, rng):
        p = random_poly(rng, 2, 3)
        d = partial_derivative(p, 1, order=4)
        assert d.max_abs() == 0.0

    def test_central_difference_oracle(self, rng):
        h = 1e-5
        for _ in range(10):
            p = random_poly(rng, 2, 3)
            pt = draw_complex(rng, 2)
            for i in range(2):
                step = np.zeros(2, dtype=complex)
                step[i] = h
                fd = (p(pt + step) - p(pt - step)) / (2 * h)
                assert abs(fd - partial_derivative(p, i)(pt)) < 1e-8

    def test_degree_bound_preserved(self, rng):
        p = random_poly(rng, 2, 3)
        d = partial_derivative(p, 0)
        assert d.coeffs.shape == p.coeffs.shape
        assert np.all(d.coeffs[3, :] == 0)


class TestSubstitution:
    def test_constant_unchanged(self):
        p = MultiPoly.constant(2, 2, 3.5)
        s = substitute(p, 0, 1.7)
        assert np.allclose(s.coeffs, p.coeffs)

    def test_identity_substitution_at_point(self, rng):
        p = random_poly(rng, 2, 3)
        pt = draw_complex(rng, 2)
        s = substitute(p, 0, pt[0])
        assert abs(s(pt) - p(pt)) < 1e-12 * max(1, abs(p(pt)))

    def test_matches_pinned_evaluation(self, rng):
        for _ in range(10):
            p = random_poly(rng, 3, 2)
            alpha = draw_complex(rng)
            pt = draw_complex(rng, 3)
            s = substitute(p, 1, alpha)
            pinned = np.array(pt, dtype=complex)
            pinned[1] = alpha
            assert abs(s(pt) - p(pinned)) < 1e-13 * max(
                1, abs(p(pinned))
            )

    def test_collapses_degree(self, rng):
        p = random_poly(rng, 2, 3)
        s = substitute(p, 0, 0.3 + 0.1j)
        assert np.all(s.coeffs[1:, :] == 0)


class TestTaylorRealization:
    def test_quadratic_exact(self):
        p = MultiPoly.monomial(1, 2, (2,))  # z^2
        alpha = 0.8 - 0.3j
        t = taylor_substitution(p, 0, alpha)
        assert abs(t.coeffs[0] - alpha**2) < 1e-14
        assert np.max(np.abs(t.coeffs[1:])) < 1e-14

    def test_formal_identity_at_own_value(self, rng):
        # replacing a variable by its own value at the sample point is a no-op
        p = random_poly(rng, 2, 2)
        pt = draw_complex(rng, 2)
        t = taylor_substitution(p, 0, pt[0])
        assert abs(t(pt) - p(pt)) < 1e-12

    def test_agrees_with_substitute(self, rng):
        for _ in range(200):
            nvars = int(rng.integers(1, 3))
            m = int(rng.integers(1, 4))
            p = random_poly(rng, nvars, m)
            i = int(rng.integers(0, nvars))
            alpha = draw_complex(rng)
            lhs = taylor_substitution(p, i, alpha)
            rhs = substitute(p, i, alpha)
            assert np.max(np.abs(lhs.coeffs - rhs.coeffs)) < 1e-11 * max(1, rhs.max_abs())

    def test_linearity(self, rng):
        p1 = random_poly(rng, 2, 3)
        p2 = random_poly(rng, 2, 3)
        alpha = draw_complex(rng)
        lhs = taylor_substitution(p1 + p2, 0, alpha)
        rhs = taylor_substitution(p1, 0, alpha) + taylor_substitution(p2, 0, alpha)
        assert np.max(np.abs(lhs.coeffs - rhs.coeffs)) < 1e-12 * max(1, rhs.max_abs())

    def test_distinct_variables_commute(self, rng):
        p = random_poly(rng, 3, 2)
        a0, a1 = draw_complex(rng), draw_complex(rng)
        lhs = substitute(substitute(p, 0, a0), 1, a1)
        rhs = substitute(substitute(p, 1, a1), 0, a0)
        assert np.max(np.abs(lhs.coeffs - rhs.coeffs)) < 1e-12 * max(1, rhs.max_abs())
        lhs_t = taylor_substitution(taylor_substitution(p, 0, a0), 1, a1)
        assert np.max(np.abs(lhs_t.coeffs - rhs.coeffs)) < 1e-11 * max(1, rhs.max_abs())


class TestPdeSpec:
    def test_terms_and_balance_follow_the_equation(self, rng):
        # [V + sum_i Q_i d_i^2] f = Delta f with V = x_0 + x_1, Q_i = x_i^2 + i
        spec = PdeSpec(3, 2, lambda xs: complex(np.sum(xs)), lambda i, xs: xs[i] ** 2 + i)
        f = random_poly(rng, 2, 2)
        pt, delta = draw_complex(rng, 2), draw_complex(rng)
        d2 = [partial_derivative(f, i, 2) for i in range(2)]
        expect = [(pt[0] + pt[1]) * f(pt), pt[0] ** 2 * d2[0](pt), (pt[1] ** 2 + 1) * d2[1](pt)]
        assert np.allclose(spec.terms(f, pt), expect, rtol=1e-14, atol=0)
        row, scale = spec.balance(f, delta, pt)
        assert scale == pytest.approx(max(*(abs(t) for t in expect), abs(delta * f(pt))))
        assert abs(row - (sum(expect) - delta * f(pt))) < 1e-13 * scale
        assert spec.pde_row(f, delta, pt) == row

    def test_residual_vanishes_only_on_a_solution(self, rng):
        # first order (L = 2): -x f + x^2 f' = 0 holds for f = x
        spec = PdeSpec(2, 1, lambda xs: -xs[0], lambda i, xs: xs[0] ** 2)
        f = MultiPoly.monomial(1, 1, (1,))
        points = draw_complex(rng, (6, 1))
        assert spec.residual(f, 0.0, points) < 1e-15
        assert spec.residual(f, 1.0, points) > 0.1


class TestInterpolation:
    def test_round_trip(self, rng):
        p = random_poly(rng, 2, 3)
        nodes = [draw_complex(rng, 4) + np.arange(4) for _ in range(2)]
        vals = np.array(
            [[p((a, b)) for b in nodes[1]] for a in nodes[0]]
        )
        coeffs = tensor_interpolate(vals, nodes)
        assert np.max(np.abs(coeffs - p.coeffs)) < 1e-9 * max(1, p.max_abs())

    def test_batch_axes(self, rng):
        p1 = random_poly(rng, 1, 2)
        p2 = random_poly(rng, 1, 2)
        nodes = np.array([1.0, 2.0, 3.5])
        vals = np.stack([p1.eval_many(nodes[:, None]), p2.eval_many(nodes[:, None])])
        coeffs = tensor_interpolate(vals, [nodes])
        assert np.allclose(coeffs[0], p1.coeffs)
        assert np.allclose(coeffs[1], p2.coeffs)

    def test_colliding_nodes_rejected(self):
        with pytest.raises(ValueError, match="regrid"):
            tensor_interpolate(np.zeros(3, dtype=complex), [np.array([1.0, 1.0, 2.0])])

    def test_condition_number_reported(self):
        assert grid_condition(np.exp(2j * np.pi * np.arange(5) / 5)) == pytest.approx(
            1.0, abs=1e-9
        )
