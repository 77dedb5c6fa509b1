"""Dense multivariate polynomial arithmetic on degree-bounded spaces.

A polynomial in ``n`` variables with per-variable degree bound ``m`` is a
coefficient tensor of shape ``(m+1,)*n``.  ``PdeSpec`` is the
one description of the order-(L-1) linear PDE that the closed form, its
first-order reduction and the domain-wall equation share.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb, factorial
from typing import Callable

import numpy as np

_EINSUM_LETTERS = "abcdefghijkl"


@dataclass(frozen=True)
class MultiPoly:
    """Polynomial with complex coefficients and a shared per-variable bound."""

    coeffs: np.ndarray

    def __post_init__(self):
        c = np.asarray(self.coeffs, dtype=complex)
        if c.ndim > 0 and len(set(c.shape)) > 1:
            raise ValueError(f"coefficient tensor must be hypercubic, got {c.shape}")
        if not (np.isfinite(c.real).all() and np.isfinite(c.imag).all()):
            raise ValueError("coefficients must be finite")
        object.__setattr__(self, "coeffs", c)

    @property
    def nvars(self) -> int:
        return self.coeffs.ndim

    @property
    def degree_bound(self) -> int:
        return 0 if self.coeffs.ndim == 0 else self.coeffs.shape[0] - 1

    @classmethod
    def zero(cls, nvars: int, degree_bound: int) -> "MultiPoly":
        return cls(np.zeros((degree_bound + 1,) * nvars, dtype=complex))

    @classmethod
    def constant(cls, nvars: int, degree_bound: int, value: complex) -> "MultiPoly":
        p = cls.zero(nvars, degree_bound)
        p.coeffs[(0,) * nvars] = value
        return p

    @classmethod
    def monomial(cls, nvars: int, degree_bound: int, exponents) -> "MultiPoly":
        p = cls.zero(nvars, degree_bound)
        p.coeffs[tuple(exponents)] = 1.0
        return p

    def __call__(self, point) -> complex:
        """Evaluate by Horner recursion over one variable at a time."""
        point = [complex(z) for z in (point if np.ndim(point) else [point])] if self.nvars else []
        if len(point) != self.nvars:
            raise ValueError(f"point must have {self.nvars} coordinates")
        acc = self.coeffs
        for z in reversed(point):
            out = acc[..., -1]
            for k in range(acc.shape[-1] - 2, -1, -1):
                out = out * z + acc[..., k]
            acc = out
        return complex(acc)

    def eval_many(self, points: np.ndarray) -> np.ndarray:
        """Vectorised evaluation; ``points`` has shape (npoints, nvars)."""
        points = np.asarray(points, dtype=complex)
        if self.nvars == 0:
            return np.full(len(points), complex(self.coeffs))
        if points.ndim != 2 or points.shape[1] != self.nvars:
            raise ValueError(f"expected points of shape (P, {self.nvars})")
        m = self.degree_bound
        letters = _EINSUM_LETTERS[: self.nvars]
        spec = ",".join(f"p{c}" for c in letters) + f",{letters}->p"
        powers = [np.vander(points[:, i], m + 1, increasing=True) for i in range(self.nvars)]
        return np.einsum(spec, *powers, self.coeffs)

    def max_abs(self) -> float:
        return float(np.max(np.abs(self.coeffs))) if self.coeffs.size else 0.0

    def __add__(self, other: "MultiPoly") -> "MultiPoly":
        return MultiPoly(self.coeffs + other.coeffs)

    def __sub__(self, other: "MultiPoly") -> "MultiPoly":
        return MultiPoly(self.coeffs - other.coeffs)

    def __mul__(self, scalar: complex) -> "MultiPoly":
        return MultiPoly(self.coeffs * scalar)

    __rmul__ = __mul__


def partial_derivative(p: MultiPoly, i: int, order: int = 1) -> MultiPoly:
    """Exact coefficient-shift differentiation; the degree bound is kept and
    the vacated top coefficients are zero."""
    if order < 0:
        raise ValueError("order must be non-negative")
    c = p.coeffs
    m = p.degree_bound
    for _ in range(order):
        shifted = np.zeros_like(c)
        if m >= 1:
            idx_src = [slice(None)] * p.nvars
            idx_dst = [slice(None)] * p.nvars
            idx_src[i] = slice(1, m + 1)
            idx_dst[i] = slice(0, m)
            factors = np.arange(1, m + 1).reshape(
                [-1 if ax == i else 1 for ax in range(p.nvars)]
            )
            shifted[tuple(idx_dst)] = c[tuple(idx_src)] * factors
        c = shifted
    return MultiPoly(c)


def substitute(p: MultiPoly, i: int, alpha: complex) -> MultiPoly:
    """Pin variable i to the value alpha.

    The arity is kept: the result has degree 0 in the substituted variable,
    which keeps it directly comparable with the differential realization.
    """
    c = p.coeffs
    m = p.degree_bound
    moved = np.moveaxis(c, i, -1)
    out = moved[..., -1]
    for k in range(m - 1, -1, -1):
        out = out * alpha + moved[..., k]
    res = np.zeros_like(c)
    res_view = np.moveaxis(res, i, -1)
    res_view[..., 0] = out
    return MultiPoly(res)


def taylor_substitution(p: MultiPoly, i: int, alpha: complex) -> MultiPoly:
    """Differential realization of variable replacement on the bounded space:

        sum_{k=0}^{m} (alpha - z_i)^k / k!  d^k/dz_i^k

    Exact (up to roundoff) on polynomials within the degree bound; every term
    stays inside the bound because the k-th derivative loses k degrees before
    the degree-k prefactor multiplies back in.
    """
    m = p.degree_bound
    acc = np.zeros_like(p.coeffs)
    for k in range(m + 1):
        dk = partial_derivative(p, i, k).coeffs
        # multiply by (alpha - z_i)^k, expanded along axis i
        term = np.zeros_like(dk)
        for j in range(k + 1):
            coef = comb(k, j) * alpha ** (k - j) * (-1.0) ** j / factorial(k)
            if j == 0:
                term += coef * dk
            else:
                idx_src = [slice(None)] * p.nvars
                idx_dst = [slice(None)] * p.nvars
                idx_src[i] = slice(0, m + 1 - j)
                idx_dst[i] = slice(j, m + 1)
                term[tuple(idx_dst)] += coef * dk[tuple(idx_src)]
        acc += term
    return MultiPoly(acc)


# -- the order-(L-1) linear PDE ---------------------------------------------------

@dataclass(frozen=True)
class PdeSpec:
    """The equation [ V + sum_i Q_i d^{L-1}/dx_i^{L-1} ] F = Delta F.

    The closed-form spectral PDE, its first-order reduction and the
    domain-wall equation (Delta = 0) differ only in their coefficients, so
    this is the one description all of them evaluate.  ``nvars`` is the
    number of variables (n for the spectral problem, L for domain walls),
    ``length`` the lattice length L fixing the derivative order L-1, and
    ``potential(xs)`` and ``derivative_coeff(i, xs)`` evaluate V and Q_i at
    a point.
    """

    length: int
    nvars: int
    potential: Callable[[np.ndarray], complex]
    derivative_coeff: Callable[[int, np.ndarray], complex]

    def derivatives(self, f: MultiPoly) -> list[MultiPoly]:
        """d^{L-1} f / dx_i^{L-1} for every variable, in order."""
        return [partial_derivative(f, i, self.length - 1) for i in range(self.nvars)]

    def coefficients(self, point) -> list[complex]:
        """[V, Q_0, ..., Q_{nvars-1}] at one point."""
        point = np.asarray(point, dtype=complex)
        return [self.potential(point)] + [
            self.derivative_coeff(i, point) for i in range(self.nvars)
        ]

    def terms(self, f: MultiPoly, point, derivs=None) -> list[complex]:
        """The left-hand-side terms [V f, Q_0 d_0^{L-1} f, ...] at one point.

        ``derivs`` takes ``derivatives(f)`` when many points share them.
        """
        point = np.asarray(point, dtype=complex)
        if derivs is None:
            derivs = self.derivatives(f)
        return [c * g(point) for c, g in zip(self.coefficients(point), [f] + derivs)]

    def balance(self, f: MultiPoly, delta: complex, point, derivs=None) -> tuple[complex, float]:
        """``(V f + sum_i Q_i d_i^{L-1} f - Delta f, scale)`` at one point,
        where the scale is the largest magnitude among the terms and
        Delta f (floored at 1e-300) and normalises every residual."""
        point = np.asarray(point, dtype=complex)
        terms = self.terms(f, point, derivs)
        rhs = delta * f(point)
        scale = max(*(abs(t) for t in terms), abs(rhs), 1e-300)
        return sum(terms) - rhs, scale

    def pde_row(self, f: MultiPoly, delta: complex, point) -> complex:
        """The unreduced equation's value at one point (the equivalence
        handle for the first-order reduction's top row)."""
        return complex(self.balance(f, delta, point)[0])

    def residual(self, f: MultiPoly, delta: complex, points) -> float:
        """Largest normalised defect ``|balance| / scale`` over the points."""
        derivs = self.derivatives(f)
        worst = 0.0
        for point in points:
            defect, scale = self.balance(f, delta, point, derivs)
            worst = max(worst, abs(defect) / scale)
        return float(worst)


# -- tensor-grid interpolation ---------------------------------------------------

def vandermonde(nodes: np.ndarray, degree: int) -> np.ndarray:
    return np.vander(np.asarray(nodes, dtype=complex), degree + 1, increasing=True)


def grid_condition(nodes: np.ndarray) -> float:
    """Condition number of the square Vandermonde system on these nodes."""
    nodes = np.asarray(nodes, dtype=complex)
    return float(np.linalg.cond(vandermonde(nodes, len(nodes) - 1)))


def tensor_interpolate(values: np.ndarray, node_sets) -> np.ndarray:
    """Coefficient tensor of the polynomial matching ``values`` on a tensor
    grid.  The trailing axes of ``values`` run over the per-variable node
    sets; any leading axes are treated as batch dimensions.
    """
    node_sets = [np.asarray(g, dtype=complex) for g in node_sets]
    out = np.asarray(values, dtype=complex)
    batch = out.ndim - len(node_sets)
    if batch < 0:
        raise ValueError("more node sets than value axes")
    for k, nodes in enumerate(node_sets):
        if len(set(np.round(nodes, 14))) != len(nodes):
            raise ValueError("interpolation nodes collide; regrid")
        ax = batch + k
        v = vandermonde(nodes, len(nodes) - 1)
        moved = np.moveaxis(out, ax, 0)
        solved = np.linalg.solve(v, moved.reshape(len(nodes), -1))
        out = np.moveaxis(solved.reshape(moved.shape), 0, ax)
    return out
