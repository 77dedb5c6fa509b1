"""Dense multivariate polynomials on degree-bounded spaces.

A polynomial in ``n`` variables with per-variable degree bounds m_i is a
coefficient tensor of shape ``(m_0+1, ..., m_{n-1}+1)``.  Stacked tensors
(leading axes a batch) are evaluated in two ways, each one product per
axis of the tensor grid or of the points: at a batch of scattered points
by ``eval_tensors`` (``MultiPoly`` calls it for one point too), and on the
tensor grid of per-axis node sets by ``eval_grid``, one Vandermonde mode
product per axis.  ``fit_grid`` is the one fit from tensor-grid samples,
the inverse of ``eval_grid``: every interpolated quantity of the pipeline
comes back from it as a ``GridFit``, with its condition number and one
holdout per entry, each node set's geometry computed once per process.
``PdeSpec`` is the one description of the order-(L-1) linear PDE that the
closed form, its first-order reduction and the domain-wall equation share;
it evaluates coefficients, terms and residuals over point batches.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import prod
from typing import Callable

import numpy as np

from . import blockbuild
from .errors import CoincidentRapiditiesError


@dataclass(frozen=True)
class MultiPoly:
    """Polynomial with complex coefficients, one tensor axis per variable."""

    coeffs: np.ndarray

    def __post_init__(self):
        c = np.asarray(self.coeffs, dtype=complex)
        if not (np.isfinite(c.real).all() and np.isfinite(c.imag).all()):
            raise ValueError("coefficients must be finite")
        object.__setattr__(self, "coeffs", c)

    @property
    def nvars(self) -> int:
        return self.coeffs.ndim

    def __call__(self, point) -> complex:
        """Value at one point: the one-point case of ``eval_tensors``."""
        point = np.reshape(np.asarray(point, dtype=complex), (1, -1))
        if point.shape[1] != self.nvars:
            raise ValueError(f"point must have {self.nvars} coordinates")
        return complex(eval_tensors(self.coeffs, point)[0])

    def eval_many(self, points: np.ndarray) -> np.ndarray:
        """Vectorised evaluation; ``points`` has shape (npoints, nvars)."""
        points = np.asarray(points, dtype=complex)
        if points.ndim != 2 or points.shape[1] != self.nvars:
            raise ValueError(f"expected points of shape (P, {self.nvars})")
        return eval_tensors(self.coeffs, points)


def eval_tensors(coeffs: np.ndarray, points: np.ndarray) -> np.ndarray:
    """Values of stacked coefficient tensors at points.

    The trailing nvars axes of ``coeffs`` are the variables, each as long
    as its variable's degree bound plus one, and any leading axes a batch;
    ``points`` has shape (P, nvars).  The box monomials are evaluated once,
    as a (P, box size) table, and one matrix product with the flattened
    tensors gives the values, shape batch + (P,).
    """
    points = np.asarray(points, dtype=complex)
    box = coeffs.ndim - points.shape[1]
    monomials = box_monomials(points, coeffs.shape[box:])
    return coeffs.reshape(coeffs.shape[:box] + monomials.shape[1:]) @ monomials.T


def box_monomials(points: np.ndarray, shape) -> np.ndarray:
    """Every monomial of a coefficient box of ``shape`` at every point of
    ``points`` (P, nvars), shape (P, box size), in the box's C order."""
    monomials = np.ones((len(points), 1), dtype=complex)
    for i, size in enumerate(shape):
        powers = np.vander(points[:, i], size, increasing=True)
        monomials = (monomials[:, :, None] * powers[:, None, :]).reshape(len(points), -1)
    return monomials


def eval_grid(coeffs: np.ndarray, node_sets) -> np.ndarray:
    """Values of stacked coefficient tensors on the tensor grid of the
    per-axis node arrays ``node_sets``, shape batch + (len(nodes) per axis):
    the trailing axes of ``coeffs`` are the variables, one node set each,
    and any leading axes a batch.  Each axis is one mode product with its
    Vandermonde matrix, so a node set may be of any length, and swapping
    one axis's nodes for another set evaluates the substitution of that
    variable (Kolda & Bader, SIAM Review 51(3), 2009).  It costs batch x
    box x (nodes per axis) per axis, where ``eval_tensors`` at the
    ``grid_points`` costs batch x box x grid size."""
    box = coeffs.ndim - len(node_sets)
    out = coeffs
    for k, nodes in enumerate(node_sets):
        out = _mode_product(out, vandermonde(nodes, coeffs.shape[box + k] - 1), box + k)
    return out


def _mode_product(tensor: np.ndarray, matrix: np.ndarray, axis: int) -> np.ndarray:
    """``matrix`` applied along ``axis`` of ``tensor``: out[..., i, ...] =
    sum_j matrix[i, j] tensor[..., j, ...], as one matrix product over the
    tensor read as (before, axis, after), C-ordered with the axis in place
    (the last axis as one product with the transpose, not one per row)."""
    tensor = np.ascontiguousarray(tensor)
    shape = tensor.shape
    before, after = prod(shape[:axis]), prod(shape[axis + 1 :])
    if after == 1:
        out = tensor.reshape(before, shape[axis]) @ matrix.T
    else:
        out = matrix @ tensor.reshape(before, shape[axis], after)
    return out.reshape(shape[:axis] + (len(matrix),) + shape[axis + 1 :])


def grid_points(grids) -> np.ndarray:
    """Every tuple of the tensor grid spanned by the per-axis node arrays,
    one row each, with the last axis running fastest, so a vector of
    per-row values reshapes to the grid's shape."""
    mesh = np.meshgrid(*grids, indexing="ij")
    return np.stack([axis.ravel() for axis in mesh], axis=-1)


def derivative_tensor(coeffs: np.ndarray, axis: int, order: int = 1) -> np.ndarray:
    """Exact coefficient-shift differentiation of coefficient tensors along
    one axis; any other axes, batch ones included, ride along.  The length
    of the axis is kept and the vacated top coefficients are zero."""
    if order < 0:
        raise ValueError("order must be non-negative")
    c = np.moveaxis(coeffs, axis, 0)
    factors = np.arange(1, len(c)).reshape((-1,) + (1,) * (c.ndim - 1))
    for _ in range(order):
        shifted = np.zeros_like(c)
        shifted[:-1] = c[1:] * factors
        c = shifted
    return np.moveaxis(c, 0, axis)


# -- the order-(L-1) linear PDE ---------------------------------------------------

def pairwise_differences(xs) -> np.ndarray:
    """``out[p, i, j] = x_j - x_i`` for the coordinates of every point of
    ``xs`` (shape (P, nvars)), with 1 on the diagonal so that a product
    over j runs over the j != i.  The rational PDE coefficients divide by
    these, so a pair of coordinates of one point closer than 1e-7 raises
    ``CoincidentRapiditiesError`` naming the first such pair."""
    xs = np.asarray(xs, dtype=complex)
    out = xs[:, None, :] - xs[:, :, None]
    diag = np.arange(xs.shape[1])
    out[:, diag, diag] = 1.0
    close = np.argwhere(np.abs(out) < 1e-7)
    if len(close):
        p, i, j = close[0]
        raise CoincidentRapiditiesError((xs[p, j], xs[p, i]), abs(out[p, i, j]))
    return out


@dataclass(frozen=True)
class PdeSpec:
    """The equation [ V + sum_i Q_i d^{L-1}/dx_i^{L-1} ] F = Delta F.

    The closed-form spectral PDE, its first-order reduction and the
    domain-wall equation (Delta = 0) differ only in their coefficients, so
    this is the one description all of them evaluate.  ``nvars`` is the
    number of variables (n for the spectral problem, L for domain walls),
    ``length`` the lattice length L fixing the derivative order L-1, and
    ``coefficients`` maps points of shape (P, nvars) to [V, Q_0, ...,
    Q_{nvars-1}] at each, shape (P, 1 + nvars).

    Every method takes coefficient tensors whose trailing ``nvars`` axes are
    the variables and whose leading axes are a batch, and a batch of points.
    """

    length: int
    nvars: int
    coefficients: Callable[[np.ndarray], np.ndarray]

    def terms(self, coeffs: np.ndarray, points, delta=None) -> np.ndarray:
        """The terms [V f, Q_0 d_0^{L-1} f, ..., Q_{nvars-1} d_{nvars-1}^{L-1} f]
        at every point, shape batch + (P, 1 + nvars); their sum is the
        operator applied to f.  With ``delta`` (a scalar or one value per
        batch entry) the term -Delta f is appended, so that they sum to the
        equation's defect."""
        points = np.asarray(points, dtype=complex)
        box = coeffs.ndim - self.nvars
        parts = np.empty((1 + self.nvars,) + coeffs.shape, dtype=complex)
        parts[0] = coeffs
        for i in range(self.nvars):
            parts[1 + i] = derivative_tensor(coeffs, box + i, self.length - 1)
        values = np.moveaxis(eval_tensors(parts, points), 0, -1)
        out = self.coefficients(points) * values
        if delta is None:
            return out
        rhs = -np.asarray(delta)[..., None] * values[..., 0]
        return np.concatenate([out, rhs[..., None]], axis=-1)

    def grid_action(self, coeffs: np.ndarray, node_sets) -> np.ndarray:
        """The operator applied to f, V f + sum_i Q_i d_i^{L-1} f, on the
        tensor grid of the per-variable ``node_sets``, shape batch + grid:
        f and each derivative tensor on the grid by ``eval_grid``, times
        [V, Q_i] from one ``coefficients`` call at the ``grid_points``,
        summed term by term into one array.  ``terms`` serves points off
        the grid."""
        box = coeffs.ndim - self.nvars
        grid = tuple(len(nodes) for nodes in node_sets)
        at = self.coefficients(grid_points(node_sets)).T.reshape((1 + self.nvars,) + grid)
        out = eval_grid(coeffs, node_sets) * at[0]
        for i in range(self.nvars):
            term = eval_grid(derivative_tensor(coeffs, box + i, self.length - 1), node_sets)
            term *= at[1 + i]
            out += term
        return out

    def balance(self, coeffs: np.ndarray, delta, points) -> tuple[np.ndarray, np.ndarray]:
        """``(terms, scale)``: the terms of ``terms(coeffs, points, delta)``,
        which sum to the defect, and the scale that normalises every
        residual, the largest of their magnitudes floored at 1e-300, shape
        batch + (P,)."""
        terms = self.terms(coeffs, points, delta)
        return terms, np.maximum(np.max(np.abs(terms), axis=-1), 1e-300)

    def residual(self, coeffs: np.ndarray, delta, points) -> tuple[np.ndarray, np.ndarray]:
        """``(residual, magnitudes)`` at every point: the normalised defect
        ``|sum of terms| / scale``, shape batch + (P,), and the magnitudes of
        [V f, Q_i d_i^{L-1} f ..., Delta f] over the scale, shape
        batch + (P, nvars + 2)."""
        terms, scale = self.balance(coeffs, delta, points)
        return np.abs(np.sum(terms, axis=-1)) / scale, np.abs(terms) / scale[..., None]


# -- tensor-grid interpolation ---------------------------------------------------

def vandermonde(nodes: np.ndarray, degree: int) -> np.ndarray:
    return np.vander(np.asarray(nodes, dtype=complex), degree + 1, increasing=True)


@lru_cache(maxsize=32)
def _geometry(key: bytes) -> tuple[np.ndarray, float]:
    """(read-only inverse, condition number) of the square Vandermonde
    matrix on the nodes with complex128 bytes ``key``, once per process."""
    nodes = np.frombuffer(key, dtype=complex)
    if len(set(np.round(nodes, 14))) != len(nodes):
        raise ValueError("interpolation nodes collide; regrid")
    v = vandermonde(nodes, len(nodes) - 1)
    inverse = np.linalg.inv(v)
    inverse.flags.writeable = False
    return inverse, float(np.linalg.cond(v))


def grid_condition(nodes: np.ndarray) -> float:
    """2-norm condition of the Vandermonde system on these nodes, cached."""
    return _geometry(np.asarray(nodes, dtype=complex).tobytes())[1]


def tensor_interpolate(values: np.ndarray, node_sets) -> np.ndarray:
    """The solve of ``fit_grid``: the coefficient tensor of the polynomial
    matching ``values`` on a tensor grid.  The trailing axes of ``values``
    run over the per-variable node sets; any leading axes are a batch.

    Each axis is one mode product with the inverse of its square
    Vandermonde matrix, the inverse of ``eval_grid``.  The node sets of the
    pipeline are at most 13 long and their 2-norm condition is at most 53
    (``grid_condition``), so the inverse loses nothing a solve would keep.
    Both come from ``_geometry``, which holds the last 32 node sets (an
    instance fits on at most 14).  The entries of the first batch axis are
    interpolated in ``blockbuild.chunks`` of their values, which bounds the
    copy each axis makes.
    """
    values = np.asarray(values, dtype=complex)
    batch = values.ndim - len(node_sets)
    if batch < 0:
        raise ValueError("more node sets than value axes")
    inverses = [_geometry(np.asarray(g, dtype=complex).tobytes())[0] for g in node_sets]

    def solve(part):
        for k, inverse in enumerate(inverses):
            part = _mode_product(part, inverse, batch + k)
        return part

    parts = blockbuild.chunks(len(values), prod(values.shape[1:]))
    if batch == 0 or len(parts) <= 1:
        # the products' own output, not copied into a result buffer: the copy
        # raised spectral_L7n2's peak RSS by 0.16 MB
        return solve(values)
    out = np.empty_like(values)
    for part in parts:
        out[part] = solve(values[part])
    return out


@dataclass(frozen=True)
class GridFit:
    """Coefficient tensors fitted on a tensor grid, shape (N,) + box, with
    the largest per-axis Vandermonde condition number (1 with no axes) and
    each entry's holdout, |direct - fitted| / max(|direct|, max |coeff|)."""

    coeffs: np.ndarray
    grid_condition: float
    holdouts: np.ndarray


def fit_grid(values: np.ndarray, x_grids, held_x, held_values) -> GridFit:
    """Fit one function per leading entry of ``values`` on the grid of
    ``x_grids`` in one solve, and validate each at ``held_x`` against
    ``held_values`` by one stacked (N, 1, K) @ (K, 1) product, which rounds
    as each entry's own; ``np.hypot`` rounds as ``abs`` of one value, where
    ``np.abs`` of an array does not."""
    coeffs = tensor_interpolate(values, x_grids)
    condition = max((grid_condition(xg) for xg in x_grids), default=1.0)
    held = box_monomials(np.asarray(held_x, dtype=complex)[None, :], coeffs.shape[1:]).T
    flat = coeffs.reshape(len(coeffs), 1, len(held))
    direct = np.asarray(held_values, dtype=complex)
    error = direct - (flat @ held)[:, 0, 0]
    scale = np.maximum(np.hypot(direct.real, direct.imag), np.abs(flat).max(axis=(1, 2)))
    return GridFit(coeffs, condition, np.hypot(error.real, error.imag) / np.maximum(scale, 1e-300))
