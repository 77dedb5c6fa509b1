"""First-order reduction of the order-(L-1) PDE.

Stacking the repeated partial derivatives of the unknown into a block vector

    psi = (psi0; psi^(1); ...; psi^(L-2)),      psi_i^(k) = d_i psi_i^(k-1),

turns the scalar equation into the homogeneous block system Upsilon psi = 0:
one top row carrying the PDE itself,

    (V - Delta) psi0 + sum_i Q_i d_i psi_i^(L-2) = 0,

and defining rows d_i psi_i^(k-1) - psi_i^(k) = 0 arranged block-bidiagonally
(-identity on the diagonal, diag(d_1..d_n) on the subdiagonal).  The potential
multiplies the scalar head and the derivative coefficients sit in the top row;
the same layout, with remapped coefficients, also serves the domain-wall
system.

psi is held as stacked coefficient tensors, shape (dim,) + box, and the
rows of Upsilon psi are evaluated for a whole batch of points at once.  The
PDE itself (its order, variable count and coefficients V, Q_i) is the
``polyengine.PdeSpec`` shared with ``closedform`` and ``dwbc``; this module
adds only the block rows built on it.
"""

from __future__ import annotations

import numpy as np

from .closedform import spectral_pde
from .config import SpectralConfig
from .errors import UnsupportedShapeError
from .polyengine import PdeSpec, derivative_tensor, eval_tensors


def block_dimensions(L: int, n: int) -> tuple[int, int]:
    """(total dimension, number of derivative blocks) of the reduction."""
    if L < 3:
        raise UnsupportedShapeError(
            f"the matrix reduction needs L >= 3 (got L = {L}): the PDE has "
            f"order L - 1 = {L - 1}, which is already at most first order"
        )
    return (L - 2) * n + 1, L - 2


def build_psi(fbar: np.ndarray, length: int) -> np.ndarray:
    """The derivative chain of a candidate eigenfunction (a coefficient
    tensor in n variables) as stacked coefficient tensors, shape
    (dim,) + fbar.shape: entry 0 is fbar and entry 1 + (k-1) n + i is
    psi_i^(k) = d_i^k fbar, each block differentiated from the one before."""
    n = fbar.ndim
    dim, _ = block_dimensions(length, n)
    psi = np.empty((dim,) + fbar.shape, dtype=complex)
    psi[0] = fbar
    for r in range(1, dim):
        i = (r - 1) % n
        psi[r] = derivative_tensor(psi[max(r - n, 0)], i)
    return psi


def upsilon_apply(system: PdeSpec, psi: np.ndarray, delta: complex, points) -> np.ndarray:
    """All rows of Upsilon psi at every point, shape (P, dim).

    Row 0 is the PDE row, read from psi's head and the d_i of its top block;
    the remaining rows are the defining relations in block order, each
    evaluated as the one tensor d_i psi_i^(k-1) - psi_i^(k), which vanishes
    for a chain built by ``build_psi``.  The d_i of psi's entries are formed
    one entry at a time, so that no second copy of psi is held.
    """
    points = np.asarray(points, dtype=complex)
    n = system.nvars
    dim, _ = block_dimensions(system.length, n)
    if len(psi) != dim:
        raise UnsupportedShapeError(f"psi has dimension {len(psi)}, system expects {dim}")
    coeffs = system.coefficients(points)
    rows = np.empty((len(points), dim), dtype=complex)
    rows[:, 0] = (coeffs[:, 0] - delta) * eval_tensors(psi[0], points)
    for i in range(n):
        top = derivative_tensor(psi[dim - n + i], i)
        rows[:, 0] += coeffs[:, 1 + i] * eval_tensors(top, points)
    for r in range(1, dim):
        defect = derivative_tensor(psi[max(r - n, 0)], (r - 1) % n)
        defect -= psi[r]
        rows[:, r] = eval_tensors(defect, points)
    return rows


def spectral_reduction(cfg: SpectralConfig) -> PdeSpec:
    """The closed-form spectral PDE, after checking that its reduction
    exists (L >= 3)."""
    block_dimensions(cfg.L, cfg.n)
    return spectral_pde(cfg)


def upsilon_residual(system: PdeSpec, fbar: np.ndarray, delta: complex, points
                     ) -> tuple[np.ndarray, np.ndarray]:
    """Upsilon psi on the chain of a candidate eigenfunction (a coefficient
    tensor) at every point: the largest row magnitude over the scale of the
    point's PDE terms (``PdeSpec.balance``), shape (P,), and those terms'
    magnitudes over the same scale, as ``PdeSpec.residual`` gives them."""
    rows = upsilon_apply(system, build_psi(fbar, system.length), delta, points)
    terms, scale = system.balance(fbar, delta, points)
    return np.max(np.abs(rows), axis=1) / scale, np.abs(terms) / scale[:, None]
