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

The PDE itself (its order, variable count and coefficients V, Q_i) is the
``polyengine.PdeSpec`` shared with ``closedform`` and ``dwbc``; this module
adds only the block rows built on it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .closedform import spectral_pde
from .config import SpectralConfig
from .errors import UnsupportedShapeError
from .polyengine import MultiPoly, PdeSpec, partial_derivative


@dataclass
class PsiVector:
    """Block vector of repeated derivatives of one bounded polynomial."""

    head: MultiPoly
    blocks: list[list[MultiPoly]]

    @property
    def dim(self) -> int:
        return 1 + sum(len(b) for b in self.blocks)

    def top_block(self) -> list[MultiPoly]:
        return self.blocks[-1] if self.blocks else []


def block_dimensions(L: int, n: int) -> tuple[int, int]:
    """(total dimension, number of derivative blocks) of the reduction."""
    if L < 3:
        raise UnsupportedShapeError(
            f"the matrix reduction needs L >= 3 (got L = {L}); "
            "at L = 2 the equation is already first order"
        )
    return (L - 2) * n + 1, L - 2


def _derivative_chain(fbar: MultiPoly, length: int) -> PsiVector:
    n = fbar.nvars
    block_dimensions(length, n)
    blocks: list[list[MultiPoly]] = []
    prev = [fbar] * n
    for _ in range(length - 2):
        cur = [partial_derivative(prev[i], i, 1) for i in range(n)]
        blocks.append(cur)
        prev = cur
    return PsiVector(fbar, blocks)


def build_psi(fbar: MultiPoly, cfg: SpectralConfig) -> PsiVector:
    """Derivative chain psi built from a candidate eigenfunction."""
    return _derivative_chain(fbar, cfg.L)


def upsilon_apply(system: PdeSpec, psi: PsiVector, delta: complex, point) -> np.ndarray:
    """All rows of Upsilon psi at one sample point.

    Row 0 is the PDE row; the remaining rows are the defining relations
    in block order.  For a chain built by ``build_psi`` the defining rows
    vanish identically and only roundoff survives.
    """
    point = np.asarray(point, dtype=complex)
    dim = block_dimensions(system.length, system.nvars)[0]
    if psi.dim != dim:
        raise UnsupportedShapeError(
            f"psi has dimension {psi.dim}, system expects {dim}"
        )
    n = system.nvars
    rows = np.zeros(dim, dtype=complex)
    top = psi.top_block()
    rows[0] = (system.potential(point) - delta) * psi.head(point)
    for i in range(n):
        rows[0] += system.derivative_coeff(i, point) * partial_derivative(top[i], i, 1)(point)
    r = 1
    prev: list[MultiPoly] = [psi.head] * n
    for block in psi.blocks:
        for i in range(n):
            rows[r] = partial_derivative(prev[i], i, 1)(point) - block[i](point)
            r += 1
        prev = block
    return rows


def spectral_reduction(cfg: SpectralConfig) -> PdeSpec:
    """The closed-form spectral PDE, after checking that its reduction
    exists (L >= 3)."""
    block_dimensions(cfg.L, cfg.n)
    return spectral_pde(cfg)


def upsilon_residual(system: PdeSpec, fbar: MultiPoly, delta: complex, point) -> float:
    """Max row magnitude of Upsilon psi at a point, normalised by the
    largest term entering the PDE row."""
    psi = _derivative_chain(fbar, system.length)
    rows = upsilon_apply(system, psi, delta, point)
    _, scale = system.balance(fbar, delta, point)
    return float(np.max(np.abs(rows)) / scale)
