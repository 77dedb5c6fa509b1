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
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .closedform import eval_v, pde_coefficients
from .config import SpectralConfig
from .errors import UnsupportedShapeError
from .polyengine import MultiPoly, partial_derivative


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


@dataclass
class ReductionSystem:
    """The block system for one coefficient assignment.

    ``potential`` and ``derivative_coeff`` evaluate the PDE coefficients at a
    point; ``nvars`` is the number of variables (n for the spectral problem,
    L for domain walls) and ``length`` the lattice length fixing the block
    count.
    """

    length: int
    nvars: int
    potential: Callable[[np.ndarray], complex]
    derivative_coeff: Callable[[int, np.ndarray], complex]

    @property
    def dim(self) -> int:
        return block_dimensions(self.length, self.nvars)[0]

    def upsilon_apply(self, psi: PsiVector, delta: complex, point) -> np.ndarray:
        """All rows of Upsilon psi at one sample point.

        Row 0 is the PDE row; the remaining rows are the defining relations
        in block order.  For a chain built by ``build_psi`` the defining rows
        vanish identically and only roundoff survives.
        """
        point = np.asarray(point, dtype=complex)
        if psi.dim != self.dim:
            raise UnsupportedShapeError(
                f"psi has dimension {psi.dim}, system expects {self.dim}"
            )
        n = self.nvars
        rows = np.zeros(self.dim, dtype=complex)
        top = psi.top_block()
        rows[0] = (self.potential(point) - delta) * psi.head(point)
        for i in range(n):
            rows[0] += self.derivative_coeff(i, point) * partial_derivative(top[i], i, 1)(point)
        r = 1
        prev: list[MultiPoly] = [psi.head] * n
        for block in psi.blocks:
            for i in range(n):
                rows[r] = partial_derivative(prev[i], i, 1)(point) - block[i](point)
                r += 1
            prev = block
        return rows

    def pde_row(self, fbar: MultiPoly, delta: complex, point) -> complex:
        """Top-row value computed directly from the unknown (the equivalence
        handle against the unreduced equation)."""
        point = np.asarray(point, dtype=complex)
        val = (self.potential(point) - delta) * fbar(point)
        for i in range(self.nvars):
            val += self.derivative_coeff(i, point) * partial_derivative(
                fbar, i, self.length - 1
            )(point)
        return complex(val)


def spectral_reduction(cfg: SpectralConfig) -> ReductionSystem:
    """Reduction system with the spectral-problem coefficients."""
    block_dimensions(cfg.L, cfg.n)
    return ReductionSystem(
        length=cfg.L,
        nvars=cfg.n,
        potential=lambda xs: eval_v(cfg, xs),
        derivative_coeff=pde_coefficients(cfg).derivative_coeff,
    )


def upsilon_residual(
    system: ReductionSystem, fbar: MultiPoly, delta: complex, point
) -> float:
    """Max row magnitude of Upsilon psi at a point, normalised by the
    largest term entering the PDE row."""
    psi = _derivative_chain(fbar, system.length)
    rows = system.upsilon_apply(psi, delta, point)
    point = np.asarray(point, dtype=complex)
    scale = max(
        abs(system.potential(point) * fbar(point)),
        abs(delta * fbar(point)),
        max(
            (
                abs(
                    system.derivative_coeff(i, point)
                    * partial_derivative(fbar, i, system.length - 1)(point)
                )
                for i in range(system.nvars)
            ),
            default=0.0,
        ),
        1e-300,
    )
    return float(np.max(np.abs(rows)) / scale)
