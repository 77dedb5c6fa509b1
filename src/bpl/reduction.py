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

psi is held as stacked coefficient tensors, shape (dim,) + box, one chain,
or (dim, B) + box, a batch of chains.  The rows of Upsilon psi read n + dim
tensors of each chain: its head, d_i of its top blocks and the defect of
each defining row.  They are evaluated for a whole batch of chains, each at
its own points, against one table of box monomials (``_row_values``).
``upsilon_residual`` takes a batch of candidate eigenfunctions with one
Delta each and one set of points each, and goes through it in
``blockbuild.chunks``; one candidate (the domain-wall Zbar) is a batch of
one.  The PDE itself (its order, variable count and coefficients V, Q_i) is
the ``polyengine.PdeSpec`` shared with ``closedform`` and ``dwbc``; this
module adds only the block rows built on it.
"""

from __future__ import annotations

from math import prod

import numpy as np

from . import blockbuild
from .closedform import spectral_pde
from .config import SpectralConfig
from .errors import UnsupportedShapeError
from .polyengine import PdeSpec, box_monomials, derivative_tensor


def block_dimensions(L: int, n: int) -> tuple[int, int]:
    """(total dimension, number of derivative blocks) of the reduction."""
    if L < 3:
        raise UnsupportedShapeError(
            f"the matrix reduction needs L >= 3 (got L = {L}): the PDE has "
            f"order L - 1 = {L - 1}, which is already at most first order"
        )
    return (L - 2) * n + 1, L - 2


def build_psi(fbars: np.ndarray, length: int, nvars: int | None = None) -> np.ndarray:
    """The derivative chains of candidate eigenfunctions, coefficient
    tensors in ``nvars`` variables (default ``fbars.ndim``: one candidate)
    with any leading axes a batch, as stacked coefficient tensors, shape
    (dim,) + fbars.shape: entry 0 is fbar and entry 1 + (k-1) n + i is
    psi_i^(k) = d_i^k fbar, each block differentiated from the one before."""
    n = fbars.ndim if nvars is None else nvars
    dim, _ = block_dimensions(length, n)
    batch = fbars.ndim - n
    psi = np.empty((dim,) + fbars.shape, dtype=complex)
    psi[0] = fbars
    for r in range(1, dim):
        psi[r] = derivative_tensor(psi[max(r - n, 0)], batch + (r - 1) % n)
    return psi


def _row_tensor(psi: np.ndarray, n: int, t: int) -> np.ndarray:
    """Tensor t of the n + dim that the rows of Upsilon psi read, for a
    batch of chains psi (dim, B) + box: the head (t = 0), d_i of top block
    i (t = 1 + i), then for each defining row r = t - n the defect
    d_i psi_i^(k-1) - psi_i^(k), which vanishes for a chain built by
    ``build_psi``."""
    dim = len(psi)
    if t == 0:
        return psi[0]
    if t <= n:
        return derivative_tensor(psi[dim - n + t - 1], t)
    r = t - n
    defect = derivative_tensor(psi[max(r - n, 0)], 1 + (r - 1) % n)
    defect -= psi[r]
    return defect


def _row_values(psi: np.ndarray, n: int, points: np.ndarray) -> np.ndarray:
    """The n + dim tensors of ``_row_tensor`` of every chain of psi (dim, B)
    + box at that chain's points (B, P, n), shape (B, n + dim, P).  One
    table of box monomials serves them all; the tensors are formed and
    contracted with it in ``blockbuild.chunks``, one matrix product a
    chunk."""
    count, box = psi.shape[1], psi.shape[2:]
    size, total = prod(box), n + len(psi)
    table = box_monomials(points.reshape(-1, n), box).reshape(count, -1, size)
    table = table.transpose(0, 2, 1)
    values = np.empty((count, total, points.shape[1]), dtype=complex)
    for part in blockbuild.chunks(total, count * size):
        tensors = np.stack([_row_tensor(psi, n, t).reshape(count, size)
                            for t in range(total)[part]], axis=1)
        np.matmul(tensors, table, out=values[:, part])
    return values


def _upsilon(system: PdeSpec, psi: np.ndarray, deltas, points) -> tuple[np.ndarray, np.ndarray]:
    """Rows of Upsilon psi, shape (B, P, dim), and the PDE's terms [V f,
    Q_i d_i^{L-1} f ..., -Delta f] (as ``PdeSpec.terms`` orders them),
    shape (B, P, n + 2), for a batch of chains psi (dim, B) + box with one
    Delta each at that chain's points (B, P, n).

    Row 0 is the PDE row, (V - Delta) f + sum_i Q_i d_i psi_i^(L-2), read
    from psi's head and the d_i of its top blocks; the remaining rows are
    the defining relations in block order.
    """
    n = system.nvars
    dim, _ = block_dimensions(system.length, n)
    if len(psi) != dim:
        raise UnsupportedShapeError(f"psi has dimension {len(psi)}, system expects {dim}")
    points = np.asarray(points, dtype=complex)
    values = _row_values(psi, n, points)
    coeffs = system.coefficients(points.reshape(-1, n)).reshape(points.shape[:2] + (1 + n,))
    head = values[:, 0]
    deltas = np.asarray(deltas, dtype=complex)[:, None]
    rows = np.empty(points.shape[:2] + (dim,), dtype=complex)
    rows[..., 0] = (coeffs[..., 0] - deltas) * head
    terms = np.empty(points.shape[:2] + (n + 2,), dtype=complex)
    terms[..., 0] = coeffs[..., 0] * head
    for i in range(n):
        terms[..., 1 + i] = coeffs[..., 1 + i] * values[:, 1 + i]
        rows[..., 0] += terms[..., 1 + i]
    terms[..., n + 1] = -deltas * head
    rows[..., 1:] = values[:, 1 + n :].transpose(0, 2, 1)
    return rows, terms


def upsilon_apply(system: PdeSpec, psi: np.ndarray, delta, points) -> np.ndarray:
    """All rows of Upsilon psi at every point, shape (P, dim), for one chain
    psi (dim,) + box at points (P, n); for a batch of chains (dim, B) + box,
    with one delta each and each its own points (B, P, n), shape
    (B, P, dim).  Row 0 is the PDE row, the others the defining relations
    in block order (``_upsilon``)."""
    if psi.ndim == 1 + system.nvars:
        return _upsilon(system, psi[:, None], [delta], np.asarray(points)[None])[0][0]
    return _upsilon(system, psi, delta, points)[0]


def spectral_reduction(cfg: SpectralConfig) -> PdeSpec:
    """The closed-form spectral PDE, after checking that its reduction
    exists (L >= 3)."""
    block_dimensions(cfg.L, cfg.n)
    return spectral_pde(cfg)


def upsilon_residual(system: PdeSpec, fbars: np.ndarray, deltas, points
                     ) -> tuple[np.ndarray, np.ndarray]:
    """Upsilon psi on the chains of candidate eigenfunctions, coefficient
    tensors fbars (B,) + box with one Delta each (B,), each at its own
    points (B, P, n): the largest row magnitude over the scale of the
    point's PDE terms (the largest of their magnitudes, floored at 1e-300,
    as ``PdeSpec.balance`` takes it), shape (B, P), and those terms'
    magnitudes over the same scale, shape (B, P, n + 2), as
    ``PdeSpec.residual`` gives them.

    The candidates go in ``blockbuild.chunks`` of their n + dim tensors;
    each chunk builds its chains, one monomial table and one contraction
    (``_row_values``).
    """
    n = system.nvars
    dim, _ = block_dimensions(system.length, n)
    fbars = np.asarray(fbars, dtype=complex)
    deltas = np.asarray(deltas, dtype=complex)
    points = np.asarray(points, dtype=complex)
    residual = np.empty(points.shape[:2])
    magnitudes = np.empty(points.shape[:2] + (n + 2,))
    for part in blockbuild.chunks(len(fbars), (n + dim) * prod(fbars.shape[1:])):
        rows, terms = _upsilon(system, build_psi(fbars[part], system.length, n), deltas[part],
                               points[part])
        scale = np.maximum(np.max(np.abs(terms), axis=-1), 1e-300)
        residual[part] = np.max(np.abs(rows), axis=-1) / scale
        magnitudes[part] = np.abs(terms) / scale[..., None]
    return residual, magnitudes
