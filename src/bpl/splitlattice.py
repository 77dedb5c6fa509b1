"""The monodromy applied to vectors of the whole quantum space through two
dense halves of the lattice, with no sector block built, and the exchange
relations formed with it.

The quantum space and the site operators are as in ``ybcore`` and
``blockbuild``: site 0 is the highest bit of a basis index, and appending a
site is the recursion A' = A (x) A_j + B (x) C_j (and so on for B', C', D').
The monodromy is the ordered product of the site operators over the
auxiliary space, so cutting the lattice after site h = L // 2 gives

    M_ab = sum_g M_left[a, g] (x) M_right[g, b],

with M_left the product over sites 0..h-1 (the high h bits) and M_right over
sites h..L-1 (the low L - h bits).  Each half is a dense (2, 2, 2^m, 2^m)
array over its m sites, built by that recursion, three scaled copies of
old blocks per new block and site.

A block of c full-space vectors, each read as a 2^h x 2^(L-h) matrix X whose
row is the left half's index, is held as one (2^h, c, 2^(L-h)) array, and

    M_ab X = sum_g M_left[a, g] X M_right[g, b]^T

is two pairs of matrix products with no copy in between: the array as
(2^h c, 2^(L-h)) times M_right[g, b]^T, then M_left[a, g] times the result
as (2^h, c 2^(L-h)).  At L = 9 that is about 49k multiply-adds per vector,
as much as one product with the operator's sector blocks, and the halves
hold 4 (16^2 + 32^2) = 5,120 entries where the sector blocks of A, B and D
hold 140,998.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .blockbuild import _SITE_TERMS, MonodromyEntries, sector_indices


def _half(wa: np.ndarray, wb: np.ndarray, c: complex) -> np.ndarray:
    """The monodromy of the sites whose weights a and b are the columns of
    ``wa`` and ``wb`` (shape (batch, sites)), c shared: (batch, 2, 2, 2^m,
    2^m), auxiliary indices first.

    Appending a site makes new M[a, b] = sum_g M[a, g] (x) site[g, b], and
    the site blocks hold one non-zero entry per (s, t) or none, so each
    new block is three non-zero (s, t) slices, each one old block
    M[a, g] times one weight (``blockbuild._SITE_TERMS``, the rows of A'
    and B', whose old blocks A and B are g = 0 and 1), written into a
    zeroed array for both a at once."""
    batch = len(wa)
    half = np.zeros((batch, 2, 2, 1, 1), dtype=complex)
    half[:, 0, 0] = half[:, 1, 1] = 1
    for site_a, site_b in zip(wa.T, wb.T):
        weights = {"a": site_a[:, None, None, None], "b": site_b[:, None, None, None], "c": c}
        dim = half.shape[-1]
        # [z, a, b, i, s, j, t]: rows (i s) and columns (j t) of the new half
        new = np.zeros((batch, 2, 2, dim, 2, dim, 2), dtype=complex)
        for b, terms in enumerate(_SITE_TERMS[:2]):
            for s, t, g, w in terms:
                np.multiply(half[:, :, g], weights[w], out=new[:, :, b, :, s, :, t])
        half = new.reshape(batch, 2, 2, 2 * dim, 2 * dim)
    return half


class SplitMonodromy(NamedTuple):
    """The two halves of the monodromies of a batch of rapidities, one row
    per rapidity (module docstring)."""

    left: np.ndarray
    right: np.ndarray

    def apply(self, row: int, a: int, b: int, w: np.ndarray) -> np.ndarray:
        """M_ab of rapidity ``row`` on the split block ``w``, (2^h, c,
        2^(L-h)): A is (0, 0), B (0, 1), C (1, 0) and D (1, 1)."""
        left, right = self.left[row], self.right[row]
        rows, cols, width = w.shape
        flat = np.ascontiguousarray(w).reshape(rows * cols, width)
        out = left[a, 0] @ (flat @ right[0, b].T).reshape(rows, cols * width)
        out += left[a, 1] @ (flat @ right[1, b].T).reshape(rows, cols * width)
        return out.reshape(rows, cols, width)


def split_monodromies(wa: np.ndarray, wb: np.ndarray, c: complex) -> SplitMonodromy:
    """The halves of the monodromies whose site weights a and b are the rows
    of ``wa`` and ``wb`` (shape (batch, L)), c shared by every site."""
    h = wa.shape[1] // 2
    return SplitMonodromy(_half(wa[:, :h], wb[:, :h], c), _half(wa[:, h:], wb[:, h:], c))


def full_space(probes: list[np.ndarray], top: int) -> np.ndarray:
    """The (2^L, c) block holding ``probes[k]`` (one (C(L, k), c) block per
    sector k = 0..L) in the rows of sector k for k <= top, zero elsewhere."""
    L = len(probes) - 1
    out = np.zeros((2**L, probes[0].shape[1]), dtype=complex)
    for k in range(top + 1):
        out[sector_indices(L, k)] = probes[k]
    return out


def to_split(v: np.ndarray) -> np.ndarray:
    """A (2^L, c) block of full-space vectors as a split block."""
    L = len(v).bit_length() - 1
    return np.ascontiguousarray(v.reshape(2 ** (L // 2), -1, v.shape[1]).transpose(0, 2, 1))


def from_split(w: np.ndarray) -> np.ndarray:
    """A split block as (2^L, c) full-space vectors."""
    return w.transpose(0, 2, 1).reshape(-1, w.shape[1])


def _relative(left: np.ndarray, right: np.ndarray) -> float:
    """max |left - right| over max(|left|, |right|), every entry."""
    return float(np.max(np.abs(left - right))
                 / max(np.max(np.abs(left)), np.max(np.abs(right)), 1e-300))


def operator_agreement(m: MonodromyEntries, split: SplitMonodromy, probes) -> float:
    """The relative max-norm gap between the sector-block products of A, B
    and D of the built monodromy ``m`` on ``probes`` (one block per source
    sector) and the split products of row 0 of ``split`` on the same
    vectors, the worst of the three operators."""
    L = len(probes) - 1
    v = full_space(probes, L)
    w = to_split(v)
    worst = 0.0
    for blocks, a, b in ((m.a, 0, 0), (m.b, 0, 1), (m.d, 1, 1)):
        built = np.zeros_like(v)
        for k, blk in enumerate(blocks):
            if blk.size:
                built[sector_indices(L, k + b - a)] = blk @ probes[k]
        worst = max(worst, _relative(from_split(split.apply(0, a, b, w)), built))
    return worst


def off_relation_residuals(split: SplitMonodromy, lams: list[complex], factors,
                           v: np.ndarray) -> list[float]:
    """The A-line, D-line and transfer-identity residuals of one draw
    ``lams`` = (lam0, lam_1, ..., lam_n), row i of ``split`` holding lams[i],
    with the coefficients ``factors`` = (MA0, MD0, MA, MD) of
    ``ybcore.exchange_m_factors``, on the split probe block ``v``.

    Every side is a sum of B-chains times A or D, applied to v one operator
    at a time, right to left.  The A and D lines share their chains:
    B(lam_1) ... B(lam_n) takes [v | A(lam0) v | D(lam0) v], and each
    B(lam0) prod_{t != i} B(lam_t) takes [A(lam_i) v | D(lam_i) v], so both
    sides are formed as [A line | D line] and their columns sum to the
    transfer identity.
    """
    n, p = len(lams) - 1, v.shape[1]
    ma0, md0, ma, md = factors
    op = split.apply
    both = lambda i, w: np.concatenate([op(i, 0, 0, w), op(i, 1, 1, w)], axis=1)
    # the chains' columns side by side: the plain chain's, then the chain
    # dropping lam_i for i = 1..n.  Read right to left, the chains dropping
    # i < n - j still take lam_{n-j} at step j, like the plain chain, and
    # the others take the next factor to the left (lam0 last), so each step
    # is one product for a prefix of the columns and one for the rest
    stack = np.concatenate([v, both(0, v)] + [both(i, v) for i in range(1, n + 1)], axis=1)
    for j in range(n):
        cut = (3 + 2 * (n - 1 - j)) * p
        stack = np.concatenate([op(n - j, 0, 1, stack[:, :cut]),
                                op(n - 1 - j, 0, 1, stack[:, cut:])], axis=1)
    # the coefficients of each term, one per column of [A line | D line]
    m0 = np.repeat([ma0, md0], p)[:, None]
    m = np.repeat(np.stack([ma, md], axis=-1), p, axis=-1)[..., None]
    lhs = both(0, stack[:, :p])
    rhs = m0 * stack[:, p : 3 * p]
    for i in range(n):
        rhs = rhs - m[i] * stack[:, (3 + 2 * i) * p : (5 + 2 * i) * p]
    sides = ((lhs[:, :p], rhs[:, :p]), (lhs[:, p:], rhs[:, p:]),
             (lhs[:, :p] + lhs[:, p:], rhs[:, :p] + rhs[:, p:]))
    return [_relative(left, right) for left, right in sides]
