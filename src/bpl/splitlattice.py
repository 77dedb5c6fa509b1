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

is three matrix products with no copy in between: the array as
(2^h c, 2^(L-h)) times M_right[0, b]^T and times M_right[1, b]^T, the two
results stacked as the rows of one (2^(h+1), c 2^(L-h)) matrix, then
[M_left[a, 0] | M_left[a, 1]] times that matrix, which sums over g inside
the product.  At L = 9 that is about 49k multiply-adds per vector, as much
as one product with the operator's sector blocks, and the halves hold
4 (16^2 + 32^2) = 5,120 entries where the sector blocks of A, B and D hold
140,998.

Every product writes into buffers its caller passes.  One call of
``off_relation_residuals`` allocates a single workspace, sized for its
widest draw, and every draw and the operator agreement run in slices of
it; only each draw's halves are allocated per draw.  At L = 9, n = 3 the
workspace is two (16, 36, 32) stack buffers and a scratch buffer of twice
their size, 1.2 MB.
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

    def apply(self, row: int, a: int, b: int, w: np.ndarray, outs, scratch: np.ndarray):
        """M_ab of rapidity ``row`` (A is (0, 0), B (0, 1), C (1, 0), D
        (1, 1)) on the C-contiguous split block ``w``, its columns written
        into the blocks of ``outs`` in turn, each a column range of a
        C-contiguous block; ``scratch`` holds the right products, 2 w.size
        entries (module docstring)."""
        rows, cols, width = w.shape
        flat = w.reshape(rows * cols, width)
        right = scratch[: 2 * w.size].reshape(2, rows * cols, width)
        for g in (0, 1):
            np.matmul(flat, self.right[row, g, b].T, out=right[g])
        right = right.reshape(2 * rows, cols * width)
        left = self.left[row, a].transpose(1, 0, 2).reshape(rows, 2 * rows)
        start = 0
        for out in outs:
            stop = start + out.shape[1] * width
            np.matmul(left, right[:, start:stop], out=out.reshape(rows, -1))
            start = stop


def split_monodromies(wa: np.ndarray, wb: np.ndarray, c: complex) -> SplitMonodromy:
    """The halves of the monodromies whose site weights a and b are the rows
    of ``wa`` and ``wb`` (shape (batch, L)), c shared by every site."""
    h = wa.shape[1] // 2
    return SplitMonodromy(_half(wa[:, :h], wb[:, :h], c), _half(wa[:, h:], wb[:, h:], c))


def _blocks(buf: np.ndarray, rows: int, width: int, *cols: int) -> list[np.ndarray]:
    """Consecutive (rows, c, width) blocks of the flat ``buf``, c in ``cols``."""
    out, start = [], 0
    for c in cols:
        out.append(buf[start : start + rows * c * width].reshape(rows, c, width))
        start += rows * c * width
    return out


def _scatter(sectors, out: np.ndarray) -> np.ndarray:
    """The split block ``out`` set to the (C(L, k), c) rows ``block`` in
    sector k for each (k, block) of ``sectors``, zero elsewhere."""
    rows, _, width = out.shape
    L = (rows * width).bit_length() - 1
    out.fill(0)
    for k, block in sectors:
        high, low = np.divmod(sector_indices(L, k), width)
        out[high, :, low] = block
    return out


def _relative(left: np.ndarray, right: np.ndarray) -> float:
    """max |left - right| over max(|left|, |right|), every entry."""
    return float(np.max(np.abs(left - right))
                 / max(np.max(np.abs(left)), np.max(np.abs(right)), 1e-300))


def operator_agreement(m: MonodromyEntries, split: SplitMonodromy, probes, work) -> float:
    """The relative max-norm gap between the sector-block products of A, B
    and D of the built monodromy ``m`` on ``probes`` (one block per source
    sector) and the split products of row 0 of ``split`` on the same
    vectors, the worst of the three operators, in the workspace ``work``."""
    rows, width, p = split.left.shape[-1], split.right.shape[-1], probes[0].shape[1]
    [v], [got], [built] = (_blocks(buf, rows, width, p) for buf in work)
    _scatter(enumerate(probes), v)
    worst = 0.0
    for blocks, a, b in ((m.a, 0, 0), (m.b, 0, 1), (m.d, 1, 1)):
        split.apply(0, a, b, v, [got], work[2])
        _scatter(((k + b - a, blk @ probes[k]) for k, blk in enumerate(blocks) if blk.size), built)
        worst = max(worst, _relative(got, built))
    return worst


def _draw_residuals(split: SplitMonodromy, factors, probes, work) -> list[float]:
    """The A-line, D-line and transfer-identity residuals of one draw (lam0,
    lam_1, ..., lam_n), row i of ``split`` holding lam_i, with the
    coefficients ``factors`` = (MA0, MD0, MA, MD) of
    ``ybcore.exchange_m_factors``, on the probes of sectors k <= L - n.

    The A and D lines share their B-chains, applied one B at a time, right
    to left: B(lam_1) ... B(lam_n) takes [v | A(lam0) v | D(lam0) v], and
    each B(lam0) prod_{t != i} B(lam_t) takes [A(lam_i) v | D(lam_i) v].
    At step j the chains dropping i < n - j take lam_{n-j}, like the plain
    chain, and the others the next factor to the left, so the columns are
    kept as two C-contiguous blocks, a head and a tail; each step moves the
    head's last group to the front of the next tail.
    """
    stacks, scratch = work[:2], work[2]
    L, p = len(probes) - 1, probes[0].shape[1]
    n, rows, width = len(split.left) - 1, split.left.shape[-1], split.right.shape[-1]
    cols = (3 + 2 * n) * p
    op = split.apply

    def both(i, w, out):
        op(i, 0, 0, w, [out[:, :p]], scratch)
        op(i, 1, 1, w, [out[:, p:]], scratch)

    # the head holds v and [A v | D v] at lam0 .. lam_{n-1}, the tail at lam_n
    [v] = _blocks(stacks[1], rows, width, p)
    _scatter(((k, probes[k]) for k in range(L - n + 1)), v)
    head, tail = _blocks(stacks[0], rows, width, cols - 2 * p, 2 * p)
    head[:, :p] = v
    for i in range(n):
        both(i, v, head[:, (1 + 2 * i) * p : (3 + 2 * i) * p])
    both(n, v, tail)
    for j in range(n):
        cut = cols - 2 * (j + 1) * p
        head, tail = _blocks(stacks[j % 2], rows, width, cut, cols - cut)
        new_head, new_tail = _blocks(stacks[1 - j % 2], rows, width,
                                     cut - 2 * p, cols - cut + 2 * p)
        op(n - j, 0, 1, head, [new_head, new_tail[:, : 2 * p]], scratch)
        op(n - 1 - j, 0, 1, tail, [new_tail[:, 2 * p :]], scratch)
    # the plain chain on v, then the chains on [A v | D v], lam0's first
    chain, terms = _blocks(stacks[n % 2], rows, width, p, cols - p)
    [lhs] = _blocks(stacks[1 - n % 2], rows, width, 2 * p)
    both(0, chain, lhs)
    # the coefficients of each term, one per column of [A line | D line]
    ma0, md0, ma, md = factors
    terms = terms.reshape(rows, n + 1, 2 * p, width)
    rhs, term = _blocks(scratch, rows, width, 2 * p, 2 * p)
    np.multiply(np.repeat([ma0, md0], p)[:, None], terms[:, 0], out=rhs)
    m = np.repeat(np.stack([ma, md], axis=-1), p, axis=-1)[..., None]
    for i in range(n):
        rhs -= np.multiply(m[i], terms[:, 1 + i], out=term)
    sides = ((lhs[:, :p], rhs[:, :p]), (lhs[:, p:], rhs[:, p:]),
             (lhs[:, :p] + lhs[:, p:], rhs[:, :p] + rhs[:, p:]))
    return [_relative(left, right) for left, right in sides]


def off_relation_residuals(build, weights, c: complex, factors,
                           probes) -> tuple[float, float, float, float]:
    """The worst A-line, D-line and transfer-identity residuals over the
    draws, and the agreement of the block build ``build()`` at the first
    draw's lam0.  ``weights`` holds each draw's site weights a and b, two
    (n + 1, L) arrays, every site sharing ``c``; ``factors`` each draw's
    coefficients, and ``probes`` one (C(L, k), p) block per sector k.

    Each draw's halves are dropped before the next draw's are built, and
    the block build before the draws run; the workspace is allocated after
    both, for the widest draw that runs, and sliced for narrower ones.
    """
    L, p = len(probes) - 1, probes[0].shape[1]
    rows, width = 2 ** (L // 2), 2 ** (L - L // 2)
    widest = max((len(wa) for wa, _ in weights if len(wa) <= L + 1), default=0)
    size = rows * width * p * (1 + 2 * widest)
    m = build()
    split = split_monodromies(*weights[0], c)
    buf = np.empty(4 * size, dtype=complex)
    work = (buf[:size], buf[size : 2 * size], buf[2 * size :])
    agreement = operator_agreement(m, split, probes, work)
    del m
    worst = [0.0, 0.0, 0.0]
    for k, ((wa, wb), f) in enumerate(zip(weights, factors)):
        # a chain of more than L raising operators is zero, and so is every side
        if len(wa) <= L + 1:
            if k:
                split = split_monodromies(wa, wb, c)
            worst = [max(w, r) for w, r in zip(worst, _draw_residuals(split, f, probes, work))]
        split = None
    return (*worst, agreement)
