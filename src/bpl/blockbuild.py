"""The sector-block monodromy: its layout, the compiled recursion that
builds it, and the RTT relation checked on its blocks.

The quantum space and the monodromy M(lambda) = [[A, B], [C, D]] are as in
``ybcore``.  A and D preserve the down-spin count, B raises it by one and C
lowers it by one, so each is held as its S^z blocks only, a tuple indexed by
the source sector k = 0..L:

* ``a[k]`` and ``d[k]`` map sector k to itself, C(L,k) x C(L,k);
* ``b[k]`` maps sector k to k+1 and ``c[k]`` maps sector k to k-1, so
  ``b[L]`` and ``c[0]`` have no rows.

Rows and columns follow ``sector_indices`` (ascending basis index), so
``a[k]`` is the dense A at ``np.ix_(idx_k, idx_k)`` and ``b[k]`` the dense B
at ``np.ix_(idx_{k+1}, idx_k)``; every dense entry outside these blocks is
zero.  Products and residuals therefore run block by block and never touch
the zeros.

Appending a site makes each new dense block a sum of two Kronecker products
of an old block with a 2x2 site block of P R, e.g. A' = A (x) A_j + B (x) C_j,
whose (i s, j t) entry, with i, j the old quantum indices and s, t the new
site's, is A[i, j] A_j[s, t] + B[i, j] C_j[s, t].  The site blocks are
diagonal (A_j, D_j) or hold a single entry (B_j, C_j), so for every (s, t)
at most one of the two terms is non-zero: each new block has three non-zero
(s, t) slices, each one old block times one Boltzmann weight.  New sector k
splits into old sector k (new spin up, s = 0) and old sector k-1 (new spin
down, s = 1), so each non-zero slice of a new sector block is a single old
sector block times one weight, written into a sub-block of a zeroed array.
During the build the states of sector k stay in that split order (old
sector k, then old sector k-1); one permutation per sector at the end puts
them in ascending order.  Every entry is thus the same single product as in
the Kronecker form, whose second term only adds an exact zero, so each block
equals the matching slice of the Kronecker form exactly
(``tests/test_ybcore.py`` keeps that form as the reference).

Which old entry feeds which new entry depends on L alone, so
``build_plan`` compiles the recursion once per L and cap into flat index
arrays.  Each weight reads one contiguous range of the old buffer, so a
build appends a site by multiplying each range by its weight into one
product table, then fills the new buffer with one gather from that table
through the compiled index, instead of one small array operation per block.

Three things keep a build to what its caller reads:

* **A cap.**  New sector k reads old sectors k and k-1 only, so the blocks
  whose source and target sectors are <= ``top`` are closed under the
  recursion: A'[k] reads A[k], A[k-1] and B[k-1], B'[k] reads A[k], B[k] and
  B[k-1], C'[k] reads C[k], C[k-1] and D[k-1], and D'[k] reads C[k], D[k]
  and D[k-1].  A build capped at ``top`` computes those blocks and nothing
  else, on every partial lattice.  Each operator then holds top + 1 blocks;
  ``b[top]``, whose target lies past the cap, has no rows, and indexing
  past ``top`` raises ``IndexError`` rather than returning zeros.  F_n and
  Lambda(lambda_0) in sector n read only the B blocks into sectors 1..n
  and T's sector-n block, so the spectral layer builds with ``top = n``;
  ``top = L`` is the full build.
* **A batch.**  ``build_batch`` builds many rapidities in one pass of the
  plan, every buffer of shape (batch, entries): one row per rapidity, so
  each block of each rapidity is a contiguous slice of its row, and the
  same slice of every row is one read-only (batch, rows, cols) view of
  the buffer.  ``build_batch`` hands out those stacked views, copying
  nothing; ``MonodromyEntries.row`` reads one rapidity's blocks, or a
  sub-batch, from them.  ``ybcore.monodromies`` yields the rows of its
  batches, which it bounds by ``BATCH_ENTRIES``, and ``rtt_residuals``
  reads a chunk of ``ybcore.check_rtt``'s draws shift by shift.
* **The operators.**  A plan builds the operators its caller names and
  returns ``()`` for the others.  Each operator has its own write at the
  last site, so only the named ones run there.  A and B read only A and
  B, and C and D only C and D, so if the named operators lie within one of
  those pairs the earlier sites drop the other pair as well.  The transfer
  matrix needs A and D, the B-chains B alone, the exchange relations A, B
  and D.

None of this changes any arithmetic: every entry is still the one product
of an old entry and a weight, through the same multiplication of an entry
array by one broadcast weight per rapidity, and the cap and the operators
only drop blocks no kept block reads.  So each block of a capped, batched
or partial build equals the full single build's block bit for bit
(``tests/test_ybcore.py`` asserts it at every cap and for every choice of
operators for L = 1..6, and against a gather, multiply and scatter build
up to L = 10).
"""

from __future__ import annotations

from functools import cache
from math import comb
from typing import NamedTuple

import numpy as np


@cache
def sector_indices(L: int, sector: int) -> np.ndarray:
    """Basis indices of the fixed down-spin-count sector, ascending
    (read-only, built once per (L, sector))."""
    out = np.flatnonzero(np.bitwise_count(np.arange(2**L)) == sector)
    out.setflags(write=False)
    return out


class MonodromyEntries(NamedTuple):
    """Auxiliary-space blocks of the monodromy matrix, each a tuple of S^z
    blocks indexed by source sector (see the module docstring): at one
    rapidity each block is (rows, cols); stacked over a batch of
    rapidities (``build_batch``) it is (batch, rows, cols)."""

    a: tuple[np.ndarray, ...]
    b: tuple[np.ndarray, ...]
    c: tuple[np.ndarray, ...]
    d: tuple[np.ndarray, ...]

    def transfer(self) -> tuple[np.ndarray, ...]:
        """Sector blocks of T = A + D."""
        return tuple(a + d for a, d in zip(self.a, self.d))

    def row(self, i) -> "MonodromyEntries":
        """Row ``i`` (an index or a slice) of stacked blocks: the blocks of
        one rapidity, or a stacked sub-batch, as views."""
        return MonodromyEntries(*(tuple(blk[i] for blk in blocks) for blocks in self))


#: down-spin count change of A, B, C and D
_SHIFTS = (0, 1, -1, 0)

#: non-zero (s, t) slices of A' = A (x) A_j + B (x) C_j,
#: B' = A (x) B_j + B (x) D_j, C' = C (x) A_j + D (x) C_j and
#: D' = C (x) B_j + D (x) D_j, as (s, t, old block, weight): the old block
#: is 0..3 for A..D, the weight a, b or c of the new site
_SITE_TERMS = (
    ((0, 0, 0, "a"), (0, 1, 1, "c"), (1, 1, 0, "b")),
    ((0, 0, 1, "b"), (1, 0, 0, "c"), (1, 1, 1, "a")),
    ((0, 0, 2, "a"), (0, 1, 3, "c"), (1, 1, 2, "b")),
    ((0, 0, 3, "b"), (1, 0, 2, "c"), (1, 1, 3, "a")),
)


@cache
def _ascending_orders(L: int) -> tuple[np.ndarray, ...]:
    """Per sector of L sites, the permutation from build order (module
    docstring) to ascending basis index."""
    states = [np.zeros(1, dtype=int)]
    for sites in range(L):
        part = lambda k: states[k] if 0 <= k <= sites else np.zeros(0, dtype=int)
        states = [np.concatenate([2 * part(k), 2 * part(k - 1) + 1]) for k in range(sites + 2)]
    position = np.empty(2**L, dtype=int)
    for s in states:
        position[s] = np.arange(len(s))
    return tuple(position[sector_indices(L, k)] for k in range(L + 1))


class _Write(NamedTuple):
    """One buffer filled from the buffer before it.  Weight w (a, b, c)
    reads the contiguous source range ``spans[w]``; the product table

        [old[spans[0]] * a | old[spans[1]] * b | old[spans[2]] * c | 0]

    holds every entry the write needs, and new = table[source]: ``source``
    holds the table position of each new entry.  Entries no weight writes
    point at the final zero."""

    source: np.ndarray
    spans: tuple[tuple[int, int], ...]

    @property
    def size(self) -> int:
        return len(self.source)


def _compile_write(blocks, size: int) -> _Write:
    """The ``_Write`` filling ``size`` entries.  ``blocks`` holds each new
    block as (span, shape, reads, order): each read is a (row slice, column
    slice, weight, old span) whose old block fills that slice, row-major,
    and ``order``, if not None, the (row, column) permutations from build to
    ascending order.  Each entry is written by at most one weight (module
    docstring); the rest read the table's final zero."""
    spans = []
    for w in range(3):
        olds = [old for *_, reads, _ in blocks for *_, weight, old in reads if weight == w]
        spans.append((min(o.start for o in olds), max(o.stop for o in olds)) if olds else (0, 0))
    offsets = np.cumsum([0] + [hi - lo for lo, hi in spans])
    source = np.empty(size, dtype=np.int32)
    for span, shape, reads, order in blocks:
        built = np.full(shape, offsets[-1], dtype=np.int32)
        for rows, cols, w, old in reads:
            view = built[rows, cols]
            first = offsets[w] + old.start - spans[w][0]
            view[...] = np.arange(first, first + view.size, dtype=np.int32).reshape(view.shape)
        source[span] = (built if order is None else built[np.ix_(*order)]).ravel()
    return _Write(source, tuple(spans))


class _Plan(NamedTuple):
    """A compiled build: per site the ``_Write``s that append it, per
    operator the (slice, shape) of each sector block in its final buffer,
    or None for an operator the plan does not build, and the most entries
    one rapidity holds in the buffers of one step."""

    steps: tuple[tuple[_Write, ...], ...]
    layout: tuple[tuple[tuple[slice, tuple[int, int]], ...] | None, ...]
    entries: int


@cache
def build_plan(L: int, top: int, ops: str = "abcd") -> _Plan:
    """The sector-block recursion on L sites, capped at sector ``top``,
    building the operators named in ``ops`` (letters of "abcd", in that
    order), compiled to one index array per write.

    Every block lives in a flat buffer.  Appending site j is a tuple of
    ``_Write``s from the buffer on j sites.  Before the last site one write
    fills one buffer with every block in build order; the last site writes
    one buffer per operator of ``ops`` with each block in ascending order,
    the sorting permutation folded into the index.  The buffer on zero
    sites is [1, 1]: A = D = 1 on sector 0, B and C empty.

    Only blocks whose source and target sectors are <= top are kept, on
    every partial lattice; the recursion never reads any other (module
    docstring).  So each operator has top + 1 blocks, and ``b[top]``, whose
    target lies past the cap, has no rows.  ``top = L`` keeps every block.
    A' and B' read A and B only, C' and D' read C and D only, so if
    ``ops`` lies within one of those pairs the sites before the last carry
    that pair alone.

    Plans are cached per (L, top, ops) for the process; the full one for
    L = 12, the default capacity cap, holds 56 MB of int32 indices, one per
    entry of every buffer, and one capped at a low sector or building fewer
    operators a fraction of that.
    """
    if not ops or ops != "".join(op for op in "abcd" if op in ops):
        raise ValueError(f"ops must be letters of 'abcd' in that order, got {ops!r}")
    carried = next((pair for pair in ("ab", "cd") if set(ops) <= set(pair)), "abcd")
    orders = _ascending_orders(L)
    # per operator, the (span, shape) of each block of the buffer on zero sites
    old = [[(slice(0, 1), (1, 1))], [(slice(0, 0), (0, 1))], [(slice(0, 0), (0, 1))],
           [(slice(1, 2), (1, 1))]]
    steps, entries = [], 0
    for sites in range(L):
        last = sites == L - 1
        kept = ops if last else carried
        dim = lambda k: comb(sites, k) if k >= 0 else 0
        new, writes, layout, blocks, start = [], [], [], [], 0
        for name, shift, terms in zip("abcd", _SHIFTS, _SITE_TERMS):
            if name not in kept:
                # never read: the kept operators read only each other
                new.append(None)
                layout.append(None)
                continue
            op_blocks = []
            for k in range(min(sites + 1, top) + 1):
                rows = (dim(k + shift), dim(k + shift - 1)) if k + shift <= top else (0, 0)
                cols = (dim(k), dim(k - 1))
                shape = (sum(rows), sum(cols))
                span = slice(start, start + shape[0] * shape[1])
                start = span.stop
                reads = [
                    (slice(rows[0] * s, rows[0] + rows[1] * s),
                     slice(cols[0] * t, cols[0] + cols[1] * t),
                     "abc".index(weight), old[old_op][k - t][0])
                    for s, t, old_op, weight in terms if rows[s] * cols[t]
                ]
                if span.stop > span.start:
                    order = (orders[k + shift], orders[k]) if last else None
                    blocks.append((span, shape, reads, order))
                op_blocks.append((span, shape))
            new.append(op_blocks)
            layout.append(tuple(op_blocks))
            if last:
                writes.append(_compile_write(blocks, start))
                blocks, start = [], 0
        if not last:
            writes.append(_compile_write(blocks, start))
        steps.append(tuple(writes))
        entries = max(entries, sum(write.size for write in writes))
        old = new
    return _Plan(tuple(steps), tuple(layout), entries)


#: Entries (rapidities times a plan step's entries per rapidity) one batched
#: build holds in a buffer, and entries one ``np.take`` fills, which bounds
#: the intp copy numpy makes of that slice of the int32 index.  A batch
#: shares a build's fixed cost; with one table and one take per write its
#: entries cost about as much as one rapidity's, so larger batches win until
#: the buffers leave the cache.  Per rapidity, against 2**14: 1,290 entries
#: (L=7 capped at 2) took 0.050 ms against 0.058, 12,870 (full L=7) 0.29
#: against 0.38, 314 (L=12 capped at 1) 0.034 against 0.040; 2**16 saved
#: under 0.01 ms more on each and nothing end to end (2-vCPU x86_64 VM).
#: Full builds from L = 8 on go one at a time.  ``polyengine.tensor_interpolate``
#: bounds its chunks by the same count: for the 70 sector-4 fits at L = 8
#: (4,096 values each) the traced peak of ``functional.extract_fbars`` is
#: 17.3 MB at every count from 2**12 to 2**16, 18.8 MB at 2**17 and 21.7 MB
#: unchunked, with no time difference above the noise.
BATCH_ENTRIES = 2**15


def chunks(count: int, entries: int) -> list[slice]:
    """Slices over ``count`` items of ``entries`` entries each, as many
    items a slice as ``BATCH_ENTRIES`` holds (at least one): the chunking
    rule of every batched loop."""
    size = max(1, BATCH_ENTRIES // max(1, entries))
    return [slice(start, min(start + size, count)) for start in range(0, count, size)]


def _apply_write(old: np.ndarray, write: _Write, weights) -> np.ndarray:
    """The buffer ``write`` fills from ``old`` (shape (batch, entries)): one
    product table, then one take per bounded chunk of the index."""
    batch = len(old)
    table = np.empty((batch, sum(hi - lo for lo, hi in write.spans) + 1), dtype=complex)
    offset = 0
    for (lo, hi), w in zip(write.spans, weights):
        # each weight is a scalar or one per row, broadcast, so every batch
        # runs the same vectorised product as a batch of one
        np.multiply(old[:, lo:hi], w, out=table[:, offset : offset + hi - lo])
        offset += hi - lo
    table[:, offset] = 0
    new = np.empty((batch, write.size), dtype=complex)
    # ``ybcore.monodromies`` sizes batches so one chunk spans a write; "clip"
    # fills ``new`` in place where the default "raise" would buffer it, and
    # every compiled index lies inside the table, so nothing is clipped
    for part in chunks(write.size, batch):
        np.take(table, write.source[part], axis=1, out=new[:, part], mode="clip")
    return new


def build_batch(wa: np.ndarray, wb: np.ndarray, c: complex, plan: _Plan) -> MonodromyEntries:
    """The monodromies of a batch of rapidities, stacked: ``wa`` and ``wb``
    hold the weights a and b of each site (shape (batch, L)), one row per
    rapidity, and c is the weight shared by every site; the build runs
    through buffers of shape (batch, entries).  Each block is a read-only
    (batch, rows, cols) view of its operator's last-site buffer, whose row
    i is the block of rapidity i (``MonodromyEntries.row``).  Operators the
    plan does not build come back as ``()``.
    """
    flat = np.ones((len(wa), 2), dtype=complex)
    for j, writes in enumerate(plan.steps):
        weights = (wa[:, j, None], wb[:, j, None], c)
        bufs = [_apply_write(flat, write, weights) for write in writes]
        flat = bufs[0]
    for buf in bufs:
        if not np.isfinite(buf.view(np.float64)).all():
            raise ValueError("monodromy entries must be finite")
        buf.setflags(write=False)
    built = iter(bufs)
    by_op = [None if offsets is None else next(built) for offsets in plan.layout]
    return MonodromyEntries(*(
        () if offsets is None else
        tuple(buf[:, span].reshape((len(wa),) + shape) for span, shape in offsets)
        for buf, offsets in zip(by_op, plan.layout)
    ))


# -- the RTT relation on sector blocks ------------------------------------------

#: Per shift s, the auxiliary cells (2i + k, 2j + l) of M(u) (x) M(v) whose
#: M_ij(u) M_kl(v) moves the down-spin count by s = (j + l) - (i + k)
_AUX_PAIRS = {s: tuple((c, d) for c in range(4) for d in range(4)
                       if (d // 2 + d % 2) - (c // 2 + c % 2) == s) for s in range(-2, 3)}


@cache
def _rtt_layout(L: int, s: int):
    """Shift s on L sites: entries per pair, products, and the entry of R
    (16: 0) weighing pair p at index[a, side, d, p], as int8: cached
    int64 blocks raised verify_L9n3's peak RSS by 0.2 MB."""
    products = []
    dims = [comb(L, q + s) * comb(L, q) if q + s >= 0 else 0 for q in range(L + 1)]
    ends = np.cumsum(dims).tolist()
    index = np.full((4, 2, 4, len(_AUX_PAIRS[s])), 16, dtype=np.int8)
    for p, (c, d) in enumerate(_AUX_PAIRS[s]):
        (i, k), (j, l) = divmod(c, 2), divmod(d, 2)
        index[:, 0, d, p] = 4 * np.arange(4) + c
        index[c, 1, :, p] = 4 * d + np.arange(4)
        products += [(p, slice(ends[q] - dims[q], ends[q]), 2 * i + j, q + l - k, 2 * k + l, q)
                     for q in range(L + 1) if dims[q] and 0 <= q + l - k <= L]
    return ends[-1], products, index


def rtt_entries(L: int) -> int:
    """Entries a draw of ``rtt_residuals`` holds for an R without zeros:
    the build and shift 1, or shift 0, and 384.  Traced (numpy 2.4) 1,770
    at L = 4 and 6,230 at L = 5; 1,440 and 5,040 for the six-vertex R."""
    c0, c1 = comb(2 * L, L), comb(2 * L, L + 1)
    return max(24 * c0, 4 * c0 + 24 * c1) + 384


def rtt_residuals(m: MonodromyEntries, r: np.ndarray) -> np.ndarray:
    """Per draw max |lhs - rhs| / max(|lhs|, |rhs|) over every entry of
    R [M(x) (x) M(y)] = [M(y) (x) M(x)] R, from full builds ``m`` (x, y of
    a draw in adjacent rows) and R matrices ``r``.

    Per shift, a (side, draw, pair, entry) buffer holds both sides'
    products; row a of a side is one matmul with it, of R[a, c] at (d, (c,
    d)) on the left, R[d, d'] at (d', (a, d)) on the right: alike on both
    sides, so x = y reads 0.  Cells no non-zero entry of R reaches are zero
    and skipped.  Shift 0 runs after the build (handed over) is freed.
    """
    L, draws = len(m.a) - 1, len(r)
    ops = list(m)
    del m

    def pair(op, k):
        """Block k of operator op as (side, draw, rows, cols): x, then y."""
        return ops[op][k].reshape(draws, 2, *ops[op][k].shape[1:]).swapaxes(0, 1)

    weights = np.append(r.reshape(draws, 16), np.zeros((draws, 1)), 1)
    nonzero = np.append(np.any(r != 0, axis=0), False)

    def shift(s):  # per draw max |lhs|, |rhs|, |lhs - rhs|
        size, products, index = _rtt_layout(L, s)
        pairs = np.zeros((2, draws, index.shape[-1], size), dtype=complex)
        for p, span, u, mid, v, q in products:
            out = pairs[:, :, p, span].reshape(2, draws, -1, comb(L, q))
            np.matmul(pair(u, mid), pair(v, q)[::-1], out=out)
        if s == 0:
            del ops[:]
        live = nonzero[index].any(axis=(1, 3))
        tops = np.zeros((4, 3, draws))
        for row, cells, top in zip(index, live, tops):
            if cells.any():
                o = np.matmul(weights[:, row[:, cells]].swapaxes(0, 1), pairs)
                top[:2] = np.max(np.abs(o), axis=(2, 3))
                np.subtract(o[0], o[1], out=o[0])
                top[2] = np.max(np.abs(o[0]), axis=(1, 2))
                del o
        return tops.max(axis=0)

    tops = np.max([shift(s) for s in (2, -2, 1, -1, 0) if abs(s) <= L], axis=0)
    return tops[2] / np.maximum(tops[:2].max(axis=0), 1e-300)
