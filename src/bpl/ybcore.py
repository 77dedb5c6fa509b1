"""Six-vertex R-matrix, monodromy and transfer operators, and the algebraic
identities they satisfy.

Everything is ``complex128``.  The quantum space is ``(C^2)^{tensor L}``
with basis states indexed by bitstrings (bit 1 = down spin, the last site
in the lowest bit), so the number of set bits is the S^z-sector label.  The
monodromy is the ordered product of one permuted R-matrix P R(lambda - mu_j)
per site, held as a 2x2 block matrix over the auxiliary space,

    M(lambda) = [[A, B], [C, D]];

A and D preserve the down-spin count, B raises it by one and C lowers it by
one, so each is held as its S^z blocks only, a tuple indexed by the source
sector k = 0..L:

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
``_build_plan`` compiles the recursion once per L and cap into flat index
arrays, and a build appends each site with one gather, multiply and scatter
per weight instead of one small array operation per block.

Two things keep a build to what its caller reads:

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
* **A batch.**  ``monodromies`` builds many rapidities in one pass of the
  plan, every buffer of shape (batch, entries): one row per rapidity, so
  each block of each rapidity is a contiguous slice of its row.  Batches
  are bounded by ``BATCH_ENTRIES``.

Neither changes any arithmetic: every entry is still the one product of an
old entry and a weight, through the same multiplication of an entry array
by one weight per rapidity, and the cap only drops blocks no kept block
reads.  So each block of a capped or batched build equals the full single
build's block bit for bit (``tests/test_ybcore.py`` asserts it at every
cap for L = 1..6).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from math import comb, isfinite
from typing import Iterator, NamedTuple

import numpy as np

from .config import SINGULARITY_GUARD, SpectralConfig
from .errors import CoincidentRapiditiesError, DegeneracyError


# -- statistical weights ------------------------------------------------------

def weight_a(x: complex, gamma: complex) -> complex:
    """a(x) = sinh(x + gamma)."""
    return np.sinh(x + gamma)


def weight_b(x: complex) -> complex:
    """b(x) = sinh(x)."""
    return np.sinh(x)


def weight_c(gamma: complex) -> complex:
    """c = sinh(gamma), independent of the spectral parameter."""
    return np.sinh(gamma)


def _require_finite(*vals):
    """Raise ``ValueError`` naming the first non-finite value; each argument
    is a number or an array of them."""
    for v in vals:
        if isinstance(v, np.ndarray):
            bad = v[~np.isfinite(v)]
            if bad.size:
                raise ValueError(f"non-finite parameter {complex(bad[0])!r}")
        else:
            v = complex(v)
            if not (isfinite(v.real) and isfinite(v.imag)):
                raise ValueError(f"non-finite parameter {v!r}")


# -- S^z sectors ------------------------------------------------------------------

@cache
def sector_indices(L: int, sector: int) -> np.ndarray:
    """Basis indices of the fixed down-spin-count sector, ascending
    (read-only, built once per (L, sector))."""
    out = np.array([i for i in range(2**L) if bin(i).count("1") == sector], dtype=int)
    out.setflags(write=False)
    return out


def max_abs(blocks) -> float:
    """Largest entry modulus over a sequence of blocks: the max-norm of the
    operator they make up."""
    return max((float(np.max(np.abs(b))) for b in blocks if b.size), default=0.0)


def _dense(blocks, shift: int) -> np.ndarray:
    """The 2^L x 2^L operator whose sector blocks (source sector k to
    k + shift) are ``blocks``."""
    L = len(blocks) - 1
    idx = [sector_indices(L, k) for k in range(L + 1)]
    out = np.zeros((2**L, 2**L), dtype=complex)
    for k, blk in enumerate(blocks):
        if blk.size:
            out[np.ix_(idx[k + shift], idx[k])] = blk
    return out


# -- operators ----------------------------------------------------------------

class MonodromyEntries(NamedTuple):
    """Auxiliary-space blocks of the monodromy matrix at one rapidity, each
    a tuple of S^z blocks indexed by source sector (see the module
    docstring)."""

    a: tuple[np.ndarray, ...]
    b: tuple[np.ndarray, ...]
    c: tuple[np.ndarray, ...]
    d: tuple[np.ndarray, ...]

    def transfer(self) -> tuple[np.ndarray, ...]:
        """Sector blocks of T = A + D."""
        return tuple(a + d for a, d in zip(self.a, self.d))


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


def r_matrix(x: complex, gamma: complex) -> np.ndarray:
    """Trigonometric six-vertex R-matrix on C^2 (x) C^2.

    Corner entries carry a(x) = sinh(x + gamma); the middle block has
    c = sinh(gamma) on its diagonal and b(x) = sinh(x) off it.  (This places
    c on the middle-block diagonal, the transpose of the more common layout;
    all identities checked in this package are self-consistent with it.)
    """
    _require_finite(x, gamma)
    a, b, c = weight_a(x, gamma), weight_b(x), weight_c(gamma)
    return np.array(
        [
            [a, 0, 0, 0],
            [0, c, b, 0],
            [0, b, c, 0],
            [0, 0, 0, a],
        ],
        dtype=complex,
    )


def check_ybe(x: complex, y: complex, gamma: complex) -> float:
    """Max-norm residual of the Yang-Baxter equation on C^2 (x) C^2 (x) C^2.

    Compares [R(x) (x) 1][1 (x) R(x+y)][R(y) (x) 1] against
    [1 (x) R(y)][R(x+y) (x) 1][1 (x) R(x)].
    """
    eye = np.eye(2)
    r = lambda z: r_matrix(z, gamma)
    lhs = np.kron(r(x), eye) @ np.kron(eye, r(x + y)) @ np.kron(r(y), eye)
    rhs = np.kron(eye, r(y)) @ np.kron(r(x + y), eye) @ np.kron(eye, r(x))
    return float(np.max(np.abs(lhs - rhs)))


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
    """One zeroed buffer of ``size`` entries filled as
    new[dst[w]] = old[src[w]] * (a, b, c)[w] for each weight w."""

    src: tuple[np.ndarray, np.ndarray, np.ndarray]
    dst: tuple[np.ndarray, np.ndarray, np.ndarray]
    size: int


def _flat_write(src, dst, size: int) -> _Write:
    """A ``_Write`` from per-weight lists of source and destination index
    blocks."""
    cat = lambda parts: tuple(np.concatenate([np.zeros(0, dtype=np.int32), *p]).astype(np.int32) for p in parts)
    return _Write(cat(src), cat(dst), size)


class _Plan(NamedTuple):
    """A compiled build: per site the ``_Write``s that append it, per
    operator the (slice, shape) of each sector block in its final buffer,
    and the most entries one rapidity holds in the buffers of one step."""

    steps: tuple[tuple[_Write, ...], ...]
    layout: tuple[tuple[tuple[slice, tuple[int, int]], ...], ...]
    entries: int


@cache
def _build_plan(L: int, top: int) -> _Plan:
    """The sector-block recursion on L sites, capped at sector ``top`` and
    compiled to flat index arrays.

    Every block lives in a flat buffer.  Appending site j is a tuple of
    ``_Write``s from the buffer on j sites.  Before the last site one write
    fills one buffer with every block in build order; the last site writes
    one buffer per operator with each block in ascending order, the sorting
    permutation folded into ``dst``.  The buffer on zero sites is [1, 1]:
    A = D = 1 on sector 0, B and C empty.

    Only blocks whose source and target sectors are <= top are kept, on
    every partial lattice; the recursion never reads any other (module
    docstring).  So each operator has top + 1 blocks, and ``b[top]``, whose
    target lies past the cap, has no rows.  ``top = L`` keeps every block.

    Plans are cached per (L, top) for the process; the full one for L = 12,
    the default capacity cap, holds 84 MB of int32 indices, and one capped
    at a low sector a small fraction of that.
    """
    orders = _ascending_orders(L)
    empty = np.zeros((0, 1), dtype=np.int32)
    old = [[np.array([[0]], dtype=np.int32)], [empty], [empty], [np.array([[1]], dtype=np.int32)]]
    steps, entries = [], 0
    for sites in range(L):
        last = sites == L - 1
        dim = lambda k: comb(sites, k) if k >= 0 else 0
        new, writes, layout, start = [], [], [], 0
        src, dst = ([], [], []), ([], [], [])
        for shift, terms in zip(_SHIFTS, _SITE_TERMS):
            blocks, offsets = [], []
            for k in range(min(sites + 1, top) + 1):
                rows = (dim(k + shift), dim(k + shift - 1)) if k + shift <= top else (0, 0)
                cols = (dim(k), dim(k - 1))
                pos = np.arange(start, start + sum(rows) * sum(cols)).reshape(sum(rows), sum(cols))
                offsets.append((slice(start, start + pos.size), pos.shape))
                start += pos.size
                if last and pos.size:
                    pos_built = np.empty_like(pos)
                    pos_built[np.ix_(orders[k + shift], orders[k])] = pos
                    pos = pos_built
                for s, t, old_op, name in terms:
                    view = pos[rows[0] * s : rows[0] + rows[1] * s, cols[0] * t : cols[0] + cols[1] * t]
                    if view.size:
                        w = "abc".index(name)
                        src[w].append(old[old_op][k - t].ravel())
                        dst[w].append(view.ravel())
                blocks.append(pos)
            new.append(blocks)
            if last:
                writes.append(_flat_write(src, dst, start))
                layout.append(tuple(offsets))
                src, dst, start = ([], [], []), ([], [], []), 0
        if not last:
            writes.append(_flat_write(src, dst, start))
        steps.append(tuple(writes))
        entries = max(entries, sum(write.size for write in writes))
        old = new
    return _Plan(tuple(steps), tuple(layout), entries)


#: Entries (rapidities times a plan step's entries per rapidity) one batched
#: build holds in a buffer.  A batch shares a build's fixed cost (about
#: 0.25 ms), but its gathers cost more per entry, most in batches of 2 or 3:
#: per rapidity, 1,290 entries (L=7 capped at 2) took 0.28 ms alone and
#: 0.06 ms in batches of 12, 12,870 (full L=7) 0.49 ms alone and 0.55 ms in
#: pairs (2-vCPU x86_64 VM).  So plans up to ~5,000 entries go by 3 or more
#: and larger ones, every full build from L = 7 on, one at a time.
BATCH_ENTRIES = 2**14


def _build_batch(x: np.ndarray, gamma: complex, plan: _Plan) -> list[MonodromyEntries]:
    """One monodromy per row of ``x``, the site arguments lambda - mu_j of
    a batch of rapidities (shape (batch, L)), through buffers of shape
    (batch, entries)."""
    wa, wb, c = weight_a(x, gamma), weight_b(x), weight_c(gamma)
    flat = np.ones((len(x), 2), dtype=complex)
    for j, writes in enumerate(plan.steps):
        weights = (wa[:, j, None], wb[:, j, None], c)
        bufs = []
        for write in writes:
            buf = np.zeros((len(x), write.size), dtype=complex)
            for src, dst, w in zip(write.src, write.dst, weights):
                buf[:, dst] = flat[:, src] * w
            bufs.append(buf)
        flat = bufs[0]
    for buf in bufs:
        if not np.isfinite(buf).all():
            raise ValueError("monodromy entries must be finite")
        buf.setflags(write=False)
    return [
        MonodromyEntries(*(
            tuple(buf[i, span].reshape(shape) for span, shape in offsets)
            for buf, offsets in zip(bufs, plan.layout)
        ))
        for i in range(len(x))
    ]


def monodromies(lams, cfg: SpectralConfig, top: int | None = None) -> Iterator[MonodromyEntries]:
    """The monodromy at each of ``lams``, in order, capped at sector ``top``
    (default L): the ordered product of P R(lambda - mu_j) over the lattice,
    as the S^z blocks of its auxiliary-space blocks A, B, C, D whose source
    and target sectors are <= top.

    Site j contributes the weights a = sinh(lambda - mu_j + gamma),
    b = sinh(lambda - mu_j) and c = sinh(gamma), with site blocks
    A_j = diag(a, b), B_j = c at (1, 0), C_j = c at (0, 1) and
    D_j = diag(b, a).  Each step writes the non-zero slices of every new
    sector block through the precompiled index arrays of ``_build_plan``,
    for a whole batch of rapidities at once; batches hold at most
    ``BATCH_ENTRIES`` entries (see the module docstring for why the blocks
    equal slices of the Kronecker recursion exactly, at any cap and batch).

    The arguments are checked here, before anything is built; the builds
    run as the result is iterated.  The blocks are read-only, so a caller
    that keeps one for reuse cannot be corrupted by another caller writing
    into it.
    """
    lams = np.array([complex(lam) for lam in lams], dtype=complex)
    top = cfg.L if top is None else top
    if not 0 <= top <= cfg.L:
        raise ValueError(f"top must lie in [0, {cfg.L}], got {top}")
    _require_finite(lams)
    cfg.check_dense_capacity()
    x = lams[:, None] - np.array(cfg.mu, dtype=complex)
    _require_finite(x)
    plan = _build_plan(cfg.L, top)
    size = max(1, BATCH_ENTRIES // plan.entries)
    return (
        m for start in range(0, len(x), size)
        for m in _build_batch(x[start : start + size], cfg.gamma, plan)
    )


def monodromy(lam: complex, cfg: SpectralConfig, top: int | None = None) -> MonodromyEntries:
    """The monodromy at one rapidity: ``monodromies`` on a batch of one."""
    return next(monodromies([lam], cfg, top))


def transfer(lam: complex, cfg: SpectralConfig) -> tuple[np.ndarray, ...]:
    """Sector blocks of the transfer matrix T(lambda) = A(lambda) + D(lambda)."""
    return monodromy(lam, cfg).transfer()


def _aux_product(m1: np.ndarray, m2: np.ndarray, d: int) -> np.ndarray:
    # (M1 (x) M2)[(i k),(j l)] = M1[i,:,j,:] M2[k,:,l,:] as a quantum-space
    # operator product; auxiliary indices Kronecker, quantum indices compose.
    t1 = m1.reshape(2, d, 2, d)
    t2 = m2.reshape(2, d, 2, d)
    return np.einsum("isjt,ktlu->iksjlu", t1, t2).reshape(4 * d, 4 * d)


def check_rtt(x: complex, y: complex, cfg: SpectralConfig) -> float:
    """Relative max-norm residual of the quadratic exchange relation

        R(x-y) [M(x) (x) M(y)] = [M(y) (x) M(x)] R(x-y)

    on the 4 * 2^L dimensional space, with each monodromy assembled densely
    from its sector blocks (the suites call it at L <= 5).  Normalised by
    the operand norms so the figure is meaningful at any lattice length.
    """
    _require_finite(x, y)
    d = cfg.quantum_dim
    # each monodromy as one dense matrix on (auxiliary) (x) (quantum)
    mx, my = (
        np.block([[_dense(m.a, 0), _dense(m.b, 1)], [_dense(m.c, -1), _dense(m.d, 0)]])
        for m in monodromies([x, y], cfg)
    )
    r = np.kron(r_matrix(x - y, cfg.gamma), np.eye(d))
    lhs = r @ _aux_product(mx, my, d)
    rhs = _aux_product(my, mx, d) @ r
    scale = max(np.max(np.abs(lhs)), np.max(np.abs(rhs)), 1e-300)
    return float(np.max(np.abs(lhs - rhs)) / scale)


# -- higher-degree exchange relations ------------------------------------------

def stacked_product(*factors) -> np.ndarray:
    """Elementwise product of broadcastable complex factors, left to
    right, rounded exactly as numpy's scalar ``*`` rounds it.

    numpy's vectorised complex ``*`` of two arrays can differ from the
    scalar one in the last bit, while a multiply-reduce over a stacked last
    axis matches it.  The batched coefficients below replace products that
    were once formed one scalar at a time, and sampled residuals amplify
    their roundoff, so they form every product here or as a reduce over
    their last axis.
    """
    stacked = np.empty(np.broadcast(*factors).shape + (len(factors),), dtype=complex)
    for k, factor in enumerate(factors):
        stacked[..., k] = factor
    return np.multiply.reduce(stacked, axis=-1)


@cache
def _exchange_indices(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """For n rapidities: the two index arrays of the pairs i < j, in loop
    order, and the (n, n-1) indices of the rapidities other than each one,
    in order (read-only, built once per n)."""
    first, second = np.triu_indices(n, 1)
    others = np.array([[t for t in range(n) if t != i] for i in range(n)], dtype=int)
    out = (first, second, others.reshape(n, max(n - 1, 0)))
    for arr in out:
        arr.setflags(write=False)
    return out


def _guard_rapidities(lam0s: np.ndarray, rows: np.ndarray):
    """Raise ``CoincidentRapiditiesError`` for the first pair closer than
    the guard in |sinh| among any lam0 of ``lam0s`` (N,) with the rapidities
    of any row of ``rows`` (P, n): x0 rapidities outermost, then rows, then
    the pairs of [lam0] + row in order, as one loop over the batch would."""
    n = rows.shape[1]
    first, second, _ = _exchange_indices(n)
    with_lam0 = np.abs(weight_b(lam0s[:, None, None] - rows))
    within = np.abs(weight_b(rows[:, first] - rows[:, second]))
    if not ((with_lam0 < SINGULARITY_GUARD).any() or (within < SINGULARITY_GUARD).any()):
        return
    seps = np.concatenate(
        [with_lam0, np.broadcast_to(within, with_lam0.shape[:2] + within.shape[1:])], axis=-1
    )
    a, p, k = np.argwhere(seps < SINGULARITY_GUARD)[0]
    pair = (lam0s[a], rows[p, k]) if k < n else (rows[p, first[k - n]], rows[p, second[k - n]])
    raise CoincidentRapiditiesError(tuple(complex(v) for v in pair), seps[a, p, k])


def _ratio_product(diffs: np.ndarray, gamma: complex) -> np.ndarray:
    """prod a(d)/b(d) over the last axis of ``diffs``."""
    return np.multiply.reduce(weight_a(diffs, gamma) / weight_b(diffs), axis=-1)


def exchange_m_factors(lam0s, lam_rows, gamma: complex):
    """Scalar coefficients of the degree-(n+1) exchange identity at every
    x0 rapidity of ``lam0s`` (N,) and every row of ``lam_rows`` (P, n).

    Returns ``(MA0, MD0, MA, MD)`` of shapes (N, P), (N, P), (N, P, n) and
    (N, P, n); for lam0 = lam0s[a] and l = lam_rows[p],

        MA0 = prod a(l - l0)/b(l - l0),     MD0 = prod a(l0 - l)/b(l0 - l),
        MA[i] = c(l_i - l0)/b(l_i - l0) prod_{t != i} a(l_t - l_i)/b(l_t - l_i),
        MD[i] = c(l0 - l_i)/b(l0 - l_i) prod_{t != i} a(l_i - l_t)/b(l_i - l_t).

    Each entry equals the one-point evaluation bit for bit
    (``stacked_product``).  Raises ``CoincidentRapiditiesError`` if any
    lam0 and row hold a coincident pair.
    """
    lam0s = np.asarray(lam0s, dtype=complex)
    rows = np.asarray(lam_rows, dtype=complex)
    _guard_rapidities(lam0s, rows)
    to_lam0 = rows - lam0s[:, None, None]
    from_lam0 = lam0s[:, None, None] - rows
    # others[p, i] holds the rapidities of row p other than l_i
    others, own = rows[:, _exchange_indices(rows.shape[1])[2]], rows[:, :, None]
    c = weight_c(gamma)
    ma = stacked_product(c / weight_b(to_lam0), _ratio_product(others - own, gamma))
    md = stacked_product(c / weight_b(from_lam0), _ratio_product(own - others, gamma))
    return _ratio_product(to_lam0, gamma), _ratio_product(from_lam0, gamma), ma, md


class OffRelationResiduals(NamedTuple):
    a_relation: float
    d_relation: float
    transfer_identity: float


def check_off_relations(lam0: complex, lams, cfg: SpectralConfig) -> OffRelationResiduals:
    """Residuals of the two degree-(n+1) exchange relations moving
    A(lambda_0) and D(lambda_0) through a B-product, plus their sum (the
    transfer-matrix identity obtained by adding both lines).

    Both sides map sector k to k + n, so they are formed one source sector
    k = 0..L-n at a time; every other block of either side is zero.
    Residuals are max-norm differences over all sectors, normalised by the
    operand max-norms.  Raises on coincident rapidities, which make the
    coefficients singular.
    """
    lams = list(lams)
    n = len(lams)
    ma0, md0, ma, md = (f[0, 0] for f in exchange_m_factors([lam0], [lams], cfg.gamma))
    distinct = list(dict.fromkeys([lam0] + lams))
    ops = dict(zip(distinct, monodromies(distinct, cfg)))

    def bprod(ls, k):
        """B(ls[0]) ... B(ls[-1]) on source sector k."""
        out = ops[ls[-1]].b[k]
        for j, l in enumerate(reversed(ls[:-1]), 1):
            out = ops[l].b[k + j] @ out
        return out

    m0 = {"a": ma0, "d": md0}
    mlist = {"a": ma, "d": md}
    # per relation (A line, D line, their sum): max |lhs - rhs|, |lhs|, |rhs|
    stats = np.zeros((3, 3))
    for k in range(cfg.L - n + 1):
        x_full = bprod(lams, k) if lams else np.eye(len(ops[lam0].a[k]), dtype=complex)
        lhs = {key: getattr(ops[lam0], key)[k + n] @ x_full for key in "ad"}
        rhs = {key: m0[key] * (x_full @ getattr(ops[lam0], key)[k]) for key in "ad"}
        # each product B(lam0) prod_{t != i} B(l_t) is built once and serves
        # both lines
        for i, l in enumerate(lams):
            swapped = bprod([lam0] + lams[:i] + lams[i + 1:], k)
            for key in "ad":
                rhs[key] = rhs[key] - mlist[key][i] * (swapped @ getattr(ops[l], key)[k])
        sides = ((lhs["a"], rhs["a"]), (lhs["d"], rhs["d"]),
                 (lhs["a"] + lhs["d"], rhs["a"] + rhs["d"]))
        for row, (left, right) in enumerate(sides):
            stats[row] = np.maximum(stats[row], [np.max(np.abs(left - right)),
                                                 np.max(np.abs(left)), np.max(np.abs(right))])
    return OffRelationResiduals(
        *(float(diff / max(left, right, 1e-300)) for diff, left, right in stats)
    )


# -- spectra -----------------------------------------------------------------------

@dataclass
class EigenChoice:
    """One transfer-matrix eigenpair, with left and right eigenvectors.

    * ``sector``: down-spin count of the invariant block.
    * ``right``/``left``: vectors in that sector, in ``sector_indices``
      order, matched so both are eigenvectors of T / T^t with the same
      eigenvalue function.

    ``eigenvalue_from`` evaluates Lambda through the bilinear form
    <left| T |right> / <left|right>; the left vector is
    rapidity-independent because the transfer matrices commute.  Both
    methods take T as the sector blocks ``transfer`` returns.
    """

    cfg: SpectralConfig
    sector: int
    index: int
    right: np.ndarray
    left: np.ndarray
    probes: tuple[complex, complex]

    def eigenvalue_from(self, t) -> complex:
        """Lambda read off a transfer matrix the caller has already built."""
        blk = t[self.sector]
        return complex((self.left @ blk @ self.right) / (self.left @ self.right))

    def residuals_from(self, t, norm: float | None = None) -> tuple[float, float]:
        """Right and left eigen-residuals (2-norms) against a prebuilt
        transfer matrix, relative to its max-norm over all sectors.  A caller
        that checks many eigenpairs against one T passes that max-norm
        (``max_abs(t)``) as ``norm`` instead of having it recomputed."""
        val = self.eigenvalue_from(t)
        blk = t[self.sector]
        r = np.linalg.norm(blk @ self.right - val * self.right)
        l = np.linalg.norm(self.left @ blk - val * self.left)
        scale = max(max_abs(t) if norm is None else norm, 1e-300)
        return float(r / scale), float(l / scale)


def spectrum(cfg: SpectralConfig, sector: int) -> list[EigenChoice]:
    """Eigen-decomposition of the transfer matrix on one S^z sector.

    Degenerate clusters at the first probe rapidity are split by
    diagonalising the second probe's transfer matrix on the cluster's
    invariant subspace (simultaneous-diagonalisation refinement).  Left
    eigenvectors come from the inverse of the refined right-eigenvector
    matrix.  If residuals at either probe stay above tolerance the pair of
    probes did not resolve the spectrum and a DegeneracyError, carrying the
    probes and the sizes of the degenerate clusters, is raised.

    The transfer matrix is built once per probe.  The decomposition, the
    residual check and the eigenvalue sort key all read those two matrices,
    which are dropped when the function returns; the returned eigenpairs
    keep no operator.
    """
    if not 0 <= sector <= cfg.L:
        raise ValueError(f"sector must lie in [0, {cfg.L}], got {sector}")
    rng = cfg.rng("spectrum-probes")
    probes = (
        complex(rng.uniform(-1, 1) + 1j * rng.uniform(-0.5, 0.5)),
        complex(rng.uniform(-1, 1) + 1j * rng.uniform(-0.5, 0.5)),
    )
    t_probes = [transfer(p, cfg) for p in probes]
    t1, t2 = (t[sector] for t in t_probes)
    ev, vec = np.linalg.eig(t1)
    scale = max(np.max(np.abs(ev)), 1.0)
    used = np.zeros(len(ev), dtype=bool)
    clusters = []
    for i in range(len(ev)):
        if used[i]:
            continue
        cluster = [j for j in range(len(ev)) if not used[j] and abs(ev[j] - ev[i]) < 1e-8 * scale]
        for j in cluster:
            used[j] = True
        if len(cluster) > 1:
            clusters.append(len(cluster))
            sub = vec[:, cluster]
            small = np.linalg.pinv(sub) @ t2 @ sub
            _, w = np.linalg.eig(small)
            vec[:, cluster] = sub @ w
    vec /= np.linalg.norm(vec, axis=0, keepdims=True)
    try:
        left_rows = np.linalg.inv(vec)
    except np.linalg.LinAlgError as exc:
        raise DegeneracyError(
            "right eigenvectors are not independent", probes, clusters
        ) from exc

    out = []
    for k in range(len(ev)):
        lrow = left_rows[k]
        out.append(EigenChoice(
            cfg, sector, k, vec[:, k].copy(), lrow / np.linalg.norm(lrow), tuple(probes)
        ))

    worst = 0.0
    for t in t_probes:
        norm = max_abs(t)
        for eig in out:
            worst = max(worst, *eig.residuals_from(t, norm))
    if worst > max(cfg.tol, 1e-9):
        raise DegeneracyError(
            f"eigenpair residual {worst:.3g} above tolerance; the sector may be degenerate",
            probes, clusters,
        )

    def sort_key(e: EigenChoice):
        val = e.eigenvalue_from(t_probes[0])
        return round(val.real, 9), round(val.imag, 9)

    out.sort(key=sort_key)
    for k, eig in enumerate(out):
        eig.index = k
    return out
