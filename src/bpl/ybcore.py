"""Six-vertex R-matrix, monodromy and transfer operators, and the algebraic
identities they satisfy.

Everything is ``complex128``.  The quantum space is ``(C^2)^{tensor L}``
with basis states indexed by bitstrings (bit 1 = down spin, the last site
in the lowest bit), so the number of set bits is the S^z-sector label.  The
monodromy is the ordered product of one permuted R-matrix P R(lambda - mu_j)
per site, held as a 2x2 block matrix over the auxiliary space,

    M(lambda) = [[A, B], [C, D]];

A and D preserve the down-spin count, B raises it by one and C lowers it by
one, so each is held as its S^z blocks only (``MonodromyEntries``);
``blockbuild`` documents that layout and the compiled recursion that builds
it, and ``monodromies`` here checks the arguments and batches the
rapidities.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, cached_property
from math import comb, isfinite
from typing import Iterator, NamedTuple

import numpy as np

from . import blockbuild
from .blockbuild import _SHIFTS, MonodromyEntries, sector_indices
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

def max_abs(blocks) -> float:
    """Largest entry modulus over a sequence of blocks: the max-norm of the
    operator they make up."""
    return max((float(np.max(np.abs(b))) for b in blocks if b.size), default=0.0)


# -- operators ----------------------------------------------------------------

def r_matrix(x, gamma) -> np.ndarray:
    """Trigonometric six-vertex R-matrix on C^2 (x) C^2; for arrays of
    arguments, one per broadcast entry, stacked on the leading axes.

    Corner entries carry a(x) = sinh(x + gamma); the middle block has
    c = sinh(gamma) on its diagonal and b(x) = sinh(x) off it.  (This places
    c on the middle-block diagonal, the transpose of the more common layout;
    all identities checked in this package are self-consistent with it.)
    """
    x, gamma = np.broadcast_arrays(np.asarray(x, dtype=complex), np.asarray(gamma, dtype=complex))
    _require_finite(x, gamma)
    out = np.zeros(x.shape + (4, 4), dtype=complex)
    out[..., 0, 0] = out[..., 3, 3] = weight_a(x, gamma)
    out[..., 1, 1] = out[..., 2, 2] = weight_c(gamma)
    out[..., 1, 2] = out[..., 2, 1] = weight_b(x)
    return out


#: Draws per stacked product in ``check_ybe``.  All 100 of the suite's draws
#: at once make (100, 8, 8) temporaries of 100 KB each, which grew the heap
#: and raised all_L4n2's peak RSS by 0.15-0.25 MB; in passes of 20 it
#: matched the parent's (150 passes in one process, 2-vCPU x86_64 VM).
_YBE_DRAWS = 20


def check_ybe(x, y, gamma) -> float:
    """Max-norm residual of the Yang-Baxter equation on C^2 (x) C^2 (x) C^2,
    the largest over the broadcast draws of ``x``, ``y`` and ``gamma``.

    Compares [R(x) (x) 1][1 (x) R(x+y)][R(y) (x) 1] against
    [1 (x) R(y)][R(x+y) (x) 1][1 (x) R(x)], ``_YBE_DRAWS`` draws per
    stacked product.  ``np.kron`` of a stack with the 2x2 identity forms
    each draw's factor, and each draw's products are the 8x8 matrix
    products of its own factors, so the result equals the largest one-draw
    residual exactly.
    """
    x, y, gamma = (np.ravel(v).astype(complex) for v in np.broadcast_arrays(x, y, gamma))
    eye = np.eye(2)
    worst = 0.0
    for k in range(0, len(x), _YBE_DRAWS):
        xs, ys, gs = (v[k : k + _YBE_DRAWS] for v in (x, y, gamma))
        r = lambda z: r_matrix(z, gs)
        lhs = np.kron(r(xs), eye) @ np.kron(eye, r(xs + ys)) @ np.kron(r(ys), eye)
        rhs = np.kron(eye, r(ys)) @ np.kron(r(xs + ys), eye) @ np.kron(eye, r(xs))
        worst = max(worst, float(np.max(np.abs(lhs - rhs))))
    return worst


def _plan(cfg: SpectralConfig, top: int | None, ops: str):
    """The build plan of ``cfg`` capped at ``top`` (default L) building
    ``ops``, once the cap and the lattice size are checked."""
    top = cfg.L if top is None else top
    if not 0 <= top <= cfg.L:
        raise ValueError(f"top must lie in [0, {cfg.L}], got {top}")
    cfg.check_dense_capacity()
    return blockbuild.build_plan(cfg.L, top, ops)


def monodromies(lams, cfg: SpectralConfig, top: int | None = None, ops: str = "abcd",
                out: list[np.ndarray] | None = None) -> Iterator[MonodromyEntries]:
    """The monodromy at each of ``lams``, in order, capped at sector ``top``
    (default L): the ordered product of P R(lambda - mu_j) over the lattice,
    as the S^z blocks of its auxiliary-space blocks A, B, C, D whose source
    and target sectors are <= top.  Only the operators named in ``ops``
    (letters of "abcd", in order) are built; the others come back as ``()``.

    Site j contributes the weights a = sinh(lambda - mu_j + gamma),
    b = sinh(lambda - mu_j) and c = sinh(gamma), with site blocks
    A_j = diag(a, b), B_j = c at (1, 0), C_j = c at (0, 1) and
    D_j = diag(b, a).  ``blockbuild.build_batch`` appends the sites through
    the plan ``blockbuild.build_plan`` compiles, for a whole batch of
    rapidities at once, in ``blockbuild.chunks`` (see ``blockbuild`` for
    why the blocks equal slices of the Kronecker recursion exactly, at any
    cap, batch and choice of operators).

    ``out``, if given, is ``blockbuild.result_buffers`` of the same plan
    with at least a row per rapidity, for ``build_batch``.  The arguments
    are checked here, before anything is built; the builds run as the
    result is iterated.  The blocks are read-only.  Built without ``out``,
    they own their memory, so a caller that keeps one for reuse cannot be
    corrupted by another caller writing into it.  Built into ``out``, they
    are views of the caller's buffers, valid only until the next build
    into the same buffers overwrites them.
    """
    lams = np.array([complex(lam) for lam in lams], dtype=complex)
    _require_finite(lams)
    plan = _plan(cfg, top, ops)
    if out is not None and len(out[0]) < len(lams):
        raise ValueError(f"{len(out[0])} result rows for {len(lams)} rapidities")
    x = lams[:, None] - np.array(cfg.mu, dtype=complex)
    _require_finite(x)
    wa, wb, c = weight_a(x, cfg.gamma), weight_b(x), weight_c(cfg.gamma)

    def batch(rows):
        into = None if out is None else [buf[rows] for buf in out]
        return blockbuild.build_batch(wa[rows], wb[rows], c, plan, into)

    return (m for rows in blockbuild.chunks(len(x), plan.entries) for m in batch(rows))


def monodromy(lam: complex, cfg: SpectralConfig, top: int | None = None,
              ops: str = "abcd") -> MonodromyEntries:
    """The monodromy at one rapidity: ``monodromies`` on a batch of one."""
    return next(monodromies([lam], cfg, top, ops))


def transfer(lam: complex, cfg: SpectralConfig) -> tuple[np.ndarray, ...]:
    """Sector blocks of the transfer matrix T(lambda) = A(lambda) + D(lambda),
    from a build of A and D alone."""
    return monodromy(lam, cfg, ops="ad").transfer()


def _sector_ordered(blocks, shift: int) -> np.ndarray:
    """The operator whose sector blocks (source sector k to k + shift) are
    ``blocks``, densely, with the basis ordered by sector, each sector in
    ascending order."""
    starts = np.cumsum([0] + [comb(len(blocks) - 1, k) for k in range(len(blocks))])
    out = np.zeros((starts[-1], starts[-1]), dtype=complex)
    for k, blk in enumerate(blocks):
        if blk.size:
            out[starts[k + shift] : starts[k + shift + 1], starts[k] : starts[k + 1]] = blk
    return out


def check_rtt(x: complex, y: complex, cfg: SpectralConfig) -> float:
    """Relative max-norm residual of the quadratic exchange relation

        R(x-y) [M(x) (x) M(y)] = [M(y) (x) M(x)] R(x-y)

    on the 4 * 2^L dimensional space (the suites call it at L <= 5).
    M(x) (x) M(y) has one quantum-space block per pair of auxiliary blocks,
    M_ij(x) M_kl(y) at auxiliary row 2i + k and column 2j + l; each of the
    16 is one matrix product of dense blocks in sector order, a basis
    permutation that leaves the max-norms unchanged, and R mixes the blocks.
    Normalised by the operand norms so the figure is meaningful at any
    lattice length.
    """
    _require_finite(x, y)
    d = cfg.quantum_dim
    # A, B, C, D of each monodromy, M_ij at index 2i + j
    mx, my = ([_sector_ordered(blocks, shift) for blocks, shift in zip(m, _SHIFTS)]
              for m in monodromies([x, y], cfg))
    products = np.empty((2, 4, 4, d, d), dtype=complex)
    for p, (m1, m2) in enumerate(((mx, my), (my, mx))):
        for i, j, k, l in np.ndindex(2, 2, 2, 2):
            np.matmul(m1[2 * i + j], m2[2 * k + l], out=products[p, 2 * i + k, 2 * j + l])
    r = r_matrix(x - y, cfg.gamma)
    lhs = np.tensordot(r, products[0], axes=1)
    rhs = np.moveaxis(np.tensordot(products[1], r, axes=([1], [0])), -1, 1)
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
    the guard in |sinh| among each lam0 of ``lam0s`` with the rapidities of
    the rows of ``rows`` (shape (..., n)) it broadcasts against, in C order
    of the broadcast entries, then the pairs of [lam0] + row in order, as
    one loop over the batch would: for ``lam0s[:, None]`` and rows (P, n)
    x0 rapidities outermost, then rows.  The error names the pair and its
    separation."""
    n = rows.shape[-1]
    first, second, _ = _exchange_indices(n)
    with_lam0 = np.abs(weight_b(lam0s[..., None] - rows))
    within = np.abs(weight_b(rows[..., first] - rows[..., second]))
    if not ((with_lam0 < SINGULARITY_GUARD).any() or (within < SINGULARITY_GUARD).any()):
        return
    seps = np.concatenate(
        [with_lam0, np.broadcast_to(within, with_lam0.shape[:-1] + within.shape[-1:])], axis=-1
    )
    *entry, k = np.argwhere(seps < SINGULARITY_GUARD)[0]
    entry = tuple(entry)
    lam0 = np.broadcast_to(lam0s, seps.shape[:-1])[entry]
    row = np.broadcast_to(rows, seps.shape[:-1] + (n,))[entry]
    pair = tuple(complex(v) for v in
                 ((lam0, row[k]) if k < n else (row[first[k - n]], row[second[k - n]])))
    # numpy's complex abs of an array can differ from the scalar one in the
    # last bit, so the reported separation is the pair's own, as one loop
    # step computes it, whatever the batch
    raise CoincidentRapiditiesError(pair, abs(weight_b(pair[0] - pair[1])))


def _ratio_product(diffs: np.ndarray, gamma: complex) -> np.ndarray:
    """prod a(d)/b(d) over the last axis of ``diffs``."""
    return np.multiply.reduce(weight_a(diffs, gamma) / weight_b(diffs), axis=-1)


def exchange_m_factors(lam0s, lam_rows, gamma: complex):
    """Scalar coefficients of the degree-(n+1) exchange identity at every
    x0 rapidity of ``lam0s`` and every row of ``lam_rows`` (shape (..., n)),
    ``lam0s`` broadcast against the leading axes of the rows: ``lam0s[:,
    None]`` (N, 1) against rows (P, n) gives every lam0 at every row, shape
    (N, P), and ``lam0s`` (P,) against rows (P, n) pairs lam0 p with row p,
    shape (P,).

    Returns ``(MA0, MD0, MA, MD)``, the first two of the broadcast shape S
    and the last two of shape S + (n,); for lam0 and its row l,

        MA0 = prod a(l - l0)/b(l - l0),     MD0 = prod a(l0 - l)/b(l0 - l),
        MA[i] = c(l_i - l0)/b(l_i - l0) prod_{t != i} a(l_t - l_i)/b(l_t - l_i),
        MD[i] = c(l0 - l_i)/b(l0 - l_i) prod_{t != i} a(l_i - l_t)/b(l_i - l_t).

    Each entry equals the one-point evaluation bit for bit
    (``stacked_product``).  Raises ``CoincidentRapiditiesError`` if any
    lam0 and its row hold a coincident pair.
    """
    lam0s = np.asarray(lam0s, dtype=complex)
    rows = np.asarray(lam_rows, dtype=complex)
    _guard_rapidities(lam0s, rows)
    to_lam0 = rows - lam0s[..., None]
    from_lam0 = lam0s[..., None] - rows
    # others[..., i, :] holds the rapidities of a row other than l_i
    others, own = rows[..., _exchange_indices(rows.shape[-1])[2]], rows[..., None]
    c = weight_c(gamma)
    ma = stacked_product(c / weight_b(to_lam0), _ratio_product(others - own, gamma))
    md = stacked_product(c / weight_b(from_lam0), _ratio_product(own - others, gamma))
    return _ratio_product(to_lam0, gamma), _ratio_product(from_lam0, gamma), ma, md


class OffRelationResiduals(NamedTuple):
    a_relation: float
    d_relation: float
    transfer_identity: float


#: Random probe vectors per source sector in ``check_off_relations``.  The
#: cost of a check is its build and its O(d^2) products, so the count barely
#: matters: at L = 9, n = 3 the time was flat from 1 to 8.
_OFF_PROBES = 4


def check_off_relations(draws, cfg: SpectralConfig) -> OffRelationResiduals:
    """Worst residuals over ``draws``, each a sequence (lam0, lam_1, ...,
    lam_n), of the two degree-(n+1) exchange relations moving A(lambda_0)
    and D(lambda_0) through a B-product, plus their sum (the
    transfer-matrix identity obtained by adding both lines); each field is
    the largest of ``_draw_residuals`` over the draws.

    Both sides of each relation map sector k to k + n, and each is applied
    to a block V_k of ``_OFF_PROBES`` complex Gaussian probe vectors per
    source sector k (Freivalds' check): a residual is max |(L - R) V| over
    max(|L V|, |R V|), the max-norms taken over every sector, and an error
    in any entry of either side shows in L V - R V with probability one.
    The probes are drawn once per call (rng tag "off-probes"), for every
    sector, so they do not depend on the draws: every draw and every call
    on the same instance reads the same ones.  ``tests/test_ybcore.py``
    keeps the dense residual, max |L - R| / max(|L|, |R|), as the
    reference.

    The relations never read C, so each draw builds A, B and D of its
    distinct rapidities only, into the one set of last-site buffers this
    call allocates (``blockbuild.result_buffers``): a draw's blocks are
    read before the next draw overwrites them, and the memory is not
    faulted in afresh for every draw.  Each entry is the same single
    product as in a fresh build.
    """
    draws = [[complex(l) for l in draw] for draw in draws]
    if not draws:
        return OffRelationResiduals(0.0, 0.0, 0.0)
    rows = max(len(set(draw)) for draw in draws)
    out = blockbuild.result_buffers(_plan(cfg, None, "abd"), rows)
    rng = cfg.rng("off-probes")
    probes = [rng.standard_normal((comb(cfg.L, k), _OFF_PROBES))
              + 1j * rng.standard_normal((comb(cfg.L, k), _OFF_PROBES)) for k in range(cfg.L + 1)]
    worst = [0.0, 0.0, 0.0]
    for lam0, *lams in draws:
        worst = [max(w, r) for w, r in zip(worst, _draw_residuals(lam0, lams, cfg, out, probes))]
    return OffRelationResiduals(*worst)


def _draw_residuals(lam0: complex, lams: list[complex], cfg: SpectralConfig, out,
                    probes: list[np.ndarray]) -> list[float]:
    """The A-line, D-line and transfer-identity residuals of one draw on the
    probe blocks ``probes`` (one per source sector), its monodromies built
    into ``out``.

    Every side is a sum of B-chains times A or D, so it is applied to V_k
    one operator at a time, right to left, at O(d^2) per product.  The A
    and D lines share their chains: B(lam_1) ... B(lam_n) takes the column
    stack [V | A(lam0) V | D(lam0) V], and each B(lam0) prod_{t != i}
    B(lam_t) takes [A(lam_i) V | D(lam_i) V], so both sides are formed as
    [A line | D line] and their columns sum to the transfer identity.
    Raises on coincident rapidities, which make the coefficients singular,
    before anything is built.
    """
    n, p = len(lams), _OFF_PROBES
    ma0, md0, ma, md = (f[0] for f in exchange_m_factors([lam0], [lams], cfg.gamma))
    if n > cfg.L:
        # a chain of more than L raising operators is zero, and so is every side
        return [0.0, 0.0, 0.0]
    distinct = list(dict.fromkeys([lam0] + lams))
    ops = dict(zip(distinct, monodromies(distinct, cfg, ops="abd", out=out)))
    a0, d0 = ops[lam0].a, ops[lam0].d
    # the coefficients of each term, one per column of [A line | D line]
    m0, m = np.repeat([ma0, md0], p), np.repeat(np.stack([ma, md], axis=-1), p, axis=-1)

    def chain(ls, k, x):
        """B(ls[0]) ... B(ls[-1]) x, for x in source sector k."""
        for j, l in enumerate(reversed(ls)):
            x = ops[l].b[k + j] @ x
        return x

    lhs, rhs = [], []
    for k in range(cfg.L - n + 1):
        v = probes[k]
        xv, x0v = np.hsplit(chain(lams, k, np.hstack([v, a0[k] @ v, d0[k] @ v])), [p])
        lhs.append(np.hstack([a0[k + n] @ xv, d0[k + n] @ xv]))
        right = m0 * x0v
        for i, l in enumerate(lams):
            swapped = chain([lam0] + lams[:i] + lams[i + 1:], k,
                            np.hstack([ops[l].a[k] @ v, ops[l].d[k] @ v]))
            right = right - m[i] * swapped
        rhs.append(right)
    lhs, rhs = np.vstack(lhs), np.vstack(rhs)
    sides = ((lhs[:, :p], rhs[:, :p]), (lhs[:, p:], rhs[:, p:]),
             (lhs[:, :p] + lhs[:, p:], rhs[:, :p] + rhs[:, p:]))
    return [float(np.max(np.abs(left - right))
                  / max(np.max(np.abs(left)), np.max(np.abs(right)), 1e-300))
            for left, right in sides]


# -- spectra -----------------------------------------------------------------------

@dataclass(frozen=True)
class SectorEigenpairs:
    """The transfer-matrix eigenpairs of one S^z sector, stacked: row e of
    ``lefts`` and of ``rights`` (both (E, d), d the sector dimension, in
    ``sector_indices`` order) is the left and right eigenvector of
    eigenpair e.  The transfer matrices commute, so the rows are
    eigenvectors of T / T^t at every rapidity.

    Every read is one stacked product over the sector whose elements are
    the products one eigenpair would take on its own: ``norms`` and
    ``eigenvalues`` equal <left|right> and <left| T |right> / <left|right>
    of each row pair bit for bit (a matrix product would sum in another
    order).
    """

    cfg: SpectralConfig
    sector: int
    lefts: np.ndarray
    rights: np.ndarray
    probes: tuple[complex, complex]

    def __len__(self) -> int:
        return len(self.lefts)

    @cached_property
    def norms(self) -> np.ndarray:
        """<left|right> of every eigenpair, one dot product each."""
        return np.matmul(self.lefts[:, None, :], self.rights[:, :, None])[:, 0, 0]

    def eigenvalues(self, block) -> np.ndarray:
        """Lambda = <left| T |right> / <left|right> of every eigenpair
        against the sector block ``block`` of T: per eigenpair one
        vector-matrix product, one dot product and one division."""
        return np.matmul(np.matmul(self.lefts[:, None, :], block),
                         self.rights[:, :, None])[:, 0, 0] / self.norms

    def residuals(self, t, norm: float) -> np.ndarray:
        """Right and left eigen-residuals of every eigenpair against a
        prebuilt transfer matrix ``t`` whose max-norm over all sectors is
        ``norm``, shape (E, 2): for each eigenpair (r, l) with Lambda =
        <l| T |r> / <l|r>, the 2-norms of T r - Lambda r and l T - Lambda l
        over ``norm``, from one product per side for the whole sector
        (the rights as a C-contiguous (d, E) copy)."""
        blk = t[self.sector]
        rights = np.ascontiguousarray(self.rights.T)
        t_rights, lefts_t = blk @ rights, self.lefts @ blk
        vals = np.sum(lefts_t * rights.T, axis=1) / np.sum(self.lefts * rights.T, axis=1)
        r = np.linalg.norm(t_rights - vals * rights, axis=0)
        l = np.linalg.norm(lefts_t - vals[:, None] * self.lefts, axis=1)
        return np.stack([r, l], axis=1) / max(norm, 1e-300)


def spectrum(cfg: SpectralConfig, sector: int) -> SectorEigenpairs:
    """Eigen-decomposition of the transfer matrix on one S^z sector, as
    stacked eigenpairs sorted by their eigenvalue at the first probe
    (rounded to 9 decimals, real part first).

    Degenerate clusters at the first probe rapidity are split by
    diagonalising the second probe's transfer matrix on the cluster's
    invariant subspace (simultaneous-diagonalisation refinement).  Left
    eigenvectors come from the inverse of the refined right-eigenvector
    matrix.  If residuals at either probe stay above tolerance the pair of
    probes did not resolve the spectrum and a DegeneracyError, carrying the
    probes and the sizes of the degenerate clusters, is raised.

    The transfer matrix is built once per probe.  The decomposition, the
    residual check (before the sort) and the eigenvalue sort key all read
    those two matrices, which are dropped when the function returns; the
    returned eigenpairs keep no operator.
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

    # each row's norm as one vector's norm sums it; the axis form sums otherwise
    lefts = left_rows / np.array([np.linalg.norm(row) for row in left_rows])[:, None]
    eigs = SectorEigenpairs(cfg, sector, lefts, np.ascontiguousarray(vec.T), probes)

    worst = max(float(np.max(eigs.residuals(t, max_abs(t)))) for t in t_probes)
    if worst > max(cfg.tol, 1e-9):
        raise DegeneracyError(
            f"eigenpair residual {worst:.3g} above tolerance; the sector may be degenerate",
            probes, clusters,
        )

    keys = [(round(v.real, 9), round(v.imag, 9))
            for v in map(complex, eigs.eigenvalues(t_probes[0][sector]))]
    order = sorted(range(len(keys)), key=keys.__getitem__)
    return SectorEigenpairs(cfg, sector, lefts[order], eigs.rights[order], probes)
