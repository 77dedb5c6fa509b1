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

``check_off_relations`` needs the monodromy only on a few probe vectors, so
it applies it to whole-space vectors through two dense halves of the lattice
(``splitlattice``), M_ab = sum_g M_left[a, g] (x) M_right[g, b] with the cut
after site L // 2, and builds no sector block for its draws.  One block
build at the first draw ties it to the operator the pipeline reads: the
``operator_agreement`` field compares the two forms' products on the probes.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, cached_property
from math import comb, isfinite
from typing import Iterator, NamedTuple

import numpy as np

from . import blockbuild, splitlattice
from .blockbuild import MonodromyEntries, sector_indices
from .config import SINGULARITY_GUARD, SpectralConfig, random_complex
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


def _weights(lams: np.ndarray, cfg: SpectralConfig):
    """The weights a and b of every site at each of ``lams`` (a complex
    array), one row per rapidity, and the weight c every site shares."""
    x = lams[:, None] - np.array(cfg.mu, dtype=complex)
    _require_finite(x)
    return weight_a(x, cfg.gamma), weight_b(x), weight_c(cfg.gamma)


def _builder(lams: np.ndarray, cfg: SpectralConfig, top: int | None, ops: str):
    """The plan of a build of ``lams`` and a function building the
    rapidities of a slice of them into stacked blocks
    (``blockbuild.build_batch``), once the arguments are checked;
    ``lams`` is a complex array."""
    _require_finite(lams)
    plan = _plan(cfg, top, ops)
    wa, wb, c = _weights(lams, cfg)
    return plan, lambda rows: blockbuild.build_batch(wa[rows], wb[rows], c, plan)


def monodromies(lams, cfg: SpectralConfig, top: int | None = None,
                ops: str = "abcd") -> Iterator[MonodromyEntries]:
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
    rapidities at once, in ``blockbuild.chunks``, and each monodromy here
    is one row of its batch's stacked blocks (see ``blockbuild`` for why
    the blocks equal slices of the Kronecker recursion exactly, at any cap,
    batch and choice of operators).

    The arguments are checked here, before anything is built; the builds
    run as the result is iterated.  The blocks are read-only and own their
    memory, so a caller that keeps one for reuse cannot be corrupted by
    another caller writing into it.
    """
    lams = np.array([complex(lam) for lam in lams], dtype=complex)
    plan, build = _builder(lams, cfg, top, ops)
    # a batch is released once its last row is read, before the next build
    return (m for rows in blockbuild.chunks(len(lams), plan.entries)
            for m in map(build(rows).row, range(rows.stop - rows.start)))


def monodromy(lam: complex, cfg: SpectralConfig, top: int | None = None,
              ops: str = "abcd") -> MonodromyEntries:
    """The monodromy at one rapidity: ``monodromies`` on a batch of one."""
    return next(monodromies([lam], cfg, top, ops))


def transfer(lam: complex, cfg: SpectralConfig) -> tuple[np.ndarray, ...]:
    """Sector blocks of the transfer matrix T(lambda) = A(lambda) + D(lambda),
    from a build of A and D alone."""
    return monodromy(lam, cfg, ops="ad").transfer()


def check_rtt(x, y, cfg: SpectralConfig) -> float:
    """Relative max-norm residual of the quadratic exchange relation

        R(x-y) [M(x) (x) M(y)] = [M(y) (x) M(x)] R(x-y)

    on the 4 * 2^L dimensional space (the suites call it at L <= 5), the
    largest over the draws (x, y): ``x`` and ``y`` broadcast against each
    other, each pair of entries one draw.  A draw's residual is
    max |lhs - rhs| / max(|lhs|, |rhs|) over every entry of both sides, so
    the figure is meaningful at any lattice length, and the result equals
    the largest one-draw residual bit for bit, however the draws are
    batched.

    The monodromies of a chunk of draws (``blockbuild.chunks`` of
    ``blockbuild.rtt_entries``) come from one build, x and y of each draw
    in adjacent rows, and ``blockbuild.rtt_residuals`` reads them a shift
    at a time: every sector's products in one buffer for both sides and
    all draws, then one mixing with R(x-y) per auxiliary row.
    """
    x, y = (np.ravel(v).astype(complex) for v in np.broadcast_arrays(x, y))
    _require_finite(x, y)
    r = r_matrix(x - y, cfg.gamma)
    _, build = _builder(np.stack([x, y], axis=1).ravel(), cfg, None, "abcd")
    worst = 0.0
    for draws in blockbuild.chunks(len(x), blockbuild.rtt_entries(cfg.L)):
        # handed over, so that rtt_residuals frees it before shift 0
        residuals = blockbuild.rtt_residuals(build(slice(2 * draws.start, 2 * draws.stop)),
                                             r[draws])
        worst = max(worst, float(np.max(residuals)))
    return worst


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
    operator_agreement: float


#: Random probe vectors per source sector in ``check_off_relations``.  The
#: split products cost about 49k multiply-adds per vector at L = 9, so the
#: check's time grows with the count.
_OFF_PROBES = 4


def check_off_relations(draws, cfg: SpectralConfig) -> OffRelationResiduals:
    """Worst residuals over ``draws``, each a sequence (lam0, lam_1, ...,
    lam_n), of the two degree-(n+1) exchange relations moving A(lambda_0)
    and D(lambda_0) through a B-product, plus their sum (the
    transfer-matrix identity obtained by adding both lines), and the
    agreement of the operator they are formed with and the pipeline's.

    Both sides of each relation map sector k to k + n, and each is applied
    to ``_OFF_PROBES`` complex Gaussian probe vectors per source sector k
    (Freivalds' check), drawn once per call (rng tag "off-probes") for
    every sector, so every draw and every call on the same instance reads
    the same ones.  A relation's residual is max |L V - R V| over
    max(|L V|, |R V|), every entry of every sector, and an error in any
    entry of either side shows in L V - R V with probability one.
    ``tests/test_ybcore.py`` keeps the dense residual, max |L - R| /
    max(|L|, |R|), as the reference.

    The sides are formed on the whole quantum space, sectors k <= L - n
    holding their probes and the others zero, with the monodromy applied
    through the two halves of the lattice, built per draw for its
    rapidities alone from site weights evaluated once for every draw; no
    sector block is built for them.  ``splitlattice.off_relation_residuals``
    runs the draws in one workspace allocated per call, each application of
    an operator two right products and one left product into it.  The block
    build the pipeline reads is tied in by ``operator_agreement``: the
    relative max-norm gap between the sector-block products of A, B and D,
    built once at the first draw's lam0, and the split products of that
    draw's halves, on the probes of every sector.  Raises on coincident
    rapidities, which make the coefficients singular, before anything is
    built.
    """
    draws = [[complex(l) for l in draw] for draw in draws]
    factors = [[f[0] for f in exchange_m_factors([lam0], [lams], cfg.gamma)]
               for lam0, *lams in draws]
    if not draws:
        return OffRelationResiduals(0.0, 0.0, 0.0, 0.0)
    rng = cfg.rng("off-probes")
    probes = [rng.standard_normal((comb(cfg.L, k), _OFF_PROBES))
              + 1j * rng.standard_normal((comb(cfg.L, k), _OFF_PROBES)) for k in range(cfg.L + 1)]
    wa, wb, c = _weights(np.array([l for draw in draws for l in draw]), cfg)
    edges = np.cumsum([len(draw) for draw in draws])[:-1]
    return OffRelationResiduals(*splitlattice.off_relation_residuals(
        lambda: monodromy(draws[0][0], cfg, ops="abd"),
        list(zip(np.split(wa, edges), np.split(wb, edges))), c, factors, probes))


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
        prebuilt transfer matrix ``t`` (its sector blocks up to this sector
        or beyond) whose max-norm over its blocks is ``norm``, shape
        (E, 2): for each eigenpair (r, l) with Lambda = <l| T |r> / <l|r>,
        the 2-norms of T r - Lambda r and l T - Lambda l over ``norm``,
        from one product per side for the whole sector (the rights as a
        C-contiguous (d, E) copy)."""
        blk = t[self.sector]
        rights = np.ascontiguousarray(self.rights.T)
        t_rights, lefts_t = blk @ rights, self.lefts @ blk
        vals = np.sum(lefts_t * rights.T, axis=1) / np.sum(self.lefts * rights.T, axis=1)
        r = np.linalg.norm(t_rights - vals * rights, axis=0)
        l = np.linalg.norm(lefts_t - vals[:, None] * self.lefts, axis=1)
        return np.stack([r, l], axis=1) / max(norm, 1e-300)


def eigenvalue_clusters(ev: np.ndarray, tol: float) -> list[np.ndarray]:
    """The indices of ``ev`` grouped greedily: each not yet grouped index,
    in order, takes every not yet grouped index within ``tol`` of it, in
    ascending order.  All pairwise distances come from one (E, E)
    comparison."""
    close = np.abs(ev[:, None] - ev[None, :]) < tol
    used = np.zeros(len(ev), dtype=bool)
    out = []
    for i in range(len(ev)):
        if not used[i]:
            cluster = np.flatnonzero(close[i] & ~used)
            used[cluster] = True
            out.append(cluster)
    return out


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

    The transfer matrix is built once per probe, both in one build of A
    and D capped at the sector, so its blocks are those of sectors
    0..sector only: the residual gate divides by their max-norm.  The
    decomposition, the residual check (before the sort) and the eigenvalue
    sort key all read those two matrices, which are dropped when the
    function returns; the returned eigenpairs keep no operator.
    """
    if not 0 <= sector <= cfg.L:
        raise ValueError(f"sector must lie in [0, {cfg.L}], got {sector}")
    rng = cfg.rng("spectrum-probes")
    probes = tuple(random_complex(rng, (2,)).tolist())
    t_probes = [m.transfer() for m in monodromies(probes, cfg, top=sector, ops="ad")]
    t1, t2 = (t[sector] for t in t_probes)
    ev, vec = np.linalg.eig(t1)
    clusters = []
    for cluster in eigenvalue_clusters(ev, 1e-8 * max(np.max(np.abs(ev)), 1.0)):
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
