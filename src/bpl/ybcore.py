"""Six-vertex R-matrix, monodromy and transfer operators, and the algebraic
identities they satisfy.

Everything is dense ``complex128``.  The quantum space is ``(C^2)^{tensor L}``
with basis states indexed by bitstrings (bit 1 = down spin), so the number of
set bits is the S^z-sector label.  The monodromy is the ordered product of
one permuted R-matrix P R(lambda - mu_j) per site, held as a 2x2 block matrix
over the auxiliary space,

    M(lambda) = [[A, B], [C, D]];

A and D preserve the down-spin count, B raises it by one and C lowers it by
one.  Appending a site makes each new block a sum of two Kronecker
products of an old block with a 2x2 site block of P R, e.g.
A' = A (x) A_j + B (x) C_j, whose (i s, j t) entry, with i, j the old
quantum indices and s, t the new site's, is A[i, j] A_j[s, t] +
B[i, j] C_j[s, t].  The site blocks are diagonal (A_j, D_j) or hold a single
entry (B_j, C_j), so for every (s, t) at most one of the two terms is
non-zero: each new block has three non-zero (s, t) slices, each one old
block times one Boltzmann weight, and they are written straight into
strided views of the new block.  This is the Kronecker recursion with its
exact-zero terms left out: every surviving entry is the same single
product, and adding a zero to a finite non-zero number returns it
unchanged, so every entry equals the Kronecker form's exactly; at most the
sign of a zero entry differs (``tests/test_ybcore.py`` keeps the Kronecker
form as the reference).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, NamedTuple

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


def _require_finite(*vals: complex):
    for v in vals:
        v = complex(v)
        if not np.isfinite([v.real, v.imag]).all():
            raise ValueError(f"non-finite parameter {v!r}")


# -- operators ----------------------------------------------------------------

@dataclass
class DenseOperator:
    """Dense complex square matrix of power-of-two dimension with finite
    entries."""

    entries: np.ndarray

    def __post_init__(self):
        self.entries = np.asarray(self.entries, dtype=complex)
        d = self.entries.shape[0]
        if self.entries.shape != (d, d) or d & (d - 1):
            raise ValueError(f"entries must be square with power-of-two dim, got {self.entries.shape}")
        if not (np.isfinite(self.entries.real).all() and np.isfinite(self.entries.imag).all()):
            raise ValueError("operator entries must be finite")

    @property
    def dim(self) -> int:
        return self.entries.shape[0]

    def __array__(self, dtype=None, copy=None):
        return np.asarray(self.entries, dtype=dtype)


class MonodromyEntries(NamedTuple):
    """Auxiliary-space blocks of the monodromy matrix at one rapidity."""

    a: DenseOperator
    b: DenseOperator
    c: DenseOperator
    d: DenseOperator


def permutation_matrix() -> np.ndarray:
    """The 4x4 swap P of two C^2 factors."""
    p = np.zeros((4, 4), dtype=complex)
    p[0, 0] = p[1, 2] = p[2, 1] = p[3, 3] = 1.0
    return p


def r_matrix(x: complex, gamma: complex) -> DenseOperator:
    """Trigonometric six-vertex R-matrix on C^2 (x) C^2.

    Corner entries carry a(x) = sinh(x + gamma); the middle block has
    c = sinh(gamma) on its diagonal and b(x) = sinh(x) off it.  (This places
    c on the middle-block diagonal, the transpose of the more common layout;
    all identities checked in this package are self-consistent with it.)
    """
    _require_finite(x, gamma)
    a, b, c = weight_a(x, gamma), weight_b(x), weight_c(gamma)
    m = np.array(
        [
            [a, 0, 0, 0],
            [0, c, b, 0],
            [0, b, c, 0],
            [0, 0, 0, a],
        ],
        dtype=complex,
    )
    return DenseOperator(m)


def check_ybe(x: complex, y: complex, gamma: complex) -> float:
    """Max-norm residual of the Yang-Baxter equation on C^2 (x) C^2 (x) C^2.

    Compares [R(x) (x) 1][1 (x) R(x+y)][R(y) (x) 1] against
    [1 (x) R(y)][R(x+y) (x) 1][1 (x) R(x)].
    """
    eye = np.eye(2)
    r = lambda z: r_matrix(z, gamma).entries
    lhs = np.kron(r(x), eye) @ np.kron(eye, r(x + y)) @ np.kron(r(y), eye)
    rhs = np.kron(eye, r(y)) @ np.kron(r(x + y), eye) @ np.kron(eye, r(x))
    return float(np.max(np.abs(lhs - rhs)))


def monodromy(lam: complex, cfg: SpectralConfig) -> MonodromyEntries:
    """Ordered product of P R(lambda - mu_j) over the lattice, sliced into
    its auxiliary-space blocks A, B, C, D.

    Site j contributes the weights a = sinh(lambda - mu_j + gamma),
    b = sinh(lambda - mu_j) and c = sinh(gamma), with site blocks
    A_j = diag(a, b), B_j = c at (1, 0), C_j = c at (0, 1) and
    D_j = diag(b, a).  Each step writes the three non-zero slices of every
    new block into a zeroed ``(k, 2, k, 2)`` array (see the module
    docstring for why this equals the Kronecker recursion exactly).

    The blocks are returned read-only, so a caller that keeps one for reuse
    cannot be corrupted by another caller writing into it.
    """
    _require_finite(lam)
    cfg.check_dense_capacity()
    c = weight_c(cfg.gamma)
    a = np.ones((1, 1), dtype=complex)
    b = np.zeros((1, 1), dtype=complex)
    cc = np.zeros((1, 1), dtype=complex)
    d = np.ones((1, 1), dtype=complex)
    for m in cfg.mu:
        x = lam - m
        _require_finite(x, cfg.gamma)
        wa, wb = weight_a(x, cfg.gamma), weight_b(x)
        k = a.shape[0]
        na, nb, nc, nd = (np.zeros((k, 2, k, 2), dtype=complex) for _ in range(4))
        # non-zero (s, t) slices of A' = A (x) A_j + B (x) C_j,
        # B' = A (x) B_j + B (x) D_j, C' = C (x) A_j + D (x) C_j and
        # D' = C (x) B_j + D (x) D_j
        for new, terms in (
            (na, ((0, 0, a, wa), (0, 1, b, c), (1, 1, a, wb))),
            (nb, ((0, 0, b, wb), (1, 0, a, c), (1, 1, b, wa))),
            (nc, ((0, 0, cc, wa), (0, 1, d, c), (1, 1, cc, wb))),
            (nd, ((0, 0, d, wb), (1, 0, cc, c), (1, 1, d, wa))),
        ):
            for s, t, old, w in terms:
                np.multiply(old, w, out=new[:, s, :, t])
        a, b, cc, d = (blk.reshape(2 * k, 2 * k) for blk in (na, nb, nc, nd))
    out = MonodromyEntries(
        DenseOperator(a), DenseOperator(b), DenseOperator(cc), DenseOperator(d)
    )
    for op in out:
        op.entries.setflags(write=False)
    return out


def transfer(lam: complex, cfg: SpectralConfig) -> DenseOperator:
    """Transfer matrix T(lambda) = A(lambda) + D(lambda)."""
    m = monodromy(lam, cfg)
    return DenseOperator(m.a.entries + m.d.entries)


def _aux_product(m1: np.ndarray, m2: np.ndarray, d: int) -> np.ndarray:
    # (M1 (x) M2)[(i k),(j l)] = M1[i,:,j,:] M2[k,:,l,:] as a quantum-space
    # operator product; auxiliary indices Kronecker, quantum indices compose.
    t1 = m1.reshape(2, d, 2, d)
    t2 = m2.reshape(2, d, 2, d)
    return np.einsum("isjt,ktlu->iksjlu", t1, t2).reshape(4 * d, 4 * d)


def check_rtt(x: complex, y: complex, cfg: SpectralConfig) -> float:
    """Relative max-norm residual of the quadratic exchange relation

        R(x-y) [M(x) (x) M(y)] = [M(y) (x) M(x)] R(x-y)

    on the 4 * 2^L dimensional space.  Normalised by the operand norms so the
    figure is meaningful at any lattice length.
    """
    _require_finite(x, y)
    d = cfg.quantum_dim
    # each monodromy as one dense matrix on (auxiliary) (x) (quantum)
    mx, my = (
        np.block([[m.a.entries, m.b.entries], [m.c.entries, m.d.entries]])
        for m in (monodromy(lam, cfg) for lam in (x, y))
    )
    r = np.kron(r_matrix(x - y, cfg.gamma).entries, np.eye(d))
    lhs = r @ _aux_product(mx, my, d)
    rhs = _aux_product(my, mx, d) @ r
    scale = max(np.max(np.abs(lhs)), np.max(np.abs(rhs)), 1e-300)
    return float(np.max(np.abs(lhs - rhs)) / scale)


# -- higher-degree exchange relations ------------------------------------------

def _guard_rapidities(values):
    vals = list(values)
    for i in range(len(vals)):
        for j in range(i + 1, len(vals)):
            sep = abs(np.sinh(vals[i] - vals[j]))
            if sep < SINGULARITY_GUARD:
                raise CoincidentRapiditiesError((vals[i], vals[j]), sep)


def exchange_m_factors(lam0: complex, lams, gamma: complex):
    """Scalar coefficients of the degree-(n+1) exchange identity.

    Returns ``(MA0, MD0, MA, MD)`` where the lists MA, MD are aligned with
    ``lams``:

        MA0 = prod a(l - l0)/b(l - l0),     MD0 = prod a(l0 - l)/b(l0 - l),
        MA[i] = c(l_i - l0)/b(l_i - l0) prod_{t != i} a(l_t - l_i)/b(l_t - l_i),
        MD[i] = c(l0 - l_i)/b(l0 - l_i) prod_{t != i} a(l_i - l_t)/b(l_i - l_t).
    """
    lams = list(lams)
    _guard_rapidities([lam0] + lams)
    g = gamma
    ma0 = np.prod([weight_a(l - lam0, g) / weight_b(l - lam0) for l in lams]) if lams else 1.0
    md0 = np.prod([weight_a(lam0 - l, g) / weight_b(lam0 - l) for l in lams]) if lams else 1.0
    ma, md = [], []
    for i, l in enumerate(lams):
        rest = [t for j, t in enumerate(lams) if j != i]
        pa = np.prod([weight_a(t - l, g) / weight_b(t - l) for t in rest]) if rest else 1.0
        pd = np.prod([weight_a(l - t, g) / weight_b(l - t) for t in rest]) if rest else 1.0
        ma.append(weight_c(g) / weight_b(l - lam0) * pa)
        md.append(weight_c(g) / weight_b(lam0 - l) * pd)
    return complex(ma0), complex(md0), [complex(v) for v in ma], [complex(v) for v in md]


class OffRelationResiduals(NamedTuple):
    a_relation: float
    d_relation: float
    transfer_identity: float


def check_off_relations(lam0: complex, lams, cfg: SpectralConfig) -> OffRelationResiduals:
    """Dense residuals of the two degree-(n+1) exchange relations moving
    A(lambda_0) and D(lambda_0) through a B-product, plus their sum (the
    transfer-matrix identity obtained by adding both lines).

    Residuals are max-norm differences normalised by operand norms.  Raises
    on coincident rapidities, which make the coefficients singular.
    """
    lams = list(lams)
    ma0, md0, ma, md = exchange_m_factors(lam0, lams, cfg.gamma)
    ops = {lam0: monodromy(lam0, cfg)}
    for l in lams:
        ops.setdefault(l, monodromy(l, cfg))

    def bprod(ls):
        out = ops[ls[0]].b.entries
        for l in ls[1:]:
            out = out @ ops[l].b.entries
        return out

    x_full = bprod(lams) if lams else np.eye(cfg.quantum_dim, dtype=complex)
    m0 = {"a": ma0, "d": md0}
    mlist = {"a": ma, "d": md}
    lhs = {k: getattr(ops[lam0], k).entries @ x_full for k in "ad"}
    rhs = {k: m0[k] * (x_full @ getattr(ops[lam0], k).entries) for k in "ad"}
    # each product B(lam0) prod_{t != i} B(l_t) is built once, serves both
    # lines, and is dropped before the next one is built
    for i, l in enumerate(lams):
        swapped = bprod([lam0] + lams[:i] + lams[i + 1:])
        for k in "ad":
            rhs[k] = rhs[k] - mlist[k][i] * (swapped @ getattr(ops[l], k).entries)
        del swapped

    def relative(left, right) -> float:
        scale = max(np.max(np.abs(left)), np.max(np.abs(right)), 1e-300)
        return float(np.max(np.abs(left - right)) / scale)

    return OffRelationResiduals(
        relative(lhs["a"], rhs["a"]),
        relative(lhs["d"], rhs["d"]),
        relative(lhs["a"] + lhs["d"], rhs["a"] + rhs["d"]),
    )


# -- S^z sectors and spectra -----------------------------------------------------

def sector_indices(L: int, sector: int) -> np.ndarray:
    """Basis indices of the fixed down-spin-count sector."""
    return np.array([i for i in range(2**L) if bin(i).count("1") == sector], dtype=int)


def sector_block_residual(op: DenseOperator, L: int, shift: int) -> float:
    """Largest entry outside the S^z block structure of an operator that
    changes the down-spin count by ``shift`` (0 for A, D and T, +1 for B,
    -1 for C), relative to the largest entry."""
    pop = np.array([bin(i).count("1") for i in range(2**L)])
    mask = pop[:, None] != pop[None, :] + shift
    scale = max(np.max(np.abs(op.entries)), 1e-300)
    leak = np.max(np.abs(op.entries[mask])) if mask.any() else 0.0
    return float(leak / scale)


@dataclass
class EigenChoice:
    """One transfer-matrix eigenpair, with left and right eigenvectors.

    * ``sector``: down-spin count of the invariant block.
    * ``right``/``left``: full 2^L-dimensional vectors (zero outside the
      sector), matched so both are eigenvectors of T / T^t with the same
      eigenvalue function.
    * ``eigenvalue(lam)`` evaluates Lambda at any rapidity through the
      bilinear form <left| T(lam) |right> / <left|right>; the left vector is
      rapidity-independent because the transfer matrices commute.
    """

    cfg: SpectralConfig
    sector: int
    index: int
    right: np.ndarray
    left: np.ndarray
    probes: tuple[complex, complex]

    def eigenvalue(self, lam: complex) -> complex:
        return self.eigenvalue_from(transfer(lam, self.cfg).entries)

    def eigenvalue_from(self, t: np.ndarray) -> complex:
        """Lambda read off a transfer matrix the caller has already built."""
        return complex((self.left @ t @ self.right) / (self.left @ self.right))

    def residuals(self, lam: complex) -> tuple[float, float]:
        """Right and left eigen-residuals at one rapidity (2-norms)."""
        return self.residuals_from(transfer(lam, self.cfg).entries)

    def residuals_from(self, t: np.ndarray) -> tuple[float, float]:
        """Right and left eigen-residuals against a prebuilt transfer matrix."""
        val = self.eigenvalue_from(t)
        r = np.linalg.norm(t @ self.right - val * self.right)
        l = np.linalg.norm(self.left @ t - val * self.left)
        scale = max(np.max(np.abs(t)), 1e-300)
        return float(r / scale), float(l / scale)


def spectrum(cfg: SpectralConfig, sector: int) -> list[EigenChoice]:
    """Eigen-decomposition of the transfer matrix on one S^z sector.

    Degenerate clusters at the first probe rapidity are split by
    diagonalising the second probe's transfer matrix on the cluster's
    invariant subspace (simultaneous-diagonalisation refinement).  Left
    eigenvectors come from the inverse of the refined right-eigenvector
    matrix.  If residuals at either probe stay above tolerance the pair of
    probes did not resolve the spectrum and a DegeneracyError is raised.

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
    idx = sector_indices(cfg.L, sector)
    t_probes = [transfer(p, cfg).entries for p in probes]
    t1 = t_probes[0][np.ix_(idx, idx)]
    t2 = t_probes[1][np.ix_(idx, idx)]
    ev, vec = np.linalg.eig(t1)
    scale = max(np.max(np.abs(ev)), 1.0)
    used = np.zeros(len(ev), dtype=bool)
    for i in range(len(ev)):
        if used[i]:
            continue
        cluster = [j for j in range(len(ev)) if not used[j] and abs(ev[j] - ev[i]) < 1e-8 * scale]
        for j in cluster:
            used[j] = True
        if len(cluster) > 1:
            sub = vec[:, cluster]
            small = np.linalg.pinv(sub) @ t2 @ sub
            _, w = np.linalg.eig(small)
            vec[:, cluster] = sub @ w
    vec /= np.linalg.norm(vec, axis=0, keepdims=True)
    try:
        left_rows = np.linalg.inv(vec)
    except np.linalg.LinAlgError as exc:
        raise DegeneracyError(
            "right eigenvectors are not independent at the probe points; try another seed"
        ) from exc

    dim = cfg.quantum_dim
    out = []
    for k in range(len(ev)):
        right = np.zeros(dim, dtype=complex)
        left = np.zeros(dim, dtype=complex)
        right[idx] = vec[:, k]
        lrow = left_rows[k]
        left[idx] = lrow / np.linalg.norm(lrow)
        out.append(EigenChoice(cfg, sector, k, right, left, tuple(probes)))

    worst = 0.0
    for eig in out:
        for t in t_probes:
            worst = max(worst, *eig.residuals_from(t))
    if worst > max(cfg.tol, 1e-9):
        raise DegeneracyError(
            f"eigenpair residual {worst:.3g} above tolerance at the probe points; "
            "the sector may be degenerate there; try another seed"
        )

    def sort_key(e: EigenChoice):
        val = e.eigenvalue_from(t_probes[0])
        return round(val.real, 9), round(val.imag, 9)

    out.sort(key=sort_key)
    for k, eig in enumerate(out):
        eig.index = k
    return out
