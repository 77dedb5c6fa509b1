"""Extraction of the commuting operator family generated by the transfer
matrix on the bounded polynomial space.

Writing F_n = prod_i e^{(1-L) lambda_i} Fbar(x), the functional relation
becomes an eigenvalue problem

    Lbar(x0) Fbar = Lambda_bar(x0) Fbar,
    Lbar(x0) = Jbar0 - sum_i Kbar_i * (substitute x_i -> x0),

whose dependence on x0 is polynomial of degree L, so Lbar(x0) =
sum_k x0^k Omega_k defines L+1 operators sharing the eigenfunctions Fbar.

The multipliers Jbar0 and Kbar_i are rational in the x_i with poles at
x_i = x_j and x_i = x0; the poles cancel only in the full combination and
only on symmetric inputs (the overlaps Fbar are symmetric because the
B-operators commute).  The family is therefore realised as matrices on the
symmetric part of the degree-bounded space; on the full monomial space the
action is rational, which ``symmetrized_action_is_polynomial`` checks
explicitly.  For a single variable the symmetric space is the whole space.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import combinations_with_replacement, permutations, product as iproduct

import numpy as np

from .config import SpectralConfig, random_complex
from .errors import CapacityError
from .functional import (
    PolyFit,
    circle_grid,
    fit_grid,
    fz_coefficients,
    lambda_bar_coefficients,
)
from .polyengine import MultiPoly, tensor_interpolate

#: default ceiling on the full tensor space used during sampling
MAX_TENSOR_DIM = 4096


# -- symmetric monomial basis ---------------------------------------------------

@dataclass(frozen=True)
class SymmetricBasis:
    """Monomial symmetric functions m_mu inside the degree-bounded box.

    Basis labels are the weakly decreasing exponent tuples; m_mu is the sum
    of the distinct permutations of the label with unit coefficients.
    """

    nvars: int
    degree_bound: int

    @cached_property
    def labels(self) -> tuple[tuple[int, ...], ...]:
        """Weakly decreasing exponent tuples, lexicographically descending."""
        return tuple(
            combinations_with_replacement(range(self.degree_bound, -1, -1), self.nvars)
        )

    @property
    def dim(self) -> int:
        return len(self.labels)

    def embed(self, vec: np.ndarray) -> MultiPoly:
        """Symmetric-basis coefficients -> full coefficient tensor."""
        c = np.zeros((self.degree_bound + 1,) * self.nvars, dtype=complex)
        for val, label in zip(vec, self.labels):
            for perm in set(permutations(label)):
                c[perm] += val
        return MultiPoly(c)

    def project(self, poly: MultiPoly) -> tuple[np.ndarray, float]:
        """Full tensor -> symmetric-basis coefficients.

        Reads off the coefficient at each decreasing representative and
        reports how much of the input violates permutation symmetry
        (relative max-norm of input minus re-embedded projection).
        """
        vec = np.array([poly.coeffs[label] for label in self.labels])
        recon = self.embed(vec)
        scale = max(poly.max_abs(), 1e-300)
        defect = float(np.max(np.abs(recon.coeffs - poly.coeffs)) / scale)
        return vec, defect


# -- the operator-valued polynomial in x0 -----------------------------------------

@dataclass
class LbarOperator:
    """Coefficient matrices of Lbar(x0) on the symmetric basis.

    ``coefficient_matrices[k]`` is Omega_k.  ``polynomiality_residual`` is the
    largest held-out interpolation error seen while assembling the action
    (the claim that Lbar maps the bounded symmetric space to itself is
    verified, not assumed), and ``symmetry_defect`` bounds how far any image
    was from being symmetric.
    """

    cfg: SpectralConfig
    basis: SymmetricBasis
    coefficient_matrices: np.ndarray
    x0_nodes: np.ndarray
    polynomiality_residual: float
    symmetry_defect: float

    def omega(self, k: int) -> np.ndarray:
        return self.coefficient_matrices[k]


def _lbar_grids(cfg: SpectralConfig, n: int):
    lam_grids = [circle_grid(cfg.L, slot=i + 1, nslots=n + 1) for i in range(n)]
    lam0_nodes = circle_grid(cfg.L + 1, slot=0, nslots=n + 1)
    return lam_grids, lam0_nodes


def build_lbar(cfg: SpectralConfig) -> LbarOperator:
    """Assemble Lbar(x0) by sampling its action on the symmetric basis.

    The multipliers are only polynomial-preserving in combination, so the
    action is evaluated pointwise on per-variable disjoint node circles
    (keeping every coefficient denominator away from zero) and interpolated:
    degree L-1 per variable, then degree L in x0.  Nothing is ever composed
    from the rational pieces individually.
    """
    n, L = cfg.n, cfg.L
    if n < 1:
        raise ValueError("operator extraction needs at least one variable (n >= 1)")
    if L**n > MAX_TENSOR_DIM:
        raise CapacityError(f"tensor space L^n = {L**n} exceeds cap {MAX_TENSOR_DIM}")
    lam_grids, lam0_nodes = _lbar_grids(cfg, n)
    x_grids = [np.exp(2 * g) for g in lam_grids]
    x0_nodes = np.exp(2 * lam0_nodes)

    tuples = list(iproduct(range(L), repeat=n))
    lam_tuples = np.array(
        [[lam_grids[i][t[i]] for i in range(n)] for t in tuples], dtype=complex
    )
    x_tuples = np.exp(2 * lam_tuples)
    prefac = np.exp((L - 1) * lam_tuples)  # per-variable x^{(L-1)/2}, branch-free

    # coefficient tables, shared by every basis element
    ntup = len(tuples)
    jbar = np.zeros((L + 1, ntup), dtype=complex)
    kbar = np.zeros((L + 1, ntup, n), dtype=complex)
    for a0, lam0 in enumerate(lam0_nodes):
        for t in range(ntup):
            j0, ks = fz_coefficients(lam0, lam_tuples[t], cfg)
            jbar[a0, t] = j0 * np.exp(L * lam0)
            for i in range(n):
                kbar[a0, t, i] = ks[i] * np.exp(lam0) * prefac[t, i]

    basis = SymmetricBasis(n, L - 1)
    ns = basis.dim
    coeff_mats = np.zeros((L + 1, ns, ns), dtype=complex)
    worst_holdout = 0.0
    worst_sym = 0.0

    rng = cfg.rng("lbar-holdout")
    held_lams = np.array([random_complex(rng) for _ in range(n)])
    held_x = np.exp(2 * held_lams)
    j0h, ksh = fz_coefficients(lam0_nodes[0], held_lams, cfg)

    for col in range(ns):
        unit = np.zeros(ns)
        unit[col] = 1.0
        p = basis.embed(unit)
        base_vals = p.eval_many(x_tuples)
        images = np.zeros((L + 1, ntup), dtype=complex)
        for a0 in range(L + 1):
            images[a0] = jbar[a0] * base_vals
            for i in range(n):
                subbed = x_tuples.copy()
                subbed[:, i] = x0_nodes[a0]
                images[a0] -= kbar[a0, :, i] * p.eval_many(subbed)
        table = tensor_interpolate(
            images.reshape((L + 1,) + (L,) * n), [x0_nodes] + x_grids
        )

        # held-out polynomiality check at a random x-tuple, one x0 node
        direct = j0h * np.exp(L * lam0_nodes[0]) * p(held_x)
        for i in range(n):
            sub = held_x.copy()
            sub[i] = x0_nodes[0]
            direct -= ksh[i] * np.exp(lam0_nodes[0]) * np.exp((L - 1) * held_lams[i]) * p(sub)
        fitted = sum(
            x0_nodes[0] ** k * MultiPoly(table[k]).eval_many(held_x[None, :])[0]
            for k in range(L + 1)
        )
        scale = max(abs(direct), float(np.max(np.abs(table))), 1e-300)
        worst_holdout = max(worst_holdout, abs(direct - fitted) / scale)

        for k in range(L + 1):
            vec, defect = basis.project(MultiPoly(table[k]))
            coeff_mats[k, :, col] = vec
            worst_sym = max(worst_sym, defect)

    return LbarOperator(
        cfg, basis, coeff_mats, lam0_nodes, float(worst_holdout), float(worst_sym)
    )


def action_polynomiality_residual(cfg: SpectralConfig, exponents, symmetrize: bool = True) -> float:
    """Held-out interpolation residual of the Lbar action on one probe input.

    With ``symmetrize`` the probe is the monomial symmetric function built on
    the exponents and the residual sits at roundoff; on a bare non-symmetric
    monomial (n >= 2) the action is genuinely rational and the residual is
    large.  Exposed so the symmetric-subspace restriction is a measured fact
    rather than doctrine.
    """
    n, L = cfg.n, cfg.L
    exponents = tuple(exponents)
    if symmetrize:
        probe = MultiPoly.zero(n, L - 1)
        for perm in set(permutations(exponents)):
            probe = probe + MultiPoly.monomial(n, L - 1, perm)
    else:
        probe = MultiPoly.monomial(n, L - 1, exponents)

    lam_grids, lam0_nodes = _lbar_grids(cfg, n)
    x_grids = [np.exp(2 * g) for g in lam_grids]
    lam0 = lam0_nodes[0]
    x0 = np.exp(2 * lam0)

    def act(p, lam_tuple):
        xs = np.exp(2 * np.asarray(lam_tuple))
        j0, ks = fz_coefficients(lam0, lam_tuple, cfg)
        val = j0 * np.exp(L * lam0) * p(xs)
        for i in range(n):
            sub = xs.copy()
            sub[i] = x0
            val -= ks[i] * np.exp(lam0) * np.exp((L - 1) * lam_tuple[i]) * p(sub)
        return val

    vals = np.zeros((L,) * n, dtype=complex)
    for tup in iproduct(range(L), repeat=n):
        vals[tup] = act(probe, [lam_grids[i][tup[i]] for i in range(n)])
    rng = cfg.rng("monomial-holdout")
    held = np.array([random_complex(rng) for _ in range(n)])
    return fit_grid(vals, x_grids, np.exp(2 * held), act(probe, held)).holdout_residual


# -- the family and its spectra ----------------------------------------------------

@dataclass
class OmegaFamily:
    """The L+1 extracted operators with their joint diagnostics.

    * ``commutator_norms[i, j]``: max-norm of [Omega_i, Omega_j] normalised
      by the operand norms.
    * ``omega_top_scalar`` / ``omega_top_identity_residual``: the top
    coefficient operator against its best scalar multiple of the identity.
    * ``delta_table``: joint eigenvalues, one row per joint eigenvector of a
      random linear combination of the family; ``joint_defect`` measures how
      far each family member is from diagonal in that joint basis.
    """

    cfg: SpectralConfig
    lbar: LbarOperator
    omegas: np.ndarray
    commutator_norms: np.ndarray
    omega_top_scalar: complex
    omega_top_identity_residual: float
    delta_table: np.ndarray
    joint_defect: float

    @property
    def basis(self) -> SymmetricBasis:
        return self.lbar.basis

    def omega(self, k: int) -> np.ndarray:
        return self.omegas[k]


def extract_omegas(cfg: SpectralConfig) -> OmegaFamily:
    """Slice Lbar by powers of x0 and fill in the family diagnostics."""
    lbar = build_lbar(cfg)
    omegas = lbar.coefficient_matrices
    L = cfg.L
    ns = lbar.basis.dim

    comms = np.zeros((L + 1, L + 1))
    for i in range(L + 1):
        for j in range(i + 1, L + 1):
            ni = np.max(np.abs(omegas[i]))
            nj = np.max(np.abs(omegas[j]))
            val = np.max(np.abs(omegas[i] @ omegas[j] - omegas[j] @ omegas[i]))
            comms[i, j] = comms[j, i] = val / max(ni * nj, 1e-300)

    top = omegas[L]
    scalar = complex(np.trace(top) / ns)
    top_resid = float(np.max(np.abs(top - scalar * np.eye(ns))) / max(np.max(np.abs(top)), 1e-300))

    # joint diagonalisation through a random combination of the family
    rng = cfg.rng("joint-diagonalization")
    weights = rng.standard_normal(L + 1) + 1j * rng.standard_normal(L + 1)
    combo = np.tensordot(weights, omegas, axes=(0, 0))
    _, vecs = np.linalg.eig(combo)
    vinv = np.linalg.inv(vecs)
    delta = np.zeros((ns, L + 1), dtype=complex)
    defect = 0.0
    for k in range(L + 1):
        diag = vinv @ omegas[k] @ vecs
        delta[:, k] = np.diag(diag)
        off = diag - np.diag(np.diag(diag))
        defect = max(defect, float(np.max(np.abs(off)) / max(np.max(np.abs(omegas[k])), 1e-300)))

    return OmegaFamily(
        cfg, lbar, omegas, comms, scalar, top_resid, delta, defect
    )


@dataclass
class EigkRecord:
    """Joint-spectral-problem outcome for one transfer eigenpair."""

    eig_index: int
    vanishing: bool
    fbar_fit: PolyFit | None
    delta: np.ndarray | None
    residual: float
    containment_distance: float


@dataclass
class EigkReport:
    family: OmegaFamily
    records: list[EigkRecord]

    @property
    def max_residual(self) -> float:
        vals = [r.residual for r in self.records if not r.vanishing]
        return max(vals) if vals else 0.0

    @property
    def max_containment_distance(self) -> float:
        vals = [r.containment_distance for r in self.records if not r.vanishing]
        return max(vals) if vals else 0.0

    @property
    def surplus_dimension(self) -> int:
        """Joint-space dimension not accounted for by transfer eigenvectors."""
        realized = sum(1 for r in self.records if not r.vanishing)
        return self.family.basis.dim - realized


def check_eigk(family: OmegaFamily, eigs, fits) -> EigkReport:
    """Verify Omega_k Fbar = Delta_k Fbar for every sector-n eigenpair.

    ``eigs`` is the sector-n spectrum of the family's instance and ``fits``
    the overlap fit of each of those eigenpairs, in the same order.  The
    Delta_k are read off the degree-L polynomial form of the transfer
    eigenvalue, independently of the operator extraction.  Eigenpairs whose
    overlap polynomial vanishes identically are reported as such rather than
    asserted against.  Each record also carries the distance from its Delta
    vector to the nearest row of the family's joint-spectrum table.
    """
    cfg = family.cfg
    lam_bars = lambda_bar_coefficients(eigs, cfg, nodes=family.lbar.x0_nodes)

    records = []
    for eig, fit, deltas in zip(eigs, fits, lam_bars):
        vec, _ = family.basis.project(fit.poly)
        norm = np.max(np.abs(vec))
        if norm < 1e-12:
            records.append(EigkRecord(eig.index, True, fit, None, 0.0, np.inf))
            continue
        resid = 0.0
        for k in range(cfg.L + 1):
            num = np.max(np.abs(family.omegas[k] @ vec - deltas[k] * vec))
            den = (np.max(np.abs(family.omegas[k])) + abs(deltas[k])) * norm
            resid = max(resid, num / max(den, 1e-300))
        dist = np.min(
            np.max(np.abs(family.delta_table - deltas[None, :]), axis=1)
            / (1.0 + np.max(np.abs(deltas)))
        )
        records.append(EigkRecord(eig.index, False, fit, np.asarray(deltas), float(resid), float(dist)))
    return EigkReport(family, records)
