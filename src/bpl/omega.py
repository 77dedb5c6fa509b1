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
action is rational, and a fit of it on a bare non-symmetric monomial misses
a held-out point by many orders more than on a symmetric input.  For a
single variable the symmetric space is the whole space.

Lbar and the closed-form operator of ``closedform`` are assembled alike:
the action is sampled on all the stacked basis tensors at once
(``SymmetricBasis.tensors``), and ``sampled_operator`` fits every column in
one ``polyengine.fit_grid`` call, validated at one held-out point, and
projects the fits onto the basis.  Both sample the x_i on
``functional.spectral_grids``, the nodes of the overlap fits, and Lbar
samples x0 on ``lbar_x0_nodes``.  On that tensor grid the basis tensors
are evaluated by ``polyengine.eval_grid``, one Vandermonde product per
axis: ``lbar_grid_action`` evaluates them once on the x grid and, for each
i, once with axis i at the x0 nodes, a term that does not depend on x_i
and is broadcast along axis i.  The multipliers of every x0 node and grid
point come from one batched ``fz_coefficients`` call, and the images are
assembled in place in one array.  The held-out point is off the grid:
``lbar_action`` evaluates the same action there, and in the tests, point
by point.

``extract_omegas`` returns the operators and their max-norms, all that
``check_eigk`` and the precision floor read.  Each joint diagnostic of
``OmegaFamily`` is computed on its first read and kept: the commutator
norms and the top operator against the identity when ``omega-extract``
reads them, the joint diagonalisation when ``check_eigk`` reads its delta
table; ``omega-compare`` reads Omega_{L-1} alone.  The basis holds the
label index of every box entry (``SymmetricBasis.slots``), so embedding
symmetric-basis coefficients is one gather.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, partial
from itertools import combinations_with_replacement

import numpy as np

from . import blockbuild
from .config import SpectralConfig, random_complex
from .errors import CapacityError
from .functional import fz_coefficients, lbar_x0_nodes, spectral_grids, vanishing
from .polyengine import eval_grid, eval_tensors, fit_grid, grid_points

#: default ceiling on the full tensor space used during sampling
MAX_TENSOR_DIM = 4096


# -- symmetric monomial basis ---------------------------------------------------

@dataclass(frozen=True)
class SymmetricBasis:
    """Monomial symmetric functions m_mu inside the degree-bounded box.

    Basis labels are the weakly decreasing exponent tuples; m_mu is the sum
    of the distinct permutations of the label with unit coefficients.
    Coefficient arrays put the basis index (``embed``'s input, ``project``'s
    output) on the last axis and the box on the trailing ``nvars`` axes;
    leading axes are a batch.
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

    @cached_property
    def slots(self) -> np.ndarray:
        """The index of every box entry's label, its exponents in decreasing
        order, as an int array of the box shape: m_mu is 1 exactly where
        ``slots`` holds mu's index."""
        index = {label: k for k, label in enumerate(self.labels)}
        box = (self.degree_bound + 1,) * self.nvars
        return np.array([index[tuple(sorted(e, reverse=True))] for e in np.ndindex(box)],
                        dtype=int).reshape(box)

    @cached_property
    def tensors(self) -> np.ndarray:
        """The 0/1 coefficient tensors of every m_mu, stacked along axis 0."""
        out = np.zeros((self.dim,) + self.slots.shape)
        np.put_along_axis(out, self.slots[None], 1.0, axis=0)
        return out

    def embed(self, vecs: np.ndarray) -> np.ndarray:
        """Symmetric-basis coefficients -> full coefficient tensors, each
        entry a copy of its label's coefficient."""
        return np.asarray(vecs)[..., self.slots]

    def at_labels(self, coeffs: np.ndarray) -> np.ndarray:
        """Full coefficient tensors -> the coefficient at each label, its
        decreasing representative: the symmetric-basis coefficients of a
        symmetric input."""
        return np.asarray(coeffs)[(...,) + tuple(zip(*self.labels))]

    def project(self, coeffs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Full coefficient tensors -> symmetric-basis coefficients
        (``at_labels``) and, per tensor, how much of the input violates
        permutation symmetry (relative max-norm of input minus re-embedded
        projection).
        """
        coeffs = np.asarray(coeffs)
        box = tuple(range(coeffs.ndim - self.nvars, coeffs.ndim))
        vecs = self.at_labels(coeffs)
        scale = np.maximum(np.max(np.abs(coeffs), axis=box), 1e-300)
        # in place: a second temporary of the images' size set build_lbar's peak
        diff = self.embed(vecs)
        diff -= coeffs
        defect = np.max(np.abs(diff), axis=box) / scale
        return vecs, defect


# -- the operator-valued polynomial in x0 -----------------------------------------

@dataclass
class SampledOperator:
    """A linear map on the symmetric basis fitted from its images of the
    basis elements (Omega_k = ``coefficient_matrices[k]`` for Lbar), with
    the largest holdout of the fitted images, which verifies that the map
    keeps the bounded space, and their largest symmetry defect."""

    basis: SymmetricBasis
    coefficient_matrices: np.ndarray
    polynomiality_residual: float
    symmetry_defect: float
    grid_condition: float


def sampled_operator(basis: SymmetricBasis, images: np.ndarray, node_sets, held_x,
                     held_images) -> SampledOperator:
    """``fit_grid`` and projection onto ``basis`` of a linear map's images
    of the basis elements, ``images[col]`` on the grid of ``node_sets`` and
    ``held_images[col]`` at ``held_x``.  Node sets before the last
    ``basis.nvars`` (the x0 of Lbar) index the leading matrix axes."""
    fit = fit_grid(images, node_sets, held_x, held_images)
    del images  # the caller passes them inline, so the fit is their last reader
    vecs, defect = basis.project(fit.coeffs)
    return SampledOperator(basis, np.moveaxis(vecs, 0, -1), float(np.max(fit.holdouts)),
                           float(np.max(defect)), fit.grid_condition)


def lbar_action(cfg: SpectralConfig, lam0s, lam_points, evaluate) -> np.ndarray:
    """(Lbar(x0) p)(x) = Jbar0 p(x) - sum_i Kbar_i p(x with x_i -> x0) at
    x0 = e^{2 lam0} for every lam0 of ``lam0s`` (N,) and at x = e^{2 lam}
    for every row lam of ``lam_points`` (P, n), points anywhere: the form
    of the held-out point (``lbar_grid_action`` is the grid's).

    ``evaluate`` maps an array of x-points (P, n) to the values of p there,
    shape batch + (P,), so one call acts on a whole batch of polynomials;
    the result has shape batch + (N, P).  Jbar0 and Kbar_i are the
    coefficients of the functional relation, all N x P of them from one
    batched ``fz_coefficients`` call, with the prefactors e^{L lam0} and
    e^{lam0} e^{(L-1) lam_i} (per-variable x^{(L-1)/2}, branch-free)
    multiplied in one x0 node at a time.
    """
    L = cfg.L
    lam0s = np.asarray(lam0s, dtype=complex)
    lam_points = np.asarray(lam_points, dtype=complex)
    xs = np.exp(2 * lam_points)
    j0, ks = fz_coefficients(lam0s[:, None], lam_points, cfg)
    at_xs = evaluate(xs)
    images = []
    for lam0, j0_row, ks_row in zip(lam0s, j0, ks):
        jbar = j0_row * np.exp(L * lam0)
        kbar = ks_row * np.exp(lam0) * np.exp((L - 1) * lam_points)
        image = jbar * at_xs
        for i in range(lam_points.shape[1]):
            subbed = xs.copy()
            subbed[:, i] = np.exp(2 * lam0)
            image = image - kbar[:, i] * evaluate(subbed)
        images.append(image)
    return np.stack(images, axis=-2)


def lbar_grid_action(cfg: SpectralConfig, lam0s, lam_grids, coeffs: np.ndarray) -> np.ndarray:
    """``lbar_action`` on the tensor grid of the rapidity node sets
    ``lam_grids`` (x_i = e^{2 lam} on axis i), for the coefficient tensors
    ``coeffs`` (B,) + box: shape (B, N) + grid.

    p is evaluated on the x grid, and for each i on the grid with axis i at
    the N x0 nodes (``eval_grid``), one product per axis.  The substituted
    term does not depend on x_i, so it is subtracted from every slice of
    axis i of the images, each slice an in-place update of the one
    preallocated array with the multipliers of that slice; the largest
    temporary is one such slice.  The multipliers are those of
    ``lbar_action``, all N x grid of them from one ``fz_coefficients`` call
    at the ``grid_points``.
    """
    L, n = cfg.L, len(lam_grids)
    lam0s = np.asarray(lam0s, dtype=complex)
    lam_points = grid_points(lam_grids)
    j0, ks = fz_coefficients(lam0s[:, None], lam_points, cfg)
    shape = (len(lam0s),) + tuple(len(g) for g in lam_grids)
    jbar = (j0 * np.exp(L * lam0s)[:, None]).reshape(shape)
    kbar = (ks * np.exp(lam0s)[:, None, None] * np.exp((L - 1) * lam_points)).reshape(shape + (n,))
    x_grids = [np.exp(2 * g) for g in lam_grids]
    x0s = np.exp(2 * lam0s)
    images = np.empty((len(coeffs),) + shape, dtype=complex)
    np.multiply(eval_grid(coeffs, x_grids)[:, None], jbar, out=images)
    for i in range(n):
        # (B, N) + the grid without axis i
        subbed = np.moveaxis(eval_grid(coeffs, x_grids[:i] + [x0s] + x_grids[i + 1 :]), 1 + i, 1)
        for j in range(shape[1 + i]):
            at = (slice(None),) * (1 + i) + (j,)
            images[(slice(None),) + at] -= kbar[..., i][at] * subbed
    return images


def build_lbar(cfg: SpectralConfig) -> SampledOperator:
    """Assemble Lbar(x0) by sampling its action on the symmetric basis.

    The multipliers are only polynomial-preserving in combination, so the
    action is evaluated pointwise on per-variable disjoint node circles
    (keeping every coefficient denominator away from zero) and interpolated:
    degree L-1 per variable, then degree L in x0.  Nothing is ever composed
    from the rational pieces individually.  Every column is validated
    against the direct action at a random x-tuple at the first x0 node.
    """
    n, L = cfg.n, cfg.L
    if n < 1:
        raise ValueError("operator extraction needs at least one variable (n >= 1)")
    if L**n > MAX_TENSOR_DIM:
        raise CapacityError(f"tensor space L^n = {L**n} exceeds cap {MAX_TENSOR_DIM}")
    lam_grids, lam0_nodes = spectral_grids(L, n), lbar_x0_nodes(cfg)
    x_grids = [np.exp(2 * g) for g in lam_grids]
    x0_nodes = np.exp(2 * lam0_nodes)

    basis = SymmetricBasis(n, L - 1)
    rng = cfg.rng("lbar-holdout")
    held_lams = random_complex(rng, (1, n))
    held_images = lbar_action(cfg, lam0_nodes[:1], held_lams,
                              partial(eval_tensors, basis.tensors))[:, 0, 0]
    return sampled_operator(basis, lbar_grid_action(cfg, lam0_nodes, lam_grids, basis.tensors),
                            [x0_nodes] + x_grids,
                            np.concatenate([x0_nodes[:1], np.exp(2 * held_lams[0])]),
                            held_images)


# -- the family and its spectra ----------------------------------------------------

@dataclass
class OmegaFamily:
    """The L+1 extracted operators, Omega_k = ``omegas[k]`` with
    ``omega_norms[k]`` = max |Omega_k|, the largest entry modulus, and
    their joint diagnostics, each computed on its first read and kept:

    * ``commutator_norms[i, j]``: max-norm of [Omega_i, Omega_j] normalised
      by the operand norms (read by ``omega-extract``).
    * ``omega_top_scalar`` / ``omega_top_identity_residual``: the top
      coefficient operator against its best scalar multiple of the
      identity, one computation for both (``omega-extract``).
    * ``delta_table``: joint eigenvalues, one row per joint eigenvector of a
      random linear combination of the family; ``joint_defect`` measures how
      far each family member is from diagonal in that joint basis.  One
      diagonalisation for both (``check_eigk``), whose combination is
      drawn from its own rng tag, so no read order changes a bit.
    """

    cfg: SpectralConfig
    lbar: SampledOperator
    omegas: np.ndarray
    omega_norms: np.ndarray

    @property
    def basis(self) -> SymmetricBasis:
        return self.lbar.basis

    @property
    def precision_floor(self) -> float:
        """f = eps kappa rho: machine epsilon times the grid condition kappa
        of the Lbar fit times the family's dynamic range rho = max_k
        max|Omega_k| / min_k max|Omega_k|.  The family checks
        (``omega-commutators``, ``omega-top-scalar``,
        ``lbar-symmetry-defect``) read within a small factor of it, so a
        failure near f is the roundoff of the fit, scaled by the range."""
        rho = np.max(self.omega_norms) / max(np.min(self.omega_norms), 1e-300)
        return float(np.finfo(float).eps * self.lbar.grid_condition * rho)

    def omega(self, k: int) -> np.ndarray:
        return self.omegas[k]

    @cached_property
    def commutator_norms(self) -> np.ndarray:
        omegas, norms, L = self.omegas, self.omega_norms, self.cfg.L
        comms = np.zeros((L + 1, L + 1))
        for i in range(L + 1):
            for j in range(i + 1, L + 1):
                val = np.max(np.abs(omegas[i] @ omegas[j] - omegas[j] @ omegas[i]))
                comms[i, j] = comms[j, i] = val / max(norms[i] * norms[j], 1e-300)
        return comms

    @cached_property
    def _top_against_identity(self) -> tuple[complex, float]:
        L, ns = self.cfg.L, self.basis.dim
        top = self.omegas[L]
        scalar = complex(np.trace(top) / ns)
        resid = float(np.max(np.abs(top - scalar * np.eye(ns))) / max(self.omega_norms[L], 1e-300))
        return scalar, resid

    omega_top_scalar = property(lambda self: self._top_against_identity[0])
    omega_top_identity_residual = property(lambda self: self._top_against_identity[1])

    @cached_property
    def _joint_diagonalization(self) -> tuple[np.ndarray, float]:
        # through a random combination of the family
        omegas, norms, L, ns = self.omegas, self.omega_norms, self.cfg.L, self.basis.dim
        rng = self.cfg.rng("joint-diagonalization")
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
            defect = max(defect, float(np.max(np.abs(off)) / max(norms[k], 1e-300)))
        return delta, defect

    delta_table = property(lambda self: self._joint_diagonalization[0])
    joint_defect = property(lambda self: self._joint_diagonalization[1])


def extract_omegas(cfg: SpectralConfig) -> OmegaFamily:
    """Slice Lbar by powers of x0, each max |Omega_k| computed once; the
    joint diagnostics wait for their first read."""
    lbar = build_lbar(cfg)
    omegas = lbar.coefficient_matrices
    return OmegaFamily(cfg, lbar, omegas, np.array([np.max(np.abs(omega)) for omega in omegas]))


@dataclass
class EigkReport:
    """Joint-spectral-problem outcome of every sector-n eigenpair, one
    entry per eigenpair in spectrum order: whether its overlap polynomial
    vanishes, its residual and its distance to the joint-spectrum table
    (0 and inf for the vanishing ones, which are not checked)."""

    family: OmegaFamily
    vanishing: np.ndarray
    residuals: np.ndarray
    distances: np.ndarray

    @property
    def max_residual(self) -> float:
        return float(np.max(self.residuals[~self.vanishing], initial=0.0))

    @property
    def max_containment_distance(self) -> float:
        return float(np.max(self.distances[~self.vanishing], initial=0.0))

    @property
    def surplus_dimension(self) -> int:
        """Joint-space dimension not accounted for by transfer eigenvectors."""
        return self.family.basis.dim - int(np.count_nonzero(~self.vanishing))


def check_eigk(family: OmegaFamily, fits, lam_bars) -> EigkReport:
    """Verify Omega_k Fbar = Delta_k Fbar for every sector-n eigenpair.

    ``fits`` and ``lam_bars`` are the fits of the overlaps and of the
    Lambda_bar(x0) of the sector-n spectrum of the family's instance, in
    the order ``spectrum`` returns it, which the report's arrays keep.
    The Delta_k are read off that degree-L polynomial form of the
    transfer eigenvalue (the rows of ``lam_bars.coeffs``), independently of
    the operator extraction.  Eigenpairs whose overlap polynomial vanishes
    (``functional.vanishing``) are reported as such rather than asserted
    against.  The report also carries the distance from each Delta vector
    to the nearest row of the family's joint-spectrum table.

    The other eigenpairs are checked together, in ``blockbuild.chunks`` of
    their largest temporary (the Delta vector against every row of the
    table): the fits of a chunk are read at their labels at once
    (``SymmetricBasis.at_labels``), and each Omega_k acts on all of them in
    one matrix product, normalised by the family's ``omega_norms``.
    """
    cfg, basis, table = family.cfg, family.basis, family.delta_table
    zero = vanishing(fits)
    used = np.flatnonzero(~zero)
    residuals = np.zeros(len(zero))
    distances = np.full(len(zero), np.inf)
    for rows in blockbuild.chunks(len(used), table.size):
        part = used[rows]
        vecs = basis.at_labels(fits.coeffs[part])
        deltas = lam_bars.coeffs[part]
        norms = np.max(np.abs(vecs), axis=1)
        resid = np.zeros(len(part))
        for k in range(cfg.L + 1):
            num = np.max(np.abs(vecs @ family.omegas[k].T - deltas[:, k, None] * vecs), axis=1)
            den = (family.omega_norms[k] + np.abs(deltas[:, k])) * norms
            resid = np.maximum(resid, num / np.maximum(den, 1e-300))
        residuals[part] = resid
        distances[part] = np.min(
            np.max(np.abs(table[None] - deltas[:, None]), axis=2)
            / (1.0 + np.max(np.abs(deltas), axis=1))[:, None],
            axis=1,
        )
    return EigkReport(family, zero, residuals, distances)
