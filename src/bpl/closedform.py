"""Explicit order-(L-1) PDE satisfied by the overlap polynomials.

The x0^{L-1} member of the extracted operator family acts as

    [ V + sum_i Q_i d^{L-1}/dx_i^{L-1} ] Fbar = Delta_{L-1} Fbar

with closed-form coefficients: a potential V affine in sum_i x_i, and
rational coefficients Q_i assembled from elementary symmetric sums of the
y's and of the x's excluding x_i, with a two-index table psi(l, d) of
q-dependent weights.  This module evaluates those formulas (with the
geometric sums in psi continued to negative upper limits; see
``psi_value``), reproduces the small-lattice solvable cases, and compares the
resulting operator against the independently extracted family member.

``PdeCoefficients`` holds the coefficient data and evaluates V and every
Q_i over a batch of points in one call; ``spectral_pde`` wraps it in the
``polyengine.PdeSpec`` through which the residual, the operator (the summed
terms of the equation on the symmetric basis tensors at the Lbar x-nodes,
fitted as ``omega.sampled_operator``) and the first-order reduction
(``reduction``) all evaluate the equation.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import factorial

import numpy as np

from .config import SpectralConfig, random_complex
from .functional import annulus_points, spectral_grids
from .omega import OmegaFamily, SampledOperator, SymmetricBasis, sampled_operator
from .polyengine import PdeSpec, pairwise_differences


def geometric_sum(q: complex, top: int) -> complex:
    """sum_{k=0}^{top} q^k, continued to every integer upper limit as
    (1 - q^{top+1}) / (1 - q): zero at top = -1 and
    -sum_{k=1}^{-top-1} q^{-k} for top <= -2.

    Both branches are summed term by term rather than through the quotient,
    so they stay exact near q = 1.
    """
    out = 0.0 + 0.0j
    power = 1.0 + 0.0j
    if top >= 0:
        for _ in range(top + 1):
            out += power
            power *= q
        return out
    for _ in range(-top - 1):
        power /= q
        out -= power
    return out


def _parity_sign(p: int) -> float:
    return -1.0 if p % 2 else 1.0


def elementary_symmetric(values, m: int) -> complex:
    """e_m of the given values (e_0 = 1, empty above the count)."""
    values = list(values)
    if m == 0:
        return 1.0 + 0.0j
    if m > len(values):
        return 0.0 + 0.0j
    e = np.zeros(m + 1, dtype=complex)
    e[0] = 1.0
    for v in values:
        e[1 : m + 1] = e[1 : m + 1] + v * e[0:m]
    return complex(e[m])


def psi_branch(l: int, d: int, n: int, L: int) -> str:
    """Which of the four defining branches of psi(l, d) applies."""
    threshold = L - (n + 1) + 2 * l
    if d > threshold:
        return "above"
    if d == threshold:
        return "equal-large-L" if L >= 5 else "equal-small-L"
    return "below"


def psi_value(l: int, d: int, cfg: SpectralConfig) -> complex:
    """q-weight psi(l, d) entering the derivative coefficients.

    The four branches partition the (l, d) grid by the sign of
    d - (L - (n+1) + 2l), with the boundary case split at L = 5.  Each
    geometric sum is continued in its upper limit (``geometric_sum``): it
    vanishes at -1 only, and below that it is minus a sum of negative
    powers of q.  The extracted Omega_{L-1} confirms this convention: at
    n = 1 its top-exponent column gives every psi(0, d), and the "below"
    branch, whose upper limit L - 2d - 2n + 1 + 4l reaches -2 from L = 7 on
    (psi(0, 4) at L = 7, psi(0, 5) at L = 8), matches it only with the
    continued sum, not with an empty one.
    """
    n, L, q = cfg.n, cfg.L, cfg.q
    branch = psi_branch(l, d, n, L)
    if branch == "above":
        return _parity_sign(L + d + l) * q ** (L + 2 * l) * geometric_sum(q, 2 * d + 2 * n - 3 - L - 4 * l)
    if branch == "equal-large-L":
        return _parity_sign(3 * l - n - 1) * q ** (L + 2 * l) * geometric_sum(q, L - 5)
    if branch == "equal-small-L":
        return _parity_sign(3 * l - n) * q ** (2 * L + 2 * l - 4) * geometric_sum(q, 3 - L)
    return _parity_sign(L + d + l + 1) * q ** (2 * d + 2 * n - 2 - 2 * l) * geometric_sum(
        q, L - 2 * d - 2 * n + 1 + 4 * l
    )


def potential_split(q: complex, ys: np.ndarray, n: int, L: int):
    """The two pieces of the potential before the common prefactor.

    Returns ``(v1, v2_slope)`` with V = -2^{-L} prod_k y_k^{-1/2} *
    (v1 + v2_slope * sum_i x_i); the slope carries the explicit (q-1)^2
    factor, so it vanishes at the free-fermion-free point q = 1, and the
    branch selects on L >= 2(n-1) as printed (boundary included).
    """
    v1 = (q**n + q ** (L - n - 2)) * np.sum(ys)
    if L >= 2 * (n - 1):
        slope = q ** (n - 2) * (q - 1) ** 2 * (q + 1) * geometric_sum(q, L + 1 - 2 * n)
    else:
        slope = -(q ** (L - n)) * (q - 1) ** 2 * (q + 1) * geometric_sum(q, 2 * n - 3 - L)
    return complex(v1), complex(slope)


@dataclass(frozen=True)
class PdeCoefficients:
    """Closed-form coefficient data for a fixed problem instance.

    The potential is stored as the affine map ``v_const + v_slope * sum(x)``;
    the derivative coefficients are rational in the x's and are evaluated on
    demand from the point-independent parts stored here: ``psi_table[l, d]``
    holds the q-weights on the full index rectangle 0 <= l <= n-1,
    0 <= d <= L, ``e_ys[m]`` the elementary symmetric sums of the y's, and
    ``q_prefactor`` the constant factor shared by every Q_i.
    """

    cfg: SpectralConfig
    v_const: complex
    v_slope: complex
    psi_table: np.ndarray
    e_ys: tuple[complex, ...]
    q_prefactor: complex

    def __call__(self, xs) -> np.ndarray:
        """[V, Q_0, ..., Q_{n-1}] at every point of ``xs`` (shape (P, n),
        pairwise-distinct coordinates in each row), shape (P, 1 + n).

        Q_i is assembled from G_m(x_i; other x's) paired with the elementary
        symmetric sums of the y's, where G_{L-d} = x_i^d sum_l x_i^l
        psi(l, d) e_{n-1-l} over the other x's; the exterior factor carries
        the single pole set prod_{j != i} (x_j - x_i).  The sums e_k of the
        other x's are built by multiplying in each x_j, with x_i entering
        as 0.
        """
        n, L = self.cfg.n, self.cfg.L
        xs = np.asarray(xs, dtype=complex)
        if xs.ndim != 2 or xs.shape[1] != n:
            raise ValueError(f"expected points of shape (P, {n}), got {xs.shape}")
        potential = self.v_const + self.v_slope * np.sum(xs, axis=1)
        den = np.prod(pairwise_differences(xs), axis=2)
        # e_others[p, i, k] = e_k(x_j : j != i)
        e_others = np.zeros(xs.shape + (n,), dtype=complex)
        e_others[..., :1] = 1.0
        for j in range(n):
            x_j = np.where(np.arange(n) == j, 0.0, xs[:, j : j + 1])
            e_others[..., 1:] = e_others[..., 1:] + x_j[..., None] * e_others[..., :-1]
        powers = xs[..., None] ** np.arange(L + 1)  # n <= L
        # inner[p, i, d] = sum_l x_i^l psi(l, d) e_{n-1-l}(others)
        inner = np.einsum("pil,ld,pil->pid", powers[..., :n], self.psi_table[:n],
                          e_others[..., ::-1])
        total = np.sum(powers * inner * np.array(self.e_ys[::-1]), axis=-1)
        return np.column_stack([potential, self.q_prefactor / den * total])


def pde_coefficients(cfg: SpectralConfig) -> PdeCoefficients:
    q, ys, n, L = cfg.q, cfg.ys, cfg.n, cfg.L
    v1, slope = potential_split(q, ys, n, L)
    pref = -(2.0**-L) / cfg.sqrt_y_prod
    table = np.zeros((max(n, 1), L + 1), dtype=complex)
    for l in range(n):
        for d in range(L + 1):
            table[l, d] = psi_value(l, d, cfg)
    e_ys = tuple(elementary_symmetric(ys, m) for m in range(L + 1))
    q_prefactor = (
        (q - 1) ** 2 * (q + 1) / (2.0**L * q ** (L + n) * factorial(L - 1)) / cfg.sqrt_y_prod
    )
    return PdeCoefficients(cfg, pref * v1, pref * slope, table, e_ys, q_prefactor)


def spectral_pde(cfg: SpectralConfig) -> PdeSpec:
    """The closed-form PDE of the instance, with V and Q_i from one
    ``PdeCoefficients``."""
    return PdeSpec(cfg.L, cfg.n, pde_coefficients(cfg))


def eval_v(cfg: SpectralConfig, xs) -> complex:
    """Potential V at one point, for a single evaluation (see ``eval_q``)."""
    return complex(pde_coefficients(cfg)(np.reshape(xs, (1, -1)))[0, 0])


def eval_q(cfg: SpectralConfig, i: int, xs) -> complex:
    """Derivative coefficient Q_i at one point, for a single evaluation.

    Builds the instance's ``PdeCoefficients`` each call; code that evaluates
    many points builds them once and calls them on the whole batch.
    """
    return complex(pde_coefficients(cfg)(np.reshape(xs, (1, -1)))[0, 1 + i])


# -- residuals and operator comparison --------------------------------------------

def closedform_residual(cfg: SpectralConfig, fbars: np.ndarray, deltas
                        ) -> tuple[np.ndarray, np.ndarray]:
    """``PdeSpec.residual`` of the closed-form PDE on candidate eigenfunctions
    (coefficient tensors, leading axes a batch, with one Delta each or one
    for all) at 12 sample points: the normalised defect at each point,
    shape batch + (12,), and the normalised term magnitudes there.  At
    n = 0 every point is the empty tuple and the equation is V f = Delta f."""
    points = annulus_points(cfg, cfg.n, 12, "closedform-points")
    return spectral_pde(cfg).residual(np.asarray(fbars), deltas, points)


def closedform_operator(cfg: SpectralConfig) -> SampledOperator:
    """V + sum_i Q_i d^{L-1}/dx_i^{L-1} on the symmetric basis.

    Like the extraction layer, the action is sampled on per-variable node
    circles and fitted (``omega.sampled_operator``), validated at one random
    x-tuple; the individual terms leave the bounded space and only their
    sum returns to it.  The nodes are the x-nodes of Lbar and of the
    overlap fits (``functional.spectral_grids``), where ``PdeSpec.grid_action``
    evaluates the basis tensors and their derivatives one product per axis;
    the held-out x-tuple is off the grid and goes through ``PdeSpec.terms``.
    """
    n, L = cfg.n, cfg.L
    if n < 1:
        raise ValueError("the operator form needs n >= 1")
    x_grids = [np.exp(2 * g) for g in spectral_grids(L, n)]
    basis = SymmetricBasis(n, L - 1)
    pde = spectral_pde(cfg)
    rng = cfg.rng("closedform-operator-holdout")
    held_x = np.exp(2 * random_complex(rng, (n,)))
    held_images = pde.terms(basis.tensors, held_x[None, :]).sum(axis=-1)[:, 0]
    return sampled_operator(basis, pde.grid_action(basis.tensors, x_grids), x_grids, held_x,
                            held_images)


def compare_omega_closedform(family: OmegaFamily, closed: SampledOperator) -> np.ndarray:
    """Max-norm distance between the closed-form operator ``closed`` of the
    family's instance and the extracted x0^{L-1} family member, per
    symmetric-basis column (in ``basis.labels`` order), all normalised by
    the larger of the two operators' max-norms.  Its maximum is the decisive validation of every coefficient formula and
    of the multiplicative conventions q = e^gamma, x = e^{2 lambda},
    y = e^{2 mu}; the columns that disagree locate a fault."""
    mat = closed.coefficient_matrices
    extracted = family.omega(family.cfg.L - 1)
    scale = max(np.max(np.abs(mat)), np.max(np.abs(extracted)), 1e-300)
    return np.max(np.abs(mat - extracted), axis=0) / scale


# -- solvable small cases -----------------------------------------------------------

@dataclass(frozen=True)
class SpecialSolutions:
    """Closed-form eigenfunctions (coefficient tensors) of the explicit PDE
    with their eigenvalues."""

    case: str
    eigenfunctions: tuple[np.ndarray, ...]
    deltas: tuple[complex, ...]


def delta_top_n0(cfg: SpectralConfig) -> complex:
    """Constant-eigenfunction eigenvalue: -(1 + q^{L-2}) sum y / (2^L prod sqrt y)."""
    q, ys, L = cfg.q, cfg.ys, cfg.L
    return complex(-(1 + q ** (L - 2)) * np.sum(ys) / (2.0**L * cfg.sqrt_y_prod))


def special_solutions(case: str, cfg: SpectralConfig) -> SpecialSolutions:
    """Closed-form solutions of the explicit PDE.

    * ``"n0"``: any L; the constant eigenfunction.
    * ``"n1L2"``: the first-order single-variable case integrates to a square
      root times an exponential of an inverse hyperbolic tangent; demanding a
      degree-1 polynomial forces the exponent to +-1, collapsing the solution
      to q x1 +- sqrt(y1 y2) and quantising the eigenvalue.
    * ``"n2L2"``: the two-variable first-order case integrates along
      characteristic curves dx1/dx2 = -x1/x2; a polynomial solution needs a
      constant function of x1 x2, leaving the bilinear characteristic
      invariant as eigenfunction.
    """
    q = cfg.q
    if case == "n0":
        if cfg.n != 0:
            raise ValueError("case 'n0' needs n = 0")
        return SpecialSolutions(
            case, (np.array(1.0 + 0.0j),), (delta_top_n0(cfg),)
        )
    if case == "n1L2":
        if (cfg.n, cfg.L) != (1, 2):
            raise ValueError("case 'n1L2' needs (n, L) = (1, 2)")
        ys = cfg.ys
        sqy = cfg.sqrt_y_prod  # sqrt(y1 y2), branch-free
        base = -(1 + q**2) * (ys[0] + ys[1]) / (4 * q * sqy)
        shift = (q**2 - 1) ** 2 / (4 * q**2)
        funcs, deltas = [], []
        for sign in (+1.0, -1.0):
            funcs.append(np.array([sign * sqy, q], dtype=complex))  # q x1 + sign sqrt(y1 y2)
            deltas.append(complex(base - sign * shift))
        return SpecialSolutions(case, tuple(funcs), tuple(deltas))
    if case == "n2L2":
        if (cfg.n, cfg.L) != (2, 2):
            raise ValueError("case 'n2L2' needs (n, L) = (2, 2)")
        ys = cfg.ys
        sqy = cfg.sqrt_y_prod
        # zeta = q^2 (y1+y2)(x1+x2) - (1+q^2)(y1 y2 + q^2 x1 x2)
        c = np.zeros((2, 2), dtype=complex)
        c[0, 0] = -(1 + q**2) * ys[0] * ys[1]
        c[1, 0] = c[0, 1] = q**2 * (ys[0] + ys[1])
        c[1, 1] = -(1 + q**2) * q**2
        delta = complex(-(ys[0] + ys[1]) / (2 * sqy))
        return SpecialSolutions(case, (c,), (delta,))
    raise ValueError(f"unknown case {case!r}; expected one of 'n0', 'n1L2', 'n2L2'")
