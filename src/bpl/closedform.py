"""Explicit order-(L-1) PDE satisfied by the overlap polynomials.

The x0^{L-1} member of the extracted operator family acts as

    [ V + sum_i Q_i d^{L-1}/dx_i^{L-1} ] Fbar = Delta_{L-1} Fbar

with closed-form coefficients: a potential V affine in sum_i x_i, and
rational coefficients Q_i assembled from elementary symmetric sums of the
y's and of the x's excluding x_i, with a two-index table psi(l, d) of
q-dependent weights.  This module evaluates those formulas exactly as
printed, reproduces the small-lattice solvable cases, and compares the
resulting operator against the independently extracted family member.

``PdeCoefficients`` holds the coefficient data; ``spectral_pde`` wraps it
in the ``polyengine.PdeSpec`` through which the residual, the operator and
the first-order reduction (``reduction``) all evaluate the equation.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product as iproduct
from math import factorial

import numpy as np

from .config import SpectralConfig
from .errors import CoincidentRapiditiesError
from .functional import circle_grid
from .omega import OmegaFamily, SymmetricBasis, extract_omegas
from .polyengine import MultiPoly, PdeSpec, tensor_interpolate

#: minimum |x_i - x_j| accepted when evaluating the rational coefficients
X_SEPARATION_GUARD = 1e-7


def geometric_sum(q: complex, top: int) -> complex:
    """sum_{k=0}^{top} q^k, which is empty (zero) for top < 0."""
    if top < 0:
        return 0.0 + 0.0j
    out = 0.0 + 0.0j
    power = 1.0 + 0.0j
    for _ in range(top + 1):
        out += power
        power *= q
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
    d - (L - (n+1) + 2l), with the boundary case split at L = 5; the
    geometric sums vanish when their upper limit is negative.
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

    def potential(self, xs) -> complex:
        return self.v_const + self.v_slope * complex(np.sum(xs))

    def derivative_coeff(self, i: int, xs) -> complex:
        """Derivative coefficient Q_i at a point with pairwise-distinct
        coordinates.

        Assembled from G_m(x_i; other x's) paired with the elementary
        symmetric sums of the y's, where G_{L-d} = x_i^d sum_l x_i^l
        psi(l, d) e_{n-1-l} over the other x's; the exterior factor carries
        the single pole set prod_{j != i} (x_j - x_i).
        """
        n, L = self.cfg.n, self.cfg.L
        xs = [complex(x) for x in xs]
        if len(xs) != n:
            raise ValueError(f"expected {n} coordinates, got {len(xs)}")
        others = [x for j, x in enumerate(xs) if j != i]
        den = 1.0 + 0.0j
        for x in others:
            diff = x - xs[i]
            if abs(diff) < X_SEPARATION_GUARD:
                raise CoincidentRapiditiesError((x, xs[i]), abs(diff))
            den *= diff
        prefactor = self.q_prefactor / den
        e_others = [elementary_symmetric(others, n - 1 - l) for l in range(n)]
        total = 0.0 + 0.0j
        for m in range(L + 1):
            d = L - m
            g = xs[i] ** d * sum(
                xs[i] ** l * complex(self.psi_table[l, d]) * e_others[l] for l in range(n)
            )
            total += g * self.e_ys[m]
        return complex(prefactor * total)


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
    coeffs = pde_coefficients(cfg)
    return PdeSpec(cfg.L, cfg.n, coeffs.potential, coeffs.derivative_coeff)


def eval_v(cfg: SpectralConfig, xs) -> complex:
    """Potential V at one point, for a single evaluation (see ``eval_q``)."""
    return pde_coefficients(cfg).potential(xs)


def eval_q(cfg: SpectralConfig, i: int, xs) -> complex:
    """Derivative coefficient Q_i at one point, for a single evaluation.

    Builds the instance's ``PdeCoefficients`` each call; code that evaluates
    many points builds them once and calls ``derivative_coeff``.
    """
    return pde_coefficients(cfg).derivative_coeff(i, xs)


# -- residuals and operator comparison --------------------------------------------

def _distinct_sample_points(cfg: SpectralConfig, count: int, tag: str) -> np.ndarray:
    """Random x-tuples with coordinates drawn from disjoint annuli."""
    rng = cfg.rng(tag)
    n = max(cfg.n, 1)
    pts = np.zeros((count, cfg.n), dtype=complex)
    for i in range(cfg.n):
        rho = 0.5 * (i / n - 0.5) + 0.05 * rng.uniform(-1, 1, count)
        theta = rng.uniform(0, 2 * np.pi, count)
        pts[:, i] = np.exp(rho + 1j * theta)
    return pts


def closedform_residual(
    cfg: SpectralConfig, fbar: MultiPoly, delta: complex, points: np.ndarray | None = None
) -> float:
    """Max residual of the closed-form PDE on a candidate eigenfunction,
    normalised by the largest participating term (``PdeSpec.residual``).
    At n = 0 every point is the empty tuple and the equation is V f = Delta f."""
    if points is None:
        points = _distinct_sample_points(cfg, 12, "closedform-points")
    return spectral_pde(cfg).residual(fbar, delta, points)


def closedform_operator(cfg: SpectralConfig, grids=None) -> tuple[np.ndarray, SymmetricBasis]:
    """Matrix of V + sum_i Q_i d^{L-1}/dx_i^{L-1} on the symmetric basis.

    Like the extraction layer, the action is sampled on per-variable node
    circles and interpolated; the individual terms leave the bounded space
    and only their sum returns to it.
    """
    n, L = cfg.n, cfg.L
    if n < 1:
        raise ValueError("the operator form needs n >= 1")
    if grids is None:
        lam_grids = [circle_grid(L, slot=i + 1, nslots=n + 1) for i in range(n)]
    else:
        lam_grids = grids
    x_grids = [np.exp(2 * g) for g in lam_grids]
    tuples = list(iproduct(range(L), repeat=n))
    x_tuples = np.array([[x_grids[i][t[i]] for i in range(n)] for t in tuples])

    spec = spectral_pde(cfg)
    # column k of the table: V (k = 0) or Q_{k-1} at every grid point
    coeff_table = np.array([spec.coefficients(xs) for xs in x_tuples])

    basis = SymmetricBasis(n, L - 1)
    ns = basis.dim
    mat = np.zeros((ns, ns), dtype=complex)
    for col in range(ns):
        unit = np.zeros(ns)
        unit[col] = 1.0
        p = basis.embed(unit)
        parts = [p] + spec.derivatives(p)
        vals = sum(c * g.eval_many(x_tuples) for c, g in zip(coeff_table.T, parts))
        table = tensor_interpolate(vals.reshape((L,) * n), x_grids)
        vec, _ = basis.project(MultiPoly(table))
        mat[:, col] = vec
    return mat, basis


def compare_omega_closedform(cfg: SpectralConfig, family: OmegaFamily | None = None) -> float:
    """Normalised max-norm distance between the closed-form operator and the
    extracted x0^{L-1} family member.  This is the decisive validation of
    every coefficient formula and of the multiplicative conventions
    q = e^gamma, x = e^{2 lambda}, y = e^{2 mu}."""
    if family is None:
        family = extract_omegas(cfg)
    closed, _ = closedform_operator(cfg)
    extracted = family.omega(cfg.L - 1)
    scale = max(np.max(np.abs(closed)), np.max(np.abs(extracted)), 1e-300)
    return float(np.max(np.abs(closed - extracted)) / scale)


# -- solvable small cases -----------------------------------------------------------

@dataclass(frozen=True)
class SpecialSolutions:
    """Closed-form eigenfunctions of the explicit PDE with their eigenvalues."""

    case: str
    eigenfunctions: tuple[MultiPoly, ...]
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
            case, (MultiPoly(np.array(1.0 + 0.0j)),), (delta_top_n0(cfg),)
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
            p = MultiPoly(np.array([sign * sqy, q], dtype=complex))  # q x1 + sign sqrt(y1 y2)
            funcs.append(p)
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
        return SpecialSolutions(case, (MultiPoly(c),), (delta,))
    raise ValueError(f"unknown case {case!r}; expected one of 'n0', 'n1L2', 'n2L2'")
