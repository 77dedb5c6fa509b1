"""Functional-equation layer: overlaps of dual transfer eigenvectors with
B-operator products, the linear relation those overlaps satisfy, and their
polynomial parts in the multiplicative variables.

For a dual eigenvector <Lambda| and rapidities lambda_1..lambda_n,

    F_n(lambda_1, ..., lambda_n) = <Lambda| B(lambda_1) ... B(lambda_n) |0>

is symmetric in its arguments and, after stripping the prefactor
``prod_i e^{(1-L) lambda_i}``, is a polynomial of degree L-1 in each
``x_i = e^{2 lambda_i}``.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from itertools import product as iproduct

import numpy as np

from .config import SpectralConfig, random_complex
from .polyengine import MultiPoly, grid_condition, tensor_interpolate
from .ybcore import (
    EigenChoice,
    exchange_m_factors,
    monodromy,
    spectrum,
    transfer,
    weight_a,
    weight_b,
)

__all__ = [
    "EigenChoice",
    "FnSampler",
    "PolyFit",
    "check_fz_residual",
    "circle_grid",
    "extract_fbar",
    "fbar_b_ops",
    "fit_grid",
    "fz_coefficients",
    "lambda_bar_coefficients",
    "lambda_grid",
    "spectrum",
]


# -- interpolation grids in the rapidity plane ---------------------------------

def lambda_grid(count: int, slot: int = 0, nslots: int = 1, spacing: float = 0.35) -> np.ndarray:
    """Rapidity nodes with real spacing >= 0.3 and a slot-dependent offset.

    Distinct slots give disjoint node sets, so tensor grids built from them
    never place two equal x-values in one sample tuple.  A mild imaginary
    tilt spreads the phases of x = e^{2 lambda} to help the Vandermonde
    conditioning.
    """
    k = np.arange(count)
    re = spacing * (k - (count - 1) / 2) + spacing * (slot + 1) / (nslots + 2)
    im = 0.27 * k / max(count, 1) + 0.13 * slot
    return re + 1j * im


def circle_grid(count: int, slot: int = 0, nslots: int = 1) -> np.ndarray:
    """Rapidity nodes whose x = e^{2 lambda} form a scaled circle.

    Scaled roots of unity give near-unit Vandermonde condition numbers, and
    the slot-dependent radius keeps different variables' nodes (and their
    pairwise differences, which appear in coefficient denominators) well
    separated.  Used by the operator-extraction layers.
    """
    rho = 0.66 * (slot / (nslots - 1) - 0.5) if nslots > 1 else 0.0
    theta = 2 * np.pi * np.arange(count) / count + 0.37 * slot + 0.19
    return rho / 2 + 1j * theta / 2


# -- overlap sampler -------------------------------------------------------------

def _b_table(cfg: SpectralConfig, lams) -> dict[complex, np.ndarray]:
    """B(lambda) at each distinct rapidity, each built once."""
    distinct = dict.fromkeys(complex(l) for l in lams)
    return {lam: monodromy(lam, cfg).b.entries for lam in distinct}


@dataclass
class FnSampler:
    """Evaluates F_n for one eigenpair.

    ``b_ops`` holds B(lambda) blocks built beforehand, keyed by rapidity;
    the samplers of one sector's fits share one such table (``fbar_b_ops``).
    A rapidity missing from it is built afresh at each use and not kept, so
    one-off draws never accumulate.  Partial products of repeated rapidity
    suffixes are cached on the sampler.  Both live exactly as long as the
    sampler, and the blocks are read-only, so sharing them is safe.
    """

    cfg: SpectralConfig
    eig: EigenChoice
    b_ops: dict = field(default_factory=dict, repr=False)
    _chain_cache: dict = field(default_factory=dict, repr=False)

    def _b(self, lam: complex) -> np.ndarray:
        op = self.b_ops.get(lam)
        return monodromy(lam, self.cfg).b.entries if op is None else op

    def _chain(self, lams: tuple[complex, ...]) -> np.ndarray:
        """B(lams[0]) ... B(lams[-1]) |0>, cached on suffixes."""
        if not lams:
            v = np.zeros(self.cfg.quantum_dim, dtype=complex)
            v[0] = 1.0
            return v
        cached = self._chain_cache.get(lams)
        if cached is None:
            cached = self._b(lams[0]) @ self._chain(lams[1:])
            self._chain_cache[lams] = cached
        return cached

    def value(self, lams) -> complex:
        """F_n at the given rapidities.

        The overlap vanishes identically unless the eigenpair sits in the
        sector matching the number of B-factors; a mismatch is reported with
        a warning rather than silently returning the zero function.
        """
        lams = tuple(complex(l) for l in lams)
        if len(lams) != self.eig.sector:
            warnings.warn(
                f"{len(lams)} B-factors against a sector-{self.eig.sector} "
                "eigenvector: the overlap is identically zero",
                stacklevel=2,
            )
            return 0.0
        return complex(self.eig.left @ self._chain(lams))


# -- the linear functional relation ----------------------------------------------

def fz_coefficients(lam0: complex, lams, cfg: SpectralConfig):
    """Coefficients (J0, [K_1..K_n]) of the relation

        J0 F_n(lams) - sum_i K_i F_n(lams with lams[i] -> lam0)
            = Lambda(lam0) F_n(lams).

    J0 multiplies the vacuum eigenvalue factors prod a(lam0 - mu_j) and
    prod b(lam0 - mu_j) by the exchange coefficients; each K_i does the same
    at the exchanged rapidity.  Raises on coincident rapidities.
    """
    lams = list(lams)
    ma0, md0, ma, md = exchange_m_factors(lam0, lams, cfg.gamma)
    pa0 = np.prod([weight_a(lam0 - m, cfg.gamma) for m in cfg.mu])
    pb0 = np.prod([weight_b(lam0 - m) for m in cfg.mu])
    j0 = complex(pa0 * ma0 + pb0 * md0)
    ks = []
    for i, lam in enumerate(lams):
        pal = np.prod([weight_a(lam - m, cfg.gamma) for m in cfg.mu])
        pbl = np.prod([weight_b(lam - m) for m in cfg.mu])
        ks.append(complex(pal * ma[i] + pbl * md[i]))
    return j0, ks


def check_fz_residual(sampler: FnSampler, lam0: complex, lams) -> float:
    """Residual of the functional relation, normalised by the largest term."""
    cfg = sampler.cfg
    lams = [complex(l) for l in lams]
    j0, ks = fz_coefficients(lam0, lams, cfg)
    # every rapidity of the relation is built once: T(lam0) and B(lam0) come
    # from one monodromy, and the swapped overlaps reuse the B(lams)
    m0 = monodromy(lam0, cfg)
    local = FnSampler(cfg, sampler.eig, {complex(lam0): m0.b.entries, **_b_table(cfg, lams)})
    f_here = local.value(lams)
    lam_val = sampler.eig.eigenvalue_from(m0.a.entries + m0.d.entries)
    total = j0 * f_here - lam_val * f_here
    scale = max(abs(j0 * f_here), abs(lam_val * f_here))
    for i, k in enumerate(ks):
        swapped = list(lams)
        swapped[i] = lam0
        term = k * local.value(swapped)
        total -= term
        scale = max(scale, abs(term))
    return float(abs(total) / max(scale, 1e-300))


# -- polynomial parts --------------------------------------------------------------

@dataclass(frozen=True)
class PolyFit:
    """An interpolated polynomial plus the diagnostics of its construction."""

    poly: MultiPoly
    grid_condition: float
    holdout_residual: float


def fit_grid(values: np.ndarray, x_grids, held_x, held_value: complex) -> PolyFit:
    """Interpolate tensor-grid samples and validate the fit at one held-out
    point.

    ``values`` holds the samples on the grid spanned by the per-variable
    nodes ``x_grids``; ``held_value`` is the sampled function at ``held_x``.
    The holdout residual is |direct - fitted| / max(|direct|, max |coeff|),
    and the condition number is the largest per-axis Vandermonde one.
    """
    poly = MultiPoly(tensor_interpolate(values, x_grids))
    fitted = poly.eval_many(np.asarray(held_x)[None, :])[0]
    holdout = abs(held_value - fitted) / max(abs(held_value), poly.max_abs(), 1e-300)
    cond = max(grid_condition(xg) for xg in x_grids)
    return PolyFit(poly, cond, float(holdout))


def _default_fbar_grids(cfg: SpectralConfig, n: int) -> list[np.ndarray]:
    return [lambda_grid(cfg.L, slot=i, nslots=n) for i in range(n)]


def _fbar_holdout_point(cfg: SpectralConfig, n: int) -> list[complex]:
    """The validation point of ``extract_fbar``; the same for every
    eigenpair of a sector."""
    rng = cfg.rng("fbar-holdout")
    return [random_complex(rng) for _ in range(n)]


def fbar_b_ops(cfg: SpectralConfig, n: int) -> dict[complex, np.ndarray]:
    """B(lambda) at the nodes and holdout point of the default
    ``extract_fbar`` fit in sector n, each built once.

    Every eigenpair of the sector samples the same rapidities, so the
    samplers of all of them take this one table instead of each rebuilding
    it.  It lives as long as the caller keeps it.
    """
    nodes = [lam for grid in _default_fbar_grids(cfg, n) for lam in grid]
    return _b_table(cfg, nodes + _fbar_holdout_point(cfg, n))


def extract_fbar(sampler: FnSampler, grids: list[np.ndarray] | None = None) -> PolyFit:
    """Polynomial part of F_n in the variables x_i = e^{2 lambda_i}.

    Samples the overlap on a tensor grid of rapidities (one disjoint node
    set per variable), multiplies off the prefactor e^{(L-1) lambda_i} per
    variable, and interpolates at per-variable degree L-1.  A fresh random
    point validates the fit; its relative error is returned alongside the
    largest per-axis Vandermonde condition number.
    """
    cfg = sampler.cfg
    n = sampler.eig.sector
    if n == 0:
        val = complex(sampler.eig.left[0])
        return PolyFit(MultiPoly(np.array(val)), 1.0, 0.0)
    if grids is None:
        grids = _default_fbar_grids(cfg, n)
    xgrids = [np.exp(2 * g) for g in grids]
    vals = np.zeros((cfg.L,) * n, dtype=complex)
    for tup in iproduct(range(cfg.L), repeat=n):
        lams = [grids[i][tup[i]] for i in range(n)]
        vals[tup] = np.exp((cfg.L - 1) * sum(lams)) * sampler.value(lams)
    test = _fbar_holdout_point(cfg, n)
    direct = np.exp((cfg.L - 1) * sum(test)) * sampler.value(test)
    return fit_grid(vals, xgrids, np.exp(2 * np.array(test)), direct)


def lambda_bar_coefficients(
    eigs, cfg: SpectralConfig, nodes: np.ndarray | None = None
) -> np.ndarray:
    """Coefficients of Lambda_bar(x0) = Lambda(lam0) e^{L lam0} as a degree-L
    polynomial in x0 = e^{2 lam0}, for one eigenpair or a list of them.

    The transfer matrix at each node is built once and shared across all the
    requested eigenpairs.
    """
    single = isinstance(eigs, EigenChoice)
    eig_list = [eigs] if single else list(eigs)
    if nodes is None:
        nodes = circle_grid(cfg.L + 1, slot=0, nslots=1)
    values = np.zeros((len(eig_list), len(nodes)), dtype=complex)
    for j, lam0 in enumerate(nodes):
        t = transfer(lam0, cfg).entries
        for i, eig in enumerate(eig_list):
            val = (eig.left @ t @ eig.right) / (eig.left @ eig.right)
            values[i, j] = val * np.exp(cfg.L * lam0)
    coeffs = tensor_interpolate(values, [np.exp(2 * np.asarray(nodes))])
    return coeffs[0] if single else coeffs
