"""Functional-equation layer: overlaps of dual transfer eigenvectors with
B-operator products, the linear relation those overlaps satisfy, their
polynomial parts in the multiplicative variables, and the one description of
where the spectral layer samples.

For a dual eigenvector <Lambda| and rapidities lambda_1..lambda_n,

    F_n(lambda_1, ..., lambda_n) = <Lambda| B(lambda_1) ... B(lambda_n) |0>

is symmetric in its arguments and, after stripping the prefactor
``prod_i e^{(1-L) lambda_i}``, is a polynomial of degree L-1 in each
``x_i = e^{2 lambda_i}``.

Sampling geometry.  Every n-variable spectral fit -- the overlap polynomials
F_n, the operator-valued Lbar(x0) and the closed-form operator -- samples
x_1..x_n on slots 1..n of n+1 node circles (``spectral_grids``) and x0 on
slot 0 (``lbar_x0_nodes``), so they share one node set.  Every PDE residual
evaluates at the random points of ``annulus_points``.

Shared chains.  F_n is <Lambda| times the chain B(lambda_1) ... B(lambda_n)
|0>, and the chain does not depend on the eigenpair.  One ``ChainTable``
per sector therefore serves every eigenpair's sampler: it computes each
chain suffix once, and, for the overlap fits, the grid chains, their
prefactors and the grid's condition number once (``fit_samples``), so each
eigenpair's fit adds only one ``left @ chain`` dot per sample.

Batched coefficients.  ``fz_coefficients`` evaluates the relation's
coefficients at N x0 rapidities times P rapidity rows in one call, with the
vacuum products vectorised over the inhomogeneities.  Every entry equals
the one-point value bit for bit: numpy's vectorised complex ``*`` can
differ from its scalar ``*`` in the last bit, so every product is a
multiply-reduce over a last axis (``ybcore.stacked_product``), which
rounds as the scalar does.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .config import SpectralConfig, random_complex
from .polyengine import MultiPoly, grid_condition, grid_points, tensor_interpolate
from .ybcore import (
    EigenChoice,
    exchange_m_factors,
    monodromies,
    monodromy,
    spectrum,
    stacked_product,
    weight_a,
    weight_b,
)

__all__ = [
    "ChainTable",
    "EigenChoice",
    "FitSamples",
    "FnSampler",
    "PolyFit",
    "annulus_points",
    "b_table",
    "check_fz_residual",
    "circle_grid",
    "extract_fbar",
    "fbar_chains",
    "fit_grid",
    "fz_coefficients",
    "lambda_bar_coefficients",
    "lbar_x0_nodes",
    "spectral_grids",
    "spectrum",
    "vacuum_products",
]


# -- sampling geometry -------------------------------------------------------------

def circle_grid(count: int, slot: int = 0, nslots: int = 1) -> np.ndarray:
    """Rapidity nodes whose x = e^{2 lambda} form a scaled circle.

    Scaled roots of unity give near-unit Vandermonde condition numbers, and
    the slot-dependent radius keeps different variables' nodes (and their
    pairwise differences, which appear in coefficient denominators) well
    separated.  The spectral fits take their slots from ``spectral_grids``
    and ``lbar_x0_nodes``; Zbar lays out its own (``dwbc``).
    """
    rho = 0.66 * (slot / (nslots - 1) - 0.5) if nslots > 1 else 0.0
    theta = 2 * np.pi * np.arange(count) / count + 0.37 * slot + 0.19
    return rho / 2 + 1j * theta / 2


def spectral_grids(L: int, n: int) -> list[np.ndarray]:
    """Rapidity nodes of x_1..x_n, L per variable: slots 1..n of the n+1
    node circles whose slot 0 carries x0.  The overlap fits of sector n,
    Lbar and the closed-form operator all sample here."""
    return [circle_grid(L, slot=i, nslots=n + 1) for i in range(1, n + 1)]


def lbar_x0_nodes(cfg: SpectralConfig) -> np.ndarray:
    """Rapidities of the x0 = e^{2 lambda_0} interpolation nodes of Lbar(x0)
    and of Lambda_bar(x0): slot 0 of the n+1 node circles whose other slots
    carry the x_i (``spectral_grids``)."""
    return circle_grid(cfg.L + 1, slot=0, nslots=cfg.n + 1)


def annulus_points(cfg: SpectralConfig, nvars: int, count: int, tag: str) -> np.ndarray:
    """``count`` random x-tuples of ``nvars`` coordinates, shape
    (count, nvars), drawn from the generator of ``tag``.  Coordinate i lies
    on its own thin annulus of log-radius 0.5 (i / nvars - 0.5) +- 0.05 at
    a uniform angle, which keeps pairs of coordinates apart, as the rational
    PDE coefficients need (the annuli touch from 5 variables on, where the
    independent angles still separate them).  The spectral residuals take
    nvars = n, the domain-wall ones nvars = L."""
    rng = cfg.rng(tag)
    pts = np.zeros((count, nvars), dtype=complex)
    for i in range(nvars):
        rho = 0.5 * (i / nvars - 0.5) + 0.05 * rng.uniform(-1, 1, count)
        theta = rng.uniform(0, 2 * np.pi, count)
        pts[:, i] = np.exp(rho + 1j * theta)
    return pts


# -- overlap sampler -------------------------------------------------------------

def b_table(cfg: SpectralConfig, lams, top: int) -> dict[complex, tuple[np.ndarray, ...]]:
    """The sector blocks of B(lambda) up to sector ``top`` at each distinct
    rapidity, all built in one batched call, each once."""
    distinct = list(dict.fromkeys(complex(l) for l in lams))
    return {lam: m.b for lam, m in zip(distinct, monodromies(distinct, cfg, top))}


class FitSamples(NamedTuple):
    """What every eigenpair's overlap fit in one sector samples alike: the
    x-nodes and held-out x-point, the prefactor e^{(L-1) sum lambda_i} and
    the B-chain at each grid point with the held-out point last, and the
    largest per-axis Vandermonde condition number of the nodes."""

    x_grids: list[np.ndarray]
    held_x: np.ndarray
    prefactors: list
    chains: list[np.ndarray]
    condition: float


@dataclass
class ChainTable:
    """B-chains B(lambda_1) ... B(lambda_k) |0> of one instance, up to
    sector ``top``.

    A chain depends on the B operators only, not on any eigenpair, so the
    samplers of every eigenpair of a sector share one table (``fbar_chains``)
    and each distinct chain suffix is computed once for all of them.
    ``b_ops`` holds the sector blocks of B(lambda) built beforehand, keyed
    by rapidity; a rapidity missing from it is built afresh at each use, up
    to ``top``, and not kept, so one-off draws never accumulate.  Chains
    are matrix-vector products cached on suffixes for the table's life;
    the blocks are read-only, so sharing them is safe.
    """

    cfg: SpectralConfig
    top: int
    b_ops: dict = field(default_factory=dict, repr=False)
    _cache: dict = field(default_factory=dict, repr=False)

    def _b(self, lam: complex) -> tuple[np.ndarray, ...]:
        op = self.b_ops.get(lam)
        return monodromy(lam, self.cfg, top=self.top).b if op is None else op

    def chain(self, lams: tuple[complex, ...]) -> np.ndarray:
        """B(lams[0]) ... B(lams[-1]) |0> in sector len(lams), cached on
        suffixes; the vacuum |0> is the one state of sector 0."""
        if not lams:
            return np.ones(1, dtype=complex)
        cached = self._cache.get(lams)
        if cached is None:
            cached = self._b(lams[0])[len(lams) - 1] @ self.chain(lams[1:])
            self._cache[lams] = cached
        return cached

    @cached_property
    def fit_samples(self) -> FitSamples:
        """The samples of sector ``top``'s overlap fits (``extract_fbar``),
        computed once for all its eigenpairs."""
        L, n = self.cfg.L, self.top
        grids = spectral_grids(L, n)
        held = _fbar_holdout_point(self.cfg, n)
        points = list(grid_points(grids)) + [held]
        x_grids = [np.exp(2 * g) for g in grids]
        return FitSamples(
            x_grids,
            np.exp(2 * np.array(held)),
            [np.exp((L - 1) * sum(lams)) for lams in points],
            [self.chain(tuple(complex(l) for l in lams)) for lams in points],
            max(grid_condition(xg) for xg in x_grids),
        )


@dataclass
class FnSampler:
    """Evaluates F_n for one eigenpair as <Lambda| times a B-chain.

    ``chains`` is the table the chains come from; the samplers of one
    sector's fits share one (``fbar_chains``), and by default a sampler gets
    a private table with no prebuilt operators.
    """

    cfg: SpectralConfig
    eig: EigenChoice
    chains: ChainTable | None = field(default=None, repr=False)

    def __post_init__(self):
        if self.chains is None:
            self.chains = ChainTable(self.cfg, self.eig.sector)

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
        return complex(self.eig.left @ self.chains.chain(lams))


# -- the linear functional relation ----------------------------------------------

def vacuum_products(lams, cfg: SpectralConfig) -> tuple[np.ndarray, np.ndarray]:
    """prod_j a(lam - mu_j) and prod_j b(lam - mu_j), the eigenvalues of
    A(lam) and D(lam) on the vacuum, at every rapidity of ``lams``; the
    products run over the last axis, as a one-point product would."""
    shifted = np.asarray(lams, dtype=complex)[..., None] - np.asarray(cfg.mu, dtype=complex)
    return (np.multiply.reduce(weight_a(shifted, cfg.gamma), axis=-1),
            np.multiply.reduce(weight_b(shifted), axis=-1))


def fz_coefficients(lam0s, lam_rows, cfg: SpectralConfig) -> tuple[np.ndarray, np.ndarray]:
    """Coefficients J0, shape (N, P), and K_1..K_n, shape (N, P, n), of the
    relation

        J0 F_n(lams) - sum_i K_i F_n(lams with lams[i] -> lam0)
            = Lambda(lam0) F_n(lams)

    at every x0 rapidity lam0 of ``lam0s`` (N,) and every row lams of
    ``lam_rows`` (P, n).

    J0 multiplies the vacuum eigenvalue factors prod a(lam0 - mu_j) and
    prod b(lam0 - mu_j) by the exchange coefficients; each K_i does the same
    at the exchanged rapidity.  Every entry equals the one-point evaluation
    bit for bit (``stacked_product``).  Raises on coincident rapidities.
    """
    lam0s = np.asarray(lam0s, dtype=complex)
    rows = np.asarray(lam_rows, dtype=complex)
    ma0, md0, ma, md = exchange_m_factors(lam0s, rows, cfg.gamma)
    pa0, pb0 = vacuum_products(lam0s[:, None], cfg)
    pa, pb = vacuum_products(rows, cfg)
    return (stacked_product(pa0, ma0) + stacked_product(pb0, md0),
            stacked_product(pa, ma) + stacked_product(pb, md))


def check_fz_residual(sampler: FnSampler, draws) -> float:
    """Worst residual of the functional relation over ``draws``, each a
    sequence (lam0, lam_1, ..., lam_n), every residual normalised by its
    largest term.

    Every distinct rapidity of all the draws is built once, in one batched
    call capped at the eigenpair's sector: T(lam0) and B(lam0) come from one
    monodromy, and the swapped overlaps reuse the B(lams).
    """
    cfg, eig = sampler.cfg, sampler.eig
    draws = [[complex(l) for l in draw] for draw in draws]
    distinct = list(dict.fromkeys(l for draw in draws for l in draw))
    ops = dict(zip(distinct, monodromies(distinct, cfg, top=eig.sector)))
    local = FnSampler(cfg, eig, ChainTable(cfg, eig.sector, {lam: m.b for lam, m in ops.items()}))
    worst = 0.0
    for lam0, *lams in draws:
        j0, ks = fz_coefficients([lam0], [lams], cfg)
        j0, ks = complex(j0[0, 0]), [complex(k) for k in ks[0, 0]]
        f_here = local.value(lams)
        lam_val = eig.eigenvalue_from(ops[lam0].transfer())
        total = j0 * f_here - lam_val * f_here
        scale = max(abs(j0 * f_here), abs(lam_val * f_here))
        for i, k in enumerate(ks):
            swapped = list(lams)
            swapped[i] = lam0
            term = k * local.value(swapped)
            total -= term
            scale = max(scale, abs(term))
        worst = max(worst, float(abs(total) / max(scale, 1e-300)))
    return worst


# -- polynomial parts --------------------------------------------------------------

@dataclass(frozen=True)
class PolyFit:
    """An interpolated polynomial plus the diagnostics of its construction."""

    poly: MultiPoly
    grid_condition: float
    holdout_residual: float


def fit_grid(values: np.ndarray, x_grids, held_x, held_value: complex,
             condition: float | None = None) -> PolyFit:
    """Interpolate tensor-grid samples and validate the fit at one held-out
    point.

    ``values`` holds the samples on the grid spanned by the per-variable
    nodes ``x_grids``; ``held_value`` is the sampled function at ``held_x``.
    The holdout residual is |direct - fitted| / max(|direct|, max |coeff|),
    and the condition number is the largest per-axis Vandermonde one.  A
    caller that fits many functions on one grid passes that number as
    ``condition`` instead of having it recomputed.
    """
    poly = MultiPoly(tensor_interpolate(values, x_grids))
    fitted = poly.eval_many(np.asarray(held_x)[None, :])[0]
    holdout = abs(held_value - fitted) / max(abs(held_value), poly.max_abs(), 1e-300)
    if condition is None:
        condition = max(grid_condition(xg) for xg in x_grids)
    return PolyFit(poly, condition, float(holdout))


def _fbar_holdout_point(cfg: SpectralConfig, n: int) -> list[complex]:
    """The validation point of ``extract_fbar``; the same for every
    eigenpair of a sector."""
    rng = cfg.rng("fbar-holdout")
    return [random_complex(rng) for _ in range(n)]


def fbar_chains(cfg: SpectralConfig, n: int) -> ChainTable:
    """The chain table of sector n's overlap fits, with B(lambda) at the
    nodes and holdout point of ``extract_fbar`` built beforehand, each once.

    Every eigenpair of the sector samples the same chains, so the samplers
    of all of them take this one table instead of each rebuilding them.
    It lives as long as the caller keeps it.
    """
    nodes = [lam for grid in spectral_grids(cfg.L, n) for lam in grid]
    return ChainTable(cfg, n, b_table(cfg, nodes + _fbar_holdout_point(cfg, n), top=n))


def extract_fbar(sampler: FnSampler) -> PolyFit:
    """Polynomial part of F_n in the variables x_i = e^{2 lambda_i}.

    Samples the overlap on the tensor grid of ``spectral_grids`` (one node
    circle per variable, the x-nodes of Lbar), multiplies off the prefactor
    e^{(L-1) lambda_i} per variable, and interpolates at per-variable degree
    L-1.  A fresh random point validates the fit; its relative error is
    returned alongside the largest per-axis Vandermonde condition number.
    The chains, prefactors and condition number come from the sampler's
    chain table (``ChainTable.fit_samples``), in one pass, so a table shared
    by a sector computes them once; each eigenpair adds one
    ``left @ chain`` dot per sample.
    """
    cfg, eig = sampler.cfg, sampler.eig
    n = eig.sector
    if n == 0:
        val = complex(eig.left[0])
        return PolyFit(MultiPoly(np.array(val)), 1.0, 0.0)
    if sampler.chains.top != n:
        raise ValueError(f"a sector-{n} fit needs a sector-{n} chain table, "
                         f"got sector {sampler.chains.top}")
    samples = sampler.chains.fit_samples
    vals = [pre * complex(eig.left @ chain)
            for pre, chain in zip(samples.prefactors, samples.chains)]
    return fit_grid(np.array(vals[:-1]).reshape((cfg.L,) * n), samples.x_grids,
                    samples.held_x, vals[-1], samples.condition)


def lambda_bar_coefficients(eigs, cfg: SpectralConfig) -> np.ndarray:
    """Coefficients of Lambda_bar(x0) = Lambda(lam0) e^{L lam0} as a degree-L
    polynomial in x0 = e^{2 lam0}, one row per eigenpair of ``eigs``,
    interpolated on the x0 nodes of Lbar (``lbar_x0_nodes``).

    The transfer matrix at each node is built once, all nodes in one batched
    call capped at the highest sector of ``eigs``, and shared across all the
    requested eigenpairs.
    """
    nodes = lbar_x0_nodes(cfg)
    top = max((eig.sector for eig in eigs), default=0)
    values = np.zeros((len(eigs), len(nodes)), dtype=complex)
    for j, (lam0, m) in enumerate(zip(nodes, monodromies(nodes, cfg, top))):
        t = m.transfer()
        for i, eig in enumerate(eigs):
            values[i, j] = eig.eigenvalue_from(t) * np.exp(cfg.L * lam0)
    return tensor_interpolate(values, [np.exp(2 * nodes)])
