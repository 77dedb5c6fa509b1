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
|0>, and the chain does not depend on the eigenpair; the domain-wall
partition function is the same overlap in sector L, against the one
all-down state (``dwbc``).  ``grid_chains`` builds the chains at every point
of a tensor grid, one axis at a time from the last, so each grid suffix is
one matrix-vector product, computed once.  ``fit_overlaps`` samples every
left vector on those chains in one stacked product of dots (``_dots``) and
interpolates all of them in one ``polyengine.fit_grid`` call, which also
validates each at a held-out point and computes the grid's condition number
once.  The overlap fits of a sector, Zbar and Zbar's degree refit are each
such a call.

Batched coefficients.  ``fz_coefficients`` evaluates the relation's
coefficients for a whole batch in one call, with the vacuum products
vectorised over the inhomogeneities.  The x0 rapidities broadcast against
the leading axes of the rapidity rows, so one code path serves two forms:
the outer form ``lam0s[:, None]`` against P rows, every x0 node at every
grid point, for the Lbar action of ``omega``; and the paired form ``lam0s``
against as many rows, one draw (lam0, row) per entry, for
``check_fz_residual``.  Every entry equals the one-point value bit for bit:
numpy's vectorised complex ``*`` can differ from its scalar ``*`` in the
last bit, so every product is a multiply-reduce over a last axis
(``ybcore.stacked_product``), which rounds as the scalar does.

Sector-wide reads.  A sector's eigenpairs are one ``SectorEigenpairs``,
the left and right eigenvectors stacked as rows, from ``spectrum`` through
every check.  The functional relation is checked on one draw set per
sector, shared by its eigenpairs, so its rapidities are built and its
chains formed once.  Every per-eigenpair read of a sector -- an overlap with
a chain, and Lambda(lam0) = <left| T |right> / <left|right> -- is one
stacked ``np.matmul`` whose elements are the dot and vector-matrix products
one eigenpair would take (``_dots``, ``SectorEigenpairs.eigenvalues``), so
each equals its one-eigenpair value bit for bit; a matrix product would sum
in another order.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from functools import reduce

import numpy as np

from . import blockbuild
from .config import SpectralConfig, random_complex
from .polyengine import GridFit, fit_grid
from .ybcore import (
    SectorEigenpairs,
    exchange_m_factors,
    monodromies,
    monodromy,
    spectrum,
    stacked_product,
    weight_a,
    weight_b,
)

__all__ = [
    "FnSampler",
    "SectorEigenpairs",
    "annulus_points",
    "b_table",
    "check_fz_residual",
    "circle_grid",
    "extract_fbar",
    "extract_fbars",
    "fit_overlaps",
    "fz_coefficients",
    "grid_chains",
    "lambda_bar_coefficients",
    "lbar_x0_nodes",
    "overlap_samples",
    "spectral_grids",
    "spectrum",
    "vacuum_products",
    "vanishing",
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
    rapidity, all built in one batched call of A and B alone, each once."""
    distinct = list(dict.fromkeys(complex(l) for l in lams))
    return {lam: m.b for lam, m in zip(distinct, monodromies(distinct, cfg, top, ops="b"))}


def grid_chains(axes) -> np.ndarray:
    """The chains B(l_1) ... B(l_m) |0> at every point of a tensor grid, one
    row per point in ``grid_points`` order; ``axes[i]`` holds the sector
    blocks of B at each node of axis i.  Built one axis at a time from the
    last, so each suffix B(l_i) ... B(l_m) |0> of the grid is one
    matrix-vector product, computed once into its row of a level array.
    With no axes the one chain is the vacuum, the one state of sector 0.
    """
    level = np.ones((1, 1), dtype=complex)
    for k, nodes in enumerate(reversed(axes)):
        below = level
        level = np.empty((len(nodes) * len(below), nodes[0][k].shape[0]), dtype=complex)
        for i, b in enumerate(nodes):
            for j, suffix in enumerate(below):
                np.matmul(b[k], suffix, out=level[i * len(below) + j])
    return level


@dataclass
class FnSampler:
    """Evaluates F_n for one left eigenvector ``left`` of sector ``sector``
    as <Lambda| times a B-chain, one point at a time.  The pipeline samples
    F_n through ``fit_overlaps`` and ``check_fz_residual``; this evaluator
    serves the tests and the benchmark's tracer.

    ``b_ops`` holds the sector blocks of B(lambda) built beforehand, keyed
    by rapidity (``b_table``); a rapidity missing from it is built afresh
    at each use, up to the sector, and not kept, so one-off draws never
    accumulate.
    """

    cfg: SpectralConfig
    sector: int
    left: np.ndarray
    b_ops: dict = field(default_factory=dict, repr=False)

    def value(self, lams) -> complex:
        """F_n at the given rapidities.

        The overlap vanishes identically unless the eigenvector sits in the
        sector matching the number of B-factors; a mismatch is reported with
        a warning rather than silently returning the zero function.
        """
        lams = [complex(l) for l in lams]
        if len(lams) != self.sector:
            warnings.warn(
                f"{len(lams)} B-factors against a sector-{self.sector} "
                "eigenvector: the overlap is identically zero",
                stacklevel=2,
            )
            return 0.0
        axes = [[self.b_ops.get(lam) or monodromy(lam, self.cfg, self.sector, ops="b").b]
                for lam in lams]
        return complex(self.left @ grid_chains(axes)[0])


# -- the linear functional relation ----------------------------------------------

def vacuum_products(lams, cfg: SpectralConfig) -> tuple[np.ndarray, np.ndarray]:
    """prod_j a(lam - mu_j) and prod_j b(lam - mu_j), the eigenvalues of
    A(lam) and D(lam) on the vacuum, at every rapidity of ``lams``; the
    products run over the last axis, as a one-point product would."""
    shifted = np.asarray(lams, dtype=complex)[..., None] - np.asarray(cfg.mu, dtype=complex)
    return (np.multiply.reduce(weight_a(shifted, cfg.gamma), axis=-1),
            np.multiply.reduce(weight_b(shifted), axis=-1))


def fz_coefficients(lam0s, lam_rows, cfg: SpectralConfig) -> tuple[np.ndarray, np.ndarray]:
    """Coefficients J0 and K_1..K_n of the relation

        J0 F_n(lams) - sum_i K_i F_n(lams with lams[i] -> lam0)
            = Lambda(lam0) F_n(lams)

    at every x0 rapidity lam0 of ``lam0s`` and every row lams of
    ``lam_rows`` (shape (..., n)), broadcast as in
    ``ybcore.exchange_m_factors``: ``lam0s[:, None]`` (N, 1) against rows
    (P, n) gives J0 of shape (N, P) and the K_i of shape (N, P, n), and
    ``lam0s`` (P,) against rows (P, n) pairs them, J0 (P,) and K (P, n).

    J0 multiplies the vacuum eigenvalue factors prod a(lam0 - mu_j) and
    prod b(lam0 - mu_j) by the exchange coefficients; each K_i does the same
    at the exchanged rapidity.  Every entry equals the one-point evaluation
    bit for bit (``stacked_product``).  Raises on coincident rapidities.
    """
    lam0s = np.asarray(lam0s, dtype=complex)
    rows = np.asarray(lam_rows, dtype=complex)
    ma0, md0, ma, md = exchange_m_factors(lam0s, rows, cfg.gamma)
    pa0, pb0 = vacuum_products(lam0s, cfg)
    pa, pb = vacuum_products(rows, cfg)
    return (stacked_product(pa0, ma0) + stacked_product(pb0, md0),
            stacked_product(pa, ma) + stacked_product(pb, md))


def check_fz_residual(eigs: SectorEigenpairs, draws) -> np.ndarray:
    """Worst residual of the functional relation of each eigenpair of
    ``eigs`` over the draws ``draws`` that all of them share, each a
    sequence (lam0, lam_1, ..., lam_n).  The residual of one draw is
    |J0 F - Lambda(lam0) F - sum_i K_i F_i| over the largest modulus among
    J0 F, Lambda(lam0) F and the K_i F_i, F_i the overlap with
    lam_i -> lam0.  Shape (len(eigs),).

    The draws are built once for the whole sector, whatever its eigenpair
    count: every distinct lam0 with A, B and D in one call, which gives
    T(lam0) and the B(lam0) of the swapped overlaps, and every other
    distinct rapidity with B alone in another, both capped at the sector;
    the blocks equal those of one full build bit for bit (``blockbuild``).
    One paired ``fz_coefficients`` call gives the coefficients of every
    draw and raises on the first coincident pair, in draw order.  Each draw
    forms its n+1 chains once, each the one row of a one-node
    ``grid_chains``; every eigenpair's overlaps with them (``_dots``) and
    Lambda(lam0) (``SectorEigenpairs.eigenvalues``) are stacked products,
    and each residual is assembled in scalar arithmetic, so it equals a
    one-eigenpair call bit for bit, whatever the order of the eigenpairs.
    """
    draws = [[complex(l) for l in draw] for draw in draws]
    cfg, n = eigs.cfg, eigs.sector
    rows = np.array(draws, dtype=complex).reshape(len(draws), n + 1)
    j0s, kss = fz_coefficients(rows[:, 0], rows[:, 1:], cfg)
    lam0s = list(dict.fromkeys(rows[:, 0].tolist()))
    # T(lam0) on the sector and B(lam0) are kept, and the batch's A and D
    # released before the B build
    full = {lam0: (m.transfer()[n], m.b)
            for lam0, m in zip(lam0s, monodromies(lam0s, cfg, top=n, ops="abd"))}
    b_ops = {lam0: b for lam0, (_, b) in full.items()}
    rest = [lam for lam in dict.fromkeys(rows[:, 1:].ravel().tolist()) if lam not in b_ops]
    b_ops.update((lam, m.b) for lam, m in zip(rest, monodromies(rest, cfg, top=n, ops="b")))
    worst = np.zeros(len(eigs))
    for (lam0, *lams), j0, ks in zip(rows.tolist(), j0s.tolist(), kss.tolist()):
        chains = np.concatenate([grid_chains([[b_ops[l]] for l in row]) for row in
                                 [lams] + [lams[:i] + [lam0] + lams[i + 1:] for i in range(n)]])
        overlaps = _dots(eigs.lefts, chains).tolist()
        lam_vals = eigs.eigenvalues(full[lam0][0]).tolist()
        for e, ((f_here, *swapped), lam_val) in enumerate(zip(overlaps, lam_vals)):
            total = j0 * f_here - lam_val * f_here
            scale = max(abs(j0 * f_here), abs(lam_val * f_here))
            for k_i, f_i in zip(ks, swapped):
                term = k_i * f_i
                total -= term
                scale = max(scale, abs(term))
            worst[e] = max(worst[e], float(abs(total) / max(scale, 1e-300)))
    return worst


def _dots(lefts, vectors) -> np.ndarray:
    """<left|vector> for every row of ``lefts`` against every row of
    ``vectors``, shape (len(lefts), len(vectors)): one dot product each,
    stacked, so each equals ``left @ vector`` bit for bit (a matrix
    product sums in another order)."""
    return np.matmul(lefts[:, None, None, :], vectors[None, :, :, None])[:, :, 0, 0]


# -- polynomial parts --------------------------------------------------------------

def overlap_samples(lefts, b_ops, lam_grids, L: int) -> np.ndarray:
    """prod_i e^{(L-1) lam_i} <left| B(lam_1) ... B(lam_m) |0> for every
    vector of ``lefts`` at every point of the tensor grid of ``lam_grids``,
    shape (len(lefts),) + grid shape; ``b_ops`` maps every node to its B
    blocks.  The vectors go in ``blockbuild.chunks`` of their temporaries,
    each chunk's overlaps one stacked product of dots (``_dots``).  The
    exponents are summed in the order one point's sum takes and multiplied
    in by ``stacked_product``, so every sample equals its one-point
    evaluation bit for bit.
    """
    chains = grid_chains([[b_ops[complex(lam)] for lam in grid] for grid in lam_grids])
    total = reduce(np.add.outer, lam_grids, np.zeros((), dtype=complex))
    prefactors = np.exp((L - 1) * total).ravel()
    lefts = np.asarray(lefts)
    values = np.empty((len(lefts), len(chains)), dtype=complex)
    # a chunk's dots, the stacked operands of their products, and the products
    for rows in blockbuild.chunks(len(lefts), 4 * len(chains)):
        values[rows] = stacked_product(prefactors, _dots(lefts[rows], chains))
    return values.reshape((len(lefts),) + total.shape)


def fit_overlaps(L: int, lefts, b_ops, lam_grids, held) -> GridFit:
    """Polynomial part of <left| B(lam_1) ... B(lam_m) |0> in the x_i =
    e^{2 lam_i}, one entry per vector of ``lefts``: ``overlap_samples`` on
    the grid of ``lam_grids`` and at the rapidities ``held``, fitted in one
    ``fit_grid`` call.  ``b_ops`` holds B at every node and held rapidity.
    """
    values = overlap_samples(lefts, b_ops, lam_grids, L)
    held_values = overlap_samples(lefts, b_ops, [[lam] for lam in held], L).reshape(len(lefts))
    return fit_grid(values, [np.exp(2 * grid) for grid in lam_grids],
                    np.exp(2 * np.array(held)), held_values)


def extract_fbars(cfg: SpectralConfig, n: int, lefts) -> GridFit:
    """Polynomial part of F_n, one entry per sector-n left eigenvector of
    ``lefts``: ``fit_overlaps`` on the grid of ``spectral_grids`` (the
    x-nodes of Lbar), at per-variable degree L-1, validated at one random
    point.  B is built at each node and at that point in one batched call
    capped at sector n.
    """
    grids = spectral_grids(cfg.L, n)
    rng = cfg.rng("fbar-holdout")
    held = random_complex(rng, (n,)).tolist()
    b_ops = b_table(cfg, [lam for grid in grids for lam in grid] + held, top=n)
    return fit_overlaps(cfg.L, lefts, b_ops, grids, held)


def extract_fbar(sampler: FnSampler) -> GridFit:
    """``extract_fbars`` for the sampler's eigenvector alone, a batch of one."""
    return extract_fbars(sampler.cfg, sampler.sector, [sampler.left])


def vanishing(fits: GridFit) -> np.ndarray:
    """Which overlap fits are the zero polynomial, all coefficients below
    1e-12 in modulus: the eigenpairs the Omega and PDE checks skip."""
    return np.max(np.abs(fits.coeffs), axis=tuple(range(1, fits.coeffs.ndim))) < 1e-12


def lambda_bar_coefficients(eigs: SectorEigenpairs, cfg: SpectralConfig) -> GridFit:
    """Lambda_bar(x0) = Lambda(lam0) e^{L lam0} as a degree-L polynomial in
    x0 = e^{2 lam0}, one entry per eigenpair of ``eigs``, fitted on the x0
    nodes of Lbar (``lbar_x0_nodes``) and validated at one random x0.  The
    transfer matrices there come from one batched call of A and D, capped
    at the sector; at each x0 every eigenvalue comes from one stacked
    ``SectorEigenpairs.eigenvalues`` product and is multiplied by
    e^{L lam0} through ``stacked_product``, so each sample equals its
    one-eigenpair value bit for bit.  The samples are formed in one
    comprehension, so no monodromy block is still held when the fit runs."""
    nodes = lbar_x0_nodes(cfg)
    held = random_complex(cfg.rng("lambda-bar-holdout"))
    lam0s = np.append(nodes, held)
    values = np.stack([stacked_product(eigs.eigenvalues(m.transfer()[eigs.sector]),
                                       np.exp(cfg.L * lam0))
                       for lam0, m in zip(lam0s, monodromies(lam0s, cfg, eigs.sector, ops="ad"))],
                      axis=1)
    return fit_grid(values[:, :-1], [np.exp(2 * nodes)], [np.exp(2 * held)], values[:, -1])
