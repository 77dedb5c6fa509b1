"""Domain-wall boundary conditions: the partition function, two independent
oracles for it, and the homogeneous PDE that annihilates its polynomial part.

The partition function on an L x L lattice with domain-wall boundaries is the
all-down component of L stacked B-operators on the all-up state: the overlap
<all-down| B(lambda_1) ... B(lambda_L) |0> in sector L, whose one state is
all-down, so it is sampled and fitted as the overlaps F_n are
(``functional.fit_overlaps``, with the one left vector [1]).  Its
polynomial part Zbar (prefactor prod_i e^{(1-L) lambda_i} stripped) is
symmetric of per-variable degree <= L-1 and satisfies

    [ sum_i abar(x_i, y_i)
      - 1/(L-1)! sum_i prod_j abar(x_i, y_j)
          prod_{j != i} abar(x_j, x_i)/bbar(x_j, x_i) d^{L-1}/dx_i^{L-1} ] Zbar = 0

with abar(x, y) = x q - y / q and bbar(x, y) = x - y.  ``dwbc_upsilon``
states it as a ``polyengine.PdeSpec`` (Delta = 0), the description the
spectral PDE also uses; its residual and first-order reduction are the
shared ones.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import factorial

import numpy as np

from .config import SpectralConfig, random_complex
from .errors import CapacityError
from .functional import annulus_points, b_table, circle_grid, fit_overlaps, grid_chains
from .polyengine import GridFit, PdeSpec, pairwise_differences
from .reduction import upsilon_residual
from .ybcore import monodromies, weight_a, weight_b, weight_c

#: dense-oracle cap for the partition function itself
MAX_PARTITION_L = 6

#: explicit-enumeration cap for the configuration-sum oracle
MAX_ENUMERATION_L = 4


def abar(x: complex, y: complex, q: complex) -> complex:
    return x * q - y / q


# -- partition function oracles ---------------------------------------------------

def _check_partition_capacity(cfg: SpectralConfig):
    if cfg.L > MAX_PARTITION_L:
        raise CapacityError(
            f"dense partition oracle capped at L = {MAX_PARTITION_L}, got {cfg.L}"
        )


def dwbc_partition(lams, cfg: SpectralConfig) -> complex:
    """<all-down| B(lambda_1) ... B(lambda_L) |all-up> via B-products."""
    lams = list(lams)
    if len(lams) != cfg.L:
        raise ValueError(f"need exactly L = {cfg.L} rapidities, got {len(lams)}")
    _check_partition_capacity(cfg)
    return complex(grid_chains([[m.b] for m in monodromies(lams, cfg, ops="b")])[0, 0])


def dwbc_configuration_sum(lams, cfg: SpectralConfig) -> complex:
    """Partition function by explicit arrow-configuration enumeration.

    Walks the L x L vertex lattice row by row, assigning the four edge states
    of each vertex subject to the ice rule (vertical plus horizontal inflow
    equals outflow) and multiplying the local weights a, b, c read off the
    R-matrix.  Boundary arrows implement the domain wall: each row's
    horizontal line enters in the down state and leaves up, the bottom edge
    is all up and the top edge all down.  Independent of any matrix algebra.
    """
    lams = list(lams)
    if len(lams) != cfg.L:
        raise ValueError(f"need exactly L = {cfg.L} rapidities, got {len(lams)}")
    if cfg.L > MAX_ENUMERATION_L:
        raise CapacityError(
            f"configuration enumeration capped at L = {MAX_ENUMERATION_L}, got {cfg.L}"
        )
    L = cfg.L
    c_weight = weight_c(cfg.gamma)

    def row_transitions(lam: complex):
        """All (s_out bits, weight) reachable from a given s_in row state."""
        a_loc = [weight_a(lam - m, cfg.gamma) for m in cfg.mu]
        b_loc = [weight_b(lam - m) for m in cfg.mu]

        def walk(site, a_state, s_in, acc, weight, results):
            # horizontal line enters at the right boundary in state 1 and
            # must leave the left boundary (site index 0) in state 0
            if site == 0:
                if a_state == 0:
                    results.append((tuple(reversed(acc)), weight))
                return
            s = s_in[site - 1]
            for a_left in (0, 1):
                for s_out in (0, 1):
                    if a_left + s_out != a_state + s:
                        continue
                    if a_left == a_state and s_out == s:
                        w = a_loc[site - 1] if a_left == s else b_loc[site - 1]
                    elif a_left != a_state and s_out != s:
                        w = c_weight
                    else:
                        continue
                    walk(site - 1, a_left, s_in, acc + [s_out], weight * w, results)

        def transitions(s_in):
            results: list = []
            walk(L, 1, s_in, [], 1.0 + 0.0j, results)
            return results

        return transitions

    rows = [row_transitions(lam) for lam in reversed(lams)]  # bottom row first
    total = 0.0 + 0.0j

    def descend(r, state, weight):
        nonlocal total
        if r == len(rows):
            if all(b == 1 for b in state):
                total += weight
            return
        for nxt, w in rows[r](state):
            descend(r + 1, nxt, weight * w)

    descend(0, (0,) * L, 1.0 + 0.0j)
    return complex(total)


# -- polynomial part ----------------------------------------------------------------

@dataclass
class DwbcInstance:
    """Extracted polynomial part of the partition function, Zbar =
    ``fit.coeffs[0]``, with diagnostics."""

    cfg: SpectralConfig
    fit: GridFit
    symmetry_defect: float
    top_coefficient: float


#: the one state of sector L, all spins down, as the left vector of Zbar's overlap
_ALL_DOWN = np.ones(1, dtype=complex)


def extract_zbar(cfg: SpectralConfig) -> DwbcInstance:
    """Interpolate Zbar on per-variable node circles and validate the fit.

    The held-out residual checks interpolation exactness, the symmetry
    defect compares coefficients across variable swaps, and the top
    coefficient certifies the per-variable degree bound L-1: a second fit,
    with one extra node on axis 0, would put mass there otherwise.

    B is built once at each interpolation node and held-out rapidity, all
    in one batched call; both fits read those blocks, which are dropped
    when the function returns.
    """
    L = cfg.L
    _check_partition_capacity(cfg)
    grids = [circle_grid(L, slot=i, nslots=L) for i in range(L)]
    extra = circle_grid(L + 1, slot=L, nslots=L + 1)
    rng = cfg.rng("zbar-holdout")
    held = random_complex(rng, (L,)).tolist()
    b_ops = b_table(cfg, np.concatenate(grids + [extra, held]), top=L)
    fit = fit_overlaps(L, [_ALL_DOWN], b_ops, grids, held)
    zbar = fit.coeffs[0]

    sym_defect = 0.0
    scale = max(float(np.max(np.abs(zbar))), 1e-300)
    for i in range(L - 1):
        swapped = np.swapaxes(zbar, i, i + 1)
        sym_defect = max(sym_defect, float(np.max(np.abs(swapped - zbar)) / scale))

    ext = fit_overlaps(L, [_ALL_DOWN], b_ops, [extra] + grids[1:], held).coeffs[0]
    top = float(np.max(np.abs(ext[L])) / scale)
    return DwbcInstance(cfg, fit, sym_defect, top)


# -- the homogeneous PDE --------------------------------------------------------------

def dwbc_coefficients(cfg: SpectralConfig, xs) -> np.ndarray:
    """[V, Q_0, ..., Q_{L-1}] at every point of ``xs`` (shape (P, L)), shape
    (P, 1 + L): V = sum_i abar(x_i, y_i) and
    Q_i = -1/(L-1)! prod_j abar(x_i, y_j) prod_{j != i} abar(x_j, x_i)/bbar(x_j, x_i),
    with bbar(x_j, x_i) = x_j - x_i from ``polyengine.pairwise_differences``."""
    q, ys, L = cfg.q, cfg.ys, cfg.L
    xs = np.asarray(xs, dtype=complex)
    ratios = abar(xs[:, None, :], xs[:, :, None], q) / pairwise_differences(xs)
    diag = np.arange(L)
    ratios[:, diag, diag] = 1.0
    q_coeffs = (
        -np.prod(abar(xs[:, :, None], ys, q), axis=2) / factorial(L - 1) * np.prod(ratios, axis=2)
    )
    return np.column_stack([np.sum(abar(xs, ys, q), axis=1), q_coeffs])


def dwbc_pde_residual(instance: DwbcInstance) -> float:
    """Normalised residual of the homogeneous equation on the extracted Zbar,
    over 10 sample points.

    The equation is linear and homogeneous, so the overall normalisation of
    Zbar drops out of the figure reported.
    """
    cfg = instance.cfg
    points = annulus_points(cfg, cfg.L, 10, "dwbc-points")
    return float(np.max(dwbc_upsilon(cfg).residual(instance.fit.coeffs[0], 0.0, points)[0]))


def dwbc_upsilon(cfg: SpectralConfig) -> PdeSpec:
    """The domain-wall PDE, whose first-order reduction is Upsilon_DW.

    Same block layout as the spectral reduction under the replacements
    eigenvalue -> 0, potential -> sum_i abar(x_i, y_i), derivative
    coefficients -> the domain-wall ones, and n -> L; the block vector has
    dimension L(L-2) + 1.
    """
    return PdeSpec(cfg.L, cfg.L, lambda xs: dwbc_coefficients(cfg, xs))


def dwbc_upsilon_residual(instance: DwbcInstance) -> float:
    """Max residual of Upsilon_DW applied to the chain built from Zbar, over
    5 sample points: ``upsilon_residual`` on a batch of one."""
    cfg = instance.cfg
    points = annulus_points(cfg, cfg.L, 5, "dwbc-upsilon-points")
    return float(np.max(upsilon_residual(dwbc_upsilon(cfg), instance.fit.coeffs[:1], [0.0],
                                         points[None])[0]))
