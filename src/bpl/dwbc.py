"""Domain-wall boundary conditions: the partition function, two independent
oracles for it, and the homogeneous PDE that annihilates its polynomial part.

The partition function on an L x L lattice with domain-wall boundaries is the
all-down component of L stacked B-operators on the all-up state.  Its
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
from itertools import product as iproduct
from math import factorial

import numpy as np

from .config import SpectralConfig, random_complex
from .errors import CapacityError, CoincidentRapiditiesError
from .functional import PolyFit, circle_grid, fit_grid
from .polyengine import MultiPoly, PdeSpec, tensor_interpolate
from .reduction import upsilon_residual
from .ybcore import monodromy, weight_a, weight_b, weight_c

#: dense-oracle cap for the partition function itself
MAX_PARTITION_L = 6

#: explicit-enumeration cap for the configuration-sum oracle
MAX_ENUMERATION_L = 4


def abar(x: complex, y: complex, q: complex) -> complex:
    return x * q - y / q


def bbar(x: complex, y: complex) -> complex:
    return x - y


# -- partition function oracles ---------------------------------------------------

def _check_partition_capacity(cfg: SpectralConfig):
    if cfg.L > MAX_PARTITION_L:
        raise CapacityError(
            f"dense partition oracle capped at L = {MAX_PARTITION_L}, got {cfg.L}"
        )


def _corner(b_ops) -> complex:
    """<all-down| B_1 ... B_L |all-up> from the B blocks in rapidity order."""
    v = np.zeros(b_ops[0].shape[0], dtype=complex)
    v[0] = 1.0
    for b in reversed(b_ops):
        v = b @ v
    return complex(v[-1])


def dwbc_partition(lams, cfg: SpectralConfig) -> complex:
    """<all-down| B(lambda_1) ... B(lambda_L) |all-up> via dense B-products."""
    lams = list(lams)
    if len(lams) != cfg.L:
        raise ValueError(f"need exactly L = {cfg.L} rapidities, got {len(lams)}")
    _check_partition_capacity(cfg)
    return _corner([monodromy(lam, cfg).b.entries for lam in lams])


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
    """Extracted polynomial part of the partition function with diagnostics."""

    cfg: SpectralConfig
    zbar: MultiPoly
    fit: PolyFit
    symmetry_defect: float
    top_coefficient: float


def _zbar_grids(cfg: SpectralConfig) -> list[np.ndarray]:
    return [circle_grid(cfg.L, slot=i, nslots=cfg.L) for i in range(cfg.L)]


def extract_zbar(cfg: SpectralConfig) -> DwbcInstance:
    """Interpolate Zbar on per-variable node circles and validate the fit.

    The held-out residual checks interpolation exactness, the symmetry
    defect compares coefficients across variable swaps, and the top
    coefficient certifies the per-variable degree bound L-1 (fitting with one
    extra node per axis would put mass there otherwise).

    B is built once at each interpolation node; every sample on both grids
    reads those blocks, which are dropped when the function returns.
    """
    L = cfg.L
    _check_partition_capacity(cfg)
    grids = _zbar_grids(cfg)
    extra = circle_grid(L + 1, slot=L, nslots=L + 1)
    b_grids = [[monodromy(lam, cfg).b.entries for lam in g] for g in grids]
    b_extra = [monodromy(lam, cfg).b.entries for lam in extra]
    x_grids = [np.exp(2 * g) for g in grids]
    vals = np.zeros((L,) * L, dtype=complex)
    for tup in iproduct(range(L), repeat=L):
        lams = [grids[i][tup[i]] for i in range(L)]
        vals[tup] = np.exp((L - 1) * sum(lams)) * _corner([b_grids[i][tup[i]] for i in range(L)])
    rng = cfg.rng("zbar-holdout")
    test = [random_complex(rng) for _ in range(L)]
    direct = np.exp((L - 1) * sum(test)) * dwbc_partition(test, cfg)
    fit = fit_grid(vals, x_grids, np.exp(2 * np.array(test)), direct)
    poly = fit.poly

    sym_defect = 0.0
    scale = max(poly.max_abs(), 1e-300)
    for i in range(L - 1):
        swapped = np.swapaxes(poly.coeffs, i, i + 1)
        sym_defect = max(sym_defect, float(np.max(np.abs(swapped - poly.coeffs)) / scale))

    # degree certification: refit axis 0 with one extra node
    vals_ext = np.zeros((L + 1,) + (L,) * (L - 1), dtype=complex)
    for tup in iproduct(range(L + 1), *[range(L)] * (L - 1)):
        lams = [extra[tup[0]]] + [grids[i][tup[i]] for i in range(1, L)]
        b_ops = [b_extra[tup[0]]] + [b_grids[i][tup[i]] for i in range(1, L)]
        vals_ext[tup] = np.exp((L - 1) * sum(lams)) * _corner(b_ops)
    ext_coeffs = tensor_interpolate(vals_ext, [np.exp(2 * extra)] + x_grids[1:])
    top = float(np.max(np.abs(ext_coeffs[L])) / scale)
    return DwbcInstance(cfg, poly, fit, sym_defect, top)


# -- the homogeneous PDE --------------------------------------------------------------

def dwbc_potential(xs, cfg: SpectralConfig) -> complex:
    """sum_i abar(x_i, y_i)."""
    q, ys = cfg.q, cfg.ys
    return complex(sum(abar(x, y, q) for x, y in zip(xs, ys)))


def dwbc_derivative_coeff(i: int, xs, cfg: SpectralConfig) -> complex:
    """-1/(L-1)! prod_j abar(x_i, y_j) prod_{j != i} abar(x_j, x_i)/bbar(x_j, x_i)."""
    q, ys, L = cfg.q, cfg.ys, cfg.L
    xs = [complex(x) for x in xs]
    out = -1.0 / factorial(L - 1)
    for y in ys:
        out *= abar(xs[i], y, q)
    for j in range(L):
        if j == i:
            continue
        diff = bbar(xs[j], xs[i])
        if abs(diff) < 1e-7:
            raise CoincidentRapiditiesError((xs[j], xs[i]), abs(diff))
        out *= abar(xs[j], xs[i], q) / diff
    return complex(out)


def _annulus_points(cfg: SpectralConfig, tag: str, count: int) -> list[np.ndarray]:
    """Random x-tuples with coordinate i on its own thin annulus, so every
    pair of coordinates stays separated."""
    rng = cfg.rng(tag)
    L = cfg.L
    return [
        np.array(
            [
                np.exp(0.4 * (i / L - 0.5) + 0.05 * rng.uniform(-1, 1) + 1j * rng.uniform(0, 2 * np.pi))
                for i in range(L)
            ]
        )
        for _ in range(count)
    ]


def dwbc_pde_residual(
    cfg: SpectralConfig, instance: DwbcInstance | None = None, npoints: int = 10
) -> float:
    """Normalised residual of the homogeneous equation on the extracted Zbar.

    The equation is linear and homogeneous, so the overall normalisation of
    Zbar drops out of the figure reported.
    """
    if instance is None:
        instance = extract_zbar(cfg)
    points = _annulus_points(cfg, "dwbc-points", npoints)
    return dwbc_upsilon(cfg).residual(instance.zbar, 0.0, points)


def dwbc_upsilon(cfg: SpectralConfig) -> PdeSpec:
    """The domain-wall PDE, whose first-order reduction is Upsilon_DW.

    Same block layout as the spectral reduction under the replacements
    eigenvalue -> 0, potential -> sum_i abar(x_i, y_i), derivative
    coefficients -> the domain-wall ones, and n -> L; the block vector has
    dimension L(L-2) + 1.
    """
    return PdeSpec(
        length=cfg.L,
        nvars=cfg.L,
        potential=lambda xs: dwbc_potential(xs, cfg),
        derivative_coeff=lambda i, xs: dwbc_derivative_coeff(i, xs, cfg),
    )


def dwbc_upsilon_residual(
    cfg: SpectralConfig, instance: DwbcInstance | None = None, npoints: int = 5
) -> float:
    """Max residual of Upsilon_DW applied to the chain built from Zbar."""
    if instance is None:
        instance = extract_zbar(cfg)
    system = dwbc_upsilon(cfg)
    worst = 0.0
    for xs in _annulus_points(cfg, "dwbc-upsilon-points", npoints):
        worst = max(worst, upsilon_residual(system, instance.zbar, 0.0, xs))
    return float(worst)
