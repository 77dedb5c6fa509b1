import dataclasses
from functools import cache
from math import comb

import numpy as np
import pytest

from bpl.blockbuild import _SHIFTS, _SITE_TERMS, _ascending_orders
from bpl.config import SINGULARITY_GUARD, SpectralConfig, random_complex
from bpl.errors import CoincidentRapiditiesError
from bpl.functional import FnSampler, b_table, circle_grid, spectral_grids
from bpl.polyengine import MultiPoly, grid_condition, grid_points, tensor_interpolate
from bpl.ybcore import max_abs, monodromies, transfer, weight_a, weight_b, weight_c

#: the 4x4 swap P of two C^2 factors
SWAP = np.eye(4)[[0, 2, 1, 3]]


def bits(values) -> list[tuple[str, str]]:
    """The exact bits of every complex value, signed zeros included."""
    return [(complex(v).real.hex(), complex(v).imag.hex()) for v in np.ravel(values)]


def draw_complex(rng, shape=()):
    z = rng.uniform(-1.0, 1.0, shape) + 1j * rng.uniform(-0.5, 0.5, shape)
    return complex(z) if shape == () else z


def dense_operator(blocks, shift):
    """The 2^L x 2^L operator whose sector blocks (source sector k to
    k + shift, basis states of each sector in ascending order) are
    ``blocks``."""
    L = len(blocks) - 1
    states = lambda k: [i for i in range(2**L) if bin(i).count("1") == k]
    out = np.zeros((2**L, 2**L), dtype=complex)
    for k, blk in enumerate(blocks):
        if blk.size:
            out[np.ix_(states(k + shift), states(k))] = blk
    return out


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


@pytest.fixture
def cfg3():
    return SpectralConfig.random_instance(3, 2, seed=11)


@pytest.fixture
def cfg2():
    return SpectralConfig.random_instance(2, 1, seed=7)


# -- one-eigenpair reads, kept as the reference ------------------------------------

def eigenpair_rows(eigs, rows):
    """The eigenpairs ``rows`` (an index list or slice) of ``eigs`` alone."""
    return dataclasses.replace(eigs, lefts=eigs.lefts[rows], rights=eigs.rights[rows])


def reference_eigenvalue(left, right, blk) -> complex:
    """Lambda = <left| T |right> / <left|right> of one eigenpair against
    the sector block ``blk`` of T: one vector-matrix product, one dot
    product and one division."""
    return complex((left @ blk @ right) / (left @ right))


def reference_eigen_residuals(eigs, e, t, norm=None):
    """Right and left eigen-residuals (2-norms) of eigenpair ``e`` of
    ``eigs`` alone against a prebuilt transfer matrix, relative to its
    max-norm over all sectors (``norm``, recomputed if not given): the
    one-eigenpair reference of ``SectorEigenpairs.residuals``."""
    left, right, blk = eigs.lefts[e], eigs.rights[e], t[eigs.sector]
    val = reference_eigenvalue(left, right, blk)
    r = np.linalg.norm(blk @ right - val * right)
    l = np.linalg.norm(left @ blk - val * left)
    scale = max(max_abs(t) if norm is None else norm, 1e-300)
    return float(r / scale), float(l / scale)


# -- the one-point exchange coefficients, kept as the reference ------------------

def scalar_exchange_m_factors(lam0, lams, gamma):
    """(MA0, MD0, [MA_i], [MD_i]) at one lam0 and one rapidity list, one
    scalar at a time; raises on the first pair of [lam0] + lams closer than
    the guard."""
    lams = list(lams)
    vals = [lam0] + lams
    for i in range(len(vals)):
        for j in range(i + 1, len(vals)):
            sep = abs(np.sinh(vals[i] - vals[j]))
            if sep < SINGULARITY_GUARD:
                raise CoincidentRapiditiesError((vals[i], vals[j]), sep)
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


def scalar_fz_coefficients(lam0, lams, cfg):
    """(J0, [K_i]) of the functional relation at one lam0 and one rapidity
    list, one scalar at a time."""

    def products(lam):
        return (np.prod([weight_a(lam - m, cfg.gamma) for m in cfg.mu]),
                np.prod([weight_b(lam - m) for m in cfg.mu]))

    ma0, md0, ma, md = scalar_exchange_m_factors(lam0, lams, cfg.gamma)
    pa0, pb0 = products(lam0)
    ks = []
    for i, lam in enumerate(lams):
        pal, pbl = products(lam)
        ks.append(complex(pal * ma[i] + pbl * md[i]))
    return complex(pa0 * ma0 + pb0 * md0), ks


def reference_fz_residual(eigs, e, draws):
    """The functional relation's worst residual for eigenpair ``e`` of
    ``eigs`` alone, one draw at a time: scalar coefficients, every overlap a
    ``FnSampler`` value on B blocks of its own build, and Lambda(lam0) from
    its own transfer matrix."""
    cfg, left, right = eigs.cfg, eigs.lefts[e], eigs.rights[e]
    sampler = FnSampler(cfg, eigs.sector, left)
    worst = 0.0
    for lam0, *lams in draws:
        j0, ks = scalar_fz_coefficients(lam0, lams, cfg)
        f_here = sampler.value(lams)
        lam_val = reference_eigenvalue(left, right, transfer(lam0, cfg)[eigs.sector])
        total = j0 * f_here - lam_val * f_here
        scale = max(abs(j0 * f_here), abs(lam_val * f_here))
        for i, k in enumerate(ks):
            term = k * sampler.value(lams[:i] + [lam0] + lams[i + 1:])
            total -= term
            scale = max(scale, abs(term))
        worst = max(worst, float(abs(total) / max(scale, 1e-300)))
    return worst


# -- the gather, multiply and scatter build, kept as the reference ---------------

@cache
def reference_plan(L, top):
    """The sector-block recursion on L sites capped at ``top``, compiled to
    per-weight source and destination index arrays: per site a tuple of
    writes (src, dst, size), and per operator the (slice, shape) of each
    block in its final buffer."""
    orders = _ascending_orders(L)
    empty = np.zeros((0, 1), dtype=np.int32)
    old = [[np.array([[0]], dtype=np.int32)], [empty], [empty], [np.array([[1]], dtype=np.int32)]]
    cat = lambda parts: tuple(np.concatenate([np.zeros(0, dtype=np.int32), *p]).astype(np.int32)
                              for p in parts)
    steps = []
    for sites in range(L):
        last = sites == L - 1
        dim = lambda k: comb(sites, k) if k >= 0 else 0
        new, writes, layout, start = [], [], [], 0
        src, dst = ([], [], []), ([], [], [])
        for shift, terms in zip(_SHIFTS, _SITE_TERMS):
            blocks, offsets = [], []
            for k in range(min(sites + 1, top) + 1):
                rows = (dim(k + shift), dim(k + shift - 1)) if k + shift <= top else (0, 0)
                cols = (dim(k), dim(k - 1))
                pos = np.arange(start, start + sum(rows) * sum(cols)).reshape(sum(rows), sum(cols))
                offsets.append((slice(start, start + pos.size), pos.shape))
                start += pos.size
                if last and pos.size:
                    pos_built = np.empty_like(pos)
                    pos_built[np.ix_(orders[k + shift], orders[k])] = pos
                    pos = pos_built
                for s, t, old_op, name in terms:
                    view = pos[rows[0] * s : rows[0] + rows[1] * s, cols[0] * t : cols[0] + cols[1] * t]
                    if view.size:
                        w = "abc".index(name)
                        src[w].append(old[old_op][k - t].ravel())
                        dst[w].append(view.ravel())
                blocks.append(pos)
            new.append(blocks)
            if last:
                writes.append((cat(src), cat(dst), start))
                layout.append(tuple(offsets))
                src, dst, start = ([], [], []), ([], [], []), 0
        if not last:
            writes.append((cat(src), cat(dst), start))
        steps.append(tuple(writes))
        old = new
    return tuple(steps), tuple(layout)


def reference_build(lams, cfg, top):
    """The monodromy blocks at each of ``lams`` as (a, b, c, d) tuples of
    sector blocks, every write a zeroed buffer filled with one gather,
    multiply and scatter per weight."""
    steps, layout = reference_plan(cfg.L, top)
    x = np.array(lams, dtype=complex)[:, None] - np.array(cfg.mu, dtype=complex)
    wa, wb, c = weight_a(x, cfg.gamma), weight_b(x), weight_c(cfg.gamma)
    flat = np.ones((len(x), 2), dtype=complex)
    for j, writes in enumerate(steps):
        weights = (wa[:, j, None], wb[:, j, None], c)
        bufs = []
        for src, dst, size in writes:
            buf = np.zeros((len(x), size), dtype=complex)
            for s, d, w in zip(src, dst, weights):
                buf[:, d] = flat[:, s] * w
            bufs.append(buf)
        flat = bufs[0]
    return [
        tuple(tuple(buf[i, span].reshape(shape) for span, shape in offsets)
              for buf, offsets in zip(bufs, layout))
        for i in range(len(x))
    ]


# -- the per-point B-chains and per-eigenpair fits, kept as the reference --------

def reference_chain(b_ops, lams):
    """B(lams[0]) ... B(lams[-1]) |0>, one matrix-vector product per factor
    from the vacuum up, as the per-point chain computes it; ``b_ops`` maps
    each rapidity to its sector blocks of B."""
    v = np.ones(1, dtype=complex)
    for k, lam in enumerate(reversed(lams)):
        v = b_ops[complex(lam)][k] @ v
    return v


def reference_fit(values, x_grids, held_x, held_value):
    """(coefficients, condition, holdout) of one function's tensor-grid fit,
    interpolated on its own."""
    poly = MultiPoly(tensor_interpolate(values, x_grids))
    fitted = poly.eval_many(np.asarray(held_x)[None, :])[0]
    scale = float(np.max(np.abs(poly.coeffs)))
    holdout = abs(held_value - fitted) / max(abs(held_value), scale, 1e-300)
    return poly.coeffs, max(grid_condition(xg) for xg in x_grids), float(holdout)


def reference_fbar_fits(cfg, eigs):
    """(coefficients, condition, holdout) of each eigenpair's overlap fit,
    one eigenpair at a time, every sample a prefactor times one dot with a
    per-point chain; sector 0 is the constant <Lambda|0>."""
    n = eigs.sector
    if n == 0:
        return [(np.array(complex(left[0])), 1.0, 0.0) for left in eigs.lefts]
    grids = spectral_grids(cfg.L, n)
    rng = cfg.rng("fbar-holdout")
    held = [random_complex(rng) for _ in range(n)]
    b_ops = b_table(cfg, [lam for grid in grids for lam in grid] + held, top=n)
    points = list(grid_points(grids)) + [held]
    out = []
    for left in eigs.lefts:
        vals = [np.exp((cfg.L - 1) * sum(lams)) * complex(left @ reference_chain(b_ops, lams))
                for lams in points]
        out.append(reference_fit(np.array(vals[:-1]).reshape((cfg.L,) * n),
                                 [np.exp(2 * g) for g in grids], np.exp(2 * np.array(held)),
                                 vals[-1]))
    return out


def reference_zbar(cfg):
    """(coefficients, condition, holdout, symmetry defect, top coefficient)
    of Zbar, every sample the all-down entry of its own per-point chain and
    the holdout a separate monodromy build."""
    L = cfg.L
    grids = [circle_grid(L, slot=i, nslots=L) for i in range(L)]
    extra = circle_grid(L + 1, slot=L, nslots=L + 1)
    b_ops = b_table(cfg, np.concatenate(grids + [extra]), top=L)

    def sample(lam_grids):
        vals = [np.exp((L - 1) * sum(lams)) * complex(reference_chain(b_ops, lams)[0])
                for lams in grid_points(lam_grids)]
        return np.reshape(vals, [len(g) for g in lam_grids])

    x_grids = [np.exp(2 * g) for g in grids]
    rng = cfg.rng("zbar-holdout")
    test = [random_complex(rng) for _ in range(L)]
    own = {complex(lam): m.b for lam, m in zip(test, monodromies(test, cfg))}
    direct = np.exp((L - 1) * sum(test)) * complex(reference_chain(own, test)[0])
    coeffs, cond, holdout = reference_fit(sample(grids), x_grids, np.exp(2 * np.array(test)),
                                          direct)
    scale = max(float(np.max(np.abs(coeffs))), 1e-300)
    sym = 0.0
    for i in range(L - 1):
        sym = max(sym, float(np.max(np.abs(np.swapaxes(coeffs, i, i + 1) - coeffs)) / scale))
    ext = tensor_interpolate(sample([extra] + grids[1:]), [np.exp(2 * extra)] + x_grids[1:])
    return coeffs, cond, holdout, sym, float(np.max(np.abs(ext[L])) / scale)
