import numpy as np
import pytest

from bpl.config import SINGULARITY_GUARD, SpectralConfig
from bpl.errors import CoincidentRapiditiesError
from bpl.ybcore import weight_a, weight_b, weight_c

#: the 4x4 swap P of two C^2 factors
SWAP = np.eye(4)[[0, 2, 1, 3]]


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
