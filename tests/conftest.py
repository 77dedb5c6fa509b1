import numpy as np
import pytest

from bpl.config import SpectralConfig

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
