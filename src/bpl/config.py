"""Problem-instance configuration for the six-vertex verification lab.

A :class:`SpectralConfig` pins the lattice length ``L``, excitation number
``n`` (number of down-spins created by B-operators), the anisotropy ``gamma``
(with ``q = e^gamma``), and the inhomogeneities ``mu_j`` (with
``y_j = e^{2 mu_j}``).  Multiplicative-variable prefactors such as
``x^{(1-L)/2}`` are always computed as ``e^{(1-L) lambda}`` directly from the
additive parameter; fractional powers of ``x`` never appear.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, field

import numpy as np

from .errors import CapacityError, ConfigError

#: hard ceiling on the lattice length of dense operators
MAX_DENSE_L = 12

#: rapidity pairs closer than this (in |sinh| distance) are rejected
SINGULARITY_GUARD = 1e-7


def check_dense_length(L: int):
    """Raise ``CapacityError`` if dense operators on L sites exceed the cap."""
    if L > MAX_DENSE_L:
        raise CapacityError(f"lattice length {L} exceeds the dense capacity cap {MAX_DENSE_L}")


def random_complex(rng: np.random.Generator, shape=()) -> np.ndarray | complex:
    """Seeded parameter draw: real part in [-1, 1], imaginary in [-0.5, 0.5]."""
    z = rng.uniform(-1.0, 1.0, shape) + 1j * rng.uniform(-0.5, 0.5, shape)
    return complex(z) if shape == () else z


@dataclass(frozen=True)
class SpectralConfig:
    """Global problem instance for all lab modules.

    Parameters are validated eagerly: ``sinh(gamma)`` must be nondegenerate,
    the inhomogeneities finite, and ``0 <= n <= L``.

    ``tol`` gates no check: it is the |sinh(gamma)| at or below which gamma
    is degenerate, and the eigenpair residual (never below 1e-9) above which
    ``ybcore.spectrum`` rejects a sector as degenerate.
    """

    L: int
    n: int
    gamma: complex
    mu: tuple[complex, ...]
    tol: float = 1e-9
    seed: int = 0

    def __post_init__(self):
        if not isinstance(self.L, int) or self.L < 1:
            raise ConfigError("L", f"must be a positive integer, got {self.L!r}")
        if not isinstance(self.n, int) or self.n < 0:
            raise ConfigError("n", f"must be a non-negative integer, got {self.n!r}")
        if self.n > self.L:
            raise ConfigError("n", f"must satisfy n <= L, got n={self.n}, L={self.L}")
        if not (self.tol > 0.0):
            raise ConfigError("tol", f"must be positive, got {self.tol!r}")
        object.__setattr__(self, "gamma", complex(self.gamma))
        if not np.isfinite([self.gamma.real, self.gamma.imag]).all():
            raise ConfigError("gamma", "must be finite")
        if abs(np.sinh(self.gamma)) <= self.tol:
            raise ConfigError(
                "gamma", f"sinh(gamma) = {np.sinh(self.gamma):.3g} is degenerate"
            )
        mu = tuple(complex(m) for m in self.mu)
        object.__setattr__(self, "mu", mu)
        if len(mu) != self.L:
            raise ConfigError("mu", f"needs exactly L={self.L} entries, got {len(mu)}")
        for j, m in enumerate(mu):
            if not np.isfinite([m.real, m.imag]).all():
                raise ConfigError("mu", f"entry {j} is not finite")
            y = np.exp(2 * m)
            if not np.isfinite([y.real, y.imag]).all() or y == 0:
                raise ConfigError("mu", f"entry {j} gives degenerate y = e^(2 mu)")

    # -- derived multiplicative-convention quantities -------------------------

    @property
    def q(self) -> complex:
        return complex(np.exp(self.gamma))

    @property
    def ys(self) -> np.ndarray:
        """Multiplicative inhomogeneities y_j = e^{2 mu_j}."""
        return np.exp(2 * np.asarray(self.mu))

    @property
    def sqrt_y_prod(self) -> complex:
        """Branch-free prod_j y_j^{1/2}, computed as e^{sum mu_j}."""
        return complex(np.exp(np.sum(np.asarray(self.mu))))

    @property
    def quantum_dim(self) -> int:
        return 2**self.L

    # -- utilities -------------------------------------------------------------

    def rng(self, tag: str) -> np.random.Generator:
        """Deterministic per-purpose generator derived from the seed."""
        return np.random.default_rng([self.seed & 0x7FFFFFFF, zlib.crc32(tag.encode())])

    def check_dense_capacity(self):
        check_dense_length(self.L)

    def replace(self, **kwargs) -> "SpectralConfig":
        data = {
            "L": self.L, "n": self.n, "gamma": self.gamma, "mu": self.mu,
            "tol": self.tol, "seed": self.seed,
        }
        data.update(kwargs)
        return SpectralConfig(**data)

    @classmethod
    def random_instance(
        cls, L: int, n: int, seed: int = 0, tol: float = 1e-9
    ) -> "SpectralConfig":
        """Draw gamma and the mu_j from the standard seeded rectangle.

        Redraws gamma until sinh(gamma) is safely nondegenerate so that the
        instance always validates.
        """
        rng = np.random.default_rng([seed & 0x7FFFFFFF, zlib.crc32(b"instance")])
        gamma = random_complex(rng)
        while abs(np.sinh(gamma)) < 0.05:
            gamma = random_complex(rng)
        mu = tuple(random_complex(rng) for _ in range(L))
        return cls(L=L, n=n, gamma=gamma, mu=mu, tol=tol, seed=seed)
