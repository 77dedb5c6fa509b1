"""Exception types shared across the package."""


class ConfigError(ValueError):
    """A problem instance failed validation; the message names the bad field."""

    def __init__(self, field: str, message: str):
        self.field = field
        super().__init__(f"config field '{field}': {message}")


class CapacityError(RuntimeError):
    """A request exceeds the dense-storage capacity cap."""


class CoincidentRapiditiesError(ValueError):
    """Two rapidities are too close; a b-function denominator would blow up."""

    def __init__(self, pair, separation):
        self.pair = pair
        self.separation = separation
        super().__init__(
            f"rapidities {pair[0]:.6g} and {pair[1]:.6g} are too close "
            f"(|sinh| separation {separation:.3g}); coefficients are singular"
        )


class DegeneracyError(RuntimeError):
    """Two probe points did not split a degenerate cluster; try another seed.

    ``probes`` holds the two probe rapidities and ``cluster_sizes`` the size
    of each eigenvalue cluster with more than one member at the first probe
    (empty if there was none); both are also in the message.
    """

    def __init__(self, reason: str, probes, cluster_sizes):
        self.probes = tuple(complex(p) for p in probes)
        self.cluster_sizes = tuple(int(c) for c in cluster_sizes)
        points = ", ".join(f"{p:.6g}" for p in self.probes)
        super().__init__(
            f"{reason} at the probe points {points} "
            f"(degenerate cluster sizes {list(self.cluster_sizes)}); try another seed"
        )


class UnsupportedShapeError(ValueError):
    """A construction or suite is not defined at the requested shape, such
    as the first-order reduction below lattice length 3; the message says
    which and why."""
