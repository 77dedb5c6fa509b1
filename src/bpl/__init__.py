"""Verification lab for the trigonometric six-vertex model: transfer-matrix
algebra, the functional equation its eigenvalues satisfy, the commuting
differential-operator family on bounded polynomial spaces, the explicit
order-(L-1) PDE with its first-order reduction, and the domain-wall analogue.
"""

from .config import SpectralConfig, max_dense_length, random_complex
from .errors import (
    CapacityError,
    CoincidentRapiditiesError,
    ConfigError,
    DegeneracyError,
    UnsupportedShapeError,
)
from .polyengine import GridFit, MultiPoly, PdeSpec
from .ybcore import (
    EigenChoice,
    MonodromyEntries,
    check_off_relations,
    check_rtt,
    check_ybe,
    monodromy,
    r_matrix,
    spectrum,
    transfer,
)
from .functional import (
    FnSampler,
    check_fz_residual,
    extract_fbar,
    fz_coefficients,
    lambda_bar_coefficients,
)
from .omega import OmegaFamily, SymmetricBasis, build_lbar, check_eigk, extract_omegas
from .closedform import (
    PdeCoefficients,
    closedform_residual,
    compare_omega_closedform,
    eval_q,
    eval_v,
    special_solutions,
)
from .reduction import build_psi, spectral_reduction, upsilon_apply, upsilon_residual
from .dwbc import (
    DwbcInstance,
    dwbc_configuration_sum,
    dwbc_partition,
    dwbc_pde_residual,
    dwbc_upsilon,
    dwbc_upsilon_residual,
    extract_zbar,
)

__version__ = "0.1.0"
