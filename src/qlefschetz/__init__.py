"""Exact-arithmetic mirror symmetry engine for projective hypersurfaces.

The package computes, over the rationals, the genus-0 small J-function of
projective space, its hypergeometric twists by split bundles, the Birkhoff
factorization recovering the twisted J-function together with the mirror
map, and the rational curve counts of every Calabi-Yau threefold complete
intersection in projective space.  A companion quantization module
implements the anomaly calculus of quadratic hamiltonians on a truncated
loop space.
"""

from .errors import (
    ConventionError,
    DescriptorMismatchError,
    EngineError,
    ExtractionError,
    InsufficientFloorError,
    TransversalityError,
    UnitError,
)
from .gw import SMatrix, frame_series, j_reduced, qde_verify, s_matrix
from .mirror import (
    MirrorResult,
    birkhoff,
    extract_instantons,
    invert_series,
    small_mirror,
    tangency_solve,
)
from .ring import (
    BundleSpec,
    CohElement,
    LambdaScalar,
    RingDescriptor,
    euler_expansion_check,
    gram_matrix,
    integrate,
    poincare_pairing,
    twisted_pairing,
)
from .series import (
    QSeries,
    RAW,
    REDUCED,
    ZSeries,
    directional_derivative,
    project,
    symplectic_form,
)
from .twist import (
    b_series,
    bernoulli,
    cone_transform,
    i_function,
    serre_dual_i,
    stirling_check,
    todd_series,
)

__version__ = "0.1.0"

__all__ = [
    "BundleSpec",
    "CohElement",
    "ConventionError",
    "DescriptorMismatchError",
    "EngineError",
    "ExtractionError",
    "InsufficientFloorError",
    "LambdaScalar",
    "MirrorResult",
    "QSeries",
    "RAW",
    "REDUCED",
    "RingDescriptor",
    "SMatrix",
    "TransversalityError",
    "UnitError",
    "ZSeries",
    "b_series",
    "bernoulli",
    "birkhoff",
    "cone_transform",
    "directional_derivative",
    "euler_expansion_check",
    "extract_instantons",
    "frame_series",
    "gram_matrix",
    "i_function",
    "integrate",
    "invert_series",
    "j_reduced",
    "poincare_pairing",
    "project",
    "qde_verify",
    "s_matrix",
    "serre_dual_i",
    "small_mirror",
    "stirling_check",
    "symplectic_form",
    "tangency_solve",
    "todd_series",
    "twisted_pairing",
]
