"""Protected spectral points of symmetric pencils A + tB.

Given a real symmetric A and a positive semi-definite B != 0, a real lam is
*protected* when it stays in the resolvent set of A + tB for every real t.
This package certifies protection through one r x r compressed resolvent
F(lam) = G^T (A - lam)^{-1} G, where B = G G^T (see ``protection``),
enumerates all protected points, and constructs pairs realizing any
prescribed finite protected set.
"""

__version__ = "0.1.0"

from .errors import (
    DegeneratePerturbationError,
    NotProtectedError,
    NotPSDError,
    PoleError,
    SpecProtectError,
)
from .herglotz import HerglotzScalar, gap_root, herglotz_from
from .linalg import (
    SpectralDecomposition,
    SpectralGap,
    SymmetricMatrix,
    dist_to_spectrum,
    eigh,
    frobenius,
    gaps,
    gaps_between,
    resolvent_matrix,
)
from .protection import (
    DistanceBounds,
    FlowSample,
    Pencil,
    ProtectedPoint,
    ProtectionReport,
    ProtectionVerdict,
    brute_force_unprotected,
    compressed_resolvent,
    distance_bounds,
    is_protected,
    nilpotency_index,
    pencil_roots,
    protected_set,
    protection_residual,
    pseudo_resolvent_defect,
    shifted_inverse_formula,
    spectral_flow,
    standard_t_grid,
)
from .realization import (
    PolePair,
    RealizedPair,
    realize,
    realize_via_poles,
    solve_t,
)

__all__ = [name for name in dir() if not name.startswith("_")]
