"""Scalar pole/weight functions f(lam) = sum_k w_k / (mu_k - lam).

These are traces tr G^T (A - lam)^{-1} G of compressed resolvents (for one
column G = y, the diagonal resolvent element <y, (A - lam)^{-1} y>):
non-negative weights, strictly increasing between consecutive poles, so each
bounded gap carries at most one root.  Root isolation is plain bisection --
monotonicity makes it unconditionally convergent.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from .linalg import (
    SpectralDecomposition,
    SpectralGap,
    cluster_points,
    CLUSTER_RTOL,
)

GAP_EDGE_OFFSET = 1e-9   # fraction of the gap width kept away from each pole
ROOT_RTOL = 1e-14        # bisection interval target, relative to endpoint size
MAX_BISECT = 80


@dataclasses.dataclass(frozen=True)
class HerglotzScalar:
    """Pole/weight representation of lam -> sum_k w_k / (mu_k - lam)."""

    poles: np.ndarray    # ascending, distinct
    weights: np.ndarray  # >= 0, aligned with poles

    def __post_init__(self):
        if np.any(np.diff(self.poles) <= 0):
            raise ValueError("poles must be ascending and distinct")
        if np.any(self.weights < 0):
            raise ValueError("weights must be non-negative")

    def eval(self, lam: float) -> float:
        return float(np.sum(self.weights / (self.poles - lam)))

    def derivative(self, lam: float) -> float:
        return float(np.sum(self.weights / (self.poles - lam) ** 2))


def herglotz_from(
    d: SpectralDecomposition, g, cluster_tol: float | None = None
) -> HerglotzScalar:
    """Pole/weight form of tr G^T (A - lam)^{-1} G from a decomposition of A.

    ``g`` is an n x r matrix, or a vector for r = 1.  Poles are the clustered
    eigenvalues; each weight is the squared Frobenius norm of the projection
    of G onto the corresponding (clustered) eigenspace.
    """
    g = np.asarray(g, dtype=float).reshape(d.n, -1)
    if not np.any(g):
        raise ValueError("probe must be non-zero")
    if cluster_tol is None:
        cluster_tol = CLUSTER_RTOL * d.source_scale
    coeffs = d.frame.T @ g
    groups = cluster_points(d.eigenvalues, cluster_tol)
    poles = np.array([float(np.mean(d.eigenvalues[idx])) for idx in groups])
    weights = np.array([float(np.sum(coeffs[idx] ** 2)) for idx in groups])
    return HerglotzScalar(poles, weights)


def gap_root(h: HerglotzScalar, gap: SpectralGap) -> float | None:
    """The unique root of ``h`` inside ``gap``, or None.

    On unbounded rays f never vanishes (f > 0 left of all poles, f < 0 right
    of them), so only bounded gaps are searched.  The gap endpoints are
    approached to within 1e-9 of the gap width; if both edge values share a
    sign there is no root (this covers vanishing endpoint weights, which make
    the one-sided limit finite).  Otherwise bisection refines the bracket to
    1e-14 * max(1, |a|, |b|).
    """
    if not gap.bounded:
        return None
    a, b = gap.lower, gap.upper
    eps = GAP_EDGE_OFFSET * (b - a)
    lo, hi = a + eps, b - eps
    if lo >= hi:
        return None
    flo = h.eval(lo)
    fhi = h.eval(hi)
    if flo == 0.0:
        return lo
    if fhi == 0.0:
        return hi
    # f is increasing on the gap: a sign change must be flo < 0 < fhi.
    if not (flo < 0.0 < fhi):
        return None
    tol = ROOT_RTOL * max(1.0, abs(a), abs(b))
    for _ in range(MAX_BISECT):
        if hi - lo <= tol:
            break
        mid = 0.5 * (lo + hi)
        fmid = h.eval(mid)
        if fmid == 0.0:
            return mid
        if fmid < 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)
