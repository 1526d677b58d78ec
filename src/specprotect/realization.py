"""Constructions whose protected set is prescribed.

Two routes:

* the *cyclic* (arrowhead) construction: given a finite set P, border the
  diagonal matrix K = diag(P) with a strictly positive unit vector v and one
  extra zero diagonal entry, and perturb only that last coordinate.  The
  protected set of the resulting pair is exactly P, and every lam outside P
  is reached at an explicitly solvable parameter t*.

* the *pole* construction: a diagonal A with prescribed poles and a rank-one
  projection B whose vector has all entries non-zero; the protected set is
  then the root set of the associated pole/weight function, one point strictly
  inside each bounded gap, found and certified by ``protected_set``.

The solve-for-t formula comes from the Schur-complement determinant identity
det(A + tB - lam) = det(K - lam) * ((t - lam) - v^T (K - lam)^{-1} v), which
is affine in t for the rank-one perturbation used here.  In the terms of
``protection``, B = e e^T has the factor G = e and t* = -1 / F(lam): the single
pencil root of the compressed resolvent F(lam) = e^T (A - lam)^{-1} e.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from .errors import PoleError
from .linalg import SymmetricMatrix
from .protection import DEFAULT_TOL, Pencil, protected_set


@dataclasses.dataclass(frozen=True)
class RealizedPair:
    """Arrowhead pair (A, B) with prescribed protected set P."""

    points: np.ndarray   # ascending, distinct; this is P = diag of K
    v: np.ndarray        # strictly positive unit vector of weights
    a: SymmetricMatrix   # (m+1) x (m+1) arrowhead [[K, v], [v^T, 0]]
    b: SymmetricMatrix   # diag(0, ..., 0, 1)

    @property
    def m(self) -> int:
        return self.points.shape[0]


@dataclasses.dataclass(frozen=True)
class PolePair:
    """Diagonal-plus-rank-one-projection pair with its protected points."""

    mu: np.ndarray       # ascending distinct poles
    y: np.ndarray        # unit vector, every entry non-zero
    a: SymmetricMatrix
    b: SymmetricMatrix
    protected_points: np.ndarray   # one per bounded pole gap
    residuals: np.ndarray


def realize(points, weights=None) -> RealizedPair:
    """Build the arrowhead pair whose protected set is exactly ``points``.

    ``weights`` (optional, all > 0) sets the border vector before
    normalization; the default is uniform.  All weights must be strictly
    positive: that is what makes the border vector cyclic for K and the
    construction exact.
    """
    pts = np.sort(np.asarray(points, dtype=float))
    m = pts.size
    if m < 1:
        raise ValueError("need at least one prescribed point")
    if np.any(np.diff(pts) == 0.0):
        raise ValueError("prescribed points must be distinct")
    if weights is None:
        w = np.full(m, 1.0 / np.sqrt(m))
    else:
        w = np.asarray(weights, dtype=float)
        if w.shape != (m,):
            raise ValueError("weights must match the number of points")
        if np.any(w <= 0.0):
            raise ValueError("weights must be strictly positive")
        w = w / np.linalg.norm(w)
    amat = np.zeros((m + 1, m + 1))
    amat[:m, :m] = np.diag(pts)
    amat[:m, m] = w
    amat[m, :m] = w
    bmat = np.zeros((m + 1, m + 1))
    bmat[m, m] = 1.0
    return RealizedPair(pts, w, SymmetricMatrix(amat), SymmetricMatrix(bmat))


def solve_t(pair: RealizedPair, lam: float) -> float:
    """The parameter t* with lam in spec(A + t* B), for lam outside P.

    t* = lam + sum_k beta_k^2 / (P_k - lam); at lam in P no finite t exists
    (those are precisely the protected points) and a PoleError is raised.
    """
    scale = max(1.0, float(np.max(np.abs(pair.points))))
    idx = int(np.argmin(np.abs(pair.points - lam)))
    if abs(pair.points[idx] - lam) <= 1e-10 * scale:
        raise PoleError(lam, float(pair.points[idx]))
    return float(lam + np.sum(pair.v**2 / (pair.points - lam)))


def realize_via_poles(mu, y=None, tol: float = DEFAULT_TOL) -> PolePair:
    """Diagonal A = diag(mu) with rank-one projection B = y y^T.

    Protected points are the roots of sum_k y_k^2 / (mu_k - lam): exactly one
    strictly inside each bounded gap between consecutive poles.  Each root is
    certified by ``protected_set`` before being reported.
    """
    mu = np.sort(np.asarray(mu, dtype=float))
    m = mu.size
    if m < 2:
        raise ValueError("need at least two poles")
    if np.any(np.diff(mu) == 0.0):
        raise ValueError("poles must be distinct")
    if y is None:
        yv = np.full(m, 1.0 / np.sqrt(m))
    else:
        yv = np.asarray(y, dtype=float)
        if yv.shape != (m,):
            raise ValueError("y must match the number of poles")
        if np.any(yv == 0.0):
            raise ValueError("every entry of y must be non-zero")
        yv = yv / np.linalg.norm(yv)
    a = SymmetricMatrix(np.diag(mu))
    b = SymmetricMatrix(np.outer(yv, yv))
    report = protected_set(Pencil(a, b), tol=tol)
    if len(report.protected_points) != m - 1:
        # All weights are positive, so every bounded gap has a certified root.
        raise AssertionError(f"gaps without a certified root: {report.gap_diagnostics}")
    roots = np.array([pt.value for pt in report.protected_points])
    residuals = np.array([pt.residual for pt in report.protected_points])
    return PolePair(mu, yv, a, b, roots, residuals)
