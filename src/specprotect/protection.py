"""Protection criterion and its cross-checks, all on one compressed resolvent.

A real lam is *protected* for a pair (A, B) -- A symmetric, B PSD and nonzero
-- when lam stays in the resolvent set of A + tB for every real t.  This is
equivalent to lam lying in a spectral gap of A with B (A - lam)^{-1} B = 0.

A ``Pencil`` validates B once, factors it as B = G G^T (rank r) and decomposes
A = V Lambda V^T once.  With C = V^T G, every criterion is a few lines on the
r x r compressed resolvent F(lam) = G^T (A - lam)^{-1} G = C^T (Lambda - lam)^{-1} C,
because B (A - lam)^{-1} B = G F(lam) G^T and range B = range G:

* the residual of F(lam) = 0, and the protected set (one root of the scalar
  Herglotz function tr F per spectral gap, certified by the residual);
* nilpotency: ((A - lam)^{-1} B)^k = (A - lam)^{-1} G F^{k-1} G^T;
* the pseudo-resolvent identity and the explicit shifted inverse formula;
* the two-sided distance bounds;
* the pencil roots: det(A - lam - mu B) = det(A - lam) det(I - mu F), so the
  finite roots are 1/nu over the nonzero eigenvalues nu of F.

Eigenvalue-flow sampling and the brute-force flow oracle work on (A, B)
directly and stay independent of the kernel.
"""

from __future__ import annotations

import dataclasses
from typing import NamedTuple

import numpy as np

from .errors import DegeneratePerturbationError, NotProtectedError
from .herglotz import gap_root, herglotz_from
from .linalg import (
    POLE_RTOL,
    SpectralDecomposition,
    SpectralGap,
    SymmetricMatrix,
    dist_to_spectrum,
    eigh,
    ensure_psd,
    frobenius,
    gaps,
    resolvent_diagonal,
    resolvent_matrix,
)

DEFAULT_TOL = 1e-8
ZERO_B_RTOL = 1e-12
UNRESOLVABLE_GAP_RTOL = 1e-12


class Pencil:
    """A validated pair (A, B) with A decomposed and B factored, once.

    Raises DegeneratePerturbationError when ||B||_F <= 1e-12 * max(1, ||A||_F)
    and NotPSDError when B is not PSD.  Holds ``a``, ``b``, ``dec`` (the
    eigendecomposition of A), ``g`` (n x r, B = G G^T) and ``c`` = frame^T G.
    """

    __slots__ = ("a", "b", "dec", "g", "c")

    def __init__(self, a: SymmetricMatrix, b: SymmetricMatrix):
        if frobenius(b) <= ZERO_B_RTOL * max(1.0, frobenius(a)):
            raise DegeneratePerturbationError()
        self.a = a
        self.b = b
        self.g = ensure_psd(b)
        self.dec: SpectralDecomposition = eigh(a)
        self.c = self.dec.frame.T @ self.g


@dataclasses.dataclass(frozen=True)
class ProtectedPoint:
    value: float
    residual: float
    gap: SpectralGap


@dataclasses.dataclass(frozen=True)
class GapDiagnostic:
    """Per-bounded-gap outcome of the root search."""

    gap: SpectralGap
    status: str                  # protected | no-root | rejected | unresolvable
    root: float | None = None
    residual: float | None = None


@dataclasses.dataclass(frozen=True)
class ProtectionReport:
    protected_points: list[ProtectedPoint]
    gap_diagnostics: list[GapDiagnostic]
    tol: float


@dataclasses.dataclass(frozen=True)
class FlowSample:
    """Sorted eigenvalue branches of A + tB over a t grid."""

    t_values: np.ndarray
    branches: np.ndarray  # shape (len(t_values), n), rows ascending


class ProtectionVerdict(NamedTuple):
    protected: bool
    residual: float


class DistanceBounds(NamedTuple):
    lower: float
    upper: float | None
    actual: float


def _scaled(p: Pencil, lam: float) -> np.ndarray:
    """(Lambda - lam)^{-1} C; raises PoleError when lam lies on the spectrum of A."""
    return resolvent_diagonal(p.dec, lam)[:, None] * p.c


def compressed_resolvent(p: Pencil, lam: float) -> np.ndarray:
    """F(lam) = G^T (A - lam)^{-1} G = C^T (Lambda - lam)^{-1} C, in O(n r^2)."""
    return p.c.T @ _scaled(p, lam)


def _resolvent_times_g(p: Pencil, lam: float) -> np.ndarray:
    """(A - lam)^{-1} G = V (Lambda - lam)^{-1} C, an n x r matrix."""
    return p.dec.frame @ _scaled(p, lam)


def protection_residual(p: Pencil, lam: float) -> float:
    """Dimensionless residual of the condition B (A - lam)^{-1} B = G F G^T = 0.

    Normalized by ||B||_F^2 / dist(lam, spec A) so that the value is invariant
    under joint rescaling of A and B; exactly zero iff the product vanishes.
    """
    f = compressed_resolvent(p, lam)  # raises PoleError inside the spectrum
    numerator = float(np.linalg.norm(p.g @ f @ p.g.T))
    return numerator * dist_to_spectrum(p.dec, lam) / frobenius(p.b) ** 2


def is_protected(p: Pencil, lam: float, tol: float = DEFAULT_TOL) -> ProtectionVerdict:
    """Certify lam in rho(A + tB) for all real t.

    True iff lam lies in a spectral gap of A and the protection residual is
    at most ``tol``.
    """
    if dist_to_spectrum(p.dec, lam) <= POLE_RTOL * p.dec.source_scale:
        return ProtectionVerdict(False, float("inf"))
    residual = protection_residual(p, lam)
    return ProtectionVerdict(residual <= tol, residual)


def protected_set(p: Pencil, tol: float = DEFAULT_TOL) -> ProtectionReport:
    """Enumerate all protected points of (A, B).

    Per bounded gap of A: isolate the unique root of the Herglotz function
    tr F(lam) = sum_k ||C_k||^2 / (mu_k - lam) in the gap, and certify it with
    the residual.  Any protected point must be that root: protection forces
    F(lam) = 0, hence tr F(lam) = 0, and tr F is strictly increasing across
    the gap.
    """
    h = herglotz_from(p.dec, p.g)
    points: list[ProtectedPoint] = []
    diagnostics: list[GapDiagnostic] = []
    for gap in gaps(p.dec):
        if not gap.bounded:
            continue
        if gap.width <= UNRESOLVABLE_GAP_RTOL * p.dec.source_scale:
            diagnostics.append(GapDiagnostic(gap, "unresolvable"))
            continue
        root = gap_root(h, gap)
        if root is None:
            diagnostics.append(GapDiagnostic(gap, "no-root"))
            continue
        residual = protection_residual(p, root)
        if residual <= tol:
            points.append(ProtectedPoint(root, residual, gap))
            diagnostics.append(GapDiagnostic(gap, "protected", root, residual))
        else:
            diagnostics.append(GapDiagnostic(gap, "rejected", root, residual))
    return ProtectionReport(points, diagnostics, tol)


def shifted_inverse_formula(
    p: Pencil, lam: float, t: float
) -> tuple[SymmetricMatrix, float]:
    """Candidate inverse M = R - t R B R for (A + tB - lam), with its defect.

    R = (A - lam)^{-1}, so R B R = (R G)(R G)^T.  The defect
    ||(A + tB - lam) M - I||_F = t^2 ||B R B R||_F = t^2 ||G F (R G)^T||_F is
    at the round-off level whenever lam is protected and grows large otherwise.
    """
    rg = _resolvent_times_g(p, lam)
    m = resolvent_matrix(p.dec, lam) - t * (rg @ rg.T)
    m = 0.5 * (m + m.T)
    defect = t * t * float(np.linalg.norm(p.g @ compressed_resolvent(p, lam) @ rg.T))
    return SymmetricMatrix(m), defect


def nilpotency_index(p: Pencil, lam: float) -> int | None:
    """2 when N = (A - lam)^{-1} B squares to zero, else None.

    N^2 = (A - lam)^{-1} G F G^T vanishes when ||N^2||_F <= 1e-10 ||N||_F^2.
    F is symmetric, so a nilpotent F is zero: no higher index can occur, and
    index 1 would need B = 0, which the Pencil rejects.
    """
    rg = _resolvent_times_g(p, lam)
    base = float(np.linalg.norm(rg @ p.g.T))
    square = float(np.linalg.norm(rg @ compressed_resolvent(p, lam) @ p.g.T))
    return 2 if square <= 1e-10 * base**2 else None


def pseudo_resolvent_defect(p: Pencil, lam: float, z: float, w: float) -> float:
    """Defect of the resolvent identity for R(s) = (R_0 - s R_0 B R_0) B.

    With R_0 = (A - lam)^{-1}, the family G(s) = (A - lam + sB)^{-1} B obeys
    G(z) - G(w) = (w - z) G(z) G(w); at protected shifts R(s) equals G(s), so
    ||R(z) - R(w) - (w - z) R(z) R(w)||_F vanishes for all z, w.  With
    N = R_0 B the defect is |w - z| ||(z + w) N^3 - z w N^4||_F, and
    N^k = R_0 G F^{k-1} G^T.
    """
    f = compressed_resolvent(p, lam)
    f2 = f @ f
    core = (z + w) * f2 - z * w * (f2 @ f)
    return abs(w - z) * float(np.linalg.norm(_resolvent_times_g(p, lam) @ core @ p.g.T))


def distance_bounds(
    p: Pencil, lam: float, t: float, tol: float = DEFAULT_TOL
) -> DistanceBounds:
    """Two-sided bounds on dist(lam, spec(A + tB)) at a protected lam.

    With R = (A - lam)^{-1}: lower = 1 / (|t| nu + eta), where
    nu = ||R B R||_2 = ||(Lambda - lam)^{-1} C||_2^2 and
    eta = ||R||_2 = 1 / dist(lam, spec A);
    upper = 1 / (|t| nu - eta) once |t| nu > eta.  ``actual`` is measured
    from an eigendecomposition of A + tB.  Requires lam to be protected.
    """
    verdict = is_protected(p, lam, tol=tol)
    if not verdict.protected:
        raise NotProtectedError(lam, verdict.residual)
    nu = float(np.linalg.norm(_scaled(p, lam), 2)) ** 2
    eta = 1.0 / dist_to_spectrum(p.dec, lam)
    lower = 1.0 / (abs(t) * nu + eta)
    upper = 1.0 / (abs(t) * nu - eta) if abs(t) * nu > eta else None
    actual = dist_to_spectrum(eigh(SymmetricMatrix(p.a.mat + t * p.b.mat)), lam)
    return DistanceBounds(lower, upper, actual)


def pencil_roots(p: Pencil, lam: float, max_abs: float = 1e6) -> list[float]:
    """Real roots mu of det(A - lam - mu B) with |mu| <= ``max_abs``, ascending.

    det(A - lam - mu B) = det(A - lam) det(I - mu F(lam)), so the roots are
    1/nu over the eigenvalues nu of the symmetric F(lam); the spectrum of
    A + tB contains lam exactly at t = -mu.  Raises PoleError when lam lies on
    the spectrum of A.
    """
    nu = np.linalg.eigvalsh(compressed_resolvent(p, lam))
    nu = nu[np.abs(nu) * max_abs >= 1.0]
    return sorted(float(x) for x in 1.0 / nu)


def spectral_flow(a: SymmetricMatrix, b: SymmetricMatrix, t_grid) -> FlowSample:
    """Sorted eigenvalues of A + tB at every grid point (ascending t)."""
    t_values = np.asarray(t_grid, dtype=float)
    if t_values.size == 0:
        raise ValueError("t grid must be non-empty")
    if np.any(np.diff(t_values) <= 0):
        raise ValueError("t grid must be strictly increasing")
    branches = np.empty((t_values.size, a.n))
    for i, t in enumerate(t_values):
        dec = eigh(SymmetricMatrix(a.mat + t * b.mat))
        branches[i] = dec.eigenvalues
    branches.setflags(write=False)
    t_values = t_values.copy()
    t_values.setflags(write=False)
    return FlowSample(t_values, branches)


def standard_t_grid(
    min_exp: float = -2.0,
    max_exp: float = 6.0,
    per_decade: int = 25,
    symmetric: bool = True,
    include_zero: bool = True,
) -> np.ndarray:
    """Log-spaced t grid, 25 points per decade by default, plus t = 0."""
    count = int(round((max_exp - min_exp) * per_decade)) + 1
    positive = np.logspace(min_exp, max_exp, count)
    parts = [positive]
    if symmetric:
        parts.append(-positive)
    if include_zero:
        parts.append(np.zeros(1))
    return np.unique(np.concatenate(parts))


def brute_force_unprotected(
    a: SymmetricMatrix,
    b: SymmetricMatrix,
    lam_grid,
    t_grid,
    hit_tol: float,
) -> set[int]:
    """Grid-scan oracle: indices of lam-grid points never hit by the flow.

    A lam is counted as hit at t when some eigenvalue of A + tB comes within
    hit_tol / (1 + |t|).  The window shrinks with |t| because the flow
    approaches protected points at rate ~ 1/|t| without ever reaching them;
    a fixed window would report false hits on every protected point once
    |t| is large enough.

    Independent of the compressed resolvent and of the Herglotz search: it
    samples eigenvalues of A + tB with numpy.linalg.eigvalsh, the same LAPACK
    family as ``eigh``.  Intended as a test oracle, not a certificate.
    """
    lam_grid = np.asarray(lam_grid, dtype=float)
    t_grid = np.asarray(t_grid, dtype=float)
    if lam_grid.size == 0 or t_grid.size == 0:
        raise ValueError("grids must be non-empty")
    if hit_tol <= 0:
        raise ValueError("hit_tol must be positive")
    hit = np.zeros(lam_grid.size, dtype=bool)
    for t in t_grid:
        evs = np.linalg.eigvalsh(a.mat + t * b.mat)
        dists = np.min(np.abs(evs[None, :] - lam_grid[:, None]), axis=1)
        hit |= dists <= hit_tol / (1.0 + abs(t))
    return set(np.nonzero(~hit)[0].tolist())
