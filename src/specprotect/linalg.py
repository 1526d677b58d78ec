"""Dense real symmetric linear algebra.

Everything the upper layers consume lives here: a validated symmetric matrix
type, a LAPACK eigensolver with a fixed sign convention, the resolvent in the
eigenbasis, the PSD check with its low-rank factor, norms, and spectral-gap
extraction.  All tolerances are relative to
``source_scale = max(1, ||.||_F)``; absolute tolerances are never applied to
user data.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

from .errors import NotPSDError, PoleError

# Relative tolerances (see module docstring for the scaling convention).
SYMMETRY_RTOL = 1e-12
POLE_RTOL = 1e-12
PSD_FLOOR_RTOL = 1e-10
CLUSTER_RTOL = 1e-9


class SymmetricMatrix:
    """Immutable dense real symmetric n-by-n matrix.

    Input may carry asymmetry up to ``1e-12 * (1 + max|entry|)`` (file
    round-off); it is symmetrized on construction and frozen.
    """

    __slots__ = ("mat",)

    def __init__(self, entries):
        a = np.array(entries, dtype=float)
        if a.ndim != 2 or a.shape[0] != a.shape[1] or a.shape[0] < 1:
            raise ValueError("expected a square matrix with n >= 1")
        amax = float(np.max(np.abs(a)))
        if float(np.max(np.abs(a - a.T))) > SYMMETRY_RTOL * (1.0 + amax):
            raise ValueError("matrix is not symmetric within tolerance")
        a = 0.5 * (a + a.T)
        a.setflags(write=False)
        self.mat = a

    @property
    def n(self) -> int:
        return self.mat.shape[0]

    def __repr__(self):
        return f"SymmetricMatrix(n={self.n})"

    @classmethod
    def diag(cls, values) -> "SymmetricMatrix":
        return cls(np.diag(np.asarray(values, dtype=float)))


@dataclasses.dataclass(frozen=True)
class SpectralDecomposition:
    """Eigenvalues (ascending) and an orthonormal eigenvector frame."""

    eigenvalues: np.ndarray
    frame: np.ndarray
    source_scale: float

    @property
    def n(self) -> int:
        return self.eigenvalues.shape[0]


@dataclasses.dataclass(frozen=True)
class SpectralGap:
    """Maximal open interval of the real resolvent set of A.

    ``lower``/``upper`` are -inf/+inf on the unbounded rays.
    """

    lower: float
    upper: float

    @property
    def kind(self) -> str:
        if math.isinf(self.lower):
            return "left-unbounded"
        if math.isinf(self.upper):
            return "right-unbounded"
        return "bounded"

    @property
    def bounded(self) -> bool:
        return not (math.isinf(self.lower) or math.isinf(self.upper))

    @property
    def width(self) -> float:
        return self.upper - self.lower

    def contains(self, lam: float) -> bool:
        return self.lower < lam < self.upper


def frobenius(m: SymmetricMatrix) -> float:
    return float(np.linalg.norm(m.mat))


def eigh(a: SymmetricMatrix) -> SpectralDecomposition:
    """Eigendecomposition by LAPACK (``numpy.linalg.eigh``).

    Eigenvalues come back ascending.  The sign of each eigenvector is fixed
    so its first component above 1e-12 * max|column| is positive, which
    makes the frame deterministic.
    """
    values, frame = np.linalg.eigh(a.mat)
    for j in range(a.n):
        col = frame[:, j]
        support = np.nonzero(np.abs(col) > 1e-12 * np.max(np.abs(col)))[0]
        if col[support[0]] < 0.0:
            frame[:, j] = -col
    values.setflags(write=False)
    frame.setflags(write=False)
    return SpectralDecomposition(values, frame, max(1.0, frobenius(a)))


def dist_to_spectrum(d: SpectralDecomposition, lam: float) -> float:
    return float(np.min(np.abs(d.eigenvalues - lam)))


def resolvent_diagonal(d: SpectralDecomposition, lam: float) -> np.ndarray:
    """The eigenvalues 1 / (mu_k - lam) of (A - lam)^{-1}, aligned with the frame.

    Raises PoleError when lam is within 1e-12 * source_scale of an eigenvalue.
    """
    idx = int(np.argmin(np.abs(d.eigenvalues - lam)))
    if abs(d.eigenvalues[idx] - lam) <= POLE_RTOL * d.source_scale:
        raise PoleError(lam, float(d.eigenvalues[idx]))
    return 1.0 / (d.eigenvalues - lam)


def resolvent_matrix(d: SpectralDecomposition, lam: float) -> np.ndarray:
    """The full matrix (A - lam)^{-1}."""
    return (d.frame * resolvent_diagonal(d, lam)) @ d.frame.T


def ensure_psd(b: SymmetricMatrix) -> np.ndarray:
    """Check PSD-ness of ``b``; returns an n x r factor G with B = G G^T.

    An eigenvalue below -1e-10 * max(1, ||B||_F) raises NotPSDError.  G keeps
    one column sqrt(beta) * v per eigenpair (beta, v) with beta above
    1e-10 * ||B||_F, so r is the numerical rank of B and a nonzero B never
    loses its whole range.
    """
    d = eigh(b)
    min_eig = float(d.eigenvalues[0])
    if min_eig < -PSD_FLOOR_RTOL * max(1.0, frobenius(b)):
        raise NotPSDError(min_eig)
    keep = d.eigenvalues > PSD_FLOOR_RTOL * frobenius(b)
    return d.frame[:, keep] * np.sqrt(d.eigenvalues[keep])


def cluster_points(values: np.ndarray, tol: float) -> list[np.ndarray]:
    """Group ascending values whose consecutive spacing is <= tol."""
    groups: list[list[int]] = [[0]]
    for i in range(1, len(values)):
        if values[i] - values[i - 1] <= tol:
            groups[-1].append(i)
        else:
            groups.append([i])
    return [np.asarray(g, dtype=int) for g in groups]


def gaps_between(points) -> list[SpectralGap]:
    """Two unbounded rays plus one bounded gap per consecutive pair of
    ascending, distinct ``points``."""
    points = [float(x) for x in points]
    out = [SpectralGap(-math.inf, points[0])]
    for lo, hi in zip(points, points[1:]):
        out.append(SpectralGap(lo, hi))
    out.append(SpectralGap(points[-1], math.inf))
    return out


def gaps(d: SpectralDecomposition, cluster_tol: float | None = None) -> list[SpectralGap]:
    """Spectral gaps of A: the gaps between its distinct (clustered) eigenvalues."""
    if cluster_tol is None:
        cluster_tol = CLUSTER_RTOL * d.source_scale
    if cluster_tol <= 0.0:
        raise ValueError("cluster_tol must be positive")
    groups = cluster_points(d.eigenvalues, cluster_tol)
    return gaps_between(np.mean(d.eigenvalues[g]) for g in groups)
