import numpy as np
import pytest

from specprotect import SymmetricMatrix


@pytest.fixture
def example_pair():
    """The canonical protected 2x2 pair: A = diag(1, -1), B the rank-one
    projection onto (1, 1)/sqrt(2).  Its only protected point is 0."""
    a = SymmetricMatrix([[1.0, 0.0], [0.0, -1.0]])
    b = SymmetricMatrix(0.5 * np.ones((2, 2)))
    return a, b


@pytest.fixture
def indefinite_pair():
    """Negative control: indefinite off-diagonal B keeps the whole interval
    (-1, 1) out of every spectrum."""
    a = SymmetricMatrix([[1.0, 0.0], [0.0, -1.0]])
    b = SymmetricMatrix([[0.0, 1.0], [1.0, 0.0]])
    return a, b


def random_symmetric(rng, n, scale=1.0):
    m = rng.standard_normal((n, n)) * scale
    return SymmetricMatrix(m + m.T)


def random_psd(rng, n, rank=None):
    rank = n if rank is None else rank
    g = rng.standard_normal((n, rank))
    return SymmetricMatrix((g @ g.T) / n)


def dense_resolvent(m, lam):
    """(M - lam)^{-1} built from numpy's eigh, independent of the library."""
    w, v = np.linalg.eigh(m.mat)
    return (v / (w - lam)) @ v.T


def random_orthogonal(rng, n):
    q, r = np.linalg.qr(rng.standard_normal((n, n)))
    return q * np.sign(np.diag(r))


def separated_points(rng, m, lo, hi, min_sep):
    """m sorted points in [lo, hi] with pairwise separation >= min_sep."""
    while True:
        pts = np.sort(rng.uniform(lo, hi, m))
        if m == 1 or np.min(np.diff(pts)) >= min_sep:
            return pts
