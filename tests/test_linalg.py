import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from specprotect import (
    NotPSDError,
    PoleError,
    SymmetricMatrix,
    dist_to_spectrum,
    eigh,
    frobenius,
    gaps,
    resolvent_matrix,
)
from specprotect.linalg import ensure_psd
from conftest import random_orthogonal, random_symmetric


def test_symmetry_invariant_rejected():
    with pytest.raises(ValueError):
        SymmetricMatrix([[0.0, 5.0], [1.0, 0.0]])


def test_small_asymmetry_tolerated():
    m = SymmetricMatrix([[0.0, 1.0 + 1e-13], [1.0, 0.0]])
    assert m.mat[0, 1] == m.mat[1, 0]


def test_eigh_already_diagonal():
    d = eigh(SymmetricMatrix.diag([3.0, 1.0, 2.0]))
    assert np.allclose(d.eigenvalues, [1.0, 2.0, 3.0], atol=1e-14)
    # frame is a permutation of identity columns
    assert np.allclose(np.abs(d.frame), np.eye(3)[:, [1, 2, 0]], atol=1e-14)


def test_eigh_2x2_characteristic_polynomial():
    # trace 2, det -1  =>  eigenvalues 1 +/- sqrt(2)
    d = eigh(SymmetricMatrix([[2.0, 1.0], [1.0, 0.0]]))
    assert np.allclose(d.eigenvalues, [1 - math.sqrt(2), 1 + math.sqrt(2)], atol=1e-12)


def test_eigh_example_pair_at_zero(example_pair):
    a, _ = example_pair
    assert np.allclose(eigh(a).eigenvalues, [-1.0, 1.0], atol=1e-14)


def test_eigh_deterministic():
    rng = np.random.default_rng(7)
    m = random_symmetric(rng, 9)
    d1 = eigh(m)
    d2 = eigh(m)
    assert np.array_equal(d1.eigenvalues, d2.eigenvalues)
    assert np.array_equal(d1.frame, d2.frame)


def test_eigh_sign_convention():
    rng = np.random.default_rng(3)
    d = eigh(random_symmetric(rng, 6))
    for j in range(6):
        col = d.frame[:, j]
        nz = np.nonzero(np.abs(col) > 1e-12 * np.max(np.abs(col)))[0]
        assert col[nz[0]] > 0


def test_resolvent_apply_diagonal():
    d = eigh(SymmetricMatrix.diag([1.0, -1.0]))
    assert np.allclose(resolvent_matrix(d, 0.0) @ [1.0, 1.0], [1.0, -1.0], atol=1e-14)
    assert np.allclose(resolvent_matrix(d, 2.0) @ [1.0, 0.0], [-1.0, 0.0], atol=1e-14)


def test_resolvent_apply_dense():
    d = eigh(SymmetricMatrix([[2.0, 1.0], [1.0, 0.0]]))
    # solve [[2,1],[1,0]] x = (0,1): x = (1, -2)
    assert np.allclose(resolvent_matrix(d, 0.0) @ [0.0, 1.0], [1.0, -2.0], atol=1e-12)


def test_resolvent_pole_error():
    d = eigh(SymmetricMatrix.diag([1.0, -1.0]))
    with pytest.raises(PoleError) as info:
        resolvent_matrix(d, 1.0)
    assert info.value.eigenvalue == pytest.approx(1.0)


# ensure_psd returns the PSD square root in factored form: B = G G^T, with
# one column per eigenvalue above the floor.


def test_psd_sqrt_identity():
    g = ensure_psd(SymmetricMatrix(np.eye(3)))
    assert g.shape == (3, 3)
    assert np.allclose(g @ g.T, np.eye(3), atol=1e-12)


def test_psd_sqrt_projection_fixed_point(example_pair):
    _, b = example_pair
    g = ensure_psd(b)
    assert g.shape == (2, 1)
    assert np.allclose(g @ g.T, b.mat, atol=1e-12)


def test_psd_sqrt_diagonal():
    g = ensure_psd(SymmetricMatrix.diag([4.0, 0.0]))
    assert np.allclose(np.abs(g), [[2.0], [0.0]], atol=1e-12)


def test_psd_sqrt_rejects_indefinite():
    with pytest.raises(NotPSDError):
        ensure_psd(SymmetricMatrix.diag([1.0, -1.0]))


def test_psd_sqrt_squares_back():
    rng = np.random.default_rng(11)
    g = rng.standard_normal((6, 3))
    b = SymmetricMatrix(g @ g.T)
    factor = ensure_psd(b)
    assert factor.shape == (6, 3)
    assert np.linalg.norm(factor @ factor.T - b.mat) <= 1e-9 * max(1.0, frobenius(b))


def test_psd_sqrt_idempotent_on_random_projection():
    rng = np.random.default_rng(13)
    q = random_orthogonal(rng, 7)[:, :3]
    p = SymmetricMatrix(q @ q.T)
    g = ensure_psd(p)
    assert np.allclose(g.T @ g, np.eye(3), atol=1e-9)
    assert np.allclose(g @ g.T, p.mat, atol=1e-9)


def test_norms_and_distance():
    assert frobenius(SymmetricMatrix.diag([1.0, -3.0])) == pytest.approx(math.sqrt(10))
    assert frobenius(SymmetricMatrix(0.5 * np.array([[1, -1], [-1, 1.0]]))) == (
        pytest.approx(1.0)
    )
    d = eigh(SymmetricMatrix.diag([1.0, -1.0]))
    assert dist_to_spectrum(d, 0.0) == pytest.approx(1.0)


def test_gaps_simple():
    d = eigh(SymmetricMatrix.diag([1.0, -1.0]))
    gs = gaps(d)
    assert [g.kind for g in gs] == ["left-unbounded", "bounded", "right-unbounded"]
    assert gs[1].lower == pytest.approx(-1.0)
    assert gs[1].upper == pytest.approx(1.0)


def test_gaps_merge_multiplicity():
    d = eigh(SymmetricMatrix.diag([0.0, 0.0, 2.0]))
    gs = gaps(d, cluster_tol=1e-9)
    assert len(gs) == 3
    assert gs[1].lower == pytest.approx(0.0) and gs[1].upper == pytest.approx(2.0)


def test_gaps_cluster_nearby():
    d = eigh(SymmetricMatrix.diag([1.0, 1.0 + 1e-12, 5.0]))
    gs = gaps(d, cluster_tol=1e-9)
    bounded = [g for g in gs if g.bounded]
    assert len(bounded) == 1
    assert bounded[0].lower == pytest.approx(1.0, abs=1e-11)
    assert bounded[0].upper == pytest.approx(5.0)


def test_gaps_partition():
    rng = np.random.default_rng(17)
    d = eigh(random_symmetric(rng, 8))
    gs = gaps(d)
    # gaps are ordered, disjoint, and together with the eigenvalues cover R
    for left, right in zip(gs, gs[1:]):
        assert left.upper == pytest.approx(right.lower)
    assert gs[0].lower == -math.inf and gs[-1].upper == math.inf


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 10_000), n=st.integers(1, 12))
def test_reconstruction_property(seed, n):
    rng = np.random.default_rng(seed)
    m = random_symmetric(rng, n, scale=rng.uniform(0.1, 10.0))
    d = eigh(m)
    scale = d.source_scale
    rebuilt = (d.frame * d.eigenvalues) @ d.frame.T
    assert np.linalg.norm(rebuilt - m.mat) <= 1e-9 * scale
    assert np.linalg.norm(d.frame.T @ d.frame - np.eye(n)) <= 1e-12 * n
    assert np.all(np.diff(d.eigenvalues) >= 0)


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_resolvent_residual_property(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 10))
    m = random_symmetric(rng, n)
    d = eigh(m)
    bounded = [g for g in gaps(d) if g.bounded and g.width > 1e-6]
    if not bounded:
        return
    gap = bounded[int(rng.integers(len(bounded)))]
    lam = rng.uniform(gap.lower + 0.25 * gap.width, gap.upper - 0.25 * gap.width)
    y = rng.standard_normal(n)
    x = resolvent_matrix(d, lam) @ y
    residual = np.linalg.norm((m.mat - lam * np.eye(n)) @ x - y)
    assert residual <= 1e-10 * d.source_scale * max(1.0, np.linalg.norm(x))
