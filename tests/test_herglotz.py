import math

import numpy as np
import pytest

from specprotect import (
    HerglotzScalar,
    SpectralGap,
    SymmetricMatrix,
    eigh,
    gap_root,
    gaps_between,
    herglotz_from,
)
from conftest import dense_resolvent


def test_from_decomposition_two_poles():
    d = eigh(SymmetricMatrix.diag([1.0, -1.0]))
    y = np.array([1.0, 1.0]) / math.sqrt(2)
    h = herglotz_from(d, y)
    assert np.allclose(h.poles, [-1.0, 1.0])
    assert np.allclose(h.weights, [0.5, 0.5])


def test_from_decomposition_scalar():
    h = herglotz_from(eigh(SymmetricMatrix.diag([5.0])), [2.0])
    assert np.allclose(h.poles, [5.0])
    assert np.allclose(h.weights, [4.0])


def test_from_decomposition_clustered_eigenspace():
    # two-dimensional eigenspace at 1: projection of (1,1,0) has squared norm 2
    h = herglotz_from(eigh(SymmetricMatrix.diag([1.0, 1.0, 2.0])), [1.0, 1.0, 0.0])
    assert np.allclose(h.poles, [1.0, 2.0])
    assert np.allclose(h.weights, [2.0, 0.0], atol=1e-12)


def test_weights_sum_to_probe_norm():
    rng = np.random.default_rng(5)
    m = rng.standard_normal((7, 7))
    d = eigh(SymmetricMatrix(m + m.T))
    y = rng.standard_normal(7)
    h = herglotz_from(d, y)
    assert np.sum(h.weights) == pytest.approx(np.dot(y, y), rel=1e-10)
    g = rng.standard_normal((7, 3))
    h = herglotz_from(d, g)
    assert np.sum(h.weights) == pytest.approx(np.sum(g**2), rel=1e-10)


def test_zero_probe_rejected():
    d = eigh(SymmetricMatrix.diag([1.0, -1.0]))
    with pytest.raises(ValueError):
        herglotz_from(d, [0.0, 0.0])


def test_eval_matches_resolvent_element():
    rng = np.random.default_rng(9)
    m = rng.standard_normal((6, 6))
    mat = SymmetricMatrix(m + m.T)
    d = eigh(mat)
    y = rng.standard_normal(6)
    h = herglotz_from(d, y)
    for gap in gaps_between(h.poles):
        if not gap.bounded or gap.width < 1e-3:
            continue
        lam = 0.5 * (gap.lower + gap.upper)
        direct = float(np.dot(y, dense_resolvent(mat, lam) @ y))
        assert h.eval(lam) == pytest.approx(direct, rel=1e-10)


def test_gap_root_symmetric_pair():
    h = HerglotzScalar(np.array([-1.0, 1.0]), np.array([0.5, 0.5]))
    root = gap_root(h, SpectralGap(-1.0, 1.0))
    assert root == pytest.approx(0.0, abs=1e-13)


def test_gap_root_unbounded_rays_none():
    h = HerglotzScalar(np.array([-1.0, 1.0]), np.array([0.5, 0.5]))
    assert gap_root(h, SpectralGap(1.0, math.inf)) is None
    assert gap_root(h, SpectralGap(-math.inf, -1.0)) is None


def test_gap_root_weighted():
    # 1/(0 - lam) + 3/(2 - lam) = 0  =>  lam = 1/2
    h = HerglotzScalar(np.array([0.0, 2.0]), np.array([1.0, 3.0]))
    root = gap_root(h, SpectralGap(0.0, 2.0))
    assert root == pytest.approx(0.5, abs=1e-13)


def test_gap_root_vanishing_weight_no_root():
    # weight 0 at the left pole: f stays positive on (0, 2)
    h = HerglotzScalar(np.array([0.0, 2.0]), np.array([0.0, 1.0]))
    assert gap_root(h, SpectralGap(0.0, 2.0)) is None


def _random_herglotz(rng):
    m = int(rng.integers(2, 9))
    while True:
        poles = np.sort(rng.uniform(-10, 10, m))
        if np.min(np.diff(poles)) >= 1e-2:
            break
    weights = rng.uniform(0.0, 2.0, m)
    if np.all(weights == 0):
        weights[0] = 1.0
    return HerglotzScalar(poles, weights)


def test_derivative_matches_finite_difference():
    rng = np.random.default_rng(23)
    checked = 0
    while checked < 300:
        h = _random_herglotz(rng)
        bounded = [g for g in gaps_between(h.poles) if g.bounded]
        gap = bounded[int(rng.integers(len(bounded)))]
        lam = rng.uniform(
            gap.lower + 0.2 * gap.width, gap.upper - 0.2 * gap.width
        )
        delta = 1e-5 * gap.width
        fd = (h.eval(lam + delta) - h.eval(lam - delta)) / (2 * delta)
        exact = h.derivative(lam)
        assert fd == pytest.approx(exact, rel=1e-6)
        assert exact > 0
        checked += 1


def test_at_most_one_sign_change_per_gap():
    rng = np.random.default_rng(29)
    for _ in range(300):
        h = _random_herglotz(rng)
        for gap in gaps_between(h.poles):
            if not gap.bounded:
                continue
            xs = np.linspace(
                gap.lower + 1e-6 * gap.width, gap.upper - 1e-6 * gap.width, 25
            )
            values = np.array([h.eval(x) for x in xs])
            changes = int(np.sum(np.sign(values[1:]) != np.sign(values[:-1])))
            assert changes <= 1
            if gap_root(h, gap) is None:
                assert changes == 0
