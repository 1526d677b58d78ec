import math

import numpy as np
import pytest

from specprotect import (
    Pencil,
    PoleError,
    SymmetricMatrix,
    eigh,
    frobenius,
    pencil_roots,
    protected_set,
    realize,
    realize_via_poles,
    solve_t,
    standard_t_grid,
)
from conftest import dense_resolvent, random_orthogonal, separated_points


def test_realize_single_point_matrices():
    pair = realize([0.0])
    assert np.allclose(pair.a.mat, [[0.0, 1.0], [1.0, 0.0]])
    assert np.allclose(pair.b.mat, np.diag([0.0, 1.0]))


def test_realize_single_point_round_trip():
    pair = realize([0.0])
    report = protected_set(Pencil(pair.a, pair.b))
    assert len(report.protected_points) == 1
    assert report.protected_points[0].value == pytest.approx(0.0, abs=1e-12)


def test_realize_three_points_round_trip():
    pair = realize([-2.0, 0.5, 3.0])
    report = protected_set(Pencil(pair.a, pair.b))
    values = [p.value for p in report.protected_points]
    assert np.allclose(values, [-2.0, 0.5, 3.0], atol=1e-10)
    assert all(p.residual <= 1e-8 for p in report.protected_points)


def test_realize_rejects_bad_input():
    with pytest.raises(ValueError):
        realize([1.0, 1.0])
    with pytest.raises(ValueError):
        realize([0.0, 1.0], weights=[1.0, -1.0])
    with pytest.raises(ValueError):
        realize([])


def test_realize_invariants():
    pair = realize([-1.0, 2.0, 7.0], weights=[3.0, 1.0, 2.0])
    assert np.linalg.norm(pair.v) == pytest.approx(1.0)
    assert np.all(pair.v > 0)
    b = pair.b.mat
    assert np.allclose(b @ b, b)
    assert np.allclose(np.sort(np.diag(pair.a.mat)[:-1]), pair.points)


def test_solve_t_single_point():
    pair = realize([0.0])
    assert solve_t(pair, 1.0) == pytest.approx(0.0)
    assert solve_t(pair, -1.0) == pytest.approx(0.0)
    # spec(A + 0 B) = {-1, 1} indeed contains both
    assert np.allclose(eigh(pair.a).eigenvalues, [-1.0, 1.0], atol=1e-12)


def test_solve_t_two_points():
    pair = realize([0.0, 2.0])
    t_star = solve_t(pair, 1.0)
    assert t_star == pytest.approx(1.0)
    shifted = SymmetricMatrix(pair.a.mat + t_star * pair.b.mat)
    assert np.min(np.abs(eigh(shifted).eigenvalues - 1.0)) <= 1e-12


def test_solve_t_rejects_protected_points():
    pair = realize([0.0, 2.0])
    with pytest.raises(PoleError):
        solve_t(pair, 0.0)


def test_solve_t_coverage_property():
    rng = np.random.default_rng(61)
    for _ in range(5):
        m = int(rng.integers(1, 8))
        points = separated_points(rng, m, -8.0, 8.0, 0.05)
        pair = realize(points, weights=rng.uniform(0.5, 2.0, m))
        scale = max(1.0, frobenius(pair.a))
        for _ in range(60):
            lam = rng.uniform(-10.0, 10.0)
            if np.min(np.abs(points - lam)) < 1e-2:
                continue
            t_star = solve_t(pair, lam)
            shifted = pair.a.mat + t_star * pair.b.mat
            dist = np.min(np.abs(np.linalg.eigvalsh(shifted) - lam))
            assert dist <= 1e-9 * max(scale, abs(t_star))


def test_kernel_triviality_lower_bound():
    # for lam in P, the smallest singular value of A + tB - lam stays above
    # the two-sided-bound floor 1 / (|t| nu + eta)
    pair = realize([-1.0, 0.5, 2.0])
    for lam in pair.points:
        shifted = SymmetricMatrix(pair.a.mat - lam * np.eye(pair.a.n))
        ainv = dense_resolvent(shifted, 0.0)
        nu = np.linalg.norm(ainv @ pair.b.mat @ ainv, 2)
        eta = np.linalg.norm(ainv, 2)
        for t in standard_t_grid(per_decade=3):
            sigma_min = np.min(
                np.abs(np.linalg.eigvalsh(shifted.mat + t * pair.b.mat))
            )
            floor = 1.0 / (abs(t) * nu + eta)
            assert sigma_min >= floor * (1 - 1e-6)
            assert sigma_min > 0


def test_poles_two_points_reproduces_symmetric_example():
    pp = realize_via_poles([-1.0, 1.0], np.array([1.0, 1.0]) / math.sqrt(2))
    assert np.allclose(pp.protected_points, [0.0], atol=1e-13)
    assert np.allclose(pp.b.mat, 0.5 * np.ones((2, 2)))


def test_poles_three_points():
    pp = realize_via_poles([0.0, 1.0, 2.0])
    assert len(pp.protected_points) == 2
    assert 0 < pp.protected_points[0] < 1 < pp.protected_points[1] < 2
    assert np.all(pp.residuals <= 1e-8)


def test_poles_accumulating_family():
    mu = 1.0 / np.arange(1, 21)
    pp = realize_via_poles(mu)
    assert len(pp.protected_points) == 19
    ordered = np.sort(mu)
    for k, point in enumerate(pp.protected_points):
        assert ordered[k] < point < ordered[k + 1]


def test_poles_rejects_zero_entry():
    with pytest.raises(ValueError):
        realize_via_poles([0.0, 1.0], [1.0, 0.0])
    with pytest.raises(ValueError):
        realize_via_poles([3.0])


def test_pencil_empty_at_protected_shift():
    pair = realize([0.0])
    # det(A - mu B) = -1 identically: no roots anywhere
    assert pencil_roots(Pencil(pair.a, pair.b), 0.0) == []


def test_pencil_standard_eigenvalues():
    p = Pencil(SymmetricMatrix.diag([1.0, -1.0]), SymmetricMatrix(np.eye(2)))
    assert np.allclose(pencil_roots(p, 0.0), [-1.0, 1.0], atol=1e-10)
    # det(A - mu I) has roots +-1; only those with |mu| <= max_abs are kept
    assert pencil_roots(p, 0.0, max_abs=0.5) == []


def test_pencil_root_matches_solve_t():
    pair = realize([0.0])
    p = Pencil(pair.a, pair.b)
    for lam in (1.5, 2.0, -0.5):
        roots = pencil_roots(p, lam)
        # pencil roots mu satisfy det(A - lam - mu B) = 0, i.e. t = -mu
        assert len(roots) == 1
        assert -roots[0] == pytest.approx(solve_t(pair, lam), abs=1e-9)


def test_pencil_rejects_bad_arguments():
    # a shift on the spectrum of A (here +-1) is hit at t* = 0 already; the
    # compressed resolvent does not exist there, so no roots are reported
    pair = realize([0.0])
    p = Pencil(pair.a, pair.b)
    for lam in (1.0, -1.0):
        assert solve_t(pair, lam) == pytest.approx(0.0)
        with pytest.raises(PoleError):
            pencil_roots(p, lam)


def test_round_trip_property_tight_separation():
    rng = np.random.default_rng(67)
    for _ in range(10):
        m = int(rng.integers(2, 11))
        points = separated_points(rng, m, -10.0, 10.0, 1e-3)
        pair = realize(points, weights=rng.uniform(0.5, 2.0, m))
        report = protected_set(Pencil(pair.a, pair.b))
        values = np.array([p.value for p in report.protected_points])
        scale = max(1.0, frobenius(pair.a))
        assert len(values) == m
        assert np.max(np.abs(values - points)) <= 1e-9 * scale
        assert all(p.residual <= 1e-8 for p in report.protected_points)
    # n = 128: 127 prescribed points, the pair rotated out of arrowhead form.
    points = separated_points(rng, 127, -10.0, 10.0, 1e-3)
    pair = realize(points, weights=rng.uniform(0.5, 1.5, 127))
    q = random_orthogonal(rng, 128)
    a = SymmetricMatrix(q @ pair.a.mat @ q.T)
    report = protected_set(Pencil(a, SymmetricMatrix(q @ pair.b.mat @ q.T)))
    values = np.array([p.value for p in report.protected_points])
    assert len(values) == 127
    assert np.max(np.abs(values - points)) <= 1e-9 * max(1.0, frobenius(a))
