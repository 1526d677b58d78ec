import math

import numpy as np
import pytest

from specprotect import (
    DegeneratePerturbationError,
    NotProtectedError,
    Pencil,
    SymmetricMatrix,
    brute_force_unprotected,
    compressed_resolvent,
    distance_bounds,
    eigh,
    gaps,
    is_protected,
    nilpotency_index,
    pencil_roots,
    protected_set,
    protection_residual,
    pseudo_resolvent_defect,
    realize,
    realize_via_poles,
    shifted_inverse_formula,
    spectral_flow,
    standard_t_grid,
)
from conftest import (
    dense_resolvent,
    random_orthogonal,
    random_psd,
    random_symmetric,
    separated_points,
)


def test_residual_zero_on_example(example_pair):
    a, b = example_pair
    assert protection_residual(Pencil(a, b), 0.0) <= 1e-15


def test_residual_identity_case():
    eye = SymmetricMatrix(np.eye(2))
    # ||I . I . I||_F / (||I||_F^2 / 1) = sqrt(2)/2
    assert protection_residual(Pencil(eye, eye), 0.0) == pytest.approx(math.sqrt(2) / 2)


def test_residual_positive_when_product_nonzero():
    a = SymmetricMatrix.diag([1.0, -1.0])
    b = SymmetricMatrix.diag([1.0, 0.0])
    assert protection_residual(Pencil(a, b), 0.0) > 0.1


def test_is_protected_example(example_pair):
    p = Pencil(*example_pair)
    assert is_protected(p, 0.0).protected
    verdict = is_protected(p, 0.5)
    assert not verdict.protected
    # B (A - 1/2)^{-1} B = f(1/2) B with f(1/2) = 1 - 1/3 = 2/3; normalized
    # by dist 1/2 the residual is 1/3
    assert verdict.residual == pytest.approx(1 / 3)


def test_identity_perturbation_never_protected():
    rng = np.random.default_rng(31)
    a = random_symmetric(rng, 5)
    p = Pencil(a, SymmetricMatrix(np.eye(5)))
    for gap in gaps(p.dec):
        if gap.bounded and gap.width > 1e-3:
            lam = 0.5 * (gap.lower + gap.upper)
            assert not is_protected(p, lam).protected


def test_zero_perturbation_rejected(example_pair):
    a, _ = example_pair
    with pytest.raises(DegeneratePerturbationError):
        Pencil(a, SymmetricMatrix(np.zeros((2, 2))))


def test_protected_set_example(example_pair):
    report = protected_set(Pencil(*example_pair))
    assert len(report.protected_points) == 1
    point = report.protected_points[0]
    assert point.value == pytest.approx(0.0, abs=1e-12)
    assert point.residual <= 1e-12
    assert point.gap.contains(point.value)


def test_protected_set_empty_for_identity():
    report = protected_set(
        Pencil(SymmetricMatrix.diag([1.0, -1.0]), SymmetricMatrix(np.eye(2)))
    )
    assert report.protected_points == []


def test_protected_set_pole_construction():
    pp = realize_via_poles([0.0, 1.0, 2.0], np.ones(3) / math.sqrt(3))
    report = protected_set(Pencil(pp.a, pp.b))
    values = [p.value for p in report.protected_points]
    assert len(values) == 2
    assert 0 < values[0] < 1 < values[1] < 2
    assert np.allclose(values, pp.protected_points, atol=1e-10)
    # cross-check against the flow oracle
    never = brute_force_unprotected(
        pp.a, pp.b, values, standard_t_grid(), hit_tol=1e-3
    )
    assert never == {0, 1}


def test_at_most_one_protected_point_per_gap():
    rng = np.random.default_rng(37)
    for _ in range(20):
        m = int(rng.integers(2, 7))
        pair = realize(np.sort(rng.uniform(-5, 5, m)) * 1.0 + np.arange(m) * 2.0)
        report = protected_set(Pencil(pair.a, pair.b))
        seen = set()
        for p in report.protected_points:
            key = (p.gap.lower, p.gap.upper)
            assert key not in seen
            seen.add(key)
            assert p.gap.bounded


def test_inverse_formula_at_zero_shift(example_pair):
    a, b = example_pair
    m, defect = shifted_inverse_formula(Pencil(a, b), 0.0, 0.0)
    # A^{-1} = A for this pair
    assert np.allclose(m.mat, a.mat, atol=1e-12)
    assert defect <= 1e-12


def test_inverse_formula_protected(example_pair):
    p = Pencil(*example_pair)
    for t in (3.0, -1.0, 10.0, 1e3):
        _, defect = shifted_inverse_formula(p, 0.0, t)
        assert defect <= 1e-8 * (1 + abs(t))


def test_inverse_formula_fails_unprotected():
    a = SymmetricMatrix.diag([1.0, -1.0])
    b = SymmetricMatrix.diag([1.0, 0.0])
    m, defect = shifted_inverse_formula(Pencil(a, b), 0.0, 1.0)
    assert np.allclose(m.mat, np.diag([0.0, -1.0]), atol=1e-12)
    assert defect > 0.1


def test_nilpotency_example(example_pair):
    a, b = example_pair
    assert nilpotency_index(Pencil(a, b), 0.0) == 2
    n = dense_resolvent(a, 0.0) @ b.mat
    assert np.allclose(n, 0.5 * np.array([[1, 1], [-1, -1.0]]), atol=1e-12)
    assert np.allclose(n @ n, 0.0, atol=1e-12)


def test_nilpotency_identity_none():
    eye = SymmetricMatrix(np.eye(2))
    assert nilpotency_index(Pencil(eye, eye), 0.0) is None


def test_nilpotency_realized_pair():
    pair = realize([0.0, 5.0])
    assert nilpotency_index(Pencil(pair.a, pair.b), 0.0) == 2


def test_pseudo_resolvent_protected(example_pair):
    a, b = example_pair
    assert pseudo_resolvent_defect(Pencil(a, b), 0.0, 1.0, 2.0) <= 1e-10


def test_pseudo_resolvent_equal_arguments_trivial():
    rng = np.random.default_rng(41)
    a = random_symmetric(rng, 5)
    p = Pencil(a, random_psd(rng, 5))
    gap = max((g for g in gaps(p.dec) if g.bounded), key=lambda g: g.width)
    lam = 0.5 * (gap.lower + gap.upper)
    assert pseudo_resolvent_defect(p, lam, 1.3, 1.3) == 0.0


def test_pseudo_resolvent_unprotected():
    a = SymmetricMatrix.diag([1.0, -1.0])
    b = SymmetricMatrix.diag([1.0, 0.0])
    assert pseudo_resolvent_defect(Pencil(a, b), 0.0, 1.0, -1.0) > 1e-3


def test_distance_bounds_example(example_pair):
    a, b = example_pair
    lower, upper, actual = distance_bounds(Pencil(a, b), 0.0, 4.0)
    assert lower == pytest.approx(1 / 5)
    assert upper == pytest.approx(1 / 3)
    assert actual == pytest.approx(1 / (2 + math.sqrt(5)), rel=1e-10)
    assert lower <= actual <= upper


def test_distance_bounds_no_upper_at_small_t(example_pair):
    a, b = example_pair
    lower, upper, actual = distance_bounds(Pencil(a, b), 0.0, 0.0)
    assert lower == pytest.approx(1.0)
    assert upper is None
    assert actual == pytest.approx(1.0)


def test_distance_bounds_asymptotics(example_pair):
    a, b = example_pair
    t = 1e3
    _, _, actual = distance_bounds(Pencil(a, b), 0.0, t)
    assert actual * t == pytest.approx(1.0, rel=2e-3)


def test_distance_bounds_requires_protection():
    a = SymmetricMatrix.diag([1.0, -1.0])
    b = SymmetricMatrix.diag([1.0, 0.0])
    with pytest.raises(NotProtectedError):
        distance_bounds(Pencil(a, b), 0.0, 2.0)


def test_spectral_flow_example(example_pair):
    a, b = example_pair
    flow = spectral_flow(a, b, [0.0])
    assert np.allclose(flow.branches[0], [-1.0, 1.0], atol=1e-12)
    flow = spectral_flow(a, b, [2.0])
    assert np.allclose(
        flow.branches[0], [1 - math.sqrt(2), 1 + math.sqrt(2)], atol=1e-12
    )


def test_spectral_flow_indefinite_control(indefinite_pair):
    a, b = indefinite_pair
    ts = np.linspace(-5, 5, 11)
    flow = spectral_flow(a, b, ts)
    expected = np.sqrt(1 + ts**2)
    assert np.allclose(flow.branches[:, 0], -expected, atol=1e-12)
    assert np.allclose(flow.branches[:, 1], expected, atol=1e-12)


def test_spectral_flow_scalar():
    flow = spectral_flow(
        SymmetricMatrix([[0.0]]), SymmetricMatrix([[1.0]]), [-1.0, 0.0, 2.0]
    )
    assert np.allclose(flow.branches[:, 0], [-1.0, 0.0, 2.0])


def test_spectral_flow_trace_identity():
    rng = np.random.default_rng(43)
    a = random_symmetric(rng, 7)
    b = random_psd(rng, 7)
    ts = np.linspace(-3, 3, 13)
    flow = spectral_flow(a, b, ts)
    tr_a = np.trace(a.mat)
    tr_b = np.trace(b.mat)
    for t, row in zip(flow.t_values, flow.branches):
        expected = tr_a + t * tr_b
        assert np.sum(row) == pytest.approx(expected, rel=1e-9, abs=1e-9)
        assert np.all(np.diff(row) >= 0)


def test_spectral_flow_rejects_bad_grid(example_pair):
    a, b = example_pair
    with pytest.raises(ValueError):
        spectral_flow(a, b, [])
    with pytest.raises(ValueError):
        spectral_flow(a, b, [1.0, 1.0])


def test_brute_force_example(example_pair):
    a, b = example_pair
    never = brute_force_unprotected(
        a, b, [-0.5, 0.0, 0.5], np.linspace(-100, 100, 4001), hit_tol=1e-3
    )
    assert never == {1}


def test_brute_force_zero_perturbation_spectrum_constant():
    a = SymmetricMatrix.diag([1.0, -1.0])
    b = SymmetricMatrix(np.zeros((2, 2)))
    never = brute_force_unprotected(
        a, b, [1.0, 0.0, -1.0, 5.0], [-1.0, 0.0, 1.0], hit_tol=1e-3
    )
    assert never == {1, 3}


def test_brute_force_indefinite_control(indefinite_pair):
    a, b = indefinite_pair
    lam_grid = np.linspace(-0.95, 0.95, 39)
    never = brute_force_unprotected(a, b, lam_grid, standard_t_grid(), 1e-3)
    assert never == set(range(len(lam_grid)))


def test_criterion_equivalence_on_realized_pairs():
    rng = np.random.default_rng(47)
    grid = standard_t_grid()
    for _ in range(5):
        m = int(rng.integers(1, 5))
        points = np.sort(rng.uniform(-4, 4, m))
        points = points + np.arange(m) * 1.5  # enforce separation
        pair = realize(points)
        never = brute_force_unprotected(pair.a, pair.b, points, grid, 1e-3)
        assert never == set(range(m))


def test_unprotected_points_are_hit_at_located_t():
    # rank-one projection: lam enters the spectrum at t = -1/f(lam)
    pp = realize_via_poles([-1.0, 1.0])
    rng = np.random.default_rng(53)
    d = eigh(pp.a)
    from specprotect import herglotz_from

    h = herglotz_from(d, pp.y)
    for _ in range(20):
        lam = rng.uniform(-0.9, 0.9)
        if abs(lam - pp.protected_points[0]) < 1e-2:
            continue
        t_star = -1.0 / h.eval(lam)
        never = brute_force_unprotected(pp.a, pp.b, [lam], [t_star], 1e-3)
        assert never == set()


def test_standard_t_grid_shape():
    grid = standard_t_grid()
    assert 0.0 in grid
    assert np.max(grid) == pytest.approx(1e6)
    assert np.min(grid) == pytest.approx(-1e6)
    assert np.all(np.diff(grid) > 0)
    # 25 points per decade over 8 decades, both signs, plus zero
    assert len(grid) == 2 * (8 * 25 + 1) + 1


def test_distance_bounds_next_to_an_eigenvalue():
    # Prescribed points 1e-3 apart put an eigenvalue of A within about 1e-3 of
    # the protected P_0, where the dense product (A - P_0)^{-1} B (A - P_0)^{-1}
    # failed the symmetry check of SymmetricMatrix and raised ValueError.
    for seed in range(2, 6):
        rng = np.random.default_rng(seed)
        p0 = rng.uniform(-5, 5)
        points = np.concatenate([[p0, p0 + 1e-3], np.sort(rng.uniform(-5, 5, 5))])
        pair = realize(points)
        q = random_orthogonal(rng, pair.a.n)
        p = Pencil(
            SymmetricMatrix(q @ pair.a.mat @ q.T), SymmetricMatrix(q @ pair.b.mat @ q.T)
        )
        bounds = distance_bounds(p, float(p0), 1.0)
        assert bounds.lower > 0


PSEUDO_PAIRS = [(1.0, 2.0), (0.5, -1.0), (-2.0, 3.0)]
INVERSE_T = (1.0, -10.0, 1e3)


def _dense_checks(a, b, lam):
    """Every kernel quantity from an explicit (A - lam)^{-1} and numpy's eigh."""
    n = a.n
    r = dense_resolvent(a, lam)
    bm = b.mat
    dist = np.min(np.abs(np.linalg.eigvalsh(a.mat) - lam))
    brb = bm @ r @ bm
    nmat = r @ bm

    def family(s):
        return (r - s * (r @ bm @ r)) @ bm

    pseudo = []
    for z, w in PSEUDO_PAIRS:
        rz, rw = family(z), family(w)
        pseudo.append(np.linalg.norm(rz - rw - (w - z) * (rz @ rw)))
    inverse = []
    for t in INVERSE_T:
        m = r - t * (r @ bm @ r)
        inverse.append(np.linalg.norm((a.mat + t * bm - lam * np.eye(n)) @ m - np.eye(n)))
    bw, bv = np.linalg.eigh(bm)
    half = (bv * np.sqrt(np.clip(bw, 0.0, None))) @ bv.T
    s = np.linalg.eigvalsh(half @ r @ half)
    return {
        "brb": brb,
        "residual": np.linalg.norm(brb) * dist / np.linalg.norm(bm) ** 2,
        "nilpotent": np.linalg.norm(nmat @ nmat) <= 1e-10 * np.linalg.norm(nmat) ** 2,
        "pseudo": pseudo,
        "inverse": inverse,
        "nu": np.linalg.norm(r @ bm @ r, 2),
        "roots": np.sort(1.0 / s[np.abs(s) * 1e6 >= 1.0]),
        # magnitude of the terms each quantity is built from, for round-off
        "norm_n": np.linalg.norm(r, 2) * np.linalg.norm(bm, 2),
    }


def _kernel_cases(rng):
    """Random pairs, n = 1..8 and every rank, at shifts off the spectrum, plus
    rotated realize pairs at each P_k and at one unprotected shift."""
    cases = []
    for n in range(1, 9):
        for rank in range(1, n + 1):
            a = random_symmetric(rng, n)
            evs = np.linalg.eigvalsh(a.mat)
            while True:
                lam = rng.uniform(evs[0] - 1.0, evs[-1] + 1.0)
                if np.min(np.abs(evs - lam)) > 1e-2:
                    break
            cases.append((a, random_psd(rng, n, rank), lam, False))
    for m in range(1, 8):
        points = separated_points(rng, m, -5.0, 5.0, 0.2)
        pair = realize(points, weights=rng.uniform(0.5, 1.5, m))
        q = random_orthogonal(rng, m + 1)
        a = SymmetricMatrix(q @ pair.a.mat @ q.T)
        b = SymmetricMatrix(q @ pair.b.mat @ q.T)
        cases.extend((a, b, float(point), True) for point in points)
        evs = np.linalg.eigvalsh(a.mat)
        gap = np.argmax(np.diff(np.sort(np.concatenate([evs, points]))))
        ordered = np.sort(np.concatenate([evs, points]))
        cases.append((a, b, 0.5 * (ordered[gap] + ordered[gap + 1]), False))
    return cases


def test_kernel_matches_dense_reference():
    rng = np.random.default_rng(89)
    for a, b, lam, protected in _kernel_cases(rng):
        p = Pencil(a, b)
        ref = _dense_checks(a, b, lam)
        big = 1.0 + ref["norm_n"]
        f = compressed_resolvent(p, lam)
        scale_brb = np.linalg.norm(b.mat) ** 2 * big
        assert np.linalg.norm(p.g @ f @ p.g.T - ref["brb"]) <= 1e-11 * scale_brb
        residual = protection_residual(p, lam)
        assert residual == pytest.approx(ref["residual"], rel=1e-9, abs=1e-12)
        assert is_protected(p, lam).protected == protected
        assert (ref["residual"] <= 1e-8) == protected
        assert (nilpotency_index(p, lam) == 2) == ref["nilpotent"] == protected
        for (z, w), dense in zip(PSEUDO_PAIRS, ref["pseudo"]):
            scale = abs(w - z) * (abs(z + w) * big**3 + abs(z * w) * big**4)
            kernel = pseudo_resolvent_defect(p, lam, z, w)
            assert abs(kernel - dense) <= 1e-11 * scale
        for t, dense in zip(INVERSE_T, ref["inverse"]):
            _, kernel = shifted_inverse_formula(p, lam, t)
            assert abs(kernel - dense) <= 1e-11 * (1.0 + t * t) * big**2
        roots = pencil_roots(p, lam)
        assert len(roots) == len(ref["roots"])
        assert np.allclose(roots, ref["roots"], rtol=1e-9, atol=0.0)
        assert (len(roots) == 0) == protected
        if protected:
            eta = np.linalg.norm(dense_resolvent(a, lam), 2)
            for t in INVERSE_T:
                lower = distance_bounds(p, lam, t).lower
                assert lower == pytest.approx(1.0 / (abs(t) * ref["nu"] + eta), rel=1e-9)
