"""Acceptance suite: one test per criterion, each printing a pass line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines as they pass.
"""

import json
import math

import numpy as np
import pytest

from specprotect import (
    Pencil,
    SymmetricMatrix,
    brute_force_unprotected,
    distance_bounds,
    eigh,
    frobenius,
    gaps,
    is_protected,
    nilpotency_index,
    protected_set,
    pseudo_resolvent_defect,
    realize,
    realize_via_poles,
    shifted_inverse_formula,
    solve_t,
    spectral_flow,
    standard_t_grid,
)
from specprotect.cli import main
from conftest import random_orthogonal, random_psd, random_symmetric, separated_points

TOL = 1e-8
PSEUDO_PAIRS = [(1.0, 2.0), (0.5, -1.0), (-2.0, 3.0)]
INVERSE_T = (1.0, -1.0, 10.0, -10.0, 1e3, -1e3)


def _example_pair():
    a = SymmetricMatrix([[1.0, 0.0], [0.0, -1.0]])
    b = SymmetricMatrix(0.5 * np.ones((2, 2)))
    return a, b


def _passed(k, message):
    print(f"ACCEPTANCE {k}: PASS - {message}")


def test_criterion_01_example_golden_suite():
    a, b = _example_pair()
    report = protected_set(Pencil(a, b))
    assert len(report.protected_points) == 1
    point = report.protected_points[0]
    assert abs(point.value) <= 1e-12
    assert point.residual <= 1e-12
    for t in (0.0, 1.0, -1.0, 2.0, -2.0, 10.0, -10.0):
        branches = spectral_flow(a, b, [t]).branches[0]
        root = math.sqrt(t**2 / 4 + 1)
        assert np.allclose(branches, sorted([t / 2 - root, t / 2 + root]), atol=1e-10)
        actual = np.min(np.abs(branches))
        formula = 1.0 / (abs(t) / 2 + root)
        assert actual == pytest.approx(formula, abs=1e-10)
    _passed(1, "2x2 golden values: protected set {0}, flow and distance formulas")


def test_criterion_02_distance_sandwich():
    a, b = _example_pair()
    for t in (2.0, 10.0, 1e3):
        lower, upper, actual = distance_bounds(Pencil(a, b), 0.0, t)
        assert lower == pytest.approx(1.0 / (t + 1), rel=1e-12)
        assert upper == pytest.approx(1.0 / (t - 1), rel=1e-12)
        assert 1.0 / (t + 1) <= actual <= 1.0 / (t - 1)
    # |t| = 1e6: the eigensolver's absolute error (~eps * |t|) swamps the
    # inequality margin, so the distance is evaluated through the identity
    # dist = |det| / max|eig|.  The cofactor determinant is exact here: all
    # entries and cross products are integers below 2^53.
    for t in (1e6, -1e6):
        m = a.mat + t * b.mat
        evs = np.linalg.eigvalsh(m)
        det = m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]
        actual = abs(det) / np.max(np.abs(evs))
        assert 1.0 / (abs(t) + 1) <= actual <= 1.0 / (abs(t) - 1)
        assert actual * abs(t) == pytest.approx(1.0, rel=5e-3)
    _passed(2, "two-sided distance bounds hold for |t| in {2, 10, 1e3, 1e6}")


def _protected_instances(rng, count):
    instances = []
    while len(instances) < count:
        m = int(rng.integers(1, 5))
        points = separated_points(rng, m, -5.0, 5.0, 1.0)
        pair = realize(points, weights=rng.uniform(0.5, 1.5, m))
        q = random_orthogonal(rng, pair.a.n)
        a = SymmetricMatrix(q @ pair.a.mat @ q.T)
        b = SymmetricMatrix(q @ pair.b.mat @ q.T)
        lam = float(points[int(rng.integers(m))])
        instances.append((a, b, lam))
    return instances


def _unprotected_instances(rng, count):
    instances = []
    while len(instances) < count:
        n = int(rng.integers(4, 9))
        a = random_symmetric(rng, n)
        b = random_psd(rng, n, rank=int(rng.integers(1, n + 1)))
        if frobenius(b) < 1e-6:
            continue
        bounded = [g for g in gaps(eigh(a)) if g.bounded]
        gap = max(bounded, key=lambda g: g.width)
        if gap.width < 0.1:
            continue
        instances.append((a, b, 0.5 * (gap.lower + gap.upper)))
    return instances


def _indicators(a, b, lam):
    p = Pencil(a, b)
    verdict = is_protected(p, lam, tol=TOL)
    nil = nilpotency_index(p, lam)
    pseudo = max(pseudo_resolvent_defect(p, lam, z, w) for z, w in PSEUDO_PAIRS)
    inverse_ok = all(
        shifted_inverse_formula(p, lam, t)[1] <= TOL * (1 + abs(t))
        for t in INVERSE_T
    )
    return {
        "residual": verdict.protected,
        "nilpotent": nil in (1, 2),
        "pseudo": pseudo <= TOL,
        "inverse": inverse_ok,
    }


def test_criterion_03_equivalence_randomized():
    rng = np.random.default_rng(2024)
    for a, b, lam in _protected_instances(rng, 100):
        flags = _indicators(a, b, lam)
        assert all(flags.values()), f"disagreement on protected instance: {flags}"
    for a, b, lam in _unprotected_instances(rng, 100):
        flags = _indicators(a, b, lam)
        assert not any(flags.values()), f"disagreement on unprotected instance: {flags}"
    _passed(3, "four criteria agree unanimously on 100 + 100 random instances")


def _random_realized_pairs(rng, count):
    pairs = []
    for _ in range(count):
        m = int(rng.integers(1, 11))
        points = separated_points(rng, m, -10.0, 10.0, 0.2)
        pairs.append((points, realize(points, weights=rng.uniform(0.5, 2.0, m))))
    return pairs


def test_criterion_04_realization_round_trip():
    rng = np.random.default_rng(404)
    grid = standard_t_grid()
    for points, pair in _random_realized_pairs(rng, 50):
        report = protected_set(Pencil(pair.a, pair.b), tol=TOL)
        values = np.array([p.value for p in report.protected_points])
        scale = max(1.0, frobenius(pair.a))
        assert len(values) == len(points)
        assert np.max(np.abs(values - points)) <= 1e-9 * scale
        never = brute_force_unprotected(pair.a, pair.b, points, grid, hit_tol=1e-3)
        assert never == set(range(len(points)))
    _passed(4, "50 random prescribed sets: round trip exact, oracle never hits P")


def test_criterion_05_coverage_witness():
    rng = np.random.default_rng(505)
    checks = 0
    for points, pair in _random_realized_pairs(rng, 5):
        scale = max(1.0, frobenius(pair.a))
        done = 0
        while done < 200:
            lam = rng.uniform(np.min(points) - 2.0, np.max(points) + 2.0)
            if np.min(np.abs(points - lam)) < 1e-2:
                continue
            t_star = solve_t(pair, lam)
            assert math.isfinite(t_star)
            evs = np.linalg.eigvalsh(pair.a.mat + t_star * pair.b.mat)
            assert np.min(np.abs(evs - lam)) <= 1e-9 * max(scale, abs(t_star))
            done += 1
        checks += done
    assert checks == 1000
    _passed(5, "solve_t reaches 1000 random targets with dist <= 1e-9 * scale")


def test_criterion_06_pole_construction():
    pp = realize_via_poles(np.arange(10.0))
    assert len(pp.protected_points) == 9
    for k, point in enumerate(pp.protected_points):
        assert k < point < k + 1
    mu = np.sort(1.0 / np.arange(1, 21))
    pp = realize_via_poles(mu)
    assert len(pp.protected_points) == 19
    for k, point in enumerate(pp.protected_points):
        assert mu[k] < point < mu[k + 1]
    assert 1 / 20 < pp.protected_points[0] < 1 / 19
    _passed(6, "pole construction interleaves: 9 points for 0..9, 19 for 1/k family")


def test_criterion_07_indefinite_negative_control(tmp_path):
    a = SymmetricMatrix([[1.0, 0.0], [0.0, -1.0]])
    b = SymmetricMatrix([[0.0, 1.0], [1.0, 0.0]])
    ts = np.linspace(-10.0, 10.0, 41)
    flow = spectral_flow(a, b, ts)
    expected = np.sqrt(1 + ts**2)
    assert np.max(np.abs(flow.branches[:, 0] + expected)) <= 1e-10
    assert np.max(np.abs(flow.branches[:, 1] - expected)) <= 1e-10
    lam_grid = np.linspace(-0.98, 0.98, 99)
    never = brute_force_unprotected(a, b, lam_grid, standard_t_grid(), 1e-3)
    assert never == set(range(len(lam_grid)))
    a_path = tmp_path / "A.json"
    b_path = tmp_path / "B.json"
    a_path.write_text(json.dumps({"n": 2, "matrix": [1.0, 0.0, 0.0, -1.0]}))
    b_path.write_text(json.dumps({"n": 2, "matrix": [0.0, 1.0, 1.0, 0.0]}))
    assert main(["analyze", str(a_path), str(b_path), "--out", str(tmp_path / "r.json")]) == 3
    _passed(7, "indefinite control: whole interval protected, PSD gate rejects B")


def test_criterion_08_herglotz_machinery():
    from specprotect import HerglotzScalar, gap_root, gaps_between

    rng = np.random.default_rng(808)
    derivative_checks = 0
    while derivative_checks < 1000:
        m = int(rng.integers(2, 9))
        poles = separated_points(rng, m, -10.0, 10.0, 1e-2)
        weights = rng.uniform(0.0, 2.0, m)
        if np.sum(weights) == 0:
            continue
        h = HerglotzScalar(poles, weights)
        all_gaps = gaps_between(h.poles)
        bounded = [g for g in all_gaps if g.bounded]
        gap = bounded[int(rng.integers(len(bounded)))]
        lam = rng.uniform(gap.lower + 0.2 * gap.width, gap.upper - 0.2 * gap.width)
        delta = 1e-5 * gap.width
        fd = (h.eval(lam + delta) - h.eval(lam - delta)) / (2 * delta)
        assert fd == pytest.approx(h.derivative(lam), rel=1e-6)
        assert h.derivative(lam) > 0
        derivative_checks += 1
        # root structure: at most one root per bounded gap, none on the rays
        for g in all_gaps:
            root = gap_root(h, g)
            if g.bounded:
                if root is not None:
                    assert g.contains(root)
            else:
                assert root is None
        left = poles[0] - 1.0 - rng.uniform(0, 5)
        right = poles[-1] + 1.0 + rng.uniform(0, 5)
        assert h.eval(left) > 0
        assert h.eval(right) < 0
    _passed(8, "derivative matches finite differences; roots confined to bounded gaps")


def test_criterion_09_trace_motion():
    rng = np.random.default_rng(909)
    a = random_symmetric(rng, 8)
    tr_a = float(np.trace(a.mat))
    for _ in range(100):
        b = random_psd(rng, 8, rank=int(rng.integers(1, 9)))
        tr_b = float(np.trace(b.mat))
        if tr_b < 1e-9:
            continue
        flow = spectral_flow(a, b, [0.0, 0.5, 1.0])
        for t, row in zip(flow.t_values, flow.branches):
            expected = tr_a + t * tr_b
            assert np.sum(row) == pytest.approx(expected, rel=1e-9, abs=1e-9)
        moved = np.max(np.abs(flow.branches[2] - flow.branches[0]))
        assert moved > 1e-9 * max(1.0, tr_b)
    _passed(9, "trace identity to 1e-9 and spectrum motion at t=1 for 100 PSD B")


def test_criterion_10_cli_contract(tmp_path):
    a_path = str(tmp_path / "A.json")
    b_path = str(tmp_path / "B.json")
    assert main(["realize", "--points=-2,0.5,3", "--out-a", a_path, "--out-b", b_path]) == 0
    # determinism: byte-identical reruns
    r1, r2 = str(tmp_path / "r1.json"), str(tmp_path / "r2.json")
    assert main(["analyze", a_path, b_path, "--out", r1]) == 0
    assert main(["analyze", a_path, b_path, "--out", r2]) == 0
    assert open(r1, "rb").read() == open(r2, "rb").read()
    f1, f2 = str(tmp_path / "f1.csv"), str(tmp_path / "f2.csv")
    flow_args = ["flow", a_path, b_path, "--t-min", "-3", "--t-max", "3", "--t-steps", "13"]
    assert main(flow_args + ["--out", f1]) == 0
    assert main(flow_args + ["--out", f2]) == 0
    assert open(f1, "rb").read() == open(f2, "rb").read()
    # file round trip reproduces the prescribed points
    doc = json.loads(open(r1).read())
    found = [p["value"] for p in doc["protected_points"]]
    assert np.allclose(found, [-2.0, 0.5, 3.0], atol=1e-9)
    # exit-code table
    bad = str(tmp_path / "bad.json")
    open(bad, "w").write("{broken")
    assert main(["analyze", bad, b_path]) == 2
    assert main(["realize", "--points", "1,1"]) == 2
    asym = str(tmp_path / "asym.json")
    json.dump({"n": 2, "matrix": [0.0, 5.0, 1.0, 0.0]}, open(asym, "w"))
    assert main(["analyze", asym, b_path]) == 3
    indef = str(tmp_path / "ind.json")
    json.dump({"n": 2, "matrix": [0.0, 1.0, 1.0, 0.0]}, open(indef, "w"))
    ex_a = str(tmp_path / "exA.json")
    json.dump({"n": 2, "matrix": [1.0, 0.0, 0.0, -1.0]}, open(ex_a, "w"))
    assert main(["analyze", ex_a, indef]) == 3
    zero = str(tmp_path / "zero.json")
    json.dump({"n": 2, "matrix": [0.0, 0.0, 0.0, 0.0]}, open(zero, "w"))
    assert main(["analyze", ex_a, zero]) == 4
    ex_b = str(tmp_path / "exB.json")
    json.dump({"n": 2, "matrix": [0.5, 0.5, 0.5, 0.5]}, open(ex_b, "w"))
    assert main(["verify", ex_a, ex_b, "--lambda", "0.5", "--tol", "10"]) == 5
    _passed(10, "CLI determinism, round trip, and full exit-code table")
