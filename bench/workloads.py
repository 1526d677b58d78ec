"""Seeded inputs, op lists and output oracles of the benchmark workloads.

Each workload is a fixed cycle of CLI invocations.  ``build`` draws several
input sets for it from the seed and writes the finished matrix files; the
program under test only ever sees those files.  The loop runs the cycle on
one input set after another, so a run averages over several draws: the
pure-Python eigensolver's cost differs by up to ±20% from one matrix to the
next, and with one draw per run the figures spread that much between seeds.

Each op carries an oracle that judges its exit code, stdout and output file
with numpy alone (``np.linalg.eigh`` / ``eigvalsh``), independently of the
program's own eigensolver.

``analyze-adversarial`` and ``verify-adversarial`` are not workloads of the
benchmark: they keep the inputs on which the program is known to fail, so
that those failures can be reproduced.
"""

from __future__ import annotations

import csv
import dataclasses
import json
import os
from typing import Callable

import numpy as np

# Tolerances of the oracles; the first is the criterion ``realize --verify``
# applies to a recovered protected point.
POINT_RTOL = 1e-9
FLOW_RTOL = 1e-9
RESIDUAL_TOL = 1e-8          # the CLI's default --tol
POINT_RANGE = (-5.0, 5.0)    # prescribed protected points are drawn from here
FLOW_T_RANGE = (-5.0, 5.0)
NEAR_MISS = 0.01             # verify shift P_0 + NEAR_MISS (ROADMAP item 4)

# Full sizes, and the tiny ones the self-test runs in seconds; "pool" is the
# number of input sets.
FULL = {"analyze": (16, 16, 48), "verify": (8, 12), "flow": 8, "steps": 101, "pool": 16}
TINY = {"analyze": (4, 4, 6), "verify": (4, 5), "flow": 4, "steps": 11, "pool": 2}


@dataclasses.dataclass(frozen=True)
class Op:
    """One CLI invocation and the oracle that judges it.

    ``check(exit_code, stdout)`` returns None when the output is right and a
    reason otherwise.  ``group`` names the op's class in per-op breakdowns.
    """

    label: str
    group: str
    argv: list[str]
    inputs: tuple[str, ...]
    check: Callable[[int, str], str | None]


@dataclasses.dataclass(frozen=True)
class Pair:
    a: np.ndarray
    b: np.ndarray
    points: np.ndarray | None   # prescribed protected set, for realize pairs

    @property
    def n(self) -> int:
        return self.a.shape[0]

    @property
    def scale(self) -> float:
        return max(1.0, float(np.linalg.norm(self.a)))


def _sym(m: np.ndarray) -> np.ndarray:
    return 0.5 * (m + m.T)


def _rotation(rng: np.random.Generator, n: int) -> np.ndarray:
    q, r = np.linalg.qr(rng.standard_normal((n, n)))
    return q * np.sign(np.diag(r))


def spread_points(rng: np.random.Generator, m: int) -> np.ndarray:
    """m ascending points on POINT_RANGE, one in the middle half of each of m
    equal cells, so neighbours stay at least half a cell apart."""
    low, high = POINT_RANGE
    cell = (high - low) / m
    return low + cell * (np.arange(m) + rng.uniform(0.25, 0.75, m))


def realized_pair(rng: np.random.Generator, n: int, spread: bool = True) -> Pair:
    """``realize`` on n-1 points, rotated by a random orthogonal Q.

    The points are ``spread_points``; with ``spread=False`` they are uniform,
    so two of them can nearly coincide.
    """
    from specprotect import realize

    points = spread_points(rng, n - 1) if spread else np.sort(rng.uniform(*POINT_RANGE, n - 1))
    pair = realize(points)
    q = _rotation(rng, n)
    return Pair(_sym(q @ pair.a.mat @ q.T), _sym(q @ pair.b.mat @ q.T), points)


def random_pair(rng: np.random.Generator, n: int, rank: int, bounded: bool = True) -> Pair:
    """Gaussian symmetric A with B = G G^T of the given rank.

    In the eigenbasis of A, every entry of G has a magnitude between 0.5 and
    1.5 and a random sign, so no eigenvector of A is nearly orthogonal to
    range B.  With ``bounded=False`` G is Gaussian, and a rank-1 pair can have
    a protected point within 1e-9 of the gap's width from an eigenvalue of A.
    """
    if bounded:
        g = rng.uniform(0.5, 1.5, (n, rank)) * rng.choice([-1.0, 1.0], (n, rank))
    else:
        g = rng.standard_normal((n, rank))
    a = _sym(rng.standard_normal((n, n)))
    if bounded:
        g = np.linalg.eigh(a)[1] @ g
    return Pair(a, g @ g.T, None)


def _write_matrix(path: str, m: np.ndarray) -> None:
    doc = {"n": m.shape[0], "matrix": [float(x) for x in m.ravel()]}
    with open(path, "w") as handle:
        json.dump(doc, handle)


def _write_pair(workdir: str, name: str, pair: Pair) -> tuple[str, str]:
    """Write A and B under ``workdir``; ``name`` is unique within the run."""
    paths = (os.path.join(workdir, f"{name}_A.json"), os.path.join(workdir, f"{name}_B.json"))
    _write_matrix(paths[0], pair.a)
    _write_matrix(paths[1], pair.b)
    return paths


# ---------------------------------------------------------------- oracles


def _residual(pair: Pair, lam: float) -> float:
    """The protection residual ||B (A - lam)^{-1} B||_F / (||B||_F^2 / dist)."""
    w, v = np.linalg.eigh(pair.a)
    res = (v / (w - lam)) @ v.T
    dist = float(np.min(np.abs(w - lam)))
    return float(np.linalg.norm(pair.b @ res @ pair.b)) / (np.linalg.norm(pair.b) ** 2 / dist)


def _reported_points(code: int, stdout: str, report_path: str) -> list[float] | str:
    if code != 0:
        return f"exit code {code}"
    printed = [float(line) for line in stdout.split()]
    with open(report_path) as handle:
        reported = [p["value"] for p in json.load(handle)["protected_points"]]
    if printed != reported:
        return f"stdout points {printed} differ from report points {reported}"
    return reported


def check_analyze(pair: Pair, report_path: str, code: int, stdout: str) -> str | None:
    found = _reported_points(code, stdout, report_path)
    if isinstance(found, str):
        return found
    tol = POINT_RTOL * pair.scale
    if pair.points is not None:
        if len(found) != len(pair.points):
            return f"{len(found)} points reported, {len(pair.points)} prescribed"
        worst = float(np.max(np.abs(np.sort(found) - pair.points)))
        return None if worst <= tol else f"point off by {worst:.3e} > {tol:.3e}"
    rank = np.linalg.matrix_rank(pair.b)
    if rank > 1:
        return None if not found else f"rank-{rank} pair reported {len(found)} points"
    # Rank one: the protected set is one root in every bounded gap of A.
    spectrum = np.linalg.eigvalsh(pair.a)
    slots = np.searchsorted(spectrum, found)
    if sorted(slots) != list(range(1, pair.n)):
        return f"points {found} are not one per bounded gap of {spectrum}"
    worst = max(_residual(pair, lam) for lam in found)
    return None if worst <= RESIDUAL_TOL else f"residual {worst:.3e} > {RESIDUAL_TOL}"


def check_verify(pair: Pair, lam: float, code: int, stdout: str) -> str | None:
    if code != 0:
        return f"exit code {code}"
    protected = bool(np.min(np.abs(pair.points - lam)) <= POINT_RTOL * pair.scale)
    verdict = "protected" if protected else "not protected"
    head = stdout.splitlines()[0] if stdout else ""
    if not head.startswith(f"lambda = {lam!r}: {verdict} ("):
        return f"expected '{verdict}', got {head!r}"
    return None


def check_flow(pair: Pair, grid: np.ndarray, csv_path: str, code: int, stdout: str) -> str | None:
    if code != 0:
        return f"exit code {code}"
    with open(csv_path, newline="") as handle:
        rows = list(csv.reader(handle))[1:]
    if len(rows) != grid.size or any(len(row) != pair.n + 1 for row in rows):
        return f"expected {grid.size} rows of {pair.n + 1} columns"
    table = np.array(rows, dtype=float)
    expected = np.linalg.eigvalsh(pair.a[None, :, :] + grid[:, None, None] * pair.b[None, :, :])
    worst = max(float(np.max(np.abs(table[:, 0] - grid))), float(np.max(np.abs(table[:, 1:] - expected))))
    tol = FLOW_RTOL * pair.scale
    return None if worst <= tol else f"flow off by {worst:.3e} > {tol:.3e}"


# ---------------------------------------------------------------- workloads


def analyze_mix(rng: np.random.Generator, workdir: str, sizes: dict,
                adversarial: bool = False) -> list[Op]:
    """One realize, one rank-1 and one rank-2 pair per size.

    ``adversarial`` draws uniform points and Gaussian G instead, the inputs
    on which ``analyze`` is known to miss a protected point.
    """
    ops = []
    for i, n in enumerate(sizes["analyze"]):
        for kind, pair in (
            ("realize", realized_pair(rng, n, spread=not adversarial)),
            ("rank1", random_pair(rng, n, 1, bounded=not adversarial)),
            ("rank2", random_pair(rng, n, 2, bounded=not adversarial)),
        ):
            name = f"analyze{i}_{kind}_n{n}"
            a_path, b_path = _write_pair(workdir, name, pair)
            out = os.path.join(workdir, f"{name}_report.json")
            ops.append(Op(
                f"analyze n={n} {kind}", "analyze",
                ["analyze", a_path, b_path, "--out", out], (a_path, b_path),
                lambda code, stdout, p=pair, o=out: check_analyze(p, o, code, stdout),
            ))
    return ops


def clear_shifts(pair: Pair, spectrum: np.ndarray, count: int) -> list[float]:
    """Midpoints of the ``count`` widest gaps between consecutive points of
    spec(A) and P together: unprotected shifts far from both."""
    marks = np.sort(np.concatenate([spectrum, pair.points]))
    widest = np.argsort(np.diff(marks))[::-1][:count]
    return [float(0.5 * (marks[i] + marks[i + 1])) for i in sorted(widest)]


def verify_mix(rng: np.random.Generator, workdir: str, sizes: dict,
               adversarial: bool = False) -> list[Op]:
    """Two protected points and two unprotected shifts per pair.

    The unprotected shifts are ``clear_shifts``.  ``adversarial`` instead
    draws uniform points and shifts to a gap midpoint of A and to
    P_0 + NEAR_MISS, the inputs of the known false exits of ``verify``.
    """
    ops = []
    for n in sizes["verify"]:
        pair = realized_pair(rng, n, spread=not adversarial)
        a_path, b_path = _write_pair(workdir, f"verify_n{n}", pair)
        spectrum = np.linalg.eigvalsh(pair.a)
        k1, k2 = rng.choice(pair.points.size, 2, replace=False)
        shifts = [("P_k", float(pair.points[k1])), ("P_k", float(pair.points[k2]))]
        if adversarial:
            gap = int(rng.integers(1, n))
            shifts += [("gap midpoint", float(0.5 * (spectrum[gap - 1] + spectrum[gap]))),
                       ("near miss", float(pair.points[0] + NEAR_MISS))]
        else:
            shifts += [("clear", lam) for lam in clear_shifts(pair, spectrum, 2)]
        for kind, lam in shifts:
            group = "verify protected" if kind == "P_k" else "verify unprotected"
            ops.append(Op(
                f"verify n={n} {kind}", group,
                ["verify", a_path, b_path, f"--lambda={lam!r}"], (a_path, b_path),
                lambda code, stdout, p=pair, x=lam: check_verify(p, x, code, stdout),
            ))
    return ops


def flow_sweep(rng: np.random.Generator, workdir: str, sizes: dict) -> list[Op]:
    n, steps = sizes["flow"], sizes["steps"]
    grid = np.linspace(*FLOW_T_RANGE, steps)
    ops = []
    for kind, pair in (("realize", realized_pair(rng, n)), ("rank2", random_pair(rng, n, 2))):
        a_path, b_path = _write_pair(workdir, f"flow_{kind}_n{n}", pair)
        out = os.path.join(workdir, f"flow_{kind}_n{n}.csv")
        ops.append(Op(
            f"flow n={n} {kind}", "flow",
            ["flow", a_path, b_path, f"--t-min={FLOW_T_RANGE[0]!r}", f"--t-max={FLOW_T_RANGE[1]!r}",
             "--t-steps", str(steps), "--out", out], (a_path, b_path),
            lambda code, stdout, p=pair, o=out: check_flow(p, grid, o, code, stdout),
        ))
    return ops


WORKLOADS = {
    "analyze-mix": analyze_mix,
    "verify-mix": verify_mix,
    "flow-sweep": flow_sweep,
    # Not in BENCHMARK.json: they reproduce the known failures of the program.
    "analyze-adversarial": lambda rng, workdir, sizes: analyze_mix(rng, workdir, sizes, adversarial=True),
    "verify-adversarial": lambda rng, workdir, sizes: verify_mix(rng, workdir, sizes, adversarial=True),
}


def build(workload: str, seed: int, workdir: str, tiny: bool = False) -> list[list[Op]]:
    """Draw the workload's input sets from ``seed``, write them, return one op cycle per set."""
    rng = np.random.default_rng(seed)
    sizes = TINY if tiny else FULL
    cycles = []
    for index in range(sizes["pool"]):
        setdir = os.path.join(workdir, f"set{index}")
        os.mkdir(setdir)
        cycles.append(WORKLOADS[workload](rng, setdir, sizes))
    return cycles
