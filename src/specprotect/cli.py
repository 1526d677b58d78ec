"""Command-line front end.

Subcommands::

    specprotect analyze A.json B.json [--tol T] [--out report.json]
    specprotect realize --points p1,p2,... [--weights w1,...] [--verify]
    specprotect flow A.json B.json --t-min a --t-max b --t-steps k --out f.csv
    specprotect verify A.json B.json --lambda L [--t-grid SPEC] [--tol T]

Exit codes: 0 success, 2 parse/usage failure, 3 non-symmetric / non-PSD input
or a shift on the spectrum, 4 zero perturbation, 5 verification mismatch.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from . import __version__
from .errors import (
    DegeneratePerturbationError,
    NotPSDError,
    PoleError,
)
from .io import (
    MatrixFileError,
    analysis_report_doc,
    file_digest,
    read_matrix_file,
    write_flow_csv,
    write_matrix_file,
    write_report,
)
from .linalg import POLE_RTOL, SymmetricMatrix, dist_to_spectrum, frobenius, gaps
from .protection import (
    DEFAULT_TOL,
    Pencil,
    brute_force_unprotected,
    distance_bounds,
    is_protected,
    nilpotency_index,
    pencil_roots,
    protected_set,
    pseudo_resolvent_defect,
    shifted_inverse_formula,
    spectral_flow,
    standard_t_grid,
)
from .realization import realize

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_BAD_MATRIX = 3
EXIT_ZERO_B = 4
EXIT_MISMATCH = 5


class _ExitError(Exception):
    def __init__(self, code: int, message: str):
        self.code = code
        self.message = message
        super().__init__(message)


def _load(path: str) -> tuple[SymmetricMatrix, str | None]:
    try:
        return read_matrix_file(path)
    except MatrixFileError as exc:
        raise _ExitError(EXIT_USAGE, f"{path}: {exc}") from exc
    except ValueError as exc:
        raise _ExitError(EXIT_BAD_MATRIX, f"{path}: {exc}") from exc


def _load_pair(args) -> tuple[SymmetricMatrix, SymmetricMatrix]:
    a, _ = _load(args.a_path)
    b, _ = _load(args.b_path)
    if a.n != b.n:
        raise _ExitError(EXIT_USAGE, "A and B must have the same dimension")
    return a, b


def _parse_floats(text: str, flag: str) -> list[float]:
    try:
        return [float(tok) for tok in text.split(",") if tok.strip() != ""]
    except ValueError as exc:
        raise _ExitError(EXIT_USAGE, f"{flag}: expected comma-separated numbers") from exc


def _parse_t_grid(spec: str) -> np.ndarray:
    """Grid grammar: 'lin:min:max:steps' or 'log:min_exp:max_exp:per_decade[,symmetric]'."""
    try:
        body, _, suffix = spec.partition(",")
        symmetric = False
        if suffix:
            if suffix != "symmetric":
                raise ValueError(f"unknown grid modifier '{suffix}'")
            symmetric = True
        parts = body.split(":")
        if parts[0] == "lin":
            if symmetric or len(parts) != 4:
                raise ValueError("expected lin:min:max:steps")
            lo, hi, steps = float(parts[1]), float(parts[2]), int(parts[3])
            if steps < 2 or not lo < hi:
                raise ValueError("need min < max and steps >= 2")
            return np.linspace(lo, hi, steps)
        if parts[0] == "log":
            if len(parts) != 4:
                raise ValueError("expected log:min_exp:max_exp:per_decade")
            lo_e, hi_e, per = float(parts[1]), float(parts[2]), int(parts[3])
            if per < 1 or not lo_e < hi_e:
                raise ValueError("need min_exp < max_exp and per_decade >= 1")
            return standard_t_grid(lo_e, hi_e, per, symmetric=symmetric)
        raise ValueError(f"unknown grid kind '{parts[0]}'")
    except (ValueError, IndexError) as exc:
        raise _ExitError(EXIT_USAGE, f"--t-grid: {exc}") from exc


def cmd_analyze(args) -> int:
    p = Pencil(*_load_pair(args))
    report = protected_set(p, tol=args.tol)
    doc = analysis_report_doc(
        report,
        p.dec.eigenvalues,
        gaps(p.dec),
        inputs={
            "a": {"path": args.a_path, "sha256": file_digest(args.a_path)},
            "b": {"path": args.b_path, "sha256": file_digest(args.b_path)},
        },
        version=__version__,
    )
    write_report(args.out, doc)
    for point in report.protected_points:
        print(repr(point.value))
    return EXIT_OK


def cmd_realize(args) -> int:
    points = _parse_floats(args.points, "--points")
    weights = None
    if args.weights is not None:
        weights = _parse_floats(args.weights, "--weights")
    try:
        pair = realize(points, weights)
    except ValueError as exc:
        raise _ExitError(EXIT_USAGE, str(exc)) from exc
    write_matrix_file(args.out_a, pair.a, label="A")
    write_matrix_file(args.out_b, pair.b, label="B")
    print(f"wrote {args.out_a} and {args.out_b}")
    if args.verify:
        report = protected_set(Pencil(pair.a, pair.b))
        found = np.array([p.value for p in report.protected_points])
        scale = max(1.0, frobenius(pair.a))
        certified = 0
        for target in sorted(points):
            ok = found.size and np.min(np.abs(found - target)) <= 1e-9 * scale
            status = "certified" if ok else "MISSING"
            print(f"point {target!r}: {status}")
            certified += bool(ok)
        print(f"{certified}/{len(points)} points certified")
        if certified != len(points) or len(found) != len(points):
            return EXIT_MISMATCH
    return EXIT_OK


def cmd_flow(args) -> int:
    a, b = _load_pair(args)
    if not args.t_min < args.t_max:
        raise _ExitError(EXIT_USAGE, "--t-min must be smaller than --t-max")
    if args.t_steps < 2:
        raise _ExitError(EXIT_USAGE, "--t-steps must be at least 2")
    grid = np.linspace(args.t_min, args.t_max, args.t_steps)
    flow = spectral_flow(a, b, grid)
    write_flow_csv(args.out, flow)
    print(f"wrote {args.out}")
    return EXIT_OK


def cmd_verify(args) -> int:
    p = Pencil(*_load_pair(args))
    lam = args.lam
    if dist_to_spectrum(p.dec, lam) <= POLE_RTOL * p.dec.source_scale:
        raise _ExitError(
            EXIT_BAD_MATRIX, f"lambda {lam!r} lies on the spectrum of A"
        )
    tol = args.tol
    t_grid = _parse_t_grid(args.t_grid)

    verdict = is_protected(p, lam, tol=tol)
    expected = verdict.protected

    rows: list[tuple[str, str, bool]] = []
    rows.append(
        (
            "residual",
            f"{verdict.residual:.6e}",
            True,  # the residual defines 'expected'; consistent by definition
        )
    )

    nil = nilpotency_index(p, lam)
    rows.append(("nilpotency_index", str(nil), (nil in (1, 2)) == expected))

    pseudo_pairs = [(1.0, 2.0), (0.5, -1.0), (-2.0, 3.0)]
    pseudo = max(pseudo_resolvent_defect(p, lam, z, w) for z, w in pseudo_pairs)
    eta = 1.0 / dist_to_spectrum(p.dec, lam)
    pseudo_scale = max(1.0, (eta * (1.0 + eta * frobenius(p.b))) ** 2)
    pseudo_ok = pseudo <= tol * pseudo_scale * 6.0
    rows.append(("pseudo_resolvent_defect", f"{pseudo:.6e}", pseudo_ok == expected))

    inverse_ok = True
    worst = 0.0
    for t in (1.0, -1.0, 10.0, -10.0, 1e3, -1e3):
        _, defect = shifted_inverse_formula(p, lam, t)
        worst = max(worst, defect / (1.0 + abs(t)))
        if defect > tol * (1.0 + abs(t)) * pseudo_scale:
            inverse_ok = False
    rows.append(("inverse_formula_defect", f"{worst:.6e}", inverse_ok == expected))

    if expected:
        sample = t_grid[:: max(1, len(t_grid) // 16)]
        bounds_ok = True
        for t in sample:
            db = distance_bounds(p, lam, float(t), tol=tol)
            slack = 1e-8 * (1.0 + abs(t))
            if db.actual + slack < db.lower:
                bounds_ok = False
            if db.upper is not None and db.actual > db.upper + slack:
                bounds_ok = False
        rows.append(("distance_bounds", f"{len(sample)} t values", bounds_ok))

    # The oracle scans A + s B/||B||_F, so its grid and hit window follow the
    # flow whatever the scale of B; a pencil root mu sits at s = -||B||_F mu.
    roots = pencil_roots(p, lam)
    b_norm = frobenius(p.b)
    candidates = np.unique(np.concatenate([t_grid, -b_norm * np.asarray(roots)]))
    unit_b = SymmetricMatrix(p.b.mat / b_norm)
    never_hit = brute_force_unprotected(p.a, unit_b, [lam], candidates, hit_tol=1e-3)
    hit = 0 not in never_hit
    rows.append(("flow_oracle_hit", str(hit), hit != expected))
    rows.append(("pencil_roots", str(len(roots)), (len(roots) == 0) == expected))

    label = "protected" if expected else "not protected"
    print(f"lambda = {lam!r}: {label} (residual {verdict.residual:.6e})")
    print(f"{'check':<26}{'value':<22}consistent")
    failure = None
    for name, value, ok in rows:
        print(f"{name:<26}{value:<22}{'yes' if ok else 'NO'}")
        if not ok and failure is None:
            failure = name
    if failure is not None:
        print(f"inconsistency: {failure}", file=sys.stderr)
        return EXIT_MISMATCH
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="specprotect",
        description="Detect, certify, and construct protected spectral points "
        "of symmetric pencils A + tB.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="find all protected points of (A, B)")
    p.add_argument("a_path")
    p.add_argument("b_path")
    p.add_argument("--tol", type=float, default=DEFAULT_TOL)
    p.add_argument("--out", default="analysis.json")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("realize", help="construct a pair with a prescribed protected set")
    p.add_argument("--points", required=True, help="comma-separated protected points")
    p.add_argument("--weights", default=None, help="comma-separated positive weights")
    p.add_argument("--out-a", default="A.json")
    p.add_argument("--out-b", default="B.json")
    p.add_argument("--verify", action="store_true")
    p.set_defaults(func=cmd_realize)

    p = sub.add_parser("flow", help="sample eigenvalue branches of A + tB to CSV")
    p.add_argument("a_path")
    p.add_argument("b_path")
    p.add_argument("--t-min", type=float, required=True)
    p.add_argument("--t-max", type=float, required=True)
    p.add_argument("--t-steps", type=int, required=True)
    p.add_argument("--out", default="flow.csv")
    p.set_defaults(func=cmd_flow)

    p = sub.add_parser("verify", help="cross-check all protection criteria at one shift")
    p.add_argument("a_path")
    p.add_argument("b_path")
    p.add_argument("--lambda", dest="lam", type=float, required=True)
    p.add_argument("--t-grid", default="log:-2:6:25,symmetric")
    p.add_argument("--tol", type=float, default=DEFAULT_TOL)
    p.set_defaults(func=cmd_verify)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except _ExitError as exc:
        print(f"error: {exc.message}", file=sys.stderr)
        return exc.code
    except DegeneratePerturbationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ZERO_B
    except (NotPSDError, PoleError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_MATRIX


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
