"""Matrix files, analysis reports, and flow CSVs.

Matrix files are small JSON documents::

    {"n": 2, "matrix": [1.0, 0.0, 0.0, -1.0], "label": "A"}

``matrix`` is row-major with exactly n*n entries.  Floats are serialized with
Python's shortest round-trip repr (JSON) or %.17g (CSV); both reproduce the
double exactly on re-parse.  All writes are atomic (temp file + rename).
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import tempfile

import numpy as np

from .errors import SpecProtectError
from .linalg import SpectralGap, SymmetricMatrix
from .protection import FlowSample, ProtectionReport


class MatrixFileError(SpecProtectError):
    """Malformed matrix file; ``field`` names the offending field."""

    def __init__(self, field: str, message: str):
        self.field = field
        super().__init__(f"field '{field}': {message}")


def atomic_write_text(path: str, text: str) -> None:
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def read_matrix_file(path: str) -> tuple[SymmetricMatrix, str | None]:
    """Parse a matrix file; MatrixFileError names the offending field.

    Symmetry violations raise ValueError from the SymmetricMatrix
    constructor (a rejected-but-well-formed document, not a parse failure).
    """
    try:
        with open(path) as handle:
            doc = json.load(handle)
    except OSError as exc:
        raise MatrixFileError("file", str(exc)) from exc
    except json.JSONDecodeError as exc:
        raise MatrixFileError("document", f"not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise MatrixFileError("document", "expected a JSON object")
    if "n" not in doc:
        raise MatrixFileError("n", "missing")
    n = doc["n"]
    if not isinstance(n, int) or isinstance(n, bool) or n < 1:
        raise MatrixFileError("n", "must be a positive integer")
    if "matrix" not in doc:
        raise MatrixFileError("matrix", "missing")
    entries = doc["matrix"]
    if not isinstance(entries, list) or len(entries) != n * n:
        raise MatrixFileError("matrix", f"expected a flat list of {n * n} numbers")
    try:
        values = [float(x) for x in entries]
    except (TypeError, ValueError) as exc:
        raise MatrixFileError("matrix", "entries must be numbers") from exc
    if any(not math.isfinite(x) for x in values):
        raise MatrixFileError("matrix", "entries must be finite")
    label = doc.get("label")
    if label is not None and not isinstance(label, str):
        raise MatrixFileError("label", "must be a string")
    matrix = SymmetricMatrix(np.array(values).reshape(n, n))
    return matrix, label


def write_matrix_file(path: str, m: SymmetricMatrix, label: str | None = None) -> None:
    doc: dict = {"n": m.n, "matrix": [float(x) for x in m.mat.ravel()]}
    if label is not None:
        doc["label"] = label
    atomic_write_text(path, json.dumps(doc, indent=1) + "\n")


def file_digest(path: str) -> str:
    with open(path, "rb") as handle:
        return hashlib.sha256(handle.read()).hexdigest()


def _gap_to_json(gap: SpectralGap) -> dict:
    return {
        "lower": None if math.isinf(gap.lower) else gap.lower,
        "upper": None if math.isinf(gap.upper) else gap.upper,
        "kind": gap.kind,
    }


def analysis_report_doc(
    report: ProtectionReport,
    spectrum: np.ndarray,
    gap_list,
    inputs: dict,
    version: str,
) -> dict:
    return {
        "tool_version": version,
        "inputs": inputs,
        "tolerance": report.tol,
        "spectrum_a": [float(x) for x in spectrum],
        "gaps": [_gap_to_json(g) for g in gap_list],
        "protected_points": [
            {
                "value": p.value,
                "residual": p.residual,
                "gap": _gap_to_json(p.gap),
            }
            for p in report.protected_points
        ],
        "gap_diagnostics": [
            {
                "gap": _gap_to_json(d.gap),
                "status": d.status,
                "root": d.root,
                "residual": d.residual,
            }
            for d in report.gap_diagnostics
        ],
    }


def write_report(path: str, doc: dict) -> None:
    atomic_write_text(path, json.dumps(doc, indent=1) + "\n")


def write_flow_csv(path: str, flow: FlowSample) -> None:
    n = flow.branches.shape[1]
    lines = ["t," + ",".join(f"lambda_{k}" for k in range(1, n + 1))]
    for t, row in zip(flow.t_values, flow.branches):
        lines.append(",".join(f"{x:.17g}" for x in [t, *row]))
    atomic_write_text(path, "\n".join(lines) + "\n")
