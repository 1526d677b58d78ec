"""Span tracer that instruments specprotect from outside, with no edit to src/.

``Tracer.install`` wraps every public function of the layer modules and
rebinds the wrapper in every ``specprotect.*`` namespace that holds the
original: ``protection`` and ``cli`` import ``eigh`` by name, so patching
``linalg.eigh`` alone would miss their calls.  ``HerglotzScalar.eval`` is
wrapped on the class, ``cli.main`` stands for the CLI layer.  Spans stay in
memory; ``write`` dumps them when the run ends, and ``layer_metrics`` derives
the per-layer figures from them.
"""

from __future__ import annotations

import functools
import inspect
import json
import os
import sys
import time
from collections import Counter

LAYERS = ("linalg", "herglotz", "protection", "realization", "io")


class Tracer:
    """Records one span per wrapped call: name, start, end, parent, op id."""

    def __init__(self):
        self.spans: list[list] = []    # [name, start, end, parent index, op]
        self.counts: Counter = Counter()
        self.op = None                 # op id stamped on new spans
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn, on_result=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(self.spans)
            span = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, self.op]
            self.spans.append(span)
            self._stack.append(index)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self._stack.pop()
            if on_result is not None:
                on_result(args, result)
            return result

        return wrapper

    def _rebind(self, original, wrapper) -> None:
        for module in list(sys.modules.values()):
            if not getattr(module, "__name__", "").startswith("specprotect"):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._undo.append((module, attr, original))
                    setattr(module, attr, wrapper)

    def install(self) -> None:
        from specprotect import cli, herglotz

        hooks = {
            "herglotz.gap_root": self._count_root,
            "protection.protected_set": self._count_certified,
            "io.atomic_write_text": self._count_bytes,
        }
        for layer in LAYERS:
            module = sys.modules[f"specprotect.{layer}"]
            for attr, fn in list(vars(module).items()):
                if attr.startswith("_") or not inspect.isfunction(fn):
                    continue
                if fn.__module__ != module.__name__:
                    continue
                name = f"{layer}.{attr}"
                self._rebind(fn, self._wrap(name, fn, hooks.get(name)))
        self._rebind(cli.main, self._wrap("cli.main", cli.main))
        cls = herglotz.HerglotzScalar
        self._undo.append((cls, "eval", cls.eval))
        cls.eval = self._wrap("herglotz.eval", cls.eval)

    def uninstall(self) -> None:
        for target, attr, original in reversed(self._undo):
            setattr(target, attr, original)
        self._undo.clear()

    def _count_root(self, args, root) -> None:
        self.counts["roots_tried"] += root is not None

    def _count_certified(self, args, report) -> None:
        self.counts["roots_certified"] += len(report.protected_points)

    def _count_bytes(self, args, result) -> None:
        self.counts["bytes_written"] += os.path.getsize(args[0])

    def self_times(self) -> list[float]:
        """Each span's duration minus the durations of its direct children."""
        own = [end - start for _, start, end, _, _ in self.spans]
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                own[parent] -= end - start
        return own

    def write(self, path: str) -> None:
        """One JSON line per span: [name, start, end, parent index, op]."""
        with open(path, "w") as handle:
            for span in self.spans:
                handle.write(json.dumps(span) + "\n")


def layer_metrics(tracer: Tracer, ops: int, scale: dict) -> dict[str, tuple[float, str]]:
    """Per-layer figures over the spans of ``ops`` traced ops and one set-up.

    Spans stamped with op ``"setup"`` belong to input generation; all others
    to CLI invocations.  Each span's self time is multiplied by ``scale`` of
    its op, the factor that normalizes that op's timings to machine speed.
    """
    calls: Counter = Counter()
    self_ms: Counter = Counter()
    setup_ms: Counter = Counter()
    for (name, _, _, _, op), own in zip(tracer.spans, tracer.self_times()):
        if op == "setup":
            setup_ms[name] += own * scale[op] * 1e3
        else:
            calls[name] += 1
            self_ms[name] += own * scale[op] * 1e3
    count, ms = "count", "ms"

    def per_op(counter, name):
        return counter[name] / ops

    roots = tracer.counts["roots_tried"]
    metrics = {}
    for name in ("linalg.eigh", "linalg.ensure_psd", "linalg.resolvent_matrix",
                 "herglotz.gap_root", "protection.protection_residual",
                 "realization.pencil_spectrum"):
        metrics[f"{name}.calls_per_op"] = (per_op(calls, name), count)
    for name in ("linalg.eigh", "herglotz.herglotz_from", "herglotz.gap_root",
                 "protection.protected_set", "protection.protection_residual",
                 "protection.nilpotency_index", "protection.pseudo_resolvent_defect",
                 "protection.shifted_inverse_formula", "protection.distance_bounds",
                 "protection.brute_force_unprotected", "protection.spectral_flow",
                 "realization.pencil_spectrum_log_scan", "realization.pencil_spectrum",
                 "io.read_matrix_file",
                 "io.file_digest", "io.write_report", "io.write_flow_csv"):
        metrics[f"{name}.self_ms_per_op"] = (per_op(self_ms, name), ms)
    gap_roots = calls["herglotz.gap_root"]
    metrics["herglotz.eval.calls_per_root"] = (
        calls["herglotz.eval"] / gap_roots if gap_roots else 0.0, count)
    metrics["protection.roots_certified_ratio"] = (
        tracer.counts["roots_certified"] / roots if roots else 0.0, "ratio")
    metrics["realization.realize.self_ms"] = (setup_ms["realization.realize"], ms)
    metrics["io.bytes_written_per_op"] = (tracer.counts["bytes_written"] / ops, "B")
    metrics["cli.self_ms_per_op"] = (per_op(self_ms, "cli.main"), ms)
    return metrics


def calls_by_op(tracer: Tracer, name: str) -> Counter:
    """Number of ``name`` spans in each op id."""
    return Counter(op for span_name, _, _, _, op in tracer.spans if span_name == name)
