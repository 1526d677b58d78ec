"""Benchmark of the specprotect command line.

    python3 bench/run.py --workload analyze-mix --seed 1 --seconds 25 --trace 0

Runs one workload (see ``workloads.py`` and ``README.md``) as a closed loop
with one client: whole cycles of its op list are sent through
``specprotect.cli.main`` in-process, stdout and stderr captured, until
``--seconds`` of op time and at least ``MIN_OPS`` ops have been measured.
Every op's output is checked against a numpy oracle outside the timed
region.  ``--trace 0`` reports the end-to-end metrics; ``--trace 1`` runs the
loop untraced for half the time and traced for the other half, and reports
the per-layer metrics.

Timings are normalized to machine speed.  A fixed harness-owned reference
kernel runs between consecutive ops; each op's wall time is scaled by
``REFERENCE_S`` over the reference time measured around it, so a shared
machine that slows down for seconds or minutes does not move the figures.
Raw wall-clock figures are printed too.

The last line of stdout is one JSON object; the lines before it start with
``#`` and give the environment, every metric with its unit and sample count,
and the raw figures.  Run from the root of a checkout: the package is
imported from ``src/``, and inputs, outputs and spans stay under ``bench/``.
"""

from __future__ import annotations

import os
import sys

# BLAS threads are pinned before anything can import numpy.
THREAD_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_ENV:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import workloads  # noqa: E402
from tracer import Tracer, calls_by_op, layer_metrics  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK_DIR = BENCH_DIR / "work"
RESULTS_DIR = BENCH_DIR / "results"
sys.path.insert(0, str(SRC))

MIN_OPS = 100             # p90 then has at least ten samples beyond it
MAX_SECONDS_FACTOR = 1.4  # op time after which the loop stops short of MIN_OPS
SETUP_REPEATS = 5
REFERENCE_STEPS = 2000
REFERENCE_S = 0.010       # reference kernel time on an idle machine (2-core VM)


def environment(seed: int) -> dict:
    try:
        import scipy
        scipy_version = scipy.__version__
    except ImportError:
        scipy_version = None
    sha = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
        sha = proc.stdout.strip() or None
    return {
        "git_sha": sha,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy_version,
        "threads": {var: os.environ[var] for var in THREAD_ENV},
        "nproc": len(os.sched_getaffinity(0)),
        "seed": seed,
    }


def reference_seconds() -> float:
    """Wall time of a fixed harness-owned kernel: small numpy steps in a Python loop.

    It does the same kind of work as the program (interpreter overhead around
    tiny array operations), so it slows down with the machine but never with
    a change to the program.
    """
    m = np.arange(64.0).reshape(8, 8)
    start = time.perf_counter()
    for _ in range(REFERENCE_STEPS):
        column = m[:, 1].copy()
        m[:, 2] = 0.5 * column - 0.25 * m[:, 2]
        m[3, :] = m[3, :] * 0.999
        float(np.linalg.norm(m)) ** 0.5
    return time.perf_counter() - start


def set_up(workload: str, seed: int, tiny: bool):
    """Time one cold import of specprotect, then the generation of the inputs.

    The import runs in a fresh interpreter, as a command-line user pays it.
    Returns (seconds, reference seconds around them, work directory, op cycles).
    """
    env = dict(os.environ, PYTHONPATH=str(SRC))
    before = reference_seconds()
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import specprotect"], env=env, check=True, timeout=120)
    workdir = tempfile.mkdtemp(prefix=f"{workload}-", dir=WORK_DIR)
    cycles = workloads.build(workload, seed, workdir, tiny)
    elapsed = time.perf_counter() - start
    return elapsed, 0.5 * (before + reference_seconds()), workdir, cycles


def invoke(argv: list[str]) -> tuple[int | None, float, str, str]:
    """Call ``cli.main(argv)``; the exit code is None when it raised.

    An exception escaping ``main`` is a failure of that op, not of the
    harness: its traceback goes to the captured stderr.
    """
    from specprotect import cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        try:
            code = cli.main(argv)
        except Exception:
            code = None
            traceback.print_exc()
        elapsed = time.perf_counter() - start
    return code, elapsed, out.getvalue(), err.getvalue()


def closed_loop(cycles, seconds: float, min_ops: int, tracer=None, failures=None):
    """Run whole op cycles, one input set after another, until ``seconds``
    of op time and ``min_ops`` ops.

    Returns each op's wall time, the reference time around it (the mean of
    the reference runs just before and just after the op) and the op itself.
    A failing op is appended to ``failures`` with its inputs and output.
    """
    times, refs, ran = [], [reference_seconds()], []
    busy = 0.0
    while not times or busy < seconds or (len(times) < min_ops and busy < MAX_SECONDS_FACTOR * seconds):
        for op in cycles[len(times) // len(cycles[0]) % len(cycles)]:
            if tracer is not None:
                tracer.op = len(times)
            code, elapsed, stdout, stderr = invoke(op.argv)
            refs.append(reference_seconds())
            reason = "uncaught exception" if code is None else op.check(code, stdout)
            if reason is not None and failures is not None:
                failures.append({"op": op.label, "argv": op.argv, "inputs": list(op.inputs),
                                 "exit_code": code, "reason": reason,
                                 "stdout": stdout, "stderr": stderr})
            times.append(elapsed)
            ran.append(op)
            busy += elapsed
    around = [0.5 * (before + after) for before, after in zip(refs, refs[1:])]
    return times, around, ran


def normalized(times: list[float], refs: list[float]) -> list[float]:
    return [t * REFERENCE_S / r for t, r in zip(times, refs)]


def keep_failures(failures: list[dict], workload: str, seed: int) -> None:
    """Log each distinct failure to stderr and copy its input files under results/."""
    keep = RESULTS_DIR / "failures" / f"{workload}-seed{seed}"
    counts: dict[tuple, list] = {}
    for failure in failures:
        key = (tuple(failure["argv"]), failure["reason"])
        if key in counts:
            counts[key][1] += 1
            continue
        counts[key] = [failure, 1]
        for path in failure["inputs"]:
            target = keep / Path(path).parent.name
            target.mkdir(parents=True, exist_ok=True)
            shutil.copy(path, target)
    for failure, count in counts.values():
        last = failure["stderr"].strip().splitlines()[-1:]
        print(f"FAILED {count}x {failure['op']}: {failure['reason']}; "
              f"stderr {last}; argv {failure['argv']} "
              f"(inputs kept under {keep})", file=sys.stderr)


def timing_metrics(setups: list[float], times: list[float], cycle: int) -> dict:
    """``op_p50_ms`` is the median over cycles of each cycle's median op.

    A cycle mixes ops of very different cost (verify-mix is half 13-eigh and
    half 98-eigh calls), so the median of all samples falls in the gap between
    two clusters and follows the extremes of both; the median cycle's median
    op does not.
    """
    ms = [t * 1e3 for t in times]
    medians = [statistics.median(ms[i:i + cycle]) for i in range(0, len(ms) - cycle + 1, cycle)]
    return {
        "setup_s": (statistics.median(setups), "s", len(setups)),
        "ops_per_s": (len(times) / sum(times), "1/s", len(times)),
        "op_p50_ms": (statistics.median(medians), "ms", len(ms)),
        "op_p90_ms": (statistics.quantiles(ms, n=10)[-1], "ms", len(ms)),
    }


def per_layer(cycles, seconds: float, workload: str, seed: int, tiny: bool, failures: list):
    """Untraced half, then traced half; per-layer metrics and per-group eigh calls."""
    plain = normalized(*closed_loop(cycles, seconds / 2, 0, failures=failures)[:2])
    tracer = Tracer()
    tracer.install()
    try:
        tracer.op = "setup"
        before = reference_seconds()
        with tempfile.TemporaryDirectory(dir=WORK_DIR) as scratch:
            workloads.build(workload, seed, scratch, tiny)
        scale = {"setup": REFERENCE_S / (0.5 * (before + reference_seconds()))}
        raw, refs, ran = closed_loop(cycles, seconds / 2, 0, tracer=tracer, failures=failures)
    finally:
        tracer.uninstall()
    scale.update((op_id, REFERENCE_S / ref) for op_id, ref in enumerate(refs))
    traced = normalized(raw, refs)
    metrics = {name: (value, unit, len(traced))
               for name, (value, unit) in layer_metrics(tracer, len(traced), scale).items()}
    ratio = (len(traced) / sum(traced)) / (len(plain) / sum(plain))
    metrics["trace.overhead_ratio"] = (ratio, "ratio", len(traced))
    eigh = calls_by_op(tracer, "linalg.eigh")
    groups: dict[str, set] = {}
    for op_id, op in enumerate(ran):
        groups.setdefault(op.group, set()).add(eigh[op_id])
    RESULTS_DIR.mkdir(exist_ok=True)
    tracer.write(str(RESULTS_DIR / f"spans-{workload}-seed{seed}.jsonl"))
    return metrics, len(plain) + len(traced), {g: sorted(c) for g, c in groups.items()}


def measure(workload: str, seed: int, seconds: float, trace: bool,
            tiny: bool = False, setup_repeats: int = SETUP_REPEATS, min_ops: int = MIN_OPS) -> dict:
    """One benchmark run; returns the result record that ``main`` prints."""
    WORK_DIR.mkdir(exist_ok=True)
    setups, setup_refs, workdirs = [], [], []
    record = {"workload": workload, "env": environment(seed)}
    try:
        for _ in range(1 if trace else setup_repeats):
            elapsed, ref, workdir, cycles = set_up(workload, seed, tiny)
            setups.append(elapsed)
            setup_refs.append(ref)
            workdirs.append(workdir)
        closed_loop(cycles, 0, 0)  # warm-up cycle: first-call costs stay out of the figures
        failures: list[dict] = []
        if trace:
            metrics, attempted, record["eigh_calls_by_group"] = per_layer(
                cycles, seconds, workload, seed, tiny, failures)
        else:
            times, refs, _ = closed_loop(cycles, seconds, min_ops, failures=failures)
            attempted = len(times)
            cycle = len(cycles[0])
            metrics = timing_metrics(normalized(setups, setup_refs), normalized(times, refs), cycle)
            rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            metrics["peak_rss_mb"] = (rss_mb, "MB", 1)
            record["raw"] = timing_metrics(setups, times, cycle)
        keep_failures(failures, workload, seed)
    finally:
        for workdir in workdirs:
            shutil.rmtree(workdir, ignore_errors=True)
    record.update(metrics=metrics, attempted=attempted, failures=failures)
    return record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if not (SRC / "specprotect" / "__init__.py").is_file():
        print(f"error: {SRC / 'specprotect'} not found; run from a checkout of the repository",
              file=sys.stderr)
        return 2

    record = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    print(f"# env {json.dumps(record['env'], sort_keys=True)}")
    for group, counts in record.get("eigh_calls_by_group", {}).items():
        print(f"# linalg.eigh calls per op, {group}: {counts}")
    failed = len(record["failures"])
    print(f"# {args.workload}: {record['attempted']} ops attempted, {failed} failed, "
          f"fail_ratio {failed / record['attempted']:.6g}")
    for name, (value, unit, samples) in record["metrics"].items():
        print(f"# {name} = {value:.6g} {unit} ({samples} samples)")
    for name, (value, unit, samples) in record.get("raw", {}).items():
        print(f"# raw wall-clock {name} = {value:.6g} {unit} ({samples} samples)")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": record["attempted"],
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit, _) in record["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
