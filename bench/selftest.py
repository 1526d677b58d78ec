"""Self-test of the benchmark harness at tiny sizes; runs in about 15 seconds.

    python3 bench/selftest.py

Checks, for every workload and both modes, that each metric BENCHMARK.json
names is emitted with its unit, that every op passes its oracle, and that
``linalg.eigh`` runs as often per op as the code implies (4 per analyze, 98
per protected and 13 per unprotected verify, one per flow step).  Traced
counts repeat exactly for a seed, and the ``eigh`` calls per op are the same
for the held-out seed.  It stays out of tier-1.
"""

from __future__ import annotations

import json
import sys

import run  # pins BLAS threads before numpy is imported
import workloads

EIGH_PER_OP = {
    "analyze": [4],
    "verify protected": [98],
    "verify unprotected": [13],
    "flow": [workloads.TINY["steps"]],
}


def check(condition: bool, message: str) -> None:
    if not condition:
        raise SystemExit(f"selftest FAILED: {message}")


def main() -> int:
    with open(run.ROOT / "BENCHMARK.json") as handle:
        spec = json.load(handle)
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, declared in ((False, spec["end_to_end"]), (True, spec["per_layer"])):
            records = [run.measure(workload, seed, 0.05, trace, tiny=True, setup_repeats=1, min_ops=0)
                       for seed in ((1, 1, 7) if trace else (1,))]
            for record in records:
                check(not record["failures"], f"{workload}: {record['failures']}")
                emitted = {name: unit for name, (_, unit, _) in record["metrics"].items()}
                wanted = {m["name"]: m["unit"] for m in declared}
                check(emitted == wanted, f"{workload} trace={trace}: emitted {emitted}, declared {wanted}")
            if trace:
                first, second = (r["metrics"] for r in records[:2])
                for name, (value, unit, _) in first.items():
                    if unit == "count":
                        check(value == second[name][0], f"{workload} {name}: {value} != {second[name][0]}")
                for record in records:
                    groups = record["eigh_calls_by_group"]
                    check(all(groups[g] == EIGH_PER_OP[g] for g in groups) and groups,
                          f"{workload} eigh calls per op: {groups}")
        print(f"selftest {workload}: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
