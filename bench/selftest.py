"""Self-test of the input generators and the reference store.

    python3 bench/selftest.py

Checks that the same seed gives byte-identical input files and the same
operations, that different seeds give different inputs, and that every
operation a seed can produce has a recorded reference. Exits 1 on the
first failure.
"""

import sys
import tempfile
from pathlib import Path

import check
import workloads

FIXTURES = Path(__file__).resolve().parent.parent / "src/ellipstat/fixtures"
SEEDS = range(12)


def written(plan, directory):
    """Write a plan's inputs and read them back as bytes."""
    for name, text in plan.inputs.items():
        (directory / name).write_text(text, encoding="utf-8")
    return {p.name: p.read_bytes() for p in directory.iterdir()}


def main():
    iris = (FIXTURES / "iris.csv").read_text(encoding="utf-8")
    refs = {g: set(check.load_refs(g)) for g in workloads.reference_groups()}
    failures = []
    for workload in workloads.WORKLOADS:
        distinct = set()
        for seed in SEEDS:
            a = workloads.plan(workload, seed, iris)
            b = workloads.plan(workload, seed, iris)
            with tempfile.TemporaryDirectory() as da, \
                    tempfile.TemporaryDirectory() as db:
                same = written(a, Path(da)) == written(b, Path(db))
            if not same or [op.argv for op in a.ops] != \
                    [op.argv for op in b.ops]:
                failures.append(f"{workload} seed {seed}: not reproducible")
            distinct.add((tuple(op.argv for op in a.ops),
                          tuple(sorted(a.inputs.items()))))
            missing = [op.key for op in a.ops
                       if op.check == "ref" and op.key not in refs[op.group]]
            if missing:
                failures.append(f"{workload} seed {seed}: no reference "
                                f"for {missing[0]}")
        if len(distinct) < 2:
            failures.append(f"{workload}: every seed gives the same inputs")
        print(f"{workload}: {len(SEEDS)} seeds, {len(distinct)} distinct "
              f"input sets")
    for f in failures:
        print("FAIL", f)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
