"""Record the reference outputs the benchmark checks operations against.

    python3 bench/record.py [GROUP ...]

Runs every operation of each reference pool (all groups by default) once,
in this process, on the checkout's sources, and writes
bench/refs/<group>.json.xz. Run it only on a commit whose outputs are the
reference; the benchmark itself never writes references.
"""

import shutil
import sys

from run import FIXTURES, ROOT, SRC, WORK, Runner, read_output

sys.path.insert(0, str(SRC))

import check  # noqa: E402
import workloads  # noqa: E402


def record(group, iris_text):
    pool = workloads.reference_pool(group, iris_text)
    workdir = WORK / "record"
    shutil.rmtree(workdir, ignore_errors=True)
    (workdir / "in").mkdir(parents=True)
    for name, text in pool.inputs.items():
        (workdir / "in" / name).write_text(text, encoding="utf-8")
    runner = Runner(False, workdir, lambda *_: [])
    entries = {}
    for op in pool.ops:
        result = runner.execute(op)
        if result.code != 0:
            raise SystemExit(f"{op.key}: exit {result.code}, not recorded")
        text = read_output(runner.out_json)
        svg = read_output(runner.out_svg)
        entry = {"exit": 0, "svg": None,
                 "json": text.replace(str(ROOT), check.ROOT_MARK)}
        if svg is not None:
            skeleton, numbers = check.split_svg(svg)
            entry["svg"] = [skeleton, " ".join(numbers)]
        # the recorded output must pass its own check, residual bounds too
        problems = check.check_ref(check.Reference(entry), 0, text, svg,
                                   ROOT)
        if problems:
            raise SystemExit(f"{op.key}: {problems}")
        entries[op.key] = entry
    check.save_refs(group, entries)
    print(f"{group}: {len(entries)} references, "
          f"{check.ref_path(group).stat().st_size} bytes")


def main():
    iris_text = (FIXTURES / "iris.csv").read_text(encoding="utf-8")
    for group in sys.argv[1:] or workloads.reference_groups():
        record(group, iris_text)


if __name__ == "__main__":
    main()
