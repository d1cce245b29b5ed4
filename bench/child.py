"""One traced `ellip` command in a fresh interpreter.

    python3 bench/child.py SPANS.json LABEL ARG...

Imports ellipstat (untraced, as a cold `ellip` process does), wraps its
public functions, runs cli.main(ARG...) as one operation named LABEL,
writes the spans to SPANS.json and exits with the command's status.
The cold_cli workload runs its operations through this script in traced
runs.
"""

import json
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import ellipstat  # noqa: E402
from spans import Tracer  # noqa: E402


def main():
    spans_path, label, argv = sys.argv[1], sys.argv[2], sys.argv[3:]
    tracer = Tracer()
    tracer.install(ellipstat)
    done = tracer.operation(label)
    try:
        return ellipstat.cli.main(argv)
    finally:
        done()
        with open(spans_path, "w", encoding="utf-8") as f:
            json.dump(tracer.to_dict(), f)


if __name__ == "__main__":
    sys.exit(main())
