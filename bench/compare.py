"""Compare two saved benchmark results.

    python3 bench/compare.py BASE.json NEW.json

The files are the ones run.py leaves in .bench_work/results/.  Results
taken on machines with a different CPU count or architecture, or with a
different Python or numpy, are refused.  A per-layer metric that reads 0
in BASE (a layer the workload does not exercise) shows no change.
"""

from __future__ import annotations

import json
import sys

ENVIRONMENT = ("nproc", "cpus_usable", "machine", "python", "numpy")
SAME_RUN = ("workload", "trace")


def _load(path):
    with open(path) as fh:
        return json.load(fh)


def main(argv) -> int:
    if len(argv) != 2:
        print(__doc__.strip(), file=sys.stderr)
        return 1
    base, new = _load(argv[0]), _load(argv[1])
    differs = [key for key in SAME_RUN + ENVIRONMENT
               if base["record"][key] != new["record"][key]]
    for key in differs:
        print("error: %s differs (%r vs %r); not comparable"
              % (key, base["record"][key], new["record"][key]),
              file=sys.stderr)
    if differs:
        return 1
    for name, m in sorted(base["result"]["metrics"].items()):
        other = new["result"]["metrics"].get(name)
        if other is None:
            continue
        change = ("(%+.1f%%)" % ((other["value"] - m["value"]) / m["value"]
                                 * 100) if m["value"] else "")
        print("%-40s %14.6g -> %14.6g %s  %s"
              % (name, m["value"], other["value"], m["unit"], change))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
