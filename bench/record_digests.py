"""Record the output digest of every workload at every effective seed.

    python3 bench/record_digests.py [--check]

Runs each workload once per seed in 0..SEED_CYCLE-1 with the weylab under
src/ and writes digests.json.  It refuses to write when a digest disagrees
with the ROADMAP byte-identity baseline (workloads.BASELINE) or when a
fibre-scan pair breaks check <= besicovitch <= weyl <= hat.  With --check
it compares against the existing digests.json instead of writing.  Rerun
only for a change that is meant to alter output bytes, and say why.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile

import workloads
from run import SRC, WORK, WORKER


def digest_of(workload, seed, scratch) -> str:
    outdir = os.path.join(scratch, "out")
    shutil.rmtree(outdir, ignore_errors=True)
    run_args = workloads.prepare(workload, seed, scratch)
    result_path = os.path.join(scratch, "result.json")
    subprocess.run([sys.executable, WORKER, SRC, result_path, "--", "run"]
                   + run_args + ["--out", outdir], cwd=scratch, check=True,
                   stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL)
    with open(result_path) as fh:
        exit_code = json.load(fh).get("exit_code")
    digest, problem = workloads.inspect(workload, outdir, exit_code)
    if problem:
        raise SystemExit("%s seed %d: %s" % (workload.name, seed, problem))
    return digest


def main(argv) -> int:
    check = "--check" in argv
    os.makedirs(WORK, exist_ok=True)
    scratch = tempfile.mkdtemp(prefix="digests-", dir=WORK)
    table = {}
    try:
        for name, workload in sorted(workloads.WORKLOADS.items()):
            table[name] = {}
            for seed in range(workloads.SEED_CYCLE):
                table[name][str(seed)] = digest_of(workload, seed, scratch)
                print(name, seed, table[name][str(seed)], flush=True)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    for (name, seed), want in workloads.BASELINE.items():
        if table[name][str(seed)] != want:
            print("error: %s seed %d gives %s, baseline %s"
                  % (name, seed, table[name][str(seed)], want))
            return 1
    if check:
        same = table == workloads.load_digests()
        print("digests match digests.json" if same
              else "error: digests differ from digests.json")
        return 0 if same else 1
    with open(workloads.DIGESTS_PATH, "w") as fh:
        json.dump(table, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
