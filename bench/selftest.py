"""Self-test of the benchmark's output gate and input generator.

    python3 bench/selftest.py

Checks that run.py reports the metrics BENCHMARK.json declares, that the
fibre-scan generator is a function of its seed, that a broken value
lattice is caught, and that an unaltered fibre-scan run passes the gate
while the same run with one byte of results.csv changed counts as failed.
Takes about fifteen seconds; exits 0 when every check holds.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
import tempfile

import tracing
import workloads
from run import E2E_UNITS, ROOT, WORK, Runner, per_layer_units

FIBRE = workloads.WORKLOADS["fibre-scan"]


class TamperingRunner(Runner):
    """Flips one digit of results.csv after the worker has written it."""

    def _worker(self, flags, outdir):
        result = super()._worker(flags, outdir)
        path = os.path.join(outdir, "results.csv")
        if os.path.exists(path):
            with open(path) as fh:
                text = fh.read()
            i = len(text) - 2  # last value's final digit
            flipped = "1" if text[i] != "1" else "2"
            with open(path, "w") as fh:
                fh.write(text[:i] + flipped + text[i + 1:])
        return result


def check_generator():
    for seed in range(workloads.SEED_CYCLE):
        assert workloads.fibre_scan_text(seed) == \
            workloads.fibre_scan_text(seed), seed
    texts = {workloads.fibre_scan_text(s)
             for s in range(workloads.SEED_CYCLE)}
    assert len(texts) == workloads.SEED_CYCLE, "two seeds give one file"
    assert workloads.effective_seed(workloads.SEED_CYCLE + 5) == 5


def check_gate(scratch, digests):
    honest = Runner(FIBRE, workloads.DEFAULT_SEED, scratch, digests)
    honest.run()
    assert honest.failures == [], honest.failures
    tampered = TamperingRunner(FIBRE, workloads.DEFAULT_SEED, scratch,
                                digests)
    tampered.run()
    assert len(tampered.failures) == 1, tampered.failures
    assert "digest" in tampered.failures[0], tampered.failures


def check_lattice(scratch):
    doc = {"s": {"operation": "estimate", "pairs": {
        "p000": {"check": 0.0, "besicovitch": 0.25, "weyl": 0.5, "hat": 1.0},
        "p001": {"check": 0.0, "besicovitch": 0.5, "weyl": 0.25, "hat": 1.0},
    }}}
    with open(os.path.join(scratch, "verdicts.json"), "w") as fh:
        json.dump(doc, fh)
    bad = workloads.lattice_violations(scratch)
    assert len(bad) == 1 and "p001" in bad[0], bad


def check_metric_names():
    """run.py reports exactly the metrics BENCHMARK.json declares."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    declared = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    assert declared == E2E_UNITS, (declared, E2E_UNITS)
    layers = tracing.per_layer({"spans": [], "counts": {},
                                "distinct_profiles": 0})
    layers.update(traced_wall_s=0.0, trace_overhead_s=0.0)
    declared = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert declared == {k: per_layer_units(k) for k in layers}, declared
    assert sorted(w["name"] for w in spec["workloads"]) == \
        sorted(workloads.WORKLOADS)


def main() -> int:
    os.makedirs(WORK, exist_ok=True)
    scratch = tempfile.mkdtemp(prefix="selftest-", dir=WORK)
    try:
        check_metric_names()
        print("metrics: names and units match BENCHMARK.json")
        check_generator()
        print("generator: same seed same file, distinct seeds distinct files")
        check_lattice(scratch)
        print("gate: a broken value lattice is caught")
        check_gate(scratch, workloads.load_digests())
        print("gate: an unaltered run passes, an altered results.csv fails")
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
