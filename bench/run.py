"""weylab scenario benchmark.

    python3 bench/run.py --workload chain-classify|shell-orbits|fibre-scan|all
                         [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a weylab checkout; weylab is imported from src/.
Every timed run is a fresh interpreter executing one `weylab run`
(--threads left at 1), one after another, so orbit caches and the profile
cache start cold as they do for a user.  Each run's results.csv and
verdicts.json must hash to the digest recorded in digests.json for the
workload and seed; any mismatch, crash or unexpected exit code is a failed
run.

--trace 0 reports the end-to-end metrics (medians over the runs, with
their counts).  --trace 1 makes untraced runs for the wall-time median,
then one run with every layer wrapped (tracing.py), and reports the
per-layer metrics and the tracing overhead.  The last line of output is
one JSON object: {"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

import tracing
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_work")
WORKER = os.path.join(HERE, "worker.py")

# no worker may still run this many seconds after a workload's
# measurement started, so a one-workload invocation ends within 180 s
HARD_LIMIT_S = 170.0
# a traced run costs about this much more than an untraced one
TRACE_COST = 1.3
# set-up samples taken at most
MAX_PROBES = 40

E2E_UNITS = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}


def run_record(workload: str, seed: int, trace: int) -> dict:
    """What must match before two results may be compared."""
    return {
        "workload": workload,
        "seed": seed,
        "effective_seed": workloads.effective_seed(seed),
        "trace": trace,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "loadavg_at_start": list(os.getloadavg()),
    }


class Runner:
    """Cold runs of one workload at one seed, with their verdicts."""

    def __init__(self, workload, seed, scratch, digests):
        self.workload = workload
        self.seed = workloads.effective_seed(seed)
        self.scratch = scratch
        self.digests = digests
        self.run_args = workloads.prepare(workload, self.seed, scratch)
        self.started = time.perf_counter()
        self.runs = []      # worker results of scenario runs
        self.failures = []  # reasons, one per failed scenario run
        self.probe_errors = []
        self.setup = []     # setup_s of runs and probes
        self.durations = []  # outside view of each scenario run
        self.probe_cost = 0.0

    def elapsed(self) -> float:
        return time.perf_counter() - self.started

    def _worker(self, flags, outdir):
        result_path = os.path.join(self.scratch, "result.json")
        if os.path.exists(result_path):
            os.remove(result_path)
        cmd = ([sys.executable, WORKER, SRC, result_path] + flags
               + ["--", "run"] + self.run_args + ["--out", outdir])
        timeout = max(1.0, HARD_LIMIT_S - self.elapsed())
        try:
            proc = subprocess.run(cmd, cwd=self.scratch,
                                  stdin=subprocess.DEVNULL,
                                  stdout=subprocess.DEVNULL,
                                  stderr=subprocess.PIPE, timeout=timeout)
        except subprocess.TimeoutExpired:
            return None, "timed out after %.0f s" % timeout
        try:
            with open(result_path) as fh:
                return json.load(fh), None
        except (OSError, ValueError):
            tail = proc.stderr.decode(errors="replace").strip()[-400:]
            return None, "worker exit %d: %s" % (proc.returncode, tail)

    def probe(self) -> None:
        """Set-up only: import weylab and parse the scenario."""
        t = time.perf_counter()
        result, error = self._worker(["--setup-only"],
                                     os.path.join(self.scratch, "probe"))
        self.probe_cost = max(self.probe_cost, time.perf_counter() - t)
        if error:
            self.probe_errors.append(error)
        else:
            self.setup.append(result["setup_s"])

    def run(self, dump=None) -> dict:
        outdir = os.path.join(self.scratch, "out")
        shutil.rmtree(outdir, ignore_errors=True)
        t = time.perf_counter()
        result, error = self._worker(["--trace", dump] if dump else [], outdir)
        self.durations.append(time.perf_counter() - t)
        if error is None:
            error = result.get("error") or workloads.judge(
                self.workload, self.seed, outdir, result.get("exit_code"),
                self.digests)
        if error:
            self.failures.append(error)
            print("FAILED run %d of %s: %s" % (len(self.durations),
                                               self.workload.name, error),
                  file=sys.stderr)
        if result is not None:
            self.runs.append(result)
            if dump is None:
                self.setup.append(result["setup_s"])
        shutil.rmtree(outdir, ignore_errors=True)
        return result

    def fits(self, runs: float, probes: int, seconds: float) -> bool:
        """Whether `runs` more runs as long as the longest so far (with 10%
        slack for noise) and `probes` set-up probes end within the
        measuring time."""
        need = runs * 1.1 * max(self.durations) + probes * self.probe_cost
        return self.elapsed() + need <= seconds


def measure(runner: Runner, seconds: float) -> dict:
    runner.probe()  # warm-up: byte-compiles weylab once; not counted
    runner.setup.clear()
    runner.run()
    # share half the time the runs leave over evenly among set-up probes
    # after each run, so that the set-up samples spread over the measuring
    # time; the other half is slack for slow runs and probes
    longest = 1.1 * max(runner.durations)
    left = max(0.0, seconds - runner.elapsed())
    runs = 1 + int(left // longest)
    spare = left - (runs - 1) * longest
    batch = min(MAX_PROBES // runs, int(spare / 2 / runs / runner.probe_cost))
    while True:
        for _ in range(batch):
            runner.probe()
        if not runner.fits(1.0, batch, seconds):
            break
        runner.run()
    while (runner.elapsed() + 1.5 * runner.probe_cost <= seconds
           and len(runner.setup) < MAX_PROBES):
        runner.probe()
    samples = {"setup_s": runner.setup,
               "wall_s": [r["wall_s"] for r in runner.runs],
               "peak_rss_mb": [r["peak_rss_mb"] for r in runner.runs]}
    return {k: (statistics.median(v), len(v))
            for k, v in samples.items() if v}


def measure_traced(runner: Runner, seconds: float):
    runner.probe()  # warm-up, as in measure()
    runner.setup.clear()
    runner.run()
    while runner.fits(1.0 + TRACE_COST, 0, seconds):
        runner.run()
    if not runner.runs:
        return None, None, 0
    wall = statistics.median(r["wall_s"] for r in runner.runs)
    untraced_count = len(runner.runs)
    dump_path = os.path.join(runner.scratch, "trace.json")
    traced = runner.run(dump=dump_path)
    if traced is None or not os.path.exists(dump_path):
        return None, wall, untraced_count
    with open(dump_path) as fh:
        dump = json.load(fh)
    shutil.copy(dump_path, os.path.join(
        WORK, "trace-%s-seed%d.json" % (runner.workload.name, runner.seed)))
    layers = tracing.per_layer(dump)
    layers["traced_wall_s"] = traced["wall_s"]
    layers["trace_overhead_s"] = traced["wall_s"] - wall
    return layers, wall, untraced_count


# ---------------------------------------------------------------------------
# separation claims: which layer each workload is meant to stress


def separation(workload: str, layers: dict):
    """(claim, holds) for the layer each workload is meant to stress."""
    not_self = ("cli.parse_s", "traced_wall_s", "trace_overhead_s")
    selfs = {k: v for k, v in layers.items()
             if k.endswith("_s") and k not in not_self}
    out = []
    bpd = layers["estimators.builds_per_distinct"]
    if workload == "chain-classify":
        out.append(("estimators.builds_per_distinct > 1", bpd > 1))
    if workload == "fibre-scan":
        out.append(("estimators.builds_per_distinct == 1", bpd == 1))
        scans = (selfs.pop("estimators.weyl_self_s")
                 + selfs.pop("estimators.banach_density_self_s"))
        out.append(("weyl + banach_density self time is the largest",
                    scans > max(selfs.values())))
    if workload == "shell-orbits":
        build = selfs.pop("systems.build_s")
        out.append(("systems.build_s is the largest self time",
                    build > max(selfs.values())))
    return out


def per_layer_units(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.startswith("systems.ns_") or name.startswith("estimators.ns_"):
        return "ns"
    if name.endswith("builds_per_distinct"):
        return "ratio"
    return "count"


# ---------------------------------------------------------------------------


def bench_one(name: str, seed: int, seconds: float, trace: int, digests):
    workload = workloads.WORKLOADS[name]
    record = run_record(name, seed, trace)
    os.makedirs(WORK, exist_ok=True)
    scratch = tempfile.mkdtemp(prefix="%s-" % name, dir=WORK)
    try:
        runner = Runner(workload, seed, scratch, digests)
        if trace:
            layers, wall, n_untraced = measure_traced(runner, seconds)
            metrics = {k: {"value": v, "unit": per_layer_units(k)}
                       for k, v in (layers or {}).items()}
            complete = layers is not None
        else:
            e2e = measure(runner, seconds)
            metrics = {k: {"value": v, "unit": E2E_UNITS[k], "runs": n}
                       for k, (v, n) in e2e.items()}
            complete = len(metrics) == len(E2E_UNITS)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    attempted = len(runner.durations)
    failed = len(runner.failures)
    record["scenario_runs"] = attempted
    record["setup_samples"] = len(runner.setup)
    record["measured_s"] = runner.elapsed()

    print("== %s  seed %d (weylab input seed %d)  %s"
          % (name, seed, runner.seed, "traced" if trace else "untraced"))
    if trace:
        print("  untraced runs: %d, wall_s median %s s; traced runs: 1"
              % (n_untraced, wall))
        for key in sorted(metrics):
            print("  %-44s %16.6g %s" % (key, metrics[key]["value"],
                                         metrics[key]["unit"]))
        if layers is not None:
            for claim, holds in separation(name, layers):
                print("  separation: %-48s %s"
                      % (claim, "holds" if holds else "DOES NOT HOLD"))
    else:
        for key, m in metrics.items():
            print("  %-12s %12.4f %-3s (median of %d)"
                  % (key, m["value"], m["unit"], m["runs"]))
    print("  %-12s %12.4f     (%d failed of %d runs)"
          % ("failed_ratio", failed / attempted if attempted else 1.0,
             failed, attempted))
    for reason in runner.failures + runner.probe_errors:
        print("  failure: %s" % reason)
    print("  run record: %s" % json.dumps(record, sort_keys=True))

    correct = (complete and attempted > 0 and not runner.failures
               and not runner.probe_errors)
    result = {"correct": correct, "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": m["value"], "unit": m["unit"]}
                          for k, m in metrics.items()}}
    os.makedirs(os.path.join(WORK, "results"), exist_ok=True)
    with open(os.path.join(WORK, "results", "%s-seed%d-trace%d.json"
                           % (name, seed, trace)), "w") as fh:
        json.dump({"record": record, "result": result,
                   "failures": runner.failures,
                   "runs": runner.runs, "setup": runner.setup}, fh,
                  indent=1)
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=44.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "weylab", "__init__.py")):
        print("error: no weylab sources under %s; run from the root of a "
              "weylab checkout" % SRC, file=sys.stderr)
        return 2
    digests = workloads.load_digests()
    names = (sorted(workloads.WORKLOADS) if args.workload == "all"
             else [args.workload])
    results = {n: bench_one(n, args.seed, args.seconds, args.trace, digests)
               for n in names}
    if len(names) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {"%s.%s" % (n, k): v for n, r in results.items()
                        for k, v in r["metrics"].items()},
        }
    print(json.dumps(final, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
