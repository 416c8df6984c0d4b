"""Workload definitions, the seeded fibre-scan generator and the output gate.

A workload names the scenario a cold `weylab run` executes and how the
benchmark seed reaches it.  The benchmark seed is reduced modulo
SEED_CYCLE so that every seed the benchmark can be given has a digest
recorded in digests.json (see record_digests.py); the same seed always
gives the same inputs.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
from dataclasses import dataclass
from typing import List, Optional, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
DIGESTS_PATH = os.path.join(HERE, "digests.json")

SEED_CYCLE = 32
DEFAULT_SEED = 3

# ROADMAP byte-identity baseline: `weylab run <name> --out D` at the
# scenario's own seed, first 16 hex digits of sha256(results.csv +
# verdicts.json).  record_digests.py refuses to write a table that
# disagrees with these.
BASELINE = {
    ("chain-classify", 3): "10c18c95277abb87",
    ("shell-orbits", 7): "d2c79f470f6247f0",
}

FIBRE_PAIRS = 20
FIBRE_Z_RANGE = (-50, 50)


@dataclass(frozen=True)
class Workload:
    name: str
    # bundled scenario run with --seed; None: a file generated from the seed
    bundled: Optional[str]


WORKLOADS = {
    w.name: w
    for w in (
        Workload("chain-classify", "tm-chain-classify"),
        Workload("shell-orbits", "shells-meq"),
        Workload("fibre-scan", None),
    )
}


def effective_seed(seed: int) -> int:
    return seed % SEED_CYCLE


def fibre_scan_text(seed: int) -> str:
    """Scenario file of FIBRE_PAIRS Toeplitz integer-address fibre pairs,
    distinct addresses drawn from FIBRE_Z_RANGE by the seed."""
    zs = sorted(random.Random(seed).sample(range(*FIBRE_Z_RANGE), FIBRE_PAIRS))
    pairs = "\n".join(
        "    addr=int:%d flag=plain | addr=int:%d flag=primed" % (z, z)
        for z in zs)
    return (
        "# fibre-scan workload, generated from seed %d\n"
        "[scenario:fibre-scan]\n"
        "operation = estimate\n"
        "system = toeplitz\n"
        "pairs =\n%s\n"
        "lo_exponent = 8\n"
        "max_exponent = 16\n"
        "kinds = besicovitch weyl check hat banach-density\n"
        "eps = 0.01\n" % (seed, pairs))


def prepare(workload: Workload, seed: int, workdir: str) -> List[str]:
    """Arguments after `weylab run` for this workload at the effective
    seed; writes the generated scenario file into workdir if needed."""
    if workload.bundled is not None:
        return [workload.bundled, "--seed", str(seed)]
    spec = os.path.join(workdir, "%s-%d.ini" % (workload.name, seed))
    with open(spec, "w") as fh:
        fh.write(fibre_scan_text(seed))
    return [spec]


def output_digest(outdir: str) -> str:
    h = hashlib.sha256()
    for name in ("results.csv", "verdicts.json"):
        with open(os.path.join(outdir, name), "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()[:16]


def lattice_violations(outdir: str) -> List[str]:
    """Pairs of an estimate scenario whose values break
    check <= besicovitch <= weyl <= hat."""
    with open(os.path.join(outdir, "verdicts.json")) as fh:
        verdicts = json.load(fh)
    bad = []
    for scenario, doc in sorted(verdicts.items()):
        for pid, row in sorted(doc["pairs"].items()):
            chain = [row[k] for k in ("check", "besicovitch", "weyl", "hat")]
            if any(a > b for a, b in zip(chain, chain[1:])):
                bad.append("%s/%s %r" % (scenario, pid, chain))
    return bad


def load_digests() -> dict:
    with open(DIGESTS_PATH) as fh:
        return json.load(fh)


def inspect(workload: Workload, outdir: str,
            exit_code) -> Tuple[Optional[str], Optional[str]]:
    """(output digest, problem): problem is why the run failed whatever
    its digest (bad exit code, unreadable outputs, broken lattice)."""
    if exit_code != 0:
        return None, "exit code %r, expected 0" % (exit_code,)
    try:
        digest = output_digest(outdir)
        lattice = (lattice_violations(outdir) if workload.bundled is None
                   else [])
    except (OSError, ValueError, KeyError) as exc:
        return None, "unreadable outputs: %s" % exc
    if lattice:
        return digest, "value lattice broken: %s" % "; ".join(lattice)
    return digest, None


def judge(workload: Workload, seed: int, outdir: str, exit_code,
          digests: dict) -> Optional[str]:
    """None when the run's outputs are exactly the recorded ones, else the
    reason the run counts as failed."""
    digest, problem = inspect(workload, outdir, exit_code)
    if problem:
        return problem
    want = digests.get(workload.name, {}).get(str(seed))
    if want is None:
        return "no recorded digest for seed %d" % seed
    if digest != want:
        return "output digest %s, recorded %s" % (digest, want)
    return None
