"""Factor maps between the bundled systems, with seeded fibre samplers.

Three chains are wired up here:

* parity chain: thuemorse --phi--> toeplitz --psi--> odometer, with
  pi = psi o phi.  phi forgets the parity bit (fibres are complement
  pairs at constant distance 1), psi forgets the letter choice at the
  singular slot (fibres differ in exactly one letter).
* golden chain: sturmian --phi--> rotation --psi--> point.  phi sends an
  orbit coding to its circle position (fibres are the two one-sided
  codings), psi collapses the rotation.
* shell stack: shells62 --pi--> shellbase62 projects each shell to its
  height label.

Samplers are deterministic in the seed and emit pairs lying exactly in
R(pi), plus convergent pair sequences with declared limits.  Limits that
come from pointwise convergence along 4^n shifts are cross-checked
numerically before being emitted.
"""

from __future__ import annotations

import math

import numpy as np

from ..core import (FactorMap, Point, SamplerError, get_system,
                    register_factor, seed_stream)
from ..dyadic import DyadicInteger
from ..relations import PairSequence
from .shells import TWO_PI
from .sturmian import A_UNITS, MOD
from .thuemorse import complement


def _pt(system_id, payload):
    return Point(system_id, payload)


# ---------------------------------------------------------------------------
# parity chain

def _tm_point(addr: int, flag: int, bit: int) -> Point:
    return _pt("thuemorse", (DyadicInteger.from_int(addr), flag, bit))


def _toep_point(addr: int, flag: int) -> Point:
    return _pt("toeplitz", (DyadicInteger.from_int(addr), flag))


def _tm_phi_pairs(seed: int, count: int):
    rng = seed_stream(seed)
    pairs = []
    for addr in (0, 1, -1, 5):
        x = _tm_point(addr, 0, 0)
        pairs.append((x, _pt("thuemorse", complement(x.payload))))
    x = _tm_point(2, 1, 1)
    pairs.append((x, x))  # diagonal
    while len(pairs) < count:
        x = _tm_point(int(rng.integers(-50, 50)), int(rng.integers(0, 2)),
                      int(rng.integers(0, 2)))
        pairs.append((x, _pt("thuemorse", complement(x.payload))))
    return pairs


def _tm_shift_limit(base: Point, exponents) -> Point:
    """Pointwise limit of sigma^(-4^n) base along the given n's.

    The address converges 2-adically to the base address, the singular
    slot letter converges to 'primed', and the letter at 0 must stabilize;
    the last is checked numerically rather than assumed.
    """
    sys = get_system("thuemorse")
    bits = [sys.act(base.payload, -(4 ** n))[2] for n in exponents]
    if len(set(bits[-3:])) != 1:
        raise SamplerError("letter at 0 did not stabilize along 4^n shifts")
    addr, _flag, _bit = base.payload
    return _pt("thuemorse", (addr, 1, bits[-1]))


def _tm_phi_sequences(seed: int, count: int):
    ns = tuple(range(1, 7))
    u = _tm_point(0, 0, 0)
    ubar = _pt("thuemorse", complement(u.payload))
    sys = get_system("thuemorse")
    terms = tuple(
        (
            _pt("thuemorse", sys.act(u.payload, -(4 ** n))),
            _pt("thuemorse", sys.act(ubar.payload, -(4 ** n))),
        )
        for n in ns
    )
    w = _tm_shift_limit(u, ns)
    wbar = _pt("thuemorse", complement(w.payload))
    seqs = [
        PairSequence(terms, (w, wbar),
                     "complement fibres under 4^n backward shifts"),
        PairSequence(tuple((a, a) for a, _ in terms), (w, w),
                     "diagonal control sequence"),
    ]
    return seqs[:count]


def _tm_psi_pairs(seed: int, count: int):
    rng = seed_stream(seed)
    pairs = [(_toep_point(z, 0), _toep_point(z, 1)) for z in range(-10, 10)]
    pairs.append((_toep_point(64, 0), _toep_point(64, 1)))
    pairs.append((_toep_point(-256, 0), _toep_point(-256, 1)))
    x = _toep_point(3, 0)
    pairs.append((x, x))
    while len(pairs) < count:
        z = int(rng.integers(-300, 300))
        pairs.append((_toep_point(z, 0), _toep_point(z, 1)))
    return pairs


def _tm_psi_sequences(seed: int, count: int):
    ns = tuple(range(1, 7))
    terms = tuple(
        (_toep_point(4 ** n, 0), _toep_point(4 ** n, 1)) for n in ns
    )
    w = _toep_point(0, 1)  # singular letter f(4^n) = 1 survives the limit
    seqs = [
        PairSequence(terms, (w, w), "singular fibres collapsing at 4^n"),
    ]
    return seqs[:count]


def _tm_pi_pairs(seed: int, count: int):
    rng = seed_stream(seed)
    pairs = []
    for z in (0, 1, -3):
        u = _tm_point(z, 0, 0)
        ubar = _pt("thuemorse", complement(u.payload))
        v = _tm_point(z, 1, 0)
        vbar = _pt("thuemorse", complement(v.payload))
        pairs.extend([(u, ubar), (u, v), (u, vbar), (v, vbar)])
    sys = get_system("thuemorse")
    u = _tm_point(0, 0, 0)
    v = _tm_point(0, 1, 0)
    for n in range(2, 7):
        g = -(4 ** n)
        pairs.append(
            (
                _pt("thuemorse", sys.act(u.payload, g)),
                _pt("thuemorse", sys.act(v.payload, g)),
            )
        )
    pairs.append((u, u))
    while len(pairs) < count:
        z = int(rng.integers(-50, 50))
        u = _tm_point(z, 0, int(rng.integers(0, 2)))
        pairs.append((u, _pt("thuemorse", (u.payload[0], 1, u.payload[2]))))
    return pairs


def _tm_pi_sequences(seed: int, count: int):
    ns = tuple(range(1, 7))
    u = _tm_point(0, 0, 0)
    v = _tm_point(0, 1, 0)
    sys = get_system("thuemorse")
    terms = tuple(
        (
            _pt("thuemorse", sys.act(u.payload, -(4 ** n))),
            _pt("thuemorse", sys.act(v.payload, -(4 ** n))),
        )
        for n in ns
    )
    w = _tm_shift_limit(u, ns)
    w2 = _tm_shift_limit(v, ns)
    if w.payload != w2.payload:
        raise SamplerError("the two fibre legs disagree in the limit")
    seqs = [
        PairSequence(terms, (w, w),
                     "half-line disagreement pairs with a diagonal limit"),
    ]
    return seqs[:count]


# ---------------------------------------------------------------------------
# golden chain

_ODD_FIBONACCI = (1, 2, 5, 13, 34, 89, 233, 610)  # F_j for odd j


def _sturm_point(k: int, side: int) -> Point:
    return _pt("sturmian", (k, side))


def _rot_point(units: int) -> Point:
    return _pt("rotation", units % MOD)


def _sturm_phi_pairs(seed: int, count: int):
    rng = seed_stream(seed)
    pairs = [(_sturm_point(k, 0), _sturm_point(k, 1))
             for k in (0, 1, -1, 5, 13, -21)]
    x = _sturm_point(2, 0)
    pairs.append((x, x))
    while len(pairs) < count:
        k = int(rng.integers(-100, 100))
        pairs.append((_sturm_point(k, 0), _sturm_point(k, 1)))
    return pairs


def _sturm_phi_sequences(seed: int, count: int):
    terms = tuple(
        (_sturm_point(f, 0), _sturm_point(f, 1)) for f in _ODD_FIBONACCI
    )
    limit = (_sturm_point(0, 0), _sturm_point(0, 0))
    seqs = [
        PairSequence(terms, limit,
                     "boundary fibres drifting to the one-sided coding of 0"),
    ]
    return seqs[:count]


_CURATED_ARCS = (0.5, 0.3, 0.2, 0.15)


def _sturm_psi_pairs(seed: int, count: int):
    rng = seed_stream(seed)
    pairs = []
    for i, arc in enumerate(_CURATED_ARCS):
        u = (i * 41 * A_UNITS) % MOD
        pairs.append((_rot_point(u), _rot_point(u + int(arc * MOD))))
    x = _rot_point(7 * A_UNITS)
    pairs.append((x, x))
    while len(pairs) < count:
        u = int(rng.integers(0, MOD, dtype=np.uint64))
        arc = 0.15 + 0.35 * float(rng.random())
        pairs.append((_rot_point(u), _rot_point(u + int(arc * MOD))))
    return pairs


def _sturm_psi_sequences(seed: int, count: int):
    u0 = 12345 * A_UNITS % MOD
    shrinking = tuple(
        (_rot_point(u0), _rot_point(u0 + int(0.3 * MOD) // 4 ** j))
        for j in range(8)
    )
    offset = int(0.3 * MOD)
    displaced = tuple(
        (_rot_point(u0), _rot_point(u0 + offset + int(0.2 * MOD) // 4 ** j))
        for j in range(8)
    )
    seqs = [
        PairSequence(shrinking, (_rot_point(u0), _rot_point(u0)),
                     "arcs shrinking onto the diagonal"),
        PairSequence(displaced, (_rot_point(u0), _rot_point(u0 + offset)),
                     "arcs shrinking onto a separated pair"),
    ]
    return seqs[:count]


def _sturm_pi_pairs(seed: int, count: int):
    rng = seed_stream(seed)
    pairs = [(_sturm_point(k, 0), _sturm_point(k, 1)) for k in (0, 3, -8)]
    pairs.extend(
        (_sturm_point(k, 0), _sturm_point(k + 1, 0)) for k in (0, 5, -13)
    )
    x = _sturm_point(1, 1)
    pairs.append((x, x))
    while len(pairs) < count:
        k = int(rng.integers(-100, 100))
        pairs.append((_sturm_point(k, 0), _sturm_point(k + 2, 0)))
    return pairs


# ---------------------------------------------------------------------------
# shell stack

def _shell_point(level, t: float) -> Point:
    return _pt("shells62", (level, t, 0))


def _shells_pi_pairs(seed: int, count: int):
    rng = seed_stream(seed)
    pairs = [
        (_shell_point(k, 0.5 * math.pi), _shell_point(k, math.pi))
        for k in (1, 2, 4, 8)
    ]
    pairs.append((_shell_point(1, 0.01), _shell_point(1, TWO_PI - 0.01)))
    pairs.append((_shell_point(None, 0.5 * math.pi), _shell_point(None, math.pi)))
    pairs.append((_shell_point(None, 1.0), _shell_point(None, 1.3)))
    x = _shell_point(2, 2.0)
    pairs.append((x, x))
    while len(pairs) < count:
        k = (1, 2, 4, 8)[int(rng.integers(0, 4))]
        t1 = float(0.3 + 5.0 * rng.random())
        t2 = float(0.3 + 5.0 * rng.random())
        pairs.append((_shell_point(k, t1), _shell_point(k, t2)))
    return pairs


def _shells_pi_sequences(seed: int, count: int):
    terms = tuple(
        (_shell_point(k, 0.5 * math.pi), _shell_point(k, math.pi))
        for k in (1, 2, 4, 8)
    )
    limit = (_shell_point(None, 0.5 * math.pi), _shell_point(None, math.pi))
    seqs = [
        PairSequence(terms, limit,
                     "shell pairs climbing the stack toward the rigid shell"),
    ]
    return seqs[:count]


# ---------------------------------------------------------------------------
# registration

def _register_all():
    register_factor(FactorMap(
        map_id="tm.phi", source="thuemorse", target="toeplitz",
        apply_payload=lambda p: (p[0], p[1]),
        pair_sampler=_tm_phi_pairs, sequence_sampler=_tm_phi_sequences,
        description="forget the parity bit; fibres are complement pairs",
    ))
    register_factor(FactorMap(
        map_id="tm.psi", source="toeplitz", target="odometer",
        apply_payload=lambda p: p[0],
        pair_sampler=_tm_psi_pairs, sequence_sampler=_tm_psi_sequences,
        description="forget the singular letter; two-to-one over integers",
    ))
    register_factor(FactorMap(
        map_id="tm.pi", source="thuemorse", target="odometer",
        apply_payload=lambda p: p[0],
        pair_sampler=_tm_pi_pairs, sequence_sampler=_tm_pi_sequences,
        description="composite projection onto the odometer",
    ))
    register_factor(FactorMap(
        map_id="sturm.phi", source="sturmian", target="rotation",
        apply_payload=lambda p: (p[0] * A_UNITS) % MOD,
        pair_sampler=_sturm_phi_pairs, sequence_sampler=_sturm_phi_sequences,
        description="orbit coding onto its circle position",
    ))
    register_factor(FactorMap(
        map_id="sturm.psi", source="rotation", target="point",
        apply_payload=lambda p: "pt",
        pair_sampler=_sturm_psi_pairs, sequence_sampler=_sturm_psi_sequences,
        description="collapse the rotation to a point",
    ))
    register_factor(FactorMap(
        map_id="sturm.pi", source="sturmian", target="point",
        apply_payload=lambda p: "pt",
        pair_sampler=_sturm_pi_pairs, sequence_sampler=_sturm_phi_sequences,
        description="collapse the coding to a point",
    ))
    register_factor(FactorMap(
        map_id="shells62.pi", source="shells62", target="shellbase62",
        apply_payload=lambda p: p[0],
        pair_sampler=_shells_pi_pairs, sequence_sampler=_shells_pi_sequences,
        description="project each shell to its height label",
    ))


_register_all()
