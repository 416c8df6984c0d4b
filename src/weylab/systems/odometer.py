"""The 2-adic odometer: addition of 1 on the ring of 2-adic integers.

Payloads are exact 2-adic integers (rationals with odd denominator), so the
group law is exact and the orbit distance profile is a constant: d is
invariant under simultaneous addition.
"""

from __future__ import annotations

from ..core import IsometricSystem, register_system
from ..dyadic import DyadicInteger, parse_dyadic


class OdometerSystem(IsometricSystem):
    system_id = "odometer"
    diameter = 1.0

    def act(self, payload: DyadicInteger, g: int) -> DyadicInteger:
        return payload.add_int(g)

    def dist(self, p: DyadicInteger, q: DyadicInteger) -> float:
        return p.dist(q)

    def parse_point(self, text: str) -> DyadicInteger:
        return parse_dyadic(text)

    def format_point(self, payload: DyadicInteger) -> str:
        return str(payload)

    def payload_syntax(self) -> str:
        return "int:<n> | frac:<p>/<q>  (q odd)"

    def sample_payloads(self, rng, count: int):
        out = []
        for i in range(count):
            if i % 3 == 2:
                num = int(rng.integers(-500, 500))
                den = 2 * int(rng.integers(1, 50)) + 1
                out.append(DyadicInteger.from_fraction(num, den))
            else:
                out.append(DyadicInteger.from_int(int(rng.integers(-1000, 1000))))
        return out


register_system(OdometerSystem())
