"""The shell stack: averaged distances vanish on every shell, survive on the
limit circle, and the projection to heights fails mean equicontinuity."""

import math

from weylab import (Point, SummaryMemo, dist, dyadic_schedule, get_factor,
                    scan_mean_equicontinuity, scan_property_M, weyl)

sched = dyadic_schedule(9, 16)
# one memo for the whole demo: the scans below draw these shell pairs again,
# on a schedule nested in this one, and build none of them a second time
memo = SummaryMemo()

print("same-shell pairs, angles pi/2 vs pi:")
for k in (1, 2, 4, 8):
    x = Point("shells62", (k, 0.5 * math.pi, 0))
    y = Point("shells62", (k, math.pi, 0))
    e = memo(x, y, sched).weyl
    print("  shell %d: d0 = %.4f  weyl = %.6f" % (k, dist(x, y), e.value))

print("\nlimit-circle pairs (identity action, averages do nothing):")
for t1, t2 in ((0.5 * math.pi, math.pi), (1.0, 1.3)):
    x = Point("shells62", (None, t1, 0))
    y = Point("shells62", (None, t2, 0))
    e = weyl(x, y, sched)
    print("  angles (%.2f, %.2f): weyl = %.15g  d = %.15g  equal: %s"
          % (t1, t2, e.value, dist(x, y), e.value == dist(x, y)))

# the projection onto heights: small d implies small D on fibres (property
# holds), yet the climbing sequence of shell pairs breaks the sequence
# criterion, so the map is not mean equicontinuous; the two scans read the
# memo too, so each shell pair is built and scanned once
factor = get_factor("shells62.pi")
scan_sched = dyadic_schedule(13, 16)
pm = scan_property_M(factor, scan_sched, seed=7, pair_count=12,
                     sequence_count=2, summaries=memo)
print("\nsmall-d-small-D scan over fibre pairs: holds =", pm.holds)
meq = scan_mean_equicontinuity(factor, scan_sched, seed=7, sequence_count=2,
                               summaries=memo)
print("mean equicontinuity: holds =", meq.holds)
for v in meq.violations:
    print("  witness:", v)
