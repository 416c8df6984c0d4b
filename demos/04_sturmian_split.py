"""The golden-rotation coding chain decomposes cleanly.

sturm.pi (coding point -> base point) factors as the almost one-to-one
collapse sturm.phi followed by the rotation projection sturm.psi; the first
is Banach proximal on fibres, the second an isometry, so the verification
passes with delta(eps) = eps.
"""

from weylab import (Point, dyadic_schedule, get_factor, scan_equicontinuity,
                    verify_decomposition, weyl)

rep = verify_decomposition("sturm.pi", "sturm.phi", "sturm.psi",
                           dyadic_schedule(8, 12), seed=5, pair_count=10,
                           sequence_count=3)
print("decomposition passed:", rep.passed)
print("note:", rep.note)

sched = dyadic_schedule(8, 16)
print("\ncoding fibre pairs (upper vs lower coding of the same angle):")
for k in (0, 1, 5, 13, -21):
    e = weyl(Point("sturmian", (k, 0)), Point("sturmian", (k, 1)), sched)
    print("  k = %-4d weyl = %.8f" % (k, e.value))

eq = scan_equicontinuity(get_factor("sturm.psi"), dyadic_schedule(8, 12),
                         seed=5, pair_count=12)
print("\nrotation leg modulus scan (holds = %s, delta == eps: %s):"
      % (eq.holds, eq.delta_equals_eps))
for eps, delta, ok in eq.grid:
    print("  eps = %.2f  delta* = %s  ok = %s" % (eps, delta, ok))
