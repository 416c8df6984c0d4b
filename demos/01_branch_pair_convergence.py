"""Watch the two branch orderings of the interval mirror map drift apart.

For y in the plateau (1/(L+1), 1/L) the pair (hat, check) starts at distance
sqrt(2)*|y - y| = 0 + eps but the backward orbit climbs to the plateau top,
so one-sided windows see the averaged distance settle near 2/L.
"""

from weylab import Point, dyadic_schedule, estimates, get_system

sys61 = get_system("interval61")
sched = dyadic_schedule(5, 14, "left")

for y0, L in ((0.3, 3), (0.22, 4), (0.6, 1)):
    a = Point("interval61", sys61.parse_point("y=%r branch=hat" % y0))
    b = Point("interval61", sys61.parse_point("y=%r branch=check" % y0))
    both = estimates(a, b, sched, ("weyl", "hat"))  # one profile build
    ew, eh = both["weyl"], both["hat"]
    print("y = %-5g plateau level L = %d, target 2/L = %.6f" % (y0, L, 2 / L))
    print("  %10s %12s %12s" % ("window", "weyl", "hat sample"))
    for wv, hv in zip(ew.per_window, eh.per_window):
        print("  %10d %12.6f %12.6f" % (len(wv.window), wv.value, hv.value))
    print("  final: weyl %.6f  hat %.6f" % (ew.value, eh.value))
    if ew.boundary_warning:
        # the sup over translates keeps landing on the window edge; for this
        # map that is expected, the supremum is only attained in the limit
        print("  (translate hit the window boundary; value still climbing)")
    print()
