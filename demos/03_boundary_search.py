"""Finding the satisfaction boundary of a parametric template.

Every parameter has a polarity: raising a threshold can only make "x > c"
harder, widening a window can only make "eventually" easier.  That makes the
minimum robustness over the traces monotone across the parameter box, so it
changes sign at most once along each box diagonal.  The search locates that
crossing on the grid of points a bisection would probe, alternating a secant
guess with a halving: it ends on the same grid step as bisection (so the
points are the same), with at most two probes more and usually far fewer.  The emitted
valuations are the tightest instantiations the traces marginally satisfy.
"""
import numpy as np

from stlmine import BoundaryQuery, Dataset, Trace, default_bounds, parse_formula

# x climbs from 0 to 10, one unit per second
ramp = Trace({"x": np.arange(0.0, 10.05, 0.1)}, period=0.1)
ds = Dataset([ramp], [1])

template = parse_formula("F[0,$tau](x > $c)")
space = default_bounds(template, ds)  # box from data: thresholds padded 10%
for p in space.params:
    print(f"axis {p.name}: [{p.lo:.2f}, {p.hi:.2f}] {p.kind.value} {p.polarity.value}")

# on this trace the template flips exactly on the line tau = c: you can reach
# level c within tau seconds iff tau exceeds c
query = BoundaryQuery(template, space, ds.traces, max_points=12)
print("\nboundary valuations (expect tau close to c):")
for v in query:
    print(f"  tau={v['tau']:7.3f}  c={v['c']:7.3f}  gap={abs(v['tau'] - v['c']):.4f}")

# keep_log tracks how the box was carved into decided and undecided regions
query = BoundaryQuery(template, space, ds.traces, keep_log=True)
points = list(query)
log = query.drain_log()
vol = lambda boxes: sum(b.volume() for b in boxes)
total = float(np.prod(space.highs() - space.lows()))
print(f"\n{len(points)} boundary points at the default resolution")
print(f"satisfying volume   {vol(log.valid) / total:6.1%}")
print(f"violating volume    {vol(log.invalid) / total:6.1%}")
print(f"undecided remainder {(vol(log.below_delta) + vol(log.unexplored)) / total:6.1%}")
