"""How sharp is the guaranteed winding level? A minimal-slope profile shows it.

For profile Hamiltonians F = u(p1) the winding speed of every orbit is u'(p1),
so the largest pairing any invariant measure can produce is max|u'|. Going
from u(0) = 0 up to u(1/2) = 1 and back down forces max|u'| >= 2; a smooth
profile can get within any epsilon of that. Certifying max|u'| <= 2.1 < pi
shows the guaranteed level 2 cannot be improved.
"""

import numpy as np

import rotvec as rv

## build the flattest admissible profile -----------------------------------
F = rv.make_pinned_profile([(0.0, 0.0), (0.5, 1.0)], n_modes=32)
meta = F.metadata
print(f"grid max |u'|      : {meta['slope_grid_max']:.6f}")
print(f"curvature pad      : {meta['slope_pad']:.6f}")
print(f"certified max |u'| : {meta['certified_slope']:.6f}  (<= 2.1: "
      f"{'yes' if meta['certified_slope'] <= 2.1 else 'NO'})")

## no orbit can beat the certified slope -----------------------------------
space = rv.torus(1)
alpha = rv.one_form([0.0, 1.0])  # the integer class [dq1]
seeds = rv.full_seed_grid(space, 32)
_, best, report = rv.extremal_orbit_search(F, alpha, space, seeds,
                                           T0=100.0, T_max=1e4, h=1e-2)
print(f"\nlargest |<[dq1], rho>| over {len(seeds)} seeds: {best:.6f}")
print(f"every seed below certified slope + 1e-6: "
      f"{bool(np.all(report.per_seed_values <= meta['certified_slope'] + 1e-6))}")

## compare: 12 modes are provably not enough for 2.1 ------------------------
F12 = rv.make_pinned_profile([(0.0, 0.0), (0.5, 1.0)], n_modes=12)
print(f"\nwith 12 modes the optimum is {F12.metadata['certified_slope']:.4f} > 2.1: "
      "more modes are needed to hug the triangular profile")
