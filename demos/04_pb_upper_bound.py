"""A certified minimax bracket bound between two momentum circles.

The invariant: over all Hamiltonians F with F <= 0 on X = {p1 = 0} and F >= 1
on X' = {p1 = 1/2}, and all 1-forms alpha in the class of the half-translation,
minimize the uniform norm of the bracket {F, alpha}. Non-displaceability of
the circles puts a floor of 1 under this number (asserted, not computed). For
a profile F = u(p1) the bracket is (1/2) u'(p1), linear in the profile, so the
minimal-slope profile found by linear programming is the optimal candidate;
its certified bracket bound sits just above the floor, so the invariant is
pinned to [1, 1.04] numerically.
"""

import rotvec as rv

space = rv.torus(1)
a = rv.CohomologyClass([0.0, 0.5])
X = rv.momentum_level_torus(space, [0.0])
Xp = rv.momentum_level_torus(space, [0.5])

## the LP candidate: the pinned profile u(p1) of minimal max|u'| -------------
F = rv.make_pinned_profile([(0.0, 0.0), (0.5, 1.0)], n_modes=32)
problem = rv.PbProblem(space, X, Xp, a, floor=1.0)

## certify the sup of the bracket for the LP candidate ----------------------
result = rv.pb_upper_bound(problem, F, cert_grid_res=8192)
w = result.audit["winner"]
print(f"certified upper bound: {result.value:.6f}")
print(f"  = grid max {w['grid_max']:.6f} + curvature pad {w['pad']:.2e}")
print(f"asserted floor: {problem.floor}  ->  invariant in [{problem.floor}, {result.value:.4f}]")
print(f"winner admissibility: {w['constraints']}")

## the bracket of the winner is (1/2) u'(p1) ---------------------------------
b = float(rv.bracket_poly(F, rv.ClosedOneForm(a), space).eval([0.25, 0.0]))
print(f"\nbracket of the winner at p1 = 1/4: {b:.4f} "
      "(the profile spreads its slope almost flat)")
