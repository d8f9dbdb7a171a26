"""Time-periodic Hamiltonians: the suspension and time-one-map winding.

A 1-periodic F(x, s) stops being conserved, but adding a bookkeeping pair
(r, s) with H = F + r restores an autonomous picture on M x T*S^1: s runs at
unit speed, r pays for the time dependence, H is conserved, and the flow
commutes with r-shifts. Rotation numbers of the time-one map phi come from
unit arcs of the same flow, and the pinned profile still forces windings
above 2 even with a substantial periodic wiggle switched on.
"""

import numpy as np

import rotvec as rv

space = rv.torus(1)
# sin^2(pi p1) + 0.2 sin(2 pi s) sin(2 pi p1), expanded into waves
F = rv.fourier_hamiltonian(2, [(0.5, [0, 0], 0, "cos"), (-0.5, [1, 0], 0, "cos"),
                               (0.1, [1, 0], -1, "cos"), (-0.1, [1, 0], 1, "cos")])
print(f"time-dependent: {F.is_time_dependent}")

## the suspension conserves H and keeps r in a band ---------------------------
H = rv.SuspendedHamiltonian(F, space)
z0 = rv.extended_point([0.25, 0.0], r=0.0, s=0.0, nspace=H.nspace)
straj = rv.suspension_flow(H, z0, T=200.0, h=1e-2)
unit_energies = straj.energies[::100]
print(f"H drift at whole periods over T = 200: "
      f"{np.abs(unit_energies - unit_energies[0]).max():.2e}")
print(f"|r| stays within the oscillation of F: max |r| = "
      f"{np.abs(straj.lifts[:, 1]).max():.4f}")
print(f"r-shift equivariance defect: "
      f"{rv.shift_equivariance_check(H, z0, c=2.5, T=50.0, h=1e-2):.2e}")

## time-one map winding: search over seed circles -----------------------------
alpha = rv.one_form([0.0, 1.0])
seeds = rv.momentum_seed_grid(space, 32)
best, value, report = rv.map_orbit_search(F, alpha, space, seeds,
                                          n0=100, n_max=10000, h=1e-2)
print(f"\nlargest |<[dq1], rho(mu, phi)>| = {value:.6f} at p1 = {best[0]} "
      f"(>= 2 - 1e-2 guaranteed; the s-average of the wiggle cancels)")

## two formulas for the same pairing ------------------------------------------
mu = rv.time_one_orbit(F, space, best, n_units=int(report.horizons[-1]), h=1e-2)
loop, double = rv.rotation_pairing_time_one(mu, F, alpha)
print(f"loop-integral route:    {loop:.12f}")
print(f"double-integral route:  {double:.12f}")

## the suspended measure projects onto the base measure -----------------------
sigma = rv.cylinder_measure_from_suspension(
    rv.suspension_flow(H, rv.extended_point([0.0, 0.3], 0.0, 0.0, H.nspace), 50.0, 1e-2), 1)
mu_pt = rv.EmpiricalMeasure(space, np.array([[0.0, 0.3]]), np.array([1.0]))
obs = [lambda X, s: np.cos(2 * np.pi * (X[..., 1] + s)),
       lambda X, s: np.sin(2 * np.pi * s)]
print(f"suspension/base correspondence defect: "
      f"{rv.step7_correspondence_check(sigma, mu_pt, F, obs):.2e}")
