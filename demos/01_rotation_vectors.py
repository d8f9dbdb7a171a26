"""Rotation vectors of a pinned Hamiltonian flow on the standard 2-torus.

The Hamiltonian F = sin^2(pi p1) vanishes on the circle {p1 = 0} and equals 1
on {p1 = 1/2}. Any flow pinned like that is forced to transport *some*
invariant measure around the torus fast: searching its orbits for the largest
time-averaged winding finds the circle p1 = 1/4, which rotates at speed pi,
comfortably above the guaranteed level 2.
"""

import numpy as np

import rotvec as rv

## the phase space and the pinned Hamiltonian ------------------------------
space = rv.torus(1)  # coordinates (p1, q1), both mod 1
F = rv.fourier_hamiltonian(2, [(0.5, [0, 0], 0, "cos"), (-0.5, [1, 0], 0, "cos")])
print("F on {p1=0}:  ", F.eval([0.0, 0.0]))
print("F on {p1=1/2}:", F.eval([0.5, 0.0]))

## one orbit, integrated symplectically ------------------------------------
field = rv.hamiltonian_field(F, space)
traj = rv.integrate(field, [0.25, 0.0], T=200.0, h=1e-2)
print(f"\norbit at p1 = 1/4: q1 advanced by {traj.lifts[-1, 1] - traj.lifts[0, 1]:.3f} "
      f"over T = {traj.T:.0f}  (speed pi = {np.pi:.3f})")
print(f"energy drift along the orbit: {traj.energy_drift():.2e}")

## its empirical measure and rotation vector -------------------------------
mu = rv.empirical_measure(traj)
rho = rv.rotation_vector(mu, F)
print(f"rotation vector (dual to [dp1], [dq1]): {rho.coeffs}")
# dual bases: <[dq1], rho> is the dot product of the coefficient vectors
print(f"pairing with [dq1]: {rv.CohomologyClass([0.0, 1.0]).coeffs @ rho.coeffs:.6f}")

## the extremal search over a seed grid ------------------------------------
# the translation taking {p1=0} to {p1=1/2} has net-translation class
# (1/2)[dq1]; pairings against it are guaranteed to reach 1 somewhere
alpha = rv.one_form([0.0, 0.5])
seeds = rv.full_seed_grid(space, 32)
best, value, report = rv.extremal_orbit_search(F, alpha, space, seeds,
                                               T0=100.0, T_max=1e4, h=1e-2)
print(f"\nbest |pairing| over {len(seeds)} seeds: {value:.6f} at p1 = {best[0]}")
print(f"in the integer class [dq1]: {2 * value:.6f}  (>= 2 guaranteed, pi attained)")
print(f"converged: {report.converged} after horizons {report.horizons}")
