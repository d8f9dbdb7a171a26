"""A twisted symplectic form whose flow winds without any closed orbits.

On the 4-torus with omega = dp1^dq1 + gamma dp2^dq1 + dp2^dq2 (gamma
irrational), the same pinned Hamiltonian sin^2(pi p1) generates a field
parallel to d/dq1 - gamma d/dq2. Each invariant torus {p = const} carries a
quasi-periodic motion: the rotation vector is irrational, so the large
winding promised by the pinning is carried entirely by invariant measures,
never by periodic orbits (the only closed orbits are the fixed points on
{p1 = 0} and {p1 = 1/2}).
"""

import numpy as np

import rotvec as rv

gamma = rv.DEFAULT_GAMMA  # sqrt(2) - 1, a quadratic irrational
space = rv.torus(2, rv.twisted_structure(gamma))
F = rv.fourier_hamiltonian(4, [(0.5, [0, 0, 0, 0], 0, "cos"),
                               (-0.5, [1, 0, 0, 0], 0, "cos")])

## the field at p1 = 0.2 ----------------------------------------------------
x0 = np.array([0.2, 0.0, 0.0, 0.0])
field = rv.hamiltonian_field(F, space)
v = field.velocity(x0[None])[0]  # the batched field on a batch of one point
speed = np.pi * np.sin(0.4 * np.pi)
print(f"field at p1 = 0.2: {v}")
print(f"expected speed * (0, 0, 1, -gamma) with speed = pi sin(0.4 pi) = {speed:.6f}")

## long-horizon rotation vector ---------------------------------------------
traj = rv.integrate(field, x0, T=2000.0, h=1e-2)
rho = rv.rotation_vector(rv.empirical_measure(traj), F)
print(f"\nrotation vector at T = 2000: {rho.coeffs}")
print(f"q-component error: {np.abs(rho.coeffs[2:] - [speed, -gamma * speed]).max():.2e}")
print(f"momentum components: {np.abs(rho.coeffs[:2]).max():.2e} (invariant tori)")

## frequency ratio is irrational: the orbit never closes ---------------------
print(f"\nfrequency ratio q2/q1 = {rho.coeffs[3] / rho.coeffs[2]:.9f} = -gamma "
      f"(gamma = {gamma:.9f})")
wrapped = rv.wrap(traj.lifts, space)
gaps = np.abs(wrapped[1:, 2:] - wrapped[0, 2:]).max(axis=1)
print(f"closest return of (q1, q2) to the start over T = 2000: {gaps.min():.4f} "
      "(never 0: quasi-periodic)")
