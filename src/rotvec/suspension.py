"""Autonomous suspension of time-periodic Hamiltonians.

A 1-periodic Hamiltonian F on M becomes the autonomous H(x, r, s) = F(x, s) + r
on the extended space N = M x T*S^1 with form omega + dr ^ ds. Its flow moves
s at unit speed, transports x by the non-autonomous flow of F started at phase
s(0), and pays for the time dependence through r (rdot = -dF/ds), so H is
conserved and |r| stays within the oscillation of F on orbits seeded at r = 0.
Rotation numbers of the time-one map phi of F are computed from unit arcs of
the same flow, either as loop integrals of a form along each arc or as the
double (x, t) integral of alpha(sgrad F_t); the two agree up to quadrature.

Extended coordinates are ordered (p_1..p_n, r, q_1..q_n, s): momenta first,
positions second, matching the base convention.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .dynamics import (Trajectory, VectorFieldSpec, _same_field, _steps_per_unit,
                       _trapezoid_weights, hamiltonian_field, integrate)
from .errors import QuadratureWarning
from .geometry import ClosedOneForm, PhaseSpace, RegionSpec, SymplecticStructure
from .measures import (EmpiricalMeasure, extremal_orbit_search, loop_integral,
                       measure_from_iterates)
from .trig import TrigPoly


def extend_space(base: PhaseSpace) -> PhaseSpace:
    """N = M x T*S^1 with form omega + dr ^ ds, coordinates (p.., r, q.., s)."""
    n, d = base.n, base.dim
    ext = np.zeros((d + 2, d + 2))
    idx = _embedding(n)
    ext[np.ix_(idx, idx)] = base.omega.matrix
    ext[n, 2 * n + 1] = 1.0   # dr ^ ds pairs like dp ^ dq
    ext[2 * n + 1, n] = -1.0
    periodic = np.zeros(d + 2, dtype=bool)
    periodic[idx] = base.periodic
    periodic[n] = False       # r is a genuine real
    periodic[2 * n + 1] = True  # s is mod 1
    return PhaseSpace("extended", n + 1, SymplecticStructure(ext), periodic)


def _embedding(n):
    """Base coordinate i -> its slot in the extended ordering."""
    return np.array([i for i in range(n)] + [n + 1 + i for i in range(n)])


def extended_point(base_lift, r, s, nspace: PhaseSpace) -> np.ndarray:
    """Assemble the N-lift (p.., r, q.., s) from base coordinates, r and s."""
    n = nspace.n - 1
    z = np.empty(nspace.dim)
    z[_embedding(n)] = np.asarray(base_lift, dtype=float)
    z[n] = r
    z[2 * n + 1] = s
    return z


class SuspendedHamiltonian:
    """H(x, r, s) = F(x, s) + r on the extended space, autonomous by construction."""

    def __init__(self, F: TrigPoly, base_space: PhaseSpace):
        self.F = F
        self.base_space = base_space
        self.nspace = extend_space(base_space)
        n, d = base_space.n, base_space.dim
        # re-index F's waves onto N: x-slots via the embedding, time freq -> s-slot
        kvecs = np.zeros((F.n_terms, d + 2), dtype=np.int64)
        kvecs[:, _embedding(n)] = F.kvecs
        kvecs[:, 2 * n + 1] = F.tfreq
        self.poly = TrigPoly(d + 2, F.coeffs, kvecs, np.zeros(F.n_terms), F.is_sin)
        self._e_r = np.zeros(d + 2)
        self._e_r[n] = 1.0

    @property
    def dim(self):
        return self.nspace.dim

    def eval(self, z):
        """H at the N-lift(s) z; the time is z's s slot."""
        Z = np.asarray(z, dtype=float)
        return self.poly.eval(Z) + Z[..., self.base_space.n]


def suspended_field(H: SuspendedHamiltonian) -> VectorFieldSpec:
    """The autonomous Hamiltonian field of H on N (sdot = 1, rdot = -dF/ds)."""
    nspace = H.nspace
    vel = H.poly.gradient_map(nspace.omega.inverse, const=nspace.omega.inverse @ H._e_r)
    return VectorFieldSpec("suspended", nspace, vel, H, H.eval)


def suspension_flow(H: SuspendedHamiltonian, z0, T, h) -> Trajectory:
    """Integrate the suspension flow; the trajectory logs H along the orbit."""
    return integrate(suspended_field(H), z0, T, h)


def stab(X: RegionSpec, nspace: PhaseSpace) -> RegionSpec:
    """stab(X) = X x {r = 0} in N; s stays free.

    The sample grid is X's grid crossed with r = 0 and an 8-point s-grid.
    """
    n = nspace.n - 1
    idx = _embedding(n)
    s_axis = np.arange(8) / 8.0
    base = X.grid
    grid = np.zeros((len(base) * len(s_axis), nspace.dim))
    grid[:, idx] = np.repeat(base, len(s_axis), axis=0)
    grid[:, 2 * n + 1] = np.tile(s_axis, len(base))
    constraints = [(int(idx[i]), v) for i, v in X.constraints] + [(n, 0.0)]
    return RegionSpec(nspace, "product-of-levels", constraints, grid)


def shift_equivariance_check(H: SuspendedHamiltonian, z0, c, T, h) -> float:
    """Distance between h_T(S_c z0) and S_c(h_T z0) for the r-shift S_c."""
    z0 = np.asarray(z0, dtype=float)
    shift = np.zeros_like(z0)
    shift[H.base_space.n] = c
    end_a, end_b = integrate(suspended_field(H), np.stack([z0 + shift, z0]), T, h).lifts[-1]
    return float(np.linalg.norm(end_a - (end_b + shift)))


# ---------------------------------------------------------------------------
# time-one map averages
# ---------------------------------------------------------------------------

def time_one_orbit(F: TrigPoly, space: PhaseSpace, x0, n_units, h=1e-2) -> EmpiricalMeasure:
    """The uniform Birkhoff measure over the time-one map iterates phi^k x0, k < n_units.

    The non-autonomous flow of F is integrated at step h = 1/m and kept as the
    measure's ``source``: it resolves every unit arc gamma_{phi^k x0}, so loop
    integrals and (x, t) double integrals both come from the same stored data,
    and F is ``mu.source.field.generator``.
    """
    m = _steps_per_unit(h)
    traj = integrate(hamiltonian_field(F, space), x0, float(n_units), h)
    return measure_from_iterates(
        space, traj.lifts[::m][:-1],
        provenance={"x0": traj.lifts[0].tolist(), "n_units": n_units, "h": traj.h,
                    "kind": "time-one-orbit"},
        source=traj,
    )


def rotation_pairing_time_one(mu: EmpiricalMeasure, F: TrigPoly,
                              alpha: ClosedOneForm, h=1e-2, agreement_tol=1e-4):
    """<[alpha], rho(mu, phi)> for the time-one map phi of F, by both formulas.

    Returns (loop, double): the average over mu-samples of the loop integral
    of alpha along the unit arc gamma_x, and the double integral over (x, t)
    of alpha(sgrad F_t) along the same arcs (composite Simpson in t). Their
    difference is pure quadrature error; beyond ``agreement_tol`` a
    QuadratureWarning is issued.
    """
    arcs = _unit_arcs(mu, F, h)
    loop_route = float(mu.weights @ loop_integral(alpha, arcs[0], arcs[-1], arcs[-1] - arcs[0]))
    m = arcs.shape[0] - 1
    flat = arcs.reshape(-1, arcs.shape[-1])
    times = np.tile(np.arange(m + 1) * h, (arcs.shape[1], 1)).T.reshape(-1)
    velocities = F.grad(flat, times) @ mu.space.omega.inverse.T
    integrand = np.einsum("ij,ij->i", alpha.coefficients(flat), velocities)
    double_route = float(mu.weights @ (_simpson_weights(m, h) @ integrand.reshape(m + 1, -1)))
    if abs(double_route - loop_route) > agreement_tol:
        warnings.warn(
            f"rotation-pairing formulas disagree: loop {loop_route}, "
            f"double integral {double_route}", QuadratureWarning)
    return loop_route, double_route


def _unit_arcs(mu, F, h):
    """The (m+1, n_samples, dim) unit arcs gamma_x of mu's samples, h = 1/m.

    Read off mu's stored orbit when it is an orbit of F's field at step h and
    its unit-time iterates are mu's samples; otherwise one unit arc is
    integrated from every sample, batched.
    """
    m = _steps_per_unit(h)
    field = hamiltonian_field(F, mu.space)
    traj = mu.source
    if (traj is not None and _same_field(traj.field, field) and abs(traj.h * m - 1.0) < 1e-12
            and (len(traj) - 1) % m == 0
            and len(traj.lifts) - 1 >= mu.n_samples * m):
        # arc k spans nodes [k*m, (k+1)*m]
        return np.stack([traj.lifts[k * m:(k + 1) * m + 1] for k in range(mu.n_samples)],
                        axis=1)
    return integrate(field, mu.lifts, 1.0, h).lifts


def _simpson_weights(m, h):
    if m % 2 == 0 and m >= 2:
        w = np.ones(m + 1)
        w[1:-1:2] = 4.0
        w[2:-1:2] = 2.0
        return w * (h / 3.0)
    w = np.ones(m + 1)  # trapezoid fallback for odd step counts
    w[0] = w[-1] = 0.5
    return w * h


def map_orbit_search(F: TrigPoly, alpha: ClosedOneForm, space: PhaseSpace,
                     seeds, n0=100, n_max=10000, h=1e-2, tol=1e-4):
    """Maximize |<[alpha], rho(mu, phi)>| over seed orbits of the time-one map.

    The Birkhoff average for maps: mu_N is uniform over {phi^k x}, k < N, and
    its pairing, the mean loop integral over the N unit arcs, is the flow
    segment's over [0, N] divided by N. So this is the flow search with
    horizons N = n0, 2 n0, ... (capped at n_max) and a step h = 1/m.

    Returns (best seed lift, best value, ConvergenceReport).
    """
    _steps_per_unit(h)
    return extremal_orbit_search(F, alpha, space, seeds, float(n0), float(n_max), h, tol)


# ---------------------------------------------------------------------------
# measures on M x S^1 and the base-measure correspondence
# ---------------------------------------------------------------------------

@dataclass
class CylinderMeasure:
    """Weighted samples on M x S^1 (base lift columns, then the s column)."""

    base_lifts: np.ndarray
    s_values: np.ndarray
    weights: np.ndarray

    def integrate(self, G):
        return float(self.weights @ np.asarray(G(self.base_lifts, self.s_values)))


def cylinder_measure_from_suspension(traj: Trajectory, n_base: int) -> CylinderMeasure:
    """Push an N-trajectory measure forward along tau: (x, r, s) -> (x, s)."""
    idx = _embedding(n_base)
    return CylinderMeasure(traj.lifts[:, idx], traj.lifts[:, 2 * n_base + 1],
                           _trapezoid_weights(traj.T, traj.h))


def step7_correspondence_check(sigma: CylinderMeasure, mu: EmpiricalMeasure,
                               F: TrigPoly, observables, h=1e-2) -> float:
    """Largest defect of sigma against the suspension of a base measure mu.

    For each test observable G on M x S^1 compares the sigma-integral of G
    with int_0^1 int G(phi_s x, s) dmu(x) ds, the latter by flowing every
    mu-sample through one period (rectangle rule in s, exact for band-limited
    1-periodic integrands on a uniform grid); the arcs are ``_unit_arcs``.
    """
    nodes = _unit_arcs(mu, F, h)
    m = len(nodes) - 1
    worst = 0.0
    for G in observables:
        lhs = sigma.integrate(G)
        rhs = 0.0
        for k in range(m):
            rhs += float(mu.weights @ np.asarray(G(nodes[k], np.full(mu.n_samples, k * h))))
        rhs /= m
        worst = max(worst, abs(lhs - rhs))
    return worst
