"""Empirical measures, Birkhoff averages and rotation vectors.

The time average of an observable H over an orbit segment,

    (1/T) * integral_0^T H(phi_t x) dt,

is represented by a weighted sample cloud (trapezoid weights over the
trajectory nodes). Rotation pairings are the averages of alpha(sgrad F); a
quantity whose finite-horizon maxima over seed grids bound the "largest"
invariant measures the flow supports. The weak T -> infinity limit itself is
out of numerical reach: what converges is tracked by a ConvergenceReport over
doubling horizons.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field as dc_field

import numpy as np

from .dynamics import (Trajectory, VectorFieldSpec, _trapezoid_weights, birkhoff_stream,
                       hamiltonian_field, integrate)
from .errors import DimensionError, EmptyTrajectory
from .geometry import ClosedOneForm, PhaseSpace, RotationVector, wrap
from .trig import TrigPoly, lattice_indices


@dataclass
class EmpiricalMeasure:
    """Weighted samples representing an orbit-segment average mu_{x,T}.

    Samples are stored as lift coordinates (N, dim); weights sum to 1. The
    source trajectory, when available, lets downstream code reuse the orbit
    (invariance defects, unit-arc integrals) instead of re-integrating.
    """

    space: PhaseSpace
    lifts: np.ndarray
    weights: np.ndarray
    provenance: dict = dc_field(default_factory=dict)
    source: Trajectory | None = None

    def __post_init__(self):
        total = self.weights.sum()
        if abs(total - 1.0) > 1e-12:
            raise ValueError(f"weights sum to {total}, not 1")

    @property
    def n_samples(self):
        return len(self.weights)

    def wrapped(self):
        return wrap(self.lifts, self.space)


def empirical_measure(traj: Trajectory) -> EmpiricalMeasure:
    """mu_{x,T} from a trajectory of ``integrate``: trapezoid weights over its nodes."""
    if len(traj) == 0:
        raise EmptyTrajectory("cannot build a measure from an empty trajectory")
    w = np.ones(1) if len(traj) == 1 else _trapezoid_weights(traj.T, traj.h)
    return EmpiricalMeasure(
        traj.space, traj.lifts, w,
        provenance={"x0": traj.lifts[0].tolist(), "T": traj.T, "h": traj.h,
                    "field": traj.field_kind},
        source=traj,
    )


def measure_from_iterates(space, lifts, provenance=None, source=None) -> EmpiricalMeasure:
    """Uniform-weight measure over map iterates (Birkhoff average for maps)."""
    lifts = np.asarray(lifts, dtype=float)
    if len(lifts) == 0:
        raise EmptyTrajectory("no iterates")
    w = np.full(len(lifts), 1.0 / len(lifts))
    return EmpiricalMeasure(space, lifts, w, provenance=provenance or {}, source=source)


def average(mu: EmpiricalMeasure, H) -> float:
    """Integral of H against mu: a weighted sum over the samples.

    H may be a callable on a lift batch (N, dim) -> (N,) or a TrigPoly.
    """
    values = H.eval(mu.lifts) if isinstance(H, TrigPoly) else np.asarray(H(mu.lifts))
    return float(mu.weights @ values)


def rotation_pairing(mu: EmpiricalMeasure, F: TrigPoly, alpha: ClosedOneForm) -> float:
    """mu-average of alpha(sgrad F): the pairing <[alpha], rho(mu, sgrad F)>.

    For flow-generated mu the exact part of alpha contributes only the
    boundary term (g(x_T) - g(x_0))/T (see ``exact_boundary_term``), so the
    pairing depends on the class alone as T grows.
    """
    if alpha.dim != mu.space.dim:
        raise DimensionError("form does not match the measure's phase space")
    grads = F.grad(mu.lifts)
    velocities = grads @ mu.space.omega.inverse.T
    integrand = np.einsum("ij,ij->i", alpha.coefficients(mu.lifts), velocities)
    return float(mu.weights @ integrand)


def exact_boundary_term(mu: EmpiricalMeasure, alpha: ClosedOneForm) -> float:
    """(g(x_T) - g(x_0))/T: the finite-horizon residue of the exact part of alpha."""
    if alpha.potential is None or mu.source is None:
        return 0.0
    g = alpha.potential
    T = mu.source.T
    return float((g.eval(mu.source.lifts[-1]) - g.eval(mu.source.lifts[0])) / T)


def rotation_vector(mu: EmpiricalMeasure, F: TrigPoly) -> RotationVector:
    """rho(mu, sgrad F): pairings against every basis form, assembled in H_1.

    The basis form [dp_i] (resp. [dq_i]) pairs to the mu-average of the i-th
    velocity component, so this is one batched field evaluation.
    """
    grads = F.grad(mu.lifts)
    velocities = grads @ mu.space.omega.inverse.T
    # pairwise sums: a BLAS product over ~1e6 nodes accumulates rounding of order 1e-11
    return RotationVector(np.array([np.sum(mu.weights * v) for v in velocities.T]))


# ---------------------------------------------------------------------------
# extremal orbit search
# ---------------------------------------------------------------------------

@dataclass
class ConvergenceReport:
    """Doubling-horizon diagnostic for a Birkhoff-average search.

    ``converged`` is set only when the last successive difference of the best
    value dropped below ``tolerance`` before the horizon budget ran out.
    """

    horizons: list
    best_values: list
    diffs: list
    converged: bool
    tolerance: float
    best_seed_index: int
    per_seed_values: np.ndarray | None = None

    @classmethod
    def from_search(cls, values, tol):
        """Consume (T, per-seed values) per doubling horizon until the best value
        moves by at most ``tol``; the first maximum is the best seed."""
        best_values, diffs, ran = [], [], []
        for T, vals in values:
            ran.append(T)
            best_values.append(float(vals.max()))
            if len(best_values) > 1:
                diffs.append(abs(best_values[-1] - best_values[-2]))
                if diffs[-1] <= tol:
                    break
        return cls(horizons=ran, best_values=best_values, diffs=diffs,
                   converged=bool(diffs) and diffs[-1] <= tol, tolerance=tol,
                   best_seed_index=int(np.argmax(vals)), per_seed_values=vals)

    def to_json(self):
        return {
            "best_seed": self.best_seed_index,
            "best_value": self.best_values[-1] if self.best_values else None,
            "horizons": list(self.horizons),
            "diffs": list(self.diffs),
            "converged": self.converged,
            "tolerance": self.tolerance,
        }

    def dumps(self):
        return json.dumps(self.to_json(), sort_keys=True)


def momentum_seed_grid(space, per_dim=32):
    """Seeds over the momentum torus only, positions at 0 (integrable families)."""
    grid = np.zeros((per_dim ** space.n, space.dim))
    grid[:, :space.n] = lattice_indices(space.n, per_dim) / per_dim
    return grid


def full_seed_grid(space, per_dim=32):
    """Seeds over every phase-space dimension (non-integrable families)."""
    return lattice_indices(space.dim, per_dim) / per_dim


def doubling_horizons(T0, T_max):
    """T0, 2 T0, 4 T0, ... capped at T_max: the horizons of a doubling search."""
    if T0 <= 0:
        raise ValueError(f"the first horizon must be positive, got {T0}")
    horizons = [T0]
    while horizons[-1] < T_max - 1e-9:
        horizons.append(min(2.0 * horizons[-1], T_max))
    return horizons


def pairing_integrand(alpha):
    """(X, V, t) -> alpha_X(V) row by row: the Birkhoff integrand of a rotation pairing."""
    cls, pot = alpha.cclass.coeffs, alpha.potential
    if pot is None:
        return lambda X, V, t: V @ cls
    return lambda X, V, t: np.einsum("ij,ij->i", cls + pot.grad(X), V)


def extremal_orbit_search(F, alpha, space, seeds, T0=100.0, T_max=1e5, h=1e-2,
                          tol=1e-4):
    """Maximize |rotation pairing| over seed orbits with doubling horizons.

    All seeds are integrated together (one batched run; the work done at
    horizon T is reused at 2T). Stops when the best value moves by at most
    ``tol`` between doublings, or at T_max with ``converged=False``. Ties in
    the argmax go to the lowest seed index, so the reduction is deterministic
    regardless of batching.

    Returns (best seed lift, best |pairing|, ConvergenceReport).
    """
    seeds = np.asarray(seeds, dtype=float).reshape(-1, space.dim)
    if len(seeds) == 0:
        raise ValueError("empty seed grid")
    field = hamiltonian_field(F, space)
    horizons = doubling_horizons(T0, T_max)

    stream = birkhoff_stream(field, seeds, horizons, h, [pairing_integrand(alpha)])
    report = ConvergenceReport.from_search(((T, np.abs(avg[0])) for T, avg, _ in stream), tol)
    return seeds[report.best_seed_index].copy(), report.best_values[-1], report


# ---------------------------------------------------------------------------
# invariance diagnostics
# ---------------------------------------------------------------------------

def invariance_defect(mu: EmpiricalMeasure, field: VectorFieldSpec, s, H) -> float:
    """|mu(H o phi_s) - mu(H)|: how far mu is from flow invariance.

    For mu = mu_{x,T} the telescoping bound 2*s*max|H|/T applies (see
    ``invariance_defect_bound``). When mu comes from a trajectory sampled at a
    step dividing s, phi_s is an index shift along the stored orbit and only a
    short extension past the endpoint is integrated; otherwise every sample is
    flowed forward by s in one batch.
    """
    if s <= 0:
        raise ValueError("shift time must be positive")
    traj = mu.source
    evalH = H.eval if isinstance(H, TrigPoly) else H
    base = float(mu.weights @ np.asarray(evalH(mu.lifts)))
    if traj is not None and abs(round(s / traj.h) * traj.h - s) < 1e-9:
        m = round(s / traj.h)
        ext = integrate(field, traj.lifts[-1], s, traj.h)
        shifted_lifts = np.concatenate([traj.lifts[m:], ext.lifts[1:]], axis=0)
    else:
        h_sub = s / int(np.ceil(s / 1e-2))
        # the end states only: memory stays at one batch, not one per node
        _, _, shifted_lifts = next(birkhoff_stream(field, mu.lifts, [s], h_sub, []))
    shifted = float(mu.weights @ np.asarray(evalH(shifted_lifts)))
    return abs(shifted - base)


def invariance_defect_bound(s, max_H, T):
    """The telescoping bound 2*s*max|H|/T for mu_{x,T}."""
    return 2.0 * s * max_H / T
