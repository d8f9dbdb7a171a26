"""Empirical measures, Birkhoff averages and rotation vectors.

The time average of an observable H over an orbit segment,

    (1/T) * integral_0^T H(phi_t x) dt,

is represented by a weighted sample cloud (trapezoid weights over the
trajectory nodes). Rotation pairings are the averages of alpha(sgrad F); over
an orbit segment that is the path integral (c . (x_T - x_0) + g(x_T) -
g(x_0)) / T for alpha = c + dg (Schwartzman's asymptotic cycle), which is how
the one seed search, for flows and time-one maps, reads them. Its maxima over
seed grids bound the "largest" invariant measures the flow supports. The weak
T -> infinity limit itself is out of numerical reach: what converges is
tracked by a ConvergenceReport over doubling horizons.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field as dc_field

import numpy as np

from .dynamics import (Trajectory, VectorFieldSpec, _same_field, _trapezoid_weights,
                       birkhoff_stream, hamiltonian_field, integrate)
from .errors import DimensionError, EmptyTrajectory
from .geometry import ClosedOneForm, PhaseSpace, RotationVector
from .trig import TrigPoly, lattice_indices


@dataclass
class EmpiricalMeasure:
    """Weighted samples representing an orbit-segment average mu_{x,T}.

    Samples are stored as lift coordinates (N, dim); weights sum to 1, so the
    integral of H against mu is ``weights @ H(lifts)``. The source
    trajectory, when available, lets downstream code reuse the orbit
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


def empirical_measure(traj: Trajectory) -> EmpiricalMeasure:
    """mu_{x,T} from a single-orbit trajectory of ``integrate``: trapezoid weights
    over its nodes. Raises DimensionError on a batch of orbits."""
    if len(traj) == 0:
        raise EmptyTrajectory("cannot build a measure from an empty trajectory")
    if traj.lifts.shape != (len(traj), traj.space.dim):
        raise DimensionError(f"lifts of shape {traj.lifts.shape} are not one orbit's")
    w = np.ones(1) if len(traj) == 1 else _trapezoid_weights(traj.T, traj.h)
    return EmpiricalMeasure(
        traj.space, traj.lifts, w,
        provenance={"x0": traj.lifts[0].tolist(), "T": traj.T, "h": traj.h,
                    "field": traj.field.kind},
        source=traj,
    )


def measure_from_iterates(space, lifts, provenance=None, source=None) -> EmpiricalMeasure:
    """Uniform-weight measure over map iterates (Birkhoff average for maps)."""
    lifts = np.asarray(lifts, dtype=float)
    if len(lifts) == 0:
        raise EmptyTrajectory("no iterates")
    w = np.full(len(lifts), 1.0 / len(lifts))
    return EmpiricalMeasure(space, lifts, w, provenance=provenance or {}, source=source)


def rotation_pairing(mu: EmpiricalMeasure, F: TrigPoly, alpha: ClosedOneForm) -> float:
    """mu-average of alpha(sgrad F): the pairing <[alpha], rho(mu, sgrad F)>.

    For flow-generated mu the exact part of alpha contributes only the
    boundary term (g(x_T) - g(x_0))/T (see ``exact_boundary_term``), so the
    pairing depends on the class alone as T grows. F must be autonomous.
    """
    if alpha.dim != mu.space.dim:
        raise DimensionError("form does not match the measure's phase space")
    _require_autonomous(F)
    grads = F.grad(mu.lifts)
    velocities = grads @ mu.space.omega.inverse.T
    integrand = np.einsum("ij,ij->i", alpha.coefficients(mu.lifts), velocities)
    return float(mu.weights @ integrand)


def _require_autonomous(F):
    """ValueError for a time-dependent F: samples carry no time to evaluate it at."""
    if F.is_time_dependent:
        raise ValueError("F depends on time: pair its time-one map with rotation_pairing_time_one")


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
    velocity component, so this is one batched field evaluation. F must be
    autonomous.
    """
    _require_autonomous(F)
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


def loop_integral(alpha: ClosedOneForm, lifts_start, lifts_end, displacement):
    """Integral of alpha over arcs from lift-tracked endpoints.

    Constant-coefficient parts integrate to class . displacement exactly
    (winding bookkeeping); the exact part contributes g(end) - g(start). The
    displacement is the arcs' lift displacement: end - start, or the summed
    step increments, whose rounding does not grow with the lifts.
    """
    out = np.asarray(displacement) @ alpha.cclass.coeffs
    if alpha.potential is not None:
        out = out + alpha.potential.eval(lifts_end) - alpha.potential.eval(lifts_start)
    return out


def extremal_orbit_search(F, alpha, space, seeds, T0=100.0, T_max=1e5, h=1e-2,
                          tol=1e-4):
    """Maximize |rotation pairing| over seed orbits with doubling horizons.

    A seed's pairing at horizon T is its loop integral over the summed step
    increments, over T. All seeds are integrated together (one batched run;
    the work done at horizon T is reused at 2T). Stops when the best value
    moves by at most ``tol`` between doublings, or at T_max with
    ``converged=False``. Ties in the argmax go to the lowest seed index, so the
    reduction is deterministic regardless of batching. F may depend on time
    (``suspension.map_orbit_search``).

    Returns (best seed lift, best |pairing|, ConvergenceReport).
    """
    seeds = np.asarray(seeds, dtype=float).reshape(-1, space.dim)
    if len(seeds) == 0:
        raise ValueError("empty seed grid")
    field = hamiltonian_field(F, space)
    horizons = doubling_horizons(T0, T_max)

    stream = birkhoff_stream(field, seeds, horizons, h)
    report = ConvergenceReport.from_search(
        ((T, np.abs(loop_integral(alpha, seeds, X, D) / T)) for T, X, D in stream), tol)
    return seeds[report.best_seed_index].copy(), report.best_values[-1], report


# ---------------------------------------------------------------------------
# invariance diagnostics
# ---------------------------------------------------------------------------

def invariance_defect(mu: EmpiricalMeasure, field: VectorFieldSpec, s, H) -> float:
    """|mu(H o phi_s) - mu(H)|: how far mu is from flow invariance.

    For mu = mu_{x,T} the telescoping bound 2*s*max|H|/T applies (see
    ``invariance_defect_bound``). When mu's samples are the nodes of its
    source trajectory, integrated with this field, and that step divides s,
    phi_s is an index shift along the stored orbit and only a short extension
    past the endpoint is integrated; otherwise every sample is flowed forward
    by s in one batch.
    """
    if s <= 0:
        raise ValueError("shift time must be positive")
    traj = mu.source
    evalH = H.eval if isinstance(H, TrigPoly) else H
    base = float(mu.weights @ np.asarray(evalH(mu.lifts)))
    if (traj is not None and _same_field(traj.field, field) and len(mu.lifts) == len(traj)
            and abs(round(s / traj.h) * traj.h - s) < 1e-9):
        m = round(s / traj.h)
        ext = integrate(field, traj.lifts[-1], s, traj.h)
        shifted_lifts = np.concatenate([traj.lifts[m:], ext.lifts[1:]], axis=0)
    else:
        h_sub = s / int(np.ceil(s / 1e-2))
        # the end states only: memory stays at one batch, not one per node
        _, shifted_lifts, _ = next(birkhoff_stream(field, mu.lifts, [s], h_sub))
    shifted = float(mu.weights @ np.asarray(evalH(shifted_lifts)))
    return abs(shifted - base)


def invariance_defect_bound(s, max_H, T):
    """The telescoping bound 2*s*max|H|/T for mu_{x,T}."""
    return 2.0 * s * max_H / T
