"""Poisson brackets against closed 1-forms and minimax bracket bounds.

The bracket of a function F with a closed 1-form alpha is

    {F, alpha} = dF(sgrad alpha) = alpha(sgrad F),

a function on phase space. Because every F and every potential here is a
trigonometric polynomial and omega has constant coefficients, the bracket is
again an exact trigonometric polynomial: sup norms can therefore be certified
(grid maximum plus a Fourier-coefficient curvature pad), not merely sampled.

``pb_upper_bound(problem, cert_grid_res)`` certifies the sup norm of the
bracket for the candidate of a family of admissible pairs (F <= 0 on X,
F >= 1 on X'; alpha in a fixed class): a numerical upper bound for the
minimax bracket invariant of (X, X', class). For pinned profiles
F = u(x_coord) the bracket is linear in the profile coefficients, so the
family's candidate is the linear-programming optimum of max|u'| and no
search is needed. The matching lower bound is theory input
(non-displaceability), asserted by the caller, never computed here.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dynamics import (_nodes, birkhoff_stream, hamiltonian_field, locally_hamiltonian_field,
                       midpoint_step)
from .errors import InfeasibleFamily, InternalInconsistency
from .fields import HamiltonianSpec, _profile_basis, make_pinned_profile
from .geometry import (ClosedOneForm, CohomologyClass, PhasePoint, PhaseSpace,
                       RegionSpec, circular_residual, wrap)
from .trig import TrigPoly

CONSTRAINT_TOL = 1e-9  # slack of the admissibility checks F <= 0 on X, F >= 1 on X'


def bracket_poly(F: HamiltonianSpec, alpha: ClosedOneForm, space: PhaseSpace) -> TrigPoly:
    """{F, alpha} as an exact trigonometric polynomial (in x, and s if F is).

    Computed as alpha(sgrad F) = (class + grad g) . (Omega^{-1} grad F); every
    product of waves is re-expanded, so the coefficients of the result are
    exact and usable for certified bounds.
    """
    inv = space.omega.inverse
    out = TrigPoly.zero(F.dim)
    grads = [F.poly.partial(j) for j in range(F.dim)]
    # velocity components v_i = sum_j inv[i, j] dF/dx_j
    for i in range(F.dim):
        v_i = TrigPoly.zero(F.dim)
        for j in range(F.dim):
            if inv[i, j] != 0.0 and grads[j].n_terms:
                v_i = v_i + grads[j] * inv[i, j]
        if v_i.n_terms == 0:
            continue
        c = alpha.cclass.coeffs[i]
        if c != 0.0:
            out = out + v_i * c
        if alpha.potential is not None:
            dg_i = alpha.potential.partial(i)
            if dg_i.n_terms:
                out = out + dg_i.product(v_i)
    return out


def bracket(F: HamiltonianSpec, alpha: ClosedOneForm, space: PhaseSpace, x, s=0.0) -> float:
    """{F, alpha}(x, s), evaluated both ways as a convention check.

    Returns dF(sgrad alpha); raises InternalInconsistency if the second route
    alpha(sgrad F) disagrees beyond 1e-10 (they are identical in exact
    arithmetic, so a disagreement means a sign bug, not roundoff).
    """
    x = np.asarray(getattr(x, "lift", x), dtype=float)
    dF = F.grad(x, s)
    a_x = alpha.coefficients(x)
    v_alpha = -space.omega.inverse @ a_x
    v_F = space.omega.inverse @ dF
    first = float(dF @ v_alpha)
    second = float(a_x @ v_F)
    if abs(first - second) > 1e-10:
        raise InternalInconsistency(
            f"dF(sgrad alpha) = {first} but alpha(sgrad F) = {second}"
        )
    return first


def sup_norm(F, alpha, space, grid_res=512):
    """Certified uniform norm of {F, alpha} over phase space (and time).

    The bracket polynomial is evaluated on a uniform grid over its *active*
    coordinates only (inactive ones cannot change the value); the grid
    maximum is inflated by (h/2) * L, L the exact coefficient bound on the
    gradient, giving an upper bound of the true sup.
    """
    return sum(_certified_sup(bracket_poly(F, alpha, space), grid_res))


def _certified_sup(poly: TrigPoly, grid_res):
    """(grid_max, pad): max |poly| on the uniform grid of ``grid_res`` points per
    active axis of (x, t), and the Lipschitz pad (h/2) * L with L the exact
    coefficient bound on the gradient; the true sup is at most their sum."""
    if grid_res < 16:
        raise ValueError("grid_res must be at least 16 per dimension")
    if poly.n_terms == 0:
        return 0.0, 0.0
    n_axes = len(poly.active_dims()) + poly.is_time_dependent
    if grid_res ** n_axes > 2 ** 26:
        raise ValueError(f"sup-norm grid with {n_axes} active dims at {grid_res} is too large")
    grid_max = float(np.abs(poly.grid_values(grid_res)).max())
    return grid_max, 0.5 / grid_res * poly.grad_l1_bound()  # pad 0 for a constant


def averaged_bracket(F, alpha, space, x, T, h) -> float:
    """{F, alpha_T}(x) for the orbit-averaged form alpha_T.

    Uses the identity {F, alpha_T}(x) = (1/T) int_0^T alpha(sgrad F)(phi_t x) dt,
    so no flow Jacobians are integrated: it is the trapezoid Birkhoff average
    of the bracket along the orbit of x.
    """
    x = np.asarray(getattr(x, "lift", x), dtype=float)
    field = hamiltonian_field(F, space)
    cls = alpha.cclass.coeffs
    pot = alpha.potential

    def integrand(X, V, t):
        if pot is None:
            return V @ cls
        return np.einsum("ij,ij->i", cls + pot.grad(X), V)

    for _, avg, _ in birkhoff_stream(field, x[None, :], [T], h, [integrand]):
        pass
    return float(avg[0, 0])


# ---------------------------------------------------------------------------
# minimax problems
# ---------------------------------------------------------------------------

class FixedCandidate:
    """A single fixed pair (F, alpha)."""

    def __init__(self, F, alpha):
        self.F, self.alpha = F, alpha

    def candidate(self):
        return self.F, self.alpha

    def describe(self):
        return {"kind": "fixed", "n_params": 0}


class PinnedProfileFamily:
    """Profiles F = u(x_coord) with pinned values, paired with alpha = a.

    For F = u(x_c) and a potential g(x_c) in the same coordinate, the bracket
    is {F, alpha} = (a . Omega^{-1} e_c) u'(x_c): the potential term
    g' u' (Omega^{-1})_cc vanishes because Omega^{-1} is antisymmetric. The
    objective is therefore linear in the profile coefficients, and its
    optimum over the pinned family is the minimal-slope profile of
    ``fields.make_pinned_profile`` (up to its slope grid).
    """

    def __init__(self, space, a: CohomologyClass, pins, n_modes=32, coord=0):
        self.space = space
        self.a = a
        self.pins = [(float(t), float(v)) for t, v in pins]
        self.n_modes = n_modes
        self.coord = coord

    def candidate(self):
        F = make_pinned_profile(self.pins, slope_target=np.inf, n_modes=self.n_modes,
                                dim=self.space.dim, coord=self.coord)
        return F, ClosedOneForm(self.a)

    def describe(self):
        pins = _profile_basis([t for t, _ in self.pins], self.n_modes)
        null_dim = 2 * self.n_modes + 1 - int(np.linalg.matrix_rank(pins))
        return {"kind": "pinned-profile", "profile_null_dim": null_dim,
                "n_modes": self.n_modes}


@dataclass
class PbProblem:
    """A minimax bracket problem: disjoint regions, a class, a candidate family.

    ``floor`` is the asserted theoretical lower bound for the invariant (from
    non-displaceability of the pair); it is an input, not a computation, and
    is used only for sanity auditing of the numerical upper bound.
    """

    space: PhaseSpace
    X: RegionSpec
    Xp: RegionSpec
    a: CohomologyClass
    family: FixedCandidate | PinnedProfileFamily
    floor: float | None = None

    def __post_init__(self):
        if not self.X.is_disjoint_from(self.Xp):
            raise ValueError("regions X and X' are not disjoint")

    def validate_candidate(self, F):
        """Hard admissibility: F <= 0 on X's grid and F >= 1 on X''s grid."""
        fx = F.eval(self.X.grid)
        fxp = F.eval(self.Xp.grid)
        x_max = float(np.max(fx))
        xp_min = float(np.min(fxp))
        ok = x_max <= CONSTRAINT_TOL and xp_min >= 1.0 - CONSTRAINT_TOL
        return ok, {"X_max": x_max, "Xp_min": xp_min, "ok": ok}


@dataclass
class PbResult:
    value: float
    F: HamiltonianSpec
    alpha: ClosedOneForm
    audit: dict


def pb_upper_bound(problem: PbProblem, cert_grid_res=4096) -> PbResult:
    """Certify the sup norm of {F, alpha} for the family's candidate.

    The candidate is validated against the region constraints, its bracket is
    certified on a ``cert_grid_res`` grid (grid maximum plus Lipschitz pad),
    and the audit records the constraint checks, the family dimensions and
    the certified split.
    """
    F, alpha = problem.family.candidate()
    ok, constraint_audit = problem.validate_candidate(F)
    if not ok:
        raise InfeasibleFamily("the family's candidate fails the region constraints")
    grid_max, pad = _certified_sup(bracket_poly(F, alpha, problem.space), cert_grid_res)
    certified = grid_max + pad
    audit = {
        "family": problem.family.describe(),
        "restarts": [],  # no search runs; the key stays for readers of the audit schema
        "cert_grid_res": cert_grid_res,
        "floor_asserted": problem.floor,
        # the audited pad is certified - grid_max, so the two add up to certified exactly
        "winner": {"constraints": constraint_audit, "grid_max": grid_max,
                   "pad": certified - grid_max, "certified": certified},
        "min_certified_seen": float(certified),
    }
    return PbResult(value=float(certified), F=F, alpha=alpha, audit=audit)


# ---------------------------------------------------------------------------
# chords
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Chord:
    """A flow segment of sgrad alpha from X to X' with its travel time."""

    start: PhasePoint
    end: PhasePoint
    t_star: float


def chord_search(alpha: ClosedOneForm, space: PhaseSpace, X: RegionSpec,
                 Xp: RegionSpec, t_max=10.0, h=1e-2, landing_tol=1e-6):
    """Earliest chord of the locally Hamiltonian flow of alpha from X to X'.

    Every grid point of X is flowed under sgrad alpha, all in one batch;
    after each step the rows whose lift of the transversal coordinate (the
    pinned coordinate on which X and X' genuinely differ) crossed a level of
    X' are bisected one by one to 1e-10 in time. A crossing counts only if
    the full membership defect at the landing point is below
    ``landing_tol``. The search stops at the first step with a counted
    crossing; ties in arrival time go to the lowest seed index. Returns None
    when no seed arrives before ``t_max``.
    """
    if Xp.kind == "predicate":
        raise ValueError("chord search needs a level-type target region")
    field = locally_hamiltonian_field(alpha, space)
    targets = dict(Xp.constraints)
    here = dict(X.constraints)
    crossing_coords = [
        i for i, v in targets.items()
        if i in here and abs(circular_residual(here[i], v)) > 1e-9
    ] or list(targets)

    t = X_state = None
    for t_next, X_next, _ in _nodes(field, X.grid, t_max, h):
        if X_state is not None:
            step_h = min(h, t_max - t)
            best = None
            for row in np.flatnonzero(_crossed(X_state, X_next, crossing_coords, targets, space)):
                hit = _first_crossing(field, X_state[row:row + 1], t, step_h,
                                      X_next[row:row + 1], crossing_coords, targets, Xp,
                                      space, landing_tol)
                if hit is not None and (best is None or hit[0] < best[0] - 1e-15):
                    best = (hit[0], X.grid[row], hit[1])
            if best is not None:
                t_star, x0, x_end = best
                return Chord(start=wrap(x0, space), end=wrap(x_end, space),
                             t_star=float(t_star))
        t, X_state = t_next, X_next
    return None


def _crossed(X_state, X_next, coords, targets, space):
    """Rows whose lift of a coordinate in ``coords`` passed a target level (1e-15 slack)."""
    rows = np.zeros(len(X_state), dtype=bool)
    for i in coords:
        a, b = X_state[:, i], X_next[:, i]
        lo, hi = np.minimum(a, b), np.maximum(a, b)
        if space.periodic[i]:  # every integer shift of the level lies on the region
            crossed = np.floor(hi - targets[i] + 1e-15) >= np.ceil(lo - targets[i] - 1e-15)
        else:
            crossed = (lo - 1e-15 <= targets[i]) & (targets[i] <= hi + 1e-15)
        rows |= crossed & (a != b)
    return rows


def _first_crossing(field, X_state, t, h, X_next, coords, targets, Xp, space, landing_tol):
    """Earliest admissible level crossing inside one step, bisected to 1e-10."""
    candidates = []
    for i in coords:
        a, b = X_state[0, i], X_next[0, i]
        lo, hi = (a, b) if a <= b else (b, a)
        if space.periodic[i]:
            # every integer shift of the target level lies on the region
            n0 = int(np.ceil(lo - targets[i] - 1e-15))
            n1 = int(np.floor(hi - targets[i] + 1e-15))
            levels = [targets[i] + n for n in range(n0, n1 + 1)]
        else:
            levels = [targets[i]]
        for level in levels:
            if lo - 1e-15 <= level <= hi + 1e-15 and abs(b - a) > 0:
                frac = (level - a) / (b - a)
                if -1e-12 <= frac <= 1.0 + 1e-12:
                    candidates.append((i, level, a))
    if not candidates:
        return None

    def coord_at(dt_sub, i):
        if dt_sub <= 0:
            return X_state[0, i]
        Y, _ = midpoint_step(field.velocity, X_state, t, dt_sub)
        return Y[0, i]

    best_hit = None
    for i, level, a in candidates:
        lo_t, hi_t = 0.0, h
        sign0 = np.sign(a - level) or 1.0
        for _ in range(80):
            if hi_t - lo_t <= 1e-10:
                break
            mid = 0.5 * (lo_t + hi_t)
            if np.sign(coord_at(mid, i) - level) == sign0:
                lo_t = mid
            else:
                hi_t = mid
        t_hit = 0.5 * (lo_t + hi_t)
        Y, _ = midpoint_step(field.velocity, X_state, t, t_hit) if t_hit > 0 else (X_state, None)
        if Xp.defect(Y)[0] <= landing_tol:
            if best_hit is None or t_hit < best_hit[0]:
                best_hit = (t_hit, Y[0].copy())
    if best_hit is None:
        return None
    return t + best_hit[0], best_hit[1]
