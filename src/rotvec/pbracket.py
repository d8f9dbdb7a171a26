"""Poisson brackets against closed 1-forms and minimax bracket bounds.

The bracket of a function F with a closed 1-form alpha is

    {F, alpha} = dF(sgrad alpha) = alpha(sgrad F),

a function on phase space. Because every F and every potential here is a
trigonometric polynomial and omega has constant coefficients, the bracket is
again an exact trigonometric polynomial: sup norms can therefore be certified
(grid maximum plus a Fourier-coefficient curvature pad), not merely sampled.

``pb_upper_bound`` minimizes the certified sup norm over a parametric family
of admissible pairs (F <= 0 on X, F >= 1 on X'; alpha in a fixed class): a
numerical upper bound for the minimax bracket invariant of (X, X', class).
The matching lower bound is theory input (non-displaceability), asserted by
the caller, never computed here.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import minimize

from .dynamics import birkhoff_stream, hamiltonian_field, locally_hamiltonian_field, midpoint_step
from .errors import InfeasibleFamily, InternalInconsistency
from .fields import HamiltonianSpec, make_pinned_profile
from .geometry import (ClosedOneForm, CohomologyClass, PhasePoint, PhaseSpace,
                       RegionSpec, circular_residual, wrap)
from .trig import TrigPoly


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


def sup_norm(F, alpha, space, grid_res=512, lipschitz_pad=True):
    """Certified uniform norm of {F, alpha} over phase space (and time).

    The bracket polynomial is evaluated on a uniform grid over its *active*
    coordinates only (inactive ones cannot change the value); with
    ``lipschitz_pad`` the grid maximum is inflated by (h/2) * L, L the exact
    coefficient bound on the gradient, giving an upper bound of the true sup.
    """
    if grid_res < 16:
        raise ValueError("grid_res must be at least 16 per dimension")
    poly = bracket_poly(F, alpha, space)
    return _certified_sup(poly, grid_res, lipschitz_pad)


def _certified_sup(poly: TrigPoly, grid_res, lipschitz_pad=True):
    if poly.n_terms == 0:
        return 0.0
    n_axes = len(poly.active_dims()) + poly.is_time_dependent
    if grid_res ** n_axes > 2 ** 26:
        raise ValueError(f"sup-norm grid with {n_axes} active dims at {grid_res} is too large")
    grid_max = float(np.abs(poly.grid_values(grid_res)).max())
    if not lipschitz_pad:
        return grid_max
    return grid_max + 0.5 / grid_res * poly.grad_l1_bound()  # 0 for a constant


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

class CandidateFamily:
    """A parametric family of admissible pairs (F, alpha) for pb optimization.

    Subclasses map a parameter vector to a candidate; parameters unrelated to
    the constraints (profile null-space coordinates, potential coefficients)
    are free, and the constraints F|_X <= 0, F|_X' >= 1 are enforced by
    construction and re-validated on the region grids by the optimizer.
    """

    n_params = 0

    def build(self, params):
        raise NotImplementedError

    def initial_params(self, rng, restart_index):
        """Start of restart k; index 0 is the family's canonical candidate."""
        raise NotImplementedError

    def describe(self):
        return {"n_params": self.n_params}


class FixedCandidate(CandidateFamily):
    """A single fixed pair: no optimization freedom."""

    def __init__(self, F, alpha):
        self.F, self.alpha = F, alpha
        self.n_params = 0

    def build(self, params):
        return self.F, self.alpha

    def initial_params(self, rng, restart_index):
        return np.zeros(0)

    def describe(self):
        return {"kind": "fixed", "n_params": 0}


class PinnedProfileFamily(CandidateFamily):
    """Profiles F = u(p_coord) with pinned values, plus an optional alpha potential.

    Parameters are null-space coordinates of the pin constraints (so every
    candidate satisfies the pins exactly) followed by the trigonometric
    potential coefficients of alpha. Restart 0 starts from the minimal-slope
    profile; later restarts perturb it.
    """

    def __init__(self, space, a: CohomologyClass, pins, n_modes=32, coord=0,
                 alpha_modes=0, spread=0.5):
        from .fields import _profile_basis, _profile_poly, profile_hamiltonian

        self.space = space
        self.a = a
        self.pins = [(float(t), float(v)) for t, v in pins]
        self.n_modes = n_modes
        self.coord = coord
        self.alpha_modes = alpha_modes
        self.spread = spread
        self._profile_poly = _profile_poly
        self._profile_ham = profile_hamiltonian

        n_coeff = 2 * n_modes + 1
        pts = np.array([t for t, _ in self.pins])
        vals = np.array([v for _, v in self.pins])
        P = _profile_basis(pts, n_modes)
        self._theta0, *_ = np.linalg.lstsq(P, vals, rcond=None)
        # orthonormal null-space basis of the pin constraints
        _, sv, vt = np.linalg.svd(P)
        rank = int((sv > 1e-12 * sv[0]).sum()) if len(sv) else 0
        self._null = vt[rank:].T  # (n_coeff, n_coeff - rank)
        self._seed_profile = make_pinned_profile(
            self.pins, slope_target=np.inf, n_modes=n_modes, dim=space.dim, coord=coord
        )
        seed_theta = np.array(self._seed_profile.metadata["profile_coeffs"])
        self._z_seed = self._null.T @ (seed_theta - self._theta0)
        self.n_params = self._null.shape[1] + 2 * alpha_modes

    def build(self, params):
        nz = self._null.shape[1]
        theta = self._theta0 + self._null @ params[:nz]
        F = self._profile_ham(self._profile_poly(theta, self.n_modes), self.space.dim,
                              coord=self.coord, family="pinned-profile")
        pot = None
        if self.alpha_modes:
            pot = TrigPoly.zero(self.space.dim)
            for j in range(1, self.alpha_modes + 1):
                kvec = np.zeros(self.space.dim, dtype=int)
                kvec[self.coord] = j
                c_cos, c_sin = params[nz + 2 * (j - 1)], params[nz + 2 * j - 1]
                pot = pot + TrigPoly.wave(self.space.dim, c_cos, kvec, 0, "cos")
                pot = pot + TrigPoly.wave(self.space.dim, c_sin, kvec, 0, "sin")
        return F, ClosedOneForm(self.a, pot)

    def initial_params(self, rng, restart_index):
        z = np.zeros(self.n_params)
        z[: len(self._z_seed)] = self._z_seed
        if restart_index > 0:
            z = z + self.spread * rng.standard_normal(self.n_params)
        return z

    def describe(self):
        return {
            "kind": "pinned-profile",
            "n_params": self.n_params,
            "profile_null_dim": int(self._null.shape[1]),
            "alpha_potential_dim": 2 * self.alpha_modes,
            "n_modes": self.n_modes,
        }


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
    family: CandidateFamily
    floor: float | None = None
    constraint_tol: float = 1e-9

    def __post_init__(self):
        if not self.X.is_disjoint_from(self.Xp):
            raise ValueError("regions X and X' are not disjoint")

    def validate_candidate(self, F):
        """Hard admissibility: F <= 0 on X's grid and F >= 1 on X''s grid."""
        fx = F.eval(self.X.grid)
        fxp = F.eval(self.Xp.grid)
        x_max = float(np.max(fx))
        xp_min = float(np.min(fxp))
        ok = x_max <= self.constraint_tol and xp_min >= 1.0 - self.constraint_tol
        return ok, {"X_max": x_max, "Xp_min": xp_min, "ok": ok}


@dataclass
class PbResult:
    value: float
    F: HamiltonianSpec
    alpha: ClosedOneForm
    audit: dict


def pb_upper_bound(problem: PbProblem, restarts=8, max_evals=2000, grid_res=512,
                   cert_grid_res=4096, seed=0, jobs=1) -> PbResult:
    """Minimize the certified sup norm of {F, alpha} over the candidate family.

    Nelder-Mead with ``restarts`` starts (the family's canonical candidate
    first, random perturbations after), each capped at ``max_evals``
    evaluations; infeasible candidates score +inf. Restarts are independent
    and may run on ``jobs`` workers; the reduction is by restart index, so the
    result is identical for any jobs value. The winner is re-certified on the
    finer ``cert_grid_res`` grid and re-validated; the audit records
    constraint checks, family dimensions and the smallest certified value any
    feasible candidate ever achieved.
    """
    rng = np.random.default_rng(seed)
    family = problem.family
    audit = {"family": family.describe(), "restarts": [], "grid_res": grid_res,
             "cert_grid_res": cert_grid_res, "floor_asserted": problem.floor}

    def make_objective(tracker):
        def objective(params):
            F, alpha = family.build(np.asarray(params))
            ok, _ = problem.validate_candidate(F)
            if not ok:
                return np.inf
            val = sup_norm(F, alpha, problem.space, grid_res=grid_res)
            tracker[0] = min(tracker[0], val)
            return val
        return objective

    starts = [family.initial_params(rng, r) for r in range(restarts)]

    def run_restart(r):
        tracker = [np.inf]
        objective = make_objective(tracker)
        x0 = starts[r]
        if family.n_params == 0:
            val = objective(x0)
            return {"restart": r, "value": val, "evals": 1}, x0, val, tracker[0]
        res = minimize(objective, x0, method="Nelder-Mead",
                       options={"maxfev": max_evals, "xatol": 1e-10, "fatol": 1e-12})
        entry = {"restart": r, "value": float(res.fun), "evals": int(res.nfev),
                 "converged": bool(res.success)}
        return entry, res.x, float(res.fun), tracker[0]

    indices = range(1 if family.n_params == 0 else restarts)
    if jobs > 1:
        from concurrent.futures import ThreadPoolExecutor
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            outcomes = list(pool.map(run_restart, indices))
    else:
        outcomes = [run_restart(r) for r in indices]

    best_params, best_val = None, np.inf
    feasible_min = np.inf
    for entry, params, val, seen in outcomes:
        audit["restarts"].append(entry)
        feasible_min = min(feasible_min, seen)
        if val < best_val:
            best_val, best_params = val, params
    if best_params is None or not np.isfinite(best_val):
        raise InfeasibleFamily("no candidate in the family satisfied the constraints")

    F, alpha = family.build(np.asarray(best_params))
    ok, constraint_audit = problem.validate_candidate(F)
    if not ok:
        raise InfeasibleFamily("winning candidate failed final constraint validation")
    certified = sup_norm(F, alpha, problem.space, grid_res=cert_grid_res)
    grid_only = sup_norm(F, alpha, problem.space, grid_res=cert_grid_res, lipschitz_pad=False)
    audit["winner"] = {
        "params": np.asarray(best_params).tolist(),
        "constraints": constraint_audit,
        "grid_max": grid_only,
        "pad": certified - grid_only,
        "certified": certified,
    }
    audit["min_certified_seen"] = float(feasible_min)
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

    Every grid point of X is flowed under sgrad alpha; within each step the
    lift of the transversal coordinate (the pinned coordinate on which X and
    X' genuinely differ) is monitored for crossings of X''s level, and each
    crossing time is bisected to 1e-9. A crossing counts only if the full
    membership defect at the landing point is below ``landing_tol``. Ties in
    arrival time go to the lowest seed index. Returns None when no seed
    arrives before ``t_max``.
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

    best = None
    n_steps = int(np.ceil(t_max / h - 1e-12))
    for seed_idx, x0 in enumerate(X.grid):
        X_state = x0[None, :].astype(float)
        t = 0.0
        for _ in range(n_steps):
            step_h = min(h, t_max - t)
            X_next, _ = midpoint_step(field.velocity, X_state, t, step_h)
            hit = _first_crossing(field, X_state, t, step_h, X_next,
                                  crossing_coords, targets, Xp, space, landing_tol)
            if hit is not None:
                t_cross, x_cross = hit
                if best is None or t_cross < best[0] - 1e-15:
                    best = (t_cross, x0, x_cross)
                break
            X_state = X_next
            t += step_h
            if best is not None and t >= best[0]:
                break  # later seeds can only improve on earlier arrival
    if best is None:
        return None
    t_star, x0, x_end = best
    return Chord(start=wrap(x0, space), end=wrap(x_end, space), t_star=float(t_star))


def _first_crossing(field, X_state, t, h, X_next, coords, targets, Xp, space, landing_tol):
    """Earliest admissible level crossing inside one step, bisected to 1e-9."""
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
