"""Poisson brackets against closed 1-forms and minimax bracket bounds.

The bracket of a function F with a closed 1-form alpha is

    {F, alpha} = dF(sgrad alpha) = alpha(sgrad F),

a function on phase space. Because every F and every potential here is a
trigonometric polynomial and omega has constant coefficients, the bracket is
again an exact trigonometric polynomial: sup norms can therefore be certified
(grid maximum plus the exact Lipschitz pad, ``TrigPoly.certified_bounds``),
not merely sampled.

``pb_upper_bound(problem, F, cert_grid_res)`` certifies the sup norm of the
bracket of a candidate F that the caller builds (F <= 0 on X, F >= 1 on X')
with the constant form of the class: a numerical upper bound for the minimax
bracket invariant of (X, X', class). For a pinned profile F = u(x_0) the
bracket is linear in the profile coefficients, so the linear-programming
optimum of max|u'| (``fields.make_pinned_profile``) is the best candidate of
its family and no search is needed. The matching lower bound is theory input
(non-displaceability), asserted by the caller, never computed here.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import pairwise

import numpy as np

from .dynamics import (_nodes, birkhoff_stream, hamiltonian_field, locally_hamiltonian_field,
                       midpoint_step)
from .errors import InfeasibleFamily
from .fields import LP_KEYS
from .geometry import (ClosedOneForm, CohomologyClass, PhaseSpace, RegionSpec,
                       circular_residual)
from .measures import loop_integral
from .trig import MIN_GRID_RES, TrigPoly

CONSTRAINT_TOL = 1e-9  # slack of the admissibility checks F <= 0 on X, F >= 1 on X'
LANDING_TOL = 1e-6  # largest membership defect of X' at a counted chord landing


def bracket_poly(F: TrigPoly, alpha: ClosedOneForm, space: PhaseSpace) -> TrigPoly:
    """{F, alpha} as an exact trigonometric polynomial (in x, and s if F is).

    Computed as alpha(sgrad F) = (class + grad g) . (Omega^{-1} grad F): the
    class term is the derivative of F along Omega^{-T} class, and each partial
    d_i g of the potential multiplies the derivative of F along row i of
    Omega^{-1}. Every product of waves is re-expanded, so the coefficients of
    the result are exact and usable for certified bounds. Its value at (x, s)
    is ``bracket_poly(F, alpha, space).eval(x, s)``.
    """
    inv = space.omega.inverse
    out = F.derivative(inv.T @ alpha.cclass.coeffs)
    if alpha.potential is not None:
        for i in range(F.dim):
            dg_i = alpha.potential.partial(i)
            if dg_i.n_terms:
                out = out + dg_i.product(F.derivative(inv[i]))
    return out


def sup_norm(F, alpha, space, grid_res=512):
    """Certified uniform norm of {F, alpha} over phase space (and time): the
    largest |value| on the bracket's ``certified_bounds`` grid plus its pad."""
    if grid_res < MIN_GRID_RES:
        raise ValueError(f"grid_res must be at least {MIN_GRID_RES} per dimension")
    lo, hi, pad = bracket_poly(F, alpha, space).certified_bounds(grid_res)
    return max(hi, -lo) + pad


def averaged_bracket(F, alpha, space, x, T, h) -> float:
    """{F, alpha_T}(x) for the orbit-averaged form alpha_T.

    Uses the identity {F, alpha_T}(x) = (1/T) int_0^T alpha(sgrad F)(phi_t x) dt,
    so no flow Jacobians are integrated. The time integral is the integral of
    alpha along the orbit segment of x, so it is read off the segment's summed
    step increments (``measures.loop_integral``), the search's own formula.
    """
    x = np.asarray(x, dtype=float)[None, :]
    [(_, X, D)] = birkhoff_stream(hamiltonian_field(F, space), x, [T], h)
    return float(loop_integral(alpha, x, X, D)[0] / T)


# ---------------------------------------------------------------------------
# minimax problems
# ---------------------------------------------------------------------------

@dataclass
class PbProblem:
    """A minimax bracket problem: disjoint regions X, X' and a class a.

    ``floor`` is the asserted theoretical lower bound for the invariant (from
    non-displaceability of the pair); it is an input, not a computation, and
    is used only for sanity auditing of the numerical upper bound.
    """

    space: PhaseSpace
    X: RegionSpec
    Xp: RegionSpec
    a: CohomologyClass
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
    audit: dict


def pb_upper_bound(problem: PbProblem, F: TrigPoly, cert_grid_res=4096) -> PbResult:
    """Certify the sup norm of {F, a} for the candidate F.

    F is validated against the region constraints (``InfeasibleFamily``, with
    ``X_max`` and ``Xp_min``, when it fails), its bracket with the constant
    form a is certified on a ``cert_grid_res`` grid (grid maximum plus
    Lipschitz pad), and the audit records the constraint checks, the
    certified split and F's profile LP record (empty for other candidates).

    Why a pinned profile F = u(x_0) from ``fields.make_pinned_profile`` is
    the best candidate of its family: the bracket is {F, a + dg} =
    (a . Omega^{-1} e_0) u'(x_0), since a potential g(x_0) adds
    g' u' (Omega^{-1})_00 = 0 (Omega^{-1} is antisymmetric). The objective is
    therefore linear in the profile coefficients, and its optimum over the
    pinned profiles is the minimal-slope profile that the LP solves for (up
    to its slope grid), paired with alpha = a.
    """
    ok, constraint_audit = problem.validate_candidate(F)
    if not ok:
        raise InfeasibleFamily(
            f"the candidate fails the region constraints: X_max = {constraint_audit['X_max']} "
            f"(F <= 0 on X), Xp_min = {constraint_audit['Xp_min']} (F >= 1 on X')")
    if cert_grid_res < MIN_GRID_RES:
        raise ValueError(f"cert_grid_res must be at least {MIN_GRID_RES} per dimension")
    pb = bracket_poly(F, ClosedOneForm(problem.a), problem.space)
    lo, hi, pad = pb.certified_bounds(cert_grid_res)
    grid_max = max(hi, -lo)
    certified = grid_max + pad
    audit = {
        "restarts": [],  # no search runs; the key stays for readers of the audit schema
        "cert_grid_res": cert_grid_res,
        "floor_asserted": problem.floor,
        # the audited pad is certified - grid_max, so the two add up to certified exactly
        "winner": {"constraints": constraint_audit, "grid_max": grid_max,
                   "pad": certified - grid_max, "certified": certified},
        "profile_lp": {key: F.metadata[key] for key in LP_KEYS if key in F.metadata},
    }
    return PbResult(value=float(certified), audit=audit)


# ---------------------------------------------------------------------------
# chords
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Chord:
    """A flow segment of sgrad alpha from X to X' (lifts) with its travel time."""

    start: np.ndarray
    end: np.ndarray
    t_star: float


def chord_search(alpha: ClosedOneForm, space: PhaseSpace, X: RegionSpec,
                 Xp: RegionSpec, t_max=10.0, h=1e-2):
    """Earliest chord of the locally Hamiltonian flow of alpha from X to X'.

    Every grid point of X is flowed under sgrad alpha, all in one batch.
    After each step, every level of X' that a row's lift of a transversal
    coordinate (a pinned coordinate on which X and X' genuinely differ)
    passed is a candidate, and all candidates are bisected together to 1e-10
    in time, one batched midpoint step per halving. A crossing counts only if
    the full membership defect at its landing point is at most
    ``LANDING_TOL``. The search stops at the first step with a counted
    crossing and takes the earliest; among crossings within 1e-15 of it, the
    lowest seed index wins. Returns None when no seed arrives before ``t_max``.
    """
    field = locally_hamiltonian_field(alpha, space)
    targets = dict(Xp.constraints)
    here = dict(X.constraints)
    coords = np.array([
        i for i, v in targets.items()
        if i in here and abs(circular_residual(here[i], v)) > 1e-9
    ] or list(targets), dtype=int)

    for (t, X_state, _), (_, X_next, _) in pairwise(_nodes(field, X.grid, t_max, h)):
        rows, cols, levels = _crossings(X_state, X_next, coords, targets, space)
        if not len(rows):
            continue
        starts = X_state[rows]
        t_hit = _bisect(field, starts, t, min(h, t_max - t), cols, levels)
        Y, _ = midpoint_step(field.velocity, starts, t, t_hit[:, None])
        t_cross = t + t_hit
        landed = Xp.defect(Y) <= LANDING_TOL
        if landed.any():
            tied = np.flatnonzero(landed & (t_cross <= t_cross[landed].min() + 1e-15))
            k = tied[np.lexsort((t_hit[tied], rows[tied]))[0]]  # lowest seed, then earliest
            return Chord(start=X.grid[rows[k]].copy(), end=Y[k], t_star=float(t_cross[k]))
    return None


def _crossings(X_state, X_next, coords, targets, space):
    """(rows, coords, levels) of every target level a row's lift passed in one
    step, in row-major order (1e-15 slack): on circles every integer shift of
    the level lies on the region, off circles the level itself."""
    a, b = X_state[:, coords], X_next[:, coords]
    level = np.array([targets[i] for i in coords])
    lo, hi = np.minimum(a, b), np.maximum(a, b)
    circle = space.periodic[coords]
    first = np.where(circle, np.ceil(lo - level - 1e-15), 0.0)
    inside = (lo - 1e-15 <= level) & (level <= hi + 1e-15)
    last = np.where(circle, np.floor(hi - level + 1e-15), np.where(inside, 0.0, -1.0))
    count = np.where(a != b, np.maximum(last - first + 1, 0), 0).astype(int).ravel()
    pair = np.repeat(np.arange(count.size), count)
    shift = np.arange(pair.size) - np.repeat(np.cumsum(count) - count, count)
    rows, cols = np.divmod(pair, len(coords))
    return rows, coords[cols], level[cols] + (first.ravel()[pair] + shift)


def _bisect(field, starts, t, h, cols, levels):
    """Sub-step in [0, h] at which each start's coordinate ``cols`` meets its
    level, to 1e-10: one midpoint step of the whole batch per halving."""
    at = np.arange(len(starts)), cols
    side = np.sign(starts[at] - levels)
    side[side == 0] = 1.0
    lo, hi = np.zeros(len(starts)), np.full(len(starts), h)
    while np.any(hi - lo > 1e-10):
        mid = 0.5 * (lo + hi)
        Y, _ = midpoint_step(field.velocity, starts, t, mid[:, None])
        before = np.sign(Y[at] - levels) == side
        lo, hi = np.where(before, mid, lo), np.where(before, hi, mid)
    return 0.5 * (lo + hi)
