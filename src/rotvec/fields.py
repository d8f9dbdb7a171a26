"""Analytic Hamiltonian families with exact derivatives.

A Hamiltonian is a ``trig.TrigPoly``: a finite trigonometric polynomial in
the phase-space coordinates, optionally 1-periodic in time. Sums and products
stay in the family, so gradients and time derivatives are closed-form
everywhere and long-horizon averaging never sees differentiation noise. The
builders here return one: ``fourier_hamiltonian`` from a list of waves, and
``make_pinned_profile`` a profile F = u(p_coord) whose ``metadata`` holds its
pins, its certified slope bound and the slope LP's solver record.
"""

from __future__ import annotations

import numpy as np

from .errors import InfeasiblePins, RotvecError
from .trig import COS, SIN, TWO_PI, TrigPoly

SLOPE_GRID = 4096  # grid of the profile LP's slope rows and of its slope certificate
PROFILE_MODES = 12  # the pinned profile's default number of Fourier modes
# relative excess of |u'| over tau that the exchange counts as a violation:
# above the rounding noise of HiGHS's vertex and of B @ theta (about 2e-13)
_LP_SLACK = 1e-12
LP_KEYS = ("lp_rounds", "lp_rows", "lp_status", "lp_value")  # the slope LP's solver record
# the last solves, for a run that repeats a profile a few operations later or
# a test module that rebuilds a handful: (pin floats, n_modes, grid_res) ->
# (theta, solver record), oldest first
_LP_CACHE = {}
_LP_CACHE_SIZE = 16


def fourier_hamiltonian(dim, terms):
    """F = sum of (coeff, kvec, tfreq, kind) waves over R^dim x time."""
    coeffs, kvecs, tfreqs, kinds = zip(*terms) if terms else ((),) * 4
    is_sin = [SIN if kind == "sin" else COS for kind in kinds]
    return TrigPoly(dim, coeffs, kvecs, tfreqs, is_sin)


def profile_hamiltonian(profile_poly: TrigPoly, dim, coord=0, metadata=None):
    """Lift a 1-variable profile u to F(x) = u(x_coord) on a dim-dimensional space."""
    kvecs = np.zeros((profile_poly.n_terms, dim), dtype=np.int64)
    kvecs[:, coord] = profile_poly.kvecs[:, 0]
    return TrigPoly(dim, profile_poly.coeffs, kvecs, profile_poly.tfreq, profile_poly.is_sin,
                    metadata)


# ---------------------------------------------------------------------------
# pinned profiles u: R/Z -> R
# ---------------------------------------------------------------------------

def _waves(n_modes):
    """(k, is_sin) of the profile parameters [c_0, c_1, s_1, ..., c_n, s_n]."""
    p = np.arange(2 * n_modes + 1)
    return (p + 1) // 2, (p > 0) & (p % 2 == 0)


def _profile_basis(t, n_modes, derivative=False):
    """Columns [1, cos(2 pi k t), sin(2 pi k t)]_{k<=n_modes} or their derivatives."""
    k, is_sin = _waves(n_modes)
    w = TWO_PI * k
    wt = np.atleast_1d(np.asarray(t, dtype=float))[..., None] * w
    if derivative:  # d/dt 1 = 0, d/dt cos(wt) = -w sin(wt), d/dt sin(wt) = w cos(wt)
        return np.where(k == 0, 0.0, np.where(is_sin, w * np.cos(wt), -w * np.sin(wt)))
    return np.where(is_sin, np.sin(wt), np.cos(wt))


def _profile_poly(theta, n_modes):
    """Coefficient vector theta -> the 1-variable TrigPoly it represents."""
    k, is_sin = _waves(n_modes)
    return TrigPoly(1, theta, k[:, None], np.zeros(len(k)), is_sin)


def pin_conflict(pins, n_modes):
    """Why no profile of ``n_modes`` modes meets the pins [(t, v), ...], or None.

    Returns (j, reason): j is the index of the first pin whose time (mod 1)
    another pin holds at a different value, or None when there are more pins
    than the 2 n_modes + 1 profile parameters.
    """
    seen = {}
    for j, (t, v) in enumerate(pins):
        key = round(t % 1.0, 12)
        if key in seen and abs(seen[key] - v) > 1e-12:
            return j, f"u({t}) pinned to both {seen[key]} and {v}"
        seen[key] = v
    if len(pins) > 2 * n_modes + 1:
        return None, f"{len(pins)} pins exceed {2 * n_modes + 1} profile parameters"
    return None


def make_pinned_profile(pins, n_modes=PROFILE_MODES, dim=2, coord=0):
    """Build F = u(p_coord), the profile of minimal max|u'| with u(t_i) = v_i.

    One solver: a linear program (the pointwise max of |u'| over the
    ``SLOPE_GRID`` grid is linear in the coefficients) with the pins as
    equality rows, solved by constraint exchange and cached (``_min_slope_lp``).
    The achieved slope is certified on the same grid (``TrigPoly.certified_bounds``
    of u') and reported in the metadata, with the solver record (``LP_KEYS``),
    which a cached solve repeats. Raises ``InfeasiblePins`` for pins no profile
    meets and ``RotvecError`` when HiGHS stops without an answer.
    """
    pins = [(float(t), float(v)) for t, v in pins]
    conflict = pin_conflict(pins, n_modes)
    if conflict:
        raise InfeasiblePins(conflict[1])
    pts = np.array([t for t, _ in pins])
    vals = np.array([v for _, v in pins])
    theta, solver = _min_slope_lp(pins, n_modes, SLOPE_GRID)
    residual = np.abs(_profile_basis(pts, n_modes) @ theta - vals).max() if len(pts) else 0.0
    if residual > 1e-10:
        raise InfeasiblePins(f"pin residual {residual:.3e} after the slope LP")

    u_poly = _profile_poly(theta, n_modes)
    lo, hi, pad = u_poly.partial(0).certified_bounds(SLOPE_GRID)
    grid_max = max(hi, -lo)
    meta = {
        "pins": pins,
        "n_modes": n_modes,
        "coord": coord,
        "slope_grid_max": grid_max,
        "slope_pad": pad,
        "certified_slope": grid_max + pad,
        "profile_coeffs": theta.tolist(),
        **solver,
    }
    return profile_hamiltonian(u_poly, dim, coord=coord, metadata=meta)


def _min_slope_lp(pins, n_modes, grid_res):
    """minimize tau s.t. |u'| <= tau on the ``grid_res`` grid and u(t) = v at the pins.

    Returns (theta, solver): the coefficients of u and the solver record
    (``LP_KEYS``: rounds, active rows, linprog status and the LP value tau).

    Solved by constraint exchange: round one solves on 256 evenly spaced grid
    rows; each round then evaluates |u'| on the whole grid and adds every
    violated (|u'| > tau, up to ``_LP_SLACK``) local maximum that is not yet
    active, with its two neighbours. The loop stops when there is none, so
    the active set grows strictly and the loop ends.

    Why that is the full LP's optimum: the sub-LP keeps a subset of the rows,
    so its value tau is at most the full value tau*. At the stop, every
    maximal run of violated grid rows has its maximum, a local maximum of
    |u'|, on an active row, so max|u'| over the grid is its maximum over the
    active rows, which the sub-LP holds at tau. theta is feasible for the
    full LP at tau <= tau*, hence optimal. Both statements hold to HiGHS's
    feasibility tolerances (1e-7), as they do for a one-call solve of the
    full LP, which left |u'| up to 8.9e-7 (relative) above its own tau on
    random pins.

    Stall guard: when tau does not rise while rows are still violated, the
    optimal face is not a point and the exchange can wander along it; the
    next round then takes every row, which is the full LP itself. Where the
    simplex stops on a round without an answer (HiGHS status 15: on the full
    LP of pins whose optimum sits on the mean-value floor, a large optimal
    face, and on some sub-LPs), that round is solved once more by the
    interior-point method.

    Solves are cached on their exact inputs (pin floats, n_modes, grid_res);
    a hit returns copies and the record of the solve it repeats. scipy loads
    on the first solve, not on ``import rotvec``.
    """
    key = (np.asarray(pins, dtype=float).tobytes(), n_modes, grid_res)
    if key in _LP_CACHE:
        theta, solver = _LP_CACHE[key]
        return theta.copy(), dict(solver)
    from scipy.optimize import linprog
    pts, vals = np.asarray(pins, dtype=float).reshape(-1, 2).T
    n_params = 2 * n_modes + 1
    B = _profile_basis(np.arange(grid_res) / grid_res, n_modes, derivative=True)
    a_eq = np.hstack([_profile_basis(pts, n_modes), np.zeros((len(vals), 1))])
    cost = np.append(np.zeros(n_params), 1.0)
    bounds = [(None, None)] * n_params + [(0, None)]
    active = np.zeros(grid_res, dtype=bool)
    active[::max(grid_res // 256, 1)] = True
    tau, rounds = -np.inf, 0
    while True:
        rounds += 1
        rows = B[active]
        ones = np.ones((len(rows), 1))
        lp = dict(A_ub=np.block([[rows, -ones], [-rows, -ones]]), b_ub=np.zeros(2 * len(rows)),
                  A_eq=a_eq, b_eq=vals, bounds=bounds)
        res = linprog(cost, **lp, method="highs")
        if res.status not in (0, 2):
            res = linprog(cost, **lp, method="highs-ipm")
        if res.status == 2:
            raise InfeasiblePins(f"slope minimization infeasible: {res.message}")
        if not res.success:
            raise RotvecError(f"slope LP failed (status {res.status}): {res.message}")
        theta = res.x[:n_params]
        rose, tau = res.x[-1] > tau * (1 + _LP_SLACK), res.x[-1]
        slope = np.abs(B @ theta)
        peak = (slope > tau * (1 + _LP_SLACK)) & ~active
        peak &= (slope >= np.roll(slope, 1)) & (slope >= np.roll(slope, -1))
        if not peak.any():
            break
        new = peak | np.roll(peak, 1) | np.roll(peak, -1)
        active = active | new if rose else np.ones(grid_res, dtype=bool)
    solver = dict(zip(LP_KEYS, (rounds, int(active.sum()), int(res.status), float(tau))))
    if len(_LP_CACHE) >= _LP_CACHE_SIZE:
        del _LP_CACHE[next(iter(_LP_CACHE))]  # the oldest entry
    _LP_CACHE[key] = theta.copy(), solver
    return theta, dict(solver)


# ---------------------------------------------------------------------------
# JSON family schema
# ---------------------------------------------------------------------------

def parse_family(spec, dim):
    """Build a Hamiltonian from its JSON description.

    Schema: ``{"family": "fourier", "coeffs": [[c, [k...], m, "cos"], ...]}``
    or ``{"family": "pinned-profile", "pins": [[t, v], ...], "n_modes": ...,
    "coord": ...}``, where the last two are optional and default as in
    ``make_pinned_profile``; other keys (such as the retired ``slope_target``)
    are ignored.
    """
    family = spec.get("family")
    if family == "fourier":
        return fourier_hamiltonian(dim, spec["coeffs"])
    if family == "pinned-profile":
        options = {key: spec[key] for key in ("n_modes", "coord") if key in spec}
        return make_pinned_profile(spec["pins"], dim=dim, **options)
    raise ValueError(f"unknown Hamiltonian family {family!r}")
