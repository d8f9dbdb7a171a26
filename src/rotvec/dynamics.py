"""Hamiltonian and locally Hamiltonian vector fields, and their flows.

Field conventions (constant-coefficient omega, in (p, q) order):

- locally Hamiltonian field of a closed 1-form alpha:  i_v omega = alpha,
  i.e. v = -Omega^{-1} alpha;
- Hamiltonian field of F: the field of -dF, i.e. v = Omega^{-1} grad F,
  which for the standard form is the usual qdot = dF/dp, pdot = -dF/dq.

The integrator is the implicit midpoint rule with fixed-point iteration: a
symmetric one-step method whose energy error stays bounded over the very long
horizons Birkhoff averaging needs (and which is exact for the momentum-only
fields of the builtin examples). Lifts are never re-wrapped mid-integration,
so winding counts are read off from plain coordinate differences.

All stepping is one loop, the node generator ``_nodes``, which steps a (B, dim)
batch of orbits and yields (t, X, dX) at every node, dX the step increment
that reached it: ``integrate`` stores the nodes, ``birkhoff_stream`` sums the
increments into the displacements that rotation pairings are read from, the
chord search bisects.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field

import numpy as np

from .errors import BlowUp, DimensionError, StiffStep
from .geometry import ClosedOneForm, PhaseSpace
from .trig import TrigPoly

FP_TOL = 1e-12
FP_MAX_ITER = 50


class VectorFieldSpec:
    """A velocity field on a phase space, solving i_v omega = beta exactly.

    ``kind`` is "hamiltonian" (beta = -dF), "locally-hamiltonian" (beta =
    alpha) or "suspended" (the autonomous Hamiltonian field of F(x, s) + r on
    the extended space), and ``generator`` the F, alpha or suspended
    Hamiltonian it was built from. ``velocity`` is the exact linear image of a
    gradient, x -> M grad F(x, t) + c, summed by the TrigPoly evaluator: no
    per-step linear solves, no numerical differentiation. The field at one
    point x is ``velocity(x[None], t)[0]``.
    """

    def __init__(self, kind, space, velocity, generator, conserved=None):
        self.kind = kind
        self.space = space
        self.velocity = velocity
        self.generator = generator
        self.conserved = conserved  # scalar logged along orbits


def _same_field(a, b):
    """Whether specs a and b are one field: same kind, generator and space objects.

    An equal generator built anew counts as another field; the shortcuts this
    guards then take their general route, which costs time, not accuracy.
    """
    return a.kind == b.kind and a.generator is b.generator and a.space is b.space


def hamiltonian_field(F: TrigPoly, space: PhaseSpace) -> VectorFieldSpec:
    """The Hamiltonian vector field of F: v = Omega^{-1} grad F."""
    if F.dim != space.dim:
        raise DimensionError(f"F has dim {F.dim}, space has {space.dim}")
    vel = F.gradient_map(space.omega.inverse)
    conserved = None if F.is_time_dependent else F.eval
    return VectorFieldSpec("hamiltonian", space, vel, F, conserved)


def locally_hamiltonian_field(alpha: ClosedOneForm, space: PhaseSpace) -> VectorFieldSpec:
    """The locally Hamiltonian field of a closed 1-form: v = -Omega^{-1} alpha."""
    if alpha.dim != space.dim:
        raise DimensionError(f"form has dim {alpha.dim}, space has {space.dim}")
    potential = TrigPoly.zero(space.dim) if alpha.potential is None else alpha.potential
    vel = potential.gradient_map(-space.omega.inverse,
                                 const=-space.omega.inverse @ alpha.cclass.coeffs)
    return VectorFieldSpec("locally-hamiltonian", space, vel, alpha)


# ---------------------------------------------------------------------------
# integration
# ---------------------------------------------------------------------------

@dataclass
class Trajectory:
    """A discrete orbit of ``field``, with lift tracking and an optional energy log."""

    space: PhaseSpace
    times: np.ndarray
    lifts: np.ndarray  # (n_nodes, dim), or (n_nodes, B, dim) for a batch
    h: float
    field: VectorFieldSpec
    energies: np.ndarray | None = None
    meta: dict = dc_field(default_factory=dict)

    def __len__(self):
        return len(self.times)

    @property
    def T(self):
        return float(self.times[-1] - self.times[0])

    def energy_drift(self):
        """max_t |E(x_t) - E(x_0)| over the log (None if no conserved quantity)."""
        if self.energies is None:
            return None
        return float(np.abs(self.energies - self.energies[0]).max())


def _step_counts(T, h):
    n_full = int(np.floor(T / h + 1e-9))
    remainder = T - n_full * h
    if remainder < 1e-12 * max(1.0, T):
        remainder = 0.0
    return n_full, remainder


def _trapezoid_weights(T, h):
    """Trapezoid weights h/2, h, ..., h, h/2 over T of the nodes of a run over [0, T]
    (the last step shorter if h does not divide T): every full step weighs the same."""
    n_full, remainder = _step_counts(T, h)
    steps = np.full(n_full + bool(remainder), h)
    steps[n_full:] = remainder
    w = np.zeros(len(steps) + 1)
    w[:-1] += 0.5 * steps
    w[1:] += 0.5 * steps
    return w / T


def midpoint_step(vel, X, t, h):
    """One implicit midpoint step for the batch X; returns (X + dX, dX), dX = h v(mid).

    h is a scalar, or a (B, 1) column giving each row its own step; a column
    is for autonomous fields only, since the midpoint time t + h/2 is then a
    column too. Fixed-point iteration to FP_TOL with at most FP_MAX_ITER
    sweeps (the batch iterates until its slowest row converges); raises
    StiffStep on non-convergence and BlowUp on non-finite states.
    """
    t_mid = t + 0.5 * h
    Y = X + h * vel(X, t)  # Euler predictor
    for _ in range(FP_MAX_ITER):
        dX = h * vel(0.5 * (X + Y), t_mid)
        Y_new = X + dX
        err = np.max(np.abs(Y_new - Y))
        Y = Y_new
        if err < FP_TOL:
            return Y, dX
    if not np.all(np.isfinite(Y)):
        raise BlowUp(f"non-finite state at t = {t + h}")
    raise StiffStep(f"midpoint iteration stalled at t = {t + h} (err = {err:.2e}); reduce h")


_STEPPERS = {"midpoint": midpoint_step}


def _nodes(field, X, T, h):
    """Step the batch X (B, dim) over [0, T]; yield (t, X, dX) at every node.

    Node k is at k*h, plus a last, shorter step to T if h does not divide T;
    dX is the increment of the step that reached it (zero at t = 0), and every
    yielded array is new. Raises BlowUp on a non-finite state (checked every
    512 steps and at the end).
    """
    step = _STEPPERS["midpoint"]  # looked up per call: perfbench's tracer re-points it
    vel = field.velocity
    X = np.array(X, dtype=float)
    n_full, remainder = _step_counts(T, h)
    n_steps = n_full + bool(remainder)
    t = 0.0
    yield t, X, np.zeros_like(X)
    for k in range(n_steps):
        X, dX = step(vel, X, t, h if k < n_full else remainder)
        t = (k + 1) * h if k < n_full else T
        if (k % 512 == 0 or k == n_steps - 1) and not np.all(np.isfinite(X)):
            raise BlowUp(f"non-finite state at t = {t}")
        yield t, X, dX


def integrate(field: VectorFieldSpec, x0, T, h) -> Trajectory:
    """Integrate from x0 over [0, T] with fixed step h (last step may be shorter).

    x0 is one point (dim,) or a batch (B, dim); lifts are (n_nodes,) + x0.shape.
    """
    if T <= 0 or h <= 0:
        raise ValueError("require T > 0 and h > 0")
    x0 = np.asarray(x0, dtype=float)
    X0 = x0.reshape(-1, field.space.dim)
    n_full, remainder = _step_counts(T, h)
    times = np.empty(n_full + 1 + bool(remainder))
    lifts = np.empty(times.shape + X0.shape)
    for i, (t, X, _) in enumerate(_nodes(field, X0, T, h)):
        times[i], lifts[i] = t, X
    lifts = lifts.reshape(times.shape + x0.shape)
    energies = field.conserved(lifts) if field.conserved is not None else None
    return Trajectory(field.space, times, lifts, h, field, energies)


def _steps_per_unit(h):
    """m = 1/h, the steps per unit period; ValueError unless h = 1/m exactly."""
    m = round(1.0 / h)
    if m < 1 or abs(m * h - 1.0) > 1e-12:
        raise ValueError(f"h = {h} does not divide the unit period")
    return m


# ---------------------------------------------------------------------------
# streaming horizon states (batched, constant memory)
# ---------------------------------------------------------------------------

def birkhoff_stream(field, X0, horizons, h):
    """Integrate the batch X0 (B, dim) and yield (T, X_T, D) at each horizon.

    horizons increase, each an integer multiple of h. D is the sum of the step
    increments over [0, T]: the displacement X_T - X_0 without the rounding of
    a difference of lifts. No later step changes X_T or D, and the orbit
    continues across horizons, so stopping early wastes nothing.
    """
    horizons = list(horizons)
    counts = [round(T / h) for T in horizons]
    for T, c in zip(horizons, counts):
        if abs(c * h - T) > 1e-9:
            raise ValueError(f"horizon {T} is not a multiple of h = {h}")
    D = np.zeros(np.shape(X0))
    pending = 0
    for k, (_, X, dX) in enumerate(_nodes(field, X0, counts[-1] * h, h)):
        D += dX
        while pending < len(counts) and counts[pending] == k:
            yield horizons[pending], X, D.copy()
            pending += 1
