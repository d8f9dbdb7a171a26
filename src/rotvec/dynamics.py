"""Hamiltonian and locally Hamiltonian vector fields, and their flows.

Field conventions (constant-coefficient omega, in (p, q) order):

- locally Hamiltonian field of a closed 1-form alpha:  i_v omega = alpha,
  i.e. v = -Omega^{-1} alpha;
- Hamiltonian field of F: the field of -dF, i.e. v = Omega^{-1} grad F,
  which for the standard form is the usual qdot = dF/dp, pdot = -dF/dq.

The default integrator is the implicit midpoint rule with fixed-point
iteration: a symmetric one-step method whose energy error stays bounded over
the very long horizons Birkhoff averaging needs (and which is exact for the
momentum-only fields of the builtin examples). RK4 is provided for
cross-validation only. Lifts are never re-wrapped mid-integration, so winding
counts are read off from plain coordinate differences.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field

import numpy as np

from .errors import BlowUp, DegenerateForm, DimensionError, StiffStep
from .fields import HamiltonianSpec
from .geometry import ClosedOneForm, PhasePoint, PhaseSpace, wrap, wrap_batch
from .trig import TrigPoly

FP_TOL = 1e-12
FP_MAX_ITER = 50


class VectorFieldSpec:
    """A velocity field on a phase space, solving i_v omega = beta exactly.

    ``kind`` is "hamiltonian" (beta = -dF), "locally-hamiltonian" (beta =
    alpha) or "suspended" (the autonomous Hamiltonian field of F(x, s) + r on
    the extended space). ``velocity`` is the exact linear image of a
    gradient, x -> M grad F(x, t) + c, summed by the TrigPoly evaluator: no
    per-step linear solves, no numerical differentiation.
    """

    def __init__(self, kind, space, velocity, conserved=None, source=None, autonomous=True):
        self.kind = kind
        self.space = space
        self.velocity = velocity
        self.conserved = conserved  # scalar logged along orbits
        self.source = source
        self.autonomous = autonomous

    def __call__(self, X, t=0.0):
        return self.velocity(X, t)

    def residual(self, x, t=0.0):
        """max |Omega^T v - beta| at x: the defining-equation defect."""
        x = np.asarray(getattr(x, "lift", x), dtype=float)
        v = self.velocity(x[None, :], t)[0]
        omega = self.space.omega.matrix
        if self.kind == "hamiltonian":
            beta = -self.source.grad(x, t)
        elif self.kind == "locally-hamiltonian":
            beta = self.source.coefficients(x)
        else:
            beta = -self.source.grad(x)
        return float(np.abs(omega.T @ v - beta).max())


def hamiltonian_field(F: HamiltonianSpec, space: PhaseSpace) -> VectorFieldSpec:
    """The Hamiltonian vector field of F: v = Omega^{-1} grad F."""
    if F.dim != space.dim:
        raise DimensionError(f"F has dim {F.dim}, space has {space.dim}")
    vel = F.poly.gradient_map(space.omega.inverse)
    conserved = F.poly.eval if F.autonomous else None
    return VectorFieldSpec("hamiltonian", space, vel, conserved, source=F,
                           autonomous=F.autonomous)


def locally_hamiltonian_field(alpha: ClosedOneForm, space: PhaseSpace) -> VectorFieldSpec:
    """The locally Hamiltonian field of a closed 1-form: v = -Omega^{-1} alpha."""
    if alpha.dim != space.dim:
        raise DimensionError(f"form has dim {alpha.dim}, space has {space.dim}")
    potential = TrigPoly.zero(space.dim) if alpha.potential is None else alpha.potential
    vel = potential.gradient_map(-space.omega.inverse,
                                 const=-space.omega.inverse @ alpha.cclass.coeffs)
    return VectorFieldSpec("locally-hamiltonian", space, vel, source=alpha)


def sgrad_form(alpha: ClosedOneForm, space: PhaseSpace, x) -> np.ndarray:
    """The locally Hamiltonian field of alpha at a single point."""
    x = np.asarray(getattr(x, "lift", x), dtype=float)
    v = -space.omega.inverse @ alpha.coefficients(x)
    if np.abs(space.omega.matrix.T @ v - alpha.coefficients(x)).max() > 1e-12:
        raise DegenerateForm("contraction residual exceeds 1e-12")
    return v


def sgrad(F: HamiltonianSpec, space: PhaseSpace, x, s=0.0) -> np.ndarray:
    """The Hamiltonian vector field of F at a single point (minus-sign convention)."""
    x = np.asarray(getattr(x, "lift", x), dtype=float)
    return space.omega.inverse @ F.grad(x, s)


# ---------------------------------------------------------------------------
# integration
# ---------------------------------------------------------------------------

@dataclass
class Trajectory:
    """A discrete orbit with lift tracking and an optional conserved-quantity log."""

    space: PhaseSpace
    times: np.ndarray
    lifts: np.ndarray  # (n_nodes, dim)
    h: float
    field_kind: str
    energies: np.ndarray | None = None
    meta: dict = dc_field(default_factory=dict)

    def __len__(self):
        return len(self.times)

    @property
    def T(self):
        return float(self.times[-1] - self.times[0])

    def point(self, i) -> PhasePoint:
        return wrap(self.lifts[i], self.space)

    @property
    def initial(self) -> PhasePoint:
        return self.point(0)

    @property
    def final(self) -> PhasePoint:
        return self.point(-1)

    def wrapped(self):
        return wrap_batch(self.lifts, self.space)

    def energy_drift(self):
        """max_t |E(x_t) - E(x_0)| over the log (None if no conserved quantity)."""
        if self.energies is None:
            return None
        return float(np.abs(self.energies - self.energies[0]).max())

    def to_csv(self, path, names=None):
        """Write (t, lift coords, wrapped coords, conserved value) as CSV."""
        names = names or [f"x{i}" for i in range(self.space.dim)]
        cols = [self.times] + list(self.lifts.T) + list(self.wrapped().T)
        header = ["t"] + [f"{n}_lift" for n in names] + [f"{n}_wrapped" for n in names]
        if self.energies is not None:
            cols.append(self.energies)
            header.append("E")
        data = np.column_stack(cols)
        np.savetxt(path, data, delimiter=",", header=",".join(header), comments="")


def _step_counts(T, h):
    n_full = int(np.floor(T / h + 1e-9))
    remainder = T - n_full * h
    if remainder < 1e-12 * max(1.0, T):
        remainder = 0.0
    return n_full, remainder


def midpoint_step(vel, X, t, h, v_node=None):
    """One implicit midpoint step for the batch X; returns (X_next, v_node).

    Fixed-point iteration to FP_TOL with at most FP_MAX_ITER sweeps; raises
    StiffStep on non-convergence and BlowUp on non-finite states.
    """
    if v_node is None:
        v_node = vel(X, t)
    t_mid = t + 0.5 * h
    Y = X + h * v_node  # Euler predictor
    for _ in range(FP_MAX_ITER):
        Y_new = X + h * vel(0.5 * (X + Y), t_mid)
        err = np.max(np.abs(Y_new - Y))
        Y = Y_new
        if err < FP_TOL:
            return Y, v_node
    if not np.all(np.isfinite(Y)):
        raise BlowUp(f"non-finite state at t = {t + h}")
    raise StiffStep(f"midpoint iteration stalled at t = {t + h} (err = {err:.2e}); reduce h")


def rk4_step(vel, X, t, h, v_node=None):
    """Classic RK4 step (cross-check integrator)."""
    k1 = vel(X, t) if v_node is None else v_node
    k2 = vel(X + 0.5 * h * k1, t + 0.5 * h)
    k3 = vel(X + 0.5 * h * k2, t + 0.5 * h)
    k4 = vel(X + h * k3, t + h)
    return X + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4), k1


_STEPPERS = {"midpoint": midpoint_step, "rk4": rk4_step}


def integrate(field: VectorFieldSpec, x0, T, h, method="midpoint") -> Trajectory:
    """Integrate from x0 over [0, T] with fixed step h (last step may be shorter)."""
    if T <= 0 or h <= 0:
        raise ValueError("require T > 0 and h > 0")
    step = _STEPPERS[method]
    x0 = np.asarray(getattr(x0, "lift", x0), dtype=float)
    n_full, remainder = _step_counts(T, h)
    n_nodes = n_full + 1 + (1 if remainder else 0)
    lifts = np.empty((n_nodes, field.space.dim))
    times = np.empty(n_nodes)
    lifts[0], times[0] = x0, 0.0
    X = x0[None, :]
    t = 0.0
    for i in range(n_full):
        X, _ = step(field.velocity, X, t, h)
        t += h
        lifts[i + 1], times[i + 1] = X[0], t
        if i % 512 == 0 and not np.all(np.isfinite(X)):
            raise BlowUp(f"non-finite state at t = {t}")
    if remainder:
        X, _ = step(field.velocity, X, t, remainder)
        lifts[-1], times[-1] = X[0], T
    if not np.all(np.isfinite(lifts)):
        raise BlowUp("non-finite state in trajectory")
    energies = field.conserved(lifts) if field.conserved is not None else None
    return Trajectory(field.space, times, lifts, h, field.kind, energies)


def reversed_field(field: VectorFieldSpec) -> VectorFieldSpec:
    """The field generating the time-reversed flow (for reversibility checks)."""
    return VectorFieldSpec(field.kind, field.space, -field.velocity, field.conserved,
                           field.source, field.autonomous)


def time_one_map(F: HamiltonianSpec, space: PhaseSpace, x0, h):
    """Time-one map of a 1-periodic Hamiltonian, plus the full unit arc.

    Requires h = 1/m for integer m so that node times tile the period; returns
    (phi(x0), arc) where the arc is the trajectory {phi_t x0}, t in [0, 1],
    whose lift displacement gives loop integrals of constant-coefficient forms
    exactly.
    """
    m = round(1.0 / h)
    if abs(m * h - 1.0) > 1e-12:
        raise ValueError(f"h = {h} does not divide the unit period")
    field = hamiltonian_field(F, space)
    arc = integrate(field, x0, 1.0, h)
    return arc.final, arc


# ---------------------------------------------------------------------------
# streaming Birkhoff accumulation (batched, constant memory)
# ---------------------------------------------------------------------------

def birkhoff_stream(field, X0, horizons, h, integrands, method="midpoint"):
    """Integrate a batch, yielding trapezoid time-averages at each horizon.

    Parameters
    ----------
    X0 : (B, dim) array of initial lifts.
    horizons : increasing sequence of times, each an integer multiple of h.
    integrands : list of callables f(X, V, t) -> (B,) evaluated at nodes,
        where V is the node velocity (reused from the integrator predictor).

    Yields
    ------
    (T, averages, states) per horizon, with averages of shape
    (n_integrands, B) over [0, T] and states the (B, dim) lifts at T. The
    orbit continues across horizons, so stopping early wastes nothing.
    """
    step = _STEPPERS[method]
    X = np.array(X0, dtype=float)
    horizons = list(horizons)
    counts = [round(T / h) for T in horizons]
    for T, c in zip(horizons, counts):
        if abs(c * h - T) > 1e-9:
            raise ValueError(f"horizon {T} is not a multiple of h = {h}")
    B = X.shape[0]
    sums = np.zeros((len(integrands), B))
    v_node = field.velocity(X, 0.0)
    f_node = np.array([f(X, v_node, 0.0) for f in integrands]) if integrands else None
    t = 0.0
    k = 0
    for T, c in zip(horizons, counts):
        while k < c:
            if integrands:
                sums += 0.5 * h * f_node
            X, _ = step(field.velocity, X, t, h, v_node)
            t = (k + 1) * h
            v_node = field.velocity(X, t)
            if integrands:
                f_node = np.array([f(X, v_node, t) for f in integrands])
                sums += 0.5 * h * f_node
            k += 1
        if not np.all(np.isfinite(X)):
            raise BlowUp(f"non-finite state at t = {t}")
        yield T, sums / T, X.copy()


def birkhoff_accumulate(field, X0, horizons, h, integrands, method="midpoint"):
    """Eager form of :func:`birkhoff_stream`: returns (averages, states) arrays."""
    results = list(birkhoff_stream(field, X0, horizons, h, integrands, method))
    averages = np.stack([r[1] for r in results])
    states = np.stack([r[2] for r in results])
    return averages, states
