"""Phase spaces, symplectic structures, closed 1-forms and regions.

Coordinates are always ordered (p_1..p_n, q_1..q_n): momenta first, then
positions. On the torus every coordinate is periodic mod 1; on the cotangent
bundle of the torus the momenta are unbounded reals. Cohomology classes and
rotation vectors are represented by their coefficient vectors in the basis
([dp_1]..[dp_n], [dq_1]..[dq_n]) and its dual; this is all of H^1 / H_1 for
the spaces supported here.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionError, InvalidPoint
from .trig import TrigPoly, lattice_indices

#: Default irrational shear for the twisted 4-torus form: a quadratic
#: irrational, so orbit averages converge at the O(1/T) Diophantine rate.
DEFAULT_GAMMA = np.sqrt(2.0) - 1.0

_MATRIX_TOL = 1e-12
MEMBERSHIP_TOL = 1e-9  # largest coordinate defect of a point counted on a region


class SymplecticStructure:
    """Constant-coefficient symplectic form omega(u, w) = u^T Omega w.

    The matrix must be antisymmetric and invertible; the inverse is cached
    (constant forms make every contraction a single matrix product).
    """

    def __init__(self, matrix):
        m = np.array(matrix, dtype=float)
        if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] % 2:
            raise DimensionError(f"symplectic matrix must be square of even size, got {m.shape}")
        if not np.allclose(m, -m.T, atol=_MATRIX_TOL):
            raise ValueError("symplectic matrix must be antisymmetric")
        det = np.linalg.det(m)
        if abs(det) <= _MATRIX_TOL:
            raise ValueError(f"symplectic matrix is degenerate (|det| = {abs(det):.3e})")
        inv = np.linalg.inv(m)
        if not np.allclose(m @ inv, np.eye(len(m)), atol=_MATRIX_TOL):
            raise ValueError("cached inverse fails Omega @ Omega^-1 = I within 1e-12")
        self.matrix = m
        self.inverse = inv
        self.matrix.flags.writeable = False
        self.inverse.flags.writeable = False

    @property
    def dim(self):
        return self.matrix.shape[0]


def standard_structure(n):
    """omega = sum_i dp_i ^ dq_i in (p, q) order: Omega = [[0, I], [-I, 0]]."""
    eye = np.eye(n)
    z = np.zeros((n, n))
    return SymplecticStructure(np.block([[z, eye], [-eye, z]]))


def twisted_structure(gamma=DEFAULT_GAMMA):
    """The sheared form dp1^dq1 + gamma dp2^dq1 + dp2^dq2 on the 4-torus."""
    a = np.array([[1.0, 0.0], [gamma, 1.0]])
    z = np.zeros((2, 2))
    return SymplecticStructure(np.block([[z, a], [-a.T, z]]))


@dataclass(frozen=True)
class PhaseSpace:
    """A phase space: the 2n-torus or T*T^n, with its symplectic structure.

    ``periodic`` marks which coordinates live on circles (mod 1); the
    suspension machinery builds extended spaces with a custom mask.
    """

    kind: str
    n: int
    omega: SymplecticStructure
    periodic: np.ndarray = field(repr=False)

    def __post_init__(self):
        if self.omega.dim != len(self.periodic):
            raise DimensionError("omega size does not match coordinate count")
        self.periodic.flags.writeable = False

    @property
    def dim(self):
        return len(self.periodic)


def torus(n, omega=None):
    """T^{2n} = R^{2n}/Z^{2n}; omega defaults to the standard structure."""
    omega = omega if omega is not None else standard_structure(n)
    if omega.dim != 2 * n:
        raise DimensionError(f"omega is {omega.dim}x{omega.dim}, expected {2 * n}x{2 * n}")
    return PhaseSpace("torus", n, omega, np.ones(2 * n, dtype=bool))

def cotangent_of_torus(n, omega=None):
    """T*T^n with momenta unbounded and positions periodic mod 1."""
    omega = omega if omega is not None else standard_structure(n)
    if omega.dim != 2 * n:
        raise DimensionError(f"omega is {omega.dim}x{omega.dim}, expected {2 * n}x{2 * n}")
    mask = np.concatenate([np.zeros(n, dtype=bool), np.ones(n, dtype=bool)])
    return PhaseSpace("cotangent-of-torus", n, omega, mask)


def wrap(lifts, space):
    """Reduce the periodic coordinates of one lift (dim,) or a batch (..., dim) mod 1.

    Returns a new array and leaves the lift as it is: winding counts of long
    orbits are read off lift displacements. Raises InvalidPoint on non-finite
    input, DimensionError when the last axis is not space.dim.
    """
    wrapped = np.array(lifts, dtype=float)
    if wrapped.ndim == 0 or wrapped.shape[-1] != space.dim:
        raise DimensionError(f"point has {wrapped.shape} coordinates, space has {space.dim}")
    if not np.all(np.isfinite(wrapped)):
        raise InvalidPoint(f"non-finite coordinates: {wrapped}")
    wrapped[..., space.periodic] = np.mod(wrapped[..., space.periodic], 1.0)
    return wrapped


@dataclass(frozen=True)
class CohomologyClass:
    """Coefficients of a class in H^1 in the basis ([dp_i], [dq_i])."""

    coeffs: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "coeffs", np.atleast_1d(np.asarray(self.coeffs, dtype=float)))
        self.coeffs.flags.writeable = False

    def __mul__(self, scalar):
        return CohomologyClass(self.coeffs * float(scalar))

    __rmul__ = __mul__


@dataclass(frozen=True)
class RotationVector:
    """H_1 coefficients in the basis dual to ([dp_i], [dq_i]): <a, rho> = a.coeffs @ rho.coeffs."""

    coeffs: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "coeffs", np.atleast_1d(np.asarray(self.coeffs, dtype=float)))
        self.coeffs.flags.writeable = False


class ClosedOneForm:
    """A closed 1-form: constant class coefficients plus an optional exact part dg.

    The de Rham class is the constant part alone; g only reshuffles the form
    within its class. Evaluation on a tangent vector v at x is
    ``coefficients(x) @ v`` = (class + grad g(x)) . v.
    """

    def __init__(self, cclass: CohomologyClass, potential: TrigPoly | None = None):
        if potential is not None and potential.dim != len(cclass.coeffs):
            raise DimensionError("potential dimension does not match class coefficients")
        if potential is not None and potential.is_time_dependent:
            raise ValueError("a closed 1-form potential cannot depend on time")
        self.cclass = cclass
        self.potential = potential

    @property
    def dim(self):
        return len(self.cclass.coeffs)

    def coefficients(self, X):
        """Pointwise coefficient covectors at X of shape (..., dim)."""
        X = np.asarray(X, dtype=float)
        if self.potential is None:
            return np.broadcast_to(self.cclass.coeffs, X.shape).copy()
        return self.cclass.coeffs + self.potential.grad(X)

    def __mul__(self, scalar):
        pot = None if self.potential is None else self.potential * float(scalar)
        return ClosedOneForm(self.cclass * float(scalar), pot)

    __rmul__ = __mul__


def one_form(coeffs, potential=None):
    """Shorthand: ClosedOneForm from raw class coefficients."""
    return ClosedOneForm(CohomologyClass(coeffs), potential)


def flux_of_translation(w, space: PhaseSpace) -> CohomologyClass:
    """Cohomology class of the unit-time translation flow along a constant field w.

    The path t -> x + t*w has constant generating form i_w omega, so its net
    translation class is [i_w omega], with coefficients Omega^T w. For the
    standard form and w = (1/2) d/dp_1 this is (1/2)[dq_1].
    """
    w = np.asarray(w, dtype=float)
    if w.shape != (space.dim,):
        raise DimensionError(f"field has {w.shape} components, space has {space.dim}")
    return CohomologyClass(space.omega.matrix.T @ w)


def circular_residual(values, target):
    """Signed distance of values to target mod 1, in [-1/2, 1/2)."""
    return np.mod(np.asarray(values) - target + 0.5, 1.0) - 0.5


class RegionSpec:
    """A subset of phase space given by coordinate constraints.

    Supported kinds:

    - ``momentum-level-torus``: {p = c}, all momenta pinned, positions free;
    - ``product-of-levels``: an arbitrary list of pinned coordinates.

    Every region carries a finite sample grid (default 32 points per free
    dimension) used for seeding searches and for hard constraint validation.
    """

    def __init__(self, space, kind, constraints, grid):
        self.space = space
        self.kind = kind
        self.constraints = tuple(constraints)  # (coord index, value) pairs
        self.grid = np.asarray(grid, dtype=float).reshape(-1, space.dim)
        if len(self.grid) == 0:
            raise ValueError("region sample grid is empty")
        defects = self.defect(self.grid)
        if np.any(defects > MEMBERSHIP_TOL):
            raise ValueError(
                f"region grid contains points off the region (max defect {defects.max():.3e})"
            )
        self.grid.flags.writeable = False

    def defect(self, X):
        """Distance of each row of X from the region (0 on the region)."""
        X = np.asarray(X, dtype=float).reshape(-1, self.space.dim)
        out = np.zeros(len(X))
        for idx, value in self.constraints:
            if self.space.periodic[idx]:
                res = np.abs(circular_residual(X[:, idx], value))
            else:
                res = np.abs(X[:, idx] - value)
            out = np.maximum(out, res)
        return out

    def contains(self, X):
        return self.defect(X) <= MEMBERSHIP_TOL

    def is_disjoint_from(self, other):
        """Grid-based disjointness test: no sample of one lies on the other."""
        return not (np.any(other.contains(self.grid)) or np.any(self.contains(other.grid)))


def _free_dim_grid(space, pinned, per_dim):
    """Cartesian sample grid over the free coordinates, pinned ones fixed.

    Periodic free axes take k/per_dim, the others linspace(-1, 1, per_dim).
    """
    free = [i for i in range(space.dim) if i not in pinned]
    grid = np.zeros((per_dim ** len(free), space.dim))
    for idx, value in pinned.items():
        grid[:, idx] = value
    line = np.linspace(-1.0, 1.0, per_dim)
    for i, k in zip(free, lattice_indices(len(free), per_dim).T):
        grid[:, i] = k / per_dim if space.periodic[i] else line[k]
    return grid


def momentum_level_torus(space, levels, per_dim=32):
    """The region {p = c}: all momenta pinned at ``levels``, positions free."""
    levels = np.atleast_1d(np.asarray(levels, dtype=float))
    if len(levels) != space.n:
        raise DimensionError(f"need {space.n} momentum levels, got {len(levels)}")
    pinned = {i: levels[i] for i in range(space.n)}
    grid = _free_dim_grid(space, pinned, per_dim)
    return RegionSpec(space, "momentum-level-torus", pinned.items(), grid)


def product_of_levels(space, constraints, per_dim=32):
    """A region pinning an arbitrary subset of coordinates."""
    pinned = dict(constraints)
    grid = _free_dim_grid(space, pinned, per_dim)
    return RegionSpec(space, "product-of-levels", pinned.items(), grid)
