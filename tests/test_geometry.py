import numpy as np
import pytest

import rotvec as rv
from rotvec.errors import DimensionError, InvalidPoint
from rotvec.trig import TrigPoly


def test_wrap_examples():
    sp = rv.torus(1)
    lift = np.array([1.25, -0.5])
    assert np.allclose(rv.wrap(lift, sp), [0.25, 0.5])
    assert np.array_equal(lift, [1.25, -0.5])  # lift preserved verbatim

    assert np.allclose(rv.wrap([0.0, 0.0], sp), [0.0, 0.0])
    assert np.allclose(rv.wrap([3.0, 2.0], sp), [0.0, 0.0])

    # an (n, B, dim) batch wraps row by row and leaves its input alone
    batch = np.array([[[1.25, -0.5], [0.0, 0.0]], [[3.0, 2.0], [-0.75, 7.5]]])
    before = batch.copy()
    wrapped = rv.wrap(batch, sp)
    assert np.array_equal(wrapped, [[rv.wrap(row, sp) for row in rows] for rows in batch])
    assert np.array_equal(batch, before)


def test_wrap_cotangent_leaves_momenta():
    sp = rv.cotangent_of_torus(1)
    assert np.allclose(rv.wrap([3.7, 1.25], sp), [3.7, 0.25])

    batch = np.array([[[3.7, 1.25], [-2.5, -0.25]], [[0.0, 4.0], [9.0, 0.5]]])
    before = batch.copy()
    wrapped = rv.wrap(batch, sp)
    assert np.array_equal(wrapped[..., 0], batch[..., 0])
    assert np.array_equal(wrapped, [[rv.wrap(row, sp) for row in rows] for rows in batch])
    assert np.array_equal(batch, before)


def test_wrap_rejects_bad_input():
    sp = rv.torus(1)
    with pytest.raises(InvalidPoint):
        rv.wrap([np.nan, 0.0], sp)
    with pytest.raises(DimensionError):
        rv.wrap([0.0, 0.0, 0.0], sp)
    batch = np.zeros((3, 2, 2))
    batch[2, 1, 0] = np.nan
    with pytest.raises(InvalidPoint):
        rv.wrap(batch, sp)
    with pytest.raises(DimensionError):
        rv.wrap(np.zeros((3, 2, 3)), sp)


def test_structure_validation():
    with pytest.raises(ValueError):
        rv.SymplecticStructure(np.eye(2))  # not antisymmetric
    with pytest.raises(ValueError):
        rv.SymplecticStructure(np.zeros((2, 2)))  # degenerate
    with pytest.raises(DimensionError):
        rv.SymplecticStructure(np.zeros((3, 3)))


def test_antisymmetry_random_structures():
    rng = np.random.default_rng(0)
    for omega in (rv.standard_structure(2), rv.twisted_structure()):
        for _ in range(20):
            u = rng.normal(size=4)
            w = rng.normal(size=4)
            assert abs(omega.pairing(u, w) + omega.pairing(w, u)) < 1e-12


def test_eval_form_examples():
    sp = rv.torus(1)
    x = rv.wrap([0.0, 0.0], sp)
    dq1 = rv.one_form([0.0, 1.0])
    assert rv.eval_form(dq1, [0.0, 1.0], x) == pytest.approx(1.0)
    half = rv.one_form([0.0, 0.5])
    assert rv.eval_form(half, [0.0, 1.0], x) == pytest.approx(0.5)
    # exact form dg with g = sin(2 pi q1)/(2 pi): dg(d/dq1) at q1 = 0 is g'(0) = 1
    g = TrigPoly.wave(2, 1.0 / (2 * np.pi), [0, 1], 0, "sin")
    dg = rv.ClosedOneForm(rv.CohomologyClass([0.0, 0.0]), g)
    assert rv.eval_form(dg, [0.0, 1.0], x) == pytest.approx(1.0, abs=1e-12)


def test_eval_form_dimension_error():
    sp = rv.torus(1)
    x = rv.wrap([0.0, 0.0], sp)
    with pytest.raises(DimensionError):
        rv.eval_form(rv.one_form([0.0, 1.0]), [1.0, 0.0, 0.0], x)


def test_pair_examples():
    a = rv.CohomologyClass([0.0, 1.0])
    assert rv.pair(a, rv.RotationVector([0.0, 1.0])) == pytest.approx(1.0)
    assert rv.pair(0.5 * a, rv.RotationVector([0.0, 2.0])) == pytest.approx(1.0)
    assert rv.pair(a, rv.RotationVector([1.0, 0.0])) == pytest.approx(0.0)
    with pytest.raises(DimensionError):
        rv.pair(a, rv.RotationVector([1.0, 0.0, 0.0]))


def test_pair_bilinear():
    rng = np.random.default_rng(1)
    for _ in range(50):
        a = rv.CohomologyClass(rng.normal(size=4))
        rho = rv.RotationVector(rng.normal(size=4))
        lam = rng.normal()
        assert abs(rv.pair(lam * a, rho) - lam * rv.pair(a, rho)) < 1e-14 * (1 + abs(lam))


def test_flux_of_translation_examples():
    sp = rv.torus(1)
    flux = rv.flux_of_translation([0.5, 0.0], sp)
    assert np.allclose(flux.coeffs, [0.0, 0.5], atol=1e-14)  # (1/2)[dq1]
    assert np.allclose(rv.flux_of_translation([0.0, 0.0], sp).coeffs, 0.0)
    # twisted form: contracting dp1^dq1 + gamma dp2^dq1 + dp2^dq2 with d/dp1 gives dq1
    sp4 = rv.torus(2, rv.twisted_structure())
    flux = rv.flux_of_translation([1.0, 0.0, 0.0, 0.0], sp4)
    assert np.allclose(flux.coeffs, [0.0, 0.0, 1.0, 0.0], atol=1e-14)


def test_class_independence_of_loop_integral():
    # integrating alpha over the loop q1 -> q1 + 1 sees only the class
    rng = np.random.default_rng(2)
    g = TrigPoly.zero(2)
    for _ in range(4):
        g = g + TrigPoly.wave(2, rng.normal(), rng.integers(-2, 3, 2), 0, "cos")
    alpha = rv.ClosedOneForm(rv.CohomologyClass([0.3, 0.8]), g)
    ts = np.linspace(0.0, 1.0, 4001)
    path = np.zeros((len(ts), 2))
    path[:, 0] = 0.2
    path[:, 1] = 0.4 + ts
    integrand = alpha.coefficients(path)[:, 1]  # alpha(dq1-direction velocity)
    value = np.trapezoid(integrand, ts)
    assert abs(value - 0.8) < 1e-8


def test_region_membership_and_grids():
    sp = rv.torus(2)
    X = rv.momentum_level_torus(sp, [0.0, 0.0])
    assert len(X.grid) == 32 * 32  # 32 per free (position) dimension
    assert np.all(X.contains(X.grid))
    assert not X.contains(np.array([[0.3, 0.0, 0.1, 0.2]]))[0]
    # periodic residual: p1 = 1.0 is on {p1 = 0}
    assert X.contains(np.array([[1.0, 0.0, 0.5, 0.5]]))[0]


def test_region_disjointness():
    sp = rv.torus(1)
    X = rv.momentum_level_torus(sp, [0.0])
    Xp = rv.momentum_level_torus(sp, [0.5])
    assert X.is_disjoint_from(Xp)
    assert not X.is_disjoint_from(rv.momentum_level_torus(sp, [0.0]))


def test_twisted_structure_matrix():
    gamma = 0.3
    omega = rv.twisted_structure(gamma)
    expected = np.array([
        [0.0, 0.0, 1.0, 0.0],
        [0.0, 0.0, gamma, 1.0],
        [-1.0, -gamma, 0.0, 0.0],
        [0.0, -1.0, 0.0, 0.0],
    ])
    assert np.allclose(omega.matrix, expected)
    assert np.allclose(omega.matrix @ omega.inverse, np.eye(4), atol=1e-12)


# ---------------------------------------------------------------------------
# sample grids against the meshgrid builders they replaced
# ---------------------------------------------------------------------------

def old_seed_grid(space, per_dim, momentum_only=False, positions_at=0.0):
    """The earlier full_seed_grid / momentum_seed_grid (meshgrid, ij indexing)."""
    n_axes = space.n if momentum_only else space.dim
    mesh = np.meshgrid(*[np.arange(per_dim) / per_dim for _ in range(n_axes)], indexing="ij")
    if not momentum_only:
        return np.stack([m.ravel() for m in mesh], axis=1)
    grid = np.full((mesh[0].size, space.dim), float(positions_at))
    for i in range(space.n):
        grid[:, i] = mesh[i].ravel()
    return grid


def old_free_dim_grid(space, pinned, per_dim):
    """The earlier geometry._free_dim_grid."""
    free = [i for i in range(space.dim) if i not in pinned]
    axes = [np.arange(per_dim) / per_dim if space.periodic[i]
            else np.linspace(-1.0, 1.0, per_dim) for i in free]
    base = np.zeros(space.dim)
    for idx, value in pinned.items():
        base[idx] = value
    if not free:
        return base[None, :]
    mesh = np.meshgrid(*axes, indexing="ij")
    grid = np.tile(base, (mesh[0].size, 1))
    for axis, i in enumerate(free):
        grid[:, i] = mesh[axis].ravel()
    return grid


GRID_SPACES = [rv.torus(1), rv.torus(2), rv.torus(2, rv.twisted_structure()),
               rv.cotangent_of_torus(1), rv.cotangent_of_torus(2)]


@pytest.mark.parametrize("space", GRID_SPACES, ids=lambda sp: f"{sp.kind}-{sp.n}")
@pytest.mark.parametrize("per_dim", [1, 3, 8, 32])
def test_sample_grids_match_meshgrid_builders(space, per_dim):
    # bit-identical points in the same row order: seed indices and the
    # lowest-index argmax tie rule depend on it
    full = rv.full_seed_grid(space, per_dim)
    assert np.array_equal(full, old_seed_grid(space, per_dim))
    momentum = rv.momentum_seed_grid(space, per_dim)
    assert np.array_equal(momentum, old_seed_grid(space, per_dim, True))

    levels = np.linspace(0.1, 0.7, space.n)
    region = rv.momentum_level_torus(space, levels, per_dim=per_dim)
    pinned = {i: levels[i] for i in range(space.n)}
    assert np.array_equal(region.grid, old_free_dim_grid(space, pinned, per_dim))
    for constraints in ([(0, 0.25)], [(space.dim - 1, 0.5)],
                        [(i, 0.125 * i) for i in range(space.dim)]):
        region = rv.product_of_levels(space, constraints, per_dim=per_dim)
        assert np.array_equal(region.grid, old_free_dim_grid(space, dict(constraints), per_dim))


@pytest.mark.parametrize("grid_res", [1, 4, 17])
def test_grid_values_on_the_indices_lattice(grid_res):
    poly = (TrigPoly.wave(3, 0.7, [1, 0, 2], 1, "sin") + TrigPoly.wave(3, -0.2, [0, 0, 1], 0)
            + TrigPoly.constant(3, 0.5))
    n = 3  # active x-axes 0 and 2, plus time
    grid = np.indices((grid_res,) * n).reshape(n, grid_res ** n).T / grid_res
    X = np.zeros((len(grid), 3))
    X[:, [0, 2]] = grid[:, :2]
    assert np.array_equal(poly.grid_values(grid_res), poly.eval(X, grid[:, -1]))
    assert np.array_equal(TrigPoly.constant(2, 1.5).grid_values(grid_res), [1.5])
