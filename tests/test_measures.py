import json

import numpy as np
import pytest

import rotvec as rv
from rotvec.errors import EmptyTrajectory
from rotvec.trig import TrigPoly

SIN2 = [(0.5, [0, 0], 0, "cos"), (-0.5, [1, 0], 0, "cos")]


def sin2():
    return rv.fourier_hamiltonian(2, SIN2)


def orbit(p1=0.25, T=100.0, h=1e-2, F=None, space=None):
    F = F or sin2()
    space = space or rv.torus(1)
    return rv.integrate(rv.hamiltonian_field(F, space), [p1, 0.0], T, h)


def test_trapezoid_weights():
    sp = rv.torus(1)
    field = rv.locally_hamiltonian_field(rv.one_form([0.0, 1.0]), sp)
    traj = rv.integrate(field, [0.0, 0.0], 1.0, 0.5)
    mu = rv.empirical_measure(traj)
    assert np.allclose(mu.weights, [0.25, 0.5, 0.25])
    assert mu.weights.sum() == pytest.approx(1.0, abs=1e-15)


@pytest.mark.parametrize("T", [10.0, 10.005])
def test_trapezoid_weights_exact_on_uniform_grids(T):
    # h/2, h, ..., h, h/2 over T from the step count: no full step carries the rounding
    # of a difference of node times; a last short step weighs its own length
    h = 0.01
    H = rv.SuspendedHamiltonian(sin2(), rv.torus(1))
    traj = rv.suspension_flow(H, rv.extended_point([0.2, 0.0], 0.0, 0.0, H.nspace), T, h)
    last = T - 1000 * h if len(traj) == 1002 else h
    expected = np.full(len(traj), h)
    expected[0] = 0.5 * h
    expected[-2:] = 0.5 * h + 0.5 * last, 0.5 * last
    assert len(traj) == (1001 if T == 10.0 else 1002)
    assert np.array_equal(rv.empirical_measure(traj).weights, expected / T)
    assert np.array_equal(rv.cylinder_measure_from_suspension(traj, 1).weights, expected / T)


def test_point_mass_from_constant_trajectory():
    sp = rv.torus(1)
    zero = rv.fourier_hamiltonian(2, [(0.0, [0, 0], 0, "cos")])
    traj = rv.integrate(rv.hamiltonian_field(zero, sp), [0.3, 0.4], 1.0, 0.25)
    mu = rv.empirical_measure(traj)
    assert np.allclose(mu.lifts, [0.3, 0.4])


def test_average_examples():
    mu = rv.empirical_measure(orbit())
    assert rv.average(mu, lambda X: np.ones(len(X))) == pytest.approx(1.0)
    F = sin2()
    assert rv.average(mu, F) == pytest.approx(F.eval([0.25, 0.0]), abs=1e-10)


def test_empty_trajectory_raises():
    sp = rv.torus(1)
    traj = rv.Trajectory(sp, np.zeros(0), np.zeros((0, 2)), 0.1, "hamiltonian")
    with pytest.raises(EmptyTrajectory):
        rv.empirical_measure(traj)


def test_rotation_pairing_examples():
    mu = rv.empirical_measure(orbit(T=100.0))
    val = rv.rotation_pairing(mu, sin2(), rv.one_form([0.0, 1.0]))
    assert abs(val - np.pi) < 1e-6  # qdot = pi on the p1 = 1/4 orbit

    # constant F: zero field, zero pairing
    const = rv.fourier_hamiltonian(2, [(5.0, [0, 0], 0, "cos")])
    tr = rv.integrate(rv.hamiltonian_field(const, rv.torus(1)), [0.2, 0.1], 10.0, 1e-2)
    assert rv.rotation_pairing(rv.empirical_measure(tr), const,
                               rv.one_form([0.0, 1.0])) == pytest.approx(0.0, abs=1e-14)


def test_exact_form_telescoping_bound():
    # alpha = dg: |pairing| <= 2 max|g| / T (factor-3 slack for quadrature)
    g = TrigPoly.wave(2, 0.4, [0, 1], 0, "sin") + TrigPoly.wave(2, 0.2, [1, 1], 0, "cos")
    alpha = rv.ClosedOneForm(rv.CohomologyClass([0.0, 0.0]), g)
    max_g = g.abs_coeff_sum()
    F = sin2()
    for T in (50.0, 100.0):
        mu = rv.empirical_measure(orbit(p1=0.2, T=T))
        val = rv.rotation_pairing(mu, F, alpha)
        assert abs(val) <= 3 * (2 * max_g / T)
        # boundary term accounts for the finite-T residue up to quadrature error
        bt = rv.exact_boundary_term(mu, alpha)
        assert abs(val - bt) <= 1e-4


def test_rotation_pairing_linear_in_class():
    rng = np.random.default_rng(0)
    mu = rv.empirical_measure(orbit(p1=0.17, T=20.0))
    F = sin2()
    for _ in range(10):
        c1, c2 = rng.normal(size=(2, 2))
        lam = rng.normal()
        v1 = rv.rotation_pairing(mu, F, rv.one_form(c1))
        v2 = rv.rotation_pairing(mu, F, rv.one_form(c2))
        v12 = rv.rotation_pairing(mu, F, rv.one_form(c1 + lam * c2))
        assert abs(v12 - (v1 + lam * v2)) < 1e-10


def test_rotation_vector_integrable_families():
    # p-only Fourier on the standard torus: rho = (0, u'(p1)) exactly
    u_slope = np.pi * np.sin(2 * np.pi * 0.3)
    mu = rv.empirical_measure(orbit(p1=0.3, T=50.0))
    rho = rv.rotation_vector(mu, sin2())
    assert abs(rho.coeffs[0]) < 1e-8           # momentum component vanishes
    assert abs(rho.coeffs[1] - u_slope) < 1e-6

    # twisted 4-torus: rho = pi sin(2 pi c) (0, 0, 1, -gamma)
    gamma = rv.DEFAULT_GAMMA
    sp4 = rv.torus(2, rv.twisted_structure(gamma))
    F4 = rv.fourier_hamiltonian(4, [(0.5, [0] * 4, 0, "cos"), (-0.5, [1, 0, 0, 0], 0, "cos")])
    tr = rv.integrate(rv.hamiltonian_field(F4, sp4), [0.2, 0.0, 0.0, 0.0], 200.0, 1e-2)
    rho4 = rv.rotation_vector(rv.empirical_measure(tr), F4)
    speed = np.pi * np.sin(0.4 * np.pi)
    assert np.abs(rho4.coeffs[:2]).max() < 1e-8
    assert np.allclose(rho4.coeffs[2:], [speed, -gamma * speed], atol=1e-3)

    # zero field
    zero = rv.fourier_hamiltonian(2, [(0.0, [0, 0], 0, "cos")])
    tr0 = rv.integrate(rv.hamiltonian_field(zero, rv.torus(1)), [0.1, 0.2], 5.0, 1e-2)
    assert np.allclose(rv.rotation_vector(rv.empirical_measure(tr0), zero).coeffs, 0.0)


def test_rotation_vector_pairs_with_classes():
    mu = rv.empirical_measure(orbit(p1=0.3, T=50.0))
    F = sin2()
    rho = rv.rotation_vector(mu, F)
    a = rv.CohomologyClass([0.4, 1.7])
    direct = rv.rotation_pairing(mu, F, rv.ClosedOneForm(a))
    assert rv.pair(a, rho) == pytest.approx(direct, abs=1e-12)


def test_rotation_vector_rk4_cross_validation():
    # the headline twisted-torus rotation vector, recomputed with the
    # cross-check integrator, lands on the same closed-form answer
    gamma = rv.DEFAULT_GAMMA
    sp4 = rv.torus(2, rv.twisted_structure(gamma))
    F4 = rv.fourier_hamiltonian(4, [(0.5, [0] * 4, 0, "cos"), (-0.5, [1, 0, 0, 0], 0, "cos")])
    field = rv.hamiltonian_field(F4, sp4)
    speed = np.pi * np.sin(0.4 * np.pi)
    expected = np.array([0.0, 0.0, speed, -gamma * speed])
    for method in ("midpoint", "rk4"):
        tr = rv.integrate(field, [0.2, 0.0, 0.0, 0.0], 50.0, 1e-2, method=method)
        rho = rv.rotation_vector(rv.empirical_measure(tr), F4)
        assert np.allclose(rho.coeffs, expected, atol=1e-6)


def test_extremal_orbit_search_example1():
    sp = rv.torus(1)
    seeds = rv.full_seed_grid(sp, 32)
    best, val, report = rv.extremal_orbit_search(
        sin2(), rv.one_form([0.0, 0.5]), sp, seeds, T0=100.0, T_max=1e4, h=1e-2)
    assert val >= 1.0                   # the guaranteed level for this pair
    assert abs(val - np.pi / 2) < 1e-6  # attained on the p1 = 1/4 circle
    assert best[0] == pytest.approx(0.25)
    assert report.converged
    assert report.horizons[0] == 100.0
    before = seeds.copy()
    best[:] = 7.0  # the best seed is a copy of its grid row
    assert np.array_equal(seeds, before)


def test_extremal_orbit_search_constant_F():
    sp = rv.torus(1)
    const = rv.fourier_hamiltonian(2, [(2.0, [0, 0], 0, "cos")])
    seeds = rv.full_seed_grid(sp, 8)
    _, val, report = rv.extremal_orbit_search(const, rv.one_form([0.0, 1.0]), sp, seeds,
                                              T0=10.0, T_max=40.0, h=1e-2)
    assert val == pytest.approx(0.0, abs=1e-14)
    assert report.converged


def test_extremal_search_unconverged_at_t_max():
    # q-coupled field: averages drift slowly; a tiny budget cannot converge at
    # an extreme tolerance, and the report must say so
    sp = rv.torus(1)
    F = rv.fourier_hamiltonian(2, SIN2 + [(0.3, [1, 1], 0, "sin")])
    seeds = rv.momentum_seed_grid(sp, 4)
    _, _, report = rv.extremal_orbit_search(F, rv.one_form([0.0, 1.0]), sp, seeds,
                                            T0=5.0, T_max=20.0, h=1e-2, tol=1e-14)
    assert not report.converged
    assert report.horizons[-1] == pytest.approx(20.0)


def test_report_json_schema():
    sp = rv.torus(1)
    seeds = rv.momentum_seed_grid(sp, 4)
    _, _, report = rv.extremal_orbit_search(sin2(), rv.one_form([0.0, 1.0]), sp, seeds,
                                            T0=10.0, T_max=40.0, h=1e-2)
    doc = json.loads(report.dumps())
    for key in ("best_seed", "best_value", "horizons", "diffs", "converged"):
        assert key in doc


def test_invariance_defect_trivial_cases():
    sp = rv.torus(1)
    F = sin2()
    field = rv.hamiltonian_field(F, sp)
    # point mass at a fixed point (p1 = 0: the field vanishes)
    tr = rv.integrate(field, [0.0, 0.2], 5.0, 1e-2)
    mu = rv.empirical_measure(tr)
    H = rv.fourier_hamiltonian(2, [(1.0, [0, 1], 0, "sin")])
    assert rv.invariance_defect(mu, field, 1.0, H) < 1e-14
    # constant observable
    mu2 = rv.empirical_measure(orbit(T=20.0))
    const = rv.fourier_hamiltonian(2, [(3.0, [0, 0], 0, "cos")])
    assert rv.invariance_defect(mu2, field, 1.0, const) < 1e-14


def test_invariance_defect_telescoping_bound():
    sp = rv.torus(1)
    F = sin2()
    field = rv.hamiltonian_field(F, sp)
    H = rv.fourier_hamiltonian(2, [(1.0, [0, 1], 0, "sin")])  # max|H| = 1
    T, s = 500.0, 1.0
    mu = rv.empirical_measure(orbit(p1=0.23, T=T))
    defect = rv.invariance_defect(mu, field, s, H)
    assert defect <= rv.invariance_defect_bound(s, 1.0, T) * 1.5
    assert rv.invariance_defect_bound(1.0, 1.0, 1e4) == pytest.approx(2e-4)


def test_invariance_defect_halves_when_T_doubles():
    # quasi-periodic orbit on the twisted 4-torus; the telescoped defect is a
    # boundary effect of size O(1/T), so doubling the horizon shrinks it
    # (frozen initial momentum picked where the oscillatory prefactor does not
    # conspire against the 1/T decay at these horizons)
    gamma = rv.DEFAULT_GAMMA
    sp4 = rv.torus(2, rv.twisted_structure(gamma))
    F4 = rv.fourier_hamiltonian(4, [(0.5, [0] * 4, 0, "cos"), (-0.5, [1, 0, 0, 0], 0, "cos")])
    field = rv.hamiltonian_field(F4, sp4)
    H = rv.fourier_hamiltonian(4, [(1.0, [0, 0, 1, 0], 0, "sin")])
    defects = []
    for T in (50.0, 100.0, 200.0):
        tr = rv.integrate(field, [0.08, 0.0, 0.0, 0.0], T, 1e-2)
        mu = rv.empirical_measure(tr)
        defects.append(rv.invariance_defect(mu, field, 1.0, H))
    assert defects[0] > 1e-5  # non-vacuous
    assert defects[1] <= 0.75 * defects[0] + 1e-9
    assert defects[2] <= 0.75 * defects[1] + 1e-9
