import json

import numpy as np
import pytest
from test_dynamics import integrate_rk4

import rotvec as rv
from rotvec import dynamics
from rotvec.errors import DimensionError, EmptyTrajectory
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
    # the integral of H against mu is the weighted sum mu.weights @ H(mu.lifts)
    mu = rv.empirical_measure(orbit())
    assert mu.weights @ np.ones(mu.n_samples) == pytest.approx(1.0)
    F = sin2()
    assert mu.weights @ F.eval(mu.lifts) == pytest.approx(F.eval([0.25, 0.0]), abs=1e-10)


def test_empty_trajectory_raises():
    sp = rv.torus(1)
    traj = rv.Trajectory(sp, np.zeros(0), np.zeros((0, 2)), 0.1,
                         rv.hamiltonian_field(sin2(), sp))
    with pytest.raises(EmptyTrajectory):
        rv.empirical_measure(traj)
    # weights over the nodes of a (n_nodes, B, dim) batch would mix its orbits:
    # these two would read (0, 4.988) together, against 1.847 and pi alone
    batch = rv.integrate(rv.hamiltonian_field(sin2(), sp), [[0.1, 0.0], [0.25, 0.0]], 1.0, 0.1)
    with pytest.raises(DimensionError):
        rv.empirical_measure(batch)


def test_flow_pairings_reject_time_dependent_F():
    # F = cos(2 pi t) sin(2 pi p1): the orbit from (0.1, 0) does not wind
    # (displacement / T ~ 1e-16), but read at t = 0 the samples give 5.0832
    sp = rv.torus(1)
    F = rv.fourier_hamiltonian(2, [(0.5, [1, 0], 1, "sin"), (0.5, [1, 0], -1, "sin")])
    traj = rv.integrate(rv.hamiltonian_field(F, sp), [0.1, 0.0], 10.0, 0.01)
    assert np.abs(traj.lifts[-1] - traj.lifts[0]).max() / traj.T < 1e-12
    mu = rv.empirical_measure(traj)
    with pytest.raises(ValueError, match="rotation_pairing_time_one"):
        rv.rotation_vector(mu, F)
    with pytest.raises(ValueError, match="rotation_pairing_time_one"):
        rv.rotation_pairing(mu, F, rv.one_form([0.0, 1.0]))


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
    assert a.coeffs @ rho.coeffs == pytest.approx(direct, abs=1e-12)


def test_rotation_vector_rk4_cross_validation():
    # the headline twisted-torus rotation vector, recomputed with the
    # cross-check integrator, lands on the same closed-form answer
    gamma = rv.DEFAULT_GAMMA
    sp4 = rv.torus(2, rv.twisted_structure(gamma))
    F4 = rv.fourier_hamiltonian(4, [(0.5, [0] * 4, 0, "cos"), (-0.5, [1, 0, 0, 0], 0, "cos")])
    field = rv.hamiltonian_field(F4, sp4)
    speed = np.pi * np.sin(0.4 * np.pi)
    expected = np.array([0.0, 0.0, speed, -gamma * speed])
    for run in (rv.integrate, integrate_rk4):
        tr = run(field, [0.2, 0.0, 0.0, 0.0], 50.0, 1e-2)
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
    # every seed of the p1 = 1/4 circle ties; the summed increments round alike
    # whatever q1 is, so the first of them wins (X_T - X_0 would pick q1 = 31/32)
    assert report.best_seed_index == 256
    assert best.tolist() == [0.25, 0.0]
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


# ---------------------------------------------------------------------------
# the displacement pairing against the trapezoid fold it replaced
# ---------------------------------------------------------------------------

def trapezoid_pairings(F, alpha, space, seeds, T, h):
    """The replaced route, kept as the oracle: the trapezoid average over [0, T]
    of alpha(sgrad F) at the nodes of every seed's orbit, folded as it ran."""
    field = rv.hamiltonian_field(F, space)
    sums, f_prev = np.zeros(len(seeds)), None
    for t, X, _ in dynamics._nodes(field, seeds, T, h):
        f = np.einsum("ij,ij->i", alpha.coefficients(X), field.velocity(X, t))
        if f_prev is not None:
            sums += 0.5 * h * f_prev
            sums += 0.5 * h * f
        f_prev = f
    return sums / T


def search_pairings(F, alpha, space, seeds, T, h):
    """Per-seed |pairing| of the search at the single horizon T."""
    _, _, report = rv.extremal_orbit_search(F, alpha, space, seeds, T0=T, T_max=T, h=h)
    return report.per_seed_values


@pytest.mark.parametrize("case", ["example1", "pinned-profile"])
def test_displacement_pairing_matches_trapezoid_fold_on_momentum_fields(case):
    # q-free fields: the velocity is constant along each orbit, so both routes
    # are exact and differ by rounding alone (2.98e-13 and 1.51e-13 measured)
    sp = rv.torus(1)
    if case == "example1":
        F, alpha, seeds, T = sin2(), rv.one_form([0.0, 0.5]), rv.full_seed_grid(sp, 32), 50.0
    else:
        F = rv.make_pinned_profile([(0.0, 0.0), (0.5, 1.0)], n_modes=32)
        alpha, seeds, T = rv.one_form([0.0, 1.0]), rv.full_seed_grid(sp, 16), 20.0
    oracle = np.abs(trapezoid_pairings(F, alpha, sp, seeds, T, 1e-2))
    assert np.abs(search_pairings(F, alpha, sp, seeds, T, 1e-2) - oracle).max() <= 1e-12


@pytest.mark.parametrize("potential", [None, [[0.1, [1, 1], 0, "sin"]]])
def test_displacement_pairing_gap_to_trapezoid_fold_is_second_order(potential):
    # q-coupled field (perfbench's generic family at eps = 0.2): the trapezoid
    # rule and the midpoint increments are different O(h^2) quadratures of the
    # same path integral. At 256 seeds, T = 10 the gap measured 7.0e-4 (1.46e-3
    # with the potential) at h = 0.01 and four times that at h = 0.02, against
    # each route's own error of up to 2.0e-3 from h = 1e-3.
    eps = 0.2
    F = rv.fourier_hamiltonian(2, SIN2 + [(eps / 2, [0, 1], 0, "cos"),
                                          (-eps / 4, [2, 1], 0, "cos"),
                                          (-eps / 4, [2, -1], 0, "cos")])
    g = None if potential is None else rv.fourier_hamiltonian(2, potential)
    alpha = rv.one_form([0.3, 1.0], g)
    sp = rv.torus(1)
    seeds = rv.full_seed_grid(sp, 16)
    gaps = [np.abs(search_pairings(F, alpha, sp, seeds, 10.0, h)
                   - np.abs(trapezoid_pairings(F, alpha, sp, seeds, 10.0, h))).max()
            for h in (0.02, 0.01)]
    assert gaps[1] <= 30.0 * 0.01 ** 2  # C h^2 with C = 30
    assert 3.0 <= gaps[0] / gaps[1] <= 5.0  # halving h quarters the gap


def test_map_orbit_search_is_the_loop_integral_over_the_orbit():
    # the search reads the displacement off the summed increments; on seeds off
    # q1 = 0 that differs from the lift difference X_T - X_0 by rounding only
    F = rv.fourier_hamiltonian(2, SIN2 + [(0.1, [1, 0], -1, "cos"), (-0.1, [1, 0], 1, "cos")])
    alpha = rv.one_form([0.0, 1.0])
    sp = rv.torus(1)
    seeds = rv.full_seed_grid(sp, 8)
    N = 50
    _, _, report = rv.map_orbit_search(F, alpha, sp, seeds, n0=N, n_max=N, h=1e-2)
    ends = rv.integrate(rv.hamiltonian_field(F, sp), seeds, float(N), 1e-2).lifts[-1]
    expected = np.abs(rv.loop_integral(alpha, seeds, ends, ends - seeds) / N)
    assert np.abs(report.per_seed_values - expected).max() <= 1e-12


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
    tr = rv.integrate(field, [0.23, 0.0], T, 1e-2)
    defect = rv.invariance_defect(rv.empirical_measure(tr), field, s, H)
    assert defect <= rv.invariance_defect_bound(s, 1.0, T) * 1.5
    assert rv.invariance_defect_bound(1.0, 1.0, 1e4) == pytest.approx(2e-4)


def test_invariance_defect_on_a_time_one_measure():
    # the samples are the unit-time iterates, not the source's nodes, so phi_1
    # flows them: the defect telescopes to |H(phi^5 x) - H(x)| / 5
    sp = rv.torus(1)
    F = rv.fourier_hamiltonian(2, SIN2 + [(0.1, [1, 0], -1, "cos"), (-0.1, [1, 0], 1, "cos"),
                                          (0.1, [1, 1], 0, "sin")])
    mu = rv.time_one_orbit(F, sp, [0.2, 0.0], 5, 1e-2)
    H = rv.fourier_hamiltonian(2, [(1.0, [0, 1], 0, "sin")])
    defect = rv.invariance_defect(mu, rv.hamiltonian_field(F, sp), 1.0, H)
    ends = mu.source.lifts[[0, -1]]
    assert defect == pytest.approx(abs(H.eval(ends[1]) - H.eval(ends[0])) / 5, abs=1e-12)
    assert defect > 0.1  # non-vacuous


def test_invariance_defect_flows_the_samples_of_another_fields_orbit():
    # mu_F's stored orbit is no orbit of G: the index shift along it would mix
    # F's orbit with a G extension (7.87e-4); flowing the samples under G gives
    # G's defect, as for the same samples without a stored orbit
    sp = rv.torus(1)
    F = sin2()
    G = F + rv.fourier_hamiltonian(2, [(0.3, [0, 1], 0, "cos")])
    field_G = rv.hamiltonian_field(G, sp)
    H = rv.fourier_hamiltonian(2, [(1.0, [0, 1], 0, "sin")])
    mu_F = rv.empirical_measure(rv.integrate(rv.hamiltonian_field(F, sp), [0.1, 0.0], 50.0, 1e-2))
    bare = rv.EmpiricalMeasure(sp, mu_F.lifts, mu_F.weights)
    defect = rv.invariance_defect(mu_F, field_G, 1.0, H)
    assert defect == rv.invariance_defect(bare, field_G, 1.0, H)
    assert defect == pytest.approx(0.219, abs=1e-3)


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
