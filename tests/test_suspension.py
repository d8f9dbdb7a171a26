import warnings

import numpy as np
import pytest

import rotvec as rv

SIN2 = [(0.5, [0, 0], 0, "cos"), (-0.5, [1, 0], 0, "cos")]
EPS = 0.2
# sin^2(pi p1) + 0.2 sin(2 pi s) sin(2 pi p1), as waves
NONAUTO = SIN2 + [(EPS / 2, [1, 0], -1, "cos"), (-EPS / 2, [1, 0], 1, "cos")]


def nonauto():
    return rv.fourier_hamiltonian(2, NONAUTO)


def suspended():
    return rv.SuspendedHamiltonian(nonauto(), rv.torus(1))


def test_extended_space_structure():
    sp = rv.torus(1)
    H = rv.SuspendedHamiltonian(nonauto(), sp)
    N = H.nspace
    assert N.dim == 4
    # coordinates (p1, r, q1, s): r aperiodic, everything else mod 1
    assert list(N.periodic) == [True, False, True, True]
    # dr ^ ds block pairs like dp ^ dq
    assert N.omega.matrix[1, 3] == 1.0 and N.omega.matrix[3, 1] == -1.0
    # a twisted base form lands entry by entry on (p1, p2, q1, q2) in (p1, p2, r, q1, q2, s)
    base = rv.torus(2, rv.twisted_structure(0.3))
    idx = [0, 1, 3, 4]
    expected = np.zeros((6, 6))
    for i in range(4):
        for j in range(4):
            expected[idx[i], idx[j]] = base.omega.matrix[i, j]
    expected[2, 5], expected[5, 2] = 1.0, -1.0
    assert np.array_equal(rv.extend_space(base).omega.matrix, expected)


def test_suspended_hamiltonian_value():
    H = suspended()
    z = rv.extended_point([0.25, 0.7], 0.3, 0.125, H.nspace)
    F = nonauto()
    assert H.eval(z) == pytest.approx(F.eval([0.25, 0.7], 0.125) + 0.3, abs=1e-14)
    # the lift is ordered (p1, r, q1, s)
    assert z[1] == pytest.approx(0.3)
    assert z[3] == pytest.approx(0.125)
    assert np.allclose(z[[0, 2]], [0.25, 0.7])


def test_stab_examples():
    sp = rv.torus(1)
    H = suspended()
    X = rv.momentum_level_torus(sp, [0.0])
    S = rv.stab(X, H.nspace)
    inside = rv.extended_point([0.0, 0.4], 0.0, 0.62, H.nspace)
    off_r = rv.extended_point([0.0, 0.4], 0.1, 0.62, H.nspace)
    assert S.contains(inside[None, :])[0]
    assert not S.contains(off_r[None, :])[0]
    assert np.all(S.contains(S.grid))


def test_suspension_flow_kinematics():
    H = suspended()
    z0 = rv.extended_point([0.25, 0.0], 0.0, 0.0, H.nspace)
    traj = rv.suspension_flow(H, z0, 10.0, 1e-2)
    # s moves at exactly unit speed
    assert np.allclose(traj.lifts[:, 3], traj.times, atol=1e-12)
    # autonomous base Hamiltonian: r frozen
    H_auto = rv.SuspendedHamiltonian(rv.fourier_hamiltonian(2, SIN2), rv.torus(1))
    traj2 = rv.suspension_flow(H_auto, z0, 5.0, 1e-2)
    assert np.abs(traj2.lifts[:, 1]).max() < 1e-14


def test_suspension_flow_r_quadrature():
    # rdot = -dF/ds integrates to r(t) = -0.2 sin(2 pi p1) sin(2 pi t) / ... in
    # closed form: r(t) = 0.2 sin(2 pi p1) (cos-matched antiderivative)
    H = suspended()
    p1 = 0.25
    z0 = rv.extended_point([p1, 0.0], 0.0, 0.0, H.nspace)
    traj = rv.suspension_flow(H, z0, 2.0, 1e-3)
    t = traj.times
    expected_r = -EPS * np.sin(2 * np.pi * p1) * np.sin(2 * np.pi * t)
    assert np.abs(traj.lifts[:, 1] - expected_r).max() < 1e-6


def test_h_conservation_at_period_boundaries():
    H = suspended()
    z0 = rv.extended_point([0.25, 0.1], 0.0, 0.0, H.nspace)
    traj = rv.suspension_flow(H, z0, 200.0, 1e-2)
    unit = traj.energies[::100]  # integer times
    assert np.abs(unit - unit[0]).max() < 1e-10


def test_r_bound_along_orbit():
    # |r(t)| <= max F - min F + 1e-6 on orbits seeded at r = 0
    H = suspended()
    f_range = 1.0 + 2 * EPS  # range of sin^2 + eps-wiggle bounded by 1 + 2 eps
    for p1 in (0.1, 0.25, 0.4):
        z0 = rv.extended_point([p1, 0.0], 0.0, 0.0, H.nspace)
        traj = rv.suspension_flow(H, z0, 100.0, 1e-2)
        assert np.abs(traj.lifts[:, 1]).max() <= f_range + 1e-6


def test_shift_equivariance():
    H = suspended()
    z0 = rv.extended_point([0.2, 0.3], 0.0, 0.0, H.nspace)
    assert rv.shift_equivariance_check(H, z0, 0.0, 5.0, 1e-2) == 0.0
    assert rv.shift_equivariance_check(H, z0, 1.0, 10.0, 1e-2) <= 1e-8
    assert rv.shift_equivariance_check(H, z0, -3.7, 100.0, 1e-2) <= 1e-7


def test_suspension_matches_nonautonomous_flow():
    # the x-part of the suspension flow from phase s(0) = 0 is the
    # non-autonomous flow of F itself
    F = nonauto()
    sp = rv.torus(1)
    H = rv.SuspendedHamiltonian(F, sp)
    x0 = [0.3, 0.45]
    base = rv.integrate(rv.hamiltonian_field(F, sp), x0, 5.0, 1e-2)
    z0 = rv.extended_point(x0, 0.0, 0.0, H.nspace)
    lifted = rv.suspension_flow(H, z0, 5.0, 1e-2)
    assert np.abs(lifted.lifts[:, [0, 2]] - base.lifts).max() < 1e-10


def test_loop_integral_windings():
    alpha = rv.one_form([0.0, 1.0])
    start = np.array([[0.2, 0.3]])
    end = np.array([[0.2, 2.8]])  # 2.5 net windings in q1
    assert rv.loop_integral(alpha, start, end, end - start)[0] == pytest.approx(2.5)


def test_time_one_orbit_is_the_uniform_iterate_measure():
    F = nonauto()
    sp = rv.torus(1)
    n_units, h = 7, 1e-2
    mu = rv.time_one_orbit(F, sp, [0.25, 0.1], n_units, h)
    traj = mu.source
    assert traj.h == h
    assert traj.T == pytest.approx(n_units)
    assert np.array_equal(mu.lifts, traj.lifts[::round(1 / h)][:-1])
    assert np.array_equal(mu.weights, np.full(n_units, 1.0 / n_units))
    assert mu.provenance == {"x0": [0.25, 0.1], "n_units": n_units, "h": h,
                             "kind": "time-one-orbit"}


def test_rotation_pairing_time_one_autonomous_consistency():
    # for autonomous F the map pairing equals the flow pairing
    F = rv.fourier_hamiltonian(2, SIN2)
    sp = rv.torus(1)
    alpha = rv.one_form([0.0, 1.0])
    mu = rv.time_one_orbit(F, sp, [0.2, 0.0], 50, 1e-2)
    v_map, _ = rv.rotation_pairing_time_one(mu, F, alpha)
    traj = rv.integrate(rv.hamiltonian_field(F, sp), [0.2, 0.0], 50.0, 1e-2)
    v_flow = rv.rotation_pairing(rv.empirical_measure(traj), F, alpha)
    assert abs(v_map - v_flow) < 1e-6


def test_rotation_pairing_time_one_zero_map():
    zero = rv.fourier_hamiltonian(2, [(0.0, [0, 0], 0, "cos")])
    sp = rv.torus(1)
    mu = rv.time_one_orbit(zero, sp, [0.3, 0.6], 10, 1e-2)
    val, _ = rv.rotation_pairing_time_one(mu, zero, rv.one_form([0.0, 1.0]))
    assert val == pytest.approx(0.0, abs=1e-14)


def test_rotation_pairing_time_one_without_source_orbit():
    # measures without a stored fine trajectory fall back to arc integration
    F = nonauto()
    sp = rv.torus(1)
    alpha = rv.one_form([0.0, 1.0])
    mu_with = rv.time_one_orbit(F, sp, [0.25, 0.0], 20, 1e-2)
    from rotvec.measures import measure_from_iterates
    mu_bare = measure_from_iterates(sp, mu_with.lifts)
    v1, _ = rv.rotation_pairing_time_one(mu_with, F, alpha)
    v2, _ = rv.rotation_pairing_time_one(mu_bare, F, alpha)
    assert abs(v1 - v2) < 1e-10


def test_rotation_pairing_time_one_on_another_fields_orbit():
    # mu_F's stored unit arcs are arcs of F's map, not G's: read with G they
    # mixed the two maps (loop 2.98783 against double 2.98889) and the gap was
    # blamed on quadrature; now G's arcs are integrated from mu_F's samples,
    # exactly as for a measure that stores no orbit. At h = 1/400 the two
    # routes on G's arcs agree to 7.3e-5 (1.2e-3 at h = 1/100: G's own O(h^2)
    # quadrature gap), and the loop route is within 4e-5 of its h = 1e-3 value
    from rotvec.measures import measure_from_iterates
    F = nonauto()
    G = F + rv.fourier_hamiltonian(2, [(0.2, [1, 1], 0, "cos")])
    sp = rv.torus(1)
    alpha = rv.one_form([0.0, 1.0])
    h = 1 / 400
    mu_F = rv.time_one_orbit(F, sp, [0.2, 0.0], 20, h)
    mu_bare = measure_from_iterates(sp, mu_F.lifts)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        loop, double = rv.rotation_pairing_time_one(mu_F, G, alpha, h)
    assert (loop, double) == rv.rotation_pairing_time_one(mu_bare, G, alpha, h)
    assert abs(loop - 2.9712766) < 1e-4
    sigma = rv.CylinderMeasure(mu_F.lifts, np.zeros(20), mu_F.weights)
    observables = [lambda X, s: np.cos(2 * np.pi * s) * np.sin(2 * np.pi * X[:, 1])]
    assert (rv.step7_correspondence_check(sigma, mu_F, G, observables, h)
            == rv.step7_correspondence_check(sigma, mu_bare, G, observables, h))
    # F itself is recoverable from the measure, and an equal F built anew
    # pairs like F: the shortcut and the general route agree
    assert mu_F.source.field.generator is F
    loop_F, double_F = rv.rotation_pairing_time_one(mu_F, F, alpha, h)
    assert abs(loop_F - double_F) < 1e-6
    loop_eq, _ = rv.rotation_pairing_time_one(mu_F, nonauto(), alpha, h)
    assert abs(loop_eq - loop_F) < 1e-10


def test_map_orbit_search_nonautonomous():
    F = nonauto()
    sp = rv.torus(1)
    seeds = rv.momentum_seed_grid(sp, 32)
    best, val, report = rv.map_orbit_search(F, rv.one_form([0.0, 1.0]), sp, seeds,
                                            n0=50, n_max=800, h=1e-2)
    # the s-average of the time-dependent term vanishes: the map rotates each
    # circle by u'(p1), maximized at p1 = 1/4
    assert val == pytest.approx(np.pi, abs=1e-9)
    assert best[0] == pytest.approx(0.25)
    assert report.converged
    before = seeds.copy()
    best[:] = 7.0  # the best seed is a copy of its grid row
    assert np.array_equal(seeds, before)


def test_formulas_agree_on_nonautonomous_orbit():
    F = nonauto()
    sp = rv.torus(1)
    alpha = rv.one_form([0.0, 1.0])
    mu = rv.time_one_orbit(F, sp, [0.25, 0.0], 100, 1e-2)
    loop, double = rv.rotation_pairing_time_one(mu, F, alpha)
    assert abs(loop - double) < 1e-6


def test_step7_correspondence_positive_and_negative():
    F = nonauto()
    sp = rv.torus(1)
    H = rv.SuspendedHamiltonian(F, sp)
    # phi-fixed base point: p1 = 0 makes the unit arc close up exactly
    x_star = np.array([0.0, 0.3])
    z0 = rv.extended_point(x_star, 0.0, 0.0, H.nspace)
    straj = rv.suspension_flow(H, z0, 50.0, 1e-2)
    sigma = rv.cylinder_measure_from_suspension(straj, 1)
    mu = rv.EmpiricalMeasure(sp, x_star[None, :], np.array([1.0]))

    rng = np.random.default_rng(3)
    observables = []
    for _ in range(10):
        kp, kq, ks = rng.integers(-2, 3, 3)
        c = rng.normal()
        observables.append(
            lambda X, s, kp=kp, kq=kq, ks=ks, c=c:
            c * np.cos(2 * np.pi * (kp * X[..., 0] + kq * X[..., 1] + ks * s)))
    defect = rv.step7_correspondence_check(sigma, mu, F, observables)
    assert defect < 1e-8

    # x-independent observables integrate to the plain s-average on both sides
    defect_s = rv.step7_correspondence_check(
        sigma, mu, F, [lambda X, s: np.sin(2 * np.pi * s)])
    assert defect_s < 1e-8

    # negative control: a wrong base measure must be detected
    mu_wrong = rv.EmpiricalMeasure(sp, np.array([[0.3, 0.1]]), np.array([1.0]))
    control = rv.step7_correspondence_check(
        sigma, mu_wrong, F, [lambda X, s: np.cos(2 * np.pi * X[..., 0])])
    assert control > 0.1


# ---------------------------------------------------------------------------
# unit arcs against the midpoint loops they replaced; the unit-period guard
# ---------------------------------------------------------------------------

def unit_arc_loop_oracle(F, space, lifts, h):
    """The earlier unit-arc loop: m midpoint steps of every sample, stacked."""
    field = rv.hamiltonian_field(F, space)
    X = np.array(lifts, dtype=float)
    nodes = [X]
    for k in range(round(1.0 / h)):
        X, _ = rv.dynamics.midpoint_step(field.velocity, X, k * h, h)
        nodes.append(X)
    return np.stack(nodes)


@pytest.mark.parametrize("waves", [SIN2, NONAUTO, NONAUTO + [(0.05, [1, 1], 1, "sin")]])
def test_unit_arc_fallback_matches_loop_oracle(waves):
    from rotvec.measures import measure_from_iterates
    from rotvec.suspension import _unit_arcs
    F = rv.fourier_hamiltonian(2, waves)
    sp = rv.torus(1)
    lifts = np.random.default_rng(11).random((7, 2))
    mu = measure_from_iterates(sp, lifts)  # no stored orbit: arcs are integrated
    for h in (1e-2, 0.05):
        oracle = unit_arc_loop_oracle(F, sp, lifts, h)
        assert np.abs(_unit_arcs(mu, F, h) - oracle).max() <= 1e-12

    # step7's right-hand side reads the same arcs
    sigma = rv.CylinderMeasure(lifts, np.zeros(len(lifts)), mu.weights)

    def G(X, s):
        return np.cos(2 * np.pi * (X[..., 0] + X[..., 1] - s))

    oracle = unit_arc_loop_oracle(F, sp, lifts, 1e-2)
    rhs = np.mean([mu.weights @ G(oracle[k], np.full(len(lifts), k * 1e-2))
                   for k in range(100)])
    expected = abs(sigma.integrate(G) - rhs)
    assert abs(rv.step7_correspondence_check(sigma, mu, F, [G]) - expected) <= 1e-12


def test_rotation_pairing_time_one_rejects_steps_that_do_not_tile_the_period():
    # h = 0.3 would stop the unit arc at t = 0.9
    F = nonauto()
    sp = rv.torus(1)
    mu = rv.time_one_orbit(F, sp, [0.25, 0.0], 5, 1e-2)
    with pytest.raises(ValueError, match="does not divide"):
        rv.rotation_pairing_time_one(mu, F, rv.one_form([0.0, 1.0]), h=0.3)


def test_step7_rejects_steps_that_do_not_tile_the_period():
    F = nonauto()
    sp = rv.torus(1)
    mu = rv.EmpiricalMeasure(sp, np.array([[0.25, 0.3]]), np.array([1.0]))
    sigma = rv.CylinderMeasure(mu.lifts, np.zeros(1), mu.weights)
    with pytest.raises(ValueError, match="does not divide"):
        rv.step7_correspondence_check(sigma, mu, F, [lambda X, s: np.cos(2 * np.pi * s)],
                                      h=0.3)
