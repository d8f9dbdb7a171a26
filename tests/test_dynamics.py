import numpy as np
import pytest
from hypothesis import given, strategies as st
from test_trig import PROPERTY, points, sin_sum, term_scale, trig_polys

import rotvec as rv
from rotvec import dynamics
from rotvec.errors import BlowUp, StiffStep
from rotvec.suspension import SuspendedHamiltonian, suspended_field
from rotvec.trig import TrigPoly

SIN2 = [(0.5, [0, 0], 0, "cos"), (-0.5, [1, 0], 0, "cos")]


def at(field, x, t=0.0):
    """The field at one point: the batched velocity on a batch of one."""
    return field.velocity(np.asarray(x, dtype=float)[None], t)[0]


def rk4_step(vel, X, t, h, dX0=None):
    """Classic RK4 step, returning (X_next, dX) like the midpoint rule it
    cross-checks; the start value ``dX0`` a midpoint step takes is ignored."""
    k1 = vel(X, t)
    k2 = vel(X + 0.5 * h * k1, t + 0.5 * h)
    k3 = vel(X + 0.5 * h * k2, t + 0.5 * h)
    k4 = vel(X + h * k3, t + h)
    dX = (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return X + dX, dX


def euler_start_step(vel, X, t, h, dX0=None):
    """The midpoint step started from the Euler predictor whatever ``dX0`` is:
    the warm start's oracle, the loop as it was before every step started from
    the previous step's increment."""
    t_mid = t + 0.5 * h
    Y = X + h * vel(X, t)
    for _ in range(dynamics.FP_MAX_ITER):
        dX = h * vel(0.5 * (X + Y), t_mid)
        Y_new = X + dX
        err = np.max(np.abs(Y_new - Y))
        Y = Y_new
        if err < dynamics.FP_TOL:
            return Y, dX
    raise StiffStep(f"midpoint iteration stalled at t = {t + h} (err = {err:.2e})")


def integrate_with(step, field, x0, T, h):
    """``integrate`` with ``step`` swapped in for the midpoint step (the node loop
    and the Trajectory are the integrator's own)."""
    steppers = dynamics._STEPPERS
    midpoint, steppers["midpoint"] = steppers["midpoint"], step
    try:
        return rv.integrate(field, x0, T, h)
    finally:
        steppers["midpoint"] = midpoint


def integrate_rk4(field, x0, T, h):
    return integrate_with(rk4_step, field, x0, T, h)


def test_sgrad_form_examples():
    sp = rv.torus(1)
    x = rv.wrap([0.1, 0.2], sp)
    v = at(rv.locally_hamiltonian_field(rv.one_form([0.0, 0.5]), sp), x)
    assert np.allclose(v, [0.5, 0.0], atol=1e-14)
    assert np.allclose(at(rv.locally_hamiltonian_field(rv.one_form([0.0, 0.0]), sp), x), 0.0)
    # twisted form, alpha = dq1 -> d/dp1
    sp4 = rv.torus(2, rv.twisted_structure())
    x4 = rv.wrap([0.1, 0.2, 0.3, 0.4], sp4)
    v4 = at(rv.locally_hamiltonian_field(rv.one_form([0, 0, 1.0, 0]), sp4), x4)
    assert np.allclose(v4, [1.0, 0.0, 0.0, 0.0], atol=1e-12)


def test_sgrad_examples():
    sp = rv.torus(1)
    # F = p-translation generator: canonical equations qdot = dF/dp
    F = rv.fourier_hamiltonian(2, [(1.0 / (2 * np.pi), [1, 0], 0, "sin")])
    v = at(rv.hamiltonian_field(F, sp), [0.0, 0.0])
    assert np.allclose(v, [0.0, 1.0], atol=1e-12)  # cos(0) = 1 on dq1

    sp4 = rv.torus(2, rv.twisted_structure())
    F4 = rv.fourier_hamiltonian(4, [(0.5, [0] * 4, 0, "cos"), (-0.5, [1, 0, 0, 0], 0, "cos")])
    p1 = 0.2
    v4 = at(rv.hamiltonian_field(F4, sp4), [p1, 0.0, 0.0, 0.0])
    speed = np.pi * np.sin(2 * np.pi * p1)
    gamma = rv.DEFAULT_GAMMA
    assert np.allclose(v4, [0.0, 0.0, speed, -gamma * speed], atol=1e-12)

    const = rv.fourier_hamiltonian(2, [(7.0, [0, 0], 0, "cos")])
    assert np.allclose(at(rv.hamiltonian_field(const, sp), [0.3, 0.4]), 0.0)


def test_defining_identity_random():
    # omega(sgrad F, w) + dF(w) = 0, with omega(u, w) = u^T Omega w, and the
    # batched velocity is Omega^{-1} grad F(x, s) at every time s
    rng = np.random.default_rng(0)
    spaces = [rv.torus(1), rv.torus(2, rv.twisted_structure())]
    for sp in spaces:
        d = sp.dim
        terms = [(rng.normal(), rng.integers(-2, 3, d).tolist(), int(rng.integers(-1, 2)),
                  "sin" if rng.random() < 0.5 else "cos") for _ in range(4)]
        F = rv.fourier_hamiltonian(d, terms)
        field = rv.hamiltonian_field(F, sp)
        for _ in range(50):
            x, s = rng.random(d), rng.random()
            v = at(field, x, s)
            dF = F.grad(x, s)
            scale = 1 + np.abs(dF).max()
            assert np.abs(v - sp.omega.inverse @ dF).max() < 1e-12 * scale  # Omega^{-1} grad F
            for _ in range(10):
                w = rng.normal(size=d)
                assert abs(v @ sp.omega.matrix @ w + dF @ w) < 1e-12 * scale


def test_field_residual():
    # max |Omega^T v - beta| for i_v omega = beta: beta = -dF, resp. alpha
    sp = rv.torus(1)
    omega = sp.omega.matrix
    F = rv.fourier_hamiltonian(2, SIN2)
    field = rv.hamiltonian_field(F, sp)
    for x in ([0.2, 0.3], [0.7, 0.9]):
        assert np.abs(omega.T @ at(field, x) + F.grad(np.array(x))).max() < 1e-12
    alpha = rv.one_form([0.3, 0.5])
    lfield = rv.locally_hamiltonian_field(alpha, sp)
    x = np.array([0.1, 0.4])
    assert np.abs(omega.T @ at(lfield, x) - alpha.coefficients(x)).max() < 1e-12


def test_integrate_conserves_momentum_and_advances_position():
    sp = rv.torus(1)
    F = rv.fourier_hamiltonian(2, SIN2)
    traj = rv.integrate(rv.hamiltonian_field(F, sp), [0.25, 0.0], 1.0, 1e-3)
    assert abs(traj.lifts[-1, 0] - 0.25) < 1e-10          # p1 conserved
    assert abs(traj.lifts[-1, 1] - np.pi) < 1e-6          # q1 advances by pi
    assert traj.energy_drift() < 1e-12


def test_integrate_zero_field_constant():
    sp = rv.torus(1)
    F = rv.fourier_hamiltonian(2, [(1.0, [0, 0], 0, "cos")])
    traj = rv.integrate(rv.hamiltonian_field(F, sp), [0.3, 0.7], 2.0, 1e-2)
    assert np.allclose(traj.lifts, [0.3, 0.7], atol=1e-14)


def test_integrate_locally_hamiltonian_translation():
    sp = rv.torus(1)
    field = rv.locally_hamiltonian_field(rv.one_form([0.0, 0.5]), sp)
    traj = rv.integrate(field, [0.0, 0.0], 1.0, 1e-2)
    assert abs(traj.lifts[-1, 0] - 0.5) < 1e-12  # half-speed translation along p1


def test_reversibility():
    sp = rv.torus(1)
    # add a q-dependent term so the dynamics is not integrable by inspection
    F = rv.fourier_hamiltonian(2, SIN2 + [(0.1, [1, 1], 0, "sin")])
    field = rv.hamiltonian_field(F, sp)
    x0 = np.array([0.21, 0.43])
    fwd = rv.integrate(field, x0, 10.0, 1e-2)
    back = rv.integrate(rv.hamiltonian_field(-F, sp), fwd.lifts[-1], 10.0, 1e-2)
    assert np.abs(back.lifts[-1] - x0).max() < 1e-8


def test_flow_property():
    sp = rv.torus(1)
    F = rv.fourier_hamiltonian(2, SIN2 + [(0.1, [1, 1], 0, "sin")])
    field = rv.hamiltonian_field(F, sp)
    x0 = [0.11, 0.77]
    once = rv.integrate(field, x0, 7.0, 1e-2)
    first = rv.integrate(field, x0, 3.0, 1e-2)
    second = rv.integrate(field, first.lifts[-1], 4.0, 1e-2)
    assert np.abs(second.lifts[-1] - once.lifts[-1]).max() < 1e-8


def test_rk4_cross_check():
    sp = rv.torus(1)
    F = rv.fourier_hamiltonian(2, SIN2 + [(0.05, [1, 1], 0, "cos")])
    field = rv.hamiltonian_field(F, sp)
    a = rv.integrate(field, [0.2, 0.5], 1.0, 1e-3)
    b = integrate_rk4(field, [0.2, 0.5], 1.0, 1e-3)
    # midpoint carries its own O(h^2) global error; RK4 is effectively exact here
    assert np.abs(a.lifts[-1] - b.lifts[-1]).max() < 1e-5
    finer = rv.integrate(field, [0.2, 0.5], 1.0, 1e-4)
    assert np.abs(finer.lifts[-1] - b.lifts[-1]).max() < 1e-7


def test_energy_drift_bounded_generic_field():
    # the midpoint energy error oscillates at O(h^2) scale without secular
    # growth: the T = 100 drift is no worse than a small multiple of T = 10's
    sp = rv.torus(1)
    F = rv.fourier_hamiltonian(2, SIN2 + [(0.1, [1, 1], 0, "sin")])
    field = rv.hamiltonian_field(F, sp)
    short = rv.integrate(field, [0.2, 0.3], 10.0, 1e-2).energy_drift()
    long = rv.integrate(field, [0.2, 0.3], 100.0, 1e-2).energy_drift()
    assert long < 1e-3
    assert long < 3 * short


def test_time_one_map_consistency_and_identity():
    sp = rv.torus(1)
    F = rv.fourier_hamiltonian(2, SIN2)
    end = rv.time_one_orbit(F, sp, [0.25, 0.0], 1, 1e-2).source.lifts[-1]
    direct = rv.integrate(rv.hamiltonian_field(F, sp), [0.25, 0.0], 1.0, 1e-2)
    assert np.abs(end - direct.lifts[-1]).max() < 1e-12

    zero = rv.fourier_hamiltonian(2, [(0.0, [0, 0], 0, "cos")])
    end = rv.time_one_orbit(zero, sp, [0.4, 0.9], 1, 1e-2).source.lifts[-1]
    assert np.allclose(end, [0.4, 0.9], atol=1e-14)

    with pytest.raises(ValueError):
        rv.time_one_orbit(F, sp, [0.0, 0.0], 1, 0.3)  # 0.3 does not divide 1


def test_time_one_map_momentum_frozen_for_q_free_family():
    sp = rv.torus(1)
    eps = 0.2
    Ft = rv.fourier_hamiltonian(2, SIN2 + [(eps / 2, [1, 0], -1, "cos"),
                                           (-eps / 2, [1, 0], 1, "cos")])
    arc = rv.time_one_orbit(Ft, sp, [0.0, 0.3], 1, 1e-2).source
    assert np.abs(arc.lifts[:, 0]).max() < 1e-14  # dF/dq = 0 everywhere: pdot = 0


def test_stiff_and_blowup():
    sp = rv.torus(1)
    # step Lipschitz number far above 1: the midpoint iteration cannot contract
    stiff = rv.fourier_hamiltonian(2, [(400.0, [5, 5], 0, "sin")])
    with pytest.raises(StiffStep):
        rv.integrate(rv.hamiltonian_field(stiff, sp), [0.21, 0.13], 0.1, 1e-2)
    # non-finite states surface as BlowUp (trig fields stay bounded, so this
    # only happens when garbage enters from outside)
    F = rv.fourier_hamiltonian(2, SIN2)
    with np.errstate(invalid="ignore", over="ignore"), pytest.raises((BlowUp, StiffStep)):
        rv.integrate(rv.hamiltonian_field(F, sp), [1e308, 1e308], 0.1, 1e-2)


def test_last_partial_step():
    sp = rv.torus(1)
    field = rv.locally_hamiltonian_field(rv.one_form([0.0, 1.0]), sp)
    traj = rv.integrate(field, [0.0, 0.0], 0.105, 1e-2)  # 10 full steps + 0.005
    assert traj.times[-1] == pytest.approx(0.105)
    assert traj.lifts[-1, 0] == pytest.approx(0.105, abs=1e-12)


# ---------------------------------------------------------------------------
# field velocities against the sin-sum oracle
# ---------------------------------------------------------------------------

SPACES = [rv.torus(1), rv.torus(2), rv.torus(2, rv.twisted_structure())]


def assert_velocity(got, expected, poly, matrix):
    assert got.shape == expected.shape
    scale = np.abs(matrix).sum() * term_scale(poly, "grad")
    assert np.abs(got - expected).max(initial=0.0) <= 1e-12 * scale


@pytest.mark.parametrize("kernel", ["sparse", "dense"])
@PROPERTY
@given(data=st.data())
def test_field_velocities_match_sin_sum(kernel, data):
    space = data.draw(st.sampled_from(SPACES))
    inv = space.omega.inverse
    X, t = data.draw(points(space.dim))

    F = data.draw(trig_polys(kernel, space.dim))
    field = rv.hamiltonian_field(F, space)
    expected = sin_sum(F, X, t, "grad") @ inv.T
    assert_velocity(field.velocity(X, t), expected, F, inv)
    assert_velocity(rv.hamiltonian_field(-F, space).velocity(X, t), -expected, F, inv)
    if not F.is_time_dependent:
        energy = sin_sum(F, X, 0.0, "eval")
        assert np.abs(field.conserved(X) - energy).max() <= 1e-12 * term_scale(F, "eval")

    g = data.draw(trig_polys(kernel, space.dim, time=False))
    cls = np.array(data.draw(st.lists(st.floats(-2.0, 2.0), min_size=space.dim,
                                      max_size=space.dim)))
    lfield = rv.locally_hamiltonian_field(rv.one_form(cls, g), space)
    expected = -(cls + sin_sum(g, X, t, "grad")) @ inv.T
    assert_velocity(lfield.velocity(X, t), expected, g, inv)

    # the suspension moves F's time frequencies onto s and adds the linear r term
    H = SuspendedHamiltonian(F, space)
    Z = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1))).uniform(
        -1.0, 2.0, X.shape[:-1] + (H.dim,))
    sfield = suspended_field(H)
    ninv = H.nspace.omega.inverse
    expected = (sin_sum(H.poly, Z, 0.0, "grad") + H._e_r) @ ninv.T
    assert_velocity(sfield.velocity(Z), expected, H.poly, ninv)
    energy = sin_sum(H.poly, Z, 0.0, "eval") + Z[..., space.n]
    assert np.abs(sfield.conserved(Z) - energy).max() <= 1e-12 * term_scale(H.poly, "eval")
    # rdot = -dF/ds: the r-velocity is F's time derivative at the base point and s
    base, s = np.delete(Z, [space.n, H.dim - 1], axis=-1), Z[..., -1]
    rdot = sfield.velocity(Z)[..., space.n]
    assert np.abs(rdot + sin_sum(F, base, s, "dt")).max(initial=0.0) <= (
        1e-12 * term_scale(F, "dt"))


def test_velocity_hooks(monkeypatch):
    sp = rv.torus(1)
    F = rv.fourier_hamiltonian(2, SIN2 + [(0.1, [1, 1], 0, "sin")])
    field = rv.hamiltonian_field(F, sp)
    assert len(field.velocity.amps) == F.n_terms
    chord = rv.locally_hamiltonian_field(rv.one_form([0.0, 0.5]), sp)
    assert len(chord.velocity.amps) == 0
    X = np.random.default_rng(0).random((4, 2))
    expected = field.velocity(X, 0.0)

    def public_call(*args, **kwargs):
        raise AssertionError("velocity went through a public TrigPoly method")

    for name in ("eval", "grad"):
        monkeypatch.setattr(TrigPoly, name, public_call)
    assert np.array_equal(field.velocity(X, 0.0), expected)
    assert np.array_equal(chord.velocity(X, 0.0), np.tile([0.5, 0.0], (4, 1)))


# ---------------------------------------------------------------------------
# batched integration: every row is the single-orbit run of its seed
# ---------------------------------------------------------------------------

TWISTED = rv.torus(2, rv.twisted_structure())
F4 = [(0.5, [0] * 4, 0, "cos"), (-0.5, [1, 0, 0, 0], 0, "cos")]
BATCH_CASES = [  # (space, waves, momentum-only)
    (rv.torus(1), SIN2, True),
    (TWISTED, F4, True),
    (rv.torus(1), SIN2 + [(0.1, [1, 1], 0, "sin")], False),
    (rv.torus(1), SIN2 + [(0.1, [1, 0], -1, "cos"), (0.05, [1, 1], 1, "sin")], False),
    (TWISTED, F4 + [(0.05, [0, 1, 1, -1], 0, "cos")], False),
]


@pytest.mark.parametrize("method", ["midpoint", "rk4"])
@pytest.mark.parametrize("space, waves, momentum_only", BATCH_CASES)
def test_batched_integrate_rows_match_single_runs(space, waves, momentum_only, method):
    # "rk4" runs the node loop with the test-side RK4 oracle as its stepper
    run = rv.integrate if method == "midpoint" else integrate_rk4
    F = rv.fourier_hamiltonian(space.dim, waves)
    field = rv.hamiltonian_field(F, space)
    seeds = np.random.default_rng(5).random((5, space.dim))
    T = 3.005  # 300 full steps and a last, shorter one
    batch = run(field, seeds, T, 1e-2)
    assert batch.lifts.shape == (len(batch.times), 5, space.dim)
    for b, seed in enumerate(seeds):
        single = run(field, seed, T, 1e-2)
        assert np.array_equal(batch.times, single.times)
        if momentum_only:
            assert np.array_equal(batch.lifts[:, b], single.lifts)
        else:
            # the fixed-point stop is the max over the batch, so a row may take
            # one sweep more than alone, and the evaluator's sums may round
            # differently at another batch size
            assert np.abs(batch.lifts[:, b] - single.lifts).max() <= 1e-10
        if not F.is_time_dependent:
            assert np.abs(batch.energies[:, b] - single.energies).max() <= 1e-10


def test_integrate_node_times_are_multiples_of_h():
    field = rv.locally_hamiltonian_field(rv.one_form([0.0, 1.0]), rv.torus(1))
    traj = rv.integrate(field, [0.0, 0.0], 0.105, 1e-2)
    assert np.array_equal(traj.times[:-1], np.arange(11) * 1e-2)
    assert traj.times[-1] == 0.105


# ---------------------------------------------------------------------------
# the warm start against the Euler-started step
# ---------------------------------------------------------------------------

def momentum_seeds(n_seeds, dim, n_momenta):
    seeds = np.zeros((n_seeds, dim))
    seeds[:, :n_momenta] = np.random.default_rng(3).random((n_seeds, n_momenta))
    return seeds


def assert_same_orbit(field, x0, T, h):
    warm = rv.integrate(field, x0, T, h)
    euler = integrate_with(euler_start_step, field, x0, T, h)
    assert np.array_equal(warm.times, euler.times)
    assert np.array_equal(warm.lifts, euler.lifts)


@pytest.mark.parametrize("T", [10.0, 10.005])  # 10.005: a last, shorter step
def test_warm_start_is_bitwise_on_momentum_only_batch(T):
    field = rv.hamiltonian_field(rv.fourier_hamiltonian(2, SIN2), rv.torus(1))
    assert_same_orbit(field, momentum_seeds(1024, 2, 1), T, 1e-2)


def test_warm_start_is_bitwise_on_twisted_orbit():
    field = rv.hamiltonian_field(rv.fourier_hamiltonian(4, F4), TWISTED)
    assert_same_orbit(field, [0.2, 0.0, 0.0, 0.0], 20.0, 1e-2)


def test_warm_start_is_bitwise_on_pinned_profile_batch():
    F = rv.make_pinned_profile([(0.0, 0.0), (0.5, 1.0)], n_modes=16)
    field = rv.hamiltonian_field(F, rv.torus(1))
    assert_same_orbit(field, momentum_seeds(64, 2, 1), 10.0, 1e-2)


def test_warm_start_is_bitwise_on_suspension_batch():
    # the velocity reads p1 and s, and s moves at the constant speed 1
    nonauto = SIN2 + [(0.1, [1, 0], -1, "cos"), (-0.1, [1, 0], 1, "cos")]
    H = SuspendedHamiltonian(rv.fourier_hamiltonian(2, nonauto), rv.torus(1))
    Z0 = np.array([rv.extended_point([p1, 0.0], 0.0, 0.0, H.nspace) for p1 in (0.1, 0.2, 0.35)])
    assert_same_orbit(suspended_field(H), Z0, 10.005, 1e-2)


@pytest.mark.parametrize("eps", [0.05, 0.2, 0.3])
def test_warm_start_moves_generic_orbits_within_the_fixed_point_tolerance(eps):
    # perfbench's generic-search field: sin^2(pi p1) + eps sin^2(2 pi p1) cos(2 pi q1)
    waves = SIN2 + [(eps / 2, [0, 1], 0, "cos"), (-eps / 4, [2, 1], 0, "cos"),
                    (-eps / 4, [2, -1], 0, "cos")]
    field = rv.hamiltonian_field(rv.fourier_hamiltonian(2, waves), rv.torus(1))
    seeds = rv.full_seed_grid(rv.torus(1), 16)
    warm = rv.integrate(field, seeds, 10.0, 1e-2)
    euler = integrate_with(euler_start_step, field, seeds, 10.0, 1e-2)
    assert np.abs(warm.lifts - euler.lifts).max() <= 1e-9


def test_warm_start_still_raises_stiff_step():
    # cos(2 pi p1) + 0.05 cos(2 pi q1) from p1 = 1/4, where the step's
    # contraction is weakest: the iteration stalls on the fourth step, a warm one
    steep = rv.fourier_hamiltonian(2, [(1.0, [1, 0], 0, "cos"), (0.05, [0, 1], 0, "cos")])
    field = rv.hamiltonian_field(steep, rv.torus(1))
    for step in (dynamics.midpoint_step, euler_start_step):
        with pytest.raises(StiffStep, match="t = 0.8 "):
            integrate_with(step, field, [0.25, 0.0], 2.0, 0.2)


def test_warm_start_takes_one_velocity_call_per_step():
    # one Euler predictor on the first step, then one sweep per step; the
    # Euler-started loop takes two calls on every step
    field = rv.hamiltonian_field(rv.fourier_hamiltonian(2, SIN2), rv.torus(1))
    velocity, calls = field.velocity, []

    def counting(X, t=0.0):
        calls.append(len(X))
        return velocity(X, t)

    field.velocity = counting
    n_steps = 1000
    rv.integrate(field, momentum_seeds(1024, 2, 1), n_steps * 1e-2, 1e-2)
    assert calls == [1024] * (n_steps + 1)
