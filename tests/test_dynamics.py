import numpy as np
import pytest
from hypothesis import given, strategies as st
from test_trig import PROPERTY, points, sin_sum, term_scale, trig_polys

import rotvec as rv
from rotvec.errors import BlowUp, StiffStep
from rotvec.fields import HamiltonianSpec
from rotvec.suspension import SuspendedHamiltonian, suspended_field
from rotvec.trig import TrigPoly

SIN2 = [(0.5, [0, 0], 0, "cos"), (-0.5, [1, 0], 0, "cos")]


def test_sgrad_form_examples():
    sp = rv.torus(1)
    x = rv.wrap([0.1, 0.2], sp)
    v = rv.sgrad_form(rv.one_form([0.0, 0.5]), sp, x)
    assert np.allclose(v, [0.5, 0.0], atol=1e-14)
    assert np.allclose(rv.sgrad_form(rv.one_form([0.0, 0.0]), sp, x), 0.0)
    # twisted form, alpha = dq1 -> d/dp1
    sp4 = rv.torus(2, rv.twisted_structure())
    x4 = rv.wrap([0.1, 0.2, 0.3, 0.4], sp4)
    v4 = rv.sgrad_form(rv.one_form([0, 0, 1.0, 0]), sp4, x4)
    assert np.allclose(v4, [1.0, 0.0, 0.0, 0.0], atol=1e-12)


def test_sgrad_examples():
    sp = rv.torus(1)
    # F = p-translation generator: canonical equations qdot = dF/dp
    F = rv.fourier_hamiltonian(2, [(1.0 / (2 * np.pi), [1, 0], 0, "sin")])
    v = rv.sgrad(F, sp, [0.0, 0.0])
    assert np.allclose(v, [0.0, 1.0], atol=1e-12)  # cos(0) = 1 on dq1

    sp4 = rv.torus(2, rv.twisted_structure())
    F4 = rv.fourier_hamiltonian(4, [(0.5, [0] * 4, 0, "cos"), (-0.5, [1, 0, 0, 0], 0, "cos")])
    p1 = 0.2
    v4 = rv.sgrad(F4, sp4, [p1, 0.0, 0.0, 0.0])
    speed = np.pi * np.sin(2 * np.pi * p1)
    gamma = rv.DEFAULT_GAMMA
    assert np.allclose(v4, [0.0, 0.0, speed, -gamma * speed], atol=1e-12)

    const = rv.fourier_hamiltonian(2, [(7.0, [0, 0], 0, "cos")])
    assert np.allclose(rv.sgrad(const, sp, [0.3, 0.4]), 0.0)


def test_defining_identity_random():
    # omega(sgrad F, w) + dF(w) = 0
    rng = np.random.default_rng(0)
    spaces = [rv.torus(1), rv.torus(2, rv.twisted_structure())]
    for sp in spaces:
        d = sp.dim
        terms = [(rng.normal(), rng.integers(-2, 3, d).tolist(), 0,
                  "sin" if rng.random() < 0.5 else "cos") for _ in range(4)]
        F = rv.fourier_hamiltonian(d, terms)
        for _ in range(50):
            x = rng.random(d)
            v = rv.sgrad(F, sp, x)
            dF = F.grad(x)
            for _ in range(10):
                w = rng.normal(size=d)
                assert abs(sp.omega.pairing(v, w) + dF @ w) < 1e-12 * (1 + np.abs(dF).max())


def test_field_residual():
    sp = rv.torus(1)
    F = rv.fourier_hamiltonian(2, SIN2)
    field = rv.hamiltonian_field(F, sp)
    for x in ([0.2, 0.3], [0.7, 0.9]):
        assert field.residual(x) < 1e-12
    alpha = rv.one_form([0.3, 0.5])
    lfield = rv.locally_hamiltonian_field(alpha, sp)
    assert lfield.residual([0.1, 0.4]) < 1e-12


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
    back = rv.integrate(rv.reversed_field(field), fwd.lifts[-1], 10.0, 1e-2)
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
    a = rv.integrate(field, [0.2, 0.5], 1.0, 1e-3, method="midpoint")
    b = rv.integrate(field, [0.2, 0.5], 1.0, 1e-3, method="rk4")
    # midpoint carries its own O(h^2) global error; RK4 is effectively exact here
    assert np.abs(a.lifts[-1] - b.lifts[-1]).max() < 1e-5
    finer = rv.integrate(field, [0.2, 0.5], 1.0, 1e-4, method="midpoint")
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
    end, arc = rv.time_one_map(F, sp, [0.25, 0.0], 1e-2)
    direct = rv.integrate(rv.hamiltonian_field(F, sp), [0.25, 0.0], 1.0, 1e-2)
    assert np.abs(end.lift - direct.lifts[-1]).max() < 1e-12

    zero = rv.fourier_hamiltonian(2, [(0.0, [0, 0], 0, "cos")])
    end, _ = rv.time_one_map(zero, sp, [0.4, 0.9], 1e-2)
    assert np.allclose(end.lift, [0.4, 0.9], atol=1e-14)

    with pytest.raises(ValueError):
        rv.time_one_map(F, sp, [0.0, 0.0], 0.3)  # 0.3 does not divide 1


def test_time_one_map_momentum_frozen_for_q_free_family():
    sp = rv.torus(1)
    eps = 0.2
    Ft = rv.fourier_hamiltonian(2, SIN2 + [(eps / 2, [1, 0], -1, "cos"),
                                           (-eps / 2, [1, 0], 1, "cos")])
    end, arc = rv.time_one_map(Ft, sp, [0.0, 0.3], 1e-2)
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


def test_trajectory_csv_export(tmp_path):
    sp = rv.torus(1)
    F = rv.fourier_hamiltonian(2, SIN2)
    traj = rv.integrate(rv.hamiltonian_field(F, sp), [0.25, 0.0], 0.1, 1e-2)
    path = tmp_path / "traj.csv"
    traj.to_csv(path, names=["p1", "q1"])
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "t,p1_lift,q1_lift,p1_wrapped,q1_wrapped,E"
    assert len(lines) == len(traj) + 1


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

    F = HamiltonianSpec(data.draw(trig_polys(kernel, space.dim)))
    field = rv.hamiltonian_field(F, space)
    expected = sin_sum(F.poly, X, t, "grad") @ inv.T
    assert_velocity(field.velocity(X, t), expected, F.poly, inv)
    assert_velocity(rv.reversed_field(field).velocity(X, t), -expected, F.poly, inv)
    if F.autonomous:
        energy = sin_sum(F.poly, X, 0.0, "eval")
        assert np.abs(field.conserved(X) - energy).max() <= 1e-12 * term_scale(F.poly, "eval")

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


def test_velocity_hooks(monkeypatch):
    sp = rv.torus(1)
    F = rv.fourier_hamiltonian(2, SIN2 + [(0.1, [1, 1], 0, "sin")])
    field = rv.hamiltonian_field(F, sp)
    assert len(field.velocity.amps) == F.poly.n_terms
    chord = rv.locally_hamiltonian_field(rv.one_form([0.0, 0.5]), sp)
    assert len(chord.velocity.amps) == 0
    X = np.random.default_rng(0).random((4, 2))
    expected = field.velocity(X, 0.0)

    def public_call(*args, **kwargs):
        raise AssertionError("velocity went through a public TrigPoly method")

    for name in ("eval", "grad", "dt"):
        monkeypatch.setattr(TrigPoly, name, public_call)
    assert np.array_equal(field.velocity(X, 0.0), expected)
    assert np.array_equal(chord.velocity(X, 0.0), np.tile([0.5, 0.0], (4, 1)))
