import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.optimize import minimize

import rotvec as rv
from rotvec.errors import InfeasibleFamily
from rotvec.fields import LP_KEYS, SLOPE_GRID, _profile_basis, _profile_poly
from rotvec.pbracket import bracket_poly
from rotvec.trig import TrigPoly

SIN2 = [(0.5, [0, 0], 0, "cos"), (-0.5, [1, 0], 0, "cos")]


def sin2():
    return rv.fourier_hamiltonian(2, SIN2)


def example1_problem(shift=0.0):
    sp = rv.torus(1)
    a = rv.CohomologyClass([0.0, 0.5])
    X = rv.momentum_level_torus(sp, [shift])
    Xp = rv.momentum_level_torus(sp, [shift + 0.5])
    return rv.PbProblem(sp, X, Xp, a, floor=1.0)


def example1_profile(n_modes=24, shift=0.0):
    """The LP candidate F = u(p1) pinned to 0 on X and 1 on X'."""
    return rv.make_pinned_profile([(shift, 0.0), (shift + 0.5, 1.0)], n_modes=n_modes)


def bracket_at(F, alpha, sp, x, s=0.0):
    """{F, alpha}(x, s) on the kept path: the bracket polynomial, evaluated."""
    return float(bracket_poly(F, alpha, sp).eval(x, s))


def bracket_two_routes(F, alpha, sp, x, s=0.0):
    """(dF(sgrad alpha), alpha(sgrad F)) at one point, each from its own field."""
    dF, a_x = F.grad(x, s), alpha.coefficients(x)
    return dF @ (-sp.omega.inverse @ a_x), a_x @ (sp.omega.inverse @ dF)


def test_bracket_examples():
    sp = rv.torus(1)
    # F = sin(2 pi p1)/(2 pi): bracket with dq1 is cos(2 pi p1)
    F = rv.fourier_hamiltonian(2, [(1.0 / (2 * np.pi), [1, 0], 0, "sin")])
    dq1 = rv.one_form([0.0, 1.0])
    assert bracket_at(F, dq1, sp, [0.0, 0.0]) == pytest.approx(1.0, abs=1e-12)
    assert bracket_at(F, dq1, sp, [0.25, 0.9]) == pytest.approx(0.0, abs=1e-12)

    # exact alpha against constant F
    g = TrigPoly.wave(2, 0.7, [1, 1], 0, "cos")
    exact = rv.ClosedOneForm(rv.CohomologyClass([0.0, 0.0]), g)
    const = rv.fourier_hamiltonian(2, [(2.0, [0, 0], 0, "cos")])
    assert bracket_at(const, exact, sp, [0.3, 0.4]) == pytest.approx(0.0, abs=1e-14)

    assert bracket_at(sin2(), rv.one_form([0.0, 0.5]), sp,
                      [0.25, 0.0]) == pytest.approx(np.pi / 2, abs=1e-12)


def test_bracket_identity_random_sweep():
    # dF(sgrad alpha) = alpha(sgrad F) at 1000 random configurations
    rng = np.random.default_rng(0)
    spaces = [rv.torus(1), rv.torus(2, rv.twisted_structure())]
    count = 0
    while count < 1000:
        sp = spaces[count % 2]
        d = sp.dim
        F = rv.fourier_hamiltonian(d, [(rng.normal(), rng.integers(-2, 3, d).tolist(), 0,
                                        "sin" if rng.random() < 0.5 else "cos")
                                       for _ in range(3)])
        pot = TrigPoly.wave(d, rng.normal(), rng.integers(-2, 3, d), 0, "sin")
        alpha = rv.ClosedOneForm(rv.CohomologyClass(rng.normal(size=d)), pot)
        x = rng.random(d)
        first, second = bracket_two_routes(F, alpha, sp, x)
        assert abs(first - second) <= 1e-10 * (1 + abs(first))
        assert abs(bracket_at(F, alpha, sp, x) - first) <= 1e-10
        count += 1


def test_bracket_bilinear_scaling():
    rng = np.random.default_rng(1)
    sp = rv.torus(1)
    F = sin2()
    alpha = rv.one_form([0.2, 0.7])
    for _ in range(20):
        x = rng.random(2)
        lam = rng.normal()
        b = bracket_at(F, alpha, sp, x)
        assert bracket_at(lam * F, alpha, sp, x) == pytest.approx(lam * b, abs=1e-12)
        assert bracket_at(F, lam * alpha, sp, x) == pytest.approx(lam * b, abs=1e-12)


def test_bracket_poly_matches_pointwise():
    rng = np.random.default_rng(2)
    sp = rv.torus(2, rv.twisted_structure())
    F = rv.fourier_hamiltonian(4, [(0.4, [1, 0, 0, 0], 0, "cos"),
                                   (0.3, [0, 1, -1, 0], 0, "sin")])
    pot = TrigPoly.wave(4, 0.5, [0, 0, 1, 0], 0, "sin")
    alpha = rv.ClosedOneForm(rv.CohomologyClass([0.1, 0.0, 0.6, 0.2]), pot)
    poly = rv.bracket_poly(F, alpha, sp)
    for _ in range(50):
        x = rng.random(4)
        first, second = bracket_two_routes(F, alpha, sp, x)
        assert poly.eval(x[None, :])[0] == pytest.approx(first, abs=1e-12)
        assert poly.eval(x[None, :])[0] == pytest.approx(second, abs=1e-12)


def test_sup_norm_examples():
    sp = rv.torus(1)
    # bracket field cos(2 pi p1): sup 1, pad small at 512
    F = rv.fourier_hamiltonian(2, [(1.0 / (2 * np.pi), [1, 0], 0, "sin")])
    dq1 = rv.one_form([0.0, 1.0])
    val = rv.sup_norm(F, dq1, sp, grid_res=512)
    assert 1.0 <= val <= 1.01

    zero = rv.fourier_hamiltonian(2, [(0.0, [0, 0], 0, "cos")])
    assert rv.sup_norm(zero, dq1, sp) == 0.0

    with pytest.raises(ValueError):
        rv.sup_norm(F, dq1, sp, grid_res=8)


def test_sup_norm_certificate_monotone():
    # certified bound at a coarse grid dominates the raw max on a finer grid
    sp = rv.torus(1)
    F = rv.make_pinned_profile([(0.0, 0.0), (0.5, 1.0)], n_modes=16)
    alpha = rv.one_form([0.0, 0.5])
    cert_coarse = rv.sup_norm(F, alpha, sp, grid_res=512)
    lo, hi, _ = bracket_poly(F, alpha, sp).certified_bounds(2048)
    raw_fine = max(hi, -lo)
    assert cert_coarse >= raw_fine
    cert_fine = rv.sup_norm(F, alpha, sp, grid_res=2048)
    assert cert_fine >= raw_fine
    assert cert_fine <= cert_coarse  # finer grids tighten the certificate


def test_averaged_bracket_degenerate_and_invariant_circle():
    sp = rv.torus(1)
    F = sin2()
    alpha = rv.one_form([0.0, 0.5])
    x = np.array([0.2, 0.3])
    h = 1e-3
    val = rv.averaged_bracket(F, alpha, sp, x, T=h, h=h)
    assert abs(val - bracket_at(F, alpha, sp, x)) < 10 * h

    # integrand constant on the invariant circle: any T returns pi/2
    for T in (0.5, 3.0, 10.0):
        v = rv.averaged_bracket(F, alpha, sp, [0.25, 0.0], T=T, h=1e-2)
        assert abs(v - np.pi / 2) < 1e-8


def averaged_bracket_pullback_oracle(F, alpha, sp, x, T, h, eps=1e-7):
    """Independent route: {F, alpha_T}(x) = (1/T) int alpha(Dphi_t sgrad F(x)) dt.

    The Jacobian action is finite-differenced through two shadow
    trajectories; nothing is shared with the trajectory-average formula
    except the integrator itself.
    """
    field = rv.hamiltonian_field(F, sp)
    v = sp.omega.inverse @ F.grad(x)
    base = rv.integrate(field, x, T, h)
    plus = rv.integrate(field, np.asarray(x) + eps * v, T, h)
    minus = rv.integrate(field, np.asarray(x) - eps * v, T, h)
    jac_v = (plus.lifts - minus.lifts) / (2 * eps)
    coeff = alpha.coefficients(base.lifts)
    integrand = np.einsum("ij,ij->i", coeff, jac_v)
    return np.trapezoid(integrand, base.times) / T


def test_averaged_bracket_against_pullback_oracle():
    sp = rv.torus(1)
    # profile flow with a potential-reshaped form: the integrand varies along
    # the orbit through grad g, while the discrete flow transports the field
    # exactly, so the two routes agree to finite-difference noise
    F = sin2()
    g = TrigPoly.wave(2, 0.3, [0, 1], 0, "cos")
    alpha = rv.ClosedOneForm(rv.CohomologyClass([0.0, 0.5]), g)
    x = [0.2, 0.3]
    fast = rv.averaged_bracket(F, alpha, sp, x, T=10.0, h=1e-3)
    oracle = averaged_bracket_pullback_oracle(F, alpha, sp, x, T=10.0, h=1e-3)
    assert abs(fast - oracle) < 1e-5


def test_averaged_bracket_oracle_generic_field():
    # with q-coupling the discrete Jacobian transports the field only to
    # O(h^2); the routes still agree at that scale
    sp = rv.torus(1)
    F = rv.fourier_hamiltonian(2, SIN2 + [(0.1, [1, 1], 0, "sin")])
    g = TrigPoly.wave(2, 0.3, [0, 1], 0, "cos")
    alpha = rv.ClosedOneForm(rv.CohomologyClass([0.0, 0.5]), g)
    x = [0.2, 0.3]
    fast = rv.averaged_bracket(F, alpha, sp, x, T=10.0, h=1e-3)
    oracle = averaged_bracket_pullback_oracle(F, alpha, sp, x, T=10.0, h=1e-3)
    assert abs(fast - oracle) < 3e-4


def test_pb_problem_validation():
    sp = rv.torus(1)
    a = rv.CohomologyClass([0.0, 0.5])
    X = rv.momentum_level_torus(sp, [0.0])
    with pytest.raises(ValueError):
        rv.PbProblem(sp, X, rv.momentum_level_torus(sp, [0.0]), a)
    prob = rv.PbProblem(sp, X, rv.momentum_level_torus(sp, [0.5]), a)
    ok, audit = prob.validate_candidate(sin2())
    assert ok and audit["X_max"] <= 1e-9 and audit["Xp_min"] >= 1.0 - 1e-9
    bad = rv.fourier_hamiltonian(2, [(0.25, [0, 0], 0, "cos"),
                                     (-0.25, [1, 0], 0, "cos")])  # only reaches 1/2
    ok, _ = prob.validate_candidate(bad)
    assert not ok


def test_pb_upper_bound_fixed_candidate():
    # no optimization freedom: the certified sup of the single candidate is returned
    sp = rv.torus(1)
    a = rv.CohomologyClass([0.0, 0.5])
    X = rv.momentum_level_torus(sp, [0.0])
    Xp = rv.momentum_level_torus(sp, [0.5])
    F0 = rv.fourier_hamiltonian(2, SIN2 + [(5.0 / (2 * np.pi), [1, 0], 0, "sin")])
    alpha = rv.ClosedOneForm(a)
    prob = rv.PbProblem(sp, X, Xp, a)
    res = rv.pb_upper_bound(prob, F0, cert_grid_res=4096)
    assert res.value == pytest.approx(rv.sup_norm(F0, alpha, sp, grid_res=4096))
    assert res.value == pytest.approx(0.5 * np.hypot(np.pi, 5.0), abs=2e-2)
    assert res.audit["profile_lp"] == {}  # no profile LP behind a fixed candidate


def test_pb_upper_bound_infeasible_family():
    sp = rv.torus(1)
    a = rv.CohomologyClass([0.0, 0.5])
    X = rv.momentum_level_torus(sp, [0.0])
    Xp = rv.momentum_level_torus(sp, [0.5])
    bad = rv.fourier_hamiltonian(2, [(0.1, [1, 0], 0, "sin")])  # violates both pins
    prob = rv.PbProblem(sp, X, Xp, a)
    with pytest.raises(InfeasibleFamily, match=r"X_max = .*Xp_min = "):
        rv.pb_upper_bound(prob, bad)


def test_pb_upper_bound_example1_small():
    # reduced-budget version of the flagship run: still certifies inside the
    # [floor, oracle-ceiling] bracket
    F = example1_profile(n_modes=24)
    res = rv.pb_upper_bound(example1_problem(), F, cert_grid_res=8192)
    assert 0.999 <= res.value <= 1.06
    assert res.value >= 0.999
    assert res.audit["winner"]["constraints"]["ok"]
    # the profile LP's solver record: the exchange kept a fraction of the grid rows
    lp = res.audit["profile_lp"]
    assert set(lp) == set(LP_KEYS) and lp["lp_status"] == 0
    assert lp["lp_rounds"] >= 1 and 256 <= lp["lp_rows"] < SLOPE_GRID
    assert lp == {key: F.metadata[key] for key in LP_KEYS}


def wave_sum(dim, coord, coeffs):
    """sum_j c_j cos(2 pi j x_coord) + s_j sin(2 pi j x_coord), from [c0, c1, s1, c2, s2, ...]."""
    poly = TrigPoly.constant(dim, coeffs[0])
    for j in range(1, (len(coeffs) + 1) // 2):
        k = np.zeros(dim, dtype=int)
        k[coord] = j
        poly = poly + TrigPoly.wave(dim, coeffs[2 * j - 1], k, 0, "cos")
        poly = poly + TrigPoly.wave(dim, coeffs[2 * j], k, 0, "sin")
    return poly


SPACES = [rv.torus(1), rv.torus(2), rv.torus(2, rv.twisted_structure())]


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_potential_in_profile_coordinate_drops_out(data):
    # F = u(x_c), alpha = a + dg(x_c): the potential term g' u' (Omega^-1)_cc
    # vanishes because Omega^-1 is antisymmetric, on p and q coordinates alike
    sp = SPACES[data.draw(st.integers(0, len(SPACES) - 1))]
    coord = data.draw(st.integers(0, sp.dim - 1))
    def draw_coeffs(n):
        return data.draw(st.lists(st.floats(-1.0, 1.0), min_size=n, max_size=n))

    u = draw_coeffs(2 * data.draw(st.integers(1, 6)) + 1)
    g = draw_coeffs(2 * data.draw(st.integers(1, 4)) + 1)
    a = rv.CohomologyClass(draw_coeffs(sp.dim))
    F = wave_sum(sp.dim, coord, u)
    with_g = rv.bracket_poly(F, rv.ClosedOneForm(a, wave_sum(sp.dim, coord, g)), sp)
    without = rv.bracket_poly(F, rv.ClosedOneForm(a), sp)
    X = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1))).uniform(-1, 2, (32, sp.dim))
    assert np.max(np.abs(with_g.eval(X) - without.eval(X))) <= 1e-12


def nested_loop_bracket_poly(F, alpha, space):
    """Oracle: the bracket_poly that summed dim^2 Omega^{-1} entries per velocity component."""
    inv = space.omega.inverse
    out = TrigPoly.zero(F.dim)
    grads = [F.partial(j) for j in range(F.dim)]
    for i in range(F.dim):
        v_i = TrigPoly.zero(F.dim)
        for j in range(F.dim):
            if inv[i, j] != 0.0 and grads[j].n_terms:
                v_i = v_i + grads[j] * inv[i, j]
        if v_i.n_terms == 0:
            continue
        c = alpha.cclass.coeffs[i]
        if c != 0.0:
            out = out + v_i * c
        if alpha.potential is not None:
            dg_i = alpha.potential.partial(i)
            if dg_i.n_terms:
                out = out + dg_i.product(v_i)
    return out


def drawn_poly(data, dim, max_terms, time):
    """Up to ``max_terms`` drawn waves with |k| <= 2, time frequencies if ``time``."""
    n = data.draw(st.integers(0, max_terms))
    k = st.lists(st.integers(-2, 2), min_size=dim, max_size=dim)
    terms = data.draw(st.lists(st.tuples(st.floats(-2.0, 2.0), k, st.integers(-1, 1) if time
                                         else st.just(0), st.integers(0, 1)),
                               min_size=n, max_size=n))
    return TrigPoly(dim, [c for c, *_ in terms], np.reshape([t[1] for t in terms], (-1, dim)),
                    [t[2] for t in terms], [t[3] for t in terms])


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_bracket_poly_matches_nested_loop(data):
    sp = SPACES[data.draw(st.integers(0, len(SPACES) - 1))]
    F = drawn_poly(data, sp.dim, 6, time=True)
    g = drawn_poly(data, sp.dim, 4, time=False) if data.draw(st.booleans()) else None
    a = rv.CohomologyClass(data.draw(st.lists(st.floats(-2.0, 2.0), min_size=sp.dim,
                                              max_size=sp.dim)))
    got = bracket_poly(F, rv.ClosedOneForm(a, g), sp)
    expected = nested_loop_bracket_poly(F, rv.ClosedOneForm(a, g), sp)
    scale = 1.0 + got.abs_coeff_sum() + expected.abs_coeff_sum()
    assert np.abs((got - expected).coeffs).max(initial=0.0) <= 1e-12 * scale


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_bracket_poly_bitwise_on_the_standard_form(data):
    # class (0, 0.5) on the standard T^2, what pb-upper and certify bracket with
    sp, alpha = rv.torus(1), rv.one_form([0.0, 0.5])
    F = drawn_poly(data, 2, 8, time=data.draw(st.booleans()))
    got, expected = bracket_poly(F, alpha, sp), nested_loop_bracket_poly(F, alpha, sp)
    for name in ("coeffs", "kvecs", "tfreq", "is_sin"):
        assert np.array_equal(getattr(got, name), getattr(expected, name))


def test_bracket_poly_bitwise_for_the_pb_upper_candidate():
    problem = example1_problem()
    F, alpha = example1_profile(n_modes=32), rv.ClosedOneForm(problem.a)
    got = bracket_poly(F, alpha, problem.space)
    expected = nested_loop_bracket_poly(F, alpha, problem.space)
    for name in ("coeffs", "kvecs", "tfreq", "is_sin"):
        assert np.array_equal(getattr(got, name), getattr(expected, name))


def nelder_mead_oracle(problem, pins, n_modes, restarts=2, max_evals=80, grid_res=512,
                       cert_grid_res=8192, spread=0.5, seed=0):
    """The search pb_upper_bound replaced, as the differential reference.

    Nelder-Mead over the null space of the pin constraints, restart 0 from the
    minimal-slope profile and later restarts from random perturbations of it;
    the best value on the coarse grid is re-certified on the fine one.
    """
    sp = problem.space
    alpha = rv.ClosedOneForm(problem.a)
    P = _profile_basis([t for t, _ in pins], n_modes)
    theta0, *_ = np.linalg.lstsq(P, [v for _, v in pins], rcond=None)
    _, sv, vt = np.linalg.svd(P)
    null = vt[int((sv > 1e-12 * sv[0]).sum()):].T
    seed_profile = rv.make_pinned_profile(pins, n_modes=n_modes)
    z_seed = null.T @ (np.array(seed_profile.metadata["profile_coeffs"]) - theta0)

    def build(z):
        return rv.profile_hamiltonian(_profile_poly(theta0 + null @ z, n_modes), sp.dim)

    def objective(z):
        F = build(z)
        if not problem.validate_candidate(F)[0]:
            return np.inf
        return rv.sup_norm(F, alpha, sp, grid_res=grid_res)

    rng = np.random.default_rng(seed)
    best = None
    for r in range(restarts):
        z0 = z_seed if r == 0 else z_seed + spread * rng.standard_normal(len(z_seed))
        res = minimize(objective, z0, method="Nelder-Mead",
                       options={"maxfev": max_evals, "xatol": 1e-10, "fatol": 1e-12})
        if best is None or res.fun < best.fun:
            best = res
    return rv.sup_norm(build(best.x), alpha, sp, grid_res=cert_grid_res)


@pytest.mark.parametrize("shift", [0.0, 0.13])
def test_pb_upper_bound_no_worse_than_nelder_mead(shift):
    prob, F = example1_problem(shift=shift), example1_profile(n_modes=24, shift=shift)
    value = rv.pb_upper_bound(prob, F, cert_grid_res=8192).value
    assert 0.999 <= value <= nelder_mead_oracle(prob, F.metadata["pins"], 24) + 1e-9


def test_chord_search_examples():
    sp = rv.torus(1)
    X = rv.momentum_level_torus(sp, [0.0])
    Xp = rv.momentum_level_torus(sp, [0.5])
    chord = rv.chord_search(rv.one_form([0.0, 0.5]), sp, X, Xp, t_max=2.0, h=1e-2)
    assert abs(chord.t_star - 1.0) < 1e-9
    assert Xp.defect(chord.end[None, :])[0] < 1e-6
    assert X.contains(chord.start[None, :])[0]
    grid = X.grid.copy()
    chord.start[:] = 7.0  # the start is a copy of its grid row
    assert np.array_equal(X.grid, grid)

    # doubled class: doubled speed
    chord2 = rv.chord_search(rv.one_form([0.0, 1.0]), sp, X, Xp, t_max=2.0, h=1e-2)
    assert abs(chord2.t_star - 0.5) < 1e-9

    # orthogonal flow never reaches the target
    assert rv.chord_search(rv.one_form([1.0, 0.0]), sp, X, Xp, t_max=10.0, h=1e-2) is None


def test_chord_with_potential_perturbation():
    # a potential reshapes alpha within its class; the flow is no longer
    # constant but the chord must still land on the target level
    sp = rv.torus(1)
    X = rv.momentum_level_torus(sp, [0.0])
    Xp = rv.momentum_level_torus(sp, [0.5])
    g = TrigPoly.wave(2, 0.02, [0, 1], 0, "sin")
    alpha = rv.ClosedOneForm(rv.CohomologyClass([0.0, 0.5]), g)
    chord = rv.chord_search(alpha, sp, X, Xp, t_max=4.0, h=1e-2)
    assert chord is not None
    assert Xp.defect(chord.end[None, :])[0] < 1e-6


def test_cotangent_bundle_variant():
    # same story on T*T^1: zero section to the shifted Lagrangian {p = v},
    # connected by the constant flow of v dq in time exactly 1
    sp = rv.cotangent_of_torus(1)
    v = 0.3
    X = rv.momentum_level_torus(sp, [0.0])
    Xp = rv.momentum_level_torus(sp, [v])
    alpha = rv.one_form([0.0, v])
    chord = rv.chord_search(alpha, sp, X, Xp, t_max=2.0, h=1e-2)
    assert abs(chord.t_star - 1.0) < 1e-9
    # momenta are genuine reals here: the level p = v + 1 is NOT on the target
    far = np.array([[v + 1.0, 0.2]])
    assert not Xp.contains(far)[0]

    # pinned Hamiltonian flow on the cotangent side winds the fibers just the same
    F = rv.fourier_hamiltonian(2, SIN2)
    tr = rv.integrate(rv.hamiltonian_field(F, sp), [0.25, 0.0], 50.0, 1e-2)
    val = rv.rotation_pairing(rv.empirical_measure(tr), F, rv.one_form([0.0, 1.0]))
    assert abs(val - np.pi) < 1e-6


def test_time_one_pairing_quadrature_warning():
    import warnings

    from rotvec.errors import QuadratureWarning
    sp = rv.torus(1)
    F = rv.fourier_hamiltonian(2, SIN2)
    mu = rv.time_one_orbit(F, sp, [0.2, 0.0], 10, 1e-2)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(QuadratureWarning):
            rv.rotation_pairing_time_one(mu, F, rv.one_form([0.0, 1.0]), agreement_tol=0.0)


def test_chord_time_bounded_by_floor():
    # the guaranteed bound is 1/floor with the asserted theoretical floor
    prob = example1_problem()
    sp = prob.space
    chord = rv.chord_search(rv.ClosedOneForm(prob.a), sp, prob.X, prob.Xp,
                            t_max=2.0, h=1e-2)
    assert chord.t_star <= 1.0 / prob.floor + 1e-6


# ---------------------------------------------------------------------------
# chord search against the per-seed loop it replaced
# ---------------------------------------------------------------------------

def per_seed_chord_oracle(alpha, space, X, Xp, t_max, h, landing_tol=1e-6):
    """The earlier chord search: every seed stepped on its own at batch 1.

    Returns (start seed lift, t_star, end lift) or None.
    """
    from rotvec.geometry import circular_residual
    field = rv.locally_hamiltonian_field(alpha, space)
    targets = dict(Xp.constraints)
    here = dict(X.constraints)
    coords = [i for i, v in targets.items()
              if i in here and abs(circular_residual(here[i], v)) > 1e-9] or list(targets)

    def first_crossing(X_state, t, step_h, X_next):
        candidates = []
        for i in coords:
            a, b = X_state[0, i], X_next[0, i]
            lo, hi = (a, b) if a <= b else (b, a)
            if space.periodic[i]:
                n0 = int(np.ceil(lo - targets[i] - 1e-15))
                n1 = int(np.floor(hi - targets[i] + 1e-15))
                levels = [targets[i] + n for n in range(n0, n1 + 1)]
            else:
                levels = [targets[i]]
            for level in levels:
                if lo - 1e-15 <= level <= hi + 1e-15 and abs(b - a) > 0:
                    if -1e-12 <= (level - a) / (b - a) <= 1.0 + 1e-12:
                        candidates.append((i, level, a))
        best_hit = None
        for i, level, a in candidates:
            lo_t, hi_t = 0.0, step_h
            sign0 = np.sign(a - level) or 1.0
            for _ in range(80):
                if hi_t - lo_t <= 1e-10:
                    break
                mid = 0.5 * (lo_t + hi_t)
                Y, _ = rv.dynamics.midpoint_step(field.velocity, X_state, t, mid)
                if np.sign(Y[0, i] - level) == sign0:
                    lo_t = mid
                else:
                    hi_t = mid
            t_hit = 0.5 * (lo_t + hi_t)
            Y, _ = rv.dynamics.midpoint_step(field.velocity, X_state, t, t_hit)
            if Xp.defect(Y)[0] <= landing_tol and (best_hit is None or t_hit < best_hit[0]):
                best_hit = (t_hit, Y[0].copy())
        return None if best_hit is None else (t + best_hit[0], best_hit[1])

    best = None
    n_steps = int(np.ceil(t_max / h - 1e-12))
    for x0 in X.grid:
        X_state = x0[None, :].astype(float)
        t = 0.0
        for _ in range(n_steps):
            step_h = min(h, t_max - t)
            X_next, _ = rv.dynamics.midpoint_step(field.velocity, X_state, t, step_h)
            hit = first_crossing(X_state, t, step_h, X_next)
            if hit is not None:
                if best is None or hit[0] < best[0] - 1e-15:
                    best = (hit[0], x0, hit[1])
                break
            X_state = X_next
            t += step_h
            if best is not None and t >= best[0]:
                break
    return None if best is None else (best[1], best[0], best[2])


def _chord_case(name):
    sp = rv.torus(1)
    X, Xp = rv.momentum_level_torus(sp, [0.0]), rv.momentum_level_torus(sp, [0.5])
    if name == "builtin":
        return rv.one_form([0.0, 0.5]), sp, X, Xp, 2.0, 1e-2
    if name == "doubled":
        return rv.one_form([0.0, 1.0]), sp, X, Xp, 2.0, 1e-2
    if name == "potential":
        g = TrigPoly.wave(2, 0.02, [0, 1], 0, "sin")
        return rv.ClosedOneForm(rv.CohomologyClass([0.0, 0.5]), g), sp, X, Xp, 4.0, 1e-2
    if name == "cotangent":
        ct = rv.cotangent_of_torus(1)
        return (rv.one_form([0.0, 0.3]), ct, rv.momentum_level_torus(ct, [0.0]),
                rv.momentum_level_torus(ct, [0.3]), 2.0, 1e-2)
    if name == "mid-step":  # a shifted pair landing mid-step, as the benchmark's chords do
        c, level = 0.61, 0.137
        h = 0.5 / c / 200.5
        return (rv.one_form([0.0, c]), sp, rv.momentum_level_torus(sp, [level]),
                rv.momentum_level_torus(sp, [level + 0.5]), 300 * h, h)
    if name == "short-t_max":
        return rv.one_form([0.0, 0.5]), sp, X, Xp, 0.5, 1e-2
    if name == "big-step":  # the first step passes the levels 0.5, 1.5 and 2.5
        return rv.one_form([0.0, 1.0]), sp, X, Xp, 10.0, 3.0
    if name == "big-step-backward":  # passes -0.5, -1.5 and -2.5: the first is the highest
        return rv.one_form([0.0, -1.0]), sp, X, Xp, 10.0, 3.0
    if name.startswith("two-coordinate"):
        # p = (t/2, 3t/4) crosses p1 = 1/2 and p2 = 1/4 (mod 1) on their own
        # first; both levels hold together only at t = 3
        t4 = rv.torus(2)
        h = 0.7 if name.endswith("0.7") else 1e-2
        return (rv.one_form([0.0, 0.0, 0.5, 0.75]), t4,
                rv.momentum_level_torus(t4, [0.0, 0.0], per_dim=4),
                rv.momentum_level_torus(t4, [0.5, 0.25], per_dim=4), 5.0, h)
    assert name == "orthogonal"
    return rv.one_form([1.0, 0.0]), sp, X, Xp, 10.0, 1e-2


@pytest.mark.parametrize("name", ["builtin", "doubled", "potential", "cotangent", "mid-step",
                                  "short-t_max", "orthogonal", "big-step", "big-step-backward",
                                  "two-coordinate-h0.7", "two-coordinate-h0.01"])
def test_chord_search_matches_per_seed_oracle(name):
    alpha, sp, X, Xp, t_max, h = _chord_case(name)
    chord = rv.chord_search(alpha, sp, X, Xp, t_max=t_max, h=h)
    oracle = per_seed_chord_oracle(alpha, sp, X, Xp, t_max, h)
    if name in ("short-t_max", "orthogonal"):
        assert chord is None and oracle is None
        return
    start, t_star, end = oracle
    if name.startswith("two-coordinate"):
        assert abs(t_star - 3.0) <= 1e-9
    assert np.array_equal(chord.start, start)  # same seed, same tie rule
    # constant-velocity forms bisect identical states, so only the node time
    # differs: k*h here, a running sum of k steps h (k half-ulps) in the oracle
    tol = 1e-10 if name == "potential" else t_star / h * np.spacing(t_star)
    assert abs(chord.t_star - t_star) <= tol
    assert np.abs(chord.end - end).max() <= 1e-9
