import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.optimize import OptimizeResult, linprog
from test_trig import dds

import rotvec as rv
from rotvec import fields
from rotvec.errors import InfeasiblePins, RotvecError
from rotvec.fields import LP_KEYS, SLOPE_GRID, _min_slope_lp, _profile_basis, _profile_poly
from rotvec.trig import TWO_PI, TrigPoly

SIN2 = [(0.5, [0, 0], 0, "cos"), (-0.5, [1, 0], 0, "cos")]  # sin^2(pi p1) on T^2


def sin2_hamiltonian():
    return rv.fourier_hamiltonian(2, SIN2)


def test_eval_examples():
    F = sin2_hamiltonian()
    assert F.eval([0.0, 0.0]) == pytest.approx(0.0, abs=1e-14)
    assert F.eval([0.5, 0.0]) == pytest.approx(1.0, abs=1e-14)
    assert F.eval([0.25, 0.0]) == pytest.approx(0.5, abs=1e-14)


def test_grad_examples():
    F = sin2_hamiltonian()
    g = F.grad([0.25, 0.3])
    assert g[0] == pytest.approx(np.pi, abs=1e-12)  # d/dp1 sin^2(pi p1) = pi sin(2 pi p1)
    assert g[1] == pytest.approx(0.0, abs=1e-14)
    const = rv.fourier_hamiltonian(2, [(3.0, [0, 0], 0, "cos")])
    assert np.allclose(const.grad([0.1, 0.9]), 0.0)


def test_dds_examples():
    F = sin2_hamiltonian()
    assert dds(F, [0.3, 0.1], 0.7) == 0.0
    assert not F.is_time_dependent
    eps = 0.2
    Ft = rv.fourier_hamiltonian(2, SIN2 + [(eps / 2, [1, 0], -1, "cos"),
                                           (-eps / 2, [1, 0], 1, "cos")])
    assert Ft.is_time_dependent
    p1, s = 0.13, 0.41
    expected = 2 * np.pi * eps * np.cos(2 * np.pi * s) * np.sin(2 * np.pi * p1)
    assert dds(Ft, [p1, 0.0], s) == pytest.approx(expected, abs=1e-12)
    # 1-periodicity in s
    assert Ft.eval([p1, 0.2], s) == pytest.approx(Ft.eval([p1, 0.2], s + 1.0), abs=1e-12)


def test_gradient_consistency_random_sweep():
    rng = np.random.default_rng(0)
    h = 1e-5
    for _ in range(100):
        terms = []
        for _ in range(rng.integers(1, 5)):
            terms.append((rng.normal(), rng.integers(-2, 3, 2).tolist(),
                          int(rng.integers(-1, 2)), "sin" if rng.random() < 0.5 else "cos"))
        F = rv.fourier_hamiltonian(2, terms)
        x = rng.random(2)
        s = rng.random()
        g = F.grad(x, s)
        for j in range(2):
            dx = np.zeros(2)
            dx[j] = h
            fd = (F.eval(x + dx, s) - F.eval(x - dx, s)) / (2 * h)
            assert abs(g[j] - fd) / (1 + abs(g[j])) < 1e-6


def test_periodicity_on_lifts():
    F = sin2_hamiltonian()
    x = np.array([0.37, 0.81])
    shifted = x + np.array([4.0, -7.0])
    assert F.eval(x) == pytest.approx(F.eval(shifted), abs=1e-12)
    assert np.allclose(F.grad(x), F.grad(shifted), atol=1e-12)


def test_sum_and_product_composites():
    F = sin2_hamiltonian()
    G = rv.fourier_hamiltonian(2, [(1.0, [0, 1], 0, "sin")])
    x = np.array([0.21, 0.64])
    assert (F + G).eval(x) == pytest.approx(F.eval(x) + G.eval(x), abs=1e-13)
    assert (F * G).eval(x) == pytest.approx(F.eval(x) * G.eval(x), abs=1e-13)
    assert (2.5 * F).eval(x) == pytest.approx(2.5 * F.eval(x), abs=1e-13)


# ---------------------------------------------------------------------------
# pinned profiles
# ---------------------------------------------------------------------------

def piecewise_linear_min_slope(pins, m=256):
    """Independent oracle: minimal max|u'| over discretized periodic profiles.

    Linear program over piecewise-linear u on a uniform m-grid, nothing shared
    with the trigonometric construction under test.
    """
    idx = {}
    for t, v in pins:
        i = int(round(t * m)) % m
        assert abs(i / m - t % 1.0) < 1e-12, "oracle grid must contain the pins"
        idx[i] = v
    # variables: u_0..u_{m-1}, tau ; slopes are (u_{i+1} - u_i) * m cyclically
    n = m + 1
    a_ub, b_ub = [], []
    for i in range(m):
        row = np.zeros(n)
        row[i], row[(i + 1) % m] = -m, m
        row[-1] = -1.0
        a_ub.append(row.copy())
        b_ub.append(0.0)
        row[:m] *= -1
        a_ub.append(row)
        b_ub.append(0.0)
    a_eq = []
    b_eq = []
    for i, v in idx.items():
        row = np.zeros(n)
        row[i] = 1.0
        a_eq.append(row)
        b_eq.append(v)
    res = linprog(np.eye(n)[-1], A_ub=np.array(a_ub), b_ub=b_ub,
                  A_eq=np.array(a_eq), b_eq=b_eq,
                  bounds=[(None, None)] * m + [(0, None)], method="highs")
    assert res.success
    return res.fun


def test_min_slope_oracle_value():
    # going 0 -> 1 over half a period and back forces max|u'| >= 2; the
    # triangular profile attains it, so the oracle must return exactly 2
    value = piecewise_linear_min_slope([(0.0, 0.0), (0.5, 1.0)])
    assert value == pytest.approx(2.0, abs=1e-9)


def test_pinned_profile_meets_slope_target():
    F = rv.make_pinned_profile([(0.0, 0.0), (0.5, 1.0)], n_modes=32)
    meta = F.metadata
    assert meta["certified_slope"] <= 2.1
    # pins reproduced
    assert F.eval([0.0, 0.0]) == pytest.approx(0.0, abs=1e-10)
    assert F.eval([0.5, 0.0]) == pytest.approx(1.0, abs=1e-10)
    # certified slope can never beat the infinite-dimensional optimum
    assert meta["certified_slope"] >= piecewise_linear_min_slope([(0.0, 0.0), (0.5, 1.0)])


def test_pinned_profile_certificate_dominates_fine_grid():
    F = rv.make_pinned_profile([(0.0, 0.0), (0.5, 1.0)], n_modes=16)
    t = np.arange(16384) / 16384.0
    pts = np.zeros((len(t), 2))
    pts[:, 0] = t
    fine_max = np.abs(F.grad(pts)[:, 0]).max()
    assert F.metadata["certified_slope"] >= fine_max


def test_pinned_profile_single_pin_gives_flat():
    F = rv.make_pinned_profile([(0.0, 0.0)], n_modes=8)
    pts = np.column_stack([np.linspace(0, 1, 64), np.zeros(64)])
    assert np.allclose(F.eval(pts), 0.0, atol=1e-12)


def test_infeasible_pins():
    with pytest.raises(InfeasiblePins):
        rv.make_pinned_profile([(0.0, 0.0), (0.0, 1.0)])


@pytest.mark.parametrize("pins, n_modes", [([(0.0, 0.0), (1.0, 1.0)], 12),  # the same time mod 1
                                           ([(0.0, 0.0), (0.25, 1.0), (0.5, 0.0), (0.75, 1.0)], 1)])
def test_infeasible_pins_mod_one_and_too_many(pins, n_modes):
    # the check validate_config shares (fields.pin_conflict) still raises here
    with pytest.raises(InfeasiblePins):
        rv.make_pinned_profile(pins, n_modes=n_modes)


def test_twelve_modes_cannot_certify_2_1():
    # the minimax slope of a 12-mode profile with these pins is ~2.186, so the
    # certificate reports a slope above 2.1 rather than silently claiming it
    F = rv.make_pinned_profile([(0.0, 0.0), (0.5, 1.0)], n_modes=12)
    assert F.metadata["certified_slope"] > 2.1


def test_parse_family_roundtrip():
    F = rv.parse_family({"family": "fourier", "coeffs": [[0.5, [0, 0], 0, "cos"],
                                                         [-0.5, [1, 0], 0, "cos"]]}, 2)
    assert F.eval([0.25, 0.0]) == pytest.approx(0.5)
    G = rv.parse_family({"family": "pinned-profile", "pins": [[0.0, 0.0], [0.5, 1.0]],
                         "n_modes": 8}, 2)
    assert G.eval([0.5, 0.0]) == pytest.approx(1.0, abs=1e-10)
    with pytest.raises(ValueError):
        rv.parse_family({"family": "nope"}, 2)


def test_derived_hamiltonians_carry_no_metadata():
    # 2 F has twice F's slope: a certificate copied onto it would be false
    F = rv.make_pinned_profile([(0.0, 0.0), (0.5, 1.0)], n_modes=16)
    for G in (2 * F, F * 2.0, F + 1.0, F + F, F * F):
        assert G.metadata == {}
    assert not hasattr(F, "family")


# ---------------------------------------------------------------------------
# differential tests against the replaced per-mode and per-wave loops
# ---------------------------------------------------------------------------

def per_mode_profile_basis(t, n_modes, derivative=False):
    """Oracle: the per-mode column loop _profile_basis replaced."""
    t = np.atleast_1d(np.asarray(t, dtype=float))
    cols = [np.zeros_like(t) if derivative else np.ones_like(t)]
    for j in range(1, n_modes + 1):
        w = TWO_PI * j
        if derivative:
            cols.append(-w * np.sin(w * t))
            cols.append(w * np.cos(w * t))
        else:
            cols.append(np.cos(w * t))
            cols.append(np.sin(w * t))
    return np.stack(cols, axis=-1)


def per_mode_profile_poly(theta, n_modes):
    """Oracle: the per-mode term loop _profile_poly replaced."""
    coeffs, kvecs, kinds = [theta[0]], [[0]], [0]
    for j in range(1, n_modes + 1):
        coeffs += [theta[2 * j - 1], theta[2 * j]]
        kvecs += [[j], [j]]
        kinds += [0, 1]
    return TrigPoly(1, coeffs, kvecs, np.zeros(len(coeffs)), kinds)


def assert_bitwise_equal(got, expected):
    assert got.dtype == expected.dtype and got.shape == expected.shape
    assert got.tobytes() == expected.tobytes()  # also tells -0.0 from 0.0


@pytest.mark.parametrize("derivative", [False, True])
def test_profile_basis_matches_per_mode_loop_on_the_slope_grid(derivative):
    t = np.arange(SLOPE_GRID) / SLOPE_GRID
    for n_modes in range(1, 49):
        assert_bitwise_equal(_profile_basis(t, n_modes, derivative),
                             per_mode_profile_basis(t, n_modes, derivative))


@settings(max_examples=100, deadline=None)
@given(t=st.one_of(st.floats(-1e3, 1e3), st.lists(st.floats(-1e3, 1e3), max_size=8)),
       n_modes=st.integers(1, 48), derivative=st.booleans(), seed=st.integers(0, 2 ** 32 - 1))
def test_profile_basis_and_poly_match_per_mode_loops(t, n_modes, derivative, seed):
    assert_bitwise_equal(_profile_basis(t, n_modes, derivative),
                         per_mode_profile_basis(t, n_modes, derivative))
    theta = np.random.default_rng(seed).normal(size=2 * n_modes + 1)
    got, expected = _profile_poly(theta, n_modes), per_mode_profile_poly(theta, n_modes)
    for name in ("coeffs", "kvecs", "tfreq", "is_sin"):
        assert_bitwise_equal(getattr(got, name), getattr(expected, name))


def per_wave_sum(dim, terms):
    """Oracle: the per-wave sum fourier_hamiltonian replaced, canonicalizing once per wave."""
    poly = TrigPoly.zero(dim)
    for coeff, kvec, tfreq, kind in terms:
        poly = poly + TrigPoly.wave(dim, coeff, kvec, tfreq, kind)
    return poly


@st.composite
def wave_lists(draw):
    """(dim, waves) with repeated, cancelling and sign-flipped waves."""
    dim = draw(st.integers(1, 3))
    wave = st.tuples(st.floats(-2.0, 2.0), st.lists(st.integers(-2, 2), min_size=dim, max_size=dim),
                     st.integers(-1, 1), st.sampled_from(["cos", "sin"]))
    waves = draw(st.lists(wave, max_size=8))
    for _ in range(draw(st.integers(0, 4)) if waves else 0):
        c, k, m, kind = draw(st.sampled_from(waves))
        edit = draw(st.sampled_from(["repeat", "cancel", "flip"]))
        if edit == "repeat":
            waves.append((draw(st.floats(-2.0, 2.0)), k, m, kind))
        elif edit == "cancel":
            waves.append((-c, k, m, kind))
        else:  # the same wave with (k, m) negated: sin flips its sign on canonicalization
            waves.append((c, [-x for x in k], -m, kind))
    return dim, waves


@settings(max_examples=150, deadline=None)
@given(wave_lists())
def test_fourier_hamiltonian_matches_per_wave_sum(dim_waves):
    dim, waves = dim_waves
    got, expected = rv.fourier_hamiltonian(dim, waves), per_wave_sum(dim, waves)
    for name in ("coeffs", "kvecs", "tfreq", "is_sin"):
        assert_bitwise_equal(getattr(got, name), getattr(expected, name))


# ---------------------------------------------------------------------------
# the constraint-exchange slope LP against the full LP it replaced
# ---------------------------------------------------------------------------

def full_slope_lp(pins, n_modes, grid_res=SLOPE_GRID):
    """Oracle: the slope LP on all 2 x grid_res rows in one HiGHS call, the
    solve the constraint exchange replaced."""
    pts = np.array([t for t, _ in pins])
    vals = np.array([v for _, v in pins])
    n_params = 2 * n_modes + 1
    B = _profile_basis(np.arange(grid_res) / grid_res, n_modes, derivative=True)
    tau = np.full((grid_res, 1), -1.0)
    res = linprog(np.append(np.zeros(n_params), 1.0), A_ub=np.block([[B, tau], [-B, tau]]),
                  b_ub=np.zeros(2 * grid_res),
                  A_eq=np.hstack([_profile_basis(pts, n_modes), np.zeros((len(vals), 1))]),
                  b_eq=vals, bounds=[(None, None)] * n_params + [(0, None)], method="highs")
    assert res.success, res.message
    return res.x[:n_params], res.x[-1]


def grid_slopes(theta, n_modes, grid_res=SLOPE_GRID):
    B = _profile_basis(np.arange(grid_res) / grid_res, n_modes, derivative=True)
    return np.abs(B @ theta)


@pytest.mark.parametrize("n_modes", [8, 12, 16, 24, 32, 40, 48])
def test_exchange_certifies_the_full_lp_slope_on_example1_pins(n_modes):
    # the Example-1 optimum is unique, so the certificate (grid max plus pad)
    # of the exchange's profile is the full LP's to rounding
    a = (0.37 * n_modes) % 0.5
    pins = [(a, 0.0), (a + 0.5, 1.0)]
    meta = rv.make_pinned_profile(pins, n_modes=n_modes).metadata
    theta, _ = full_slope_lp(pins, n_modes)
    lo, hi, pad = _profile_poly(theta, n_modes).partial(0).certified_bounds(SLOPE_GRID)
    assert abs(meta["certified_slope"] - (max(hi, -lo) + pad)) <= 1e-12
    assert meta["lp_status"] == 0 and meta["lp_rows"] < SLOPE_GRID // 4


@st.composite
def pin_sets(draw):
    """(pins, n_modes): up to 4 pins (and 2 n_modes + 1) at distinct times, 1/256 apart."""
    n_modes = draw(st.integers(1, 12))
    slots = draw(st.lists(st.integers(0, 255), min_size=1, max_size=min(4, 2 * n_modes + 1),
                          unique=True))
    shift = draw(st.floats(0.0, 1.0, exclude_max=True))
    pins = [((i + shift) / 256, draw(st.floats(-1.0, 1.0))) for i in slots]
    return pins, n_modes


@settings(max_examples=12, deadline=None)
@given(pin_sets())
def test_exchange_matches_the_full_lp_value(pins_modes):
    pins, n_modes = pins_modes
    meta = rv.make_pinned_profile(pins, n_modes=n_modes).metadata
    theta_full, tau_full = full_slope_lp(pins, n_modes)
    # both solves hold to HiGHS's feasibility tolerances (1e-7): the one-call
    # solve left |u'| up to 8.9e-7 (relative) above its tau on random pins
    tol = 1e-6 * (1.0 + tau_full)
    assert grid_slopes(theta_full, n_modes).max() <= tau_full + tol
    # the LP value is unique even where the optimal profile is not
    assert abs(meta["slope_grid_max"] - tau_full) <= tol
    assert abs(meta["lp_value"] - tau_full) <= tol
    # the returned profile is feasible on every grid row at the exchange's tau
    theta = np.array(meta["profile_coeffs"])
    assert grid_slopes(theta, n_modes).max() <= meta["lp_value"] + tol
    assert meta["lp_status"] == 0 and meta["lp_rounds"] >= 1


def test_exchange_stall_guard_solves_the_full_lp():
    # two close pins: the optimal face is not a point, tau stops rising while
    # rows are still violated, and the guard's round takes every row
    pins, n_modes, grid_res = [(0.867, 0.87), (0.845, 0.17)], 5, 512
    theta, solver = _min_slope_lp(pins, n_modes, grid_res)
    assert solver["lp_rows"] == grid_res and solver["lp_status"] == 0
    theta_full, tau_full = full_slope_lp(pins, n_modes, grid_res)
    assert solver["lp_value"] == pytest.approx(tau_full, rel=1e-12)
    assert np.array_equal(theta, theta_full)  # the guard's round is the one-call solve


def test_exchange_stall_guard_solves_degenerate_pins_by_interior_point():
    # the simplex stops on the guard's full LP with HiGHS status 15 (about 20 s);
    # the interior-point retry solves it at the mean-value floor L
    pins = [(0.42118881422895527, 0.8994798381096734), (0.10592123670732445, 0.141272809659597)]
    floor = abs(pins[0][1] - pins[1][1]) / (pins[0][0] - pins[1][0])  # |dv| / shorter arc
    meta = rv.make_pinned_profile(pins, n_modes=31).metadata
    assert meta["lp_status"] == 0 and meta["lp_rows"] == SLOPE_GRID
    assert abs(meta["lp_value"] - floor) <= 2e-9  # 1.09e-9 measured
    assert meta["certified_slope"] >= floor  # max|u'| >= floor by the mean value theorem


def test_exchange_solves_a_stalled_sub_lp_by_interior_point():
    # the simplex stops on round 2 (292 rows) with HiGHS status 15; the
    # interior-point retry answers, and the exchange ends at the full LP value
    pins, n_modes = [(0.61328125, 0.0), (0.390625, 0.16143357066911812),
                     (0.6796875, -0.3333333333333333)], 12
    meta = rv.make_pinned_profile(pins, n_modes=n_modes).metadata
    _, tau_full = full_slope_lp(pins, n_modes)
    assert meta["lp_status"] == 0
    assert abs(meta["slope_grid_max"] - tau_full) <= 1e-6 * (1.0 + tau_full)


def counting_linprog(monkeypatch):
    calls = []

    def counted(*args, **kwargs):
        calls.append(1)
        return linprog(*args, **kwargs)
    # _min_slope_lp imports linprog from scipy.optimize on each solve
    monkeypatch.setattr("scipy.optimize.linprog", counted)
    return calls


def test_slope_lp_cache_returns_copies(monkeypatch):
    calls = counting_linprog(monkeypatch)
    pins = [(0.0625, 0.0), (0.5625, 1.0)]
    F = rv.make_pinned_profile(pins, n_modes=6)
    solved = len(calls)
    F.metadata["profile_coeffs"][0] = 99.0
    G = rv.make_pinned_profile(pins, n_modes=6)
    assert len(calls) == solved  # a hit runs no solve
    assert G.metadata["profile_coeffs"][0] != 99.0
    assert {k: G.metadata[k] for k in LP_KEYS} == {k: F.metadata[k] for k in LP_KEYS}
    first, _ = _min_slope_lp(pins, 6, SLOPE_GRID)
    second, _ = _min_slope_lp(pins, 6, SLOPE_GRID)
    assert first is not second and np.array_equal(first, second)
    expected = first.copy()
    first[:] = 0.0
    assert np.array_equal(_min_slope_lp(pins, 6, SLOPE_GRID)[0], expected)
    assert np.array_equal(np.array(G.metadata["profile_coeffs"]), expected)


def test_slope_lp_cache_keys_on_the_exact_inputs(monkeypatch):
    calls = counting_linprog(monkeypatch)
    pins = [(0.125, 0.25), (0.625, 0.75)]
    _min_slope_lp(pins, 4, 256)
    for other in ([(np.nextafter(0.125, 1.0), 0.25), (0.625, 0.75)],  # one ulp in a time
                  [(0.125, 0.25), (0.625, np.nextafter(0.75, 0.0))]):  # and in a value
        before = len(calls)
        _min_slope_lp(other, 4, 256)
        assert len(calls) > before
    for n_modes, grid_res in ((5, 256), (4, 512)):
        before = len(calls)
        _min_slope_lp(pins, n_modes, grid_res)
        assert len(calls) > before
    before = len(calls)
    _min_slope_lp(pins, 4, 256)
    assert len(calls) == before


def test_slope_lp_cache_is_bounded():
    for j in range(fields._LP_CACHE_SIZE + 8):
        _min_slope_lp([(0.0, 0.0), (0.5, j / 64)], 1, 16)
        assert len(fields._LP_CACHE) <= fields._LP_CACHE_SIZE


@pytest.mark.parametrize("status, error", [(2, InfeasiblePins), (4, RotvecError)])
def test_solver_failure_is_not_reported_as_infeasible_pins(monkeypatch, status, error):
    # HiGHS can stop with an unknown model status and a feasible point (pins
    # (0.4212, 0.8995), (0.1059, 0.1413) at 31 modes, after 13 s or more);
    # only its infeasible verdict (status 2) means the pins cannot be met
    message = {2: "The problem is infeasible.",
               4: "(HiGHS Status 15: model_status is Unknown; primal_status is Feasible)"}[status]
    monkeypatch.setattr(fields, "_LP_CACHE", {})  # a cached solve would not reach linprog
    monkeypatch.setattr("scipy.optimize.linprog", lambda *a, **k: OptimizeResult(
        status=status, success=False, message=message, x=None))
    with pytest.raises(error) as info:
        rv.make_pinned_profile([(0.1875, 0.3), (0.4375, 0.9)], n_modes=3)
    assert (type(info.value) is InfeasiblePins) == (status == 2)
    assert message in str(info.value)
    if status != 2:
        assert f"status {status}" in str(info.value)
