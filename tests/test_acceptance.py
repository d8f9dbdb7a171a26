"""Acceptance suite: the seven headline checks at full scale.

Each test runs one criterion at its declared tolerance and runtime budget and
prints a single PASS line with the measured numbers (run with ``pytest -s``
to see them live). Budgets are wall-clock seconds on a commodity machine.
"""

import time

import numpy as np
import pytest

import rotvec as rv
from rotvec.trig import TrigPoly

SIN2 = [(0.5, [0, 0], 0, "cos"), (-0.5, [1, 0], 0, "cos")]
NONAUTO = SIN2 + [(0.1, [1, 0], -1, "cos"), (-0.1, [1, 0], 1, "cos")]


def _report(name, passed, detail, elapsed, budget):
    status = "PASS" if passed else "FAIL"
    print(f"[ACCEPTANCE] {name}: {status}  ({detail}; {elapsed:.1f}s of {budget:.0f}s budget)")


def test_criterion_1_example1_lower_bound():
    budget = 60.0
    start = time.perf_counter()
    sp = rv.torus(1)
    F = rv.fourier_hamiltonian(2, SIN2)
    alpha = rv.one_form([0.0, 0.5])
    seeds = rv.full_seed_grid(sp, 32)
    _, best, report = rv.extremal_orbit_search(F, alpha, sp, seeds,
                                               T0=100.0, T_max=1e4, h=1e-2)
    full_class = 2.0 * best  # rescale the (1/2)[dq1]-pairing to [dq1]
    elapsed = time.perf_counter() - start
    ok = full_class >= 2.0 and abs(full_class - np.pi) <= 1e-3 and elapsed <= budget
    _report("1 example1-bound", ok,
            f"<[dq1], rho> = {full_class:.6f} >= 2, |.-pi| = {abs(full_class - np.pi):.1e}",
            elapsed, budget)
    assert full_class >= 2.0
    assert abs(full_class - np.pi) <= 1e-3
    assert report.converged
    assert elapsed <= budget


def test_criterion_2_example1_sharpness():
    budget = 60.0
    start = time.perf_counter()
    sp = rv.torus(1)
    F = rv.make_pinned_profile([(0.0, 0.0), (0.5, 1.0)], n_modes=32)
    certified = F.metadata["certified_slope"]
    alpha = rv.one_form([0.0, 1.0])
    seeds = rv.full_seed_grid(sp, 32)
    _, _, report = rv.extremal_orbit_search(F, alpha, sp, seeds,
                                            T0=100.0, T_max=1e4, h=1e-2)
    worst = float(np.max(report.per_seed_values))
    elapsed = time.perf_counter() - start
    ok = certified <= 2.1 and worst <= 2.1 + 1e-6 and elapsed <= budget
    _report("2 example1-sharpness", ok,
            f"certified max|u'| = {certified:.4f} <= 2.1, worst seed pairing = {worst:.4f}",
            elapsed, budget)
    assert certified <= 2.1
    assert np.all(report.per_seed_values <= 2.1 + 1e-6)
    assert elapsed <= budget


def test_criterion_3_twisted_rotation_vector():
    budget = 120.0
    start = time.perf_counter()
    gamma = rv.DEFAULT_GAMMA
    sp4 = rv.torus(2, rv.twisted_structure(gamma))
    F4 = rv.fourier_hamiltonian(4, [(0.5, [0] * 4, 0, "cos"), (-0.5, [1, 0, 0, 0], 0, "cos")])
    traj = rv.integrate(rv.hamiltonian_field(F4, sp4), [0.2, 0.0, 0.0, 0.0], 1e4, 1e-2)
    rho = rv.rotation_vector(rv.empirical_measure(traj), F4)
    speed = np.pi * np.sin(0.4 * np.pi)
    q_err = float(np.abs(rho.coeffs[2:] - [speed, -gamma * speed]).max())
    p_max = float(np.abs(rho.coeffs[:2]).max())
    elapsed = time.perf_counter() - start
    ok = q_err <= 1e-3 and p_max <= 1e-8 and elapsed <= budget
    _report("3 example3-twisted", ok,
            f"rho_q err = {q_err:.1e} <= 1e-3, rho_p = {p_max:.1e} <= 1e-8", elapsed, budget)
    assert q_err <= 1e-3
    assert p_max <= 1e-8
    assert elapsed <= budget


def test_criterion_4_pb_upper_bound():
    budget = 600.0
    start = time.perf_counter()
    sp = rv.torus(1)
    a = rv.CohomologyClass([0.0, 0.5])
    X = rv.momentum_level_torus(sp, [0.0])
    Xp = rv.momentum_level_torus(sp, [0.5])
    F = rv.make_pinned_profile([(0.0, 0.0), (0.5, 1.0)], n_modes=32)
    problem = rv.PbProblem(sp, X, Xp, a, floor=1.0)
    result = rv.pb_upper_bound(problem, F, cert_grid_res=8192)
    elapsed = time.perf_counter() - start
    ok = 0.999 <= result.value <= 1.05 and elapsed <= budget
    _report("4 pb-upper", ok, f"certified bound = {result.value:.5f} in [0.999, 1.05]",
            elapsed, budget)
    assert 0.999 <= result.value <= 1.05
    assert result.value >= 0.999
    assert elapsed <= budget


def test_criterion_5_chord():
    budget = 5.0
    start = time.perf_counter()
    sp = rv.torus(1)
    X = rv.momentum_level_torus(sp, [0.0])
    Xp = rv.momentum_level_torus(sp, [0.5])
    chord = rv.chord_search(rv.one_form([0.0, 0.5]), sp, X, Xp, t_max=2.0, h=1e-2)
    elapsed = time.perf_counter() - start
    err = abs(chord.t_star - 1.0)
    ok = err <= 1e-9 and chord.t_star <= 1.0 / 1.0 + 1e-9 and elapsed <= budget
    _report("5 chord", ok, f"t* = {chord.t_star:.12f}, |t* - 1| = {err:.1e} <= 1e-9",
            elapsed, budget)
    assert err <= 1e-9
    assert chord.t_star <= 1.0 + 1e-9  # within the guaranteed 1/floor
    assert elapsed <= budget


def test_criterion_6_nonautonomous_suspension():
    budget = 300.0
    start = time.perf_counter()
    sp = rv.torus(1)
    F = rv.fourier_hamiltonian(2, NONAUTO)
    alpha = rv.one_form([0.0, 1.0])
    seeds = rv.momentum_seed_grid(sp, 32)
    best, val, report = rv.map_orbit_search(F, alpha, sp, seeds,
                                            n0=100, n_max=10000, h=1e-2)
    mu = rv.time_one_orbit(F, sp, best, int(report.horizons[-1]), 1e-2)
    loop, double = rv.rotation_pairing_time_one(mu, F, alpha)
    agreement = abs(loop - double)
    elapsed = time.perf_counter() - start
    ok = val >= 2.0 - 1e-2 and agreement <= 1e-6 and elapsed <= budget
    _report("6 nonauto-suspension", ok,
            f"|<[dq1], rho(mu, phi)>| = {val:.6f} >= 1.99, formula gap = {agreement:.1e}",
            elapsed, budget)
    assert val >= 2.0 - 1e-2
    assert agreement <= 1e-6
    assert elapsed <= budget


def test_criterion_7_property_suites():
    start = time.perf_counter()
    checks = {}

    # bracket identity at 1000 random configurations, tolerance 1e-10
    rng = np.random.default_rng(7)
    spaces = [rv.torus(1), rv.torus(2, rv.twisted_structure())]
    worst_gap = 0.0
    for i in range(1000):
        sp = spaces[i % 2]
        d = sp.dim
        F = rv.fourier_hamiltonian(d, [(rng.normal(), rng.integers(-2, 3, d).tolist(), 0,
                                        "sin" if rng.random() < 0.5 else "cos")
                                       for _ in range(3)])
        pot = TrigPoly.wave(d, rng.normal(), rng.integers(-2, 3, d), 0, "sin")
        al = rv.ClosedOneForm(rv.CohomologyClass(rng.normal(size=d)), pot)
        x = rng.random(d)
        dF = F.grad(x)
        a_x = al.coefficients(x)
        gap = abs(dF @ (-sp.omega.inverse @ a_x) - a_x @ (sp.omega.inverse @ dF))
        worst_gap = max(worst_gap, gap)
    checks["bracket identity"] = worst_gap <= 1e-10

    # energy drift <= 1e-8 over T = 1e4 on the builtin autonomous fields
    sp2 = rv.torus(1)
    F2 = rv.fourier_hamiltonian(2, SIN2)
    drift2 = rv.integrate(rv.hamiltonian_field(F2, sp2), [0.23, 0.41], 1e4, 1e-2).energy_drift()
    sp4 = rv.torus(2, rv.twisted_structure())
    F4 = rv.fourier_hamiltonian(4, [(0.5, [0] * 4, 0, "cos"), (-0.5, [1, 0, 0, 0], 0, "cos")])
    drift4 = rv.integrate(rv.hamiltonian_field(F4, sp4), [0.2, 0.3, 0.1, 0.7], 1e4,
                          1e-2).energy_drift()
    checks["energy drift"] = max(drift2, drift4) <= 1e-8

    # suspension: |r(t)| <= max F - min F + 1e-6 from r = 0, and H drift at
    # whole periods
    F = rv.fourier_hamiltonian(2, NONAUTO)
    H = rv.SuspendedHamiltonian(F, sp2)
    f_grid = np.stack([np.linspace(0, 1, 512, endpoint=False),
                       np.zeros(512)], axis=1)
    f_vals = [F.eval(f_grid, s) for s in np.linspace(0, 1, 64, endpoint=False)]
    f_range = float(np.max(f_vals) - np.min(f_vals))
    # the three orbits p1 = 0.1, 0.25, 0.37 as one batch, checked row by row
    Z0 = np.stack([rv.extended_point([p1, 0.0], 0.0, 0.0, H.nspace)
                   for p1 in (0.1, 0.25, 0.37)])
    straj = rv.suspension_flow(H, Z0, 1000.0, 1e-2)
    r_max = np.abs(straj.lifts[:, :, 1]).max(axis=0)
    unit = straj.energies[::100]
    h_drift = np.abs(unit - unit[0]).max(axis=0)
    checks["r-coordinate bound"] = bool(np.all(r_max <= f_range + 1e-6))
    checks["H drift per 1e3 units"] = bool(np.all(h_drift <= 1e-8))

    # shift equivariance <= 1e-7 for |c| <= 10, T <= 100
    z0 = rv.extended_point([0.2, 0.3], 0.0, 0.0, H.nspace)
    equiv = max(rv.shift_equivariance_check(H, z0, c, T, 1e-2)
                for c, T in [(1.0, 10.0), (-3.7, 100.0), (10.0, 100.0)])
    checks["shift equivariance"] = equiv <= 1e-7

    # exact-form boundary bound with factor-3 slack
    g = TrigPoly.wave(2, 0.4, [0, 1], 0, "sin") + TrigPoly.wave(2, 0.2, [1, 1], 0, "cos")
    alpha_exact = rv.ClosedOneForm(rv.CohomologyClass([0.0, 0.0]), g)
    bound_ok = True
    for T in (100.0, 400.0):
        tr = rv.integrate(rv.hamiltonian_field(F2, sp2), [0.2, 0.0], T, 1e-2)
        val = rv.rotation_pairing(rv.empirical_measure(tr), F2, alpha_exact)
        bound_ok &= bool(abs(val) <= 3 * 2 * g.abs_coeff_sum() / T)
    checks["exact-form bound"] = bound_ok

    # invariance defect halves when T doubles on a quasi-periodic orbit
    field4 = rv.hamiltonian_field(F4, sp4)
    Hobs = rv.fourier_hamiltonian(4, [(1.0, [0, 0, 1, 0], 0, "sin")])
    defects = []
    for T in (50.0, 100.0, 200.0):
        tr = rv.integrate(field4, [0.08, 0.0, 0.0, 0.0], T, 1e-2)
        defects.append(rv.invariance_defect(rv.empirical_measure(tr), field4, 1.0, Hobs))
    checks["invariance defect halving"] = (
        defects[1] <= 0.75 * defects[0] + 1e-9 and defects[2] <= 0.75 * defects[1] + 1e-9)

    elapsed = time.perf_counter() - start
    for name, ok in checks.items():
        print(f"[ACCEPTANCE] 7 property: {name}: {'PASS' if ok else 'FAIL'}")
    _report("7 property-suites", all(checks.values()),
            f"{sum(checks.values())}/{len(checks)} properties hold", elapsed, 900.0)
    assert all(checks.values()), {k: v for k, v in checks.items() if not v}
