"""Seeded workloads for the rotvec benchmark, and the checks on their outputs.

A workload is a fixed list of operation *slots*; one pass runs every slot once.
Each operation is a JSON config for ``rotvec.run``. The seed (and the index of
the pass) draws the continuous parameters: pin positions, field amplitudes,
orbit starts, form classes. The sizes are fixed by the slot: operation count,
seed-grid batch, horizons, mode counts and optimizer budgets are the same for
every seed, so a figure taken on one seed can be re-checked on another and
run-to-run spread comes from the machine, not from the draw. Continuous draws
are stratified over their range for the same reason.

The checks below test the paper's statements, or closed-form values of the
fields, on each operation's output. Every operation must also report
``passed``.
"""

import json
import math
import random
from pathlib import Path

import numpy as np

H = 0.01                 # integration step of every flow operation
GAMMA = math.sqrt(2.0) - 1.0  # twist of example 3 (irrational)

# batch-search: 1024 seeds, horizons [T0, 2*T0]; the velocity at batch 1024
# must outweigh the profile LP that each sharpness operation solves first.
BATCH_PER_DIM = 32
BATCH_T0 = 5.0
BATCH_MODES = (32, 40, 48)
# generic-search: 256 seeds on a non-integrable field, horizons [T0, 2*T0].
GENERIC_PER_DIM = 16
GENERIC_T0 = 5.0
GENERIC_OPS = 8
# long-orbit: single orbits (batch 1) and the suspension pipeline.
TWISTED_T = 200.0
TWISTED_OPS = 4
NONAUTO_N0 = 2
# certify: scaled-down minimax searches and chords of fixed step count.
PB_RESTARTS = 2
PB_MAX_EVALS = 80
PB_CERT_GRID = 8192
PB_CLASS = 0.5
CHORD_OPS = 7
CHORD_STEPS = 200        # steps each chord seed takes before it lands


def _rng(workload, seed, pass_index):
    # str seeds are hashed with SHA-512 by random.Random: stable across runs.
    return random.Random(f"{workload}:{seed}:{pass_index}")


def _strata(rng, n, lo, hi):
    """n draws from [lo, hi), one in each of n equal strata."""
    return [lo + (hi - lo) * (i + rng.random()) / n for i in range(n)]


def _op(kind, config, check, batch, work):
    """One operation: its config, its check arguments and its orbit work.

    ``work`` is the orbit work the config fixes, batch x steps summed over the
    operation's orbits; ``orbit_work`` adds what only the output tells.
    """
    return {"kind": kind, "config": config, "check": check,
            "batch": batch, "work": work}


def _pins(a):
    return [[a, 0.0], [a + 0.5, 1.0]]


def _batch_search(rng):
    shifts = _strata(rng, len(BATCH_MODES), 0.0, 0.5)
    classes = _strata(rng, 2, 0.25, 1.0)
    integ = {"h": H, "T0": BATCH_T0, "T_max": 2 * BATCH_T0, "tol": 1e-4}
    seeds = {"kind": "full", "per_dim": BATCH_PER_DIM}
    batch = BATCH_PER_DIM ** 2
    work = batch * round(2 * BATCH_T0 / H)

    def sharpness(n_modes, a):
        cfg = {"experiment": "example1-sharpness", "seed": 0, "integration": integ,
               "family": {"family": "pinned-profile", "pins": _pins(a),
                          "n_modes": n_modes, "slope_target": 2.1},
               "form": {"class": [0.0, 1.0]}, "seeds": seeds}
        return _op("sharpness", cfg, {}, batch, work)

    def bound(c):
        cfg = {"experiment": "example1-bound", "seed": 0, "integration": integ,
               "form": {"class": [0.0, c]}, "seeds": seeds}
        return _op("bound", cfg, {}, batch, work)

    return [sharpness(BATCH_MODES[0], shifts[0]), bound(classes[0]),
            sharpness(BATCH_MODES[1], shifts[1]), bound(classes[1]),
            sharpness(BATCH_MODES[2], shifts[2])]


def _generic_search(rng):
    ops = []
    for eps in _strata(rng, GENERIC_OPS, 0.05, 0.3):
        # F = sin^2(pi p1) + eps sin^2(2 pi p1) cos(2 pi q1) as waves in (p1, q1)
        waves = [[0.5, [0, 0], 0, "cos"], [-0.5, [1, 0], 0, "cos"],
                 [eps / 2, [0, 1], 0, "cos"], [-eps / 4, [2, 1], 0, "cos"],
                 [-eps / 4, [2, -1], 0, "cos"]]
        # dq1/dt = dF/dp1 is at most pi + 2 pi eps, so no average exceeds it;
        # the report's target check is set to the interval [2, pi + 2 pi eps].
        lo, hi = 2.0, math.pi + 2 * math.pi * eps
        cfg = {"experiment": "custom", "seed": 0,
               "space": {"kind": "torus", "n": 1, "omega": "standard"},
               "family": {"family": "fourier", "coeffs": waves},
               "form": {"class": [0.0, 1.0]},
               "seeds": {"kind": "full", "per_dim": GENERIC_PER_DIM},
               "integration": {"h": H, "T0": GENERIC_T0, "T_max": 2 * GENERIC_T0,
                               "tol": 1e-4},
               "thresholds": {"full_class_pairing_min": lo,
                              "best_value_target": 0.5 * (lo + hi),
                              "best_value_tol": 0.5 * (hi - lo)}}
        batch = GENERIC_PER_DIM ** 2
        ops.append(_op("generic", cfg, {"eps": eps}, batch,
                       batch * round(2 * GENERIC_T0 / H)))
    return ops


def _long_orbit(rng):
    delta = _strata(rng, 1, 0.1, 0.3)[0]
    # sin^2(pi p1) + delta sin(2 pi s) sin(2 pi p1), expanded to waves
    waves = [[0.5, [0, 0], 0, "cos"], [-0.5, [1, 0], 0, "cos"],
             [delta / 2, [1, 0], -1, "cos"], [-delta / 2, [1, 0], 1, "cos"]]
    n_max = 2 * NONAUTO_N0
    nonauto = {"experiment": "nonauto-suspension", "seed": 0,
               "integration": {"h": H, "T0": 1.0, "T_max": 1.0, "tol": 1e-4},
               "family": {"family": "fourier", "coeffs": waves},
               "form": {"class": [0.0, 1.0]},
               "seeds": {"kind": "momentum", "per_dim": 32},
               "iterates": {"n0": NONAUTO_N0, "n_max": n_max},
               "thresholds": {"pairing_min": 1.99, "formula_agreement": 1e-6}}
    # map search over 32 seeds, then one time-one orbit; the suspension flow
    # is counted from its artifact in orbit_work
    work = round(32 * n_max / H + n_max / H)
    ops = [_op("nonauto", nonauto, {"delta": delta}, 32, work)]
    for p1 in _strata(rng, TWISTED_OPS, 0.1, 0.4):
        cfg = {"experiment": "example3-twisted", "seed": 0,
               "integration": {"h": H, "T0": 1.0, "T_max": TWISTED_T, "tol": 1e-4},
               "space": {"kind": "torus", "n": 2, "omega": "twisted-gamma",
                         "gamma": GAMMA},
               "orbit": {"p1": p1, "T": TWISTED_T}}
        ops.append(_op("twisted", cfg, {"p1": p1}, 1, round(TWISTED_T / H)))
    return ops


def _certify(rng):
    a, b = _strata(rng, 2, 0.0, 0.5)
    seeds = [rng.randrange(2 ** 31) for _ in range(4)]

    def pb(a, n_modes, alpha_modes, seed):
        cfg = {"experiment": "pb-upper", "seed": seed,
               "space": {"kind": "torus", "n": 1, "omega": "standard"},
               "regions": {"X": {"levels": [a]}, "Xp": {"levels": [a + 0.5]}},
               "form": {"class": [0.0, PB_CLASS]},
               "optimizer": {"restarts": PB_RESTARTS, "max_evals": PB_MAX_EVALS,
                             "grid_res": 512, "cert_grid_res": PB_CERT_GRID,
                             "n_modes": n_modes, "alpha_modes": alpha_modes,
                             "pins": _pins(a)},
               # the upper end is a truncation target, not a theorem: at
               # n_modes = 24 the best certified value is about 1.0503
               "thresholds": {"value_range": [0.999, 1.1], "floor": 1.0}}
        return _op("pb-upper", cfg, {"class": PB_CLASS}, 0, 0)

    # the last two repeat (pins, n_modes) of the first two, so a cross-call
    # cache has something to find; the chords share nothing
    ops = [pb(a, 24, 0, seeds[0]), pb(b, 32, 1, seeds[1]),
           pb(a, 24, 1, seeds[2]), pb(b, 32, 0, seeds[3])]
    for c in _strata(rng, CHORD_OPS, 0.25, 1.0):
        level = rng.random() * 0.5
        t_star = 0.5 / c
        h = t_star / (CHORD_STEPS + 0.5)  # lands mid-step, after a fixed count
        cfg = {"experiment": "chord", "seed": 0,
               "space": {"kind": "torus", "n": 1, "omega": "standard"},
               "regions": {"X": {"levels": [level]}, "Xp": {"levels": [level + 0.5]}},
               "form": {"class": [0.0, c]},
               "integration": {"h": h, "T0": 1.0, "T_max": 1.0, "tol": 1e-4},
               "chord": {"t_max": 1.5 * t_star},
               "thresholds": {"t_star_target": t_star, "t_star_tol": 1e-9,
                              "pb_floor": 2 * c}}
        ops.append(_op("chord", cfg, {"t_star": t_star}, 32, 32 * (CHORD_STEPS + 1)))
    return ops


# why each workload was chosen is recorded in BENCHMARK.json
WORKLOADS = {"batch-search": _batch_search, "generic-search": _generic_search,
             "long-orbit": _long_orbit, "certify": _certify}


def make_pass(workload, seed, pass_index):
    """The operations of one pass of ``workload``, drawn from (seed, pass_index)."""
    return WORKLOADS[workload](_rng(workload, seed, pass_index))


def config_bytes(ops):
    """Canonical JSON of a pass's configs (the determinism self-test compares these)."""
    return json.dumps([op["config"] for op in ops], sort_keys=True).encode()


def shape(ops):
    """What must not depend on the seed: kinds, batches, horizons, mode counts."""
    out = []
    for op in ops:
        cfg = op["config"]
        integ = cfg.get("integration", {})
        opt = cfg.get("optimizer", {})
        fam = cfg.get("family", {})
        out.append((op["kind"], op["batch"], op["work"], integ.get("T0"),
                    integ.get("T_max"), cfg.get("orbit", {}).get("T"),
                    json.dumps(cfg.get("iterates")), fam.get("n_modes"),
                    opt.get("n_modes"), opt.get("alpha_modes"), opt.get("restarts"),
                    opt.get("max_evals")))
    return out


# ---------------------------------------------------------------------------
# checks
# ---------------------------------------------------------------------------

def _value(report, key):
    return report.results[key]["value"]


def check(op, report, out_dir):
    """Failed checks of one operation's output, as a list of messages."""
    errors = []
    if not report.passed:
        failing = [k for k, v in report.results.items()
                   if isinstance(v, dict) and v.get("pass") is False]
        errors.append(f"report not passed: {failing}")
    try:
        errors += _CHECKS[op["kind"]](op, report, Path(out_dir))
    except (KeyError, TypeError, ValueError, OSError) as exc:
        errors.append(f"output unreadable: {exc!r}")
    return errors


def _check_sharpness(op, report, out):
    # two-sided sharpness: some seed pairs at >= 2, none above the certified slope
    seed_max = _value(report, "max_seed_pairing")
    certified = _value(report, "certified_slope")
    if not 2.0 <= seed_max <= certified + 1e-6:
        return [f"max seed pairing {seed_max} outside [2, {certified} + 1e-6]"]
    return []


def _check_bound(op, report, out):
    full = _value(report, "full_class_pairing")
    if abs(full - math.pi) > 1e-3:
        return [f"full-class pairing {full} not within 1e-3 of pi"]
    return []


def _check_generic(op, report, out):
    # F <= 0 on {p1 = 0}, F >= 1 on {p1 = 1/2}: some measure pairs at >= 2
    full = _value(report, "full_class_pairing")
    if full < 2.0:
        return [f"full-class pairing {full} < 2"]
    return []


def _check_twisted(op, report, out):
    rho = np.asarray(_value(report, "rotation_vector"), dtype=float)
    speed = math.pi * math.sin(2 * math.pi * op["check"]["p1"])
    errors = []
    q_err = np.max(np.abs(rho[2:] - speed * np.array([1.0, -GAMMA])))
    if not q_err <= 1e-3:
        errors.append(f"rho_q off pi sin(2 pi p1)(1, -gamma) by {q_err}")
    if not np.max(np.abs(rho[:2])) <= 1e-8:
        errors.append(f"|rho_p| = {np.max(np.abs(rho[:2]))} > 1e-8")
    return errors


def _check_nonauto(op, report, out):
    errors = []
    if not _value(report, "map_pairing") >= 1.99:
        errors.append(f"map pairing {_value(report, 'map_pairing')} < 1.99")
    agreement = abs(_value(report, "loop_formula") - _value(report, "double_integral_formula"))
    if not agreement <= 1e-6:
        errors.append(f"loop and double-integral formulas differ by {agreement}")
    if not _value(report, "H_drift_at_unit_times") <= 1e-8:
        errors.append("H drift at unit times > 1e-8")
    if not _value(report, "shift_equivariance") <= 1e-8:
        errors.append("shift equivariance defect > 1e-8")
    # |r| is bounded by the oscillation of F, which is at most 1 + 2 delta
    r_max = _value(report, "r_bound")
    if not (report.results["r_bound"]["pass"] and r_max <= 1.0 + 2 * op["check"]["delta"]):
        errors.append(f"r bound fails: max |r| = {r_max}")
    return errors


def _check_pb_upper(op, report, out):
    errors = []
    value = _value(report, "pb_upper_bound")
    if not value >= 1.0 - 1e-3:
        errors.append(f"certified value {value} below the floor 1 - 1e-3")
    cons = _value(report, "winner_constraints")
    if not (cons["ok"] and cons["X_max"] <= 1e-9 and cons["Xp_min"] >= 1.0 - 1e-9):
        errors.append(f"winner violates its constraints: {cons}")
    # soundness: {F, alpha} = c u'(p1) for F = u(p1) (pdot = 0), resampled
    # on a grid 4x finer than the certificate's from the exact Fourier
    # coefficients of u, recovered by FFT of the written profile
    p1, u, _ = np.loadtxt(out / "winning_profile.dat", unpack=True)
    n = len(p1)
    if not np.allclose(p1, np.arange(n) / n, rtol=0, atol=1e-12):
        return errors + ["winning_profile.dat is not on a uniform grid"]
    coeffs = np.fft.rfft(u) / n
    k = np.arange(len(coeffs))
    fine = 4 * PB_CERT_GRID
    spectrum = np.zeros(fine // 2 + 1, dtype=complex)
    spectrum[:len(k) - 1] = 2j * np.pi * k[:-1] * coeffs[:-1]  # drop Nyquist
    du = np.fft.irfft(spectrum, n=fine) * fine
    resampled = op["check"]["class"] * float(np.max(np.abs(du)))
    if not value >= resampled:
        errors.append(f"certified {value} < resampled max |{{F, alpha}}| {resampled}")
    return errors


def _check_chord(op, report, out):
    t_star = _value(report, "t_star")
    target = op["check"]["t_star"]
    if t_star is None or abs(t_star - target) > 1e-9:
        return [f"t* = {t_star}, expected {target} +- 1e-9"]
    return []


_CHECKS = {"sharpness": _check_sharpness, "bound": _check_bound,
           "generic": _check_generic, "twisted": _check_twisted,
           "nonauto": _check_nonauto, "pb-upper": _check_pb_upper,
           "chord": _check_chord}


def orbit_work(op, report, out_dir):
    """Orbit work of one operation, batch x steps, from its config and outputs."""
    work = op["work"]
    if op["kind"] == "nonauto":
        # the conservation run's length is not in the config: read its span
        t = np.loadtxt(Path(out_dir) / "suspension.csv", delimiter=",", skiprows=1,
                       usecols=0)
        work += round(float(t[-1]) / H)
    return work
