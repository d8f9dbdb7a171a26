"""Experiment runner: configs, builtin experiments, reports and plot data.

Each experiment binds the library modules into one reproducible run: a JSON
config (or a builtin preset) goes in, a ``Report`` with threshold checks plus
gnuplot-ready ``.dat`` / CSV artifacts comes out. No step draws random
numbers, so a run is deterministic for a fixed config; a ``seed`` key is still
accepted (it must be an integer) but feeds no computation.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field as dc_field
from pathlib import Path

import numpy as np

from . import geometry, suspension
from .dynamics import _steps_per_unit, hamiltonian_field, integrate
from .errors import ConfigError
from .fields import parse_family
from .geometry import (CohomologyClass, momentum_level_torus, one_form, torus,
                       twisted_structure)
from .measures import (doubling_horizons, empirical_measure, extremal_orbit_search,
                       full_seed_grid, momentum_seed_grid, rotation_vector)
from .pbracket import PbProblem, PinnedProfileFamily, chord_search, pb_upper_bound
from .suspension import (SuspendedHamiltonian, extended_point, map_orbit_search,
                         rotation_pairing_time_one, shift_equivariance_check,
                         suspension_flow, time_one_orbit)
from .trig import TrigPoly

EXPERIMENTS = (
    "example1-bound",
    "example1-sharpness",
    "example3-twisted",
    "pb-upper",
    "chord",
    "nonauto-suspension",
    "custom",
)

# config sections that must be JSON objects when present; keys that no
# experiment reads (such as retired optimizer settings) are ignored
SECTIONS = ("space", "family", "form", "seeds", "integration", "regions", "optimizer",
            "orbit", "chord", "iterates", "thresholds")


# ---------------------------------------------------------------------------
# configs
# ---------------------------------------------------------------------------

def builtin_config(experiment):
    """The full default config of a builtin experiment."""
    base = {
        "experiment": experiment,
        "integration": {"h": 0.01, "T0": 100.0, "T_max": 10000.0, "tol": 1e-4},
    }
    if experiment == "example1-bound":
        base.update({
            "space": {"kind": "torus", "n": 1, "omega": "standard"},
            "family": {"family": "fourier",
                       "coeffs": [[0.5, [0, 0], 0, "cos"], [-0.5, [1, 0], 0, "cos"]]},
            "form": {"class": [0.0, 0.5]},
            "seeds": {"kind": "full", "per_dim": 32},
            "thresholds": {"full_class_pairing_min": 2.0, "best_value_target": np.pi,
                           "best_value_tol": 1e-3},
        })
    elif experiment == "example1-sharpness":
        base.update({
            "space": {"kind": "torus", "n": 1, "omega": "standard"},
            "family": {"family": "pinned-profile", "pins": [[0.0, 0.0], [0.5, 1.0]],
                       "n_modes": 32, "slope_target": 2.1},
            "form": {"class": [0.0, 1.0]},
            "seeds": {"kind": "full", "per_dim": 32},
            "thresholds": {"certified_slope_max": 2.1, "seed_pairing_slack": 1e-6},
        })
    elif experiment == "example3-twisted":
        base.update({
            "space": {"kind": "torus", "n": 2, "omega": "twisted-gamma",
                      "gamma": geometry.DEFAULT_GAMMA},
            "family": {"family": "fourier",
                       "coeffs": [[0.5, [0, 0, 0, 0], 0, "cos"],
                                  [-0.5, [1, 0, 0, 0], 0, "cos"]]},
            "orbit": {"p1": 0.2, "T": 10000.0},
            "thresholds": {"q_component_tol": 1e-3, "p_component_max": 1e-8},
        })
    elif experiment == "pb-upper":
        base.update({
            "space": {"kind": "torus", "n": 1, "omega": "standard"},
            "regions": {"X": {"levels": [0.0]}, "Xp": {"levels": [0.5]}},
            "form": {"class": [0.0, 0.5]},
            "optimizer": {"cert_grid_res": 8192, "n_modes": 32,
                          "pins": [[0.0, 0.0], [0.5, 1.0]]},
            "thresholds": {"value_range": [0.999, 1.05], "floor": 1.0},
        })
    elif experiment == "chord":
        base.update({
            "space": {"kind": "torus", "n": 1, "omega": "standard"},
            "regions": {"X": {"levels": [0.0]}, "Xp": {"levels": [0.5]}},
            "form": {"class": [0.0, 0.5]},
            "chord": {"t_max": 2.0},
            "thresholds": {"t_star_target": 1.0, "t_star_tol": 1e-9, "pb_floor": 1.0},
        })
    elif experiment == "nonauto-suspension":
        base.update({
            "space": {"kind": "torus", "n": 1, "omega": "standard"},
            # sin^2(pi p1) + 0.2 sin(2 pi s) sin(2 pi p1), expanded to waves
            "family": {"family": "fourier",
                       "coeffs": [[0.5, [0, 0], 0, "cos"], [-0.5, [1, 0], 0, "cos"],
                                  [0.1, [1, 0], -1, "cos"], [-0.1, [1, 0], 1, "cos"]]},
            "form": {"class": [0.0, 1.0]},
            "seeds": {"kind": "momentum", "per_dim": 32},
            "iterates": {"n0": 100, "n_max": 10000},
            "thresholds": {"pairing_min": 2.0 - 1e-2, "formula_agreement": 1e-6},
        })
    elif experiment == "custom":
        pass  # everything must be supplied explicitly
    else:
        raise ConfigError("/experiment", f"unknown experiment {experiment!r}")
    return base


def _merge(base, override):
    out = dict(base)
    for key, value in override.items():
        if isinstance(value, dict) and isinstance(out.get(key), dict):
            out[key] = _merge(out[key], value)
        else:
            out[key] = value
    return out


def validate_config(config):
    """Validate and normalize a config dict; raises ConfigError with a path."""
    _require(isinstance(config, dict) and config, "", "config must be a non-empty JSON object")
    experiment = config.get("experiment")
    _require(experiment in EXPERIMENTS, "/experiment", f"must be one of {', '.join(EXPERIMENTS)}")
    merged = _merge(builtin_config(experiment), config)
    if experiment == "custom":
        for section in ("space", "family", "form", "seeds", "thresholds"):
            _require(section in merged, f"/{section}", "required for custom experiments")
    for section in SECTIONS:
        _require(isinstance(merged.get(section, {}), dict), f"/{section}", "must be a JSON object")
    space = merged.get("space", {})
    if space:
        _require(space.get("kind") in ("torus", "cotangent-of-torus"), "/space/kind",
                 "must be torus or cotangent-of-torus")
        _require(_is_int(space.get("n"), 1), "/space/n", "must be a positive integer")
        omega = space.get("omega", "standard")
        if isinstance(omega, str):
            _require(omega in ("standard", "twisted-gamma"), "/space/omega",
                     "preset must be standard or twisted-gamma")
            _require(omega == "standard" or space["n"] == 2, "/space/omega",
                     "twisted-gamma requires n = 2")
    family = merged.get("family")
    _require(family is None or family.get("family") in ("fourier", "pinned-profile"),
             "/family/family", "must be fourier or pinned-profile")
    form = merged.get("form")
    if space:
        dim = 2 * space["n"]
        if family is not None and family["family"] == "fourier":
            _check_waves(family.get("coeffs"), 4, dim, "/family/coeffs")
        _require(form is None or len(form.get("class", ())) == dim, "/form/class",
                 f"needs {dim} coefficients")
        if form is not None and form.get("potential"):
            _check_waves(form["potential"], 3, dim, "/form/potential")
    seeds = merged.get("seeds", {"kind": "full"})
    _require(seeds.get("kind") in ("full", "momentum"), "/seeds/kind", "must be full or momentum")
    _require(_is_int(seeds.get("per_dim", 32), 1), "/seeds/per_dim", "must be a positive integer")
    integ = merged.get("integration", {})
    _require(_is_positive(integ.get("h", 1e-2)), "/integration/h", "must be a positive number")
    _require(integ.get("T0", 1.0) <= integ.get("T_max", np.inf), "/integration/T0",
             "T0 exceeds T_max")
    if experiment in ("example1-bound", "example1-sharpness", "custom"):
        _require(integ["T0"] > 0, "/integration/T0", "must be positive")
        for T in doubling_horizons(integ["T0"], integ["T_max"]):
            _require(abs(round(T / integ["h"]) * integ["h"] - T) <= 1e-9, "/integration/h",
                     f"horizon {T} is not a multiple of h")
    # the thresholds the experiment reads; custom runs the example1-bound checks
    runner = "example1-bound" if experiment == "custom" else experiment
    for key in builtin_config(runner).get("thresholds", {}):
        value = merged["thresholds"].get(key)
        if key == "value_range":
            _require(isinstance(value, list) and len(value) == 2 and all(map(_is_number, value)),
                     "/thresholds/value_range", "must be a [low, high] pair")
        else:
            _require(_is_number(value), f"/thresholds/{key}", "required, a number")
    if experiment in ("pb-upper", "chord"):
        for name in ("X", "Xp"):
            _check_region(merged["regions"].get(name), space["n"], f"/regions/{name}")
    if experiment == "chord":
        _require(_is_positive(merged["chord"].get("t_max")), "/chord/t_max",
                 "must be a positive number")
        _require(merged["thresholds"]["pb_floor"] > 0, "/thresholds/pb_floor", "must be positive")
    if experiment == "example3-twisted":
        _require(_is_number(merged["orbit"].get("p1")), "/orbit/p1", "must be a number")
        _require(_is_positive(merged["orbit"].get("T")), "/orbit/T", "must be a positive number")
    if experiment == "nonauto-suspension":
        iters = merged["iterates"]
        _require(_is_int(iters.get("n0"), 1), "/iterates/n0", "must be a positive integer")
        _require(_is_int(iters.get("n_max"), iters["n0"]), "/iterates/n_max",
                 "must be an integer >= n0")
        try:
            _steps_per_unit(integ["h"])
        except ValueError as exc:
            raise ConfigError("/integration/h", str(exc)) from None
    if experiment == "pb-upper":
        opt = merged["optimizer"]
        _require(_is_int(opt.get("n_modes"), 1), "/optimizer/n_modes",
                 "must be a positive integer")
        _require(_is_int(opt.get("cert_grid_res"), 16), "/optimizer/cert_grid_res",
                 "must be an integer >= 16")
        pins = opt.get("pins")
        _require(isinstance(pins, list) and all(
            isinstance(pin, list) and len(pin) == 2 and all(map(_is_number, pin))
            for pin in pins), "/optimizer/pins", "must be a list of [t, v] pairs")
    _require(isinstance(merged.get("seed", 0), int), "/seed", "seed must be an integer")
    return merged


def _require(ok, path, message):
    if not ok:
        raise ConfigError(path, message)


def _is_int(x, lo):
    return isinstance(x, int) and not isinstance(x, bool) and x >= lo


def _is_number(x):
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def _is_positive(x):
    return _is_number(x) and x > 0


def _check_waves(waves, arity, dim, path):
    """Every wave [c, k, ...] has ``arity`` entries and a length-``dim`` wave vector k."""
    _require(isinstance(waves, list), path, "must be a list of waves")
    for i, wave in enumerate(waves):
        _require(isinstance(wave, list) and len(wave) == arity
                 and isinstance(wave[1], list) and len(wave[1]) == dim,
                 f"{path}/{i}", f"needs {arity} entries and a length-{dim} wave vector")


def _check_region(spec, n, path):
    """A region is ``constraints`` [[index, value], ...] or ``levels`` of the n momenta."""
    _require(isinstance(spec, dict), path, "must be a JSON object")
    if "constraints" in spec:
        _require(isinstance(spec["constraints"], list) and all(
            isinstance(c, list) and len(c) == 2 and _is_int(c[0], 0) and c[0] < 2 * n
            and _is_number(c[1]) for c in spec["constraints"]),
            f"{path}/constraints", f"must be [index < {2 * n}, value] pairs")
    else:
        levels = spec.get("levels")
        _require(isinstance(levels, list) and len(levels) == n and all(map(_is_number, levels)),
                 f"{path}/levels", f"must be a list of {n} numbers")
    _require(_is_int(spec.get("per_dim", 32), 1), f"{path}/per_dim", "must be a positive integer")


def _build_space(cfg):
    spec = cfg["space"]
    omega = spec.get("omega", "standard")
    if omega == "standard":
        structure = None
    elif omega == "twisted-gamma":
        structure = twisted_structure(spec.get("gamma", geometry.DEFAULT_GAMMA))
    else:
        structure = geometry.SymplecticStructure(np.asarray(omega["matrix"], dtype=float))
    if spec["kind"] == "torus":
        return torus(spec["n"], structure)
    return geometry.cotangent_of_torus(spec["n"], structure)


def _build_form(cfg, dim):
    spec = cfg["form"]
    potential = None
    if spec.get("potential"):
        potential = TrigPoly.zero(dim)
        for c, k, kind in spec["potential"]:
            potential = potential + TrigPoly.wave(dim, c, k, 0, kind)
    return one_form(spec["class"], potential)


def _build_seeds(cfg, space):
    spec = cfg.get("seeds", {"kind": "full", "per_dim": 32})
    if spec["kind"] == "momentum":
        return momentum_seed_grid(space, spec.get("per_dim", 32))
    return full_seed_grid(space, spec.get("per_dim", 32))


def _build_region(spec, space):
    """Region from config: momentum levels or explicit pinned coordinates."""
    if "constraints" in spec:
        return geometry.product_of_levels(
            space, [(int(i), float(v)) for i, v in spec["constraints"]],
            per_dim=spec.get("per_dim", 32))
    return momentum_level_torus(space, spec["levels"], per_dim=spec.get("per_dim", 32))


# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------

@dataclass
class Report:
    """Outcome of one experiment run, with per-result threshold checks."""

    experiment: str
    config: dict
    results: dict
    passed: bool
    notes: list = dc_field(default_factory=list)
    artifacts: list = dc_field(default_factory=list)
    runtime_s: float = 0.0

    def to_json(self):
        doc = {
            "experiment": self.experiment,
            "config": self.config,
            "results": self.results,
            "passed": self.passed,
            "notes": self.notes,
            "artifacts": self.artifacts,
            "timing": {"runtime_s": self.runtime_s},
        }
        return doc

    def dumps(self):
        return json.dumps(self.to_json(), sort_keys=True, indent=2, default=_json_default)


def _json_default(obj):
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    raise TypeError(f"not JSON serializable: {type(obj)}")


def _result(value, provenance, threshold=None, tolerance=None, passed=None):
    entry = {"value": value, "provenance": provenance}
    if threshold is not None:
        entry["threshold"] = threshold
    if tolerance is not None:
        entry["tolerance"] = tolerance
    if passed is not None:
        entry["pass"] = bool(passed)
    return entry


def _write_dat(path, header, columns):
    data = np.column_stack(columns)
    np.savetxt(path, data, header=header)


# ---------------------------------------------------------------------------
# experiment bodies
# ---------------------------------------------------------------------------

def _run_example1_bound(cfg, out):
    space = _build_space(cfg)
    F = parse_family(cfg["family"], space.dim)
    alpha = _build_form(cfg, space.dim)
    seeds = _build_seeds(cfg, space)
    integ = cfg["integration"]
    best_pt, best_val, report = extremal_orbit_search(
        F, alpha, space, seeds, T0=integ["T0"], T_max=integ["T_max"],
        h=integ["h"], tol=integ["tol"])
    q1_coeff = alpha.cclass.coeffs[space.n]
    scale = 1.0 / q1_coeff if abs(q1_coeff) > 1e-12 else 1.0  # report in the integer class [dq1]
    full_pairing = scale * best_val
    th = cfg["thresholds"]
    results = {
        "best_pairing": _result(best_val, "measures.extremal_orbit_search"),
        "full_class_pairing": _result(
            full_pairing, "measures.extremal_orbit_search",
            threshold=f">= {th['full_class_pairing_min']}",
            passed=full_pairing >= th["full_class_pairing_min"]),
        "best_vs_expected": _result(
            abs(full_pairing - th["best_value_target"]),
            "measures.extremal_orbit_search",
            threshold=f"<= {th['best_value_tol']}",
            tolerance=th["best_value_tol"],
            passed=abs(full_pairing - th["best_value_target"]) <= th["best_value_tol"]),
        "converged": _result(report.converged, "measures.ConvergenceReport"),
        "best_seed": _result(best_pt.lift.tolist(), "measures.extremal_orbit_search"),
    }
    artifacts = []
    if out:
        path = out / "pairing_vs_T.dat"
        _write_dat(path, "T best_pairing", [np.array(report.horizons),
                                            np.array(report.best_values)])
        artifacts.append(path.name)
        path = out / "search_report.json"
        path.write_text(report.dumps())
        artifacts.append(path.name)
    return results, [], artifacts


def _run_example1_sharpness(cfg, out):
    space = _build_space(cfg)
    F = parse_family(cfg["family"], space.dim)
    alpha = _build_form(cfg, space.dim)
    seeds = _build_seeds(cfg, space)
    integ = cfg["integration"]
    th = cfg["thresholds"]
    certified = F.metadata["certified_slope"]
    _, best_val, report = extremal_orbit_search(
        F, alpha, space, seeds, T0=integ["T0"], T_max=integ["T_max"],
        h=integ["h"], tol=integ["tol"])
    seed_max = float(np.max(report.per_seed_values))
    bound = certified + th["seed_pairing_slack"]
    results = {
        "certified_slope": _result(
            certified, "fields.make_pinned_profile",
            threshold=f"<= {th['certified_slope_max']}",
            passed=certified <= th["certified_slope_max"]),
        "max_seed_pairing": _result(
            seed_max, "measures.extremal_orbit_search",
            threshold=f"<= certified + {th['seed_pairing_slack']}",
            tolerance=th["seed_pairing_slack"],
            passed=seed_max <= bound),
        "all_seeds_within_slope": _result(
            bool(np.all(report.per_seed_values <= bound)),
            "measures.extremal_orbit_search", passed=np.all(report.per_seed_values <= bound)),
        "converged": _result(report.converged, "measures.ConvergenceReport"),
    }
    artifacts = []
    if out:
        grid = np.arange(2048) / 2048.0
        pts = np.zeros((2048, space.dim))
        pts[:, 0] = grid
        u = F.eval(pts)
        du = F.grad(pts)[:, 0]
        path = out / "profile.dat"
        _write_dat(path, "p1 u du", [grid, u, du])
        artifacts.append(path.name)
    return results, [], artifacts


def _run_example3_twisted(cfg, out):
    space = _build_space(cfg)
    F = parse_family(cfg["family"], space.dim)
    orbit = cfg["orbit"]
    x0 = np.zeros(space.dim)
    x0[0] = orbit["p1"]
    integ = cfg["integration"]
    traj = integrate(hamiltonian_field(F, space), x0, orbit["T"], integ["h"])
    mu = empirical_measure(traj)
    rho = rotation_vector(mu, F)
    gamma = cfg["space"]["gamma"]
    speed = np.pi * np.sin(2 * np.pi * orbit["p1"])
    expected = np.array([0.0, 0.0, speed, -gamma * speed])
    th = cfg["thresholds"]
    q_err = float(np.max(np.abs(rho.coeffs[2:] - expected[2:])))
    p_max = float(np.max(np.abs(rho.coeffs[:2])))
    results = {
        "rotation_vector": _result(rho.coeffs.tolist(), "measures.rotation_vector"),
        "expected_vector": _result(expected.tolist(), "closed-form field"),
        "q_component_error": _result(
            q_err, "measures.rotation_vector", threshold=f"<= {th['q_component_tol']}",
            tolerance=th["q_component_tol"], passed=q_err <= th["q_component_tol"]),
        "p_component_max": _result(
            p_max, "measures.rotation_vector", threshold=f"<= {th['p_component_max']}",
            tolerance=th["p_component_max"], passed=p_max <= th["p_component_max"]),
        "energy_drift": _result(traj.energy_drift(), "dynamics.Trajectory"),
    }
    artifacts = []
    if out:
        stride = max(1, len(traj) // 2000)
        path = out / "orbit.csv"
        sub = traj.lifts[::stride]
        names = ["p1", "p2", "q1", "q2"]
        header = ["t"] + [f"{c}_lift" for c in names]
        np.savetxt(path, np.column_stack([traj.times[::stride], sub]),
                   delimiter=",", header=",".join(header), comments="")
        artifacts.append(path.name)
    return results, [], artifacts


def _run_pb_upper(cfg, out):
    space = _build_space(cfg)
    opt = cfg["optimizer"]
    X = _build_region(cfg["regions"]["X"], space)
    Xp = _build_region(cfg["regions"]["Xp"], space)
    a = CohomologyClass(np.asarray(cfg["form"]["class"], dtype=float))
    family = PinnedProfileFamily(space, a, opt["pins"], n_modes=opt["n_modes"])
    problem = PbProblem(space, X, Xp, a, family, floor=cfg["thresholds"]["floor"])
    result = pb_upper_bound(problem, cert_grid_res=opt["cert_grid_res"])
    lo, hi = cfg["thresholds"]["value_range"]
    results = {
        "pb_upper_bound": _result(
            result.value, "pbracket.pb_upper_bound",
            threshold=f"in [{lo}, {hi}]", passed=lo <= result.value <= hi),
        "floor_respected": _result(
            result.audit["min_certified_seen"], "pbracket.pb_upper_bound",
            threshold=f">= {lo}", passed=result.audit["min_certified_seen"] >= lo),
        "winner_constraints": _result(
            result.audit["winner"]["constraints"], "pbracket.PbProblem.validate_candidate"),
    }
    artifacts = []
    if out:
        path = out / "pb_audit.json"
        path.write_text(json.dumps(result.audit, sort_keys=True, indent=2,
                                   default=_json_default))
        artifacts.append(path.name)
        grid = np.arange(2048) / 2048.0
        pts = np.zeros((2048, space.dim))
        pts[:, 0] = grid
        path = out / "winning_profile.dat"
        _write_dat(path, "p1 F dF", [grid, result.F.eval(pts), result.F.grad(pts)[:, 0]])
        artifacts.append(path.name)
    return results, [], artifacts


def _run_chord(cfg, out):
    space = _build_space(cfg)
    alpha = _build_form(cfg, space.dim)
    X = _build_region(cfg["regions"]["X"], space)
    Xp = _build_region(cfg["regions"]["Xp"], space)
    th = cfg["thresholds"]
    chord = chord_search(alpha, space, X, Xp, t_max=cfg["chord"]["t_max"],
                         h=cfg["integration"]["h"])
    if chord is None:
        return {"chord": _result(None, "pbracket.chord_search", passed=False)}, \
            ["no chord found before t_max"], []
    t_err = abs(chord.t_star - th["t_star_target"])
    bound = 1.0 / th["pb_floor"] + 1e-6
    results = {
        "t_star": _result(
            chord.t_star, "pbracket.chord_search",
            threshold=f"= {th['t_star_target']} +- {th['t_star_tol']}",
            tolerance=th["t_star_tol"], passed=t_err <= th["t_star_tol"]),
        "time_bound": _result(
            chord.t_star, "pbracket.chord_search",
            threshold=f"<= 1/floor + 1e-6 = {bound}", passed=chord.t_star <= bound),
        "start": _result(chord.start.lift.tolist(), "pbracket.chord_search"),
        "end": _result(chord.end.lift.tolist(), "pbracket.chord_search"),
    }
    artifacts = []
    if out:
        from .dynamics import locally_hamiltonian_field
        field = locally_hamiltonian_field(alpha, space)
        arc = integrate(field, chord.start, chord.t_star, cfg["integration"]["h"])
        path = out / "chord.dat"
        _write_dat(path, "t " + " ".join(_coord_names(space)),
                   [arc.times] + list(arc.lifts.T))
        artifacts.append(path.name)
    return results, [], artifacts


def _run_nonauto(cfg, out):
    space = _build_space(cfg)
    F = parse_family(cfg["family"], space.dim)
    alpha = _build_form(cfg, space.dim)
    seeds = _build_seeds(cfg, space)
    integ = cfg["integration"]
    iters = cfg["iterates"]
    th = cfg["thresholds"]
    best_pt, best_val, report = map_orbit_search(
        F, alpha, space, seeds, n0=iters["n0"], n_max=iters["n_max"],
        h=integ["h"], tol=integ["tol"])
    n_final = int(report.horizons[-1])
    orbit = time_one_orbit(F, space, best_pt, n_final, integ["h"])
    mu = orbit.measure()
    loop_value = rotation_pairing_time_one(mu, F, alpha, h=integ["h"])
    double_value = _double_route_value(mu, F, alpha, space, integ["h"])
    agreement = abs(loop_value - double_value)

    H = SuspendedHamiltonian(F, space)
    z0 = extended_point(best_pt.lift, 0.0, 0.0, H.nspace)
    cons_T = 1000.0
    straj = suspension_flow(H, z0, cons_T, integ["h"])
    unit_idx = np.arange(0, len(straj), round(1.0 / integ["h"]))
    h_drift = float(np.max(np.abs(straj.energies[unit_idx] - straj.energies[0])))
    r_values = straj.lifts[:, space.n]
    f_range = _global_range(F, space)
    equiv = shift_equivariance_check(H, z0, 1.0, 10.0, integ["h"])

    results = {
        "map_pairing": _result(
            best_val, "suspension.map_orbit_search",
            threshold=f">= {th['pairing_min']}", passed=best_val >= th["pairing_min"]),
        "loop_formula": _result(loop_value, "suspension.rotation_pairing_time_one"),
        "double_integral_formula": _result(double_value, "suspension.rotation_pairing_time_one"),
        "formula_agreement": _result(
            agreement, "suspension.rotation_pairing_time_one",
            threshold=f"<= {th['formula_agreement']}",
            tolerance=th["formula_agreement"], passed=agreement <= th["formula_agreement"]),
        "H_drift_at_unit_times": _result(
            h_drift, "suspension.suspension_flow", threshold="<= 1e-8",
            passed=h_drift <= 1e-8),
        "r_bound": _result(
            float(np.max(np.abs(r_values))), "suspension.suspension_flow",
            threshold=f"<= {f_range + 1e-6} (max F - min F + 1e-6)",
            passed=np.max(np.abs(r_values)) <= f_range + 1e-6),
        "shift_equivariance": _result(
            equiv, "suspension.shift_equivariance_check", threshold="<= 1e-8",
            passed=equiv <= 1e-8),
        "converged": _result(report.converged, "measures.ConvergenceReport"),
    }
    notes = [
        "pairing threshold tested as non-strict >=; the strict '>' variant of the "
        "suspension argument's conclusion differs from the headline bound only on "
        "a measure-zero boundary case and is flagged here rather than asserted"
    ]
    artifacts = []
    if out:
        path = out / "pairing_vs_N.dat"
        _write_dat(path, "N best_pairing", [np.array(report.horizons),
                                            np.array(report.best_values)])
        artifacts.append(path.name)
        stride = max(1, len(straj) // 2000)
        path = out / "suspension.csv"
        names = _coord_names(H.nspace)
        header = ["t"] + [f"{c}_lift" for c in names] + ["H"]
        np.savetxt(path, np.column_stack([straj.times[::stride], straj.lifts[::stride],
                                          straj.energies[::stride]]),
                   delimiter=",", header=",".join(header), comments="")
        artifacts.append(path.name)
    return results, notes, artifacts


def _double_route_value(mu, F, alpha, space, h):
    """The (x, t) double-integral route, exposed for report symmetry."""
    from .suspension import _double_route, _unit_arcs
    return _double_route(_unit_arcs(mu, F, h), mu.weights, F, alpha, space, h)


def _global_range(F, space, grid_res=512):
    """max F - min F over a fine grid of the active coordinates (and time)."""
    vals = F.poly.grid_values(grid_res)
    return float(vals.max() - vals.min())


def _run_custom(cfg, out):
    return _run_example1_bound(cfg, out)


def _coord_names(space):
    n = space.n
    if space.kind == "extended":
        nb = n - 1
        return [f"p{i+1}" for i in range(nb)] + ["r"] + [f"q{i+1}" for i in range(nb)] + ["s"]
    return [f"p{i+1}" for i in range(n)] + [f"q{i+1}" for i in range(n)]


_RUNNERS = {
    "example1-bound": _run_example1_bound,
    "example1-sharpness": _run_example1_sharpness,
    "example3-twisted": _run_example3_twisted,
    "pb-upper": _run_pb_upper,
    "chord": _run_chord,
    "nonauto-suspension": _run_nonauto,
    "custom": _run_custom,
}


def run(config, out_dir=None) -> Report:
    """Validate, run and report one experiment.

    ``out_dir`` receives report.json and the experiment's data artifacts; when
    None, nothing is written.
    """
    cfg = validate_config(config)
    out = None
    if out_dir is not None:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
    start = time.perf_counter()
    results, notes, artifacts = _RUNNERS[cfg["experiment"]](cfg, out)
    runtime = time.perf_counter() - start
    passed = all(entry.get("pass", True) for entry in results.values()
                 if isinstance(entry, dict))
    report = Report(
        experiment=cfg["experiment"],
        config=_json_safe(cfg),
        results=_json_safe(results),
        passed=bool(passed),
        notes=notes,
        artifacts=artifacts,
        runtime_s=runtime,
    )
    if out is not None:
        (out / "report.json").write_text(report.dumps())
        report.artifacts.append("report.json")
    return report


def _json_safe(obj):
    if isinstance(obj, dict):
        return {k: _json_safe(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_json_safe(v) for v in obj]
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, np.bool_):
        return bool(obj)
    return obj


def list_experiments():
    """Catalog of builtin experiments with their expected headline numbers."""
    return [
        {"name": "example1-bound",
         "summary": "largest rotation pairing of the standard-torus pinned flow",
         "expected": "full-class pairing >= 2; best ~ pi within 1e-3"},
        {"name": "example1-sharpness",
         "summary": "minimal-slope admissible profile caps every orbit's pairing",
         "expected": "certified max|u'| <= 2.1; every seed <= 2.1 + 1e-6"},
        {"name": "example3-twisted",
         "summary": "quasi-periodic rotation vector on the sheared 4-torus",
         "expected": "rho ~ pi*sin(0.4*pi) * (0, 0, 1, -gamma) within 1e-3"},
        {"name": "pb-upper",
         "summary": "certified minimax bracket bound for the standard pair of tori",
         "expected": "pb-upper in [0.999, 1.05]"},
        {"name": "chord",
         "summary": "earliest flow chord between the momentum tori",
         "expected": "t* = 1.0 +- 1e-9, within 1/floor"},
        {"name": "nonauto-suspension",
         "summary": "time-one-map rotation pairing of the time-periodic profile flow",
         "expected": ">= 2 - 1e-2; loop and double-integral formulas agree to 1e-6"},
        {"name": "custom",
         "summary": "user-supplied space/family/form/seeds, extremal-orbit search",
         "expected": "config-dependent"},
    ]
