import copy
import json
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import rotvec as rv
from rotvec import fields
from rotvec.cli import main as cli_main
from rotvec.errors import ConfigError, QuadratureWarning, RotvecError
from rotvec.fields import LP_KEYS, SLOPE_GRID
from rotvec.pbracket import CONSTRAINT_TOL, LANDING_TOL


FAST_BOUND = {
    "experiment": "example1-bound",
    "seeds": {"kind": "full", "per_dim": 8},
    "integration": {"h": 0.01, "T0": 10.0, "T_max": 80.0, "tol": 1e-4},
}


def test_validate_config_errors():
    with pytest.raises(ConfigError) as err:
        rv.validate_config({})
    assert err.value.path == ""
    with pytest.raises(ConfigError) as err:
        rv.validate_config({"experiment": "nope"})
    assert err.value.path == "/experiment"
    with pytest.raises(ConfigError) as err:
        rv.validate_config({"experiment": "custom"})
    assert err.value.path.startswith("/")
    with pytest.raises(ConfigError) as err:
        rv.validate_config({"experiment": "example1-bound",
                            "integration": {"T0": 100.0, "T_max": 10.0}})
    assert err.value.path == "/integration/T0"
    with pytest.raises(ConfigError) as err:
        rv.validate_config({"experiment": "example1-bound", "seed": "zero"})
    assert err.value.path == "/seed"
    with pytest.raises(ConfigError) as err:
        rv.validate_config({"experiment": "example1-bound",
                            "space": {"kind": "plane", "n": 1}})
    assert err.value.path == "/space/kind"


CUSTOM = {
    "experiment": "custom",
    "space": {"kind": "torus", "n": 1, "omega": "standard"},
    "family": {"family": "fourier",
               "coeffs": [[0.5, [0, 0], 0, "cos"], [-0.5, [1, 0], 0, "cos"]]},
    "form": {"class": [0.0, 1.0]},
    "seeds": {"kind": "momentum", "per_dim": 8},
    "integration": {"h": 0.01, "T0": 10.0, "T_max": 40.0, "tol": 1e-4},
    "thresholds": {"full_class_pairing_min": 2.0, "best_value_target": np.pi,
                   "best_value_tol": 1e-3},
}


def _config_error_path(config):
    with pytest.raises(ConfigError) as err:
        rv.validate_config(config)
    return err.value.path


def test_validate_custom_threshold_keys():
    thresholds = {k: v for k, v in CUSTOM["thresholds"].items()
                  if k != "full_class_pairing_min"}
    config = {**CUSTOM, "thresholds": thresholds}
    assert _config_error_path(config) == "/thresholds/full_class_pairing_min"


def test_validate_horizons_multiple_of_h():
    config = {"experiment": "example1-bound",
              "integration": {"h": 0.03, "T0": 1.0, "T_max": 4.0}}
    assert _config_error_path(config) == "/integration/h"
    # single-horizon experiments keep any step, e.g. a chord step t*/200.5
    rv.validate_config({"experiment": "chord",
                        "integration": {"h": 1.0 / 200.5, "T0": 1.0, "T_max": 1.0}})


RAW_ERROR_PROBES = [  # configs that used to validate and then fail with a raw error or hang
    ({"experiment": "chord", "regions": {"X": 3}}, "/regions/X"),
    ({"experiment": "chord", "regions": {"X": {"levels": "ab"}}}, "/regions/X/levels"),
    ({"experiment": "pb-upper", "regions": {"Xp": {"levels": [0.5, 0.0]}}}, "/regions/Xp/levels"),
    ({"experiment": "chord", "regions": {"X": {"constraints": [[2, 0.0]]}}},
     "/regions/X/constraints"),
    ({"experiment": "pb-upper", "thresholds": {"value_range": 1}}, "/thresholds/value_range"),
    ({"experiment": "chord", "thresholds": {"t_star_tol": "x"}}, "/thresholds/t_star_tol"),
    ({"experiment": "chord", "chord": {"t_max": "x"}}, "/chord/t_max"),
    ({"experiment": "chord", "thresholds": {"pb_floor": 0}}, "/thresholds/pb_floor"),
    ({"experiment": "example3-twisted", "orbit": {"p1": "a"}}, "/orbit/p1"),
    ({"experiment": "example3-twisted", "orbit": {"T": 0.0}}, "/orbit/T"),
    ({"experiment": "example3-twisted", "orbit": {"T": -5.0}}, "/orbit/T"),
    ({"experiment": "nonauto-suspension", "iterates": {"n0": 0}}, "/iterates/n0"),
    ({"experiment": "nonauto-suspension", "iterates": {"n0": 2.5}}, "/iterates/n0"),
    ({"experiment": "nonauto-suspension", "iterates": {"n0": 100, "n_max": 50}},
     "/iterates/n_max"),
    ({"experiment": "nonauto-suspension", "integration": {"h": 0.3}}, "/integration/h"),
]


@pytest.mark.parametrize("config, path", RAW_ERROR_PROBES,
                         ids=[path for _, path in RAW_ERROR_PROBES])
def test_validate_rejects_run_time_failures(config, path):
    assert _config_error_path(config) == path


PINNED = {"family": "pinned-profile", "pins": [[0.0, 0.0], [0.5, 1.0]]}
FIELD_TYPE_PROBES = [  # configs that used to validate and then raise or run with a wrong meaning
    ({"experiment": "example1-bound", "integration": {"T0": "x"}}, "/integration/T0"),
    ({"experiment": "example1-bound", "form": {"class": 3}}, "/form/class"),
    ({"experiment": "example1-bound", "form": {"class": ["a", 1]}}, "/form/class"),
    ({**CUSTOM, "family": {"family": "fourier", "coeffs": [["a", [0, 0], 0, "cos"]]}},
     "/family/coeffs/0"),
    ({**CUSTOM, "family": {"family": "fourier", "coeffs": [[0.5, [0, 0], 0, "tan"]]}},
     "/family/coeffs/0"),
    ({**CUSTOM, "family": {"family": "fourier", "coeffs": [[0.5, [0.5, 0], 0, "cos"]]}},
     "/family/coeffs/0"),
    ({"experiment": "example1-bound", "integration": {"tol": "x"}}, "/integration/tol"),
    ({**CUSTOM, "family": {**PINNED, "pins": "x"}}, "/family/pins"),
    ({**CUSTOM, "family": {**PINNED, "n_modes": "a"}}, "/family/n_modes"),
    ({**CUSTOM, "family": {**PINNED, "coord": 7}}, "/family/coord"),
    ({"experiment": "example3-twisted", "space": {"gamma": "x"}}, "/space/gamma"),
    ({"experiment": "example1-sharpness", "family": CUSTOM["family"]}, "/family/family"),
    ({"experiment": "pb-upper", "regions": {"Xp": {"levels": [-1.0]}}}, "/regions/Xp"),
    ({"experiment": "example3-twisted", "space": {"n": 1, "omega": "standard"},
      "family": CUSTOM["family"]}, "/space/n"),
    ({"experiment": "chord", "space": {"omega": {"matrix": [[0.0, 1.0], [1.0, 0.0]]}}},
     "/space/omega/matrix"),
]


@pytest.mark.parametrize("config, path", FIELD_TYPE_PROBES,
                         ids=[f"{i}{path}" for i, (_, path) in enumerate(FIELD_TYPE_PROBES)])
def test_validate_checks_every_field_read(config, path):
    assert _config_error_path(config) == path


FOUR_PINS = [[0.0, 0.0], [0.25, 1.0], [0.5, 0.0], [0.75, 1.0]]
TWISTED_MATRIX = [[0, 0, 1, 0], [0, 0, 0, 1], [-1, 0, 0, 0.5], [0, -1, -0.5, 0]]
CONFIG_DECIDES_PROBES = [  # configs that used to validate and then fail or misreport at run
    ({"experiment": "example1-sharpness", "family": {**PINNED, "pins": [[0, 0], [1, 1]]}},
     "/family/pins/1"),
    ({"experiment": "pb-upper", "optimizer": {"pins": [[0, 0], [1, 1]]}}, "/optimizer/pins/1"),
    ({"experiment": "example1-sharpness",
      "family": {**PINNED, "pins": [[0, 0], [0.5, 1], [0, 0.5]]}}, "/family/pins/2"),
    ({"experiment": "pb-upper", "optimizer": {"pins": [[0, 0], [0.5, 1], [0, 0.5]]}},
     "/optimizer/pins/2"),
    ({"experiment": "example1-sharpness", "family": {**PINNED, "pins": FOUR_PINS, "n_modes": 1}},
     "/family/pins"),
    ({"experiment": "pb-upper", "optimizer": {"pins": FOUR_PINS, "n_modes": 1}},
     "/optimizer/pins"),
    # an absent n_modes is make_pinned_profile's 12: 2 * 12 + 1 = 25 parameters
    ({**CUSTOM, "family": {**PINNED, "pins": [[j / 26, 0.0] for j in range(26)]}},
     "/family/pins"),
    # example3-twisted's closed form is a translation: F on momenta, (Omega^{-1})_pp = 0
    ({"experiment": "example3-twisted",
      "family": {"family": "fourier", "coeffs": [[0.5, [0, 0, 0, 0], 0, "cos"],
                                                [-0.5, [1, 0, 1, 0], 0, "cos"]]}},
     "/family/coeffs/1"),
    ({"experiment": "example3-twisted", "space": {"omega": {"matrix": TWISTED_MATRIX}}},
     "/space/omega/matrix"),
    # pb-upper's candidate is u(p1): a pin at a region's p1 level fixes F on all of it
    ({"experiment": "pb-upper", "optimizer": {"pins": [[0.0, 0.5], [0.5, 1.0]]}},
     "/optimizer/pins/0"),
    ({"experiment": "pb-upper", "optimizer": {"pins": [[0.0, 0.0], [-0.5, 0.9]]}},
     "/optimizer/pins/1"),
    ({"experiment": "pb-upper", "regions": {"X": {"constraints": [[0, 0.25], [1, 0.0]]},
                                            "Xp": {"constraints": [[0, 0.75]]}},
      "optimizer": {"pins": [[0.75, 1.0], [1.25, 0.1]]}}, "/optimizer/pins/1"),
]


@pytest.mark.parametrize("config, path", CONFIG_DECIDES_PROBES,
                         ids=[f"{i}{path}" for i, (_, path) in enumerate(CONFIG_DECIDES_PROBES)])
def test_validate_rejects_what_the_config_decides(config, path):
    assert _config_error_path(config) == path


def test_pins_at_region_levels_within_the_pin_residual_validate():
    # u(level) may miss its bound by the LP's 1e-10 pin residual and still pass
    slack = CONSTRAINT_TOL + 1e-10
    for pins in ([[0.0, slack], [0.5, 1.0]], [[0.0, 0.0], [0.5, 1.0 - slack]],
                 [[0.25, 5.0], [0.75, -5.0]]):  # no pin at a level: left to the run
        rv.validate_config({"experiment": "pb-upper", "optimizer": {"pins": pins}})


def test_null_slope_target_runs_the_same_sharpness_profile():
    # slope_target is retired: a config that still carries it, null or a
    # number, validates and certifies the builtin's slope
    small = {"experiment": "example1-sharpness", "seeds": {"kind": "momentum", "per_dim": 3},
             "integration": {"h": 0.1, "T0": 1.0, "T_max": 2.0}}
    builtin = rv.run(small)
    for target in (None, 2.1):
        retired = rv.run({**small, "family": {"slope_target": target}})
        assert retired.passed
        assert retired.results == builtin.results


def test_twisted_closed_form_follows_omega():
    # the standard form's rotation vector is pi sin(0.4 pi) (0, 0, 1, 0), with no shear
    cfg = {"experiment": "example3-twisted", "space": {"omega": "standard"}, "orbit": {"T": 100.0}}
    report = rv.run(cfg)
    speed = np.pi * np.sin(2 * np.pi * 0.2)
    assert report.passed
    assert report.results["q_component_error"]["value"] <= 1e-12
    assert np.abs(np.subtract(report.results["expected_vector"]["value"],
                              [0.0, 0.0, speed, 0.0])).max() <= 2e-15
    # on the sheared form the closed form is still speed * (0, 0, 1, -gamma)
    twisted = rv.run(SMALL["example3-twisted"]).results["expected_vector"]["value"]
    gamma = rv.DEFAULT_GAMMA
    assert np.abs(np.subtract(twisted, [0.0, 0.0, speed, -gamma * speed])).max() <= 2e-15


def test_validate_fills_the_defaults_the_builders_use():
    cfg = rv.validate_config({**CUSTOM, "seeds": {"kind": "full"}})
    assert cfg["seeds"]["per_dim"] == 32 and cfg["form"]["potential"] is None
    assert rv.validate_config({"experiment": "chord"})["regions"]["X"]["per_dim"] == 32
    # the caller's config is left as it was
    assert "potential" not in CUSTOM["form"]


# scaled-down valid configs of every experiment, each run in well under a second
SMALL = {
    "example1-bound": {"experiment": "example1-bound", "seeds": {"kind": "full", "per_dim": 3},
                       "integration": {"h": 0.1, "T0": 1.0, "T_max": 2.0}},
    "example1-sharpness": {"experiment": "example1-sharpness",
                           "family": {"n_modes": 4, "slope_target": 2.5},
                           "seeds": {"kind": "momentum", "per_dim": 3},
                           "integration": {"h": 0.1, "T0": 1.0, "T_max": 2.0}},
    "example3-twisted": {"experiment": "example3-twisted", "orbit": {"T": 2.0},
                         "integration": {"h": 0.1}},
    "pb-upper": {"experiment": "pb-upper", "optimizer": {"n_modes": 4, "cert_grid_res": 64}},
    "chord": {"experiment": "chord", "integration": {"h": 0.1},
              "regions": {"X": {"levels": [0.0], "per_dim": 4},
                          "Xp": {"levels": [0.5], "per_dim": 4}}},
    "nonauto-suspension": {"experiment": "nonauto-suspension",
                           "seeds": {"kind": "momentum", "per_dim": 2},
                           "iterates": {"n0": 1, "n_max": 2}, "integration": {"h": 0.1}},
    "custom": {**CUSTOM, "seeds": {"kind": "full", "per_dim": 3},
               "integration": {"h": 0.1, "T0": 1.0, "T_max": 2.0, "tol": 1e-4}},
}
BAD_LEAVES = st.one_of(st.sampled_from(["x", True, False, None, 0, 0.5, [], [[0.5, 1]]]),
                       st.integers(-5, -1), st.floats(-5.0, -0.01))


def _leaves(node, path=()):
    """Paths to every non-object value of a config, list elements included."""
    if isinstance(node, dict):
        for key, value in node.items():
            yield from _leaves(value, path + (key,))
        return
    yield path
    if isinstance(node, list):
        for i, value in enumerate(node):
            yield from _leaves(value, path + (i,))


@pytest.mark.parametrize("name", list(SMALL))
@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_accepted_configs_run_or_raise_typed_errors(name, data):
    # a config that passes validation must run or fail with a RotvecError
    config = copy.deepcopy(rv.validate_config(SMALL[name]))
    path = data.draw(st.sampled_from(list(_leaves(config))))
    parent = config
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = data.draw(BAD_LEAVES)
    try:
        cfg = rv.validate_config(config)
    except ConfigError as exc:
        assert exc.path == f"/{path[0]}" or exc.path.startswith(f"/{path[0]}/"), (path, exc)
        return
    try:
        rv.run(cfg)
    except RotvecError:
        pass


def test_nonauto_range_grid_stays_small(monkeypatch):
    # F active in p1, q1 and s: 512 points per axis would be 512**3 grid points (8 GB)
    grid_values = rv.TrigPoly.grid_values

    def bounded(poly, grid_res):
        assert grid_res ** (len(poly.active_dims()) + poly.is_time_dependent) <= 2 ** 18
        return grid_values(poly, grid_res)

    monkeypatch.setattr(rv.TrigPoly, "grid_values", bounded)
    waves = [[0.25, [1, 0], 0, "cos"], [0.2, [2, 0], 0, "sin"], [0.1, [1, 1], -1, "cos"]]
    # at h = 0.05 the loop and double-integral pairings disagree (1.0563 vs 1.0442)
    with pytest.warns(QuadratureWarning):
        report = rv.run({**SMALL["nonauto-suspension"], "integration": {"h": 0.05},
                         "family": {"family": "fourier", "coeffs": waves}})
    # the coarser grid still bounds max F - min F: its range alone falls 2e-4 short
    F = rv.fourier_hamiltonian(2, [tuple(w) for w in waves])
    p1 = np.linspace(0.0, 1.0, 100001)  # the last wave is +-0.1 on q1 = -p1, 1/2 - p1
    top = F.eval(np.column_stack([p1, -p1])).max()
    bottom = F.eval(np.column_stack([p1, 0.5 - p1])).min()
    assert float(report.results["r_bound"]["threshold"].split()[1]) >= top - bottom

    # F active in p1..pn, q1..qn and s: 12 points per axis on 5 axes (n = 2), 5 on 7 (n = 3);
    # the two waves share no axis, so max F - min F = 2 * (0.5 + 0.1)
    for n in (2, 3):
        waves = [[0.5, [1] + [0] * (2 * n - 1), 0, "cos"], [0.1, [0] + [1] * (2 * n - 1), 1, "cos"]]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", QuadratureWarning)
            report = rv.run({**SMALL["nonauto-suspension"], "space": {"kind": "torus", "n": n},
                             "form": {"class": [0.0] * n + [1.0] + [0.0] * (n - 1)},
                             "family": {"family": "fourier", "coeffs": waves}})
        r_bound = report.results["r_bound"]
        assert r_bound["pass"] and float(r_bound["threshold"].split()[1]) >= 1.2


def test_doubling_horizons_need_a_positive_start():
    # a zero start used to append zeros until memory ran out
    for T0 in (0.0, -1.0):
        with pytest.raises(ValueError):
            rv.measures.doubling_horizons(T0, 10.0)


def test_validate_form_class_length():
    config = {"experiment": "example1-bound", "form": {"class": [0.0, 0.5, 1.0]}}
    assert _config_error_path(config) == "/form/class"


def test_validate_seeds():
    config = {"experiment": "example1-bound", "seeds": {"kind": "nope", "per_dim": -3}}
    assert _config_error_path(config) == "/seeds/kind"
    config = {"experiment": "example1-bound", "seeds": {"kind": "full", "per_dim": -3}}
    assert _config_error_path(config) == "/seeds/per_dim"


def test_validate_non_object_sections():
    assert _config_error_path({"experiment": "example1-bound", "seeds": [1, 2]}) == "/seeds"
    assert _config_error_path({"experiment": "pb-upper", "optimizer": "x"}) == "/optimizer"
    assert _config_error_path({"experiment": "chord", "regions": 3}) == "/regions"


def test_validate_optimizer_fields():
    def path(**optimizer):
        return _config_error_path({"experiment": "pb-upper", "optimizer": optimizer})

    assert path(n_modes=0) == "/optimizer/n_modes"
    assert path(n_modes=4.5) == "/optimizer/n_modes"
    assert path(cert_grid_res=8) == "/optimizer/cert_grid_res"
    assert path(pins=[[0.0, 0.0], [0.5]]) == "/optimizer/pins"
    assert path(pins={"0": 1}) == "/optimizer/pins"


def test_validate_wave_vector_lengths():
    family = {"family": "fourier", "coeffs": [[0.5, [0, 0], 0, "cos"], [1.0, [1, 0, 0], 0, "cos"]]}
    assert _config_error_path({**CUSTOM, "family": family}) == "/family/coeffs/1"
    form = {"class": [0.0, 1.0], "potential": [[0.1, [1], "cos"]]}
    assert _config_error_path({**CUSTOM, "form": form}) == "/form/potential/0"


def test_builtin_configs_validate():
    for name in rv.experiments.EXPERIMENTS:
        if name == "custom":
            continue
        cfg = rv.validate_config({"experiment": name})
        assert cfg["experiment"] == name


def test_builtin_configs_are_fresh_copies():
    rv.builtin_config("pb-upper")["thresholds"]["value_range"][0] = 5.0
    rv.validate_config({"experiment": "pb-upper"})["thresholds"]["value_range"][1] = 6.0
    assert rv.builtin_config("pb-upper")["thresholds"]["value_range"] == [0.999, 1.05]


def test_list_experiments_catalog():
    catalog = rv.list_experiments()
    names = [e["name"] for e in catalog]
    assert "example3-twisted" in names
    assert len(catalog) > 0
    pb = next(e for e in catalog if e["name"] == "pb-upper")
    assert "[0.999, 1.05]" in pb["expected"]


def test_run_writes_report_and_artifacts(tmp_path):
    report = rv.run(FAST_BOUND, out_dir=tmp_path)
    assert (tmp_path / "report.json").exists()
    assert (tmp_path / "pairing_vs_T.dat").exists()
    doc = json.loads((tmp_path / "report.json").read_text())
    assert doc["experiment"] == "example1-bound"
    assert doc["passed"] == report.passed
    for entry in doc["results"].values():
        assert "provenance" in entry


def test_run_determinism(tmp_path):
    a = rv.run(FAST_BOUND, out_dir=tmp_path / "a")
    b = rv.run(FAST_BOUND, out_dir=tmp_path / "b")
    da, db = a.to_json(), b.to_json()
    da.pop("timing")
    db.pop("timing")
    assert "seed" not in da  # no step draws random numbers
    assert json.dumps(da, sort_keys=True) == json.dumps(db, sort_keys=True)
    ta = (tmp_path / "a" / "pairing_vs_T.dat").read_bytes()
    tb = (tmp_path / "b" / "pairing_vs_T.dat").read_bytes()
    assert ta == tb


def test_run_chord_experiment(tmp_path):
    report = rv.run({"experiment": "chord"}, out_dir=tmp_path)
    assert report.passed
    assert report.results["t_star"]["value"] == pytest.approx(1.0, abs=1e-9)
    assert (tmp_path / "chord.dat").exists()
    arc = np.loadtxt(tmp_path / "chord.dat")
    assert arc.shape[1] == 3  # t, p1, q1
    # start and end are lifts, written as plain lists: start on X, end on X'
    sp = rv.torus(1)
    start, end = report.results["start"]["value"], report.results["end"]["value"]
    for point in (start, end):
        assert isinstance(point, list) and len(point) == 2
        assert all(isinstance(c, float) for c in point)
    assert rv.momentum_level_torus(sp, [0.0]).contains(np.array([start]))[0]
    assert rv.momentum_level_torus(sp, [0.5]).defect(np.array([end]))[0] <= LANDING_TOL


def test_run_fails_threshold_exit_code(tmp_path):
    bad = dict(FAST_BOUND)
    bad["thresholds"] = {"full_class_pairing_min": 100.0,
                         "best_value_target": np.pi, "best_value_tol": 1e-3}
    report = rv.run(bad, out_dir=tmp_path)
    assert not report.passed
    assert not report.results["full_class_pairing"]["pass"]


def test_cli_list(capsys):
    assert cli_main(["list"]) == 0
    out = capsys.readouterr().out
    assert "example3-twisted" in out
    assert "[0.999, 1.05]" in out


def test_cli_validate(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)  # a run without --out writes under the working directory
    cfg = tmp_path / "ok.json"
    cfg.write_text(json.dumps({"experiment": "chord"}))
    assert cli_main(["validate", str(cfg)]) == 0

    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"experiment": "nope"}))
    assert cli_main(["validate", str(bad)]) == 2
    err = capsys.readouterr().err
    assert "config error at /experiment: must be one of" in err
    assert err.count("/experiment") == 1

    empty = tmp_path / "empty.json"
    empty.write_text("")
    assert cli_main(["validate", str(empty)]) == 2
    assert capsys.readouterr().err.strip() == "config error at <root>: config file is empty"

    assert cli_main(["validate", str(tmp_path / "missing.json")]) == 2
    assert capsys.readouterr().err.startswith("config error at <root>: cannot read config file")

    # an array is no config: both commands fail at the root, before any output directory
    array = tmp_path / "array.json"
    array.write_text(json.dumps([{"experiment": "chord"}]))
    root_error = "config error at <root>: config must be a non-empty JSON object"
    for command in (["validate", str(array)], ["run", str(array)]):
        assert cli_main(command) == 2
        assert capsys.readouterr().err.strip() == root_error
    assert not (tmp_path / "rotvec-results").exists()


def test_cli_run_roundtrip(tmp_path, capsys):
    cfg = tmp_path / "chord.json"
    cfg.write_text(json.dumps({"experiment": "chord"}))
    code = cli_main(["run", str(cfg), "--out", str(tmp_path / "out")])
    assert code == 0
    out = capsys.readouterr().out
    assert "PASS" in out
    assert (tmp_path / "out" / "report.json").exists()


def test_cli_run_threshold_failure_exit_one(tmp_path):
    cfg = tmp_path / "fail.json"
    failing = dict(FAST_BOUND)
    failing["thresholds"] = {"full_class_pairing_min": 100.0,
                             "best_value_target": 3.14159, "best_value_tol": 1e-3}
    cfg.write_text(json.dumps(failing))
    assert cli_main(["run", str(cfg), "--out", str(tmp_path / "out")]) == 1


def test_cli_run_infeasible_pins_name_their_path(tmp_path, capsys):
    # the pins validate, but their LP profile crosses the regions' bounds at
    # p1 = 0 and 1/2: the run fails at the pins' path with the X_max and Xp_min it saw
    cfg = tmp_path / "pins.json"
    cfg.write_text(json.dumps({"experiment": "pb-upper", "optimizer": {
        "pins": [[0.1, 0.0], [0.6, 1.0]], "n_modes": 8, "cert_grid_res": 1024}}))
    assert cli_main(["validate", str(cfg)]) == 0
    assert cli_main(["run", str(cfg), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert "config error at /optimizer/pins: the candidate fails" in err
    assert err.count("/optimizer/pins") == 1
    assert "X_max = 0.165" in err and "Xp_min = 0.834" in err


def test_explicit_omega_matrix_config(tmp_path):
    # space deserialization accepts explicit matrix entries, not only presets
    cfg = dict(FAST_BOUND)
    cfg["space"] = {"kind": "torus", "n": 1,
                    "omega": {"matrix": [[0.0, 1.0], [-1.0, 0.0]]}}
    report = rv.run(cfg, out_dir=None)
    assert report.results["full_class_pairing"]["value"] == pytest.approx(np.pi, abs=1e-3)


def test_custom_experiment_requires_sections(tmp_path):
    report = rv.run(CUSTOM, out_dir=tmp_path)
    assert report.results["full_class_pairing"]["value"] == pytest.approx(np.pi, abs=1e-3)


def test_run_example3_reduced(tmp_path):
    cfg = {"experiment": "example3-twisted", "orbit": {"p1": 0.2, "T": 100.0}}
    report = rv.run(cfg, out_dir=tmp_path)
    assert report.passed
    assert (tmp_path / "orbit.csv").exists()


def test_run_sharpness_reduced(tmp_path, monkeypatch):
    cfg = {
        "experiment": "example1-sharpness",
        "family": {"family": "pinned-profile", "pins": [[0.0, 0.0], [0.5, 1.0]],
                   "n_modes": 16, "slope_target": 2.2},
        "seeds": {"kind": "momentum", "per_dim": 8},
        "integration": {"h": 0.01, "T0": 10.0, "T_max": 40.0, "tol": 1e-4},
        "thresholds": {"certified_slope_max": 2.2, "seed_pairing_slack": 1e-6},
    }
    monkeypatch.setattr(fields, "_LP_CACHE", {})  # the first run solves the LP, the second repeats it
    report = rv.run(cfg, out_dir=tmp_path)
    assert report.passed
    prof = np.loadtxt(tmp_path / "profile.dat")
    assert prof.shape[1] == 3  # p1, u, u'
    lp = report.results["profile_lp"]
    assert "pass" not in lp and set(lp["value"]) == set(LP_KEYS)
    assert lp["value"]["lp_status"] == 0 and lp["value"]["lp_rows"] < SLOPE_GRID
    # a cached solve reports the same solver record, so the reports match byte for byte
    again = rv.run(cfg, out_dir=tmp_path / "again")
    first, second = report.to_json(), again.to_json()
    first.pop("timing")
    second.pop("timing")
    assert json.dumps(first, sort_keys=True) == json.dumps(second, sort_keys=True)
    assert (tmp_path / "profile.dat").read_bytes() == (tmp_path / "again" / "profile.dat").read_bytes()


def test_run_nonauto_reduced(tmp_path):
    cfg = {
        "experiment": "nonauto-suspension",
        "seeds": {"kind": "momentum", "per_dim": 8},
        "iterates": {"n0": 20, "n_max": 160},
    }
    report = rv.run(cfg, out_dir=tmp_path)
    assert report.passed
    assert report.notes  # the strict-vs-nonstrict reading is flagged
    assert (tmp_path / "pairing_vs_N.dat").exists()
    assert (tmp_path / "suspension.csv").exists()


def test_chord_product_of_levels_regions(tmp_path):
    # product-type regions on T^4: pairs of tori pinned in both momenta,
    # connected along the p1-translation exactly as in the planar case
    cfg = {
        "experiment": "chord",
        "space": {"kind": "torus", "n": 2, "omega": "standard"},
        "form": {"class": [0.0, 0.0, 0.5, 0.0]},
        "regions": {
            "X": {"constraints": [[0, 0.0], [1, 0.0]], "per_dim": 8},
            "Xp": {"constraints": [[0, 0.5], [1, 0.0]], "per_dim": 8},
        },
        "chord": {"t_max": 2.0},
        "thresholds": {"t_star_target": 1.0, "t_star_tol": 1e-9, "pb_floor": 1.0},
    }
    report = rv.run(cfg, out_dir=tmp_path)
    assert report.passed
    assert report.results["t_star"]["value"] == pytest.approx(1.0, abs=1e-9)


def test_chord_between_regions_pinning_different_coordinates():
    # X pins p, X' pins q: the regions meet, which a chord allows (its
    # crossing coordinate is then the one X' pins) and pb-upper does not
    regions = {"X": {"constraints": [[1, 0.0]]}, "Xp": {"constraints": [[0, 0.5]]}}
    report = rv.run({"experiment": "chord", "regions": regions,
                     "thresholds": {"t_star_target": 0.0625}})
    assert report.passed
    assert report.results["t_star"]["value"] == pytest.approx(1 / 16, abs=1e-9)
    assert _config_error_path({"experiment": "pb-upper", "regions": regions}) == "/regions/Xp"


def test_chord_on_cotangent_bundle_config():
    cfg = {
        "experiment": "chord",
        "space": {"kind": "cotangent-of-torus", "n": 1, "omega": "standard"},
        "form": {"class": [0.0, 0.3]},
        "regions": {"X": {"levels": [0.0]}, "Xp": {"levels": [0.3]}},
        "chord": {"t_max": 2.0},
        "thresholds": {"t_star_target": 1.0, "t_star_tol": 1e-9, "pb_floor": 1.0},
    }
    report = rv.run(cfg, out_dir=None)
    assert report.results["t_star"]["value"] == pytest.approx(1.0, abs=1e-9)


def test_pb_upper_builtin_headline_ignores_seed_and_retired_keys():
    # the LP candidate, certified at 8192: no seed and no retired optimizer
    # setting (the Nelder-Mead budget and the potential modes) changes it
    report = rv.run({"experiment": "pb-upper"})
    value = report.results["pb_upper_bound"]["value"]
    assert report.passed and report.results["floor_respected"]["pass"]
    assert value == pytest.approx(1.0398567, abs=1e-6)
    retired = {"experiment": "pb-upper", "seed": 7,
               "optimizer": {"restarts": 2, "max_evals": 60, "grid_res": 128,
                             "alpha_modes": 2, "spread": 3.0}}
    assert rv.run(retired).results["pb_upper_bound"]["value"] == value
